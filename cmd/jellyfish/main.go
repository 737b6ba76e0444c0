// Command jellyfish builds and inspects Jellyfish topologies from the
// command line: generate a network, print its properties, evaluate its
// throughput, expand it, and emit a cabling blueprint.
//
// Usage:
//
//	jellyfish -switches 100 -ports 24 -degree 12 [-seed 1] [flags]
//
// Flags:
//
//	-throughput     evaluate optimal-routing throughput (random permutation)
//	-packet         evaluate flow-level throughput (kSP-8 + MPTCP)
//	-maxservers     binary-search the most servers this switch inventory
//	                supports at full throughput (warm-started incremental
//	                search; -trials bounds permutations per probe)
//	-trials N       permutation matrices per feasibility probe (default 3)
//	-expand N       add N more switches incrementally before reporting
//	-blueprint      print the cable list (one "u v" pair per line)
//	-save FILE      write the full JSON blueprint to FILE
//	-load FILE      load a JSON blueprint instead of generating
//	-connectivity   report edge connectivity (min link failures to partition)
//	-fattree K      build a k-ary fat-tree instead (other topo flags ignored)
//	-workers N      CPU parallelism for evaluators (0 = all cores; results
//	                are identical for every worker count)
package main

import (
	"flag"
	"fmt"
	"os"

	"jellyfish"
)

func main() {
	switches := flag.Int("switches", 100, "number of top-of-rack switches")
	ports := flag.Int("ports", 24, "ports per switch")
	degree := flag.Int("degree", 12, "network ports per switch (rest attach servers)")
	seed := flag.Uint64("seed", 1, "random seed (construction is deterministic per seed)")
	expand := flag.Int("expand", 0, "incrementally add this many switches before reporting")
	fattree := flag.Int("fattree", 0, "build a k-ary fat-tree instead (k even)")
	saveFile := flag.String("save", "", "write the JSON blueprint to this file")
	loadFile := flag.String("load", "", "load a JSON blueprint instead of generating")
	connectivity := flag.Bool("connectivity", false, "report edge connectivity")
	throughput := flag.Bool("throughput", false, "evaluate optimal-routing throughput")
	packet := flag.Bool("packet", false, "evaluate flow-level (kSP-8 + MPTCP) throughput")
	maxServers := flag.Bool("maxservers", false, "binary-search the most servers supported at full throughput (uses -switches/-ports/-trials/-seed)")
	trials := flag.Int("trials", 3, "permutation matrices per feasibility probe of -maxservers")
	blueprint := flag.Bool("blueprint", false, "print the cabling blueprint (edge list)")
	workers := flag.Int("workers", 0, "CPU parallelism for evaluators (0 = all cores, 1 = serial)")
	flag.Parse()

	// -maxservers is an inventory-level search: it needs only the switch
	// count and port count, not the constructed topology (whose default
	// network degree may not even fit the given ports).
	if *maxServers {
		if *fattree > 0 || *loadFile != "" {
			fmt.Fprintln(os.Stderr, "-maxservers searches a jellyfish inventory; it needs -switches and -ports, not -fattree/-load")
			os.Exit(2)
		}
		got, err := jellyfish.CapacitySearch{
			Switches: *switches, Ports: *ports, Trials: *trials,
			Seed: *seed, Workers: *workers,
		}.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("max servers at full throughput: %d (%d %d-port switches, %d trials/probe)\n",
			got, *switches, *ports, *trials)
		return
	}

	var net *jellyfish.Topology
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		net, err = jellyfish.ReadBlueprint(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else if *fattree > 0 {
		net = jellyfish.NewFatTree(*fattree)
	} else {
		net = jellyfish.New(jellyfish.Config{
			Switches: *switches, Ports: *ports, NetworkDegree: *degree, Seed: *seed,
		})
	}
	if *expand > 0 {
		if *fattree > 0 {
			fmt.Fprintln(os.Stderr, "fat-trees cannot be expanded incrementally; that is the point of the paper")
			os.Exit(2)
		}
		jellyfish.Expand(net, *expand, *ports, *degree, *seed+1)
	}

	stats := net.SwitchPathStats()
	fmt.Printf("topology:   %s\n", net)
	fmt.Printf("servers:    %d\n", net.NumServers())
	fmt.Printf("switches:   %d\n", net.NumSwitches())
	fmt.Printf("links:      %d\n", net.NumLinks())
	fmt.Printf("ports:      %d (free: %d)\n", net.TotalPorts(), net.TotalFreePorts())
	fmt.Printf("mean path:  %.3f switch hops\n", stats.Mean)
	fmt.Printf("diameter:   %d\n", stats.Diameter)
	if *connectivity {
		fmt.Printf("edge connectivity: %d\n", jellyfish.EdgeConnectivity(net))
	}
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := jellyfish.WriteBlueprint(net, f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("blueprint saved: %s\n", *saveFile)
	}
	if *throughput {
		fmt.Printf("optimal throughput:      %.4f of NIC rate\n", jellyfish.OptimalThroughput(net, *seed+2, *workers))
	}
	if *packet {
		res := jellyfish.PacketLevelThroughput(net, jellyfish.KSP8, jellyfish.MPTCP8Subflows, *seed+3, *workers)
		fmt.Printf("packet-level throughput: %.4f of NIC rate (Jain fairness %.4f)\n",
			res.MeanThroughput, res.Fairness)
	}
	if *blueprint {
		fmt.Println("cabling blueprint (switch pairs):")
		for _, e := range net.Graph.Edges() {
			fmt.Printf("%d %d\n", e.U, e.V)
		}
	}
}
