// Command experiments regenerates the tables and figures of the Jellyfish
// paper's evaluation. Run with no arguments to list experiments; pass one
// or more experiment IDs (or "all") to run them.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-trials N] [-workers N] [fig2c table1 ... | all]
//
// Full-scale runs use the paper's sizes and can take minutes per figure;
// -quick trims every sweep to seconds, and -workers fans independent
// trials and sweep points out over CPU cores (0 = all cores; output is
// bit-identical for every worker count).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"jellyfish/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size sweeps (seconds instead of minutes)")
	seed := flag.Uint64("seed", 1, "root random seed")
	trials := flag.Int("trials", 0, "trials per data point (0 = experiment default)")
	workers := flag.Int("workers", 0, "CPU parallelism (0 = all cores, 1 = serial; same output either way)")
	flag.Parse()

	opt := experiments.Options{Seed: *seed, Trials: *trials, Quick: *quick, Workers: *workers}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Println("available experiments (pass IDs or \"all\"):")
		for _, e := range experiments.All() {
			fmt.Printf("  %s\n", e.ID)
		}
		return
	}
	if len(args) == 1 && args[0] == "all" {
		args = nil
		for _, e := range experiments.All() {
			args = append(args, e.ID)
		}
	}
	exit := 0
	for _, id := range args {
		run := experiments.Lookup(id)
		if run == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			exit = 2
			continue
		}
		start := time.Now()
		tab := run(opt)
		tab.Fprint(os.Stdout)
		fmt.Printf("  [%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	os.Exit(exit)
}
