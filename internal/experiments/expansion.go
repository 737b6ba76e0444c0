package experiments

import (
	"fmt"

	"jellyfish/internal/estimate"
	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

// The incremental-growth machinery behind Fig. 7 (§4.2): staged,
// budget-constrained expansion arcs for Jellyfish and for a LEGUP-like
// Clos upgrader (the paper compares against LEGUP [14], which is
// closed-source; DESIGN.md §8 documents the substitution), under a shared
// cost model for switches, cables, and rewiring.

// costModel prices the equipment and labor charged to both designs.
// The defaults follow the ballpark figures of §6: ~$100/port switches,
// $5-6/m electrical cables (~$60 per installed cable including labor), and
// rewiring charged per cable end moved.
type costModel struct {
	PortCost   float64 // dollars per switch port purchased
	CableCost  float64 // dollars per new cable installed
	RewireCost float64 // dollars per existing cable moved or removed
}

// defaultCostModel returns the cost model charged to both designs.
func defaultCostModel() costModel {
	return costModel{PortCost: 100, CableCost: 60, RewireCost: 30}
}

// SwitchCost prices one k-port switch.
func (c costModel) SwitchCost(k int) float64 { return float64(k) * c.PortCost }

// A stage records one point of an expansion arc.
type stage struct {
	Index               int
	Spent               float64
	CumulativeCost      float64
	Servers             int
	Switches            int
	NormalizedBisection float64
}

// serversAddedStage is the stage that adds arcConfig.ServersAdded servers;
// every other stage adds only switches.
const serversAddedStage = 1

// arcConfig describes the Fig. 7 scenario: an initial network, one stage
// that adds servers, then switch-only stages, all under per-stage budgets.
type arcConfig struct {
	SwitchPorts     int // port count of every switch (default 24)
	InitialServers  int // default 480
	InitialSwitches int // default 34
	StageBudgets    []float64
	ServersAdded    int // default 240
	Seed            uint64
}

func (c arcConfig) withDefaults() arcConfig {
	if c.SwitchPorts == 0 {
		c.SwitchPorts = 24
	}
	if c.InitialServers == 0 {
		c.InitialServers = 480
	}
	if c.InitialSwitches == 0 {
		c.InitialSwitches = 34
	}
	if len(c.StageBudgets) == 0 {
		c.StageBudgets = []float64{60000, 60000, 60000, 60000, 60000, 60000, 60000, 60000}
	}
	if c.ServersAdded == 0 {
		c.ServersAdded = 240
	}
	return c
}

// jellyfishArc runs the staged expansion for Jellyfish: each stage buys as
// many switches as the budget allows (switch + cable + rewire costs) and
// splices them in randomly; the designated stage also spreads the new
// servers over the new switches.
func jellyfishArc(cfg arcConfig) []stage {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed).Split("jellyfish-arc")
	k, cost := cfg.SwitchPorts, defaultCostModel()

	perSwitch := (cfg.InitialServers + cfg.InitialSwitches - 1) / cfg.InitialSwitches
	ports := make([]int, cfg.InitialSwitches)
	servers := make([]int, cfg.InitialSwitches)
	left := cfg.InitialServers
	for i := range ports {
		ports[i] = k
		servers[i] = min(perSwitch, left)
		left -= servers[i]
	}
	top := topology.JellyfishHeterogeneous(ports, servers, src.Split("initial"))

	stages := make([]stage, 0, len(cfg.StageBudgets)+1)
	cumulative := initialCost(top, cost)
	stages = append(stages, stage{
		Index: 0, Spent: cumulative, CumulativeCost: cumulative,
		Servers: top.NumServers(), Switches: top.NumSwitches(),
		NormalizedBisection: estimate.NormalizedKLBisection(top.Graph, top.Servers, src.SplitN("bisect", 0)),
	})

	for si, budget := range cfg.StageBudgets {
		spent := 0.0
		// Unit cost of splicing in one switch: the switch itself, r new
		// cables, and r/2 removed cables' labor.
		r := k // network degree for a server-free switch
		serversThisStage := 0
		if si+1 == serversAddedStage {
			serversThisStage = cfg.ServersAdded
		}
		newSwitches := 0
		for {
			deg := r
			sv := 0
			if serversThisStage > 0 {
				sv = min(perSwitch, serversThisStage)
				deg = k - sv
			}
			unit := cost.SwitchCost(k) +
				float64(deg)*cost.CableCost +
				float64(deg/2)*cost.RewireCost +
				float64(sv)*cost.CableCost // server cables
			// Server racks are mandatory purchases (the scenario fixes the
			// server count per stage for both designs); pure network
			// capacity stops at the budget.
			if sv == 0 && spent+unit > budget {
				break
			}
			topology.ExpandJellyfish(top, 1, k, deg, src.SplitN(fmt.Sprintf("stage%d", si), newSwitches))
			top.Servers[top.NumSwitches()-1] = sv
			serversThisStage -= sv
			spent += unit
			newSwitches++
		}
		cumulative += spent
		stages = append(stages, stage{
			Index: si + 1, Spent: spent, CumulativeCost: cumulative,
			Servers: top.NumServers(), Switches: top.NumSwitches(),
			NormalizedBisection: estimate.NormalizedKLBisection(top.Graph, top.Servers, src.SplitN("bisect", si+1)),
		})
	}
	return stages
}

// closArc runs the staged expansion for the LEGUP-like Clos design: a
// two-level folded Clos (ToRs + aggregation) that must preserve Clos
// structure at every stage. Like LEGUP it reserves a fraction of
// aggregation ports free for future expansion, and pays rewiring costs to
// re-spread ToR uplinks evenly whenever the aggregation layer grows.
func closArc(cfg arcConfig) []stage {
	cfg = cfg.withDefaults()
	k, cost := cfg.SwitchPorts, defaultCostModel()

	c := newClos(cfg, k)
	stages := make([]stage, 0, len(cfg.StageBudgets)+1)
	top := c.build()
	cumulative := initialCost(top, cost)
	stages = append(stages, stage{
		Index: 0, Spent: cumulative, CumulativeCost: cumulative,
		Servers: top.NumServers(), Switches: top.NumSwitches(),
		NormalizedBisection: c.normalizedBisection(),
	})

	for si, budget := range cfg.StageBudgets {
		spent := 0.0
		if si+1 == serversAddedStage {
			spent += c.addServers(cfg.ServersAdded, cost)
		}
		// Buy aggregation switches with the remaining budget. Each new agg
		// switch requires re-spreading every ToR's uplinks (rewiring cost
		// proportional to the uplinks moved) — the structural tax of Clos.
		for {
			moved := c.uplinksMovedByAggGrowth()
			unit := cost.SwitchCost(k) +
				float64(c.newCablesForAgg())*cost.CableCost +
				float64(moved)*cost.RewireCost
			if spent+unit > budget {
				break
			}
			c.aggSwitches++
			spent += unit
		}
		cumulative += spent
		top = c.build()
		stages = append(stages, stage{
			Index: si + 1, Spent: spent, CumulativeCost: cumulative,
			Servers: top.NumServers(), Switches: top.NumSwitches(),
			NormalizedBisection: c.normalizedBisection(),
		})
	}
	return stages
}

// clos models a two-level folded-Clos under expansion.
type clos struct {
	k           int // ports per switch
	torSwitches int
	aggSwitches int
	serversPer  int // servers per ToR (max)
	servers     int // total servers carried
	reserveFrac float64
	extraTors   int // ToRs added later (server expansion)
}

func newClos(cfg arcConfig, k int) *clos {
	c := &clos{k: k, reserveFrac: 0.25, servers: cfg.InitialServers}
	// Split the initial switches between ToR and aggregation so the initial
	// bisection is maximized subject to carrying all servers: ToRs carry
	// ceil(servers/torCount) servers each; uplinks use the rest.
	best := -1.0
	for tors := cfg.InitialSwitches - 1; tors >= cfg.InitialSwitches/2; tors-- {
		aggs := cfg.InitialSwitches - tors
		per := (cfg.InitialServers + tors - 1) / tors
		if per >= k {
			continue
		}
		uplinks := min(k-per, aggs*k/tors)
		bis := float64(tors*uplinks) / 2
		if bis > best {
			best = bis
			c.torSwitches, c.aggSwitches, c.serversPer = tors, aggs, per
		}
	}
	if c.torSwitches == 0 {
		c.torSwitches = cfg.InitialSwitches * 3 / 4
		c.aggSwitches = cfg.InitialSwitches - c.torSwitches
		c.serversPer = (cfg.InitialServers + c.torSwitches - 1) / c.torSwitches
	}
	return c
}

// uplinksPerTor returns how many uplinks each ToR can run: limited by its
// own free ports and by the aggregation capacity remaining after LEGUP-like
// port reservation.
func (c *clos) uplinksPerTor() int {
	own := c.k - c.serversPer
	tors := c.torSwitches + c.extraTors
	aggCapacity := int(float64(c.aggSwitches*c.k) * (1 - c.reserveFrac))
	return min(own, aggCapacity/tors)
}

// normalizedBisection returns the Clos's server-normalized bisection
// analytically: a two-level folded Clos with U uplinks per ToR and S
// servers per ToR delivers U/S of NIC rate across any balanced server
// split (parallel ToR-agg cables counted exactly, unlike the simple-graph
// rendering of build). This credits the Clos with ideal internal routing.
func (c *clos) normalizedBisection() float64 {
	if c.serversPer == 0 {
		return 0
	}
	return min(1, float64(c.uplinksPerTor())/float64(c.serversPer))
}

func (c *clos) uplinksMovedByAggGrowth() int {
	// Growing the agg layer re-spreads all ToR uplinks; charge half of them
	// as moved cable-ends.
	return (c.torSwitches + c.extraTors) * c.uplinksPerTor() / 2
}

func (c *clos) newCablesForAgg() int {
	return int(float64(c.k) * (1 - c.reserveFrac))
}

// addServers buys the ToRs needed for extra servers (a mandatory purchase,
// mirroring the Jellyfish arc) and returns the amount spent.
func (c *clos) addServers(servers int, cost costModel) float64 {
	spent := 0.0
	for servers > 0 {
		sv := min(c.serversPer, servers)
		unit := cost.SwitchCost(c.k) +
			float64(c.uplinksPerTor())*cost.CableCost +
			float64(sv)*cost.CableCost
		c.extraTors++
		c.servers += sv
		servers -= sv
		spent += unit
	}
	return spent
}

// build materializes the Clos as an explicit topology: each ToR spreads its
// uplinks round-robin over the aggregation switches.
func (c *clos) build() *topology.Topology {
	tors := c.torSwitches + c.extraTors
	n := tors + c.aggSwitches
	t := &topology.Topology{
		Name:    fmt.Sprintf("clos(tors=%d,aggs=%d)", tors, c.aggSwitches),
		Graph:   graph.New(n),
		Ports:   make([]int, n),
		Servers: make([]int, n),
	}
	for i := 0; i < n; i++ {
		t.Ports[i] = c.k
	}
	up := c.uplinksPerTor()
	aggUsed := make([]int, c.aggSwitches)
	aggCap := int(float64(c.k) * (1 - c.reserveFrac))
	next := 0
	remaining := c.servers
	for tor := 0; tor < tors; tor++ {
		t.Servers[tor] = min(c.serversPer, remaining)
		remaining -= t.Servers[tor]
		placed := 0
		for tries := 0; placed < up && tries < c.aggSwitches; tries++ {
			agg := next % c.aggSwitches
			next++
			if aggUsed[agg] >= aggCap {
				continue
			}
			if t.Graph.AddEdge(tor, tors+agg) {
				aggUsed[agg]++
				placed++
			}
		}
	}
	return t
}

func initialCost(t *topology.Topology, cost costModel) float64 {
	return float64(t.TotalPorts())*cost.PortCost +
		float64(t.NumLinks()+t.NumServers())*cost.CableCost
}
