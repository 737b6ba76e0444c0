package experiments

import (
	"testing"
)

func smallArcConfig() arcConfig {
	return arcConfig{
		SwitchPorts:     24,
		InitialServers:  120,
		InitialSwitches: 12,
		StageBudgets:    []float64{20000, 20000, 20000, 20000},
		ServersAdded:    60,
		Seed:            1,
	}
}

func TestDefaultCostModel(t *testing.T) {
	c := defaultCostModel()
	if c.PortCost <= 0 || c.CableCost <= 0 || c.RewireCost <= 0 {
		t.Fatalf("cost model has non-positive entries: %+v", c)
	}
	if c.SwitchCost(48) != 48*c.PortCost {
		t.Fatal("switch cost wrong")
	}
}

func TestJellyfishArcShape(t *testing.T) {
	stages := jellyfishArc(smallArcConfig())
	if len(stages) != 5 {
		t.Fatalf("stages = %d, want 5", len(stages))
	}
	if stages[0].Servers != 120 {
		t.Fatalf("initial servers = %d, want 120", stages[0].Servers)
	}
	// Stage 1 adds servers.
	if stages[1].Servers <= stages[0].Servers {
		t.Fatalf("stage 1 did not add servers: %d -> %d", stages[0].Servers, stages[1].Servers)
	}
	// Later stages add only switches.
	for i := 2; i < len(stages); i++ {
		if stages[i].Servers != stages[1].Servers {
			t.Fatalf("stage %d changed servers: %d", i, stages[i].Servers)
		}
		if stages[i].Switches < stages[i-1].Switches {
			t.Fatalf("stage %d lost switches", i)
		}
	}
}

func TestJellyfishArcBudgetsRespected(t *testing.T) {
	// Switch-only stages must respect their budgets; the server-adding
	// stage is a mandatory purchase (both designs) and may exceed it.
	cfg := smallArcConfig().withDefaults()
	stages := jellyfishArc(cfg)
	for i, s := range stages[1:] {
		if i+1 == serversAddedStage {
			continue
		}
		if s.Spent > cfg.StageBudgets[i]+1e-9 {
			t.Fatalf("stage %d overspent: %v > %v", i+1, s.Spent, cfg.StageBudgets[i])
		}
	}
}

func TestJellyfishArcBisectionImproves(t *testing.T) {
	stages := jellyfishArc(smallArcConfig())
	first, last := stages[1], stages[len(stages)-1]
	// Adding switch-only capacity must not reduce bisection materially.
	if last.NormalizedBisection < first.NormalizedBisection {
		t.Fatalf("bisection fell across switch-only stages: %v -> %v",
			first.NormalizedBisection, last.NormalizedBisection)
	}
}

func TestClosArcShape(t *testing.T) {
	stages := closArc(smallArcConfig())
	if len(stages) != 5 {
		t.Fatalf("stages = %d, want 5", len(stages))
	}
	if stages[0].Servers != 120 {
		t.Fatalf("initial servers = %d, want 120", stages[0].Servers)
	}
	for i, s := range stages {
		if s.NormalizedBisection < 0 || s.NormalizedBisection > 1 {
			t.Fatalf("stage %d bisection %v out of [0,1]", i, s.NormalizedBisection)
		}
	}
}

func TestClosArcBudgetsRespected(t *testing.T) {
	cfg := smallArcConfig().withDefaults()
	stages := closArc(cfg)
	for i, s := range stages[1:] {
		if i+1 == serversAddedStage {
			continue // mandatory server purchase
		}
		if s.Spent > cfg.StageBudgets[i]+1e-9 {
			t.Fatalf("stage %d overspent: %v > %v", i+1, s.Spent, cfg.StageBudgets[i])
		}
	}
}

// Fig. 7's headline: at matched per-stage budgets, Jellyfish's bisection
// exceeds the Clos upgrader's at every post-expansion stage.
func TestJellyfishBeatsClosArc(t *testing.T) {
	cfg := smallArcConfig()
	jf := jellyfishArc(cfg)
	clos := closArc(cfg)
	wins := 0
	for i := 1; i < len(jf); i++ {
		if jf[i].NormalizedBisection >= clos[i].NormalizedBisection {
			wins++
		}
	}
	if wins < len(jf)-2 {
		t.Fatalf("jellyfish won only %d/%d stages", wins, len(jf)-1)
	}
	last := len(jf) - 1
	if jf[last].NormalizedBisection <= clos[last].NormalizedBisection {
		t.Fatalf("final stage: jellyfish %v <= clos %v",
			jf[last].NormalizedBisection, clos[last].NormalizedBisection)
	}
}

func TestArcDefaultsApplied(t *testing.T) {
	cfg := arcConfig{}.withDefaults()
	if cfg.SwitchPorts != 24 || cfg.InitialServers != 480 || cfg.InitialSwitches != 34 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if len(cfg.StageBudgets) != 8 {
		t.Fatalf("default budgets = %d, want 8", len(cfg.StageBudgets))
	}
}

func TestArcDeterministic(t *testing.T) {
	a := jellyfishArc(smallArcConfig())
	b := jellyfishArc(smallArcConfig())
	for i := range a {
		if a[i].NormalizedBisection != b[i].NormalizedBisection || a[i].Switches != b[i].Switches {
			t.Fatal("same seed produced different arcs")
		}
	}
}

func TestClosBuildValid(t *testing.T) {
	cfg := smallArcConfig().withDefaults()
	c := newClos(cfg, cfg.SwitchPorts)
	top := c.build()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.NumServers() < cfg.InitialServers {
		t.Fatalf("clos carries %d servers, want >= %d", top.NumServers(), cfg.InitialServers)
	}
}
