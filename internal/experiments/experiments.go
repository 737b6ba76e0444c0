// Package experiments reproduces every table and figure of the Jellyfish
// paper's evaluation (§4-§6). Each function returns a Table whose rows are
// the same series the paper plots; cmd/experiments prints them and
// bench_test.go wraps them as benchmarks. DESIGN.md §3 maps experiment IDs
// to the modules involved.
//
// What only the figures use lives here too: the Jellyfish and LEGUP-like
// Clos expansion arcs of Fig. 7 (expansion.go; DESIGN.md §8 has the LEGUP
// substitution) and the summary and percentile helpers of Figs. 12-13.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"jellyfish/internal/parallel"
)

// Options control experiment scale.
type Options struct {
	// Seed is the root seed; every randomized piece derives from it.
	Seed uint64
	// Trials is the number of independent runs averaged per data point
	// (0 selects each experiment's default).
	Trials int
	// Quick trims sweeps to small sizes so the whole suite runs in
	// seconds; full-scale sweeps match the paper's sizes.
	Quick bool
	// Workers sets the fan-out width. Experiments nest at most two
	// Workers-wide levels (sweep points × trials, or a narrow stage ×
	// per-source route builds / solver batches), so at most ~Workers²
	// tasks are in flight; per-trial solver and simulator runs are
	// serial. 0 selects runtime.NumCPU(); 1 runs the whole experiment
	// serially. For a hard CPU cap on a shared machine, also bound
	// GOMAXPROCS. Identical Seed yields bit-identical tables for every
	// Workers value: per-trial random streams are derived from the root
	// seed by stable index, never by completion order.
	Workers int
}

// workers resolves the Workers knob (0 = all cores).
func (o Options) workers() int { return parallel.Workers(o.Workers) }

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick && def > 3 {
		return 3
	}
	return def
}

// A Table is a printable reproduction of one paper table or figure.
type Table struct {
	ID      string // "fig2c", "table1", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, " ", strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// All lists every experiment ID with its runner, in paper order.
func All() []struct {
	ID  string
	Run func(Options) *Table
} {
	return []struct {
		ID  string
		Run func(Options) *Table
	}{
		{"fig1c", Fig1cPathLengthCDF},
		{"fig2a", Fig2aBisectionVsServers},
		{"fig2b", Fig2bEquipmentCost},
		{"fig2c", Fig2cServersAtFullThroughput},
		{"fig3", Fig3DegreeDiameter},
		{"fig4", Fig4SWDC},
		{"fig5", Fig5PathLength},
		{"fig6", Fig6IncrementalVsScratch},
		{"fig7", Fig7LEGUP},
		{"fig8", Fig8Failures},
		{"fig9", Fig9ECMPPathCounts},
		{"table1", Table1RoutingCongestion},
		{"fig10", Fig10SimVsOptimal},
		{"fig11", Fig11PacketLevelServers},
		{"fig12", Fig12Stability},
		{"fig13", Fig13Fairness},
		{"fig14", Fig14Locality},
		{"ablation-routing-k", AblationRoutingK},
		{"ablation-oversubscription", AblationOversubscription},
		{"ablation-heterogeneous", AblationHeterogeneousExpansion},
		{"ablation-failures-routing", AblationFailuresRealizableRouting},
		{"ablation-switch-failures", AblationSwitchFailures},
		{"ablation-alltoall", AblationAllToAll},
		{"ablation-packet-vs-fluid", AblationPacketVsFluid},
		{"ablation-hotspot", AblationHotspot},
	}
}

// Lookup finds an experiment runner by ID (returns nil if unknown).
func Lookup(id string) func(Options) *Table {
	for _, e := range All() {
		if e.ID == id {
			return e.Run
		}
	}
	return nil
}
