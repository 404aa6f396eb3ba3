// Package experiments regenerates the tables and figures of the paper's
// evaluation (§5, §4.5 and Appendices B–C) as experiments E1–E11. Each
// experiment returns a Table whose rows mirror the series the paper plots;
// cmd/dstress-bench prints them. Performance is measured elsewhere, by the
// bench/ workloads against BENCHMARK.json.
//
// Experiments run at two scales:
//
//   - Quick (default): shrunken block sizes, degrees and populations so the
//     whole suite finishes in minutes on a laptop. The *shapes* — linear in
//     block size, linear in D, quadratic end-to-end in k, cubic naive-MPC
//     blowup — are preserved; each table's notes state the paper's shape.
//   - Full: the paper's parameters (blocks of 8–20, D up to 100, N = 100).
//     Hours of CPU; intended for dedicated runs via dstress-bench -full.
package experiments

import (
	"fmt"
	"strings"

	"dstress/internal/group"
)

// Options configures an experiment run.
type Options struct {
	// Full selects the paper-scale parameters instead of the quick ones.
	Full bool
	// Group backs ElGamal and base OTs; nil means P-256 for full scale and
	// the fast mod-p test group for quick scale.
	Group group.Group
}

func (o Options) group() group.Group {
	if o.Group != nil {
		return o.Group
	}
	if o.Full {
		return group.P256()
	}
	return group.ModP256()
}

// blockSizes returns the block-size sweep (k+1 values).
func (o Options) blockSizes() []int {
	if o.Full {
		return []int{8, 12, 16, 20}
	}
	return []int{2, 3, 4}
}

// degrees returns the degree-bound sweep for Figure 3 (right).
func (o Options) degrees() []int {
	if o.Full {
		return []int{10, 40, 70, 100}
	}
	return []int{2, 4, 6, 8}
}

// aggSizes returns the aggregation population sweep for Figure 3 (right).
func (o Options) aggSizes() []int {
	if o.Full {
		return []int{50, 100, 150, 200}
	}
	return []int{10, 20, 30, 40}
}

// microDegree is the degree used by the per-step microbenchmarks (Fig. 3
// left uses D=100).
func (o Options) microDegree() int {
	if o.Full {
		return 100
	}
	return 4
}

// microAggN is the population used by the aggregation microbenchmark
// (Fig. 3 left uses N=100).
func (o Options) microAggN() int {
	if o.Full {
		return 100
	}
	return 20
}

// e2e returns the end-to-end run parameters (Fig. 5 uses N=100, D=10, I=7).
func (o Options) e2e() (n, d, iters int) {
	if o.Full {
		return 100, 10, 7
	}
	return 8, 3, 3
}

// msgBits is the transferred message width (the prototype uses 12-bit
// shares, §5.1).
const msgBits = 12

// circuitWidth is the fixed-point word width of the risk-model circuits in
// experiments; 32 keeps quick-scale MPC wall time low while exercising the
// same circuit structure as the 40-bit default.
const circuitWidth = 32

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

// Table is a titled grid of results.
type Table struct {
	ID     string // experiment id (E1..E11)
	Title  string // paper reference
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Entry describes one experiment in the registry: its canonical id, an
// alias matching the paper artifact, a one-line description for index
// listings, and the builder.
type Entry struct {
	ID    string
	Alias string
	Desc  string
	Gen   func(Options) *Table
}

// registry is the single list every experiment surface derives from —
// ByID and cmd/dstress-bench's index and run order — so an experiment
// added here cannot be missing from any of them.
var registry = []Entry{
	{"E1", "fig3left", "Figure 3 (left): MPC step time vs block size", Fig3Left},
	{"E2", "fig3right", "Figure 3 (right): MPC step time vs degree bound and population", Fig3Right},
	{"E3", "transferlatency", "§5.2: message transfer latency vs block size", TransferLatency},
	{"E4", "fig4", "Figure 4: per-node MPC traffic vs block size", Fig4Traffic},
	{"E5", "transfertraffic", "§5.3: transfer traffic by protocol role", TransferTraffic},
	{"E6", "fig5", "Figure 5: end-to-end EN/EGJ runs, phase split + traffic", Fig5EndToEnd},
	{"E7", "fig6", "Figure 6: projected cost vs network size + validation runs", Fig6Projection},
	{"E8", "naive", "§5.5: naive monolithic-MPC baseline extrapolation", NaiveMPCBaseline},
	{"E9", "utility", "§4.5: utility / privacy-budget worked example", func(Options) *Table { return UtilityTable() }},
	{"E10", "edgebudget", "Appendix B: edge-privacy budget", func(Options) *Table { return EdgeBudgetTable() }},
	{"E11", "contagion", "Appendix C: core-periphery contagion scenarios", ContagionSim},
}

// Registry returns the experiment index in run order.
func Registry() []Entry { return registry }

// ByID returns the experiment with the given id (e1..e11, case
// insensitive) or alias, or nil.
func ByID(id string, o Options) *Table {
	id = strings.ToLower(id)
	for _, e := range registry {
		if strings.ToLower(e.ID) == id || e.Alias == id {
			return e.Gen(o)
		}
	}
	return nil
}
