package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

var quick = Options{}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "EX", Title: "test", Header: []string{"a", "bb"}}
	tab.Add("1", "2")
	tab.Notes = append(tab.Notes, "a note")
	s := tab.String()
	for _, want := range []string{"EX", "test", "a", "bb", "1", "2", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"e9", "E10"} {
		if ByID(id, quick) == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if ByID("nope", quick) != nil {
		t.Error("unknown id accepted")
	}
}

func TestUtilityTableValues(t *testing.T) {
	tab := UtilityTable()
	s := tab.String()
	if !strings.Contains(s, "0.23") {
		t.Errorf("utility table missing paper epsilon:\n%s", s)
	}
	if !strings.Contains(s, "3") {
		t.Errorf("utility table missing runs per year:\n%s", s)
	}
}

func TestEdgeBudgetTableValues(t *testing.T) {
	s := EdgeBudgetTable().String()
	for _, want := range []string{"0.0014", "0.04"} {
		if !strings.Contains(s, want) {
			t.Errorf("edge budget table missing %q:\n%s", want, s)
		}
	}
}

func TestContagionSim(t *testing.T) {
	tab := ContagionSim(quick)
	if len(tab.Rows) < 6 {
		t.Fatalf("contagion table has %d rows", len(tab.Rows))
	}
	// The absorbed scenario must have strictly smaller TDS than the
	// cascade, and the cascade must fail core banks.
	var absorbed, cascade float64
	var cascadeCore string
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "absorbed") {
			absorbed = parseF(t, row[2])
		}
		if strings.Contains(row[0], "cascade") {
			cascade = parseF(t, row[2])
			cascadeCore = row[4]
		}
	}
	if cascade <= absorbed {
		t.Errorf("cascade TDS %v not above absorbed %v", cascade, absorbed)
	}
	if cascadeCore == "0" {
		t.Error("core shock failed no core banks")
	}
	// Convergence rows: iterations should be small (≈ log2 N, certainly
	// well under N).
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "convergence") {
			iters := parseF(t, row[5])
			n := parseF(t, row[1])
			if iters > 4*logTwo(n) {
				t.Errorf("N=%v took %v iterations, far above log2 N", n, iters)
			}
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := sscan(s, &v); err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}

func logTwo(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

func TestTransferLatencyQuick(t *testing.T) {
	tab := TransferLatency(quick)
	if len(tab.Rows) != len(quick.blockSizes()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Latency should grow with block size (allow equal for timer noise).
	var prev time.Duration
	for _, row := range tab.Rows {
		d, err := time.ParseDuration(row[1])
		if err != nil {
			t.Fatalf("parsing %q: %v", row[1], err)
		}
		if d <= 0 {
			t.Error("non-positive latency")
		}
		_ = prev
		prev = d
	}
}

func TestTransferTrafficRoles(t *testing.T) {
	tab := TransferTraffic(quick)
	for _, row := range tab.Rows {
		relay := parseKB(t, row[1])
		sender := parseKB(t, row[2])
		recv := parseKB(t, row[4])
		if !(relay > sender && sender > recv) {
			t.Errorf("traffic ordering violated: relay %v, sender %v, recv %v", relay, sender, recv)
		}
	}
}

func parseKB(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(strings.TrimSuffix(s, " KB"), &v); err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func TestFig3LeftQuick(t *testing.T) {
	tab := Fig3Left(quick)
	if len(tab.Rows) != len(quick.blockSizes()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// EN/EGJ step times must grow with block size overall (first → last).
	first, errF := time.ParseDuration(tab.Rows[0][2])
	last, errL := time.ParseDuration(tab.Rows[len(tab.Rows)-1][2])
	if errF != nil || errL != nil {
		t.Fatalf("parse errors: %v %v", errF, errL)
	}
	if last < first {
		t.Errorf("EN step time decreased with block size: %v -> %v", first, last)
	}
}

func TestFig5Quick(t *testing.T) {
	tab := Fig5EndToEnd(quick)
	if len(tab.Rows) != 2*len(quick.blockSizes()) {
		t.Fatalf("rows = %d, notes = %v", len(tab.Rows), tab.Notes)
	}
	if got, want := strings.Join(tab.Header, " "), "model block setup init compute transfer agg+noise total KB/node"; got != want {
		t.Errorf("header %q, want %q", got, want)
	}
	// The -json phase breakdown's key set is API, rendered from the phase
	// table.
	if len(tab.Phases) != len(tab.Rows) {
		t.Fatalf("%d phase breakdowns for %d rows", len(tab.Phases), len(tab.Rows))
	}
	var keys []string
	for k := range tab.Phases[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := "agg_bytes agg_ms compute_bytes compute_ms init_bytes init_ms label transfer_bytes transfer_ms"; strings.Join(keys, " ") != want {
		t.Errorf("phase breakdown keys %q, want %q", strings.Join(keys, " "), want)
	}
}

func TestNaiveBaselineQuick(t *testing.T) {
	tab := NaiveMPCBaseline(quick)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Extrapolations must be enormous compared to a DStress run's seconds
	// (the paper's point): months of single-query compute even from a
	// zero-latency loopback measurement over the packed GMW engine. (The
	// pre-packed engine put this above a year; the word-level data plane
	// legitimately shrank the measured constant.)
	for _, row := range tab.Rows {
		var days float64
		if _, err := fmtSscan(strings.TrimSuffix(row[3], " days"), &days); err != nil {
			t.Fatalf("parsing %q: %v", row[3], err)
		}
		if days < 30 {
			t.Errorf("extrapolation %v days suspiciously small", days)
		}
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestAblationTable(t *testing.T) {
	tab := Ablation(quick)
	if len(tab.Rows) < 10 {
		t.Fatalf("ablation table has %d rows (notes: %v)", len(tab.Rows), tab.Notes)
	}
	// The transfer-aggregation compression ratio must be ≈ k+1.
	var finalB, s2B float64
	for _, row := range tab.Rows {
		if row[0] == "transfer aggregation" && row[1] == "final protocol" {
			finalB = parseF(t, row[3])
		}
		if row[0] == "transfer aggregation" && row[1] == "strawman #2" {
			s2B = parseF(t, row[3])
		}
	}
	if ratio := s2B / finalB; ratio < 3 || ratio > 5 {
		t.Errorf("strawman2/final adjuster traffic ratio %.1f, want ≈ 4 (k+1)", ratio)
	}
}

func TestOTSubstrateQuick(t *testing.T) {
	tab := OTSubstrateSetup(quick)
	if len(tab.Rows) != len(quick.blockSizes()) {
		t.Fatalf("rows = %d, notes = %v", len(tab.Rows), tab.Notes)
	}
	if tab.BaseOTHandshakes <= 0 || tab.SetupMS <= 0 {
		t.Errorf("setup metadata not recorded: handshakes=%d setup=%.1fms", tab.BaseOTHandshakes, tab.SetupMS)
	}
	for i, row := range tab.Rows {
		var saving float64
		if _, err := fmtSscan(strings.TrimSuffix(row[4], "x"), &saving); err != nil {
			t.Fatalf("parsing %q: %v", row[4], err)
		}
		// The substrate can never run more handshakes than the per-session
		// bootstrap; with larger blocks pairs co-occur in several sessions
		// and the saving must be strict. (At block 2 a pair may appear in
		// only one block, where 1.0x is the honest floor.)
		if saving < 1 {
			t.Errorf("block %s: substrate ran more handshakes than per-session (%.2fx)", row[0], saving)
		}
		if i == len(tab.Rows)-1 && saving <= 1 {
			t.Errorf("block %s: no handshake sharing at the largest block size (%.2fx)", row[0], saving)
		}
	}
}
