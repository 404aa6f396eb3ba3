package experiments

import (
	"fmt"
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
	// Latency must be positive and grow with block size overall (first →
	// last; adjacent rows may tie within timer noise).
	var lat []time.Duration
	for _, row := range tab.Rows {
		d, err := time.ParseDuration(row[1])
		if err != nil {
			t.Fatalf("parsing %q: %v", row[1], err)
		}
		if d <= 0 {
			t.Error("non-positive latency")
		}
		lat = append(lat, d)
	}
	if first, last := lat[0], lat[len(lat)-1]; last < first {
		t.Errorf("transfer latency decreased with block size: %v -> %v", first, last)
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

func TestFig3RightQuick(t *testing.T) {
	tab := Fig3Right(quick)
	if want := len(quick.degrees()) + len(quick.aggSizes()); len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d (notes: %v)", len(tab.Rows), want, tab.Notes)
	}
	// Every measured cell is a positive duration; "-" marks the column a
	// sweep does not touch.
	for _, row := range tab.Rows {
		for _, c := range row[2:] {
			if c == "-" {
				continue
			}
			if d, err := time.ParseDuration(c); err != nil || d <= 0 {
				t.Errorf("%s %s: bad cell %q (%v)", row[0], row[1], c, err)
			}
		}
	}
}

func TestFig4TrafficQuick(t *testing.T) {
	tab := Fig4Traffic(quick)
	if len(tab.Rows) != len(quick.blockSizes()) {
		t.Fatalf("rows = %d (notes: %v)", len(tab.Rows), tab.Notes)
	}
	// Per-node GMW traffic grows with block size for every circuit: bytes
	// are counted, not timed, so the comparison is exact.
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	for col := 2; col < len(tab.Header); col++ {
		if a, b := parseKB(t, first[col]), parseKB(t, last[col]); b <= a {
			t.Errorf("%s traffic did not grow with block size: %v KB -> %v KB", tab.Header[col], a, b)
		}
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
