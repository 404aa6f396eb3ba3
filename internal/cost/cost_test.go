package cost

import (
	"testing"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/group"
	"dstress/internal/risk"
)

func modelFor(D int) Model {
	cfg := risk.CircuitConfig{Width: 40, Unit: 1e6}
	prog := risk.ENProgram(cfg, 1e9, 0.1)
	upd, err := prog.UpdateCircuit(D)
	if err != nil {
		panic(err)
	}
	return Model{
		Cal:          DefaultCalibration(),
		UpdateAnd:    upd.NumAnd,
		UpdateDepth:  upd.Depth(),
		AggAndPer100: 100 * 52, // ~one adder per state at agg width
		NoiseAnd:     60_000,   // §5.2's "comparatively large noising circuit"
		MsgBits:      12,
	}
}

func TestEstimateMonotoneInN(t *testing.T) {
	m := modelFor(10)
	prev := Projection{}
	for _, n := range []int{100, 500, 1000, 2000} {
		p := m.Estimate(n, 10, 19, 11)
		if p.Time < prev.Time {
			t.Errorf("time not monotone at N=%d", n)
		}
		prev = p
	}
}

func TestEstimateMonotoneInD(t *testing.T) {
	var prev time.Duration
	for _, d := range []int{10, 40, 70, 100} {
		m := modelFor(d)
		p := m.Estimate(1750, d, 19, 11)
		if p.Time < prev {
			t.Errorf("time not monotone at D=%d", d)
		}
		prev = p.Time
	}
}

func TestEstimateMonotoneInK(t *testing.T) {
	m := modelFor(10)
	var prev Projection
	for _, k := range []int{7, 11, 15, 19} {
		p := m.Estimate(100, 10, k, 7)
		if p.Time < prev.Time || p.TrafficPerNode < prev.TrafficPerNode {
			t.Errorf("cost not monotone at k=%d", k)
		}
		prev = p
	}
}

func TestFullDeploymentBallpark(t *testing.T) {
	// §5.5: N = 1750, D = 100, blocks of 20 → "about 4.8 hours and about
	// 750 MB of traffic". Our substrate differs (Go vs C, simulated
	// network), so only sanity-check the order of magnitude: somewhere
	// between 30 minutes and 3 days, and traffic between 50 MB and 100 GB.
	m := modelFor(100)
	p := m.Estimate(1750, 100, 19, 11)
	if p.Time < 30*time.Minute || p.Time > 72*time.Hour {
		t.Errorf("full-deployment estimate %v outside plausible window", p.Time)
	}
	if p.TrafficPerNode < 50<<20 || p.TrafficPerNode > 100<<30 {
		t.Errorf("traffic estimate %d bytes outside plausible window", p.TrafficPerNode)
	}
	t.Logf("projected full US banking system: %v, %.1f MB/node", p.Time, float64(p.TrafficPerNode)/(1<<20))
}

func TestNaiveMatrixCircuit(t *testing.T) {
	c := NaiveMatrixCircuit(3, 16)
	// 3x3 matrices: 18 input words, 9 output words.
	if c.NumInputs != 2*9*16 {
		t.Errorf("inputs = %d", c.NumInputs)
	}
	if len(c.Outputs) != 9*16 {
		t.Errorf("outputs = %d", len(c.Outputs))
	}
	// Evaluate identity × A = A.
	enc := func(v int64) int64 { return v << 16 }
	var in []uint8
	id := [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	a := [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			in = append(in, circuit.EncodeWord(enc(id[i][j])&0xffff, 16)...)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			in = append(in, circuit.EncodeWord(enc(a[i][j])&0xffff, 16)...)
		}
	}
	// 16-bit words with Frac=16 can only hold fractions; use a narrower
	// check: circuit executes without error and is deterministic.
	out1, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := c.Eval(in)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("matrix circuit nondeterministic")
		}
	}
}

func TestNaiveCircuitCubicGrowth(t *testing.T) {
	and4 := NaiveMatrixCircuit(4, 16).NumAnd
	and8 := NaiveMatrixCircuit(8, 16).NumAnd
	ratio := float64(and8) / float64(and4)
	if ratio < 6 || ratio > 10 {
		t.Errorf("AND growth 4→8 = %.1fx, want ~8x (cubic)", ratio)
	}
}

func TestExtrapolateNaivePaperNumbers(t *testing.T) {
	// (1750/25)³ × 40 min × 11 ≈ 287 years.
	est := PaperNaiveEstimate()
	years := est.Hours() / 24 / 365
	if years < 250 || years > 320 {
		t.Errorf("paper extrapolation = %.0f years, paper says ~287", years)
	}
}

func TestExtrapolateScaling(t *testing.T) {
	base := ExtrapolateNaive(time.Minute, 10, 20, 1)
	if base != 8*time.Minute {
		t.Errorf("2x size should be 8x time, got %v", base)
	}
	if ExtrapolateNaive(time.Minute, 10, 10, 3) != 3*time.Minute {
		t.Error("multiplies scaling wrong")
	}
}

func TestCalibrateProducesSaneValues(t *testing.T) {
	cal := Calibrate(group.ModP256())
	if cal.ExpNs < 1000 || cal.ExpNs > 1e9 {
		t.Errorf("ExpNs = %v implausible", cal.ExpNs)
	}
	if cal.ANDGatePairNs <= 0 || cal.ANDGatePairNs > 1e7 {
		t.Errorf("ANDGatePairNs = %v implausible", cal.ANDGatePairNs)
	}
	if cal.RoundLatencyNs <= 0 {
		t.Errorf("RoundLatencyNs = %v", cal.RoundLatencyNs)
	}
}

func TestDStressBeatsNaiveAtScale(t *testing.T) {
	// The paper's headline: DStress runs in hours where naive MPC takes
	// centuries. Verify the model preserves that separation by ≥ 3 orders
	// of magnitude at full scale.
	m := modelFor(100)
	dstress := m.Estimate(1750, 100, 19, 11).Time
	naive := PaperNaiveEstimate()
	if float64(naive)/float64(dstress) < 1e3 {
		t.Errorf("separation only %.1fx; paper reports ~500x-1000000x", float64(naive)/float64(dstress))
	}
}
