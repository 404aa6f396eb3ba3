package vertex

import (
	"math/rand"
	"testing"

	"dstress/internal/circuit"
)

// serialGeometric is the sampler's count as a serial prefix-AND chain
// feeding a ripple counter: the form the Sklansky prefix-AND and the
// thermometer read-out replace, kept as their equivalence oracle.
func serialGeometric(n NoiseSpec, b *circuit.Builder, rnd circuit.Word, threshold int64) circuit.Word {
	cw := n.counterBits()
	count := b.ConstWord(0, cw)
	prefix := b.One()
	thr := b.ConstWord(threshold, n.CoinBits)
	for t := 0; t < n.Trials; t++ {
		u := rnd[t*n.CoinBits : (t+1)*n.CoinBits]
		prefix = b.And(prefix, b.LessU(u, thr))
		inc := b.ConstWord(0, cw)
		inc[0] = prefix
		count = b.Add(count, inc)
	}
	return count
}

// geometricPair compiles one circuit that outputs the sampler's count and
// the serial oracle's count over the same coins.
func geometricPair(n NoiseSpec) (*circuit.Circuit, int64) {
	threshold := int64(n.Alpha * float64(uint64(1)<<n.CoinBits))
	b := circuit.NewBuilder()
	rnd := b.InputWord(n.Trials * n.CoinBits)
	b.OutputWord(n.buildGeometric(b, rnd, threshold))
	b.OutputWord(serialGeometric(n, b, rnd, threshold))
	return b.Build(), threshold
}

// checkGeometric evaluates the pair on coin words us and checks that both
// counts equal the number of leading coins below the threshold.
func checkGeometric(t *testing.T, n NoiseSpec, c *circuit.Circuit, threshold int64, us []int64) {
	t.Helper()
	var in []uint8
	want := uint64(0)
	run := true
	for _, u := range us {
		in = append(in, circuit.EncodeWord(u, n.CoinBits)...)
		if run = run && u < threshold; run {
			want++
		}
	}
	out, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	cw := n.counterBits()
	got, serial := circuit.DecodeWordU(out[:cw]), circuit.DecodeWordU(out[cw:])
	if got != serial || got != want {
		t.Fatalf("trials=%d: count %d, serial %d, want %d", n.Trials, got, serial, want)
	}
}

func TestGeometricMatchesSerialEveryPattern(t *testing.T) {
	for trials := 1; trials <= 16; trials++ {
		n := NoiseSpec{Alpha: 0.5, Trials: trials, CoinBits: 8}
		c, threshold := geometricPair(n)
		us := make([]int64, trials)
		for pattern := 0; pattern < 1<<trials; pattern++ {
			for i := range us {
				us[i] = 1<<n.CoinBits - 1 // a failure
				if pattern>>i&1 == 1 {
					us[i] = 0 // a success
				}
			}
			checkGeometric(t, n, c, threshold, us)
		}
	}
}

func TestGeometricMatchesSerialLongRuns(t *testing.T) {
	// The en-mux workload's spec: ε = 0.23 at the EN programs' sensitivity
	// ENSensitivity(0.1)·T/Unit = 10, about 900 trials. Runs of successes
	// of every length up to the whole row exercise every count bit.
	n := DefaultNoiseSpec(0.23, 10, 0)
	c, threshold := geometricPair(n)
	rng := rand.New(rand.NewSource(1))
	span := int64(1) << n.CoinBits
	us := make([]int64, n.Trials)
	for sample := 0; sample < 64; sample++ {
		run := rng.Intn(n.Trials + 1)
		if sample == 0 {
			run = n.Trials
		}
		for i := range us {
			switch {
			case i < run:
				us[i] = rng.Int63n(threshold)
			case i == run:
				us[i] = threshold + rng.Int63n(span-threshold)
			default:
				us[i] = rng.Int63n(span)
			}
		}
		checkGeometric(t, n, c, threshold, us)
	}
}

func TestGeometricIsLogDepth(t *testing.T) {
	n := DefaultNoiseSpec(0.23, 10, 0)
	b := circuit.NewBuilder()
	rnd := b.InputWord(n.RandBits())
	b.OutputWord(n.Build(b, rnd, 36))
	c := b.Build()
	// Coins (a CoinBits ripple compare), the prefix scan (⌈log₂ Trials⌉),
	// and the difference and final adder: nowhere near Trials.
	if limit := 2*n.CoinBits + 2*n.counterBits() + 16; c.Depth() > limit {
		t.Errorf("noise circuit depth %d at %d trials, want ≤ %d", c.Depth(), n.Trials, limit)
	}
	t.Logf("noise sampler at %d trials: %d ANDs, depth %d", n.Trials, c.NumAnd, c.Depth())
}
