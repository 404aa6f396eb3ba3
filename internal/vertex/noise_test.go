package vertex

import (
	"math"
	"math/rand"
	"testing"

	"dstress/internal/circuit"
)

// noiseCircuit compiles the noise sampler alone for a width-bit release.
func noiseCircuit(n NoiseSpec, width int) *circuit.Circuit {
	b := circuit.NewBuilder()
	rnd := b.InputWord(n.RandBits(width))
	b.OutputWord(n.Build(b, rnd, width))
	return b.Build()
}

// checkNoise evaluates c on the coin words u (the first variable's digits,
// then the second's) and checks the output against the host's digit draw:
// (G1 − G2)·2^Shift mod 2^width, where G1, G2 are read from the same words
// through the same table.
func checkNoise(t *testing.T, n NoiseSpec, width int, c *circuit.Circuit, u []uint64) {
	t.Helper()
	d := n.digits(width)
	var in []uint8
	for _, w := range u {
		in = append(in, circuit.EncodeWord(int64(w), 64)...)
	}
	out, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	mask := uint64(1)<<width - 1 // width ≤ 64: 1<<64 is 0 for a uint64
	want := uint64(d.Sample(u[:len(d)])-d.Sample(u[len(d):])) << n.Shift & mask
	if got := circuit.DecodeWordU(out); got != want {
		t.Fatalf("λ=%v width=%d shift=%d coins %x: circuit %#x, host %#x", n.Lambda, width, n.Shift, u, got, want)
	}
}

// TestGeometricDigitsEveryPattern checks the circuit's read-out on every
// success/failure pattern of both variables' coins, for 1 to 5 digits and
// releases that keep all of the difference or only its low bits. Each coin
// word sits on a side of its threshold: 0 or t−1 for a success, t or
// 2^64−1 for a failure.
func TestGeometricDigitsEveryPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shift := range []int{0, 3} {
		for keep := 1; keep <= 7; keep++ { // λ = 2 has 5 digits
			n, width := NoiseSpec{Lambda: 2, Shift: shift}, keep+shift
			d := n.digits(width)
			c := noiseCircuit(n, width)
			u := make([]uint64, 2*len(d))
			for pattern := 0; pattern < 1<<len(u); pattern++ {
				for i := range u {
					th := d[i%len(d)]
					success := pattern>>i&1 == 1
					switch {
					case success && rng.Intn(2) == 0:
						u[i] = 0
					case success:
						u[i] = th - 1
					case rng.Intn(2) == 0:
						u[i] = th
					default:
						u[i] = math.MaxUint64
					}
				}
				checkNoise(t, n, width, c, u)
			}
		}
	}
}

// FuzzGeometricDigits checks the two samplers against each other: over any
// λ, Shift and width, the compiled noise circuit and the host's digit
// draw turn the same coin words into the same release. Half the words are
// drawn next to their digit's threshold.
func FuzzGeometricDigits(f *testing.F) {
	f.Add(0.023, uint8(0), uint8(36), int64(1))
	f.Add(0.462, uint8(2), uint8(16), int64(2))
	f.Add(1e-300, uint8(0), uint8(64), int64(3))
	f.Add(1e-7, uint8(5), uint8(40), int64(4))
	f.Fuzz(func(t *testing.T, lambda float64, shift, width uint8, seed int64) {
		lambda = math.Abs(lambda)
		if !(lambda > 0) || math.IsInf(lambda, 0) {
			t.Skip()
		}
		w := int(width%64) + 1
		n := NoiseSpec{Lambda: lambda, Shift: int(shift) % w}
		d := n.digits(w)
		rng := rand.New(rand.NewSource(seed))
		u := make([]uint64, 2*len(d))
		for i := range u {
			u[i] = rng.Uint64()
			if rng.Intn(2) == 0 {
				u[i] = d[i%len(d)] + uint64(rng.Intn(3)) - 1
			}
		}
		checkNoise(t, n, w, noiseCircuit(n, w), u)
	})
}

func TestGeometricIsLogDepth(t *testing.T) {
	// The en-mux workload's spec: ε = 0.23 at the EN programs' sensitivity
	// ENSensitivity(0.1)·T/Unit = 10, so λ = 0.023 and 11 digits.
	n := DefaultNoiseSpec(0.23, 10, 0)
	const width = 36
	c := noiseCircuit(n, width)
	m := len(n.digits(width))
	// Each coin is a 6-level compare tree; the difference is an (m+1)-bit
	// ripple subtraction.
	if limit := 6 + m + 1; c.Depth() > limit {
		t.Errorf("noise circuit depth %d at %d digits, want ≤ %d", c.Depth(), m, limit)
	}
	if limit := 2*m*2*63 + m; c.NumAnd > limit {
		t.Errorf("noise circuit has %d ANDs at %d digits, want ≤ %d", c.NumAnd, m, limit)
	}
	t.Logf("noise sampler at %d digits: %d ANDs, depth %d, %d random bits", m, c.NumAnd, c.Depth(), n.RandBits(width))
}

// TestNoiseSamplerBound pins that no ε > 0 is refused for the size of its
// sampler: ε = 1e-6 and 1e-300 at s = 10 compile (at most 2·64 random bits
// per released bit), down to an ε/s that underflows; and a deployment asked
// for many distinct budgets caches at most maxPlans.
func TestNoiseSamplerBound(t *testing.T) {
	for _, eps := range []float64{1e-6, 1e-300, 5e-324} {
		n := DefaultNoiseSpec(eps, 10, 0)
		if !n.Enabled() {
			t.Fatalf("ε = %g: noise disabled", eps)
		}
		if bits := n.RandBits(36); bits == 0 || bits > 2*64*36 {
			t.Errorf("ε = %g: %d random bits for a 36-bit release", eps, bits)
		}
	}

	p := sumProgram()
	dep, err := NewDeployment(Config{Group: tg, K: 1, Alpha: 0.5}, p, ringGraph(t, 4, p))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{1e-6, 1e-300} {
		if err := dep.Prepare(eps); err != nil {
			t.Fatalf("Prepare(%g) = %v", eps, err)
		}
	}
	for i := 1; i <= 3*maxPlans; i++ {
		if err := dep.Prepare(float64(i) / 10); err != nil {
			t.Fatal(err)
		}
		if len(dep.plans) > maxPlans {
			t.Fatalf("after %d budgets the cache holds %d plans, want at most %d", i, len(dep.plans), maxPlans)
		}
	}
}
