package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.25, -3.25, 123456.789, -99999.0001}
	for _, f := range cases {
		v := FromFloat(f)
		if got := v.Float(); math.Abs(got-f) > 1.0/float64(One) {
			t.Errorf("FromFloat(%v).Float() = %v, want within 2^-%d", f, got, Frac)
		}
	}
}

func TestAddSub(t *testing.T) {
	a, b := FromFloat(1.5), FromFloat(2.25)
	if got := a.Add(b).Float(); got != 3.75 {
		t.Errorf("1.5+2.25 = %v", got)
	}
	if got := a.Sub(b).Float(); got != -0.75 {
		t.Errorf("1.5-2.25 = %v", got)
	}
	if got := b.Neg().Float(); got != -2.25 {
		t.Errorf("-2.25 = %v", got)
	}
}

func TestMulExactDyadics(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{1.5, 2, 3},
		{-1.5, 2, -3},
		{0.5, 0.5, 0.25},
		{-0.25, -4, 1},
		{1000, 1000, 1e6},
		{0, 5.5, 0},
	}
	for _, c := range cases {
		got := FromFloat(c.a).Mul(FromFloat(c.b)).Float()
		if got != c.want {
			t.Errorf("%v*%v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMulLargeMagnitude(t *testing.T) {
	// Dollar amounts up to ~10^12 (a trillion) with fractional factors must
	// stay exact: 2^40 * 0.5.
	a := Val(1<<40) * One
	half := FromFloat(0.5)
	if got := a.Mul(half).Int(); got != 1<<39 {
		t.Errorf("2^40 * 0.5 = %d, want %d", got, int64(1)<<39)
	}
}

func TestDivBasics(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{1, 2, 0.5},
		{3, 4, 0.75},
		{-1, 2, -0.5},
		{1, -2, -0.5},
		{-1, -2, 0.5},
		{10, 5, 2},
		{1e9, 4, 2.5e8},
	}
	for _, c := range cases {
		got := FromFloat(c.a).Div(FromFloat(c.b)).Float()
		if got != c.want {
			t.Errorf("%v/%v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDivByZeroSaturates(t *testing.T) {
	if got := (5 * One).Div(0); got != Val(math.MaxInt64) {
		t.Errorf("5/0 = %d, want MaxInt64", got)
	}
	if got := (-5 * One).Div(0); got != Val(math.MinInt64) {
		t.Errorf("-5/0 = %d, want MinInt64", got)
	}
}

func TestMinMaxClamp(t *testing.T) {
	a, b := 3*One, 7*One
	if Min(a, b) != a || Min(b, a) != a {
		t.Error("Min wrong")
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Error("Max wrong")
	}
}

// Property: Mul agrees with big-float multiplication within one ULP for
// moderate magnitudes.
func TestQuickMulMatchesFloat(t *testing.T) {
	f := func(a, b int32) bool {
		va := Val(a)
		vb := Val(b)
		got := va.Mul(vb).Float()
		want := va.Float() * vb.Float()
		return math.Abs(got-want) <= 1.0/float64(One)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Div is the rounded-toward-zero inverse of Mul:
// (a/b)*b is within |b| ULPs of a.
func TestQuickDivInverse(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		va, vb := Val(a), Val(b)
		q := va.Div(vb)
		back := q.Mul(vb)
		diff := int64(va - back)
		if diff < 0 {
			diff = -diff
		}
		bd := int64(vb)
		if bd < 0 {
			bd = -bd
		}
		return diff <= bd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: addition is commutative and associative under wrapping.
func TestQuickAddCommAssoc(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := Val(a), Val(b), Val(c)
		return va.Add(vb) == vb.Add(va) && va.Add(vb).Add(vc) == va.Add(vb.Add(vc))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mul64 matches math/big-free reference on 32-bit inputs where
// int64 multiplication is exact.
func TestQuickMul64SmallExact(t *testing.T) {
	f := func(a, b int32) bool {
		hi, lo := mul64(int64(a), int64(b))
		prod := int64(a) * int64(b)
		wantHi := prod >> 63 // sign extension
		return lo == uint64(prod) && hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := FromFloat(1.25).String(); got != "1.250000" {
		t.Errorf("String = %q", got)
	}
}
