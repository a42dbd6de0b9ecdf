package fixed

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestFormatValid(t *testing.T) {
	for _, f := range Formats() {
		if err := f.Valid(); err != nil {
			t.Errorf("%v.Valid() = %v", f, err)
		}
	}
	for _, bad := range []Format{{Bits: 1, Frac: 0}, {Bits: 17, Frac: 8}, {Bits: 8, Frac: 8}, {Bits: 8, Frac: -1}} {
		if err := bad.Valid(); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%+v.Valid() = %v, want ErrBadFormat", bad, err)
		}
	}
}

func TestParseFormat(t *testing.T) {
	cases := map[string]Format{
		"16": W16, "12": W12, "8": W8,
		"q8.8": W16, "q6.6": W12, "q4.4": W8,
		" W16 ": W16,
	}
	for s, want := range cases {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseFormat("24"); !errors.Is(err, ErrBadFormat) {
		t.Errorf("ParseFormat(24) err = %v, want ErrBadFormat", err)
	}
}

// TestDefaultFormatMatchesPackage: every W16 method must agree with the
// package-level Q8.8 function it generalises — the byte-identical
// contract of the refactor.
func TestDefaultFormatMatchesPackage(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Num(a), Num(b)
		return W16.Add(x, y) == Add(x, y) &&
			W16.Sub(x, y) == Sub(x, y) &&
			W16.Mul(x, y) == Mul(x, y) &&
			W16.Div(x, y) == Div(x, y) &&
			W16.Neg(x) == Neg(x) &&
			W16.Exp2(x>>4) == Exp2(x>>4) &&
			W16.Float(x) == x.Float()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFormatRoundTrip: values on each format's grid survive
// float->fixed->float exactly, and off-grid values land within one ulp
// of that format (not the Q8.8 ulp the old constants assumed).
func TestFormatRoundTrip(t *testing.T) {
	for _, f := range Formats() {
		ulp := 1.0 / float64(f.one())
		hi := f.Float(f.Max())
		cases := []float64{0, 1, -1, 0.5, -0.5, 3.25, hi, -hi, hi / 3}
		for _, x := range cases {
			got := f.Float(f.FromFloat(x))
			if math.Abs(got-x) > ulp {
				t.Errorf("%v: FromFloat(%v) round-trips to %v (> 1 ulp %v)", f, x, got, ulp)
			}
		}
	}
}

// TestFormatSaturation: each width saturates at its own bounds, not the
// 16-bit container's.
func TestFormatSaturation(t *testing.T) {
	for _, f := range Formats() {
		if got := f.FromFloat(1e9); got != f.Max() {
			t.Errorf("%v: FromFloat(1e9) = %d, want %d", f, got, f.Max())
		}
		if got := f.FromFloat(-1e9); got != f.Min() {
			t.Errorf("%v: FromFloat(-1e9) = %d, want %d", f, got, f.Min())
		}
		if got := f.Add(f.Max(), f.FromInt(1)); got != f.Max() {
			t.Errorf("%v: Add should saturate high, got %d", f, got)
		}
		if got := f.Sub(f.Min(), f.FromInt(1)); got != f.Min() {
			t.Errorf("%v: Sub should saturate low, got %d", f, got)
		}
		if got := f.Mul(f.Max(), f.Max()); got != f.Max() {
			t.Errorf("%v: Mul(Max,Max) = %d, want %d", f, got, f.Max())
		}
		if got := f.Mul(f.Min(), f.Max()); got != f.Min() {
			t.Errorf("%v: Mul(Min,Max) = %d, want %d", f, got, f.Min())
		}
		if got := f.Div(f.FromInt(1), 0); got != f.Max() {
			t.Errorf("%v: 1/0 = %d, want Max", f, got)
		}
		if got := f.Neg(f.Min()); got != f.Max() {
			t.Errorf("%v: Neg(Min) = %d, want Max", f, got)
		}
	}
}

// TestFormatArithmeticMatchesFloat: within the unsaturated range,
// arithmetic at every width tracks float arithmetic to one format ulp.
func TestFormatArithmeticMatchesFloat(t *testing.T) {
	for _, f := range Formats() {
		ulp := 1.0 / float64(f.one())
		lo, hi := f.Float(f.Min()), f.Float(f.Max())
		check := func(a, b int16) bool {
			x, y := f.sat(int32(a)), f.sat(int32(b))
			if sum := f.Float(x) + f.Float(y); sum >= lo && sum <= hi {
				if math.Abs(f.Float(f.Add(x, y))-sum) > ulp {
					return false
				}
			}
			if prod := f.Float(x) * f.Float(y); prod >= lo && prod <= hi {
				if math.Abs(f.Float(f.Mul(x, y))-prod) > ulp {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, nil); err != nil {
			t.Errorf("%v: %v", f, err)
		}
	}
}

// TestFormatExp2: the LUT step is derived from the fraction width, so
// Exp2 stays sane at every supported width — the Q4.4 step would have
// quantised to zero (divide-by-zero) under the old Q8.8-only constant.
func TestFormatExp2(t *testing.T) {
	for _, f := range Formats() {
		ulp := 1.0 / float64(f.one())
		// Narrow formats have coarse LUTs: allow one LUT step of input
		// error propagated through exp2's derivative (~0.7*2^x), plus an
		// output ulp.
		step := math.Max(1.0/float64(int32(1)<<exp2LUTBits), ulp)
		for _, x := range []float64{0, 1, 2, -1, 0.5, -0.5} {
			want := math.Exp2(x)
			if want > f.Float(f.Max()) {
				continue
			}
			got := f.Float(f.Exp2(f.FromFloat(x)))
			if math.Abs(got-want) > want*step+2*ulp {
				t.Errorf("%v: Exp2(%v) = %v, want ~%v", f, x, got, want)
			}
		}
	}
}

// TestConvert: widening is exact, narrowing rounds to the destination
// grid, and the composition Quantize is idempotent.
func TestConvert(t *testing.T) {
	// Exact on-grid round trip W16 -> W8 -> W16.
	for _, x := range []float64{0, 1, -1, 2.5, -3.25, 7.9375} {
		n := FromFloat(x)
		q := W8.Quantize(n)
		if got := Convert(Convert(q, W16, W8), W8, W16); got != q {
			t.Errorf("round trip of on-grid %v: %d != %d", x, got, q)
		}
		if W8.Quantize(q) != q {
			t.Errorf("Quantize not idempotent at %v", x)
		}
	}
	// Narrowing rounds to nearest grid point.
	n := FromFloat(1.03125) // 1 + 1/32: off the Q4.4 grid (1/16 steps)
	if got := W8.Quantize(n).Float(); got != 1.0625 && got != 1.0 {
		t.Errorf("W8.Quantize(1.03125) = %v, want a 1/16 grid point", got)
	}
	// Out-of-range values clamp to the narrow format's bounds.
	if got := W8.Quantize(MaxNum); got != Convert(W8.Max(), W8, W16) {
		t.Errorf("W8.Quantize(MaxNum) = %d, want clamped %d", got, Convert(W8.Max(), W8, W16))
	}
	if got := W8.Quantize(MinNum); got != Convert(W8.Min(), W8, W16) {
		t.Errorf("W8.Quantize(MinNum) = %d, want clamped %d", got, Convert(W8.Min(), W8, W16))
	}
	// Quantize in the default format is the identity.
	f := func(a int16) bool { return W16.Quantize(Num(a)) == Num(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConvertSignSymmetric: narrowing rounds half away from zero, so
// Convert(-x) == -Convert(x) except at the saturation edge.
func TestConvertSignSymmetric(t *testing.T) {
	f := func(a int16) bool {
		x := Num(a)
		if x == MinNum {
			return true
		}
		neg := Convert(Neg(x), W16, W8)
		pos := Convert(x, W16, W8)
		if pos == W8.Max() || pos == W8.Min() || neg == W8.Max() || neg == W8.Min() {
			return true
		}
		return neg == W8.Neg(pos)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParseFormat: ParseFormat never panics, rejects with ErrBadFormat,
// and accepts only supported, valid formats whose rendering parses back
// to the same format.
func FuzzParseFormat(f *testing.F) {
	for _, s := range []string{"16", "q6.6", " W8 ", "24", "", "q8.8x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseFormat(s)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("ParseFormat(%q) err = %v, want ErrBadFormat", s, err)
			}
			return
		}
		if err := got.Valid(); err != nil {
			t.Fatalf("ParseFormat(%q) = %v, invalid: %v", s, got, err)
		}
		if !slices.Contains(Formats(), got) {
			t.Fatalf("ParseFormat(%q) = %v, not a supported width", s, got)
		}
		if back, err := ParseFormat(got.String()); err != nil || back != got {
			t.Fatalf("ParseFormat(%q) = %v does not round-trip: %v, %v", s, got, back, err)
		}
	})
}
