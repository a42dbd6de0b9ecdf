package tensor

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mlimp/internal/fixed"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 2, fixed.FromInt(7))
	if d.At(1, 2) != fixed.FromInt(7) {
		t.Error("Set/At roundtrip failed")
	}
	if got := d.SizeBytes(); got != 12 {
		t.Errorf("SizeBytes = %d, want 12", got)
	}
	row := d.Row(1)
	if len(row) != 3 || row[2] != fixed.FromInt(7) {
		t.Error("Row aliasing wrong")
	}
	c := d.Clone()
	if !c.Equal(d) {
		t.Error("Clone not equal")
	}
	c.Set(0, 0, 1)
	if d.At(0, 0) == 1 {
		t.Error("Clone must not alias")
	}
}

func TestDensePanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseFromFloats(t *testing.T) {
	d := NewDenseFromFloats(2, 2, []float64{1, 2, 3, 4})
	if d.At(1, 0).Float() != 3 {
		t.Error("FromFloats layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad length")
		}
	}()
	NewDenseFromFloats(2, 2, []float64{1})
}

func TestTranspose(t *testing.T) {
	d := NewDenseFromFloats(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := d.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shape = %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1).Float() != 6 || tr.At(0, 1).Float() != 4 {
		t.Error("transpose values wrong")
	}
	if !tr.Transpose().Equal(d) {
		t.Error("double transpose should be identity")
	}
}

func TestGEMMSmall(t *testing.T) {
	a := NewDenseFromFloats(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseFromFloats(2, 2, []float64{5, 6, 7, 8})
	c := GEMM(a, b)
	want := NewDenseFromFloats(2, 2, []float64{19, 22, 43, 50})
	if !c.Equal(want) {
		t.Errorf("GEMM = %v, want %v", c.Data, want.Data)
	}
}

func TestGEMMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomDense(rng, 5, 5, 4)
	id := NewDense(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, fixed.FromInt(1))
	}
	if !GEMM(a, id).Equal(a) {
		t.Error("A*I != A")
	}
	if !GEMM(id, a).Equal(a) {
		t.Error("I*A != A")
	}
}

func TestGEMMPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GEMM(NewDense(2, 3), NewDense(2, 3))
}

func TestVaddAndReLU(t *testing.T) {
	a := NewDenseFromFloats(1, 3, []float64{1, -2, 3})
	b := NewDenseFromFloats(1, 3, []float64{1, 1, 1})
	c := Vadd(a, b)
	want := NewDenseFromFloats(1, 3, []float64{2, -1, 4})
	if !c.Equal(want) {
		t.Error("Vadd wrong")
	}
	r := c.ReLU()
	if r.At(0, 1) != 0 || r.At(0, 2).Float() != 4 {
		t.Error("ReLU wrong")
	}
}

func TestFromCOOAndAt(t *testing.T) {
	m := FromCOO(4, 4, []Coord{
		{Row: 2, Col: 1, Val: fixed.FromInt(5)},
		{Row: 0, Col: 3, Val: fixed.FromInt(1)},
		{Row: 2, Col: 3, Val: fixed.FromInt(2)},
		{Row: 2, Col: 1, Val: fixed.FromInt(3)}, // duplicate: summed
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.At(2, 1) != fixed.FromInt(8) {
		t.Errorf("duplicate sum = %v", m.At(2, 1))
	}
	if m.At(0, 3) != fixed.FromInt(1) || m.At(3, 3) != 0 {
		t.Error("At wrong")
	}
	if m.RowNNZ(2) != 2 || m.RowNNZ(1) != 0 {
		t.Error("RowNNZ wrong")
	}
	cols, vals := m.RowEntries(2)
	if len(cols) != 2 || cols[0] != 1 || vals[1] != fixed.FromInt(2) {
		t.Error("RowEntries wrong")
	}
}

func TestCSREmptyRowsAndBounds(t *testing.T) {
	m := FromCOO(3, 3, nil)
	if m.NNZ() != 0 || m.RowNNZ(0) != 0 || m.RowNNZ(2) != 0 {
		t.Error("empty CSR wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range coord")
		}
	}()
	FromCOO(2, 2, []Coord{{Row: 5, Col: 0, Val: 1}})
}

func TestToDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var coords []Coord
	for i := 0; i < 30; i++ {
		coords = append(coords, Coord{
			Row: rng.Intn(8), Col: rng.Intn(8),
			Val: fixed.FromInt(1 + rng.Intn(5)),
		})
	}
	m := FromCOO(8, 8, coords)
	d := m.ToDense()
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if d.At(r, c) != m.At(r, c) {
				t.Fatalf("mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestSpMMAgainstDenseGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var coords []Coord
	for i := 0; i < 40; i++ {
		coords = append(coords, Coord{
			Row: rng.Intn(10), Col: rng.Intn(12),
			Val: fixed.FromFloat(rng.Float64()*2 - 1),
		})
	}
	a := FromCOO(10, 12, coords)
	b := RandomDense(rng, 12, 6, 2)
	got := SpMM(a, b)
	want := GEMM(a.ToDense(), b)
	if !got.Equal(want) {
		t.Error("SpMM != dense GEMM")
	}
}

func TestSpMV(t *testing.T) {
	a := FromCOO(2, 3, []Coord{
		{Row: 0, Col: 0, Val: fixed.FromInt(1)},
		{Row: 0, Col: 2, Val: fixed.FromInt(2)},
		{Row: 1, Col: 1, Val: fixed.FromInt(3)},
	})
	x := []fixed.Num{fixed.FromInt(1), fixed.FromInt(2), fixed.FromInt(3)}
	y := SpMV(a, x)
	if y[0] != fixed.FromInt(7) || y[1] != fixed.FromInt(6) {
		t.Errorf("SpMV = %v", y)
	}
}

func TestVerticalSlice(t *testing.T) {
	m := FromCOO(3, 6, []Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 5, Val: 2},
		{Row: 1, Col: 2, Val: 3}, {Row: 2, Col: 3, Val: 4},
	})
	s := m.VerticalSlice(2, 4)
	if s.Cols != 2 || s.NNZ() != 2 {
		t.Fatalf("slice = %v", s)
	}
	if s.At(1, 0) != 3 || s.At(2, 1) != 4 {
		t.Error("slice values wrong")
	}
}

func TestNonZeroPRows(t *testing.T) {
	// Row 0 has nonzeros in cols 0 and 1 -> same prow of width 2.
	// Row 1 has nonzeros in cols 0 and 3 -> two prows.
	m := FromCOO(2, 4, []Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 3, Val: 1},
	})
	if got := m.NonZeroPRows(2); got != 3 {
		t.Errorf("H_2 = %d, want 3", got)
	}
	if got := m.NonZeroPRows(4); got != 2 {
		t.Errorf("H_4 = %d, want 2", got)
	}
	if got := m.NonZeroPRows(1); got != 4 {
		t.Errorf("H_1 = %d, want 4", got)
	}
}

// refNonZeroPRows counts the distinct (row, strip) pairs in a map: the
// original H_w formulation, kept as a test oracle.
func refNonZeroPRows(m *CSR, w int) int {
	seen := make(map[int64]struct{})
	for r := 0; r < m.Rows; r++ {
		cols, _ := m.RowEntries(r)
		for _, c := range cols {
			seen[int64(r)<<32|int64(int(c)/w)] = struct{}{}
		}
	}
	return len(seen)
}

// TestNonZeroPRowsMatchesReference checks H_w against the map oracle on
// random CSRs, including ones whose rows list their columns unsorted and
// with repeats, at strip widths below, at and past the column count.
func TestNonZeroPRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(700)
		m := NewCSR(rows, cols)
		for r := 0; r < rows; r++ {
			for k := rng.Intn(30); k > 0; k-- {
				m.ColIdx = append(m.ColIdx, int32(rng.Intn(cols)))
				m.Val = append(m.Val, 1)
			}
			if trial%2 == 0 { // sorted rows, as FromCOO builds them
				slices.Sort(m.ColIdx[m.RowPtr[r]:])
			}
			m.RowPtr[r+1] = int32(len(m.ColIdx))
		}
		for _, w := range []int{1, 2, 7, 128, cols, cols + 5} {
			if got, want := m.NonZeroPRows(w), refNonZeroPRows(m, w); got != want {
				t.Fatalf("trial %d (%dx%d) w=%d: H_w = %d, reference %d", trial, rows, cols, w, got, want)
			}
		}
	}
}

// Property: SpMM on a random sparse matrix equals dense GEMM on its
// expansion.
func TestSpMMEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, inner, cols := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		var coords []Coord
		n := rng.Intn(rows * inner)
		for i := 0; i < n; i++ {
			coords = append(coords, Coord{
				Row: rng.Intn(rows), Col: rng.Intn(inner),
				Val: fixed.FromFloat(rng.Float64() - 0.5),
			})
		}
		a := FromCOO(rows, inner, coords)
		b := RandomDense(rng, inner, cols, 1)
		return SpMM(a, b).Equal(GEMM(a.ToDense(), b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: H_w is monotone nonincreasing in w and bounded by nnz.
func TestPRowMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 2+rng.Intn(30)
		var coords []Coord
		for i := 0; i < rng.Intn(50); i++ {
			coords = append(coords, Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: 1})
		}
		m := FromCOO(rows, cols, coords)
		prev := m.NNZ() + 1
		for w := 1; w <= cols; w *= 2 {
			h := m.NonZeroPRows(w)
			if h > m.NNZ() || h > prev {
				return false
			}
			prev = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
