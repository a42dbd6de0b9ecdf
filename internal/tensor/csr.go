package tensor

import (
	"fmt"
	"sort"

	"mlimp/internal/fixed"
)

// CSR is a sparse matrix in compressed sparse row format. Values are
// fixed-point; a binary adjacency matrix stores fixed-point 1.0 in every
// entry (the SpMM lookup path special-cases that).
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // len == Rows+1
	ColIdx     []int32 // len == NNZ
	Val        []fixed.Num
}

// NewCSR builds an empty sparse matrix with the given shape.
func NewCSR(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
}

// Coord is one nonzero coordinate used by FromCOO.
type Coord struct {
	Row, Col int
	Val      fixed.Num
}

// FromCOO builds a CSR matrix from coordinate triples. Duplicate
// coordinates are summed; entries are sorted by (row, col).
func FromCOO(rows, cols int, coords []Coord) *CSR {
	sorted := append([]Coord(nil), coords...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := NewCSR(rows, cols)
	row := 0
	for _, c := range sorted {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= cols {
			panic(fmt.Sprintf("tensor: coordinate (%d,%d) out of %dx%d", c.Row, c.Col, rows, cols))
		}
		n := len(m.ColIdx)
		if n > 0 && row == c.Row && m.ColIdx[n-1] == int32(c.Col) {
			m.Val[n-1] = fixed.Add(m.Val[n-1], c.Val)
			continue
		}
		for ; row < c.Row; row++ {
			m.RowPtr[row+1] = int32(n)
		}
		m.ColIdx = append(m.ColIdx, int32(c.Col))
		m.Val = append(m.Val, c.Val)
	}
	for ; row < rows; row++ {
		m.RowPtr[row+1] = int32(len(m.ColIdx))
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RowNNZ returns the number of nonzeros in row r.
func (m *CSR) RowNNZ(r int) int { return int(m.RowPtr[r+1] - m.RowPtr[r]) }

// RowEntries returns the column indices and values of row r, aliasing the
// matrix storage.
func (m *CSR) RowEntries(r int) ([]int32, []fixed.Num) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns the value at (r, c), zero if absent. O(log nnz(row)).
func (m *CSR) At(r, c int) fixed.Num {
	cols, vals := m.RowEntries(r)
	i := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(c) })
	if i < len(cols) && cols[i] == int32(c) {
		return vals[i]
	}
	return 0
}

// SizeBytes returns the storage footprint of the CSR payload: 4-byte
// row pointers and column indices plus 2-byte values.
func (m *CSR) SizeBytes() int64 {
	return int64(len(m.RowPtr))*4 + int64(len(m.ColIdx))*4 + int64(len(m.Val))*2
}

// ToDense expands the sparse matrix to dense form — the decompression
// step that in-memory computing must pay for sparse data (Section III-D3).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.RowEntries(r)
		for i, c := range cols {
			d.Set(r, int(c), vals[i])
		}
	}
	return d
}

// String renders shape and density for debugging.
func (m *CSR) String() string {
	return fmt.Sprintf("CSR(%dx%d, nnz=%d)", m.Rows, m.Cols, m.NNZ())
}

// SpMM computes C = A*B where A is sparse and B dense; the aggregation
// kernel of GNNs (B = normalised-adjacency * features). Large products
// are partitioned across goroutines by nonzero count; each goroutine
// owns a disjoint range of output rows, so the fixed-point result is
// bit-identical at any parallelism (see spmmRows).
func SpMM(a *CSR, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: SpMM shape mismatch %v x %v", a, b))
	}
	c := NewDense(a.Rows, b.Cols)
	work := int64(a.NNZ()) * int64(b.Cols)
	forEachRowChunkNNZ(a, kernelWorkers(a.Rows, work), func(lo, hi int) {
		spmmRows(a, b, c, lo, hi)
	})
	return c
}

// spmmRows computes output rows [lo, hi) of C = A*B — the serial kernel
// body both the single-threaded and row-parallel paths share.
func spmmRows(a *CSR, b, c *Dense, lo, hi int) {
	for r := lo; r < hi; r++ {
		cols, vals := a.RowEntries(r)
		crow := c.Row(r)
		for i, col := range cols {
			brow := b.Row(int(col))
			v := vals[i]
			for j := range brow {
				crow[j] = fixed.Add(crow[j], fixed.Mul(v, brow[j]))
			}
		}
	}
}

// SpMV computes y = A*x for a dense vector x (len == A.Cols). Like SpMM
// it row-partitions across goroutines above the serial threshold, with
// bit-identical results.
func SpMV(a *CSR, x []fixed.Num) []fixed.Num {
	if a.Cols != len(x) {
		panic("tensor: SpMV shape mismatch")
	}
	y := make([]fixed.Num, a.Rows)
	forEachRowChunkNNZ(a, kernelWorkers(a.Rows, int64(a.NNZ())), func(lo, hi int) {
		spmvRows(a, x, y, lo, hi)
	})
	return y
}

// spmvRows computes y[lo:hi] of y = A*x.
func spmvRows(a *CSR, x, y []fixed.Num, lo, hi int) {
	for r := lo; r < hi; r++ {
		cols, vals := a.RowEntries(r)
		var acc fixed.Num
		for i, col := range cols {
			acc = fixed.Add(acc, fixed.Mul(vals[i], x[col]))
		}
		y[r] = acc
	}
}

// VerticalSlice returns the sub-matrix of columns [lo, hi) as a new CSR
// with Cols = hi-lo. SpMM partitions the sparse A into vertical strips
// this way, one strip per stored B slice (Figure 9, B-stationary).
func (m *CSR) VerticalSlice(lo, hi int) *CSR {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic("tensor: bad vertical slice bounds")
	}
	out := NewCSR(m.Rows, hi-lo)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.RowEntries(r)
		for i, c := range cols {
			if int(c) >= lo && int(c) < hi {
				out.ColIdx = append(out.ColIdx, c-int32(lo))
				out.Val = append(out.Val, vals[i])
			}
		}
		out.RowPtr[r+1] = int32(len(out.ColIdx))
	}
	return out
}

// NonZeroPRows returns H_w: the number of non-zero partial rows of width
// w (Section III-E). A prow is one row of one vertical strip of width w;
// it is non-zero when at least one element in it is non-zero.
func (m *CSR) NonZeroPRows(w int) int {
	if w <= 0 {
		panic("tensor: prow width must be positive")
	}
	// stamp[s] is 1 + the last row with a nonzero in strip s, so a
	// prow counts once however its row's columns are ordered.
	stamp := make([]int32, (m.Cols+w-1)/w)
	count := 0
	for r := 0; r < m.Rows; r++ {
		cols, _ := m.RowEntries(r)
		for _, c := range cols {
			if s := &stamp[int(c)/w]; *s != int32(r)+1 {
				*s = int32(r) + 1
				count++
			}
		}
	}
	return count
}
