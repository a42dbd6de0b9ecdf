package sched

import (
	"testing"

	"mlimp/internal/isa"
)

func cacheTestJob() *Job {
	return &Job{ID: 1, Name: "memo", Kind: "gemm", Est: map[isa.Target]Profile{
		isa.SRAM:  {UnitCycles: 40000, RepUnit: 4, LoadBytes: 1 << 16, StoreBytes: 1 << 14},
		isa.DRAM:  {UnitCycles: 9000, RepUnit: 2, LoadBytes: 1 << 16, StoreBytes: 1 << 14},
		isa.ReRAM: {UnitCycles: 600, RepUnit: 1, LoadBytes: 1 << 16, StoreBytes: 1 << 14, ProgramBytes: 1 << 15},
	}}
}

// TestModelTimeMemo checks the memo is transparent: repeated queries
// hit, and hits return exactly what the from-scratch model computes.
func TestModelTimeMemo(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	for _, tgt := range sys.Targets() {
		for _, arrays := range []int{1, 3, 17} {
			first := sys.ModelTime(j, tgt, arrays)
			again := sys.ModelTime(j, tgt, arrays)
			fresh := sys.computeProfileTime(j.Est[tgt], tgt, arrays)
			if first != again || first != fresh {
				t.Fatalf("%v arrays=%d: memo %v / %v vs fresh %v", tgt, arrays, first, again, fresh)
			}
		}
	}
	st := sys.CacheStats()
	if st.ModelHits == 0 || st.ModelMisses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
	// 9 distinct (target, arrays) points, each queried twice via
	// ModelTime: exactly 9 misses from those calls.
	if st.ModelHits != 9 {
		t.Errorf("ModelHits = %d, want 9", st.ModelHits)
	}
}

// TestKneeAllocMemo checks the knee memo hits on repeat queries and
// keys on capacity, so cluster-scaled layers never see a stale knee.
func TestKneeAllocMemo(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	k1 := sys.KneeAlloc(j, isa.SRAM)
	k2 := sys.KneeAlloc(j, isa.SRAM)
	if k1 != k2 {
		t.Fatalf("knee changed on repeat: %d vs %d", k1, k2)
	}
	st := sys.CacheStats()
	if st.KneeHits != 1 || st.KneeMisses != 1 {
		t.Errorf("knee stats = %+v, want 1 hit / 1 miss", st)
	}
	// Shrink the layer: the memo must miss and the knee must respect
	// the new capacity.
	sys.Layers[isa.SRAM].SetCapacity(2)
	k3 := sys.KneeAlloc(j, isa.SRAM)
	if k3 > 2 {
		t.Fatalf("knee %d exceeds shrunk capacity 2", k3)
	}
	if st := sys.CacheStats(); st.KneeMisses != 2 {
		t.Errorf("capacity change did not re-search: %+v", st)
	}
}

// TestProfMemoBounded floods the model memo with distinct profiles and
// asserts the generation-clear keeps it at or under its bound — the
// leak guard for long sweeps over many job shapes.
func TestProfMemoBounded(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	for i := 0; i < 3*MaxProfMemoEntries; i++ {
		p := j.Est[isa.SRAM]
		p.UnitCycles = int64(1000 + i) // a fresh shape every query
		sys.memoProfileTime(p, isa.SRAM, 1+i%8)
	}
	if n := len(sys.profMemo); n > MaxProfMemoEntries {
		t.Errorf("profMemo grew to %d entries, bound is %d", n, MaxProfMemoEntries)
	}
	st := sys.CacheStats()
	if st.Clears == 0 {
		t.Error("3x overflow produced no generation clears")
	}
	// Clearing must stay transparent: a post-clear query still matches
	// the from-scratch model.
	p := j.Est[isa.SRAM]
	if got, want := sys.memoProfileTime(p, isa.SRAM, 4), sys.computeProfileTime(p, isa.SRAM, 4); got != want {
		t.Errorf("post-clear memo %v != fresh %v", got, want)
	}
}

// TestKneeMemoBounded floods the knee memo past its bound.
func TestKneeMemoBounded(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	p := j.Est[isa.SRAM]
	for i := 0; i < 2*MaxKneeMemoEntries; i++ {
		p.UnitCycles = int64(1000 + i)
		sys.storeKnee(p, isa.SRAM, 64, kneePoint{alloc: 8})
	}
	if n := len(sys.kneeMemo); n > MaxKneeMemoEntries {
		t.Errorf("kneeMemo grew to %d entries, bound is %d", n, MaxKneeMemoEntries)
	}
	if st := sys.CacheStats(); st.Clears == 0 {
		t.Error("2x overflow produced no generation clears")
	}
}

// TestDegradeClearsKneeMemo: capacity changes generation-clear the knee
// memo, so a churning fault plan cannot strand one memo generation per
// capacity value it visits.
func TestDegradeClearsKneeMemo(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	sys.KneeAlloc(j, isa.SRAM)
	if len(sys.kneeMemo) == 0 {
		t.Fatal("knee search left no memo entry")
	}
	base := sys.CacheStats().Clears
	if sys.Degrade(isa.SRAM, 4) == 0 {
		t.Fatal("degrade removed nothing")
	}
	if len(sys.kneeMemo) != 0 {
		t.Errorf("degrade left %d knee entries", len(sys.kneeMemo))
	}
	if sys.CacheStats().Clears != base+1 {
		t.Errorf("degrade clears = %d, want %d", sys.CacheStats().Clears, base+1)
	}
	sys.KneeAlloc(j, isa.SRAM)
	if sys.Restore(isa.SRAM, 4) == 0 {
		t.Fatal("restore returned nothing")
	}
	if len(sys.kneeMemo) != 0 {
		t.Errorf("restore left %d knee entries", len(sys.kneeMemo))
	}
}

// BenchmarkModelTime measures the memoized hot path against the
// from-scratch model evaluation it replaces.
func BenchmarkModelTime(b *testing.B) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys.ModelTime(j, isa.DRAM, 1+i%16)
		}
	})
	b.Run("compute", func(b *testing.B) {
		b.ReportAllocs()
		p := j.Est[isa.DRAM]
		for i := 0; i < b.N; i++ {
			sys.computeProfileTime(p, isa.DRAM, 1+i%16)
		}
	})
}

// BenchmarkKneeAlloc measures the memoized knee search: one repeated
// query, so every iteration after the first is a memo hit.
func BenchmarkKneeAlloc(b *testing.B) {
	sys := NewSystem(isa.Targets...)
	j := cacheTestJob()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys.KneeAlloc(j, isa.SRAM)
	}
}

// BenchmarkKneeAllocMiss measures the knee search itself: every
// iteration queries a fresh profile, so the knee memo never hits and
// each query runs the full grid evaluation.
func BenchmarkKneeAllocMiss(b *testing.B) {
	sys := NewSystem(isa.Targets...)
	p := cacheTestJob().Est[isa.SRAM]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.UnitCycles = int64(40000 + i)
		sys.kneeForProfile(p, isa.SRAM)
	}
}
