package sched

import (
	"math/rand"
	"slices"
	"testing"
)

func TestArraySetBasics(t *testing.T) {
	a := NewRange(0, 10)
	if a.Count() != 10 || a.Empty() {
		t.Fatalf("NewRange(0,10): count=%d empty=%v", a.Count(), a.Empty())
	}
	if got := NewRange(5, 5); !got.Empty() {
		t.Errorf("degenerate range should be empty, got %v", got)
	}
	lo := a.TakeLowest(3)
	if lo.String() != "[0,3)" || a.String() != "[3,10)" {
		t.Errorf("TakeLowest: got %v, rest %v", lo, a)
	}
	hi := a.TakeHighest(2)
	if hi.String() != "[8,10)" || a.String() != "[3,8)" {
		t.Errorf("TakeHighest: got %v, rest %v", hi, a)
	}
	a.Add(lo)
	a.Add(hi)
	if a.String() != "[0,10)" {
		t.Errorf("round trip did not coalesce: %v", a)
	}
}

func TestArraySetTakeAcrossSpans(t *testing.T) {
	a := NewRange(0, 4)
	a.Add(NewRange(6, 10))
	got := a.TakeLowest(6)
	if got.String() != "[0,4) [6,8)" {
		t.Errorf("TakeLowest across gap = %v", got)
	}
	if a.String() != "[8,10)" {
		t.Errorf("rest = %v", a)
	}
	b := NewRange(0, 4)
	b.Add(NewRange(6, 10))
	top := b.TakeHighest(6)
	if top.String() != "[2,4) [6,10)" {
		t.Errorf("TakeHighest across gap = %v", top)
	}
	if b.String() != "[0,2)" {
		t.Errorf("rest = %v", b)
	}
}

func TestArraySetTakePanicsPastEnd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic taking past end")
		}
	}()
	a := NewRange(0, 3)
	a.TakeLowest(4)
}

func TestArraySetAddPanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double free")
		}
	}()
	a := NewRange(0, 5)
	a.Add(NewRange(4, 6))
}

func TestArraySetIntersectsContains(t *testing.T) {
	a := NewRange(0, 4)
	a.Add(NewRange(8, 12))
	b := NewRange(4, 8)
	if a.Intersects(b) {
		t.Errorf("%v should not intersect %v", a, b)
	}
	c := NewRange(3, 5)
	if !a.Intersects(c) {
		t.Errorf("%v should intersect %v", a, c)
	}
	if !a.Contains(NewRange(9, 11)) {
		t.Errorf("%v should contain [9,11)", a)
	}
	if a.Contains(NewRange(3, 9)) {
		t.Errorf("%v should not contain [3,9)", a)
	}
	if !a.Contains(ArraySet{}) {
		t.Error("every set contains the empty set")
	}
}

// The span list is canonical: equal sets hold identical spans however
// they were assembled, and a take/add round trip restores the original
// spans exactly.
func TestArraySetSpansCanonical(t *testing.T) {
	a := NewRange(0, 100)
	orig := a.Clone()
	taken := a.TakeLowest(17)
	if sameSpans(a, orig) {
		t.Error("spans unchanged after take")
	}
	a.Add(taken)
	if !sameSpans(a, orig) {
		t.Errorf("round trip changed spans: %v", a)
	}
	b := NewRange(0, 40)
	b.Add(NewRange(40, 100))
	if !sameSpans(b, orig) {
		t.Errorf("piecewise-assembled set has different spans: %v", b)
	}
	if sameSpans(NewRange(0, 99), orig) {
		t.Error("different sets should have different spans")
	}
}

// sameSpans reports whether two sets hold the same span list — set
// equality, since the span representation is canonical.
func sameSpans(a, b ArraySet) bool { return slices.Equal(a.Spans(), b.Spans()) }

// Property: random take/put sequences conserve the ID population — the
// union of everything out plus the pool equals the initial range, and
// outstanding takes are mutually disjoint.
func TestArraySetChaosConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const universe = 500
	pool := NewRange(0, universe)
	var out []ArraySet
	for step := 0; step < 2000; step++ {
		if free := pool.Count(); free > 0 && (len(out) == 0 || rng.Intn(2) == 0) {
			n := 1 + rng.Intn(free)
			if rng.Intn(2) == 0 {
				out = append(out, pool.TakeLowest(n))
			} else {
				out = append(out, pool.TakeHighest(n))
			}
		} else if len(out) > 0 {
			i := rng.Intn(len(out))
			pool.Add(out[i])
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
		}
		total := pool.Count()
		for i, s := range out {
			total += s.Count()
			if pool.Intersects(s) {
				t.Fatalf("step %d: pool %v intersects outstanding %v", step, pool, s)
			}
			for _, s2 := range out[i+1:] {
				if s.Intersects(s2) {
					t.Fatalf("step %d: outstanding sets %v and %v intersect", step, s, s2)
				}
			}
		}
		if total != universe {
			t.Fatalf("step %d: population %d, want %d", step, total, universe)
		}
	}
}
