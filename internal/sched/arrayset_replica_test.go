package sched

import (
	"testing"

	"mlimp/internal/isa"
)

// TestArraySetReplicaOpsUnderDegrade drives the replica carve/reclaim
// path through a degrade/restore storm and checks the ArraySet
// invariants the scheduler depends on at every step: replica sets stay
// disjoint from the free set and from each other, no array ID is ever
// duplicated or lost, and every degrade leaves a free set distinct,
// span for span, from every free set before it.
func TestArraySetReplicaOpsUnderDegrade(t *testing.T) {
	sys := fullSystem()
	sys.Replication = ReplicateWhenIdle
	jobs := stagedBatch(8)
	sys.EnsureReplicas(jobs)
	l := sys.Layers[isa.ReRAM]
	if len(l.replicas) == 0 {
		t.Fatal("no replicas to exercise")
	}
	healthy := sys.HealthyCapacity(isa.ReRAM)

	check := func(step string) {
		t.Helper()
		free := l.Avail()
		total := free.Count() + sys.Lost(isa.ReRAM)
		for i, r := range sys.Replicas(isa.ReRAM) {
			total += r.Set.Count()
			if free.Intersects(r.Set) {
				t.Fatalf("%s: replica %d intersects the free set", step, i)
			}
			if r.Set.Count() != r.Arrays {
				t.Fatalf("%s: replica %d set holds %d arrays, header says %d",
					step, i, r.Set.Count(), r.Arrays)
			}
			for k, o := range sys.Replicas(isa.ReRAM) {
				if k > i && r.Set.Intersects(o.Set) {
					t.Fatalf("%s: replicas %d and %d intersect", step, i, k)
				}
			}
		}
		if total != healthy {
			t.Fatalf("%s: free+lost+replicas = %d arrays, want %d", step, total, healthy)
		}
	}
	check("after carve")

	// Degrade reclaims replicas first; the carve/teardown churn must
	// conserve IDs and keep the free set moving.
	seen := []ArraySet{l.Avail()}
	for i := 0; i < 6; i++ {
		sys.Degrade(isa.ReRAM, 64)
		check("after degrade")
		for k, prev := range seen {
			if sameSpans(l.avail, prev) {
				t.Fatalf("degrade %d reproduced free set %d: %v", i, k, prev)
			}
		}
		seen = append(seen, l.Avail())
		// While degraded, the free set still supports the carve ops the
		// scheduler performs: TakeLowest/TakeHighest splits stay within
		// the set and Add restores them exactly.
		free := l.Avail()
		before := free.Clone()
		lo := free.TakeLowest(min(7, free.Count()-1))
		hi := free.TakeHighest(min(5, free.Count()-1))
		if lo.Intersects(hi) || lo.Intersects(free) || hi.Intersects(free) {
			t.Fatal("take results overlap")
		}
		free.Add(lo)
		free.Add(hi)
		if !sameSpans(free, before) {
			t.Fatal("take/add round-trip changed the set")
		}
	}
	for i := 0; i < 6; i++ {
		sys.Restore(isa.ReRAM, 64)
		check("after restore")
	}
	if sys.Lost(isa.ReRAM) != 0 {
		t.Fatalf("still %d arrays lost after full restore", sys.Lost(isa.ReRAM))
	}
	// Full restore rebuilds the standing replicas (the repWant contract).
	if sys.ReplicaCount() == 0 {
		t.Error("replicas not rebuilt after full restore")
	}
	check("after rebuild")
}

// FuzzArraySetOps fuzzes the span algebra against a bitmap model: a
// byte script drives TakeLowest/TakeHighest/Add/Intersects/Contains on
// a 256-array universe, and every step cross-checks counts, membership
// and the canonical span list against the model.
func FuzzArraySetOps(f *testing.F) {
	f.Add([]byte{0x01, 0x43, 0x82, 0x10, 0xc5})
	f.Add([]byte{0x00, 0x00, 0xff, 0xff, 0x40, 0x81})
	f.Add([]byte{0x21, 0x62, 0xa3, 0xe4, 0x05, 0x46, 0x87})
	f.Fuzz(func(t *testing.T, script []byte) {
		const universe = 256
		free := NewRange(0, universe)
		inFree := make([]bool, universe)
		for i := range inFree {
			inFree[i] = true
		}
		var taken []ArraySet

		model := func() ArraySet {
			// Rebuild the canonical set from the bitmap; the span
			// lists must agree if the spans are normalised.
			var m ArraySet
			for i := 0; i < universe; i++ {
				if inFree[i] {
					m.Add(NewRange(i, i+1))
				}
			}
			return m
		}
		for _, op := range script {
			n := int(op&0x3f) + 1
			switch {
			case op>>6 == 0: // take lowest n
				if n >= free.Count() {
					continue
				}
				got := free.TakeLowest(n)
				if got.Count() != n {
					t.Fatalf("TakeLowest(%d) returned %d arrays", n, got.Count())
				}
				markTaken(t, inFree, got)
				taken = append(taken, got)
			case op>>6 == 1: // take highest n
				if n >= free.Count() {
					continue
				}
				got := free.TakeHighest(n)
				if got.Count() != n {
					t.Fatalf("TakeHighest(%d) returned %d arrays", n, got.Count())
				}
				markTaken(t, inFree, got)
				taken = append(taken, got)
			case op>>6 == 2: // add the oldest taken set back
				if len(taken) == 0 {
					continue
				}
				back := taken[0]
				taken = taken[1:]
				free.Add(back)
				for _, s := range back.Spans() {
					for i := s.Lo; i < s.Hi; i++ {
						if inFree[i] {
							t.Fatalf("Add returned id %d that was never taken", i)
						}
						inFree[i] = true
					}
				}
			default: // cross-check set algebra on current state
				for i, a := range taken {
					if free.Intersects(a) {
						t.Fatalf("taken set %d intersects free", i)
					}
					if a.Count() > 0 && !a.Contains(a.Clone()) {
						t.Fatalf("taken set %d does not contain itself", i)
					}
				}
			}
			m := model()
			if m.Count() != free.Count() {
				t.Fatalf("free count %d, model %d", free.Count(), m.Count())
			}
			if !sameSpans(m, free) {
				t.Fatalf("free spans diverged from canonical model (free=%v model=%v)", free, m)
			}
			if !m.Empty() && !free.Contains(m) {
				t.Fatal("free does not contain its own model")
			}
		}
	})
}

// markTaken flips the taken IDs out of the bitmap, failing on any ID
// that was not free.
func markTaken(t *testing.T, inFree []bool, got ArraySet) {
	t.Helper()
	for _, s := range got.Spans() {
		for i := s.Lo; i < s.Hi; i++ {
			if !inFree[i] {
				t.Fatalf("took id %d twice", i)
			}
			inFree[i] = false
		}
	}
}
