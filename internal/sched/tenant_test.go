package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"mlimp/internal/isa"
)

// TestDegradeRestoreRoundTripsIDs: Degrade names the highest in-service
// IDs, stacks repeated degradations LIFO, and Restore returns exactly
// the IDs that were lost — the array-granular fault contract.
func TestDegradeRestoreRoundTripsIDs(t *testing.T) {
	sys := NewSystem(isa.Targets...)
	l := sys.Layers[isa.SRAM]
	cap0 := l.Capacity()
	avail0 := l.Avail()

	if got := sys.Degrade(isa.SRAM, 100); got != 100 {
		t.Fatalf("Degrade removed %d, want 100", got)
	}
	if want := NewRange(cap0-100, cap0); sys.DegradedIDs(isa.SRAM).String() != want.String() {
		t.Errorf("first degrade IDs = %v, want %v", sys.DegradedIDs(isa.SRAM), want)
	}
	if got := sys.Degrade(isa.SRAM, 50); got != 50 {
		t.Fatalf("second Degrade removed %d, want 50", got)
	}
	if want := NewRange(cap0-150, cap0); sys.DegradedIDs(isa.SRAM).String() != want.String() {
		t.Errorf("stacked degrade IDs = %v, want %v", sys.DegradedIDs(isa.SRAM), want)
	}
	if sys.Lost(isa.SRAM) != 150 || l.Capacity() != cap0-150 {
		t.Fatalf("lost=%d capacity=%d", sys.Lost(isa.SRAM), l.Capacity())
	}

	// Restore pops LIFO: the 50 most recently failed IDs come back first.
	if got := sys.Restore(isa.SRAM, 50); got != 50 {
		t.Fatalf("Restore returned %d, want 50", got)
	}
	if want := NewRange(cap0-150, cap0-100); !l.Avail().Contains(want) {
		t.Errorf("restored IDs %v not back in service; avail=%v", want, l.Avail())
	}
	if want := NewRange(cap0-100, cap0); sys.DegradedIDs(isa.SRAM).String() != want.String() {
		t.Errorf("after partial restore, lost IDs = %v, want %v", sys.DegradedIDs(isa.SRAM), want)
	}
	// Full restore reproduces the healthy set exactly, span for span.
	if got := sys.Restore(isa.SRAM, 1000); got != 100 {
		t.Fatalf("final Restore returned %d, want 100", got)
	}
	if l.Capacity() != cap0 || !sameSpans(l.avail, avail0) {
		t.Errorf("round trip: capacity=%d avail=%v, want %d %v", l.Capacity(), l.avail, cap0, avail0)
	}
	if !sys.DegradedIDs(isa.SRAM).Empty() || sys.Lost(isa.SRAM) != 0 {
		t.Errorf("round trip left lost state: %v", sys.DegradedIDs(isa.SRAM))
	}
}

// Partial restore across a stacked Degrade must split the top set and
// still round-trip the remainder.
func TestRestoreSplitsStackedSet(t *testing.T) {
	sys := NewSystem(isa.SRAM)
	l := sys.Layers[isa.SRAM]
	cap0 := l.Capacity()
	sys.Degrade(isa.SRAM, 40)
	if got := sys.Restore(isa.SRAM, 15); got != 15 {
		t.Fatalf("partial restore returned %d", got)
	}
	// The 15 highest of the lost 40 come back (LIFO within the set).
	if want := NewRange(cap0-40, cap0-15); sys.DegradedIDs(isa.SRAM).String() != want.String() {
		t.Errorf("remaining lost = %v, want %v", sys.DegradedIDs(isa.SRAM), want)
	}
	if got := sys.Restore(isa.SRAM, 25); got != 25 {
		t.Fatalf("remainder restore returned %d", got)
	}
	if sys.Lost(isa.SRAM) != 0 || l.Capacity() != cap0 {
		t.Errorf("lost=%d capacity=%d after full restore", sys.Lost(isa.SRAM), l.Capacity())
	}
}

func TestPackingByName(t *testing.T) {
	for _, name := range PackingNames() {
		p, ok := PackingByName(name)
		if !ok || p.String() != name {
			t.Errorf("PackingByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PackingByName("round-robin"); ok {
		t.Error("unknown packing name should not resolve")
	}
}

// tenantJobs builds n jobs tagged round-robin across k tenants.
func tenantJobs(rng *rand.Rand, sys *System, n, k int) []*Job {
	jobs := chaosJobs(rng, sys, n)
	for i, j := range jobs {
		j.Tenant = fmt.Sprintf("t%d", i%k)
	}
	return jobs
}

// checkIsolation asserts the hard invariant: no array is ever held by
// two tenants at once — any pair of time-overlapping assignments from
// different tenants on one target must have disjoint array IDs. It also
// checks each assignment's ID set matches its array count.
func checkIsolation(t *testing.T, res *Result) {
	t.Helper()
	for i, a := range res.Assignments {
		if a.ArrayIDs.Count() != a.Arrays {
			t.Fatalf("assignment %d: %d arrays but IDs %v", i, a.Arrays, a.ArrayIDs)
		}
		for _, b := range res.Assignments[i+1:] {
			if a.Target != b.Target || a.Tenant == b.Tenant {
				continue
			}
			if a.Start < b.End && b.Start < a.End && a.ArrayIDs.Intersects(b.ArrayIDs) {
				t.Fatalf("isolation violated on %s: tenant %s %v overlaps tenant %s %v",
					a.Target, a.Tenant, a.ArrayIDs, b.Tenant, b.ArrayIDs)
			}
		}
	}
}

// TestMultiTenantIsolationAllPackings runs every scheduler x packing
// combination over randomly degraded systems and asserts completion,
// conservation, and the isolation invariant.
func TestMultiTenantIsolationAllPackings(t *testing.T) {
	scheds := []Scheduler{LJF{}, NewAdaptive(), NewGlobal()}
	packings := []Packing{PackFirstFit, PackPartitioned, PackWeightedFair}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		sys := chaosSystem(rng)
		jobs := tenantJobs(rng, sys, 1+rng.Intn(30), 1+rng.Intn(4))
		for _, p := range packings {
			sys.Packing = p
			for _, sc := range scheds {
				res := sc.Schedule(sys, jobs)
				if len(res.Assignments) != len(jobs) {
					t.Fatalf("trial %d %s/%v: completed %d of %d jobs",
						trial, sc.Name(), p, len(res.Assignments), len(jobs))
				}
				checkIsolation(t, res)
				verifyNoOverlapOvercommit(t, sys, res)
			}
		}
	}
}

// Under partitioned packing, tenants must be disjoint even across time:
// each tenant's assignments stay inside a private contiguous region.
func TestPartitionedTenantsFullyDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := NewSystem(isa.Targets...)
	sys.Packing = PackPartitioned
	jobs := tenantJobs(rng, sys, 24, 3)
	for _, sc := range []Scheduler{LJF{}, NewAdaptive(), NewGlobal()} {
		res := sc.Schedule(sys, jobs)
		// owner[target][id] = tenant; a tenant re-holding its own arrays
		// across time is fine, any cross-tenant claim is not.
		owner := map[isa.Target]map[int]string{}
		for _, a := range res.Assignments {
			if owner[a.Target] == nil {
				owner[a.Target] = map[int]string{}
			}
			for _, s := range a.ArrayIDs.Spans() {
				for id := s.Lo; id < s.Hi; id++ {
					if prev, ok := owner[a.Target][id]; ok && prev != a.Tenant {
						t.Fatalf("%s: %s: array %d held by both %s and %s",
							sc.Name(), a.Target, id, prev, a.Tenant)
					}
					owner[a.Target][id] = a.Tenant
				}
			}
		}
	}
}

// Untenanted batches must schedule identically under every packing
// policy: the single-tenant fast path never consults tenant machinery.
func TestSingleTenantPackingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		seedSys := chaosSystem(rng)
		jobs := chaosJobs(rng, seedSys, 1+rng.Intn(20))
		for _, sc := range []Scheduler{LJF{}, NewAdaptive(), NewGlobal()} {
			var base *Result
			for _, p := range []Packing{PackFirstFit, PackPartitioned, PackWeightedFair} {
				seedSys.Packing = p
				res := sc.Schedule(seedSys, jobs)
				if base == nil {
					base = res
					continue
				}
				if res.Makespan != base.Makespan || len(res.Assignments) != len(base.Assignments) {
					t.Fatalf("trial %d %s: packing %v diverged: makespan %v vs %v",
						trial, sc.Name(), p, res.Makespan, base.Makespan)
				}
				for i := range res.Assignments {
					a, b := res.Assignments[i], base.Assignments[i]
					if a.Job != b.Job || a.Target != b.Target || a.Arrays != b.Arrays ||
						a.Start != b.Start || a.End != b.End {
						t.Fatalf("trial %d %s: packing %v assignment %d diverged", trial, sc.Name(), p, i)
					}
				}
			}
		}
	}
}

// TenantsTouching identifies exactly the tenants whose assignments
// overlap a decommissioned ID range.
func TestTenantsTouching(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := NewSystem(isa.Targets...)
	sys.Packing = PackPartitioned
	jobs := tenantJobs(rng, sys, 12, 3)
	res := NewGlobal().Schedule(sys, jobs)
	cap0 := sys.Layers[isa.SRAM].Capacity()
	failed := NewRange(cap0-64, cap0)
	got := map[string]bool{}
	for _, name := range res.TenantsTouching(isa.SRAM, failed) {
		got[name] = true
	}
	want := map[string]bool{}
	for _, a := range res.Assignments {
		if a.Target == isa.SRAM && a.ArrayIDs.Intersects(failed) {
			want[a.Tenant] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("TenantsTouching = %v, want %v", got, want)
	}
	for name := range want {
		if !got[name] {
			t.Errorf("missing tenant %s", name)
		}
	}
}
