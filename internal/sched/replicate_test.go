package sched

import (
	"testing"

	"mlimp/internal/isa"
)

// stagedBatch builds a batch dominated by one SpMM-like stage: count
// independent invocations of the stage (each tagged with the same Stage
// string) plus a few unstaged background jobs.
func stagedBatch(count int) []*Job {
	var jobs []*Job
	for i := 0; i < count; i++ {
		j := mkJob(i, map[isa.Target]int64{isa.ReRAM: cyclesForTime(isa.ReRAM, 4)}, 8, 1<<20)
		j.Stage = "spmm-l0"
		jobs = append(jobs, j)
	}
	for i := 0; i < 3; i++ {
		jobs = append(jobs, mkJob(count+i,
			map[isa.Target]int64{isa.SRAM: cyclesForTime(isa.SRAM, 1)}, 4, 1<<18))
	}
	return jobs
}

func TestEnsureReplicasPinsBottleneck(t *testing.T) {
	sys := fullSystem()
	sys.Replication = ReplicateWhenIdle
	jobs := stagedBatch(8)
	sys.EnsureReplicas(jobs)
	reps := sys.Replicas(isa.ReRAM)
	if len(reps) == 0 {
		t.Fatal("no replicas pinned for the bottleneck stage")
	}
	if reps[0].Stage != "spmm-l0" {
		t.Errorf("pinned stage = %q", reps[0].Stage)
	}
	// Pinned arrays left the free set but are not lost.
	healthy := sys.HealthyCapacity(isa.ReRAM)
	if got := sys.Layers[isa.ReRAM].Capacity() + replicaArrays(sys.Layers[isa.ReRAM]); got != healthy {
		t.Errorf("capacity %d + replicas != healthy %d", got, healthy)
	}
	if sys.Lost(isa.ReRAM) != 0 {
		t.Errorf("Lost = %d with no faults", sys.Lost(isa.ReRAM))
	}
	// The reserve keeps at least half the layer for regular placement.
	if free := sys.Layers[isa.ReRAM].Capacity(); free < healthy/2 {
		t.Errorf("free %d below the half-capacity reserve of %d", free, healthy)
	}
	// Replica sets are disjoint from the free set and from each other.
	avail := sys.Layers[isa.ReRAM].Avail()
	for i, r := range reps {
		if avail.Intersects(r.Set) {
			t.Errorf("replica %d overlaps the free set", i)
		}
		for k := i + 1; k < len(reps); k++ {
			if r.Set.Intersects(reps[k].Set) {
				t.Errorf("replicas %d and %d overlap", i, k)
			}
		}
	}
	// Off policy tears everything down and returns every array.
	sys.Replication = ReplicateOff
	sys.EnsureReplicas(jobs)
	if sys.ReplicaCount() != 0 {
		t.Error("replicas survived ReplicateOff")
	}
	if got := sys.Layers[isa.ReRAM].Capacity(); got != healthy {
		t.Errorf("capacity %d after teardown, want %d", got, healthy)
	}
}

func TestEnsureReplicasKeepsPinAcrossBatches(t *testing.T) {
	sys := fullSystem()
	sys.Replication = ReplicateWhenIdle
	sys.EnsureReplicas(stagedBatch(8))
	pinned := sys.Replicas(isa.ReRAM)[0].Set.Clone()
	// Same stage again: the pin (and its programmed weights) survives.
	sys.EnsureReplicas(stagedBatch(6))
	reps := sys.Replicas(isa.ReRAM)
	if len(reps) == 0 || !sameSpans(reps[0].Set, pinned) {
		t.Error("pin was rebuilt for an unchanged stage")
	}
	// A batch without the stage re-plans (here: nothing to replicate).
	plain := []*Job{
		mkJob(0, map[isa.Target]int64{isa.SRAM: 1e7}, 4, 1<<18),
		mkJob(1, map[isa.Target]int64{isa.SRAM: 1e7}, 4, 1<<18),
	}
	sys.EnsureReplicas(plain)
	if sys.ReplicaCount() != 0 {
		t.Error("stale pin survived a batch without its stage")
	}
}

func TestReplicationSpeedsUpBottleneck(t *testing.T) {
	for _, sc := range []Scheduler{NewAdaptive(), NewGlobal(), LJF{}} {
		base := fullSystem()
		baseRes := sc.Schedule(base, stagedBatch(12))

		rep := fullSystem()
		rep.Replication = ReplicateWhenIdle
		repRes := sc.Schedule(rep, stagedBatch(12))

		if rep.ReplicaCount() == 0 {
			t.Fatalf("%s: no replicas built", sc.Name())
		}
		if repRes.Makespan >= baseRes.Makespan {
			t.Errorf("%s: replicated makespan %v !< baseline %v",
				sc.Name(), repRes.Makespan, baseRes.Makespan)
		}
		if len(repRes.Assignments) != len(baseRes.Assignments) {
			t.Errorf("%s: %d assignments, want %d",
				sc.Name(), len(repRes.Assignments), len(baseRes.Assignments))
		}
	}
}

func TestReplicationDeterministic(t *testing.T) {
	run := func() *Result {
		sys := fullSystem()
		sys.Replication = ReplicateWhenIdle
		return NewAdaptive().Schedule(sys, stagedBatch(12))
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	for i := range a.Assignments {
		x, y := a.Assignments[i], b.Assignments[i]
		if x.Job.ID != y.Job.ID || x.Target != y.Target || x.Start != y.Start || x.End != y.End {
			t.Fatalf("assignment %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestDegradeReclaimsReplicasFirst(t *testing.T) {
	sys := fullSystem()
	sys.Replication = ReplicateWhenIdle
	sys.EnsureReplicas(stagedBatch(8))
	l := sys.Layers[isa.ReRAM]
	pinned := replicaArrays(l)
	if pinned == 0 {
		t.Fatal("no replicas to reclaim")
	}
	freeBefore := l.Capacity()
	// Degrading one array must tear down the replicas (spare capacity
	// goes first) and take the single lost ID from the ex-replica range.
	if got := sys.Degrade(isa.ReRAM, 1); got != 1 {
		t.Fatalf("Degrade = %d", got)
	}
	if sys.ReplicaCount() != 0 {
		t.Error("replicas survived Degrade")
	}
	if got := l.Capacity(); got != freeBefore+pinned-1 {
		t.Errorf("capacity %d after degrade, want %d", got, freeBefore+pinned-1)
	}
	if sys.Lost(isa.ReRAM) != 1 {
		t.Errorf("Lost = %d", sys.Lost(isa.ReRAM))
	}
	// Restore rebuilds the torn-down replica set.
	if got := sys.Restore(isa.ReRAM, 1); got != 1 {
		t.Fatalf("Restore = %d", got)
	}
	if sys.ReplicaCount() == 0 {
		t.Error("replicas not rebuilt on Restore")
	}
	if got := replicaArrays(sys.Layers[isa.ReRAM]); got != pinned {
		t.Errorf("rebuilt %d replica arrays, want %d", got, pinned)
	}
	if sys.Lost(isa.ReRAM) != 0 {
		t.Errorf("Lost = %d after full restore", sys.Lost(isa.ReRAM))
	}
}

// TestReplicaMemoKeying: carving replicas moves arrays out of the free
// set, so the knee memo re-keys by capacity with no invalidation, and
// dropping them restores the free set span for span along with the
// healthy knee.
func TestReplicaMemoKeying(t *testing.T) {
	sys := fullSystem()
	sys.Replication = ReplicateWhenIdle
	l := sys.Layers[isa.ReRAM]
	j := stagedBatch(1)[0]
	freeBefore := l.Avail()
	kneeBefore := sys.KneeAlloc(j, isa.ReRAM)
	sys.EnsureReplicas(stagedBatch(8))
	if sameSpans(l.avail, freeBefore) {
		t.Error("free set unchanged by replica pinning")
	}
	for i, r := range sys.Replicas(isa.ReRAM) {
		if !freeBefore.Contains(r.Set) || l.avail.Intersects(r.Set) {
			t.Errorf("replica %d set %v not carved out of the free set", i, r.Set)
		}
	}
	if got, want := sys.KneeAlloc(j, isa.ReRAM), sys.kneeSearch(j.Est[isa.ReRAM], isa.ReRAM, l.Capacity()); got != want {
		t.Errorf("knee %d under replicas, want %d at capacity %d", got, want, l.Capacity())
	}
	sys.DropReplicas()
	if !sameSpans(l.avail, freeBefore) {
		t.Errorf("free set %v after drop, want %v", l.avail, freeBefore)
	}
	// The healthy-capacity entry survived the carve/drop round trip.
	hits := sys.CacheStats().KneeHits
	if got := sys.KneeAlloc(j, isa.ReRAM); got != kneeBefore {
		t.Errorf("knee %d after drop, want %d", got, kneeBefore)
	}
	if st := sys.CacheStats(); st.KneeHits != hits+1 || st.Clears != 0 {
		t.Errorf("replica carve/drop disturbed the knee memo: %+v", st)
	}
}

func TestScaleToBits(t *testing.T) {
	p := Profile{UnitCycles: 1000, RepUnit: 8, LoadBytes: 4096, StoreBytes: 1024, ProgramBytes: 2048, Beta: 0.8}
	half := p.ScaleToBits(8)
	if half.UnitCycles != 500 || half.LoadBytes != 2048 || half.StoreBytes != 512 || half.ProgramBytes != 1024 {
		t.Errorf("half-width scaling wrong: %+v", half)
	}
	if half.RepUnit != 4 {
		t.Errorf("RepUnit = %d, want 4", half.RepUnit)
	}
	if half.Beta != p.Beta {
		t.Error("Beta must not scale")
	}
	if got := p.ScaleToBits(16); got != p {
		t.Error("16-bit scaling must be identity")
	}
	if got := p.ScaleToBits(0); got != p {
		t.Error("zero bits means default width")
	}
	// Ceil keeps tiny profiles schedulable.
	tiny := Profile{UnitCycles: 1, RepUnit: 1, LoadBytes: 1}
	if got := tiny.ScaleToBits(8); got.UnitCycles != 1 || got.RepUnit != 1 || got.LoadBytes != 1 {
		t.Errorf("tiny profile scaled to zero: %+v", got)
	}
}
