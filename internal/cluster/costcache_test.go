package cluster

import (
	"math/rand"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/workload"
)

// TestEstimateCacheTransparent checks the memoized estimate equals a
// fresh planning pass and that repeat queries hit.
func TestEstimateCacheTransparent(t *testing.T) {
	n := NewNode(&event.Engine{}, fullNode("a"))
	jobs := mkBatch(1, 0, 4).Jobs
	first := n.EstimateCost(jobs)
	fresh := sched.NewGlobal().Schedule(n.Sys, jobs).Makespan
	if first != fresh {
		t.Fatalf("cached estimate %v != fresh plan %v", first, fresh)
	}
	again := n.EstimateCost(jobs)
	if again != first {
		t.Fatalf("estimate changed on repeat: %v vs %v", again, first)
	}
	hits, misses := n.EstCacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
	// A different batch must not alias the cache entry.
	other := mkBatch(2, 0, 2).Jobs
	if n.EstimateCost(other) == 0 {
		t.Error("second batch estimate missing")
	}
	if _, misses := n.EstCacheStats(); misses != 2 {
		t.Errorf("distinct batch did not miss: misses=%d", misses)
	}
}

// TestPredictedCostDeterministicWithCache runs the same predicted-cost
// fleet twice from the same seed: the cache must not perturb a single
// routing decision, so the summaries render identically.
func TestPredictedCostDeterministicWithCache(t *testing.T) {
	run := func() string {
		p, _ := PolicyByName("predicted-cost")
		d := newFleet(p, Admission{MaxRetries: 3},
			fullNode("full"),
			NodeConfig{Name: "slow", Targets: isa.Targets, Scale: 0.25})
		rng := rand.New(rand.NewSource(11))
		for i, at := range PoissonArrivals(rng, 24, 2*event.Millisecond) {
			d.Submit(&runtime.Batch{ID: i, Arrival: at,
				Jobs: workload.RandomJobs(rng, 3, i*100)})
		}
		return d.Run().String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("predicted-cost fleet not deterministic:\n%s\nvs\n%s", a, b)
	}
	// The admission flow estimates each accepted batch at least twice
	// (Pick + booking) against the hub's views, so a run of this size
	// must see real cache traffic there.
	p, _ := PolicyByName("predicted-cost")
	d := newFleet(p, Admission{},
		fullNode("full"),
		NodeConfig{Name: "slow", Targets: isa.Targets, Scale: 0.25})
	rng := rand.New(rand.NewSource(11))
	for i, at := range PoissonArrivals(rng, 24, 2*event.Millisecond) {
		d.Submit(&runtime.Batch{ID: i, Arrival: at,
			Jobs: workload.RandomJobs(rng, 3, i*100)})
	}
	d.Run()
	var hits int64
	for _, v := range d.regions[0].views {
		h, _ := v.EstCacheStats()
		hits += h
	}
	if hits == 0 {
		t.Error("predicted-cost run produced zero estimate-cache hits")
	}
}
