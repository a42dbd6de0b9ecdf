package cluster

import (
	"errors"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/fault"
)

// fabricChaosTree runs a 4-node, 2-region tree under a fabric fault
// plan with a fast beacon grid (suspicion limit ~1.54ms at the default
// miss budget), 30 staggered arrivals, and an OnDone observer counting
// terminal states per batch. Returns the summary and the observer map.
func fabricChaosTree(policy Policy, workers int, plan *fault.Plan) (Summary, map[int]int) {
	d := NewShardedDispatcher(policy, Admission{MaxRetries: 6},
		ShardConfig{Workers: workers, Hubs: 2, SummaryEvery: 500 * event.Microsecond},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	seen := map[int]int{}
	d.OnDone(func(di DoneInfo) { seen[di.Batch.ID]++ })
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 5 * event.Millisecond}); err != nil {
		panic(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*200*event.Microsecond, 4)); err != nil {
			panic(err)
		}
	}
	return d.Run(), seen
}

// hubCrashPlan freezes region 1's hub for [1ms, 4ms) — longer than the
// suspicion limit, so region 0 both loses a peer and adopts its nodes.
func hubCrashPlan() *fault.Plan {
	return &fault.Plan{
		Seed:       5,
		HubCrashes: []fault.HubCrash{{Region: 1, At: event.Millisecond, Recover: 4 * event.Millisecond}},
	}
}

// TestTreeHubCrashConservation: a frozen hub loses its echoes and parks
// its routing, yet every batch still reaches exactly one terminal state,
// and the summary reports the freeze, the takeover, and the fabric
// re-dispatches the revival sweep charged.
func TestTreeHubCrashConservation(t *testing.T) {
	s, seen := fabricChaosTree(NewRoundRobin(), 4, hubCrashPlan())
	conserved(t, s)
	if s.Completed == 0 {
		t.Fatal("hub-crash run completed nothing")
	}
	if s.HubCrashes != 1 {
		t.Errorf("summary HubCrashes = %d, want 1", s.HubCrashes)
	}
	if s.Takeovers == 0 {
		t.Error("3ms freeze above the suspicion limit triggered no takeover")
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("batch %d observed %d times (exactly-once broken)", id, c)
		}
	}
	if len(seen) != s.Submitted {
		t.Errorf("observer saw %d distinct batches, want %d", len(seen), s.Submitted)
	}
}

// TestTreeHubCrashWorkerEquivalence: the whole failover cascade —
// freeze, parked replay, suspicion, takeover, revival sweep — is
// byte-identical at every worker count.
func TestTreeHubCrashWorkerEquivalence(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		s, _ := fabricChaosTree(NewRoundRobin(), workers, hubCrashPlan())
		got := s.String()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d diverges from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestTreeRelayFailoverExactlyOnce: with region 0's hub frozen, sibling
// settles re-home through the lowest live hub instead of the hard-wired
// region-0 relay, and the observer still sees every batch exactly once.
func TestTreeRelayFailoverExactlyOnce(t *testing.T) {
	plan := &fault.Plan{
		Seed:       5,
		HubCrashes: []fault.HubCrash{{Region: 0, At: event.Millisecond, Recover: 4 * event.Millisecond}},
	}
	s, seen := fabricChaosTree(NewLeastOutstanding(), 4, plan)
	conserved(t, s)
	if s.Rehomed == 0 {
		t.Error("region-0 freeze re-homed no relays")
	}
	if s.HubCrashes != 1 {
		t.Errorf("summary HubCrashes = %d, want 1", s.HubCrashes)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("batch %d observed %d times", id, c)
		}
	}
	if len(seen) != s.Submitted {
		t.Errorf("observer saw %d of %d batches", len(seen), s.Submitted)
	}
}

// TestTreeBeaconLossSuspicion: dropping every hub1->hub0 beacon makes
// region 0 suspect its (live) predecessor and adopt its nodes — a false
// positive the fabric is designed to survive: conservation holds, the
// adoption is counted, and reliable traffic still crosses the lossy
// edge.
func TestTreeBeaconLossSuspicion(t *testing.T) {
	plan := &fault.Plan{
		Seed: 11,
		EdgeFaults: []fault.EdgeFault{
			{From: "hub1", To: "hub0", At: 0, DropProb: 1},
		},
	}
	s, seen := fabricChaosTree(NewRoundRobin(), 4, plan)
	conserved(t, s)
	if s.Takeovers == 0 {
		t.Error("total beacon loss triggered no suspicion/takeover")
	}
	if s.Completed == 0 {
		t.Fatal("beacon-loss run completed nothing")
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("batch %d observed %d times", id, c)
		}
	}
}

// TestTreeSplitBrainPartition: a clean hub<->hub partition window makes
// both regions suspect each other and adopt each other's nodes — double
// booking on shared shard nodes — yet the booking tokens and per-batch
// echo homes keep every batch settling exactly once.
func TestTreeSplitBrainPartition(t *testing.T) {
	plan := &fault.Plan{
		Seed: 17,
		EdgeFaults: fault.PartitionEdges(
			[]string{"hub0"}, []string{"hub1"},
			event.Millisecond, 4*event.Millisecond),
	}
	var want string
	for _, workers := range []int{1, 4} {
		s, seen := fabricChaosTree(NewRoundRobin(), workers, plan)
		conserved(t, s)
		if s.Takeovers != 2 {
			t.Errorf("split brain takeovers = %d, want 2 (both sides adopt)", s.Takeovers)
		}
		for id, c := range seen {
			if c != 1 {
				t.Errorf("batch %d observed %d times", id, c)
			}
		}
		got := s.String()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d split-brain run diverges:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestFabricFaultErrors: the named-error contract for fabric fault
// plans — wrong topology, bad region, lossy edges without a deadline,
// unknown endpoints — that the CLI flags surface with exit 2.
func TestFabricFaultErrors(t *testing.T) {
	hubCrash := &fault.Plan{HubCrashes: []fault.HubCrash{{Region: 0, At: 1, Recover: 2}}}

	// A one-region fleet has edges but only one hub.
	flat := NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("a"))
	if err := flat.EnableFaults(FaultConfig{Plan: hubCrash}); !errors.Is(err, ErrHubCrashNeedsTree) {
		t.Errorf("flat hub crash err = %v, want ErrHubCrashNeedsTree", err)
	}

	tree := func() *ShardedDispatcher {
		return NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{Hubs: 2},
			fullNode("a"), fullNode("b"))
	}
	// Region index out of range for the topology.
	bad := &fault.Plan{HubCrashes: []fault.HubCrash{{Region: 7, At: 1, Recover: 2}}}
	if err := tree().EnableFaults(FaultConfig{Plan: bad}); !errors.Is(err, fault.ErrBadHubRegion) {
		t.Errorf("out-of-range region err = %v, want fault.ErrBadHubRegion", err)
	}
	// Lossy edges need the deadline recovery path.
	lossy := &fault.Plan{EdgeFaults: []fault.EdgeFault{{From: "hub0", To: "hub1", DropProb: 0.5}}}
	if err := tree().EnableFaults(FaultConfig{Plan: lossy}); !errors.Is(err, ErrEdgeFaultNeedsDeadline) {
		t.Errorf("lossy-without-deadline err = %v, want ErrEdgeFaultNeedsDeadline", err)
	}
	// Endpoints must name real shards.
	ghost := &fault.Plan{EdgeFaults: []fault.EdgeFault{{From: "hub0", To: "zz", Delay: 10}}}
	if err := tree().EnableFaults(FaultConfig{Plan: ghost}); !errors.Is(err, ErrUnknownEdgeEndpoint) {
		t.Errorf("unknown endpoint err = %v, want ErrUnknownEdgeEndpoint", err)
	}
	// A delay-only edge fault on the flat sharded fabric is legal: the
	// flat fabric has edges (hub0 plus the node names), just one hub.
	flat = NewShardedDispatcher(NewRoundRobin(), Admission{}, ShardConfig{}, fullNode("a"))
	slow := &fault.Plan{EdgeFaults: []fault.EdgeFault{{From: "hub0", To: "a", Delay: 10 * event.Microsecond}}}
	if err := flat.EnableFaults(FaultConfig{Plan: slow}); err != nil {
		t.Errorf("flat delay-only edge fault rejected: %v", err)
	}
}

// TestTreeFlashCrowdDuringFailover: a burst of arrivals lands inside
// the freeze window; the plan-aware spray re-routes them to the live
// region, and nothing is lost.
func TestTreeFlashCrowdDuringFailover(t *testing.T) {
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{MaxRetries: 6, QueueCap: 16},
		ShardConfig{Workers: 4, Hubs: 2, SummaryEvery: 500 * event.Microsecond},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	plan := hubCrashPlan()
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 5 * event.Millisecond}); err != nil {
		t.Fatal(err)
	}
	id := 0
	for ; id < 10; id++ { // steady pre-crash trickle
		if err := d.Submit(mkBatch(id, event.Time(id)*100*event.Microsecond, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for ; id < 30; id++ { // flash crowd inside the freeze window
		if err := d.Submit(mkBatch(id, 2*event.Millisecond, 3)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Run()
	conserved(t, s)
	if s.Completed == 0 {
		t.Fatal("flash-crowd run completed nothing")
	}
	// Every flash-crowd arrival was sprayed at a live hub: region 1 is
	// frozen at 2ms, so region 0 owns all 20 burst submissions.
	r0, r1 := d.regions[0], d.regions[1]
	if r0.submitted < 20 {
		t.Errorf("live region 0 owns %d submissions, want >= 20 (burst re-sprayed)", r0.submitted)
	}
	if r0.submitted+r1.submitted != 30 {
		t.Errorf("regions own %d+%d submissions, want 30", r0.submitted, r1.submitted)
	}
}
