package cluster

import (
	"errors"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/fault"
	"mlimp/internal/isa"
)

// chaosTree mirrors chaosSharded through a hub tree: the same fault
// cascade over a 4-node fleet split into two regions.
func chaosTree(policy Policy, workers int) Summary {
	d := NewShardedDispatcher(policy, Admission{MaxRetries: 6},
		ShardConfig{Workers: workers, Hubs: 2},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	plan := &fault.Plan{
		Seed: 99,
		ArrayFaults: []fault.ArrayFault{
			{Node: "a", Target: isa.SRAM, Fraction: 0.5, At: 500 * event.Microsecond, Recover: 3 * event.Millisecond},
		},
		Crashes: []fault.Crash{
			{Node: "b", At: event.Millisecond, Recover: 4 * event.Millisecond},
			{Node: "c", At: 2 * event.Millisecond},
		},
		ExecErrorProb: 0.15,
	}
	if err := d.EnableFaults(FaultConfig{Plan: plan, Deadline: 50 * event.Millisecond}); err != nil {
		panic(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*200*event.Microsecond, 4)); err != nil {
			panic(err)
		}
	}
	return d.Run()
}

// TestTreeWorkerEquivalence: the determinism contract holds through the
// sub-hub tree — per-region admission, the chaos cascade, and overflow
// machinery must render byte-identically at every worker count and for
// every policy (regional policy clones included).
func TestTreeWorkerEquivalence(t *testing.T) {
	for _, pname := range PolicyNames() {
		var want string
		for _, workers := range []int{1, 2, 4, 8} {
			policy, _ := PolicyByName(pname)
			got := chaosTree(policy, workers).String()
			if workers == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("policy %s: workers=%d diverges from workers=1:\n%s\nvs\n%s",
					pname, workers, got, want)
			}
		}
	}
}

// TestTreeChaosConservation: exactly-once accounting survives regional
// ownership — every batch lands in one terminal state even when its
// region crashes nodes, and per-node facts merge in configuration order.
func TestTreeChaosConservation(t *testing.T) {
	s := chaosTree(NewRoundRobin(), 4)
	conserved(t, s)
	if s.Completed == 0 {
		t.Fatal("tree chaos run completed nothing")
	}
	if len(s.Nodes) != 4 {
		t.Fatalf("summary lists %d nodes, want 4", len(s.Nodes))
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if s.Nodes[i].Name != want {
			t.Errorf("node row %d = %q, want %q (configuration order)", i, s.Nodes[i].Name, want)
		}
	}
	byName := map[string]NodeSummary{}
	for _, ns := range s.Nodes {
		byName[ns.Name] = ns
	}
	if h := byName["c"].Health; h != "down" {
		t.Errorf("killed node c health = %q, want down", h)
	}
	if byName["a"].ArraysLost != 0 {
		t.Errorf("node a still missing %d arrays after recovery", byName["a"].ArraysLost)
	}
}

// TestTreeHubsOneIsFlat: Hubs 1 and 0 both build one region with no
// ring peers, and render identically (TestFlatChaosGolden pins that
// output, window structure included).
func TestTreeHubsOneIsFlat(t *testing.T) {
	run := func(sc ShardConfig) Summary {
		d := NewShardedDispatcher(NewLeastOutstanding(), Admission{}, sc,
			fullNode("a"), fullNode("b"))
		for i := 0; i < 8; i++ {
			if err := d.Submit(mkBatch(i, event.Time(i)*event.Millisecond, 4)); err != nil {
				panic(err)
			}
		}
		if len(d.regions) != 1 || len(d.regions[0].peers) != 0 {
			t.Fatalf("Hubs=%d built %d regions", sc.Hubs, len(d.regions))
		}
		return d.Run()
	}
	flat := run(ShardConfig{Workers: 2}).String()
	one := run(ShardConfig{Workers: 2, Hubs: 1}).String()
	if flat != one {
		t.Fatalf("Hubs=1 diverges from the flat fabric:\n%s\nvs\n%s", flat, one)
	}
}

// TestTreeStealsOverflow: a saturated region forwards its overflow to
// the sibling instead of shedding. Region 0 (one node, queue cap 1)
// receives two simultaneous arrivals; the second must migrate to
// region 1 and complete there.
func TestTreeStealsOverflow(t *testing.T) {
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{QueueCap: 1, MaxRetries: 8},
		ShardConfig{Workers: 2, Hubs: 2, SummaryEvery: event.Millisecond},
		fullNode("a"), fullNode("b"))
	// Spray order: batch 0 -> region 0, batch 1 -> region 1,
	// batch 2 -> region 0 again. All arrive at t=0, so batch 2 finds
	// region 0's only queue slot booked and overflows.
	for i := 0; i < 3; i++ {
		if err := d.Submit(mkBatch(i, 0, 4)); err != nil {
			panic(err)
		}
	}
	s := d.Run()
	conserved(t, s)
	if s.Completed != 3 {
		t.Fatalf("completed %d of 3 (summary %v)", s.Completed, s)
	}
	r0, r1 := d.regions[0], d.regions[1]
	if r0.stolen == 0 {
		t.Errorf("saturated region 0 never forwarded (stolen=%d)", r0.stolen)
	}
	if r1.taken != r0.stolen {
		t.Errorf("forward imbalance: region 0 stole %d, region 1 took %d",
			r0.stolen, r1.taken)
	}
}

// TestTreeTenantMerge: per-tenant counters roll up across regions and
// conservation holds per tenant.
func TestTreeTenantMerge(t *testing.T) {
	d := NewShardedDispatcher(NewRoundRobin(), Admission{},
		ShardConfig{Workers: 2, Hubs: 2},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	tenants := []string{"t0", "t1", "t2"}
	for i := 0; i < 12; i++ {
		b := mkBatch(i, event.Time(i)*event.Millisecond, 2)
		b.Tenant = tenants[i%len(tenants)]
		if err := d.Submit(b); err != nil {
			panic(err)
		}
	}
	s := d.Run()
	conserved(t, s)
	if len(s.Tenants) != len(tenants) {
		t.Fatalf("summary lists %d tenants, want %d", len(s.Tenants), len(tenants))
	}
	for _, ts := range s.Tenants {
		if ts.Submitted != 4 {
			t.Errorf("tenant %s submitted=%d, want 4", ts.Tenant, ts.Submitted)
		}
		if ts.Accounted() != ts.Submitted {
			t.Errorf("tenant %s conservation broken: %+v", ts.Tenant, ts)
		}
	}
}

// TestTreeOnDoneRelay: the terminal-state observer sees every batch
// exactly once, including batches settled by sibling regions (relayed
// to region 0 over the peer edge).
func TestTreeOnDoneRelay(t *testing.T) {
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{},
		ShardConfig{Workers: 4, Hubs: 4},
		fullNode("a"), fullNode("b"), fullNode("c"), fullNode("d"))
	seen := map[int]int{}
	d.OnDone(func(di DoneInfo) { seen[di.Batch.ID]++ })
	const n = 16
	for i := 0; i < n; i++ {
		if err := d.Submit(mkBatch(i, event.Time(i)*500*event.Microsecond, 3)); err != nil {
			panic(err)
		}
	}
	s := d.Run()
	conserved(t, s)
	if len(seen) != n {
		t.Fatalf("observer saw %d distinct batches, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("batch %d observed %d times", id, c)
		}
	}
}

// TestTreeWindowParallelism: the reason the tree exists — on a
// wave-synchronous fleet the regions decouple and the per-window
// active-shard count approaches the fleet size instead of the ~1.4 the
// flat hub managed.
func TestTreeWindowParallelism(t *testing.T) {
	const nodes, waves = 8, 6
	cfgs := make([]NodeConfig, nodes)
	for i := range cfgs {
		cfgs[i] = NodeConfig{Name: "", Targets: isa.Targets}
	}
	d := NewShardedDispatcher(NewLeastOutstanding(), Admission{},
		ShardConfig{Workers: 1, Hubs: nodes, SummaryEvery: 60 * event.Millisecond}, cfgs...)
	id := 0
	for w := 0; w < waves; w++ {
		for n := 0; n < nodes; n++ {
			if err := d.Submit(mkBatch(id, event.Time(w)*60*event.Millisecond, 6)); err != nil {
				panic(err)
			}
			id++
		}
	}
	s := d.Run()
	if s.Completed != id {
		t.Fatalf("completed %d of %d", s.Completed, id)
	}
	st := d.WindowStats()
	if avg := st.AvgActive(); avg < 6 {
		t.Errorf("tree avg-active %.2f, want >= 6 (stats %v)", avg, st)
	}
}

// TestValidateTopology: the named-error contract the CLI flags rely on.
func TestValidateTopology(t *testing.T) {
	cases := []struct {
		hubs, fanout, nodes int
		wantErr             error
		wantHubs, wantFan   int
	}{
		{0, 0, 8, nil, 1, 8},
		{1, 0, 8, nil, 1, 8},
		{4, 0, 8, nil, 4, 2},
		{4, 2, 8, nil, 4, 2},
		{8, 1, 8, nil, 8, 1},
		{-1, 0, 8, ErrBadHubs, 0, 0},
		{2, -3, 8, ErrBadHubFanout, 0, 0},
		{3, 0, 8, ErrTopologyMismatch, 0, 0},
		{16, 0, 8, ErrTopologyMismatch, 0, 0},
		{4, 3, 8, ErrTopologyMismatch, 0, 0},
	}
	for _, c := range cases {
		hubs, fan, err := ValidateTopology(c.hubs, c.fanout, c.nodes)
		if c.wantErr != nil {
			if !errors.Is(err, c.wantErr) {
				t.Errorf("ValidateTopology(%d,%d,%d) err = %v, want %v", c.hubs, c.fanout, c.nodes, err, c.wantErr)
			}
			continue
		}
		if err != nil || hubs != c.wantHubs || fan != c.wantFan {
			t.Errorf("ValidateTopology(%d,%d,%d) = (%d,%d,%v), want (%d,%d,nil)",
				c.hubs, c.fanout, c.nodes, hubs, fan, err, c.wantHubs, c.wantFan)
		}
	}
}
