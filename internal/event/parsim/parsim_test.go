package parsim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"mlimp/internal/event"
)

const hop = 10 * event.Microsecond

// trace records (shard, at, label) triples in execution order per shard;
// per-shard traces are the observable artefact two runs must agree on.
type trace struct {
	perShard [][]string
}

func (tr *trace) log(shard int, at event.Time, label string) {
	tr.perShard[shard] = append(tr.perShard[shard], fmt.Sprintf("%d@%d:%s", shard, at, label))
}

// buildPingPong wires nShards spokes around shard 0 as a hub: every
// spoke fires rounds of local events and sends acks to the hub, the hub
// replies, bounded by depth. Returns the driver and the trace.
func buildPingPong(nShards, depth, workers int) (*Driver, *trace) {
	d := NewDriver(hop, workers)
	tr := &trace{perShard: make([][]string, nShards)}
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = d.AddShard()
	}
	hub := shards[0]
	var pong func(spoke int, round int) func()
	pong = func(spoke, round int) func() {
		return func() {
			tr.log(0, hub.Engine().Now(), fmt.Sprintf("pong-%d-%d", spoke, round))
			if round < depth {
				sp := shards[spoke]
				hub.SendAfter(sp, hop, func() {
					tr.log(spoke, sp.Engine().Now(), fmt.Sprintf("ping-%d", round+1))
					sp.SendAfter(hub, hop, pong(spoke, round+1))
				})
			}
		}
	}
	for i := 1; i < nShards; i++ {
		i := i
		sp := shards[i]
		// Stagger local start times so windows overlap several shards.
		sp.Engine().At(event.Time(i)*event.Microsecond, func() {
			tr.log(i, sp.Engine().Now(), "start")
			sp.SendAfter(hub, hop, pong(i, 0))
		})
	}
	return d, tr
}

func TestWorkerCountEquivalence(t *testing.T) {
	var want [][]string
	var wantStats Stats
	for _, workers := range []int{1, 2, 4, 8} {
		d, tr := buildPingPong(9, 12, workers)
		d.Run()
		if want == nil {
			want = tr.perShard
			wantStats = d.Stats()
			if wantStats.Windows == 0 || wantStats.MaxActive < 2 || wantStats.AvgActive() <= 1 {
				t.Fatalf("ping-pong exposed no parallelism: %+v", wantStats)
			}
			continue
		}
		if !reflect.DeepEqual(tr.perShard, want) {
			t.Fatalf("workers=%d trace diverges from workers=1", workers)
		}
		// Window structure is a property of the simulation, not the
		// worker count.
		if !reflect.DeepEqual(d.Stats(), wantStats) {
			t.Fatalf("workers=%d window stats %+v diverge from %+v", workers, d.Stats(), wantStats)
		}
	}
}

// TestDeliveryOrderAtTies sends messages from several shards that all
// arrive at the hub at the same instant; the canonical merge must order
// them by source shard regardless of worker count.
func TestDeliveryOrderAtTies(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d := NewDriver(hop, workers)
		hub := d.AddShard()
		var order []int
		const n = 6
		for i := 1; i <= n; i++ {
			i := i
			sp := d.AddShard()
			// All spokes execute at t=0 and send for delivery at exactly hop.
			sp.Engine().At(0, func() {
				sp.Send(hub, hop, func() { order = append(order, i) })
			})
		}
		d.Run()
		if len(order) != n {
			t.Fatalf("workers=%d: delivered %d of %d", workers, len(order), n)
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("workers=%d: deliveries out of shard order: %v", workers, order)
			}
		}
	}
}

// TestPerPairFIFO checks that two messages from one shard to another at
// the same delivery time run in send order.
func TestPerPairFIFO(t *testing.T) {
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	var got []string
	a.Engine().At(0, func() {
		a.Send(b, hop, func() { got = append(got, "first") })
		a.Send(b, hop, func() { got = append(got, "second") })
	})
	d.Run()
	if want := []string{"first", "second"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSetupSendsDeliveredWithoutLocalEvents(t *testing.T) {
	d := NewDriver(hop, 2)
	a, b := d.AddShard(), d.AddShard()
	fired := false
	a.Send(b, hop, func() { fired = true })
	end := d.Run()
	if !fired {
		t.Fatal("setup-time Send never delivered")
	}
	if end != hop {
		t.Fatalf("end time %d, want %d", end, hop)
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	a.Engine().At(hop, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the lookahead window did not panic")
			}
		}()
		a.Send(b, a.Engine().Now()+hop-1, func() {})
	})
	d.Run()
}

func TestRunTwicePanics(t *testing.T) {
	d := NewDriver(hop, 1)
	d.AddShard()
	d.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	d.Run()
}

func TestEmptyRun(t *testing.T) {
	d := NewDriver(hop, 4)
	for i := 0; i < 3; i++ {
		d.AddShard()
	}
	if end := d.Run(); end != 0 {
		t.Fatalf("empty run ended at %d", end)
	}
}

// TestZeroLookaheadRejected: a non-positive lookahead would make every
// window empty-width; the constructor must reject it outright.
func TestZeroLookaheadRejected(t *testing.T) {
	for _, la := range []event.Time{0, -hop} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lookahead %d accepted", la)
				}
			}()
			NewDriver(la, 1)
		}()
	}
}

// TestSingleShardMatchesSerialEngine runs the same event program on a
// bare event.Engine and on a one-shard driver: execution order, times,
// and the final clock must be byte-identical — the degenerate fleet is
// the serial engine.
func TestSingleShardMatchesSerialEngine(t *testing.T) {
	program := func(eng *event.Engine, log *[]string) {
		var tick func(round int) func()
		tick = func(round int) func() {
			return func() {
				*log = append(*log, fmt.Sprintf("%d@%d", round, eng.Now()))
				if round < 40 {
					eng.After(event.Time(round%7+1)*event.Microsecond, tick(round+1))
					if round%3 == 0 {
						eng.At(eng.Now(), func() {
							*log = append(*log, fmt.Sprintf("tie-%d@%d", round, eng.Now()))
						})
					}
				}
			}
		}
		eng.At(0, tick(0))
	}

	var serial []string
	ref := &event.Engine{}
	program(ref, &serial)
	ref.Run()

	var sharded []string
	d := NewDriver(hop, 4)
	s := d.AddShard()
	program(s.Engine(), &sharded)
	end := d.Run()

	if !reflect.DeepEqual(sharded, serial) {
		t.Fatalf("single-shard trace diverges from serial engine:\n%v\n%v", sharded, serial)
	}
	if end != ref.Now() {
		t.Fatalf("single-shard end %d, serial engine end %d", end, ref.Now())
	}
}

// TestThreeWayFanInTies: three source shards send to one destination so
// every message lands at the same instant, with same-(at,src) pairs
// disambiguated by send sequence. The canonical (at, src, seq) merge
// must produce the same total order at any worker count.
func TestThreeWayFanInTies(t *testing.T) {
	var want []string
	for _, workers := range []int{1, 2, 4} {
		d := NewDriver(hop, workers)
		dst := d.AddShard()
		srcs := []*Shard{d.AddShard(), d.AddShard(), d.AddShard()}
		var got []string
		// Reverse shard order to prove arrival order is canonical, not
		// send-call order; two messages per source at one instant probe
		// the (at, src) -> seq tie-break.
		for i := len(srcs) - 1; i >= 0; i-- {
			i := i
			sp := srcs[i]
			sp.Engine().At(0, func() {
				sp.Send(dst, hop, func() { got = append(got, fmt.Sprintf("s%d-a", i)) })
				sp.Send(dst, hop, func() { got = append(got, fmt.Sprintf("s%d-b", i)) })
			})
		}
		d.Run()
		if want == nil {
			want = got
			exp := []string{"s0-a", "s0-b", "s1-a", "s1-b", "s2-a", "s2-b"}
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("merge order %v, want %v", got, exp)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d fan-in order %v diverges from %v", workers, got, want)
		}
	}
}

// buildHierarchy wires a two-level hub tree on declared edges: regions
// of spokes around regional hubs, hop-latency dispatch edges within a
// region, and a slow beacon grid between hub peers. Spokes run dense
// local work; hubs exchange summaries each beacon.
func buildHierarchy(regions, spokesPer, rounds, workers int) (*Driver, *trace) {
	const beacon = 50 * hop
	d := NewDriver(hop, workers)
	n := regions * (1 + spokesPer)
	tr := &trace{perShard: make([][]string, n)}
	hubs := make([]*Shard, regions)
	for r := 0; r < regions; r++ {
		hubs[r] = d.AddShard()
		for k := 0; k < spokesPer; k++ {
			sp := d.AddShard()
			d.SetEdge(hubs[r], sp, EdgeLatency{Fixed: hop})
			d.SetEdge(sp, hubs[r], EdgeLatency{Fixed: hop})
			spoke := sp
			var ping func(round int) func()
			ping = func(round int) func() {
				return func() {
					tr.log(spoke.id, spoke.Engine().Now(), fmt.Sprintf("ping-%d", round))
					if round < rounds {
						spoke.SendAfter(hubs[r], hop, func() {
							hub := hubs[r]
							tr.log(hub.id, hub.Engine().Now(), fmt.Sprintf("ack-%d-%d", spoke.id, round))
							hub.SendAfter(spoke, hop, ping(round+1))
						})
					}
				}
			}
			sp.Engine().At(event.Time(k+1)*event.Microsecond, ping(0))
		}
	}
	for _, a := range hubs {
		for _, b := range hubs {
			if a != b {
				d.SetEdge(a, b, EdgeLatency{Fixed: hop, Grid: beacon})
			}
		}
	}
	// Each hub beacons a summary to every peer a few times.
	for i, h := range hubs {
		i, h := i, h
		var tick func(k int) func()
		tick = func(k int) func() {
			return func() {
				for j, peer := range hubs {
					if peer == h {
						continue
					}
					j := j
					h.Send(peer, h.EarliestTo(peer), func() {
						tr.log(peer.id, peer.Engine().Now(), fmt.Sprintf("belief-%d", i))
					})
					_ = j
				}
				if k < 4 {
					h.Engine().After(beacon, tick(k+1))
				}
			}
		}
		h.Engine().At(beacon, tick(0))
	}
	return d, tr
}

// TestHorizonWorkerEquivalence: declared-edge mode must stay byte-
// identical across worker counts, stats included.
func TestHorizonWorkerEquivalence(t *testing.T) {
	var want [][]string
	var wantStats Stats
	for _, workers := range []int{1, 2, 4, 8} {
		d, tr := buildHierarchy(4, 3, 20, workers)
		d.Run()
		if want == nil {
			want, wantStats = tr.perShard, d.Stats()
			continue
		}
		if !reflect.DeepEqual(tr.perShard, want) {
			t.Fatalf("workers=%d hierarchy trace diverges from workers=1", workers)
		}
		if !reflect.DeepEqual(d.Stats(), wantStats) {
			t.Fatalf("workers=%d stats %v diverge from %v", workers, d.Stats(), wantStats)
		}
	}
}

// TestHorizonBeatsUniformWindows: the point of declared edges — spokes
// in different regions only interact through the slow beacon grid, so
// horizon mode must pack far more shards per window than hop-wide
// uniform windows would.
func TestHorizonBeatsUniformWindows(t *testing.T) {
	d, _ := buildHierarchy(4, 3, 20, 1)
	d.Run()
	st := d.Stats()
	if st.AvgActive() < 4 {
		t.Fatalf("hierarchy avg-active %.2f, want >= 4 (stats %v)", st.AvgActive(), st)
	}
	if len(st.Hist) == 0 {
		t.Fatalf("stats histogram missing: %v", st)
	}
	sum := 0
	for _, n := range st.Hist {
		sum += n
	}
	if sum != st.Windows {
		t.Fatalf("histogram sums to %d, want %d windows", sum, st.Windows)
	}
}

// TestUndeclaredEdgeSendPanics: once any edge is declared, messages may
// only flow on declared pairs.
func TestUndeclaredEdgeSendPanics(t *testing.T) {
	d := NewDriver(hop, 1)
	a, b, c := d.AddShard(), d.AddShard(), d.AddShard()
	d.SetEdge(a, b, EdgeLatency{Fixed: hop})
	a.Engine().At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send on undeclared edge did not panic")
			}
		}()
		a.Send(c, a.Engine().Now()+hop, func() {})
	})
	d.Run()
}

// TestGridEdgeBoundsDepartures: a beacon-grid edge quantises departures;
// sends before the grid instant arrive exactly Fixed after the grid
// tick, and sends exactly on the grid depart immediately.
func TestGridEdgeBoundsDepartures(t *testing.T) {
	const grid = 10 * hop
	d := NewDriver(hop, 1)
	a, b := d.AddShard(), d.AddShard()
	d.SetEdge(a, b, EdgeLatency{Fixed: hop, Grid: grid})
	var arrivals []event.Time
	a.Engine().At(3*event.Microsecond, func() { // off-grid
		a.Send(b, a.EarliestTo(b), func() { arrivals = append(arrivals, b.Engine().Now()) })
	})
	a.Engine().At(grid, func() { // exactly on-grid
		a.Send(b, a.EarliestTo(b), func() { arrivals = append(arrivals, b.Engine().Now()) })
	})
	d.Run()
	want := []event.Time{grid + hop, grid + hop}
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("beacon arrivals %v, want %v", arrivals, want)
	}
}

// TestParallelStress hammers the pool under -race: many shards, many
// rounds, counters verified against the closed-form total.
func TestParallelStress(t *testing.T) {
	const nShards, rounds = 16, 200
	d := NewDriver(hop, 8)
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = d.AddShard()
	}
	var fired atomic.Int64
	// nShards tokens circulate a ring; every hop fires one event on the
	// shard holding the token.
	var relay func(at *Shard, r int) func()
	relay = func(at *Shard, r int) func() {
		return func() {
			fired.Add(1)
			if r < rounds {
				next := shards[(at.id+1)%nShards]
				at.SendAfter(next, hop, relay(next, r+1))
			}
		}
	}
	for _, s := range shards {
		s.Engine().At(0, relay(s, 0))
	}
	d.Run()
	want := int64(nShards * (rounds + 1))
	if got := fired.Load(); got != want {
		t.Fatalf("fired %d events, want %d", got, want)
	}
}

// TestRunJoinsWorkers: Run must not return while its worker pool is
// still alive. The goroutine count is read the instant Run returns,
// without yielding. A worker that has signalled its exit may still need
// a few hundred nanoseconds to be torn down — an OS preemption in that
// gap is the only way a joined pool can show — so the check runs 20
// times and tolerates a minority of such readings; an unjoined pool is
// still alive at every one.
func TestRunJoinsWorkers(t *testing.T) {
	const runs = 20
	leaked := 0
	for r := 0; r < runs; r++ {
		d := NewDriver(hop, 4)
		for i := 0; i < 8; i++ {
			s := d.AddShard()
			for k := 0; k < 4; k++ {
				s.Engine().At(event.Time(k)*hop, func() {})
			}
		}
		before := runtime.NumGoroutine()
		d.Run()
		if runtime.NumGoroutine() > before {
			leaked++
		}
	}
	if leaked >= runs/2 {
		t.Fatalf("goroutines outlived Run in %d of %d runs (worker pool not joined)", leaked, runs)
	}
}
