// Package parsim parallelises the deterministic event engine across
// shards: a conservative parallel discrete-event simulation (PDES)
// driver in the Chandy–Misra tradition, specialised to the fixed-
// lookahead case. Each shard owns a private event.Engine; the driver
// advances all shards through a sequence of simulation windows
// [T, T+lookahead), where T is the globally earliest pending event and
// the lookahead is the minimum latency of any cross-shard interaction
// (the dispatch/network hop of internal/cluster, bounded below by the
// DDR4 round trip of internal/mainmem). Within a window the shards are
// causally independent — any event a shard executes at time t can only
// influence another shard at t+lookahead or later, which is strictly
// beyond the window — so the shards may run concurrently without any
// locking of simulation state.
//
// Cross-shard events travel through per-(src,dst) SPSC mailboxes: only
// the source shard's executing goroutine appends, and only the driver
// drains, at the window barrier, on one goroutine. Determinism is a
// contract, not an accident: at every barrier the driver merges each
// destination's incoming messages in (at, src shard, per-pair sequence)
// order before inserting them into the destination engine, which gives
// every message a canonical position in the destination's (at, seq)
// total order. The merged order depends only on simulated time and
// shard topology — never on OS scheduling — so a run with 1 worker and
// a run with N workers execute byte-identical event sequences. The
// per-pair sequence numbers realise the "global seq ranges per shard
// per window" tie-break: within one delivery timestamp, messages order
// by source shard ID, then by the order the source sent them.
// Uniform lookahead is the right model when every shard pair is one
// network hop apart — the flat hub fabric. Hierarchical fabrics have
// structured latencies: dispatch edges are prompt (one hop), while
// summarised state flows upward on a beacon grid (a sub-hub only emits
// load beliefs at multiples of a summary period). Declaring those edges
// (SetEdge) switches the driver to per-shard conservative horizons: at
// each barrier it computes, per shard, the earliest instant any other
// shard could possibly influence it — the fixpoint of earliest-event
// propagation over the declared edge latencies — and lets every shard
// run to its own horizon. Events that are minutes of simulated time
// apart on shards that only talk through a slow beacon edge then
// execute in one window instead of serialising into hop-wide slices.
package parsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"mlimp/internal/event"
)

// message is one cross-shard event in flight.
type message struct {
	at  event.Time
	src int    // sending shard ID
	seq uint64 // per-(src,dst) send counter
	fn  func()
}

// inf is the horizon of a shard nothing can influence.
const inf = event.Time(math.MaxInt64)

// EdgeLatency describes the minimum delivery latency of one directed
// shard edge. Fixed must be positive: it is the network latency every
// message pays, and the strict time advance the conservative horizon
// computation needs for progress. A positive Grid additionally
// quantises departures to a beacon schedule: a message sent at t leaves
// at the next multiple of Grid (inclusive — a send exactly on the grid
// departs immediately) and arrives Fixed later. Grid edges model
// summarised-state channels — belief uplinks that batch everything
// since the last beacon — and are what lets the horizon computation
// prove two shards independent for a whole beacon period at a time.
type EdgeLatency struct {
	Fixed event.Time
	Grid  event.Time
}

// arrival returns the earliest instant a message sent at t can be
// delivered over this edge. Monotone in t, and strictly greater than t
// (Fixed > 0), which the horizon fixpoint relies on.
func (l EdgeLatency) arrival(t event.Time) event.Time {
	if l.Grid > 0 {
		if r := t % l.Grid; r != 0 {
			t += l.Grid - r
		}
	}
	return t + l.Fixed
}

// edge is one declared directed edge.
type edge struct {
	src, dst int
	lat      EdgeLatency
}

// EdgeFault is one deterministic fault window on a directed shard edge:
// messages departing inside [At, Until) are dropped with probability
// DropProb, and survivors arrive Delay later than they would have. The
// drop coin is a pure hash of (Seed, src, dst, per-pair sequence) — all
// simulated facts — so the same fault schedule drops the same messages
// at every worker count. Both degradations are conservative with
// respect to the horizon computation: a dropped message removes an
// arrival the fixpoint already budgeted for, and a delayed one arrives
// strictly after its edge bound, so window safety is never violated.
type EdgeFault struct {
	At, Until event.Time // fault window; Until 0 = rest of the run
	DropProb  float64
	Delay     event.Time
	Seed      int64
}

// active reports whether the window covers departure instant t.
func (f EdgeFault) active(t event.Time) bool {
	return t >= f.At && (f.Until == 0 || t < f.Until)
}

// splitmix64 is the SplitMix64 finaliser — the same well-mixed integer
// hash internal/fault uses for its exec-error coin, duplicated here so
// the generic simulation layer stays free of fault-model imports.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// edgeCoin draws the uniform [0,1) drop coin for one send attempt.
func edgeCoin(seed int64, src, dst int, seq uint64) float64 {
	h := splitmix64(uint64(seed) ^ uint64(uint32(src))<<48 ^ uint64(uint32(dst))<<32 ^ seq)
	return float64(h>>11) / float64(1<<53)
}

// Shard is one partition of the simulation: a private engine plus the
// outboxes feeding every other shard. A shard's engine may only be
// touched by the goroutine currently executing that shard's window (or
// by anyone between Run calls / before Run).
type Shard struct {
	id    int
	drv   *Driver
	eng   *event.Engine
	out   [][]message // outboxes indexed by destination shard ID
	seq   []uint64    // per-destination send counters
	limit event.Time  // this window's execution horizon (driver-owned)

	// Edge-fault tallies, owned by whichever goroutine executes this
	// shard's window (like eng); summed into Stats at the end of Run.
	dropped int
	delayed int
}

// ID returns the shard's index in driver order.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's private engine. Before Run, callers seed
// initial events directly here (arrival streams, fault plans); during
// Run, only events executing on this shard may touch it.
func (s *Shard) Engine() *event.Engine { return s.eng }

// Send schedules fn on dst's engine at absolute time at. It must be
// called from an event executing on s (or before Run), and at must
// respect the conservative lookahead contract: at >= s.Engine().Now() +
// lookahead. Violating the contract would let a window's output land
// inside the same window on another shard — the causality error
// conservative PDES exists to prevent — so it panics.
func (s *Shard) Send(dst *Shard, at event.Time, fn func()) {
	s.send(dst, at, fn, false)
}

// SendReliable is Send over a retransmitting transport: edge faults on
// the pair still delay the message, but can never drop it. Use it for
// messages whose loss would break a conservation law the simulation is
// supposed to prove — ownership transfers, completion relays — and
// plain Send for everything a timeout or the next beacon re-covers.
func (s *Shard) SendReliable(dst *Shard, at event.Time, fn func()) {
	s.send(dst, at, fn, true)
}

func (s *Shard) send(dst *Shard, at event.Time, fn func(), reliable bool) {
	if s.drv != dst.drv {
		panic("parsim: send across drivers")
	}
	if min := s.EarliestTo(dst); at < min {
		panic(fmt.Sprintf("parsim: send %d->%d at %d violates edge bound %d from now %d",
			s.id, dst.id, at, min, s.eng.Now()))
	}
	if dst.id >= len(s.out) {
		s.growRows(len(s.drv.shards))
	}
	// The sequence advances per attempt, dropped or not: it feeds the
	// drop coin, so consecutive attempts must draw independently, and
	// gaps in delivered sequences are harmless to the barrier merge.
	s.seq[dst.id]++
	if s.drv.faults != nil {
		if fs := s.drv.faults[[2]int{s.id, dst.id}]; len(fs) != 0 {
			now := s.eng.Now()
			for _, f := range fs {
				if !f.active(now) {
					continue
				}
				if !reliable && f.DropProb > 0 &&
					edgeCoin(f.Seed, s.id, dst.id, s.seq[dst.id]) < f.DropProb {
					s.dropped++
					return
				}
				if f.Delay > 0 {
					at += f.Delay
					s.delayed++
				}
			}
		}
	}
	s.out[dst.id] = append(s.out[dst.id], message{at: at, src: s.id, seq: s.seq[dst.id], fn: fn})
}

// growRows widens the outbox and sequence rows to n destinations,
// preserving anything already queued (setup-time sends land before Run
// sizes the rows for the final fleet).
func (s *Shard) growRows(n int) {
	out := make([][]message, n)
	copy(out, s.out)
	s.out = out
	seq := make([]uint64, n)
	copy(seq, s.seq)
	s.seq = seq
}

// SendAfter schedules fn on dst d after the sending shard's current
// time. d must be at least the driver's lookahead.
func (s *Shard) SendAfter(dst *Shard, d event.Time, fn func()) {
	s.Send(dst, s.eng.Now()+d, fn)
}

// EarliestTo returns the earliest timestamp a message from s may carry
// to dst right now — the Send contract. With declared edges this is the
// edge's arrival bound (and sending on an undeclared pair panics: the
// horizon computation proved shards independent assuming messages only
// flow on declared edges); otherwise it is now + the uniform lookahead.
func (s *Shard) EarliestTo(dst *Shard) event.Time {
	if !s.drv.horizons {
		return s.eng.Now() + s.drv.lookahead
	}
	if s.id < len(s.drv.edgeOut) {
		for _, e := range s.drv.edgeOut[s.id] {
			if e.dst == dst.id {
				return e.lat.arrival(s.eng.Now())
			}
		}
	}
	panic(fmt.Sprintf("parsim: no edge declared from shard %d to %d", s.id, dst.id))
}

// Driver owns the shards and advances them window by window.
type Driver struct {
	lookahead event.Time
	workers   int
	shards    []*Shard
	ran       bool
	stats     Stats

	// Declared-edge state (horizon mode). edgeOut indexes edges by
	// source shard; next/bound/horizon are the per-barrier fixpoint
	// scratch, allocated once at Run.
	horizons bool
	edges    []edge
	edgeOut  [][]edge
	next     []event.Time
	bound    []event.Time
	horizon  []event.Time

	// faults maps directed (src, dst) shard pairs to their fault
	// windows. nil when no faults are scheduled, which keeps the send
	// fast path a single pointer test.
	faults map[[2]int][]EdgeFault

	// Window state shared with the worker pool. Each shard's limit is
	// written by the driver goroutine before the shard is handed to a
	// worker; the channel send/receive pair orders the write before
	// every read.
	work chan *Shard
	wg   sync.WaitGroup // window tasks in flight
	pool sync.WaitGroup // live workers; Run joins them before returning

	// mergeBuf is the barrier's reusable merge scratch: deliver gathers
	// every destination's incoming messages here, sorts, inserts, and
	// hands the capacity back for the next barrier. Only the driver
	// goroutine touches it.
	mergeBuf []message
}

// NewDriver returns a driver that advances shards in windows of the
// given lookahead using the given number of workers. workers <= 1 runs
// every window on the calling goroutine — the serial fallback, which
// executes the exact same canonical event order with zero goroutines.
func NewDriver(lookahead event.Time, workers int) *Driver {
	if lookahead <= 0 {
		panic("parsim: lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	return &Driver{lookahead: lookahead, workers: workers}
}

// Stats describes a finished run's window structure — the driver-level
// evidence of how much concurrency the simulation exposed. AvgActive is
// the mean number of shards runnable per window: the available
// parallelism, and (clamped by the worker count and host cores) the
// wall-clock speedup bound. It is a property of the simulation, not the
// host, so it is byte-identical across worker counts.
type Stats struct {
	Windows   int // barriers executed
	MaxActive int // most shards runnable in one window
	// Hist is the per-window active-shard histogram: Hist[k] counts the
	// windows in which exactly k shards were runnable (index 0 unused).
	// The mean hides bimodal runs — a fleet that alternates all-shards
	// windows with long strings of hub-only windows averages respectably
	// while the workers idle most barriers; the histogram makes those
	// hub-bound windows visible.
	Hist      []int
	activeSum int
	// Dropped and Delayed count messages degraded by edge faults over
	// the whole run (zero — and unrendered — without faults).
	Dropped int
	Delayed int
}

// AvgActive returns the mean runnable shards per window.
func (s Stats) AvgActive() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.activeSum) / float64(s.Windows)
}

// String renders the window structure compactly, histogram included:
// "windows=42 avg-active=3.20 max=8 hist[1]=12 hist[8]=30" (zero
// buckets elided).
func (s Stats) String() string {
	out := fmt.Sprintf("windows=%d avg-active=%.2f max=%d", s.Windows, s.AvgActive(), s.MaxActive)
	for k, n := range s.Hist {
		if n > 0 {
			out += fmt.Sprintf(" hist[%d]=%d", k, n)
		}
	}
	if s.Dropped > 0 || s.Delayed > 0 {
		out += fmt.Sprintf(" dropped=%d delayed=%d", s.Dropped, s.Delayed)
	}
	return out
}

// record tallies one window with the given active-shard count.
func (d *Driver) record(active int) {
	d.stats.Windows++
	d.stats.activeSum += active
	if active > d.stats.MaxActive {
		d.stats.MaxActive = active
	}
	if d.stats.Hist == nil {
		d.stats.Hist = make([]int, len(d.shards)+1)
	}
	d.stats.Hist[active]++
}

// Stats returns the run's window statistics (zero before Run).
func (d *Driver) Stats() Stats { return d.stats }

// Lookahead returns the window width.
func (d *Driver) Lookahead() event.Time { return d.lookahead }

// Workers returns the configured worker count.
func (d *Driver) Workers() int { return d.workers }

// AddShard creates a new shard. All shards must be added before Run.
func (d *Driver) AddShard() *Shard {
	if d.ran {
		panic("parsim: AddShard after Run")
	}
	s := &Shard{id: len(d.shards), drv: d, eng: &event.Engine{}}
	d.shards = append(d.shards, s)
	// Outbox and sequence rows are sized once in Run, when the fleet is
	// final — growing them per AddShard is quadratic in shard count and
	// lands on the hot path of callers that build a fabric per run.
	return s
}

// SetEdge declares a directed communication edge with its latency class
// and switches the driver to per-shard conservative horizons. Once any
// edge is declared, messages may only flow on declared edges — the
// horizon computation's independence proofs assume exactly that — and
// every edge used by the simulation must be declared before Run.
// Declaring the same (src, dst) pair again replaces its latency.
func (d *Driver) SetEdge(src, dst *Shard, lat EdgeLatency) {
	if d.ran {
		panic("parsim: SetEdge after Run")
	}
	if src.drv != d || dst.drv != d {
		panic("parsim: SetEdge with foreign shard")
	}
	if src == dst {
		panic("parsim: self edges are implicit (a shard always reaches itself)")
	}
	if lat.Fixed <= 0 {
		panic("parsim: edge Fixed latency must be positive")
	}
	if lat.Grid < 0 {
		panic("parsim: negative edge Grid")
	}
	d.horizons = true
	// Callers that build a fabric per run (the cluster benches construct
	// a fresh dispatcher every iteration) pay SetEdge on the hot path,
	// so the per-source adjacency is maintained incrementally rather
	// than rebuilt per call.
	for len(d.edgeOut) < len(d.shards) {
		d.edgeOut = append(d.edgeOut, nil)
	}
	e := edge{src: src.id, dst: dst.id, lat: lat}
	for i := range d.edges {
		if d.edges[i].src == src.id && d.edges[i].dst == dst.id {
			d.edges[i].lat = lat
			for j := range d.edgeOut[src.id] {
				if d.edgeOut[src.id][j].dst == dst.id {
					d.edgeOut[src.id][j].lat = lat
				}
			}
			return
		}
	}
	d.edges = append(d.edges, e)
	d.edgeOut[src.id] = append(d.edgeOut[src.id], e)
}

// AddEdgeFault schedules a fault window on the directed pair src->dst.
// Multiple windows on one pair stack: a departure inside several
// windows draws each drop coin and accumulates each delay. Must be
// called before Run.
func (d *Driver) AddEdgeFault(src, dst *Shard, f EdgeFault) {
	if d.ran {
		panic("parsim: AddEdgeFault after Run")
	}
	if src.drv != d || dst.drv != d {
		panic("parsim: AddEdgeFault with foreign shard")
	}
	if src == dst {
		panic("parsim: AddEdgeFault on a self edge")
	}
	if !(f.DropProb >= 0 && f.DropProb <= 1) || f.Delay < 0 { // NaN fails too
		panic("parsim: AddEdgeFault with bad drop probability or delay")
	}
	if f.DropProb == 0 && f.Delay == 0 {
		panic("parsim: AddEdgeFault that injects nothing (drop=0 delay=0)")
	}
	if d.faults == nil {
		d.faults = map[[2]int][]EdgeFault{}
	}
	k := [2]int{src.id, dst.id}
	d.faults[k] = append(d.faults[k], f)
}

// Run drains every shard: windows open at the globally earliest pending
// event and close lookahead later; active shards execute concurrently
// (up to the worker count); the barrier then merges mailboxes in
// canonical order. It returns the latest shard time once no events or
// in-flight messages remain. Run may be called once.
func (d *Driver) Run() event.Time {
	if d.ran {
		panic("parsim: Run called twice")
	}
	d.ran = true
	for _, s := range d.shards {
		if len(s.out) < len(d.shards) {
			s.growRows(len(d.shards))
		}
	}
	if d.workers > 1 {
		d.startPool()
		defer d.stopPool()
	}
	if d.horizons {
		d.runHorizons()
	} else {
		d.runUniform()
	}
	var end event.Time
	for _, s := range d.shards {
		if now := s.eng.Now(); now > end {
			end = now
		}
		d.stats.Dropped += s.dropped
		d.stats.Delayed += s.delayed
	}
	return end
}

// runUniform is the flat-fabric window loop: every window opens at the
// globally earliest pending event and closes a uniform lookahead later.
func (d *Driver) runUniform() {
	active := make([]*Shard, 0, len(d.shards))
	for {
		// Flush mailboxes first: this is the barrier after the previous
		// window, and it also delivers messages seeded before Run.
		d.deliver()
		next, any := event.Time(0), false
		for _, s := range d.shards {
			if t, ok := s.eng.NextAt(); ok && (!any || t < next) {
				next, any = t, true
			}
		}
		if !any {
			break
		}
		deadline := next + d.lookahead - 1
		active = active[:0]
		for _, s := range d.shards {
			if t, ok := s.eng.NextAt(); ok && t <= deadline {
				s.limit = deadline
				active = append(active, s)
			}
		}
		d.record(len(active))
		d.runWindow(active)
	}
}

// runHorizons is the declared-edge window loop. Each barrier computes,
// per shard, a conservative horizon — the earliest instant any message
// could still reach it — and lets every shard execute all events
// strictly before its own horizon. The horizon is the fixpoint of
// earliest-event propagation: starting from each shard's next pending
// event time, relax every declared edge (earliest possible event on the
// source implies a possible arrival on the destination) until stable;
// a shard's horizon is then the min arrival over its incoming edges.
// Because every edge advances time by at least its positive Fixed
// latency, the fixpoint is the min over simple paths and converges in
// at most len(shards) passes, and the shard holding the globally
// earliest event always clears its own horizon — progress is
// guaranteed. All inputs are simulated-time facts, so the window
// structure (and Stats) is byte-identical at every worker count.
func (d *Driver) runHorizons() {
	n := len(d.shards)
	d.next = make([]event.Time, n)
	d.bound = make([]event.Time, n)
	d.horizon = make([]event.Time, n)
	active := make([]*Shard, 0, n)
	for {
		d.deliver()
		any := false
		for i, s := range d.shards {
			if t, ok := s.eng.NextAt(); ok {
				d.next[i], d.bound[i] = t, t
				any = true
			} else {
				d.next[i], d.bound[i] = inf, inf
			}
		}
		if !any {
			break
		}
		// Fixpoint: bound[v] = min(next[v], min over edges u->v of
		// arrival(bound[u])) — the earliest instant any event could
		// possibly occur on v, own or induced.
		for pass := 0; pass < n; pass++ {
			changed := false
			for _, e := range d.edges {
				if d.bound[e.src] == inf {
					continue
				}
				if a := e.lat.arrival(d.bound[e.src]); a < d.bound[e.dst] {
					d.bound[e.dst] = a
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		// Horizon[v]: the earliest possible *external* influence on v.
		// Events strictly before it are causally independent of every
		// other shard and safe to execute now.
		for i := range d.horizon {
			d.horizon[i] = inf
		}
		for _, e := range d.edges {
			if d.bound[e.src] == inf {
				continue
			}
			if a := e.lat.arrival(d.bound[e.src]); a < d.horizon[e.dst] {
				d.horizon[e.dst] = a
			}
		}
		active = active[:0]
		for i, s := range d.shards {
			if d.next[i] < d.horizon[i] {
				s.limit = d.horizon[i] - 1 // runShard's bound is inclusive
				active = append(active, s)
			}
		}
		d.record(len(active))
		d.runWindow(active)
	}
}

// runWindow executes every active shard up to its own limit (set by the
// window loop just before the call). Windows with one active shard skip
// the pool: handing a lone shard to a worker would buy no overlap and
// cost two channel hops.
func (d *Driver) runWindow(active []*Shard) {
	if d.workers == 1 || len(active) == 1 {
		for _, s := range active {
			runShard(s.eng, s.limit)
		}
		return
	}
	d.wg.Add(len(active))
	for _, s := range active {
		d.work <- s
	}
	d.wg.Wait()
}

// runShard executes e's events up to and including deadline without
// padding the clock beyond the last executed event — unlike RunUntil,
// which advances to the deadline. Leaving the clock on the last event
// keeps shard times meaningful (Run's result is the true end of the
// simulation) and costs nothing: deliveries always land strictly after
// the window, so an un-padded clock can never cause a scheduling-in-
// the-past panic.
func runShard(e *event.Engine, deadline event.Time) {
	for {
		t, ok := e.NextAt()
		if !ok || t > deadline {
			return
		}
		e.Step()
	}
}

// startPool spawns the persistent window workers.
func (d *Driver) startPool() {
	d.work = make(chan *Shard, len(d.shards))
	d.pool.Add(d.workers)
	for i := 0; i < d.workers; i++ {
		go func() {
			defer d.pool.Done()
			for s := range d.work {
				runShard(s.eng, s.limit)
				d.wg.Done()
			}
		}()
	}
}

// stopPool closes the work channel and waits for every worker to
// exit, so no goroutine outlives Run.
func (d *Driver) stopPool() {
	close(d.work)
	d.pool.Wait()
}

// deliver is the window barrier: every destination's incoming messages,
// gathered across all sources, are merged in canonical (at, src, seq)
// order and inserted into the destination engine. Insertion order fixes
// the engine-level tie-break, so equal-timestamp deliveries execute in
// source-shard order on every run regardless of worker count.
func (d *Driver) deliver() {
	for dstID, dst := range d.shards {
		batch := d.mergeBuf[:0]
		for _, src := range d.shards {
			if pending := src.out[dstID]; len(pending) > 0 {
				batch = append(batch, pending...)
				clear(pending) // drop the closure refs; keep the capacity
				src.out[dstID] = pending[:0]
			}
		}
		if len(batch) == 0 {
			continue
		}
		slices.SortFunc(batch, func(a, b message) int {
			if a.at != b.at {
				if a.at < b.at {
					return -1
				}
				return 1
			}
			if a.src != b.src {
				return a.src - b.src
			}
			switch {
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
		dst.eng.Reserve(len(batch))
		for i := range batch {
			dst.eng.At(batch[i].at, batch[i].fn)
		}
		clear(batch) // drop the closure refs; keep the capacity
		d.mergeBuf = batch[:0]
	}
}
