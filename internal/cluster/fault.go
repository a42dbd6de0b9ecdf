package cluster

import (
	"errors"
	"fmt"

	"mlimp/internal/event"
	"mlimp/internal/event/parsim"
	"mlimp/internal/fault"
	"mlimp/internal/runtime"
)

// Fabric-fault wiring errors. Hub crashes and edge faults degrade the
// dispatch fabric itself: EnableFaults rejects plans a given fleet
// cannot honour with these named errors (the CLIs surface them at
// exit 2).
var (
	// ErrHubCrashNeedsTree rejects HubCrash windows on a one-region
	// fleet — with no peer hub to take over, its only hub is the
	// observer the determinism contract hangs off.
	ErrHubCrashNeedsTree = errors.New("cluster: hub crashes need a hub tree (Hubs > 1)")
	// ErrEdgeFaultNeedsDeadline rejects lossy edge faults without a
	// dispatch deadline: a dropped dispatch or completion echo is only
	// recovered by the deadline -> re-dispatch path, so running drops
	// without one would break the conservation law by construction.
	ErrEdgeFaultNeedsDeadline = errors.New("cluster: lossy edge faults need a dispatch deadline")
	// ErrUnknownEdgeEndpoint rejects edge faults naming a shard the
	// fleet does not have (node names, or "hub<R>" for region R's hub).
	ErrUnknownEdgeEndpoint = errors.New("cluster: edge fault names unknown shard")
)

// Failure-aware serving. With a FaultConfig enabled, every hub layers
// four recovery mechanisms over the basic admission/routing fabric:
//
//   - a fault plan (internal/fault) drives deterministic node crashes,
//     revivals, and array-capacity faults in simulated time;
//   - heartbeat liveness: the hub pings each node every period and live
//     nodes pong; a monitor declares a node dead after HeartbeatMiss
//     silent periods, evicts its stranded batches, and re-dispatches
//     them elsewhere;
//   - per-dispatch deadlines: a batch that has not completed Deadline
//     after acceptance is aborted and re-dispatched;
//   - per-node circuit breakers: BreakerK consecutive failures eject a
//     node from routing until a cooldown, after which a single probe
//     batch is allowed through (half-open) before full reinstatement.
//
// Every submitted batch ends in exactly one of three terminal states —
// completed, shed (admission rejected it), or dead-lettered (its
// re-dispatch budget ran out) — and the chaos tests assert that
// conservation law on every run.

// Defaults for FaultConfig zero values, sized against the ~10ms-scale
// batch service times of the Table II app suite.
const (
	DefaultMaxRedispatch   = 3
	DefaultBreakerK        = 3
	DefaultBreakerCooldown = 5 * event.Millisecond
	DefaultHeartbeat       = 250 * event.Microsecond
	DefaultHeartbeatMiss   = 3
)

// FaultConfig switches the fleet into failure-aware mode.
type FaultConfig struct {
	// Plan is the deterministic fault schedule; nil means no injected
	// crashes or array faults (deadlines and ExecError still apply).
	Plan *fault.Plan
	// ExecError overrides the plan's execution-error coin; it is
	// consulted at each batch's completion instant with the 0-based
	// attempt index. Nil uses Plan.ExecError.
	ExecError func(batchID, attempt int) bool
	// Deadline is the per-dispatch completion deadline; 0 disables.
	Deadline event.Time
	// MaxRedispatch bounds failure-driven re-dispatches per batch
	// before it is dead-lettered. 0 means DefaultMaxRedispatch.
	MaxRedispatch int
	// BreakerK is the consecutive-failure threshold that opens a node's
	// breaker. 0 means DefaultBreakerK.
	BreakerK int
	// BreakerCooldown is how long an open breaker waits before allowing
	// a half-open probe. 0 means DefaultBreakerCooldown.
	BreakerCooldown event.Time
	// Heartbeat is the beat and monitor period. 0 means
	// DefaultHeartbeat.
	Heartbeat event.Time
	// HeartbeatMiss is how many silent periods declare a node dead.
	// 0 means DefaultHeartbeatMiss.
	HeartbeatMiss int
}

func (fc FaultConfig) maxRedispatch() int {
	if fc.MaxRedispatch > 0 {
		return fc.MaxRedispatch
	}
	return DefaultMaxRedispatch
}

func (fc FaultConfig) breakerK() int {
	if fc.BreakerK > 0 {
		return fc.BreakerK
	}
	return DefaultBreakerK
}

func (fc FaultConfig) breakerCooldown() event.Time {
	if fc.BreakerCooldown > 0 {
		return fc.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

func (fc FaultConfig) heartbeat() event.Time {
	if fc.Heartbeat > 0 {
		return fc.Heartbeat
	}
	return DefaultHeartbeat
}

func (fc FaultConfig) heartbeatMiss() int {
	if fc.HeartbeatMiss > 0 {
		return fc.HeartbeatMiss
	}
	return DefaultHeartbeatMiss
}

// execFn resolves the execution-error coin.
func (fc FaultConfig) execFn() func(batchID, attempt int) bool {
	if fc.ExecError != nil {
		return fc.ExecError
	}
	if fc.Plan != nil {
		return fc.Plan.ExecError
	}
	return nil
}

// --- circuit breaker ---

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-node circuit breaker in simulated time. Transitions
// are lazy: the open→half-open move happens when the state is next
// consulted after the cooldown, which is deterministic because every
// consult happens at an engine-driven instant.
type breaker struct {
	k        int
	cooldown event.Time

	state       int
	consecFails int
	openedAt    event.Time
	probing     bool // a half-open probe batch is in flight
}

func newBreaker(k int, cooldown event.Time) *breaker {
	return &breaker{k: k, cooldown: cooldown}
}

// tick applies the lazy open→half-open transition.
func (br *breaker) tick(now event.Time) {
	if br.state == breakerOpen && now-br.openedAt >= br.cooldown {
		br.state = breakerHalfOpen
		br.probing = false
	}
}

// Allow reports whether the breaker admits a new batch right now.
// Half-open admits exactly one probe at a time (OnPick books it).
func (br *breaker) Allow(now event.Time) bool {
	br.tick(now)
	switch br.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return !br.probing
	}
	return false
}

// OnPick books the half-open probe once the policy actually routes a
// batch here; merely being considered eligible must not consume it.
func (br *breaker) OnPick() {
	if br.state == breakerHalfOpen {
		br.probing = true
	}
}

// OnSuccess closes the breaker.
func (br *breaker) OnSuccess() {
	br.state = breakerClosed
	br.consecFails = 0
	br.probing = false
}

// OnFailure counts a failure; K in a row (or any failure while
// half-open) opens the breaker.
func (br *breaker) OnFailure(now event.Time) {
	br.consecFails++
	if br.state == breakerHalfOpen || br.consecFails >= br.k {
		br.state = breakerOpen
		br.openedAt = now
		br.probing = false
	}
}

// --- fleet wiring ---

// EnableFaults switches the fleet into failure-aware mode: it validates
// the fault plan against the fleet, then arms every region — per-view
// breakers, the node-side execution-error hook, the region's share of
// the plan, and ping/pong liveness. The mechanisms route through the
// mailboxes: the plan is seeded into the node shards (capacity faults
// mirrored into the hub's views at the same instants), execution-error
// coins flip node-side with the attempt index carried in the dispatch
// message, and liveness is hub ping -> node pong. Fabric faults (hub
// crashes, edge faults) additionally arm suspicion and takeover between
// peer hubs (tree.go). Call once, before Run.
func (d *ShardedDispatcher) EnableFaults(fc FaultConfig) error {
	if d.faults != nil {
		return fmt.Errorf("cluster: faults already enabled")
	}
	if err := fc.Plan.Validate(); err != nil {
		return err
	}
	if fc.Plan != nil {
		if err := d.checkPlan(fc); err != nil {
			return err
		}
	}
	d.faults = &fc
	execFn := fc.execFn()
	for _, r := range d.regions {
		r.enableFaults(execFn)
	}
	d.armFabricFaults()
	return nil
}

// checkPlan resolves the plan's names against the fleet — node names
// for crashes and array faults, regions for hub crashes, shards for
// edge faults — and schedules the edge faults on the driver.
func (d *ShardedDispatcher) checkPlan(fc FaultConfig) error {
	shards := map[string]*parsim.Shard{}
	nodes := map[string]bool{}
	for _, r := range d.regions {
		shards[fmt.Sprintf("hub%d", r.idx)] = r.hub
		for _, sn := range r.sns {
			shards[sn.node.Name] = sn.shard
			nodes[sn.node.Name] = true
		}
	}
	for _, f := range fc.Plan.ArrayFaults {
		if !nodes[f.Node] {
			return fmt.Errorf("cluster: array fault names unknown node %q", f.Node)
		}
	}
	for _, c := range fc.Plan.Crashes {
		if !nodes[c.Node] {
			return fmt.Errorf("cluster: crash names unknown node %q", c.Node)
		}
	}
	for _, h := range fc.Plan.HubCrashes {
		if len(d.regions) == 1 {
			return fmt.Errorf("%w (one region)", ErrHubCrashNeedsTree)
		}
		if h.Region >= len(d.regions) {
			return fmt.Errorf("%w: region %d of %d regions", fault.ErrBadHubRegion, h.Region, len(d.regions))
		}
	}
	return wireEdgeFaults(d.drv, shards, fc)
}

// enableFaults arms one region: breakers on its views, the
// execution-error hook on its nodes, its share of the fault plan, and
// its liveness loops. The ExecError coin is a pure function of (Seed,
// batch, attempt), so which region flips it never changes a draw.
func (r *region) enableFaults(execFn func(batchID, attempt int) bool) {
	fc := r.f.faults
	for _, v := range r.views {
		v.breaker = newBreaker(fc.breakerK(), fc.breakerCooldown())
	}
	if execFn != nil {
		for _, sn := range r.sns {
			name := sn.node.Name
			sn.node.rt.ExecError = func(b *runtime.Batch) error {
				attempt := sn.attempts[b.ID]
				if execFn(b.ID, attempt) {
					return fmt.Errorf("cluster: batch %d failed on %s (attempt %d)",
						b.ID, name, attempt)
				}
				return nil
			}
		}
	}
	r.schedulePlan()
	r.startLiveness()
}

// wireEdgeFaults resolves the plan's edge faults against the fabric's
// shards — hubs under "hub<R>", nodes under their node names — and
// schedules them on the parsim driver. Lossy faults require a dispatch
// deadline: dropped dispatches and completion echoes are only recovered
// by the deadline -> re-dispatch path.
func wireEdgeFaults(drv *parsim.Driver, shards map[string]*parsim.Shard, fc FaultConfig) error {
	for _, e := range fc.Plan.EdgeFaults {
		src, ok := shards[e.From]
		if !ok {
			return fmt.Errorf("%w (%q)", ErrUnknownEdgeEndpoint, e.From)
		}
		dst, ok := shards[e.To]
		if !ok {
			return fmt.Errorf("%w (%q)", ErrUnknownEdgeEndpoint, e.To)
		}
		if e.DropProb > 0 && fc.Deadline <= 0 {
			return fmt.Errorf("%w (%s->%s drop=%.2f)", ErrEdgeFaultNeedsDeadline, e.From, e.To, e.DropProb)
		}
		drv.AddEdgeFault(src, dst, parsim.EdgeFault{
			At: e.At, Until: e.Until, DropProb: e.DropProb, Delay: e.Delay,
			Seed: fc.Plan.Seed,
		})
	}
	return nil
}

// schedulePlan seeds this region's share of the fault plan into its
// node shards' engines — crashes and capacity faults are local facts
// that happen at exact node times — and mirrors capacity faults into
// the hub's views at the same instants, so routing estimates degrade in
// lockstep with the nodes (a real dispatcher would learn of them via a
// control-plane notification). Crashes are deliberately not mirrored:
// the hub's belief about liveness comes only from missed pongs, as it
// would in production.
func (r *region) schedulePlan() {
	plan := r.f.faults.Plan
	if plan == nil {
		return
	}
	home := map[string]int{}
	for i, sn := range r.sns {
		home[sn.node.Name] = i
	}
	for _, f := range plan.ArrayFaults {
		idx, ok := home[f.Node]
		if !ok {
			continue
		}
		sn, v := r.sns[idx], r.views[idx]
		n := sn.node
		sn.shard.Engine().At(f.At, func() {
			n.degrade(f.Target, f.Magnitude(n.Sys.HealthyCapacity(f.Target)))
		})
		r.hub.Engine().At(f.At, func() {
			v.degrade(f.Target, f.Magnitude(v.Sys.HealthyCapacity(f.Target)))
		})
		if f.Transient() {
			sn.shard.Engine().At(f.Recover, func() {
				n.restore(f.Target, f.Magnitude(n.Sys.HealthyCapacity(f.Target)))
			})
			r.hub.Engine().At(f.Recover, func() {
				v.restore(f.Target, f.Magnitude(v.Sys.HealthyCapacity(f.Target)))
			})
		}
	}
	for _, c := range plan.Crashes {
		idx, ok := home[c.Node]
		if !ok {
			continue
		}
		sn := r.sns[idx]
		sn.shard.Engine().At(c.At, sn.node.crash)
		if c.Transient() {
			sn.shard.Engine().At(c.Recover, func() { sn.node.revive(sn.shard.Engine().Now()) })
		}
	}
}

// startLiveness arms the hub's ping and monitor loops: the hub pings
// every period, live nodes pong, and the monitor declares a node dead
// when its last pong is older than the miss budget plus one ping
// round-trip of slack. Both loops re-arm only while work remains
// outstanding (or is still to arrive), so the run drains once it
// settles.
func (r *region) startLiveness() {
	period := r.f.faults.heartbeat()
	var ping func()
	ping = func() {
		// A frozen hub sends no pings and ignores incoming pongs; the
		// loop itself keeps re-arming so liveness resumes at revival
		// (the revival sweep resets every view's lastBeat first).
		if !r.down {
			for i, sn := range r.sns {
				r.hub.SendAfter(sn.shard, r.f.hop, func() {
					if sn.node.down {
						return
					}
					sn.shard.SendAfter(r.hub, r.f.hop, func() {
						if !r.down {
							r.views[i].lastBeat = r.hub.Engine().Now()
						}
					})
				})
			}
		}
		if r.ticking() {
			r.hub.Engine().After(period, ping)
		}
	}
	var monitor func()
	monitor = func() {
		if !r.down {
			r.monitorOnce()
		}
		if r.ticking() {
			r.hub.Engine().After(period, monitor)
		}
	}
	r.hub.Engine().After(period, ping)
	r.hub.Engine().After(period, monitor)
}

// monitorOnce sweeps the views: nodes whose pongs went silent past the
// limit are declared dead, their bookings released in booking order
// (deterministic — never a map walk) and re-dispatched, and an evict
// message tells the node shard to drop the stranded work. A view that
// pongs again rejoins routing.
func (r *region) monitorOnce() {
	now := r.hub.Engine().Now()
	fc := r.f.faults
	limit := event.Time(fc.heartbeatMiss())*fc.heartbeat() + 2*r.f.hop
	for i, v := range r.views {
		silent := now - v.lastBeat
		if !v.detectedDown && silent > limit {
			v.detectedDown = true
			sn := r.sns[i]
			r.hub.SendAfter(sn.shard, r.f.hop, func() {
				for _, b := range sn.node.rt.Evict() {
					sn.forget(b.ID)
				}
			})
			ids := append([]int(nil), r.bookings[i]...)
			for _, id := range ids {
				tr := r.trk[id]
				r.release(i, id)
				if tr == nil || tr.done {
					continue
				}
				tr.gen++ // invalidate the booking's deadline and echoes
				r.redispatch(tr, v)
			}
		} else if v.detectedDown && silent <= limit {
			v.detectedDown = false
		}
	}
}

// onDeadline fires on the hub when a booking's completion deadline
// lapses without an accepted completion echo. A stale generation means
// the batch already completed, failed, or was re-dispatched — only the
// booking this timer was armed for counts.
func (r *region) onDeadline(tr *tracker, gen int) {
	if r.down {
		// Skip, don't park: the booking is still in the ledger, so the
		// revival sweep will abort and re-dispatch it anyway.
		return
	}
	if tr.done || tr.gen != gen {
		return
	}
	idx, v := tr.idx, r.views[tr.idx]
	r.timeouts++
	v.failures++
	v.breaker.OnFailure(r.hub.Engine().Now())
	r.abortSend(r.sns[idx], tr.b.ID)
	r.release(idx, tr.b.ID)
	r.redispatch(tr, v)
}

// redispatch sends a failed batch back through routing, avoiding the
// node it just failed on; the budget is MaxRedispatch, after which the
// batch is dead-lettered.
func (r *region) redispatch(tr *tracker, avoid *Node) {
	if tr.redispatches >= r.f.faults.maxRedispatch() {
		r.settle(tr, OutcomeDeadLettered, "", runtime.BatchResult{})
		return
	}
	tr.redispatches++
	r.redispatches++
	if c := bumpTenant(&r.tenants, tr.b.Tenant); c != nil {
		c.redispatches++
	}
	tr.gen++ // invalidate any armed deadline for the old booking
	r.dispatch(tr.b, 0, avoid)
}

// mergedHealth classifies a node combining ground truth held by the
// node shard (crash flag, lost arrays) with the hub's belief (liveness,
// breaker state).
func mergedHealth(real, view *Node) Health {
	if real.down || view.detectedDown {
		return DownHealth
	}
	if real.arraysLost > 0 || (view.breaker != nil && view.breaker.state != breakerClosed) {
		return Degraded
	}
	return Healthy
}
