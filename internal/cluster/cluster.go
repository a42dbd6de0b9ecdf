// Package cluster lifts the single-node serving runtime into a
// multi-node MLIMP serving fabric: N nodes — possibly heterogeneous in
// layer mix and capacity — each run a runtime batch executor on its own
// parsim shard, fronted by one or more regional hubs with pluggable
// load-balancing policies and admission control (bounded per-node
// queues with shed-on-overflow and optional bounded retry in simulated
// time). The paper schedules jobs across the computable-memory layers
// of one node; this package schedules batches across many such nodes,
// the shape a production deployment takes once a single node saturates
// (PyGim parallelises GNN work across independent PIM devices the same
// way).
package cluster

import (
	"fmt"
	"math"
	"strings"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
)

// NodeConfig describes one MLIMP node of the fleet.
type NodeConfig struct {
	Name    string
	Targets []isa.Target // computable-memory layer mix
	// Scale multiplies each layer's array capacity (0 means 1.0), so a
	// fleet can mix full-size and cut-down nodes of the same layer mix.
	Scale float64
	// Scheduler is the node's batch scheduler; nil means the global
	// scheduler (Algorithm 2), the paper's best.
	Scheduler sched.Scheduler
	// Packing selects the node's multi-tenant array packing policy
	// (zero value: first-fit, the single-pool behaviour).
	Packing sched.Packing
	// Replication selects the node's standing-replica policy (zero
	// value: off). Under when-idle each node's scheduler may pin spare
	// arrays as bottleneck-stage replicas; the dispatcher's cost
	// estimates run against per-node view systems built from this same
	// config, so estimate and execution see the same policy.
	Replication sched.ReplicationPolicy
}

// Node is one MLIMP system wrapped in a runtime executor (the real node
// on its shard) or its hub-side view carrying the occupancy bookkeeping
// the policies read.
type Node struct {
	Name string
	Sys  *sched.System

	rt        *runtime.Runtime   // nil on hub-side views
	queued    int                // outstanding bookings (hub-side views)
	busy      event.Time         // sum of batch execution spans
	predicted event.Time         // sum of cost estimates of outstanding batches
	estimates map[int]event.Time // batch ID -> estimate while outstanding
	runningID int                // batch executing now, -1 when idle
	runStart  event.Time         // when it started
	estSched  sched.Scheduler    // stateless planner backing EstimateCost

	// estCache memoizes EstimateCost per batch signature. One admission
	// costs at least two identical estimates (the policy's Pick plus the
	// booking at dispatch), and every retry of a shed-bound arrival
	// re-estimates the same batch against the same nodes; the planning
	// pass behind each estimate is a full Algorithm-2 schedule, by far
	// the dispatcher's hottest computation. Estimates assume an idle
	// node; the system is fixed after construction except for fault
	// degradation, which invalidates the cache (see degrade/restore).
	estCache           map[string]event.Time
	estHits, estMisses int64

	// Failure state (see fault.go): ground-truth crash flag, the
	// monitor's belief, liveness and degradation bookkeeping, and the
	// per-node circuit breaker.
	down         bool
	detectedDown bool
	lastBeat     event.Time
	arraysLost   int
	failures     int // exec errors + deadline timeouts attributed here
	crashes      int
	breaker      *breaker
}

// Health is a node's condition as the fabric sees it.
type Health int

const (
	// Healthy nodes have full capacity and a closed breaker.
	Healthy Health = iota
	// Degraded nodes serve with lost arrays or a tripped breaker.
	Degraded
	// DownHealth nodes are crashed or declared dead by the monitor.
	DownHealth
)

// String renders the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	}
	return "down"
}

// ArraysLost returns the arrays currently lost to injected faults.
func (n *Node) ArraysLost() int { return n.arraysLost }

// crash halts the node at the current instant: the executing batch
// loses its work and nothing further starts until revive. Work already
// admitted strands here until the heartbeat monitor declares the node
// dead and evicts it.
func (n *Node) crash() {
	if n.down {
		return
	}
	n.down = true
	n.crashes++
	n.runningID = -1
	n.rt.Halt()
}

// revive restarts a crashed node; heartbeats resume immediately.
func (n *Node) revive(now event.Time) {
	if !n.down {
		return
	}
	n.down = false
	n.lastBeat = now
	n.rt.Resume()
}

// degrade removes arrays from one layer (flooring at one array) and
// invalidates the estimate cache: stale idle-node estimates against the
// healthy capacity would misroute every later admission.
func (n *Node) degrade(t isa.Target, arrays int) {
	if removed := n.Sys.Degrade(t, arrays); removed > 0 {
		n.arraysLost += removed
		n.estCache = map[string]event.Time{}
	}
}

// restore returns previously lost arrays to a layer.
func (n *Node) restore(t isa.Target, arrays int) {
	if returned := n.Sys.Restore(t, arrays); returned > 0 {
		n.arraysLost -= returned
		n.estCache = map[string]event.Time{}
	}
}

// abandon releases the booking of a batch that will not complete here
// (evicted from a dead node or aborted on deadline), so PredictedDrain
// and the policies stop charging this node for it.
func (n *Node) abandon(id int) {
	if est, ok := n.estimates[id]; ok {
		n.predicted -= est
		delete(n.estimates, id)
	}
	if n.runningID == id {
		n.runningID = -1
	}
}

// newSystemFor builds a node's scheduling system from its config:
// the layer mix, optionally rescaled.
func newSystemFor(cfg NodeConfig) *sched.System {
	if len(cfg.Targets) == 0 {
		panic("cluster: node needs at least one layer")
	}
	sys := sched.NewSystem(cfg.Targets...)
	if cfg.Scale > 0 && cfg.Scale != 1 {
		for _, l := range sys.Layers {
			if c := int(float64(l.Capacity()) * cfg.Scale); c >= 1 {
				l.SetCapacity(c)
			} else {
				l.SetCapacity(1)
			}
		}
	}
	sys.Packing = cfg.Packing
	sys.Replication = cfg.Replication
	return sys
}

// NewNode builds a node whose runtime executes on eng.
func NewNode(eng *event.Engine, cfg NodeConfig) *Node {
	n := newView(cfg)
	scheduler := cfg.Scheduler
	if scheduler == nil {
		scheduler = sched.NewGlobal()
	}
	rt, err := runtime.NewOn(eng, n.Sys, scheduler)
	if err != nil {
		panic("cluster: " + err.Error()) // all three are non-nil above
	}
	n.rt = rt
	return n
}

// newView builds a hub-side proxy of a node: the same scheduling system
// (so cost estimates agree with the real node) but no runtime. Hubs
// route against views — mirrors of remote node state they may legally
// read at hub time — and the policies cannot tell a view from a live
// node.
func newView(cfg NodeConfig) *Node {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("node-%v", cfg.Targets)
	}
	return &Node{
		Name:      name,
		Sys:       newSystemFor(cfg),
		estimates: map[int]event.Time{},
		runningID: -1,
		estSched:  sched.NewGlobal(),
		estCache:  map[string]event.Time{},
	}
}

// Outstanding returns the number of admitted but unfinished batches the
// hub has booked against this node.
func (n *Node) Outstanding() int { return n.queued }

// PredictedDrain estimates how long from now the node needs to finish
// everything it has already accepted: the sum of the cost-model
// estimates of its outstanding batches, minus the time the executing
// batch has already spent (clamped to its own estimate, so an
// underestimated batch never drives the drain negative).
func (n *Node) PredictedDrain(now event.Time) event.Time {
	d := n.predicted
	if n.runningID >= 0 {
		elapsed := now - n.runStart
		if est := n.estimates[n.runningID]; elapsed > est {
			elapsed = est
		}
		d -= elapsed
	}
	if d < 0 {
		d = 0
	}
	return d
}

// CanRun reports whether every job of the batch has a cost profile on
// at least one of the node's layers — a node missing the only layer a
// job compiles for must not be offered that batch.
func (n *Node) CanRun(jobs []*sched.Job) bool {
	for _, j := range jobs {
		ok := false
		for t := range n.Sys.Layers {
			if _, has := j.Est[t]; has {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// EstimateCost predicts the batch's service time on this node by
// planning it with a global scheduler against the node's own system —
// the same Section III-C cost model the node schedules with, reused as
// the dispatcher's crystal ball. The estimate assumes an idle node;
// PredictedDrain accounts for the work ahead of the batch. Unrunnable
// batches estimate to MaxInt64 (CanRun filters them out of admission
// before any policy consults the estimate).
//
// Estimates are memoized per batch signature (see batchKey), so the
// repeated estimates of one admission — policy comparison, booking,
// retries — plan the batch against each node exactly once.
func (n *Node) EstimateCost(jobs []*sched.Job) event.Time {
	if !n.CanRun(jobs) {
		return event.Time(math.MaxInt64)
	}
	key := batchKey(jobs)
	if est, ok := n.estCache[key]; ok {
		n.estHits++
		return est
	}
	est := n.estSched.Schedule(n.Sys, jobs).Makespan
	n.estCache[key] = est
	n.estMisses++
	return est
}

// EstCacheStats returns the estimate cache's hit and miss counts.
func (n *Node) EstCacheStats() (hits, misses int64) { return n.estHits, n.estMisses }

// batchKey is the estimate-cache signature of a job set: the ordered
// (ID, Name) pairs. Job IDs identify immutable job objects for the
// lifetime of a dispatcher (every in-repo workload generator issues
// unique IDs), and names encode the app shape, so equal keys imply
// equal plans. Callers that recycle IDs across jobs with different
// TrueTime ground truth would alias entries — don't.
func batchKey(jobs []*sched.Job) string {
	var sb strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&sb, "%d:%s|", j.ID, j.Name)
	}
	return sb.String()
}
