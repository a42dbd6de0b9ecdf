package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"

	"mlimp/internal/cluster"
	"mlimp/internal/energy"
	"mlimp/internal/event"
	"mlimp/internal/event/parsim"
	"mlimp/internal/fault"
	"mlimp/internal/gnn"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/serve"
	"mlimp/internal/tensor"
	"mlimp/internal/workload"
)

// inputs is one workload's prebuilt, read-only inputs. simulate runs
// one simulation over them from fresh state (new systems, dispatcher
// and predictor clone) at the given parsim worker count. root is the
// span every traced call of the simulation hangs under; tr may be nil.
type inputs interface {
	simulate(workers int, tr *tracer, root int) simResult
	// fingerprint summarises the inputs, so set-ups repeated from one
	// seed can be checked for identical inputs.
	fingerprint() string
}

// simResult is what one simulation reports. Everything in it is in
// simulated time or a count, so it is identical for a fixed input.
type simResult struct {
	digest string
	jobs   int     // scheduler jobs settled
	out    outcome // terminal states of the offered work
	errs   []error // workload-specific output checks that failed
	sim    simMetrics
	layer  map[string]float64 // per-layer values read from public summaries
}

// simMetrics are the simulated-time end-to-end metrics.
type simMetrics struct {
	makespanMs, energyMJ, p50Ms, p99Ms, goodputRPS, sloMetFrac float64
}

// String renders the metrics for a digest at 12 significant digits:
// energy.OfResult sums static power in map order over a system's layers,
// so its last bits vary between otherwise identical simulations.
func (m simMetrics) String() string {
	return fmt.Sprintf("makespan=%.12g energy=%.12g p50=%.12g p99=%.12g goodput=%.12g met=%.12g",
		m.makespanMs, m.energyMJ, m.p50Ms, m.p99Ms, m.goodputRPS, m.sloMetFrac)
}

// spec names a workload and builds its inputs from a seed.
type spec struct {
	name     string
	parallel bool // simulate at parsim workers = nproc instead of 1
	setup    func(seed int64, tr *tracer, root int) (inputs, error)
}

var specs = []spec{
	{"batch-gnn", false, setupBatchGNN},
	{"serve-gnn", false, setupServeGNN},
	{"fleet-chaos", true, setupFleetChaos},
}

// workers is the parsim worker count of the measured simulations.
func (s spec) workers() int {
	if s.parallel {
		return goruntime.NumCPU()
	}
	return 1
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sample draws one k-hop subgraph inside a graph.sample span.
func sample(tr *tracer, root int, s *graph.Sampler, query int) *graph.Subgraph {
	sp := tr.begin("graph.sample", root)
	sg := s.Sample(query)
	tr.end(sp)
	return sg
}

// datasetSeed generates every dataset stand-in and the query vertices
// of its batch or requests. A dataset is fixed input, loaded the same
// way by every run; --seed draws the rest (arrival times, training
// subgraphs, model weights).
const datasetSeed = 1

// generate builds the dataset's mother graph and its sampler inside a
// graph.generate span.
func generate(tr *tracer, root int, d graph.Dataset) (*graph.Graph, *graph.Sampler) {
	sp := tr.begin("graph.generate", root)
	rng := rand.New(rand.NewSource(datasetSeed))
	g := d.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	tr.end(sp)
	return g, s
}

// train fits the MLP cost predictor on n sampled subgraphs.
func train(tr *tracer, root int, rng *rand.Rand, g *graph.Graph, s *graph.Sampler, n, f int, cfg predict.TrainConfig) *predict.MLP {
	training := make([]*tensor.CSR, n)
	for i := range training {
		training[i] = sample(tr, root, s, rng.Intn(g.N)).Adj
	}
	sp := tr.begin("predict.train", root)
	p := predict.Train(rng, training, f, cfg)
	tr.end(sp)
	return p
}

// tracedScheduler puts a sched.schedule span around every node
// schedule. parent points at the span the simulation's drain runs in.
type tracedScheduler struct {
	inner  sched.Scheduler
	tr     *tracer
	parent *int
}

func (s tracedScheduler) Name() string { return s.inner.Name() }

func (s tracedScheduler) Schedule(sys *sched.System, jobs []*sched.Job) *sched.Result {
	sp := s.tr.begin("sched.schedule", *s.parent)
	defer s.tr.end(sp)
	return s.inner.Schedule(sys, jobs)
}

// viewSet collects the dispatcher-side node views a policy is offered;
// their estimate caches and cost memos are only reachable that way.
// Regional hubs pick concurrently under parallel simulation.
type viewSet struct {
	mu    sync.Mutex
	nodes map[*cluster.Node]bool
	order []*cluster.Node
}

func (v *viewSet) add(ns []*cluster.Node) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, n := range ns {
		if !v.nodes[n] {
			v.nodes[n] = true
			v.order = append(v.order, n)
		}
	}
}

// observedPolicy forwards to a routing policy and records the views it
// is offered. It keeps the wrapped policy's estimate marker and gives
// each regional hub its own instance, as the dispatcher would.
type observedPolicy struct {
	cluster.Policy
	views *viewSet
}

func (p observedPolicy) Pick(eligible []*cluster.Node, b *runtime.Batch, now event.Time) *cluster.Node {
	p.views.add(eligible)
	return p.Policy.Pick(eligible, b, now)
}

func (p observedPolicy) UsesEstimates() bool {
	u, ok := p.Policy.(interface{ UsesEstimates() bool })
	return ok && u.UsesEstimates()
}

func (p observedPolicy) Clone() cluster.Policy {
	inner := p.Policy
	if c, ok := inner.(interface{ Clone() cluster.Policy }); ok {
		inner = c.Clone()
	} else if q, ok := cluster.PolicyByName(inner.Name()); ok {
		inner = q
	}
	return observedPolicy{inner, p.views}
}

// observe wraps the fleet's schedulers and policy for a traced run;
// untraced runs use them as given.
func observe(tr *tracer, parent *int, pol cluster.Policy, cfgs []cluster.NodeConfig) (cluster.Policy, *viewSet) {
	if tr == nil {
		return pol, nil
	}
	for i := range cfgs {
		inner := cfgs[i].Scheduler
		if inner == nil {
			inner = sched.NewGlobal()
		}
		cfgs[i].Scheduler = tracedScheduler{inner, tr, parent}
	}
	views := &viewSet{nodes: map[*cluster.Node]bool{}}
	return observedPolicy{pol, views}, views
}

// layerTally accumulates the per-layer values shared by the workloads:
// simulated busy time and job count per memory layer, energy, and the
// cost-model memo counters.
type layerTally struct {
	busy  [isa.NumTargets]event.Time
	jobs  [isa.NumTargets]int
	en    energy.Breakdown
	cache sched.CacheStats
}

// charge adds one schedule's assignments and energy.
func (lt *layerTally) charge(sys *sched.System, res *sched.Result) {
	for _, a := range res.Assignments {
		lt.busy[a.Target] += a.End - a.Start
		lt.jobs[a.Target]++
	}
	e := energy.OfResult(sys, res)
	lt.en.ComputeJ += e.ComputeJ
	lt.en.TransferJ += e.TransferJ
	lt.en.StaticJ += e.StaticJ
}

// memo adds one system's cost-model memo counters.
func (lt *layerTally) memo(sys *sched.System) {
	c := sys.CacheStats()
	lt.cache.ModelHits += c.ModelHits
	lt.cache.ModelMisses += c.ModelMisses
	lt.cache.KneeHits += c.KneeHits
	lt.cache.KneeMisses += c.KneeMisses
	lt.cache.Clears += c.Clears
}

func (lt *layerTally) values(m map[string]float64) {
	for _, t := range isa.Targets {
		m["sched.busy_ms."+targetKey(t)] = lt.busy[t].Millis()
		m["sched.jobs."+targetKey(t)] = float64(lt.jobs[t])
	}
	m["energy.compute_mj"] = lt.en.ComputeJ * 1e3
	m["energy.transfer_mj"] = lt.en.TransferJ * 1e3
	m["energy.static_mj"] = lt.en.StaticJ * 1e3
	c := lt.cache
	m["sched.model_hit_ratio"] = ratio(float64(c.ModelHits), float64(c.ModelHits+c.ModelMisses))
	m["sched.knee_hit_ratio"] = ratio(float64(c.KneeHits), float64(c.KneeHits+c.KneeMisses))
	m["sched.memo_clears"] = float64(c.Clears)
}

func targetKey(t isa.Target) string { return strings.ToLower(t.String()) }

// nodeResult is one completed batch with the node that ran it.
type nodeResult struct {
	node string
	res  runtime.BatchResult
}

// chargeFleet charges every completed batch's recorded schedule to its
// node's system (static power over the batch's execution span), then
// adds every node's and every observed view's memo counters.
func (lt *layerTally) chargeFleet(d *cluster.ShardedDispatcher, done []nodeResult, views *viewSet) {
	byName := map[string]*cluster.Node{}
	for _, n := range d.Nodes() {
		byName[n.Name] = n
	}
	for _, nr := range done {
		lt.charge(byName[nr.node].Sys, &sched.Result{
			Makespan: nr.res.Completed - nr.res.Start, Assignments: nr.res.Assignments})
	}
	for _, n := range d.Nodes() {
		lt.memo(n.Sys)
	}
	if views != nil {
		for _, v := range views.order {
			lt.memo(v.Sys)
		}
	}
}

// fleetValues reads the cluster and parsim layers' public summaries.
func fleetValues(m map[string]float64, s cluster.Summary, ws parsim.Stats, views *viewSet) {
	var util float64
	for _, n := range s.Nodes {
		util += n.Utilization
	}
	m["cluster.queue_p50_ms"] = s.P50QueMs
	m["cluster.queue_p99_ms"] = s.P99QueMs
	m["cluster.node_util_mean"] = ratio(util, float64(len(s.Nodes)))
	m["cluster.retries"] = float64(s.Retries)
	m["cluster.redispatches"] = float64(s.Redispatches)
	m["cluster.dead_lettered"] = float64(s.DeadLettered)
	m["cluster.takeovers"] = float64(s.Takeovers)
	m["cluster.rehomed"] = float64(s.Rehomed)
	m["cluster.settle_ratio"] = settleRatio(s.Completed, s.Redispatches, s.Retries)
	if views != nil {
		var hits, misses int64
		for _, v := range views.order {
			h, mi := v.EstCacheStats()
			hits += h
			misses += mi
		}
		m["cluster.est_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	}
	m["parsim.windows"] = float64(ws.Windows)
	m["parsim.avg_active"] = ws.AvgActive()
	m["parsim.max_active"] = float64(ws.MaxActive)
	m["parsim.dropped"] = float64(ws.Dropped)
	m["parsim.delayed"] = float64(ws.Delayed)
}

// hashAssignments folds a schedule into a digest line.
func hashAssignments(as []sched.Assignment) uint64 {
	h := fnv.New64a()
	for _, a := range as {
		fmt.Fprintf(h, "%d/%d/%d/%d/%d;", a.Job.ID, a.Target, a.Arrays, a.Start, a.End)
	}
	return h.Sum64()
}

// ---- batch-gnn -------------------------------------------------------

// The paper's own experiment: one offline GNN inference batch over the
// ogbl-citation2 stand-in, scheduled by Algorithm 2 on a full
// SRAM/DRAM/ReRAM node with replicate-when-idle. The batch's queries
// are part of the dataset, like a test split; the seed draws the
// training subgraphs and weights of an ensemble of cost predictors, and
// one simulation schedules the batch once per predictor, each time on a
// fresh node. Pooling the schedules keeps the result from resting on a
// single predictor's training noise.
const (
	batchGNNBatches    = 4
	batchGNNBatchSize  = 32
	batchGNNLayers     = 3
	batchGNNTrain      = 96
	batchGNNPredictors = 4
)

type batchGNN struct {
	w     *gnn.Workload
	preds []*predict.MLP
}

func setupBatchGNN(seed int64, tr *tracer, root int) (inputs, error) {
	d, ok := graph.DatasetByName("ogbl-citation2")
	if !ok {
		return nil, fmt.Errorf("batch-gnn: dataset ogbl-citation2 missing")
	}
	rng := rand.New(rand.NewSource(seed))
	g, s := generate(tr, root, d)
	w := &gnn.Workload{Dataset: d, Model: gnn.NewGCN(rng, d.InputFeat, d.HiddenFeat, batchGNNLayers), Graph: g}
	queries := rand.New(rand.NewSource(datasetSeed))
	for b := 0; b < batchGNNBatches; b++ {
		batch := make([]*graph.Subgraph, batchGNNBatchSize)
		for i := range batch {
			batch[i] = sample(tr, root, s, queries.Intn(g.N))
		}
		w.Batches = append(w.Batches, batch)
	}
	preds := make([]*predict.MLP, batchGNNPredictors)
	for i := range preds {
		preds[i] = train(tr, root, rng, g, s, batchGNNTrain, d.InputFeat, predict.DefaultTrainConfig())
	}
	return &batchGNN{w: w, preds: preds}, nil
}

func (b *batchGNN) fingerprint() string {
	nnz := 0
	for _, sg := range b.w.Subgraphs() {
		nnz += sg.NNZ()
	}
	probe := b.w.Subgraphs()[0].Adj
	var est []int64
	for _, p := range b.preds {
		est = append(est, p.UnitCycles(probe, b.w.Dataset.InputFeat, isa.SRAM))
	}
	return fmt.Sprintf("graph=%s subgraphs=%d nnz=%d predictions=%v", b.w.Graph, len(b.w.Subgraphs()), nnz, est)
}

func (b *batchGNN) simulate(_ int, tr *tracer, root int) simResult {
	var lt layerTally
	var errs []error
	var lat []float64
	var makespan event.Time
	offered, done := 0, 0
	var schedules []uint64
	for _, pred := range b.preds {
		sys := sched.NewSystem(isa.Targets...)
		sys.Replication = sched.ReplicateWhenIdle
		sp := tr.begin("gnn.all_jobs", root)
		jobs := b.w.AllJobs(pred, sys)
		tr.end(sp)
		sp = tr.begin("sched.schedule", root)
		res := sched.NewGlobal().Schedule(sys, jobs)
		tr.end(sp)
		sp = tr.begin("energy.of_result", root)
		lt.charge(sys, res)
		tr.end(sp)
		lt.memo(sys)

		// Every job must be placed exactly once.
		placed := make(map[int]int, len(jobs))
		for _, a := range res.Assignments {
			placed[a.Job.ID]++
			lat = append(lat, a.End.Millis()) // all jobs arrive at t=0
		}
		unassigned := 0
		for _, j := range jobs {
			if placed[j.ID] != 1 {
				unassigned++
			}
		}
		if unassigned > 0 || len(res.Assignments) != len(jobs) {
			errs = append(errs, fmt.Errorf("%w: %d of %d jobs not placed exactly once (%d assignments)",
				errUnassigned, unassigned, len(jobs), len(res.Assignments)))
		}
		offered += len(jobs)
		done += len(jobs) - unassigned
		makespan += res.Makespan
		schedules = append(schedules, hashAssignments(res.Assignments))
	}
	layer := map[string]float64{}
	lt.values(layer)
	n := float64(len(b.preds))
	m := simMetrics{
		makespanMs: makespan.Millis() / n,
		energyMJ:   lt.en.TotalJ() * 1e3 / n,
		p50Ms:      percentile(lat, 50),
		p99Ms:      percentile(lat, 99),
		// A closed batch has no SLO: every settled job counts.
		goodputRPS: ratio(float64(done), makespan.Seconds()),
		sloMetFrac: ratio(float64(done), float64(offered)),
	}
	return simResult{
		digest: fmt.Sprintf("jobs=%d schedules=%x %v", offered, schedules, m),
		jobs:   done,
		out:    outcome{offered: offered, completed: done, unassigned: offered - done},
		errs:   errs,
		sim:    m,
		layer:  layer,
	}
}

// ---- serve-gnn -------------------------------------------------------

// GNN aggregation requests arriving in simulated time from a bursty
// arrival process, batched by the serving front end and routed to a
// cut-down heterogeneous fleet under predictor-driven admission.
var servingDataset = graph.Dataset{Name: "serving", Vertices: 1200,
	InputFeat: 64, HiddenFeat: 64, ScaleDiv: 1, Attachment: 8}

const (
	serveHorizon = 60 * event.Millisecond
	serveSLO     = 1500 * event.Microsecond
	serveBudget  = 200 * event.Microsecond
	serveCap     = 4
	serveTrain   = 32
)

// servePhases are the bursty arrival trace's two alternating phases,
// each a Poisson process: calm, then a burst with gaps almost 7x
// shorter that overloads the fleet. Phase lengths are fixed, so every
// seed offers the same calm/overload regimes and only the arrivals
// within them vary.
var servePhases = []struct{ gap, dwell event.Time }{
	{40 * event.Microsecond, 3 * event.Millisecond},
	{6 * event.Microsecond, 1500 * event.Microsecond},
}

// serveTrace draws the arrival trace over the horizon.
func serveTrace(rng *rand.Rand) []event.Time {
	var arr []event.Time
	for i, start := 0, event.Time(0); start < serveHorizon; i++ {
		ph := servePhases[i%len(servePhases)]
		end := min(start+ph.dwell, serveHorizon)
		arr = append(arr, serve.Trace(rng, serve.Poisson{MeanGap: ph.gap}, start, end)...)
		start = end
	}
	return arr
}

// servingFleet is the heterogeneous 4-node fleet at 5% array capacity,
// so the bursts saturate it.
func servingFleet() []cluster.NodeConfig {
	cfgs := []cluster.NodeConfig{
		{Name: "full", Targets: isa.Targets},
		{Name: "sram-dram", Targets: []isa.Target{isa.SRAM, isa.DRAM}},
		{Name: "dram-reram", Targets: []isa.Target{isa.DRAM, isa.ReRAM}},
		{Name: "reram", Targets: []isa.Target{isa.ReRAM}},
	}
	for i := range cfgs {
		cfgs[i].Scale = 0.05
	}
	return cfgs
}

type serveGNN struct {
	seed  int64
	pred  *predict.MLP
	betas map[isa.Target]map[int]float64
	reqs  []*serve.Request
}

// preferredTarget is the request's batching class: the layer with the
// lowest modelled time at unit allocation, as serve.GNNSource.Requests
// assigns it. The benchmark builds requests itself, rather than through
// GNNSource.Requests, so that each Sampler.Sample call is timed alone.
func preferredTarget(sys *sched.System, j *sched.Job) isa.Target {
	var best isa.Target
	bestT := event.Time(-1)
	for _, t := range sys.Targets() {
		p, ok := j.Est[t]
		if !ok {
			continue
		}
		if mt := sys.ModelTime(j, t, p.RepUnit); bestT < 0 || mt < bestT {
			bestT, best = mt, t
		}
	}
	return best
}

func setupServeGNN(seed int64, tr *tracer, root int) (inputs, error) {
	d := servingDataset
	rng := rand.New(rand.NewSource(seed))
	g, s := generate(tr, root, d)
	pred := train(tr, root, rng, g, s, serveTrain, d.InputFeat, predict.TrainConfig{Epochs: 150, LR: 2e-3})
	mirror := sched.NewSystem(isa.Targets...)
	betas := gnn.FitBetas(sample(tr, root, s, rng.Intn(g.N)).Adj, []int{d.InputFeat}, mirror)
	src := &serve.GNNSource{Sys: mirror, Predictor: pred, Betas: betas, F: d.InputFeat}
	arr := serveTrace(rng)
	reqs := make([]*serve.Request, len(arr))
	// Request i queries the i-th vertex of a fixed query sequence, as
	// batch-gnn's queries are fixed: two-hop subgraph sizes are
	// heavy-tailed, and seed-drawn queries moved the work per simulation
	// by more than its own run-to-run noise.
	queries := rand.New(rand.NewSource(datasetSeed))
	for i, at := range arr {
		sg := sample(tr, root, s, queries.Intn(g.N))
		r := &serve.Request{ID: i, Arrival: at, Deadline: at + serveSLO, Adj: sg.Adj, F: d.InputFeat}
		r.Class = preferredTarget(mirror, src.BuildJob(r)).String()
		reqs[i] = r
	}
	return &serveGNN{seed: seed, pred: pred, betas: betas, reqs: reqs}, nil
}

func (b *serveGNN) fingerprint() string {
	nnz := 0
	for _, r := range b.reqs {
		nnz += r.Adj.NNZ()
	}
	return fmt.Sprintf("requests=%d last=%d nnz=%d", len(b.reqs), b.reqs[len(b.reqs)-1].Arrival, nnz)
}

func (b *serveGNN) simulate(workers int, tr *tracer, root int) simResult {
	pred := b.pred.Clone()
	mirror := sched.NewSystem(isa.Targets...)
	src := &serve.GNNSource{Sys: mirror, Predictor: pred, Betas: b.betas, F: servingDataset.InputFeat}
	run := -1
	cfgs := servingFleet()
	pol, views := observe(tr, &run, cluster.NewPredictedCost(), cfgs)
	d := cluster.NewShardedDispatcher(pol, cluster.Admission{MaxRetries: 1},
		cluster.ShardConfig{Workers: workers}, cfgs...)
	buildJob := src.BuildJob
	if tr != nil {
		buildJob = func(r *serve.Request) *sched.Job {
			sp := tr.begin("serve.build_job", run)
			defer tr.end(sp)
			return src.BuildJob(r)
		}
	}
	seen := onceSeen{}
	var done []nodeResult
	var waits []float64
	reqsInBatches := 0
	fe, err := serve.New(d, serve.Config{
		Requests: b.reqs, Budget: serveBudget, BatchMax: serveCap,
		PredictorAdmission: true, BuildJob: buildJob,
		Predictor: pred, Mirror: mirror,
		RetrainEvery: 8, RetrainEpochs: 10, Seed: b.seed,
		OnDone: func(di cluster.DoneInfo) {
			seen[di.Batch.ID]++
			for _, j := range di.Batch.Jobs {
				waits = append(waits, (di.Batch.Arrival - b.reqs[j.ID].Arrival).Micros())
			}
			reqsInBatches += len(di.Batch.Jobs)
			if di.Outcome == cluster.OutcomeCompleted {
				done = append(done, nodeResult{di.Node, di.Result})
			}
		},
	})
	if err != nil {
		return simResult{errs: []error{fmt.Errorf("serve-gnn: %w", err)}}
	}
	run = tr.begin("serve.run", root)
	s := fe.Run()
	tr.end(run)
	sp := tr.begin("energy.of_result", root)
	var lt layerTally
	lt.chargeFleet(d, done, views)
	tr.end(sp)
	lt.memo(mirror)

	var errs []error
	if err := seen.check(s.Sealed); err != nil {
		errs = append(errs, err)
	}
	if s.Requests != len(b.reqs) {
		errs = append(errs, fmt.Errorf("%w: front end saw %d requests, trace has %d",
			errConservation, s.Requests, len(b.reqs)))
	}
	layer := map[string]float64{
		"predict.refits":           float64(s.Retrains),
		"predict.abs_log_err":      s.MeanAbsLogErr,
		"serve.sealed":             float64(s.Sealed),
		"serve.batch_fill":         ratio(float64(reqsInBatches), float64(s.Sealed*serveCap)),
		"serve.former_wait_us_p99": percentile(waits, 99),
		"serve.shed_admission":     float64(s.ShedAdmission),
		"serve.shed_overload":      float64(s.ShedOverload),
	}
	lt.values(layer)
	ws := d.WindowStats()
	fleetValues(layer, s.Cluster, ws, views)
	m := simMetrics{
		makespanMs: s.Cluster.Makespan.Millis(),
		energyMJ:   lt.en.TotalJ() * 1e3,
		p50Ms:      s.SLO.Latency.P50,
		p99Ms:      s.SLO.Latency.P99,
		goodputRPS: s.SLO.Goodput,
		sloMetFrac: s.SLO.MetFrac(),
	}
	return simResult{
		digest: fmt.Sprintf("%s\nwindows: %s\n%v", s, ws, m),
		jobs:   s.Completed,
		out: outcome{offered: len(b.reqs), completed: s.Completed,
			shed: s.ShedAdmission + s.ShedOverload, deadLettered: s.DeadLettered},
		errs:  errs,
		sim:   m,
		layer: layer,
	}
}

// ---- fleet-chaos -----------------------------------------------------

// An open loop of Poisson batch arrivals from four tenants into a
// 16-node fleet under a 4-region hub tree, with generated node faults,
// a frozen regional hub and a lossy hub-to-hub edge.
const (
	chaosBatches    = 1500
	chaosJobs       = 4
	chaosGap        = 2 * event.Millisecond
	chaosTenants    = 4
	chaosNodes      = 16
	chaosHubs       = 4
	chaosBeacon     = 500 * event.Microsecond
	chaosDeadline   = 50 * event.Millisecond
	chaosRedispatch = 1
)

type chaosBatch struct {
	at     event.Time
	tenant string
	jobs   []*sched.Job
}

type fleetChaos struct {
	batches []chaosBatch
	plan    *fault.Plan
}

func chaosFleet() []cluster.NodeConfig {
	cfgs := make([]cluster.NodeConfig, chaosNodes)
	for i := range cfgs {
		cfgs[i] = cluster.NodeConfig{Name: fmt.Sprintf("n%02d", i), Targets: isa.Targets,
			Packing: sched.PackWeightedFair}
	}
	return cfgs
}

func setupFleetChaos(seed int64, tr *tracer, root int) (inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	sp := tr.begin("workload.batches", root)
	arr := cluster.PoissonArrivals(rng, chaosBatches, chaosGap)
	batches := make([]chaosBatch, len(arr))
	for i, at := range arr {
		batches[i] = chaosBatch{at: at, tenant: fmt.Sprintf("t%d", i%chaosTenants),
			jobs: workload.RandomJobs(rng, chaosJobs, i*100)}
	}
	tr.end(sp)
	horizon := arr[len(arr)-1]
	var names []string
	for _, c := range chaosFleet() {
		names = append(names, c.Name)
	}
	sp = tr.begin("fault.generate", root)
	defer tr.end(sp)
	plan, err := fault.Generate(seed, fault.GenConfig{Nodes: names, Horizon: horizon,
		ArrayFaultsPerNode: 1, CrashesPerNode: 1})
	if err != nil {
		return nil, fmt.Errorf("fleet-chaos: %w", err)
	}
	plan.HubCrashes = []fault.HubCrash{{Region: 1, At: horizon / 4, Recover: horizon / 2}}
	plan.EdgeFaults = []fault.EdgeFault{{From: "hub2", To: "hub3",
		At: horizon / 3, Until: 2 * horizon / 3, DropProb: 0.3}}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("fleet-chaos: %w", err)
	}
	return &fleetChaos{batches: batches, plan: plan}, nil
}

func (b *fleetChaos) fingerprint() string {
	return fmt.Sprintf("batches=%d last=%d %s", len(b.batches), b.batches[len(b.batches)-1].at, b.plan)
}

func (b *fleetChaos) simulate(workers int, tr *tracer, root int) simResult {
	run := -1
	cfgs := chaosFleet()
	pol, views := observe(tr, &run, cluster.NewLeastOutstanding(), cfgs)
	d := cluster.NewShardedDispatcher(pol, cluster.Admission{MaxRetries: 4},
		cluster.ShardConfig{Workers: workers, Hubs: chaosHubs, SummaryEvery: chaosBeacon}, cfgs...)
	d.RecordAssignments()
	var errs []error
	if err := d.EnableFaults(cluster.FaultConfig{Plan: b.plan, Deadline: chaosDeadline, MaxRedispatch: chaosRedispatch}); err != nil {
		return simResult{errs: []error{fmt.Errorf("fleet-chaos: %w", err)}}
	}
	seen := onceSeen{}
	var done []nodeResult
	met := 0
	d.OnDone(func(di cluster.DoneInfo) {
		seen[di.Batch.ID]++
		if di.Outcome == cluster.OutcomeCompleted {
			done = append(done, nodeResult{di.Node, di.Result})
			if di.Result.Completed-di.Batch.Arrival <= chaosDeadline {
				met++
			}
		}
	})
	for i, cb := range b.batches {
		sp := tr.begin("cluster.submit", root)
		err := d.Submit(&runtime.Batch{ID: i, Arrival: cb.at, Tenant: cb.tenant, Jobs: cb.jobs})
		tr.end(sp)
		if err != nil {
			errs = append(errs, fmt.Errorf("fleet-chaos: submit %d: %w", i, err))
		}
	}
	run = tr.begin("cluster.run", root)
	s := d.Run()
	tr.end(run)
	sp := tr.begin("energy.of_result", root)
	var lt layerTally
	lt.chargeFleet(d, done, views)
	tr.end(sp)

	if err := seen.check(len(b.batches)); err != nil {
		errs = append(errs, err)
	}
	if s.Submitted != len(b.batches) || s.Accounted() != s.Submitted {
		errs = append(errs, fmt.Errorf("%w: dispatcher accounted %d of %d submitted, %d offered",
			errConservation, s.Accounted(), s.Submitted, len(b.batches)))
	}
	layer := map[string]float64{}
	lt.values(layer)
	ws := d.WindowStats()
	fleetValues(layer, s, ws, views)
	m := simMetrics{
		makespanMs: s.Makespan.Millis(),
		energyMJ:   lt.en.TotalJ() * 1e3,
		p50Ms:      s.P50LatMs,
		p99Ms:      s.P99LatMs,
		goodputRPS: ratio(float64(met), s.Makespan.Seconds()),
		sloMetFrac: ratio(float64(met), float64(len(b.batches))),
	}
	return simResult{
		digest: fmt.Sprintf("%s\nwindows: %s\nmet=%d %v", s, ws, met, m),
		jobs:   chaosJobs * s.Completed,
		out: outcome{offered: len(b.batches), completed: s.Completed,
			shed: s.Shed, deadLettered: s.DeadLettered},
		errs:  errs,
		sim:   m,
		layer: layer,
	}
}
