// Command mlimp-serve runs a multi-node MLIMP serving fleet under a
// Poisson-style open arrival stream: heterogeneous nodes (layer mixes
// and capacity scales), each on its own deterministic event engine,
// fronted by a hub with a pluggable load-balancing policy and admission
// control. Output is byte-for-byte reproducible for a fixed seed.
//
// Usage:
//
//	mlimp-serve                              # default 4-node fleet, all policies
//	mlimp-serve -policy predicted-cost       # one policy
//	mlimp-serve -nodes "sram,dram,reram/reram@0.5" -mean-gap-ms 2
//	mlimp-serve -j 4                         # 4 simulation workers
//
// The fleet runs on the sharded per-node engine fabric
// (internal/event/parsim): each node owns its own event engine and the
// hub talks to them over latency-bearing mailboxes. -j only sets how
// many shards advance concurrently: 0 and 1 both run serially, and the
// output is identical for every -j.
//
// Open-loop request serving (-open) replaces the batch stream with the
// request-level front end of internal/serve: individual requests
// arrive under a configurable arrival process
// (-arrival poisson|mmpp|diurnal, -req-gap-us), carry per-request SLO
// deadlines (-slo-ms), and are coalesced by the continuous batch-former
// (-budget-us, -batch-max). With -admission predictor the dispatcher
// runs the cost predictor online and sheds requests predicted to miss
// their deadline; -admission blind sheds only at the dispatcher's
// admission bound.
//
//	mlimp-serve -open -j 2 -arrival mmpp -req-gap-us 50 -slo-ms 2
//	mlimp-serve -open -j 2 -source gnn -admission predictor
//
// Multi-tenant serving tags work round-robin across -tenants tenants
// and packs each tenant onto disjoint array sets per node under the
// -packing policy; summaries then carry per-tenant goodput and p99:
//
//	mlimp-serve -open -j 2 -tenants 4 -packing weighted-fair
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"mlimp/internal/cluster"
	"mlimp/internal/event"
	"mlimp/internal/fault"
	"mlimp/internal/fixed"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/runtime"
	"mlimp/internal/sched"
	"mlimp/internal/serve"
	"mlimp/internal/tensor"
	"mlimp/internal/workload"
)

// defaultFleet mirrors the bundled `cluster` experiment: a full node,
// two partial mixes, and a ReRAM-only straggler.
const defaultFleet = "sram,dram,reram/sram,dram/dram,reram/reram"

// Named flag-validation failures (exit status 2).
var (
	errBadTenants   = errors.New("invalid -tenants")
	errBadPacking   = errors.New("invalid -packing")
	errBadReplicate = errors.New("invalid -replicate")
	errBadQFormat   = errors.New("invalid -qformat")
)

// parseFleet turns "sram,dram@0.5/reram" into node configs: nodes are
// slash-separated, layers comma-separated, with an optional @scale
// capacity multiplier per node.
func parseFleet(spec string) ([]cluster.NodeConfig, error) {
	var cfgs []cluster.NodeConfig
	for i, nodeSpec := range strings.Split(spec, "/") {
		scale := 0.0
		layerSpec := nodeSpec
		if at := strings.LastIndex(nodeSpec, "@"); at >= 0 {
			s, err := strconv.ParseFloat(nodeSpec[at+1:], 64)
			if err != nil || s <= 0 {
				return nil, fmt.Errorf("node %d: bad scale %q", i, nodeSpec[at+1:])
			}
			scale = s
			layerSpec = nodeSpec[:at]
		}
		var targets []isa.Target
		for _, name := range strings.Split(layerSpec, ",") {
			switch strings.ToLower(strings.TrimSpace(name)) {
			case "sram":
				targets = append(targets, isa.SRAM)
			case "dram":
				targets = append(targets, isa.DRAM)
			case "reram":
				targets = append(targets, isa.ReRAM)
			default:
				return nil, fmt.Errorf("node %d: unknown layer %q", i, name)
			}
		}
		cfgs = append(cfgs, cluster.NodeConfig{
			Name:    fmt.Sprintf("node%d(%s)", i, layerSpec),
			Targets: targets,
			Scale:   scale,
		})
	}
	return cfgs, nil
}

func main() {
	nodes := flag.String("nodes", defaultFleet,
		"fleet spec: slash-separated nodes, comma-separated layers, optional @scale")
	policy := flag.String("policy", "all",
		"roundrobin | least-outstanding | predicted-cost | all")
	batches := flag.Int("batches", 32, "number of arriving batches")
	batchSize := flag.Int("batch-size", 3, "jobs per batch (drawn from the Table II app suite)")
	meanGapMs := flag.Float64("mean-gap-ms", 5, "mean inter-arrival gap (exponential)")
	queueCap := flag.Int("queue-cap", cluster.DefaultQueueCap, "max outstanding batches per node")
	retries := flag.Int("retries", 4, "redispatch attempts before shedding")
	backoffMs := flag.Float64("backoff-ms", 0.5, "initial retry backoff, doubling per attempt")
	seed := flag.Int64("seed", 1, "random seed (arrivals and job mix)")
	faultSeed := flag.Int64("fault-seed", 0,
		"fault-plan seed; 0 disables the generated crash/array-fault schedule")
	arrayFaultRate := flag.Float64("array-fault-rate", 0.5,
		"expected array faults per node over the run (with -fault-seed)")
	crashRate := flag.Float64("crash-rate", 0.5,
		"expected crash windows per node over the run (with -fault-seed)")
	meanOutageMs := flag.Float64("mean-outage-ms", 20, "mean outage length for crashes and transient faults")
	execErrorProb := flag.Float64("exec-error-prob", 0, "per-execution batch failure probability")
	deadlineMs := flag.Float64("deadline-ms", 0, "per-batch completion deadline; 0 disables")
	redispatch := flag.Int("redispatch", cluster.DefaultMaxRedispatch,
		"failure re-dispatch budget per batch before dead-lettering")
	breakerK := flag.Int("breaker-k", cluster.DefaultBreakerK,
		"consecutive node failures that open its circuit breaker")
	breakerCooldownMs := flag.Float64("breaker-cooldown-ms", 0,
		"open-breaker cooldown before a half-open probe; 0 means the default")
	heartbeatMs := flag.Float64("heartbeat-ms", 0, "node heartbeat period; 0 means the default")
	hubCrash := flag.String("hub-crash", "",
		"regional hub freeze windows: slash-separated region@at:recover (ms), e.g. 1@2:6 (needs -hubs > 1)")
	edgeFault := flag.String("edge-fault", "",
		"fabric edge faults: slash-separated from>to@at:until:drop:delay (ms; until 0 = open), e.g. hub0>hub1@2:6:1:0")
	hubs := flag.Int("hubs", 1,
		"regional sub-hubs the fleet dispatches through (1 = one hub over every node; must tile the fleet)")
	hubFanout := flag.Int("hub-fanout", 0,
		"nodes per sub-hub (0 = derive from -hubs; hubs x fanout must equal the fleet size)")
	jobs := flag.Int("j", 0,
		"simulation workers advancing the per-node engine shards (0 and 1 both run serially; output is identical for every -j)")
	openLoop := flag.Bool("open", false,
		"run the open-loop request front end (continuous batching + SLO admission)")
	source := flag.String("source", "app", "open-loop request source: app | gnn")
	arrival := flag.String("arrival", "poisson", "open-loop arrival process: poisson | mmpp | diurnal")
	reqGapUs := flag.Float64("req-gap-us", 100, "open-loop mean request inter-arrival gap (us)")
	horizonMs := flag.Float64("horizon-ms", 20, "open-loop arrival horizon (ms)")
	sloMs := flag.Float64("slo-ms", 5, "open-loop per-request SLO (ms from arrival)")
	budgetUs := flag.Float64("budget-us", 200, "open-loop batch-former latency budget (us)")
	batchMax := flag.Int("batch-max", 8, "open-loop batch-former size cap")
	admission := flag.String("admission", "predictor", "open-loop admission: predictor | blind")
	retrainEvery := flag.Int("retrain-every", 8,
		"open-loop predictor refit period in completed batches (0: refit only on drift)")
	tenants := flag.Int("tenants", 1, "tag work round-robin across this many tenants (1 = untenanted)")
	packing := flag.String("packing", "first-fit",
		"per-node array packing policy: first-fit | partitioned | weighted-fair")
	replicate := flag.String("replicate", "off",
		"per-node standing-replica policy: off | when-idle")
	qformat := flag.String("qformat", "",
		"fixed-point operand format for -source gnn request jobs (16, 12, 8, or qI.F; empty = q8.8)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mlimp-serve: "+format+"\n", args...)
		os.Exit(2)
	}
	if *jobs < 0 {
		fail("-j must be >= 0 (got %d)", *jobs)
	}
	if *batches <= 0 {
		fail("-batches must be positive (got %d)", *batches)
	}
	if *batchSize <= 0 {
		fail("-batch-size must be positive (got %d)", *batchSize)
	}
	if *meanGapMs <= 0 {
		fail("-mean-gap-ms must be positive (got %g)", *meanGapMs)
	}
	if *queueCap < 0 {
		fail("-queue-cap must be >= 0 (got %d)", *queueCap)
	}
	if *retries < 0 {
		fail("-retries must be >= 0 (got %d)", *retries)
	}
	if *backoffMs < 0 {
		fail("-backoff-ms must be >= 0 (got %g)", *backoffMs)
	}
	if *arrayFaultRate < 0 || *crashRate < 0 {
		fail("fault rates must be >= 0 (array-fault-rate=%g crash-rate=%g)",
			*arrayFaultRate, *crashRate)
	}
	if !(*execErrorProb >= 0 && *execErrorProb <= 1) {
		fail("-exec-error-prob must be in [0,1] (got %g)", *execErrorProb)
	}
	if *meanOutageMs < 0 || *deadlineMs < 0 {
		fail("outage and deadline must be >= 0 (mean-outage-ms=%g deadline-ms=%g)",
			*meanOutageMs, *deadlineMs)
	}
	if *reqGapUs <= 0 {
		fail("-req-gap-us must be positive (got %g)", *reqGapUs)
	}
	if *horizonMs <= 0 {
		fail("-horizon-ms must be positive (got %g)", *horizonMs)
	}
	if *sloMs <= 0 {
		fail("-slo-ms must be positive (got %g)", *sloMs)
	}
	if *budgetUs <= 0 {
		fail("-budget-us must be positive (got %g)", *budgetUs)
	}
	if *batchMax <= 0 {
		fail("-batch-max must be positive (got %d)", *batchMax)
	}
	if *retrainEvery < 0 {
		fail("-retrain-every must be >= 0 (got %d)", *retrainEvery)
	}
	if *admission != "predictor" && *admission != "blind" {
		fail("unknown -admission %q (predictor | blind)", *admission)
	}
	if *source != "app" && *source != "gnn" {
		fail("unknown -source %q (app | gnn)", *source)
	}
	if _, err := buildArrival(*arrival, 1, 2); err != nil {
		fail("%v", err)
	}
	if *tenants < 1 {
		fail("%v: tenant count must be >= 1 (got %d)", errBadTenants, *tenants)
	}
	pk, ok := sched.PackingByName(*packing)
	if !ok {
		fail("%v: unknown packing %q (have %s)", errBadPacking, *packing,
			strings.Join(sched.PackingNames(), " | "))
	}
	rp, ok := sched.ReplicationByName(*replicate)
	if !ok {
		fail("%v: unknown policy %q (have %s)", errBadReplicate, *replicate,
			strings.Join(sched.ReplicationNames(), " | "))
	}
	var reqFormat fixed.Format
	if *qformat != "" {
		if *source != "gnn" {
			fail("%v: -qformat needs -source gnn (got %q)", errBadQFormat, *source)
		}
		f, err := fixed.ParseFormat(*qformat)
		if err != nil {
			fail("%v: %v", errBadQFormat, err)
		}
		reqFormat = f
	}

	cfgs, err := parseFleet(*nodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlimp-serve: %v\n", err)
		os.Exit(1)
	}
	for i := range cfgs {
		cfgs[i].Packing = pk
		cfgs[i].Replication = rp
	}
	// Topology validates against the parsed fleet size, so -nodes and
	// -hubs are checked as a pair.
	resolvedHubs, _, err := cluster.ValidateTopology(*hubs, *hubFanout, len(cfgs))
	if err != nil {
		fail("%v (fleet has %d nodes)", err, len(cfgs))
	}
	// Fabric fault flags: parse and structurally validate up front so a
	// bad spec is a flag error (exit 2), not a mid-run failure.
	hubCrashes, err := fault.ParseHubCrashes(*hubCrash)
	if err != nil {
		fail("%v", err)
	}
	edgeFaults, err := fault.ParseEdgeFaults(*edgeFault)
	if err != nil {
		fail("%v", err)
	}
	if len(hubCrashes) > 0 && resolvedHubs < 2 {
		fail("%v: -hub-crash needs -hubs > 1", cluster.ErrHubCrashNeedsTree)
	}
	for _, e := range edgeFaults {
		if e.DropProb > 0 && *deadlineMs <= 0 {
			fail("%v: lossy -edge-fault %s>%s needs -deadline-ms > 0",
				cluster.ErrEdgeFaultNeedsDeadline, e.From, e.To)
		}
	}
	policies := cluster.PolicyNames()
	if *policy != "all" {
		if _, ok := cluster.PolicyByName(*policy); !ok {
			fmt.Fprintf(os.Stderr, "mlimp-serve: unknown policy %q (have %v)\n",
				*policy, cluster.PolicyNames())
			os.Exit(1)
		}
		policies = []string{*policy}
	}
	adm := cluster.Admission{
		QueueCap:   *queueCap,
		MaxRetries: *retries,
		Backoff:    event.Time(*backoffMs * float64(event.Millisecond)),
	}

	// Build the fault plan once so every policy faces the identical
	// failure schedule; a fault.Plan is read-only during a run.
	var plan *fault.Plan
	if *faultSeed != 0 {
		var names []string
		for _, c := range cfgs {
			names = append(names, c.Name)
		}
		gap := event.Time(*meanGapMs * float64(event.Millisecond))
		plan, err = fault.Generate(*faultSeed, fault.GenConfig{
			Nodes:              names,
			Horizon:            event.Time(*batches) * gap,
			ArrayFaultsPerNode: *arrayFaultRate,
			CrashesPerNode:     *crashRate,
			MeanOutage:         event.Time(*meanOutageMs * float64(event.Millisecond)),
			ExecErrorProb:      *execErrorProb,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlimp-serve: %v\n", err)
			os.Exit(1)
		}
	} else if *execErrorProb > 0 {
		plan = &fault.Plan{Seed: *seed, ExecErrorProb: *execErrorProb}
	}
	if len(hubCrashes) > 0 || len(edgeFaults) > 0 {
		if plan == nil {
			plan = &fault.Plan{Seed: *seed}
		}
		plan.HubCrashes = append(plan.HubCrashes, hubCrashes...)
		plan.EdgeFaults = append(plan.EdgeFaults, edgeFaults...)
	}
	if plan != nil {
		// Validate surfaces the named fault errors (bad windows, bad
		// probabilities, bad regions) as flag failures.
		if err := plan.Validate(); err != nil {
			fail("%v", err)
		}
	}
	faulty := plan != nil || *deadlineMs > 0

	if *openLoop {
		fmt.Printf("fleet: %d nodes (%s), open-loop %s arrivals (mean gap %.0fus over %.1fms), "+
			"slo %.2fms, budget %.0fus, batch-max %d, admission %s, source %s, seed %d\n\n",
			len(cfgs), *nodes, *arrival, *reqGapUs, *horizonMs, *sloMs, *budgetUs,
			*batchMax, *admission, *source, *seed)
		if plan != nil {
			fmt.Println(plan)
		}
		var fc *cluster.FaultConfig
		if faulty {
			fc = &cluster.FaultConfig{
				Plan:            plan,
				Deadline:        event.Time(*deadlineMs * float64(event.Millisecond)),
				MaxRedispatch:   *redispatch,
				BreakerK:        *breakerK,
				BreakerCooldown: event.Time(*breakerCooldownMs * float64(event.Millisecond)),
				Heartbeat:       event.Time(*heartbeatMs * float64(event.Millisecond)),
			}
		}
		runOpenLoop(policies, adm, cfgs, *jobs, resolvedHubs, openParams{
			source: *source, arrival: *arrival,
			predictorAdmission: *admission == "predictor",
			reqGap:             event.Time(*reqGapUs * float64(event.Microsecond)),
			horizon:            event.Time(*horizonMs * float64(event.Millisecond)),
			slo:                event.Time(*sloMs * float64(event.Millisecond)),
			budget:             event.Time(*budgetUs * float64(event.Microsecond)),
			batchMax:           *batchMax, retrainEvery: *retrainEvery,
			tenants: *tenants, format: reqFormat, seed: *seed, faultCfg: fc,
		})
		return
	}

	fmt.Printf("fleet: %d nodes (%s), %d batches x %d jobs, mean gap %.2fms, seed %d\n\n",
		len(cfgs), *nodes, *batches, *batchSize, *meanGapMs, *seed)
	if plan != nil {
		fmt.Println(plan)
	}
	for _, name := range policies {
		p, _ := cluster.PolicyByName(name)
		d := cluster.NewShardedDispatcher(p, adm,
			cluster.ShardConfig{Workers: *jobs, Hubs: resolvedHubs}, cfgs...)
		if faulty {
			err := d.EnableFaults(cluster.FaultConfig{
				Plan:            plan,
				Deadline:        event.Time(*deadlineMs * float64(event.Millisecond)),
				MaxRedispatch:   *redispatch,
				BreakerK:        *breakerK,
				BreakerCooldown: event.Time(*breakerCooldownMs * float64(event.Millisecond)),
				Heartbeat:       event.Time(*heartbeatMs * float64(event.Millisecond)),
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "mlimp-serve: %v\n", err)
				os.Exit(1)
			}
		}
		// Re-seeding per policy holds the workload fixed, so summaries
		// compare policies and nothing else.
		rng := rand.New(rand.NewSource(*seed))
		gap := event.Time(*meanGapMs * float64(event.Millisecond))
		for i, at := range cluster.PoissonArrivals(rng, *batches, gap) {
			tenant := ""
			if *tenants > 1 {
				tenant = fmt.Sprintf("t%d", i%*tenants)
			}
			if err := d.Submit(&runtime.Batch{ID: i, Arrival: at, Tenant: tenant,
				Jobs: workload.RandomJobs(rng, *batchSize, i*1000)}); err != nil {
				fmt.Fprintf(os.Stderr, "mlimp-serve: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Println(d.Run())
	}
}

// buildArrival maps an -arrival flag value to a process. The mmpp and
// diurnal shapes are fixed relative to the mean gap and horizon: mmpp
// alternates a calm state with an 8x burst, diurnal rides one sine
// period across the horizon with a 4x flash crowd in the middle.
func buildArrival(kind string, gap, horizon event.Time) (serve.ArrivalProcess, error) {
	switch kind {
	case "poisson":
		return serve.Poisson{MeanGap: gap}, nil
	case "mmpp":
		return &serve.MMPP{States: []serve.MMPPState{
			{MeanGap: gap, MeanDwell: 30 * gap},
			{MeanGap: gap / 8, MeanDwell: 10 * gap},
		}}, nil
	case "diurnal":
		return serve.Diurnal{
			Base: serve.Poisson{MeanGap: gap}, Period: horizon, Amplitude: 0.6,
			FlashAt: horizon / 2, FlashDur: horizon / 10, FlashBoost: 4,
		}, nil
	}
	return nil, fmt.Errorf("unknown -arrival %q (poisson | mmpp | diurnal)", kind)
}

// serveDataset is the GNN request stand-in for -source gnn: a small
// scale-free graph whose 2-hop subgraphs make substantial SpMM jobs.
var serveDataset = graph.Dataset{Name: "serve", Vertices: 1200,
	InputFeat: 64, HiddenFeat: 64, ScaleDiv: 1, Attachment: 8}

// trainServePredictor fits the request cost predictor once; each policy
// run clones it so online retraining starts from identical weights.
func trainServePredictor(seed int64) *predict.MLP {
	rng := rand.New(rand.NewSource(seed + 1))
	g := serveDataset.Generate(rng)
	s := graph.NewSampler(rng, g, 2, 0)
	var training []*tensor.CSR
	for i := 0; i < 32; i++ {
		training = append(training, s.Sample(rng.Intn(g.N)).Adj)
	}
	return predict.Train(rng, training, serveDataset.InputFeat,
		predict.TrainConfig{Epochs: 150, LR: 2e-3})
}

// openParams bundles the open-loop front-end settings.
type openParams struct {
	source, arrival        string
	predictorAdmission     bool
	reqGap, horizon, slo   event.Time
	budget                 event.Time
	batchMax, retrainEvery int
	tenants                int
	format                 fixed.Format // gnn request operand width; zero = default
	seed                   int64
	faultCfg               *cluster.FaultConfig
}

// runOpenLoop drives the request-level front end once per policy, with
// the request trace held fixed across policies.
func runOpenLoop(policies []string, adm cluster.Admission, cfgs []cluster.NodeConfig,
	workers, hubs int, p openParams) {
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "mlimp-serve: %v\n", err)
		os.Exit(1)
	}
	sys := sched.NewSystem(isa.Targets...)
	var basePred *predict.MLP
	if p.source == "gnn" {
		basePred = trainServePredictor(p.seed)
	}
	for _, name := range policies {
		pol, _ := cluster.PolicyByName(name)
		d := cluster.NewShardedDispatcher(pol, adm,
			cluster.ShardConfig{Workers: workers, Hubs: hubs}, cfgs...)
		if p.faultCfg != nil {
			if err := d.EnableFaults(*p.faultCfg); err != nil {
				die(err)
			}
		}
		rng := rand.New(rand.NewSource(p.seed))
		proc, err := buildArrival(p.arrival, p.reqGap, p.horizon)
		if err != nil {
			die(err)
		}
		arr := serve.Trace(rng, proc, 0, p.horizon)
		if len(arr) == 0 {
			die(fmt.Errorf("no arrivals: raise -horizon-ms or lower -req-gap-us"))
		}
		var (
			reqs   []*serve.Request
			build  func(*serve.Request) *sched.Job
			pred   *predict.MLP
			mirror *sched.System
		)
		if p.source == "gnn" {
			pred = basePred.Clone()
			src := serve.NewGNNSource(rng, serveDataset, serveDataset.InputFeat, pred, sys)
			src.Format = p.format
			reqs = src.Requests(rng, arr, p.slo)
			build = src.BuildJob
			mirror = sys
		} else {
			src := serve.NewAppSource(sys)
			reqs = src.Requests(rng, arr, p.slo)
			build = src.BuildJob
		}
		if p.tenants > 1 {
			serve.AssignTenants(reqs, p.tenants)
		}
		fe, err := serve.New(d, serve.Config{
			Requests: reqs, Budget: p.budget, BatchMax: p.batchMax,
			PredictorAdmission: p.predictorAdmission, BuildJob: build,
			Predictor: pred, Mirror: mirror,
			RetrainEvery: p.retrainEvery, Seed: p.seed,
		})
		if err != nil {
			die(err)
		}
		fmt.Printf("policy %s:\n%s\n\n", name, fe.Run())
	}
}
