// Command perfbench is the repository benchmark: it builds one workload
// from a seed, runs it through the simulator's public entry points for
// a fixed host-time budget, checks the simulated outputs, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of standard output, one JSON object.
//
//	go run . --workload batch-gnn --seed 1 --seconds 10 --trace 0
//
// See README.md for the metrics, the workloads and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// Named output-check failures.
var (
	errConservation = errors.New("conservation violated")
	errExactlyOnce  = errors.New("exactly-once settlement violated")
	errUnassigned   = errors.New("batch job unassigned")
	errDigest       = errors.New("simulated digest differs")
	errInputs       = errors.New("set-up not deterministic")
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by an untraced run, in this order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"host_s", "s"},
	{"jobs_per_host_s", "jobs/s"},
	{"allocs_per_job", "allocs"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
	{"sim_makespan_ms", "ms"},
	{"sim_energy_mj", "mJ"},
	{"sim_p50_ms", "ms"},
	{"sim_p99_ms", "ms"},
	{"sim_goodput_rps", "req/s"},
	{"slo_met_frac", "ratio"},
	{"served_frac", "ratio"},
}

// layerMetrics are reported by a traced run, in this order. A layer a
// workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"graph.generate_s", "s"},
	{"graph.samples", "count"},
	{"graph.sample_us_p50", "us"},
	{"predict.train_s", "s"},
	{"predict.refits", "count"},
	{"predict.abs_log_err", "ratio"},
	{"gnn.all_jobs_s", "s"},
	{"sched.schedule_s", "s"},
	{"sched.model_hit_ratio", "ratio"},
	{"sched.knee_hit_ratio", "ratio"},
	{"sched.memo_clears", "count"},
	{"sched.busy_ms.sram", "ms"},
	{"sched.busy_ms.dram", "ms"},
	{"sched.busy_ms.reram", "ms"},
	{"sched.jobs.sram", "count"},
	{"sched.jobs.dram", "count"},
	{"sched.jobs.reram", "count"},
	{"energy.compute_mj", "mJ"},
	{"energy.transfer_mj", "mJ"},
	{"energy.static_mj", "mJ"},
	{"serve.run_s", "s"},
	{"serve.build_jobs", "count"},
	{"serve.build_job_us_p50", "us"},
	{"serve.sealed", "count"},
	{"serve.batch_fill", "ratio"},
	{"serve.former_wait_us_p99", "us"},
	{"serve.shed_admission", "count"},
	{"serve.shed_overload", "count"},
	{"cluster.submit_us_p50", "us"},
	{"cluster.run_s", "s"},
	{"cluster.queue_p50_ms", "ms"},
	{"cluster.queue_p99_ms", "ms"},
	{"cluster.node_util_mean", "ratio"},
	{"cluster.est_hit_ratio", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.redispatches", "count"},
	{"cluster.dead_lettered", "count"},
	{"cluster.takeovers", "count"},
	{"cluster.rehomed", "count"},
	{"cluster.settle_ratio", "ratio"},
	{"parsim.windows", "count"},
	{"parsim.avg_active", "shards"},
	{"parsim.max_active", "shards"},
	{"parsim.dropped", "count"},
	{"parsim.delayed", "count"},
	{"parsim.host_us_per_window", "us"},
	{"parsim.speedup", "x"},
	{"trace.overhead_s", "s"},
}

// Run-shape constants: set-up is repeated at least minSetups times and
// until setupBudget has passed (at most maxSetups), and the measured
// loop runs at least minSims simulations.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 2 * time.Second
	minSims     = 3
	speedupSims = 3
	// calibrateShare: after a set-up or simulation, kernel passes run
	// for at least 1/calibrateShare of its time (at least one pass).
	calibrateShare = 4
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	breakOut string // "digest" or "conservation": corrupt one check on purpose
}

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "trace")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: batch-gnn, serve-gnn or fleet-chaos")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds the measured loop runs")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.breakOut, "break", "", "self-test: corrupt the 'digest' or 'conservation' check of one simulation")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(o.workload)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	case o.seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case o.breakOut != "" && o.breakOut != "digest" && o.breakOut != "conservation":
		fmt.Fprintf(stderr, "perfbench: --break must be digest or conservation\n")
		return 2
	}
	rep, err := bench(sp, o, stdout)
	if rep == nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stdout, "check failed: %v\n", err)
	}
	b, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if err != nil {
		return 1
	}
	return 0
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measured is one simulation with its host cost.
type measured struct {
	host    time.Duration
	scaled  float64 // host in reference seconds
	mallocs uint64
	bytes   uint64
	res     simResult
}

// simulateOnce runs one simulation between two forced collections, so
// every simulation starts from the same heap state, and returns its
// host time, heap allocations and the live heap it leaves behind.
func simulateOnce(w inputs, workers int, tr *tracer) (measured, uint64) {
	var before, after goruntime.MemStats
	goroutines := goruntime.NumGoroutine()
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	root := tr.begin("sim", -1)
	start := time.Now()
	res := w.simulate(workers, tr, root)
	host := time.Since(start)
	tr.end(root)
	goruntime.ReadMemStats(&after)
	m := measured{host: host, mallocs: after.Mallocs - before.Mallocs,
		bytes: after.TotalAlloc - before.TotalAlloc, res: res}
	// The parsim worker pool winds down after Run returns, and until a
	// worker exits it keeps the finished simulation reachable; wait for
	// them (at most a second) so the live heap is the simulation's own.
	for deadline := time.Now().Add(time.Second); goruntime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	return m, after.HeapAlloc
}

// runState accumulates one invocation's measurements and check failures.
type runState struct {
	o        options
	attempts int
	failed   int
	errs     []error
	liveHeap uint64
	digest   string // the first simulation's; every later one must match it
}

// check applies the output checks to one simulation: conservation, the
// workload's own checks, and the digest against the run's first
// simulation. what names the simulation in a digest error.
func (st *runState) check(m *measured, what string) {
	st.attempts++
	if st.o.breakOut == "conservation" && st.attempts == 1 {
		m.res.out.completed--
	}
	if st.o.breakOut == "digest" && st.attempts == 2 {
		m.res.digest += " (corrupted)"
	}
	errs := m.res.errs
	if err := m.res.out.conserved(); err != nil {
		errs = append(errs, err)
	}
	if st.attempts == 1 {
		st.digest = m.res.digest
	} else if err := sameDigest(what, st.digest, m.res.digest); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		st.failed++
		st.errs = append(st.errs, errs...)
	}
}

func (st *runState) fail(err error) {
	if err != nil {
		st.errs = append(st.errs, err)
	}
}

func (st *runState) heap(h uint64) { st.liveHeap = max(st.liveHeap, h) }

// setUp builds the inputs repeatedly from the same seed, at least
// minSetups times and for setupBudget, with reference kernel passes
// before the first repetition and after each one. It returns the wall
// time of each repetition and the same scaled to reference seconds,
// whose median is setup_s. Every repetition must build identical inputs.
func setUp(sp spec, seed int64, tr *tracer, st *runState) (w inputs, wall, ref []float64, err error) {
	var prints []string
	prev := calibrate(1, 0)
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < setupBudget); i++ {
		w = nil // let the previous repetition's inputs be collected
		goruntime.GC()
		root := tr.begin("setup", -1)
		start := time.Now()
		w, err = sp.setup(seed, tr, root)
		took := time.Since(start)
		tr.end(root)
		if err != nil {
			return nil, nil, nil, err
		}
		prints = append(prints, w.fingerprint())
		next := calibrate(1, took/calibrateShare)
		wall = append(wall, took.Seconds())
		ref = append(ref, scaled(took.Seconds(), prev, next))
		prev = next
	}
	for i, p := range prints[1:] {
		if err := sameDigest(fmt.Sprintf("set-up %d", i+1), prints[0], p); err != nil {
			st.fail(fmt.Errorf("%w: %v", errInputs, err))
		}
	}
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	st.heap(ms.HeapAlloc)
	return w, wall, ref, nil
}

// bench runs one invocation: repeated set-up, the measured loop, the
// determinism checks and the metric computation. A nil report means the
// benchmark could not run at all.
func bench(sp spec, o options, stdout io.Writer) (*report, error) {
	st := &runState{o: o}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer(sp.name)
	}

	w, setupWall, setupRef, err := setUp(sp, o.seed, tr, st)
	if err != nil {
		return nil, err
	}

	// One warm-up simulation lets the heap grow and lazy state settle
	// before anything is timed; its outputs are checked all the same.
	workers := sp.workers()
	warm, h := simulateOnce(w, workers, nil)
	st.heap(h)
	st.check(&warm, "warm-up")

	// Measured loop. A traced run alternates untraced and traced
	// simulations, so the tracing overhead is measured under the same
	// host conditions. Reference kernel passes run before the first
	// simulation and after each one, and scale the simulation between.
	var plain, traced []measured
	budget := time.Duration(o.seconds * float64(time.Second))
	begin := time.Now()
	prev := calibrate(workers, 0)
	for i := 0; len(plain) < minSims || (tr != nil && len(traced) < minSims) || time.Since(begin) < budget; i++ {
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		m, h := simulateOnce(w, workers, t)
		next := calibrate(workers, m.host/calibrateShare)
		m.scaled = scaled(m.host.Seconds(), prev, next)
		prev = next
		st.heap(h)
		what := fmt.Sprintf("simulation %d", i)
		if t != nil {
			what = "traced " + what
		}
		st.check(&m, what)
		if t == nil {
			plain = append(plain, m)
		} else {
			traced = append(traced, m)
		}
	}

	// Worker-count determinism: the simulated digest at one parsim
	// worker must equal the one at the measured worker count.
	var serial []measured
	if workers > 1 {
		n := 1
		if tr != nil {
			n = speedupSims
		}
		for i := 0; i < n; i++ {
			m, h := simulateOnce(w, 1, nil)
			st.heap(h)
			st.check(&m, fmt.Sprintf("workers=1 simulation (measured at workers=%d)", workers))
			serial = append(serial, m)
		}
	}

	e2e := endToEnd(median(setupRef), plain, st.liveHeap)
	fmt.Fprintf(stdout, "workload=%s seed=%d workers=%d setups=%d sims=%d traced=%d\n",
		sp.name, o.seed, workers, len(setupWall), len(plain), len(traced))
	fmt.Fprintf(stdout, "unscaled wall clock (medians): setup %.4g s, simulation %.4g s\n",
		median(setupWall), hostMedian(plain))
	printMetrics(stdout, e2eMetrics, e2e)
	exercised(stdout, sp.name, plain[0].res)

	rep := &report{Attempted: st.attempts, Failed: st.failed, Metrics: map[string]metricValue{}}
	if tr == nil {
		for _, d := range e2eMetrics {
			rep.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	} else {
		layer := perLayer(tr, plain, traced, serial)
		printMetrics(stdout, layerMetrics, layer)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", sp.name, o.seed))
		if err := tr.write(path); err != nil {
			st.fail(err)
		} else {
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
		for _, d := range layerMetrics {
			rep.Metrics[d.name] = metricValue{layer[d.name], d.unit}
		}
	}
	for name, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			st.fail(fmt.Errorf("metric %s is not a number", name))
			rep.Metrics[name] = metricValue{0, v.Unit}
		}
	}
	rep.Correct = len(st.errs) == 0
	return rep, errors.Join(st.errs...)
}

func hostMedian(ms []measured) float64 {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = m.host.Seconds()
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics from the scaled set-up time
// and the untraced simulations.
func endToEnd(setup float64, ms []measured, liveHeap uint64) map[string]float64 {
	mallocs := make([]float64, len(ms))
	bytes := make([]float64, len(ms))
	host := make([]float64, len(ms))
	for i, m := range ms {
		mallocs[i] = float64(m.mallocs)
		bytes[i] = float64(m.bytes)
		host[i] = m.scaled
	}
	res := ms[0].res
	return map[string]float64{
		"setup_s":         setup,
		"host_s":          median(host),
		"jobs_per_host_s": ratio(float64(res.jobs), median(host)),
		"allocs_per_job":  ratio(median(mallocs), float64(res.jobs)),
		"alloc_mb":        median(bytes) / 1e6,
		"live_heap_mb":    float64(liveHeap) / 1e6,
		"sim_makespan_ms": res.sim.makespanMs,
		"sim_energy_mj":   res.sim.energyMJ,
		"sim_p50_ms":      res.sim.p50Ms,
		"sim_p99_ms":      res.sim.p99Ms,
		"sim_goodput_rps": res.sim.goodputRPS,
		"slo_met_frac":    res.sim.sloMetFrac,
		"served_frac":     res.out.servedFrac(),
	}
}

// perLayer computes the per-layer metrics: span self times from the
// traced simulations and set-ups, and the layers' own counters from
// the simulation summaries.
func perLayer(tr *tracer, plain, traced, serial []measured) map[string]float64 {
	spans := tr.snapshot()
	setup := aggregate(spans, "setup")
	sims := aggregate(spans, "sim")
	// Views are observed only in traced simulations.
	m := map[string]float64{}
	for k, v := range traced[0].res.layer {
		m[k] = v
	}
	m["graph.generate_s"] = setup.medianSelf("graph.generate")
	m["graph.samples"] = setup.medianCount("graph.sample")
	m["graph.sample_us_p50"] = setup.callP50us("graph.sample")
	m["predict.train_s"] = setup.medianSelf("predict.train")
	m["gnn.all_jobs_s"] = sims.medianSelf("gnn.all_jobs")
	m["sched.schedule_s"] = sims.medianSelf("sched.schedule")
	m["serve.run_s"] = sims.medianSelf("serve.run")
	m["serve.build_jobs"] = sims.medianCount("serve.build_job")
	m["serve.build_job_us_p50"] = sims.callP50us("serve.build_job")
	m["cluster.submit_us_p50"] = sims.callP50us("cluster.submit")
	m["cluster.run_s"] = sims.medianSelf("cluster.run")
	m["parsim.host_us_per_window"] = ratio(m["cluster.run_s"]*1e6, m["parsim.windows"])
	if len(serial) > 0 {
		m["parsim.speedup"] = ratio(hostMedian(serial), hostMedian(plain))
	}
	m["trace.overhead_s"] = hostMedian(traced) - hostMedian(plain)
	return m
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// exercised prints whether the simulation reached the mechanisms its
// workload exists to exercise. It is a property of the seed's inputs,
// not an output check, so it does not fail the run.
func exercised(w io.Writer, name string, r simResult) {
	var notes []string
	switch name {
	case "serve-gnn":
		notes = append(notes, fmt.Sprintf("shed>0: %v", r.out.shed > 0))
	case "fleet-chaos":
		notes = append(notes,
			fmt.Sprintf("takeovers>0: %v", r.layer["cluster.takeovers"] > 0),
			fmt.Sprintf("dead-lettered>0: %v", r.out.deadLettered > 0))
	case "batch-gnn":
		notes = append(notes, fmt.Sprintf("all layers used: %v",
			r.layer["sched.jobs.sram"] > 0 && r.layer["sched.jobs.dram"] > 0 && r.layer["sched.jobs.reram"] > 0))
	}
	fmt.Fprintf(w, "exercised: %s\n", strings.Join(notes, " "))
}
