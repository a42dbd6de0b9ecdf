package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {150, 5},
		{10, 1.4}, // rank 0.4 between 1 and 2
		{99, 4.96},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of empty = %v, want NaN", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  [][2]time.Duration
		want time.Duration
	}{
		{"none", nil, 0},
		{"disjoint", [][2]time.Duration{{ms(1), ms(2)}, {ms(4), ms(6)}}, ms(3)},
		{"overlapping", [][2]time.Duration{{ms(1), ms(5)}, {ms(3), ms(7)}}, ms(6)},
		{"nested", [][2]time.Duration{{ms(1), ms(8)}, {ms(2), ms(3)}}, ms(7)},
		{"clipped", [][2]time.Duration{{-ms(5), ms(2)}, {ms(9), ms(20)}}, ms(3)},
		{"outside", [][2]time.Duration{{ms(20), ms(30)}}, 0},
		{"unsorted touching", [][2]time.Duration{{ms(5), ms(6)}, {ms(2), ms(5)}}, ms(4)},
	} {
		if got := covered(0, ms(10), tc.ivs); got != tc.want {
			t.Errorf("%s: covered = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children [10,30) and [20,50) that overlap (two
	// workers) and a grandchild [12,18) inside the first child.
	spans := []span{
		{ID: 0, Parent: -1, Name: "sim", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "sched", Start: ms(10), End: ms(30)},
		{ID: 2, Parent: 0, Name: "sched", Start: ms(20), End: ms(50)},
		{ID: 3, Parent: 1, Name: "est", Start: ms(12), End: ms(18)},
		{ID: 4, Parent: 0, Name: "open", Start: ms(60), End: -1},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(60), ms(14), ms(30), ms(6), 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
	}
	lt := aggregate(spans, "sim")
	if got := lt.medianSelf("sched"); got != ms(44).Seconds() {
		t.Errorf("sched self = %v, want 0.044", got)
	}
	if got := lt.medianCount("sched"); got != 2 {
		t.Errorf("sched count = %v, want 2", got)
	}
	if got := lt.callP50us("sched"); got != 25000 {
		t.Errorf("sched call p50 = %vus, want 25000", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer span id = %d", id)
	}
	live := newTracer("w")
	a := live.begin("a", -1)
	b := live.begin("b", a)
	live.end(b)
	live.end(a)
	got := live.snapshot()
	if len(got) != 2 || got[1].Parent != a || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}

// TestTracerConcurrent opens and closes spans from several goroutines
// at once, as node schedulers do under parallel simulation.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("sim", -1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.end(tr.begin("sched.schedule", root))
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	lt := aggregate(tr.snapshot(), "sim")
	if got := lt.medianCount("sched.schedule"); got != 400 {
		t.Errorf("spans = %v, want 400", got)
	}
}

func TestOutcomeCounting(t *testing.T) {
	o := outcome{offered: 200, completed: 150, shed: 30, deadLettered: 15, unassigned: 5}
	if o.failed() != 50 {
		t.Errorf("failed = %d, want 50", o.failed())
	}
	if o.failedFrac() != 0.25 || o.servedFrac() != 0.75 {
		t.Errorf("failedFrac = %v servedFrac = %v", o.failedFrac(), o.servedFrac())
	}
	if err := o.conserved(); err != nil {
		t.Errorf("conserved: %v", err)
	}
	o.completed--
	if err := o.conserved(); !errors.Is(err, errConservation) {
		t.Errorf("lost unit: err = %v, want errConservation", err)
	}
	if f := (outcome{}).failedFrac(); f != 0 {
		t.Errorf("empty failedFrac = %v", f)
	}
}

func TestSettleRatio(t *testing.T) {
	if got := settleRatio(90, 6, 4); got != 0.9 {
		t.Errorf("settleRatio = %v, want 0.9", got)
	}
	if got := settleRatio(10, 0, 0); got != 1 {
		t.Errorf("clean settleRatio = %v, want 1", got)
	}
	if got := settleRatio(0, 0, 0); got != 0 {
		t.Errorf("empty settleRatio = %v, want 0", got)
	}
}

func TestOnceSeen(t *testing.T) {
	s := onceSeen{0: 1, 1: 1, 2: 1}
	if err := s.check(3); err != nil {
		t.Errorf("clean: %v", err)
	}
	if err := s.check(4); !errors.Is(err, errExactlyOnce) {
		t.Errorf("missing ID: err = %v", err)
	}
	s[1]++
	if err := s.check(3); !errors.Is(err, errExactlyOnce) {
		t.Errorf("double settle: err = %v", err)
	}
}

func TestSameDigest(t *testing.T) {
	if err := sameDigest("sim 1", "a\nb", "a\nb"); err != nil {
		t.Errorf("equal digests: %v", err)
	}
	err := sameDigest("sim 2", "a\nb", "a\nc")
	if !errors.Is(err, errDigest) {
		t.Fatalf("differing digests: err = %v", err)
	}
	if !strings.Contains(err.Error(), "sim 2") || !strings.Contains(err.Error(), "c\nvs\nb") {
		t.Errorf("error does not name the simulation and the differing lines: %v", err)
	}
	if got := firstLineDiff("a", "a\nc"); got != "(prefix)" {
		t.Errorf("prefix firstLineDiff = %q", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// and the metrics this command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, command defines %s", i, w.Name, specs[i].name)
		}
	}
}

func TestRefKernelDeterministic(t *testing.T) {
	a, b := refKernel(1), refKernel(1)
	if a != b {
		t.Errorf("refKernel(1) = %x then %x", a, b)
	}
	if refKernel(2) == a {
		t.Error("refKernel ignores its seed")
	}
}

func TestCalibrate(t *testing.T) {
	if pass := calibrate(2, 0); pass <= 0 {
		t.Errorf("calibrate(2, 0) = %v, want a positive pass time", pass)
	}
	if got := scaled(3, 0.1, 0.3); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("scaled = %v, want 1.5 (3 s x 0.1 s nominal / 0.2 s mean pass)", got)
	}
}
