package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkFleet-8           	     100	   1200000 ns/op	  500 B/op	      42 allocs/op
BenchmarkExtension_Replication 	      50	   2400000.5 ns/op
PASS
`
	got, allocs, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got))
	}
	if got["BenchmarkFleet"] != 1200000 {
		t.Errorf("BenchmarkFleet = %v (the -8 suffix must be stripped)", got["BenchmarkFleet"])
	}
	if got["BenchmarkExtension_Replication"] != 2400000.5 {
		t.Errorf("BenchmarkExtension_Replication = %v", got["BenchmarkExtension_Replication"])
	}
	// Only the -benchmem line carries allocs/op.
	if len(allocs) != 1 || allocs["BenchmarkFleet"] != 42 {
		t.Errorf("allocs = %v, want BenchmarkFleet: 42 only", allocs)
	}
}

func TestCompareGeomeanGate(t *testing.T) {
	base := Baseline{NsPerOp: map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100}}
	var sb strings.Builder
	if compare(&sb, base, map[string]float64{"BenchmarkA": 105, "BenchmarkB": 105}, 1.10, 0) {
		t.Errorf("5%% regression under a 10%% threshold must pass:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, base, map[string]float64{"BenchmarkA": 150, "BenchmarkB": 150}, 1.10, 0) {
		t.Errorf("50%% regression must fail:\n%s", sb.String())
	}
}

func TestCompareToleranceGate(t *testing.T) {
	base := Baseline{NsPerOp: map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100}}
	// One benchmark +30%, the other -20%: geomean ~1.02 passes the
	// threshold, but the per-bench tolerance catches the outlier.
	got := map[string]float64{"BenchmarkA": 130, "BenchmarkB": 80}
	var sb strings.Builder
	if compare(&sb, base, got, 1.10, 0) {
		t.Errorf("without -tolerance the averaged-out outlier must pass:\n%s", sb.String())
	}
	sb.Reset()
	if !compare(&sb, base, got, 1.10, 10) {
		t.Fatalf("-tolerance 10 must catch the +30%% outlier:\n%s", sb.String())
	}
	// The failure output must name the benchmark and its delta.
	if out := sb.String(); !strings.Contains(out, "BenchmarkA +30.0%") {
		t.Errorf("failure output missing per-bench delta:\n%s", out)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := Baseline{NsPerOp: map[string]float64{"BenchmarkA": 100, "BenchmarkGone": 100}}
	var sb strings.Builder
	if !compare(&sb, base, map[string]float64{"BenchmarkA": 100}, 1.10, 0) {
		t.Errorf("baseline benchmark missing from the run must fail:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "MISSING") {
		t.Errorf("missing benchmark not reported:\n%s", sb.String())
	}
}

func TestCompareAllocsGate(t *testing.T) {
	base := Baseline{
		NsPerOp:     map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100},
		AllocsPerOp: map[string]float64{"BenchmarkA": 1000, "BenchmarkB": 50},
	}
	var sb strings.Builder
	if compareAllocs(&sb, base, map[string]float64{"BenchmarkA": 1050, "BenchmarkB": 40}, 10) {
		t.Errorf("+5%% allocs under a 10%% tolerance must pass:\n%s", sb.String())
	}
	sb.Reset()
	if !compareAllocs(&sb, base, map[string]float64{"BenchmarkA": 1200, "BenchmarkB": 50}, 10) {
		t.Fatalf("+20%% allocs must fail a 10%% tolerance:\n%s", sb.String())
	}
	if out := sb.String(); !strings.Contains(out, "BenchmarkA allocs/op 1000 -> 1200") {
		t.Errorf("failure output missing the regressed benchmark:\n%s", out)
	}
	// A run without -benchmem cannot silently skip the gate.
	sb.Reset()
	if !compareAllocs(&sb, base, map[string]float64{}, 10) {
		t.Errorf("run without allocs/op must fail when the baseline records them:\n%s", sb.String())
	}
	// A baseline without allocs/op gates nothing.
	sb.Reset()
	if compareAllocs(&sb, Baseline{NsPerOp: base.NsPerOp}, map[string]float64{"BenchmarkA": 1e9}, 10) {
		t.Errorf("baseline without allocs/op must not gate allocs:\n%s", sb.String())
	}
}
