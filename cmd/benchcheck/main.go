// Command benchcheck is the bench-regression gate: it parses `go test
// -bench` output (stdin or -in), compares each benchmark's ns/op
// against a committed baseline JSON, and fails when the geometric mean
// of the ratios regresses past -threshold. With -update it rewrites the
// baseline from the measured run instead of comparing, which is how the
// baseline file is refreshed after an intentional perf change.
//
// Usage:
//
//	go test -run '^$' -bench 'Fleet|Extension' -benchmem . | benchcheck -baseline BENCH_BASELINE.json
//	go test -run '^$' -bench 'Fleet|Extension' -benchmem . | benchcheck -baseline BENCH_BASELINE.json -update
//
// allocs/op (from -benchmem output) is gated per benchmark: any
// baseline benchmark whose allocs/op rises more than -allocs-tolerance
// percent, or that the run reports no allocs/op for, fails the check.
//
// Benchmarks present in the run but missing from the baseline are
// reported and skipped (they cannot regress); baseline entries missing
// from the run fail the check, so a silently deleted benchmark cannot
// hide a regression. -threshold gates the geomean; -tolerance
// additionally gates each individual benchmark, so one badly regressed
// benchmark cannot hide inside an acceptable average. The comparison is benchstat-flavoured but
// dependency-free: single-sample geomean with a per-bench report,
// which is the right weight for a CI smoke gate (full statistics need
// -count >= 10 and a real benchstat run).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Baseline is the committed reference: benchmark name (with the -P GOMAXPROCS
// suffix stripped) to ns/op and, when recorded with -benchmem, allocs/op.
type Baseline struct {
	// Note explains how the file was produced; carried through -update.
	Note        string             `json:"note,omitempty"`
	NsPerOp     map[string]float64 `json:"ns_per_op"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// benchLine matches `BenchmarkName-8   100   12345 ns/op   ...` and the
// suffix-less form emitted with GOMAXPROCS unset; allocsField matches the
// `  42 allocs/op` column -benchmem appends.
var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	allocsField = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

// parseBench returns each benchmark's ns/op and, for lines carrying a
// -benchmem column, its allocs/op.
func parseBench(r io.Reader) (ns, allocs map[string]float64, err error) {
	ns, allocs = map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if ns[m[1]], err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		if a := allocsField.FindStringSubmatch(line); a != nil {
			if allocs[m[1]], err = strconv.ParseFloat(a[1], 64); err != nil {
				return nil, nil, fmt.Errorf("bad allocs/op in %q: %v", line, err)
			}
		}
	}
	return ns, allocs, sc.Err()
}

func main() {
	baseline := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline JSON")
	in := flag.String("in", "", "bench output file; default stdin")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	threshold := flag.Float64("threshold", 1.10,
		"fail when geomean(new/old) exceeds this ratio")
	tolerance := flag.Float64("tolerance", 0,
		"fail when any single benchmark regresses more than this percentage (0 disables the per-bench gate)")
	allocsTolerance := flag.Float64("allocs-tolerance", 10,
		"fail when any benchmark's allocs/op exceeds its baseline by more than this percentage")
	note := flag.String("note", "", "note stored in the baseline on -update")
	flag.Parse()
	if *tolerance < 0 {
		fatal(fmt.Errorf("-tolerance must be >= 0 (got %g)", *tolerance))
	}
	if *allocsTolerance < 0 {
		fatal(fmt.Errorf("-allocs-tolerance must be >= 0 (got %g)", *allocsTolerance))
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	got, allocs, err := parseBench(src)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *update {
		old := Baseline{}
		if raw, err := os.ReadFile(*baseline); err == nil {
			_ = json.Unmarshal(raw, &old)
		}
		b := Baseline{Note: old.Note, NsPerOp: got}
		if len(allocs) > 0 {
			b.AllocsPerOp = allocs
		}
		if *note != "" {
			b.Note = *note
		}
		raw, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baseline, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(got), *baseline)
		return
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("%s: %v", *baseline, err))
	}

	failed := compare(os.Stdout, base, got, *threshold, *tolerance)
	if compareAllocs(os.Stdout, base, allocs, *allocsTolerance) || failed {
		os.Exit(1)
	}
	fmt.Println("benchcheck: PASS")
}

// compare writes the per-benchmark report and returns true when the
// check fails: a baseline benchmark missing from the run, the geomean
// past threshold, or (with tolerance > 0) any single benchmark
// regressed by more than tolerance percent — each per-bench failure
// names the benchmark and its delta percentage.
func compare(w io.Writer, base Baseline, got map[string]float64, threshold, tolerance float64) bool {
	var names []string
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)

	logSum, n := 0.0, 0
	fail := false
	var over []string
	for _, name := range names {
		old := base.NsPerOp[name]
		now, ok := got[name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %-50s baseline %.0f ns/op, not in run\n", name, old)
			fail = true
			continue
		}
		ratio := now / old
		logSum += math.Log(ratio)
		n++
		delta := (ratio - 1) * 100
		tag := "ok      "
		if tolerance > 0 && delta > tolerance {
			tag = "SLOWER  "
			over = append(over, fmt.Sprintf("%s %+.1f%%", name, delta))
		} else if ratio > threshold {
			tag = "SLOWER  "
		} else if ratio < 1/threshold {
			tag = "faster  "
		}
		fmt.Fprintf(w, "%s %-50s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
			tag, name, old, now, delta)
	}
	for name := range got {
		if _, ok := base.NsPerOp[name]; !ok {
			fmt.Fprintf(w, "new      %-50s %12.0f ns/op (not in baseline, skipped)\n", name, got[name])
		}
	}
	if n == 0 {
		fatal(fmt.Errorf("no overlapping benchmarks between run and baseline"))
	}
	geomean := math.Exp(logSum / float64(n))
	fmt.Fprintf(w, "geomean  %.3fx over %d benchmarks (threshold %.2fx)\n", geomean, n, threshold)
	if geomean > threshold {
		fmt.Fprintf(w, "benchcheck: FAIL — geomean regression %.1f%% exceeds %.0f%%\n",
			(geomean-1)*100, (threshold-1)*100)
		fail = true
	}
	for _, o := range over {
		fmt.Fprintf(w, "benchcheck: FAIL — %s exceeds -tolerance %.0f%%\n", o, tolerance)
		fail = true
	}
	return fail
}

// compareAllocs gates allocs/op per benchmark: it returns true when any
// baseline allocs/op entry is missing from the run (e.g. the run lacked
// -benchmem) or grew by more than tolerance percent.
func compareAllocs(w io.Writer, base Baseline, allocs map[string]float64, tolerance float64) bool {
	var names []string
	for name := range base.AllocsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	fail := false
	for _, name := range names {
		old := base.AllocsPerOp[name]
		now, ok := allocs[name]
		if !ok {
			fmt.Fprintf(w, "benchcheck: FAIL — %s has no allocs/op in the run (baseline %.0f; run with -benchmem)\n", name, old)
			fail = true
			continue
		}
		if now > old*(1+tolerance/100) {
			fmt.Fprintf(w, "benchcheck: FAIL — %s allocs/op %.0f -> %.0f exceeds -allocs-tolerance %.0f%%\n",
				name, old, now, tolerance)
			fail = true
		}
	}
	if len(names) > 0 && !fail {
		fmt.Fprintf(w, "allocs   %d benchmarks within %.0f%% of baseline allocs/op\n", len(names), tolerance)
	}
	return fail
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
	os.Exit(1)
}
