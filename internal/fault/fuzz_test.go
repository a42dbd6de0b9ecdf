package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// FuzzPlanValidate drives Validate/String/Empty/ExecError over
// arbitrary plans assembled from primitive fuzz arguments. The
// invariants: nothing panics, a plan that validates renders one line
// per fault, Empty is consistent with the contents, and the ExecError
// coin is pure in (seed, batch, attempt) whether or not the plan is
// valid.
func FuzzPlanValidate(f *testing.F) {
	f.Add(int64(1), 0.1, "node0", int64(1), int64(2), 4, 0.5, int64(3), int64(0), "hub0", "hub1", 0.9, int64(5), int64(10), 1)
	f.Add(int64(7), 1.5, "", int64(-1), int64(0), -2, -0.5, int64(9), int64(9), "a", "a", -1.0, int64(-4), int64(2), 0)
	f.Add(int64(0), 0.0, "n", int64(0), int64(0), 0, 0.0, int64(0), int64(0), "", "", 0.0, int64(0), int64(0), 3)
	f.Fuzz(func(t *testing.T, seed int64, prob float64, node string,
		at, rec int64, arrays int, frac float64,
		hubAt, hubRec int64, from, to string, drop float64,
		edgeAt, edgeUntil int64, region int) {
		p := &Plan{
			Seed:          seed,
			ExecErrorProb: prob,
			ArrayFaults: []ArrayFault{{
				Node: node, Target: isa.SRAM, Arrays: arrays, Fraction: frac,
				At: event.Time(at), Recover: event.Time(rec),
			}},
			Crashes: []Crash{{Node: node, At: event.Time(at), Recover: event.Time(rec)}},
			HubCrashes: []HubCrash{{
				Region: region, At: event.Time(hubAt), Recover: event.Time(hubRec),
			}},
			EdgeFaults: []EdgeFault{{
				From: from, To: to, DropProb: drop,
				At: event.Time(edgeAt), Until: event.Time(edgeUntil),
			}},
		}
		err := p.Validate()
		s := p.String()
		if p.Empty() {
			t.Fatal("plan with four faults reported empty")
		}
		if err == nil {
			// A valid plan renders every fault, one line each.
			if got := strings.Count(s, "\n"); got != 5 { // header + 4 faults + ")" terminator share lines
				t.Fatalf("valid plan rendered %d newlines, want 5:\n%s", got, s)
			}
			for _, want := range []string{"array-fault", "crash", "hub-crash", "edge-fault"} {
				if !strings.Contains(s, want) {
					t.Fatalf("valid plan render missing %q:\n%s", want, s)
				}
			}
		}
		// ExecError must be pure and total regardless of validity.
		for batch := 0; batch < 4; batch++ {
			for attempt := 0; attempt < 2; attempt++ {
				if p.ExecError(batch, attempt) != p.ExecError(batch, attempt) {
					t.Fatalf("ExecError(%d,%d) not deterministic", batch, attempt)
				}
			}
		}
	})
}

// FuzzParseFaultSpecs drives the -hub-crash and -edge-fault flag
// parsers into Plan.Validate, with a fuzzed exec-error probability and
// array-fault fraction riding along. Nothing may panic, parse failures
// are ErrBadSpec, and any plan that validates has non-negative times
// (no NaN, Inf or overflow leaking through the float conversion) and
// probabilities and fractions in [0,1] (NaN fails every comparison, so
// a NaN must be rejected, not waved through).
func FuzzParseFaultSpecs(f *testing.F) {
	f.Add("1@2:6/0@10:14.5", "hub0>hub1@2:6:1:0/hub1>hub0@0:0:0.5:0.1", 0.1, 0.5)
	f.Add("", "hub0>hub1@1:2:NaN:0", 0.1, 0.5)
	f.Add("", "", math.NaN(), 0.5)
	f.Add("", "", 0.1, math.NaN())
	f.Add("0@NaN:1", "", 0.1, 0.5)
	f.Add("0@1e300:1e301", "hub0>hub1@Inf:0:0:1", 0.0, 0.0)
	f.Add("", "a>b@-1:0:0:-Inf", 2.0, -0.5)
	f.Fuzz(func(t *testing.T, hubSpec, edgeSpec string, prob, frac float64) {
		hubs, err := ParseHubCrashes(hubSpec)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseHubCrashes(%q) err = %v, want ErrBadSpec", hubSpec, err)
			}
			return
		}
		edges, err := ParseEdgeFaults(edgeSpec)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseEdgeFaults(%q) err = %v, want ErrBadSpec", edgeSpec, err)
			}
			return
		}
		p := &Plan{
			ExecErrorProb: prob,
			ArrayFaults:   []ArrayFault{{Node: "n", Target: isa.SRAM, Fraction: frac, At: 1}},
			HubCrashes:    hubs,
			EdgeFaults:    edges,
		}
		if p.Validate() != nil {
			return
		}
		inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
		if !inUnit(p.ExecErrorProb) || !inUnit(frac) {
			t.Fatalf("accepted plan with prob=%v fraction=%v", p.ExecErrorProb, frac)
		}
		for _, h := range hubs {
			if h.At < 0 || h.Recover < 0 {
				t.Fatalf("accepted hub crash with negative time: %+v", h)
			}
		}
		for _, e := range edges {
			if e.At < 0 || e.Until < 0 || e.Delay < 0 || !inUnit(e.DropProb) {
				t.Fatalf("accepted edge fault %+v", e)
			}
		}
	})
}
