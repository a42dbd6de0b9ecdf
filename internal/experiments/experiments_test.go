package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be present, plus
	// the ablations DESIGN.md commits to.
	want := []string{
		"fig01", "fig05", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19",
		"tab1", "tab2", "tab3",
		"predacc", "scalefit", "stress",
		"abl-reuse", "abl-knee", "abl-replica", "abl-epsilon",
		"abl-compiler", "serving", "serving-node", "quant", "cluster", "faults",
		"multitenant", "partition", "replication",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, manifest has %d", len(All()), len(want))
	}
	if _, ok := ByID("fig11"); !ok {
		t.Error("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus ByID should fail")
	}
}

// TestEveryExperimentRuns sanity-checks each artefact of the serial
// reproduction sweep. The sweep is shared with TestRunAllMatchesSerial
// (serialSweep), so the registry runs serially once per test binary.
// This is the repository's end-to-end test.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction suite is slow")
	}
	for _, tm := range serialSweep(t) {
		tm := tm
		t.Run(tm.Experiment.ID, func(t *testing.T) {
			res := tm.Result
			if res == nil {
				t.Fatal("no result")
			}
			if res.ID != tm.Experiment.ID {
				t.Errorf("result id %q != %q", res.ID, tm.Experiment.ID)
			}
			if len(strings.TrimSpace(res.Text)) == 0 {
				t.Error("empty artefact")
			}
			if !strings.Contains(res.String(), tm.Experiment.ID) {
				t.Error("render missing id")
			}
			t.Log("\n" + res.String())
		})
	}
}

func TestTableRender(t *testing.T) {
	tb := &table{header: []string{"a", "bbbb"}}
	tb.add("xx", "y")
	out := tb.String()
	if !strings.Contains(out, "a   bbbb") || !strings.Contains(out, "xx  y") {
		t.Errorf("table render:\n%s", out)
	}
}

func TestBuildWorkloadPanicsOnUnknownDataset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	buildWorkload("nope", 1)
}
