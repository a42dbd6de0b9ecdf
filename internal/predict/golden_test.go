package predict

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlimp/internal/isa"
	"mlimp/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestPredictorGolden pins the trained and refitted predictor bit for
// bit: the Float64bits of PredictHw, the raw cycle-regressor output and
// UnitCycles for every target, over fixed probe subgraphs. It trains at
// the serving config (150 epochs, the front end's starting model) and
// at DefaultTrainConfig, whose 38400 Adam steps per net run past both
// bias-correction saturation points (t = 356 for beta1, t = 37412 for
// beta2), then Refits each on a fixed observation set at the front
// end's retraining settings. Any change to the MLP kernel's arithmetic
// or to Fit's shuffle order shows here.
// Regenerate with `go test ./internal/predict -run TestPredictorGolden -update`.
func TestPredictorGolden(t *testing.T) {
	probes := sampleSubgraphs(t, 21, 12)
	var obs []Observation
	for i, adj := range sampleSubgraphs(t, 22, 24) {
		tgt := isa.Targets[i%len(isa.Targets)]
		// Observed cycles drift 30% above the oracle, as a slower
		// fleet would report them.
		c := Oracle{}.UnitCycles(adj, 128, tgt)
		obs = append(obs, Observation{Adj: adj, F: 128, Target: tgt, Cycles: c + c*3/10})
	}

	var sb strings.Builder
	for _, run := range []struct {
		name     string
		seed     int64
		training int
		cfg      TrainConfig
	}{
		{"serving", 31, 32, TrainConfig{Epochs: 150, LR: 2e-3}},
		{"default", 32, 96, DefaultTrainConfig()},
	} {
		rng := rand.New(rand.NewSource(run.seed))
		p := Train(rng, sampleSubgraphs(t, run.seed, run.training), 128, run.cfg)
		writePredictorGolden(&sb, run.name+" trained", p, probes)
		p.Refit(rand.New(rand.NewSource(run.seed+100)), obs, 10, 1e-3)
		writePredictorGolden(&sb, run.name+" refit", p, probes)
	}
	got := sb.String()

	path := filepath.Join("testdata", "predictor.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("predictor output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// writePredictorGolden appends one line per probe: the H_w estimate's
// bits, then per target the cycle regressor's raw output bits and the
// UnitCycles it yields.
func writePredictorGolden(sb *strings.Builder, stage string, p *MLP, probes []*tensor.CSR) {
	fmt.Fprintf(sb, "== %s\n", stage)
	for i, adj := range probes {
		fmt.Fprintf(sb, "%2d hw=%016x", i, math.Float64bits(p.PredictHw(adj)))
		for _, tgt := range isa.Targets {
			raw := p.cycles[tgt].Forward(cycleFeatures(adj, 128, p.predictHw(adj)))[0]
			fmt.Fprintf(sb, " %s=%016x/%d", tgt, math.Float64bits(raw), p.UnitCycles(adj, 128, tgt))
		}
		sb.WriteString("\n")
	}
}
