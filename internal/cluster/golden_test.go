package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestFlatChaosGolden pins the single-hub fabric's output: the summary
// and the parsim window structure of the faulted chaosSharded run
// (array fault, kill + revive, permanent kill, exec errors, deadlines)
// at one worker, for every policy. The window statistics expose any
// declared edge or beacon event on a one-region fleet, which would
// reshape the windows even where the summary stays the same.
// Regenerate with `go test ./internal/cluster -run TestFlatChaosGolden -update`.
func TestFlatChaosGolden(t *testing.T) {
	var sb strings.Builder
	for _, pname := range PolicyNames() {
		policy, _ := PolicyByName(pname)
		d := newChaosSharded(policy, 1)
		s := d.Run()
		sb.WriteString("== " + pname + "\n")
		sb.WriteString(s.String() + "\n")
		sb.WriteString("windows: " + d.WindowStats().String() + "\n")
	}
	got := sb.String()
	path := filepath.Join("testdata", "flat_chaos.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("flat chaos output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
