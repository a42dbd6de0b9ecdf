package sched

import (
	"math"
	"slices"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// refKneeGrid is the geometric knee grid over [1, maxM] computed from
// scratch on every call — the oracle for the per-capacity grid cache.
func refKneeGrid(maxM int) []int {
	var ms []int
	prev := 0
	for i := 0; i < kneeGridPoints; i++ {
		m := int(math.Round(math.Pow(float64(maxM), float64(i)/(kneeGridPoints-1))))
		if m <= prev {
			m = prev + 1
		}
		if m > maxM {
			break
		}
		ms = append(ms, m)
		prev = m
	}
	return ms
}

// refKnee is the memo-free knee search: the grid loop evaluated against
// the from-scratch model at the layer's current capacity.
func refKnee(s *System, p Profile, t isa.Target) int {
	maxM := s.Layers[t].Capacity()
	if maxM < 1 {
		return 1
	}
	ms := refKneeGrid(maxM)
	if len(ms) < 3 {
		return maxM
	}
	ts := make([]float64, len(ms))
	for i, m := range ms {
		ts[i] = float64(s.computeProfileTime(p, t, m))
	}
	tMin, tMax := ts[0], ts[0]
	for _, v := range ts {
		tMin = math.Min(tMin, v)
		tMax = math.Max(tMax, v)
	}
	if tMax == tMin {
		return ms[0]
	}
	mLo, mHi := float64(ms[0]), float64(ms[len(ms)-1])
	bestIdx, bestDist := 0, math.Inf(-1)
	for i := range ms {
		mN := (float64(ms[i]) - mLo) / (mHi - mLo)
		tN := (ts[i] - tMin) / (tMax - tMin)
		chordN := (ts[0] + (ts[len(ts)-1]-ts[0])*mN - tMin) / (tMax - tMin)
		if d := chordN - tN; d > bestDist {
			bestDist, bestIdx = d, i
		}
	}
	return ms[bestIdx]
}

// refBestTarget is BestTarget over refKnee and the from-scratch model.
func refBestTarget(s *System, j *Job) (isa.Target, event.Time) {
	best, bestT := isa.Target(0), event.Time(math.MaxInt64)
	for _, t := range s.Targets() {
		p, ok := j.Est[t]
		if !ok {
			continue
		}
		if tt := s.computeProfileTime(p, t, refKnee(s, p, t)); tt < bestT {
			best, bestT = t, tt
		}
	}
	return best, bestT
}

// TestKneeGridMatchesInline checks the per-capacity grid cache against
// the from-scratch grid for every capacity up to the largest Table III
// layer.
func TestKneeGridMatchesInline(t *testing.T) {
	sys := fullSystem()
	largest := 0
	for _, tgt := range sys.Targets() {
		largest = max(largest, sys.Layers[tgt].Capacity())
	}
	for maxM := 1; maxM <= largest; maxM++ {
		if got, want := sys.kneeGrid(maxM), refKneeGrid(maxM); !slices.Equal(got, want) {
			t.Fatalf("maxM=%d: cached grid %v, inline grid %v", maxM, got, want)
		}
	}
	if n := len(sys.kneeGrids); n > MaxKneeMemoEntries {
		t.Errorf("grid cache grew to %d entries, bound is %d", n, MaxKneeMemoEntries)
	}
}

// FuzzKneeAlloc drives a full SRAM/DRAM/ReRAM system through a script
// of replica carves and drops and Degrade/Restore steps, and after each
// step checks KneeAlloc and BestTarget for a fuzzed profile against the
// memo-free reference on every layer, twice (miss, then memo hit), and
// the cached grid against the inline grid at each layer's capacity.
func FuzzKneeAlloc(f *testing.F) {
	f.Add(uint32(40000), uint16(4), uint32(1<<16), uint32(1<<14), uint32(0), uint8(80), uint16(0), []byte{0x00, 0x12, 0x23, 0x01, 0x33})
	f.Add(uint32(600), uint16(1), uint32(1<<20), uint32(0), uint32(1<<15), uint8(100), uint16(64), []byte{0xf2, 0x06, 0xe3, 0x40, 0x81})
	f.Add(uint32(1), uint16(300), uint32(0), uint32(0), uint32(0), uint8(1), uint16(3), []byte{0x0a, 0xfe, 0x07, 0x1b})
	f.Fuzz(func(t *testing.T, cycles uint32, repUnit uint16, load, store, prog uint32, beta uint8, maxUseful uint16, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		sys := fullSystem()
		sys.Replication = ReplicateWhenIdle
		// The same shape on every layer, its compute skewed per layer so
		// BestTarget has a real choice to make.
		mk := func(id int) *Job {
			est := map[isa.Target]Profile{}
			for _, tgt := range sys.Targets() {
				est[tgt] = Profile{
					UnitCycles: (int64(cycles) + 1) * int64(1+3*int(tgt)),
					RepUnit:    int(repUnit), LoadBytes: int64(load), StoreBytes: int64(store),
					ProgramBytes: int64(prog), Beta: float64(beta%100+1) / 100, MaxUseful: int(maxUseful),
				}
			}
			return &Job{ID: id, Name: "fuzz", Stage: "stage", Est: est}
		}
		batch := []*Job{mk(0), mk(1), mk(2)}
		j := batch[0]

		check := func(step int) {
			t.Helper()
			for pass := 0; pass < 2; pass++ {
				for _, tgt := range sys.Targets() {
					if got, want := sys.KneeAlloc(j, tgt), refKnee(sys, j.Est[tgt], tgt); got != want {
						t.Fatalf("step %d pass %d %v: KneeAlloc %d, reference %d (capacity %d)",
							step, pass, tgt, got, want, sys.Layers[tgt].Capacity())
					}
					maxM := sys.Layers[tgt].Capacity()
					if got, want := sys.kneeGrid(maxM), refKneeGrid(maxM); !slices.Equal(got, want) {
						t.Fatalf("step %d: cached grid at maxM=%d %v, inline %v", step, maxM, got, want)
					}
				}
				gt, gtt := sys.BestTarget(j)
				wt, wtt := refBestTarget(sys, j)
				if gt != wt || gtt != wtt {
					t.Fatalf("step %d pass %d: BestTarget %v/%v, reference %v/%v", step, pass, gt, gtt, wt, wtt)
				}
			}
		}
		check(-1)
		for step, op := range script {
			tgt := isa.Targets[int(op>>2)%len(isa.Targets)]
			n := 1 << (op >> 4) // 1 .. 32768 arrays
			switch op & 3 {
			case 0:
				sys.EnsureReplicas(batch)
			case 1:
				sys.DropReplicas()
			case 2:
				sys.Degrade(tgt, n)
			case 3:
				sys.Restore(tgt, n)
			}
			check(step)
		}
	})
}
