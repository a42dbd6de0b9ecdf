package energy

import (
	"math/rand"
	"strings"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/sched"
)

func job(id int, cycles int64, load int64) *sched.Job {
	est := map[isa.Target]sched.Profile{}
	for _, t := range isa.Targets {
		est[t] = sched.Profile{UnitCycles: cycles, RepUnit: 4, LoadBytes: load, Beta: sched.DefaultBeta}
	}
	return &sched.Job{ID: id, Name: "e", Est: est}
}

func TestConstantsCoverAllTargets(t *testing.T) {
	for _, tgt := range isa.Targets {
		c, ok := PerTarget[tgt]
		if !ok || c.ArrayCyclePJ <= 0 || c.StaticW <= 0 {
			t.Errorf("%s: bad constants %+v", tgt, c)
		}
	}
	// ReRAM's analog MAC with ADC costs more per array access than
	// SRAM's digital bit-slice (Figure 1's energy ordering).
	if PerTarget[isa.ReRAM].ArrayCyclePJ <= PerTarget[isa.SRAM].ArrayCyclePJ {
		t.Error("ReRAM per-access energy should exceed SRAM")
	}
}

func TestOfResultAccounting(t *testing.T) {
	sys := sched.NewSystem(isa.SRAM, isa.DRAM, isa.ReRAM)
	rng := rand.New(rand.NewSource(1))
	var jobs []*sched.Job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, job(i, int64(1e6+rng.Intn(1e6)), 1<<18))
	}
	res := sched.NewGlobal().Schedule(sys, jobs)
	b := OfResult(sys, res)
	if b.ComputeJ <= 0 || b.TransferJ <= 0 || b.StaticJ <= 0 {
		t.Fatalf("incomplete breakdown: %+v", b)
	}
	if b.TotalJ() != b.ComputeJ+b.TransferJ+b.StaticJ {
		t.Error("TotalJ inconsistent")
	}
	if !strings.Contains(b.String(), "total=") {
		t.Error("render wrong")
	}
}

func TestMoreWorkMoreEnergy(t *testing.T) {
	sys := sched.NewSystem(isa.SRAM)
	small := sched.NewGlobal().Schedule(sys, []*sched.Job{job(0, 1e6, 1<<16)})
	big := sched.NewGlobal().Schedule(sys, []*sched.Job{job(0, 1e8, 1<<24)})
	if OfResult(sys, big).TotalJ() <= OfResult(sys, small).TotalJ() {
		t.Error("100x work should cost more energy")
	}
}

func TestNarrowBitsCutComputeEnergy(t *testing.T) {
	sys := sched.NewSystem(isa.SRAM)
	run := func(bits int) Breakdown {
		j := job(0, 1e7, 1<<18)
		j.Bits = bits
		return OfResult(sys, sched.NewGlobal().Schedule(sys, []*sched.Job{j}))
	}
	full, half := run(0), run(8)
	// Same placement and duration (the profile is unscaled here; only
	// the per-cycle switching energy shrinks), so compute energy halves.
	ratio := half.ComputeJ / full.ComputeJ
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("8-bit compute energy ratio = %.3f, want ~0.5", ratio)
	}
	if run(16).ComputeJ != full.ComputeJ {
		t.Error("explicit 16 bits must match the zero default")
	}
}

// TestStaticEnergyDeterministic: static energy over a three-layer
// system must be bit-identical across calls. The fixture picks a
// makespan at which the layer order changes the float sum, so summing
// in map-iteration order would show.
func TestStaticEnergyDeterministic(t *testing.T) {
	sys := sched.NewSystem(isa.SRAM, isa.DRAM, isa.ReRAM)
	sum := func(order []isa.Target, sec float64) float64 {
		var j float64
		for _, tg := range order {
			j += PerTarget[tg].StaticW * sec
		}
		return j
	}
	var res *sched.Result
	for ps := event.Time(1); res == nil; ps++ {
		sec := ps.Seconds()
		if sum([]isa.Target{isa.SRAM, isa.DRAM, isa.ReRAM}, sec) != sum([]isa.Target{isa.ReRAM, isa.DRAM, isa.SRAM}, sec) {
			res = &sched.Result{Makespan: ps}
		}
	}
	want := sum(isa.Targets, res.Makespan.Seconds())
	for i := 0; i < 64; i++ {
		if got := OfResult(sys, res).StaticJ; got != want {
			t.Fatalf("call %d: StaticJ = %v, want %v (isa.Targets order)", i, got, want)
		}
	}
}
