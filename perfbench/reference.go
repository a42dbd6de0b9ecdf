package main

import (
	"math"
	goruntime "runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by 2x
// and more over minutes. A simulation's raw wall-clock time therefore
// moves more between two runs of the same code than any bound can
// absorb. Every host-time end-to-end metric is instead scaled to a
// reference speed: the run also times a fixed reference kernel just
// before and just after each set-up and simulation, and
//
//	scaled = wall time × refNominal ÷ mean kernel pass time around it.
//
// The kernel uses only the standard library, so no change to the
// program moves it: a program change that halves a simulation's wall
// time halves host_s, while a host that runs everything 2x slower moves
// both times alike and leaves host_s where it was.

// refNominal is the kernel's time on the reference host, in seconds.
// It fixes the unit only: host_s reads in seconds of a host on which
// one pass of the kernel takes 100 ms (the 2-core Xeon in README.md
// measures 0.08–0.12 s).
const refNominal = 0.1

// refEvent is one pending event of the reference kernel's queue.
type refEvent struct {
	at  uint64
	id  int
	val float64
}

// refKernel is the reference unit of work. It has the shape of a
// simulation's host work: a binary-heap event queue of small heap
// objects, a hash map updated per event, a growing slice, a sort and
// float arithmetic, over a working set of a few MB. It returns a
// checksum that depends only on seed.
func refKernel(seed uint64) uint64 {
	const (
		events = 1 << 18
		keys   = 1 << 13
	)
	x := seed
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	var q []*refEvent
	push := func(e *refEvent) {
		q = append(q, e)
		for i := len(q) - 1; i > 0; {
			p := (i - 1) / 2
			if q[p].at <= q[i].at {
				break
			}
			q[p], q[i] = q[i], q[p]
			i = p
		}
	}
	pop := func() *refEvent {
		e := q[0]
		last := len(q) - 1
		q[0] = q[last]
		q = q[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < len(q) && q[l].at < q[m].at {
				m = l
			}
			if r := l + 1; r < len(q) && q[r].at < q[m].at {
				m = r
			}
			if m == i {
				break
			}
			q[m], q[i] = q[i], q[m]
			i = m
		}
		return e
	}
	for i := 0; i < keys; i++ {
		push(&refEvent{at: next() % 1e6, id: i, val: float64(next()%1000) / 1000})
	}
	load := make(map[int]float64)
	var done []float64
	for n := 0; n < events; n++ {
		e := pop()
		load[e.id] += math.Sqrt(e.val + load[e.id%keys/2])
		done = append(done, load[e.id])
		push(&refEvent{at: e.at + 1 + next()%1000, id: int(next() % (4 * keys)), val: e.val*0.5 + 0.25})
	}
	sort.Float64s(done)
	h := uint64(14695981039346656037)
	for i := 0; i < len(done); i += 97 {
		h = (h ^ math.Float64bits(done[i])) * 1099511628211
	}
	return h ^ uint64(len(load))
}

// calibrate times passes of the reference kernel until at least minDur
// has passed (at least one pass) and returns their mean wall time in
// seconds. A pass runs the kernel on workers goroutines at once, as a
// simulation at that parsim worker count would occupy the host, and
// starts from a forced collection, as every timed simulation does. The
// mean, not the median, so that a block of passes weighs a burst of
// host load by its length, as the wall time it is paired with does.
func calibrate(workers int, minDur time.Duration) float64 {
	var total time.Duration
	passes := 0
	for begin := time.Now(); passes == 0 || time.Since(begin) < minDur; passes++ {
		goruntime.GC()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				refKernel(uint64(i + 1))
			}(i)
		}
		wg.Wait()
		total += time.Since(start)
	}
	return total.Seconds() / float64(passes)
}

// scaled converts wall seconds to reference seconds, given the mean
// kernel pass times measured just before and just after them.
func scaled(wall, before, after float64) float64 {
	return ratio(wall*refNominal, (before+after)/2)
}
