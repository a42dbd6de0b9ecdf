package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two nearest ranks; xs need not be sorted and
// is not modified. An empty sample has no percentile and returns NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio divides, returning 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// outcome is the terminal-state tally of one simulation's offered work,
// whether requests (serve-gnn), batches (fleet-chaos) or jobs
// (batch-gnn). A refused unit is a failed one: failed counts every
// offered unit that did not complete.
type outcome struct {
	offered      int
	completed    int
	shed         int
	deadLettered int
	unassigned   int
}

// failed is shed + dead-lettered + unassigned.
func (o outcome) failed() int { return o.shed + o.deadLettered + o.unassigned }

// failedFrac is failed ÷ offered.
func (o outcome) failedFrac() float64 { return ratio(float64(o.failed()), float64(o.offered)) }

// servedFrac is the share of offered work that completed, 1 − failedFrac.
func (o outcome) servedFrac() float64 { return 1 - o.failedFrac() }

// conserved reports whether every offered unit reached exactly one
// terminal state.
func (o outcome) conserved() error {
	if got := o.completed + o.failed(); got != o.offered {
		return fmt.Errorf("%w: completed %d + shed %d + dead-lettered %d + unassigned %d = %d, offered %d",
			errConservation, o.completed, o.shed, o.deadLettered, o.unassigned, got, o.offered)
	}
	return nil
}

// settleRatio is the share of dispatch attempts that settled a batch:
// completed ÷ (completed + redispatches + retries). 1 means no dispatch
// was wasted on a retry or a fault-driven re-dispatch.
func settleRatio(completed, redispatches, retries int) float64 {
	return ratio(float64(completed), float64(completed+redispatches+retries))
}

// onceSeen counts terminal-state deliveries per ID and reports the IDs
// settled more than once, or (against the expected count) never.
type onceSeen map[int]int

func (s onceSeen) check(expected int) error {
	var dup []int
	for id, n := range s {
		if n != 1 {
			dup = append(dup, id)
		}
	}
	if len(dup) > 0 {
		sort.Ints(dup)
		return fmt.Errorf("%w: %d IDs settled more than once (first %d)", errExactlyOnce, len(dup), dup[0])
	}
	if len(s) != expected {
		return fmt.Errorf("%w: %d IDs settled, %d expected", errExactlyOnce, len(s), expected)
	}
	return nil
}

// sameDigest checks a digest against the reference one; the simulated
// outcome of a fixed input must not depend on the simulation's index,
// its tracing, or the worker count.
func sameDigest(what, ref, got string) error {
	if got != ref {
		return fmt.Errorf("%w: %s differs from the first:\n%s\nvs\n%s",
			errDigest, what, firstLineDiff(got, ref), firstLineDiff(ref, got))
	}
	return nil
}

// firstLineDiff returns the first line of a that differs from b.
func firstLineDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i, l := range la {
		if i >= len(lb) || l != lb[i] {
			return l
		}
	}
	return "(prefix)"
}
