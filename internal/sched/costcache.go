package sched

import (
	"mlimp/internal/event"
	"mlimp/internal/isa"
)

// Analytical-cost memoization.
//
// The schedulers evaluate the Section III-C model t(x,m) thousands of
// times per batch: every sort comparison in the inter/intra-queue
// adjustments and every dispatcher routing decision re-derives the same
// per-(job-shape, target, allocation) cycle count. The model is a pure
// function of the job's Profile and the layer's immutable configuration
// (the DDR StreamTime term is closed-form and stateless), and Profile is
// a comparable value type — so the System memoizes it behind a map
// keyed by the profile value itself. Two jobs sharing a shape (every
// job of one app does) share cache lines.
//
// The knee search is memoized one level up, per (profile, target,
// capacity): the search reads nothing of the layer but its in-service
// array count and immutable configuration, so a resized, degraded or
// replica-carved layer re-keys by capacity alone and can never serve a
// stale knee. The search itself evaluates its grid directly rather than
// through the profile memo — with per-job predicted profiles almost
// every grid point is a one-off that would only evict the entries the
// sorts and dispatch keep hitting.
//
// A System is not safe for concurrent use — the DDR controller already
// accumulates access statistics — so plain maps suffice; parallel
// callers (experiments.RunAll, parallel kernels) each own their System.

type profKey struct {
	p      Profile
	t      isa.Target
	arrays int
}

type kneeKey struct {
	p        Profile
	t        isa.Target
	capacity int // in-service arrays of the layer at search time
}

// kneePoint is a memoized knee: the allocation and its modelled time.
type kneePoint struct {
	alloc int
	time  event.Time
}

// MaxProfMemoEntries and MaxKneeMemoEntries bound the memo maps. The
// entries are pure-function results, so eviction can never produce a
// wrong answer — the only cost is a recomputation — but without a bound
// a long sweep over many job shapes and fault-mutated capacities grows
// the maps without limit. When a map reaches its bound it is
// generation-cleared (dropped wholesale): the working set at any
// instant is a few dozen shapes, so an LRU's per-hit bookkeeping would
// cost more on the hot path than the rare full rebuild after a clear.
const (
	MaxProfMemoEntries = 4096
	MaxKneeMemoEntries = 1024
)

// CacheStats reports the System's cost-model memoization counters, a
// visibility hook for tests and perf investigations.
type CacheStats struct {
	ModelHits, ModelMisses int64
	KneeHits, KneeMisses   int64
	// Clears counts generation-clears: bound overflows plus
	// Degrade/Restore leak-guard sweeps of the knee memo.
	Clears int64
}

// CacheStats returns the memo hit/miss counters accumulated so far.
func (s *System) CacheStats() CacheStats { return s.cacheStats }

// memoProfileTime answers profileTime from the memo, computing and
// filling on miss. The maps are lazily initialised because Systems are
// also built as composite literals (single-layer oracle systems).
func (s *System) memoProfileTime(p Profile, t isa.Target, arrays int) event.Time {
	k := profKey{p: p, t: t, arrays: arrays}
	if v, ok := s.profMemo[k]; ok {
		s.cacheStats.ModelHits++
		return v
	}
	v := s.computeProfileTime(p, t, arrays)
	if s.profMemo == nil {
		s.profMemo = make(map[profKey]event.Time, 256)
	} else if len(s.profMemo) >= MaxProfMemoEntries {
		clear(s.profMemo)
		s.cacheStats.Clears++
	}
	s.profMemo[k] = v
	s.cacheStats.ModelMisses++
	return v
}

// memoKnee answers kneeForProfile from the memo.
func (s *System) memoKnee(p Profile, t isa.Target, capacity int) (kneePoint, bool) {
	k, ok := s.kneeMemo[kneeKey{p: p, t: t, capacity: capacity}]
	if ok {
		s.cacheStats.KneeHits++
	}
	return k, ok
}

func (s *System) storeKnee(p Profile, t isa.Target, capacity int, k kneePoint) {
	if s.kneeMemo == nil {
		s.kneeMemo = make(map[kneeKey]kneePoint, 64)
	} else if len(s.kneeMemo) >= MaxKneeMemoEntries {
		clear(s.kneeMemo)
		s.cacheStats.Clears++
	}
	s.kneeMemo[kneeKey{p: p, t: t, capacity: capacity}] = k
	s.cacheStats.KneeMisses++
}

// clearKneeMemo generation-clears the knee memo after Degrade/Restore.
// Capacity keys stay correct across any change, so this is purely a
// leak guard: a churning fault plan would otherwise strand entries for
// every capacity it visits until the bound-triggered clear.
func (s *System) clearKneeMemo() {
	if len(s.kneeMemo) == 0 {
		return
	}
	clear(s.kneeMemo)
	s.cacheStats.Clears++
}
