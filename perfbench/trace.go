package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span
// whose interval caused it, -1 for a root. Times are host time since
// the tracer's epoch.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
}

// tracer keeps every span of a traced run in memory; write dumps them
// when the run ends. Spans may begin and end on several goroutines at
// once (node schedulers under parallel simulation), hence the lock. A
// nil *tracer records nothing, so untraced code paths make the same
// calls at the cost of a nil check.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns how much of [lo, hi) the union of the intervals
// covers. Intervals may overlap (children running concurrently on
// several workers) and may stick out of [lo, hi); both are clipped.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	var clipped [][2]time.Duration
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Unclosed spans get 0.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// rootOf maps every span to the root span it descends from.
func rootOf(spans []span) []int {
	roots := make([]int, len(spans))
	for i, s := range spans {
		// Parents open before their children, so they have lower IDs.
		if s.Parent < 0 {
			roots[i] = s.ID
		} else {
			roots[i] = roots[s.Parent]
		}
	}
	return roots
}

// layerTimes sums self time per span name under each root span whose
// name is rootName, returning one map per such root in root order, plus
// every duration of each span name (for per-call percentiles) and the
// span count per name and root.
type layerTimes struct {
	self  []map[string]time.Duration // per root: name -> summed self time
	count []map[string]int           // per root: name -> spans
	durs  map[string][]time.Duration // name -> every span's duration
}

func aggregate(spans []span, rootName string) layerTimes {
	self := selfTimes(spans)
	roots := rootOf(spans)
	idx := map[int]int{}
	lt := layerTimes{durs: map[string][]time.Duration{}}
	for _, s := range spans {
		if s.Parent < 0 && s.Name == rootName {
			idx[s.ID] = len(lt.self)
			lt.self = append(lt.self, map[string]time.Duration{})
			lt.count = append(lt.count, map[string]int{})
		}
	}
	for i, s := range spans {
		k, ok := idx[roots[i]]
		if !ok || s.End < 0 {
			continue
		}
		lt.self[k][s.Name] += self[i]
		lt.count[k][s.Name]++
		lt.durs[s.Name] = append(lt.durs[s.Name], s.End-s.Start)
	}
	return lt
}

// medianSelf is the median over roots of the summed self time of name,
// in seconds.
func (lt layerTimes) medianSelf(name string) float64 {
	if len(lt.self) == 0 {
		return 0
	}
	xs := make([]float64, len(lt.self))
	for i, m := range lt.self {
		xs[i] = m[name].Seconds()
	}
	return median(xs)
}

// medianCount is the median over roots of the span count of name.
func (lt layerTimes) medianCount(name string) float64 {
	if len(lt.count) == 0 {
		return 0
	}
	xs := make([]float64, len(lt.count))
	for i, m := range lt.count {
		xs[i] = float64(m[name])
	}
	return median(xs)
}

// callP50us is the median duration of one call of name, in µs.
func (lt layerTimes) callP50us(name string) float64 {
	ds := lt.durs[name]
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	return median(xs)
}

// write dumps the spans as a Chrome trace-event file ("X" complete
// events, microsecond timestamps) that chrome://tracing and Perfetto
// open; args carry the span and parent IDs, the workload and the self
// time.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	roots := rootOf(spans)
	evs := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: roots[i],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": t.workload, "self_us": us(self[i])},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
