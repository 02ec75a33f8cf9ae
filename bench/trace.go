package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// callSampleEvery thins the per-call spans and timings on the hot loops:
// one call in 64 is timed, so time.Now stays off the other 63.
const callSampleEvery = 64

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a call it makes into that layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 at the root
	Name   string `json:"name"`
	// Round is the identifier the spans of one scrape round share: the
	// synthetic second, or the segment number for spans above a round.
	Round    int                `json:"round"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer is
// the untraced run: every method returns at once.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span and returns its id (0 when untraced).
func (t *tracer) start(name string, parent int32, round int) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round, StartNs: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// add records a span whose ends were timed elsewhere, such as the
// interval between a round's first and last decision callback.
func (t *tracer) add(name string, parent int32, round int, start, end time.Time, counters map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Round: round,
		StartNs: start.Sub(t.base).Nanoseconds(), EndNs: end.Sub(t.base).Nanoseconds(),
		Counters: counters,
	})
	t.mu.Unlock()
}

// count attaches a counter snapshot to an open span, so ratios are
// taken at the boundary where the work happens.
func (t *tracer) count(id int32, name string, v float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	if s.Counters == nil {
		s.Counters = make(map[string]float64)
	}
	s.Counters[name] = v
	t.mu.Unlock()
}

// selfTimes sums, by span name, each span's duration minus the part of
// it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k[0], edge), min(k[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
