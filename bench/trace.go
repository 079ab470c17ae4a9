package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one writer cycle
// share Cycle; Parent is the ID of the span that caused this one (0: none).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Cycle  int    `json:"cycle"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder records
// nothing, so the untraced run pays one nil check per boundary.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) begin(name string, parent, cycle int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Cycle: cycle, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span opened as id.
func (r *Recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured by the caller.
func (r *Recorder) add(name string, parent, cycle int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Cycle: cycle, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
}

func (r *Recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns, per span name, each span's duration minus the part of
// its interval that its child spans cover, in milliseconds.
func selfTimes(spans []Span) map[string]Samples {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]Samples)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed: the call failed
		}
		covered := coveredBy(children[s.ID], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// coveredBy is the length of the union of the spans' intervals inside
// [lo, hi]; overlapping children are not counted twice.
func coveredBy(spans []Span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cursor := lo
	for _, c := range spans {
		start, end := c.Start, c.End
		if start < cursor {
			start = cursor
		}
		if end > hi {
			end = hi
		}
		if end > start {
			total += end - start
			cursor = end
		}
	}
	return total
}

// durations returns, per span name, each closed span's full duration in
// milliseconds.
func durations(spans []Span) map[string]Samples {
	out := make(map[string]Samples)
	for _, s := range spans {
		if s.End >= s.Start {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
