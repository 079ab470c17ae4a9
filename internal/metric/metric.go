// Package metric implements the store behind Harmony's metric interface
// (Figure 1 of the paper): a Bus of named samples with bounded per-metric
// history, read back as the last sample, a time window or windowed
// aggregates. Two writers feed it: the server records applications' report
// messages, and the controller publishes each decision's predicted time. The
// bus samples no system conditions of its own and pushes to no one; a reader
// asks for what it wants.
package metric

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// Sample is one observation of a named metric.
type Sample struct {
	// Name identifies the metric, conventionally dotted like namespace
	// paths (e.g. "DBclient.66.responseTime", "DBclient.66.predicted").
	Name string
	// Value is the observation.
	Value float64
	// At is the (virtual) time of the observation.
	At time.Duration
}

// Bus collects samples and retains bounded per-metric history. It is safe
// for concurrent use.
type Bus struct {
	mu      sync.Mutex
	history map[string][]Sample
	limit   int
}

// DefaultHistoryLimit bounds retained samples per metric.
const DefaultHistoryLimit = 1024

// NewBus returns a bus retaining up to limit samples per metric
// (DefaultHistoryLimit when limit <= 0).
func NewBus(limit int) *Bus {
	if limit <= 0 {
		limit = DefaultHistoryLimit
	}
	return &Bus{history: make(map[string][]Sample), limit: limit}
}

// Report records a sample.
func (b *Bus) Report(s Sample) error {
	if s.Name == "" {
		return errors.New("metric: sample needs a name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	h := append(b.history[s.Name], s)
	if len(h) > b.limit {
		h = h[len(h)-b.limit:]
	}
	b.history[s.Name] = h
	return nil
}

// ReportValue is Report with positional arguments.
func (b *Bus) ReportValue(name string, value float64, at time.Duration) error {
	return b.Report(Sample{Name: name, Value: value, At: at})
}

// Last returns the most recent sample of a metric.
func (b *Bus) Last(name string) (Sample, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.history[name]
	if len(h) == 0 {
		return Sample{}, false
	}
	return h[len(h)-1], true
}

// Window returns samples of name observed at or after since, oldest first.
func (b *Bus) Window(name string, since time.Duration) []Sample {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.history[name]
	i := sort.Search(len(h), func(i int) bool { return h[i].At >= since })
	out := make([]Sample, len(h)-i)
	copy(out, h[i:])
	return out
}

// Names returns the sorted metric names with history.
func (b *Bus) Names() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.history))
	for n := range b.history {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats summarizes a window of samples.
type Stats struct {
	// Count is the number of samples.
	Count int
	// Mean, Min, Max summarize values; zero when Count is zero.
	Mean, Min, Max float64
	// Last is the most recent value.
	Last float64
}

// WindowStats aggregates samples of name observed at or after since.
func (b *Bus) WindowStats(name string, since time.Duration) Stats {
	samples := b.Window(name, since)
	if len(samples) == 0 {
		return Stats{}
	}
	st := Stats{Count: len(samples), Min: samples[0].Value, Max: samples[0].Value}
	sum := 0.0
	for _, s := range samples {
		sum += s.Value
		if s.Value < st.Min {
			st.Min = s.Value
		}
		if s.Value > st.Max {
			st.Max = s.Value
		}
	}
	st.Mean = sum / float64(len(samples))
	st.Last = samples[len(samples)-1].Value
	return st
}
