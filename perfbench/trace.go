package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds a tracer's memory and its span dump; spans past it are
// dropped and counted.
const maxSpans = 1 << 17

// span is one timed call into a layer, made from this package. parent is the
// index of the span that caused it, -1 for an op's root span; start and end
// are nanoseconds since the tracer was created.
type span struct {
	name       string
	parent     int32
	start, end int64
}

// tracer keeps a run's spans in memory. A nil *tracer records nothing, so
// untraced runs pass nil through the same code.
type tracer struct {
	mu      sync.Mutex
	base    time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<12)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// begin opens a span and returns its id (-1 when not recorded).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.record(name, parent, t.now(), -1)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds a span whose bounds are already known.
func (t *tracer) record(name string, parent int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// spanStats aggregates the spans of one name: count, summed duration, and
// summed self time (duration minus the time its children cover).
type spanStats struct {
	n           int
	total, self int64
}

// traceSummary is a tracer's spans aggregated by name.
type traceSummary map[string]*spanStats

// summarize aggregates the spans by name. It fails when a span is unclosed
// or a child is not nested in its parent, or children overlap so that a
// parent's self time goes negative: each op's self times then no longer sum
// to its span, and every per-layer number derived from them is suspect.
func (t *tracer) summarize() (traceSummary, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.end < s.start {
			return nil, fmt.Errorf("span %d (%s) never closed", i, s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return nil, fmt.Errorf("span %d (%s) is not nested in its parent %s", i, s.name, p.name)
		}
		childNs[s.parent] += s.end - s.start
	}
	sum := traceSummary{}
	for i, s := range t.spans {
		self := s.end - s.start - childNs[i]
		if self < 0 {
			return nil, fmt.Errorf("span %d (%s): children cover more than the span", i, s.name)
		}
		st := sum[s.name]
		if st == nil {
			st = &spanStats{}
			sum[s.name] = st
		}
		st.n++
		st.total += s.end - s.start
		st.self += self
	}
	return sum, nil
}

// meanUs is the mean duration of the named spans in microseconds.
func (s traceSummary) meanUs(name string) float64 {
	st := s[name]
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.total) / float64(st.n) / 1e3
}

// selfUs is the mean self time of the named spans in microseconds.
func (s traceSummary) selfUs(name string) float64 {
	st := s[name]
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.self) / float64(st.n) / 1e3
}

// totalNs is the summed duration of the named spans.
func (s traceSummary) totalNs(name string) int64 {
	if st := s[name]; st != nil {
		return st.total
	}
	return 0
}

// writeSpans dumps every tracer's spans as JSON lines, one span a line,
// tagged with the workload whose run recorded it.
func writeSpans(path string, traces map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	type line struct {
		Run     string `json:"run"`
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for _, name := range names {
		t := traces[name]
		t.mu.Lock()
		for i, s := range t.spans {
			if err = enc.Encode(line{name, i, s.parent, s.name, s.start, s.end}); err != nil {
				break
			}
		}
		t.mu.Unlock()
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
