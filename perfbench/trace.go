package main

import (
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer: name, host-time interval
// relative to the tracer's start, and the index of the span that caused it
// (-1 for a root).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so untraced code paths pay one nil check per call.
// Spans opened from one goroutine nest through begin/end; concurrent
// callers (serve's clients) pass an explicit parent via beginUnder.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

//lint:walldomain span timestamps are host time by definition
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span of the sequential
// stack and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.open(name, parent)
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(id)
	t.stack = t.stack[:len(t.stack)-1]
}

// beginUnder opens a span under an explicit parent without touching the
// sequential stack (safe from concurrent goroutines); close it with endAt.
func (t *tracer) beginUnder(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open(name, parent)
}

// endAt closes a span opened by beginUnder.
func (t *tracer) endAt(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(id)
}

//lint:walldomain span timestamps are host time by definition
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	return len(t.spans) - 1
}

//lint:walldomain span timestamps are host time by definition
func (t *tracer) close(id int) { t.spans[id].end = time.Since(t.t0) }

// spanStat aggregates the spans of one name.
type spanStat struct {
	calls int
	self  time.Duration // summed self times
}

// stats aggregates spans by name. A span's self time is its duration
// minus the part of its interval its children cover (the union of the
// child intervals, so concurrent children are not counted twice).
func (t *tracer) stats() map[string]spanStat {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]spanStat)
	for i, s := range t.spans {
		st := out[s.name]
		st.calls++
		st.self += s.end - s.start - t.covered(children[i])
		out[s.name] = st
	}
	return out
}

// covered returns the length of the union of the given spans' intervals.
func (t *tracer) covered(ids []int) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	iv := make([]span, len(ids))
	for k, id := range ids {
		iv[k] = t.spans[id]
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].start < iv[b].start })
	var sum time.Duration
	lo, hi := iv[0].start, iv[0].end
	for _, s := range iv[1:] {
		if s.start > hi {
			sum += hi - lo
			lo, hi = s.start, s.end
			continue
		}
		hi = max(hi, s.end)
	}
	return sum + hi - lo
}
