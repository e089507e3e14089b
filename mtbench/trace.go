package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public API, made by the
// benchmark itself. Times are nanoseconds since the tracer started.
// Work is the unit count the call processed (simulated instructions for
// machine runs, bytes for snapshots), so per-unit costs can be derived;
// Allocs and Bytes are heap allocations made during the span, recorded
// only where the benchmark runs the call alone.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work,omitempty"`
	Allocs int64  `json:"allocs,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Tracer keeps spans and counts in memory until the run ends. A nil
// *Tracer records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	t0     time.Time
	mu     sync.Mutex
	nextID int64
	spans  []Span
	counts map[string]float64
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// Active is a started span.
type Active struct {
	tr   *Tracer
	span Span
}

// Start opens a span under parent (0 for a root).
func (t *Tracer) Start(parent int64, name string) *Active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Active{tr: t, span: Span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))}}
}

// ID is the span's identifier (0 for a nil span), for children.
func (a *Active) ID() int64 {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// End closes the span.
func (a *Active) End() { a.EndWork(0) }

// EndWork closes the span, recording the work it processed.
func (a *Active) EndWork(work int64) {
	if a == nil {
		return
	}
	a.span.End = int64(time.Since(a.tr.t0))
	a.span.Work = work
	a.tr.add(a.span)
}

// Record adds a finished span measured by the caller (used where the
// caller also takes heap statistics around the call).
func (t *Tracer) Record(parent int64, name string, start time.Time, d time.Duration, work, allocs, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := int64(start.Sub(t.t0))
	t.add(Span{ID: id, Parent: parent, Name: name, Start: s, End: s + int64(d),
		Work: work, Allocs: allocs, Bytes: bytes})
}

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Count adds v to a named counter.
func (t *Tracer) Count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Counts returns a copy of the counters.
func (t *Tracer) Counts() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// traceDoc is one tracer's spans and counters as written out.
type traceDoc struct {
	Spans  []Span             `json:"spans"`
	Counts map[string]float64 `json:"counts"`
}

// writeTraces writes every tracer of a run, by name, as one JSON
// document.
func writeTraces(path string, tracers map[string]*Tracer) error {
	doc := make(map[string]traceDoc, len(tracers))
	for name, t := range tracers {
		doc[name] = traceDoc{t.Spans(), t.Counts()}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
