package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/det"
)

// Span is one timed layer of a trace. Start is the offset from the trace's
// start; Dur is zero while the span is open. Parent indexes the enclosing
// span within the same trace (-1 for the root).
type Span struct {
	Name   string
	Parent int32
	Start  time.Duration
	Dur    time.Duration
}

// Trace is one request's span record. Span appends are mutex-guarded —
// batch fan-out and consensus waves record spans from several goroutines —
// but a trace only ever exists on sampled (or forced) requests, so the
// warm path never touches the lock.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// ID returns the trace's identifier (the X-Trace-Id header value).
func (t *Trace) ID() string { return t.id }

// startSpan opens a span under the given parent index and returns its
// index.
func (t *Trace) startSpan(name string, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: time.Since(t.start)})
	return int32(len(t.spans) - 1)
}

// endSpan closes the span at idx.
func (t *Trace) endSpan(idx int32) {
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[idx]
	s.Dur = now - s.Start
}

// ServerTiming renders the root's direct children as a Server-Timing
// header value ("lru;dur=0.012, verify;dur=3.1, total;dur=3.2"). Only
// closed spans are included; durations are milliseconds. Span names are
// header-token-safe by construction (the instrumented layers use
// [a-z0-9_] names).
func (t *Trace) ServerTiming() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 || s.Dur == 0 || i == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.3f", s.Name, ms(s.Dur))
	}
	if len(t.spans) > 0 {
		root := t.spans[0]
		dur := root.Dur
		if dur == 0 {
			dur = time.Since(t.start) - root.Start
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "total;dur=%.3f", ms(dur))
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanRef is the context value: a trace plus the index of the span that is
// the current parent.
type spanRef struct {
	tr  *Trace
	idx int32
}

type ctxKey struct{}

// TraceFromContext returns the context's trace, or nil when the request is
// unsampled (or untraced).
func TraceFromContext(ctx context.Context) *Trace {
	if ref, ok := ctx.Value(ctxKey{}).(spanRef); ok {
		return ref.tr
	}
	return nil
}

// noopEnd is returned by StartSpan on untraced contexts so the warm path
// never allocates a closure.
var noopEnd = func() {}

// StartSpan opens a child span of the context's current span and returns a
// derived context (the new span becomes the parent for nested StartSpan
// calls) plus an end function. On an untraced context it returns the
// context unchanged and a shared no-op — one context lookup, zero
// allocations — so instrumentation points are free on the warm path.
func StartSpan(ctx context.Context, name string) (context.Context, func()) {
	ref, ok := ctx.Value(ctxKey{}).(spanRef)
	if !ok {
		return ctx, noopEnd
	}
	idx := ref.tr.startSpan(name, ref.idx)
	tr := ref.tr
	return context.WithValue(ctx, ctxKey{}, spanRef{tr: tr, idx: idx}), func() { tr.endSpan(idx) }
}

// TracerConfig parameterises a Tracer.
type TracerConfig struct {
	// Sample is the fraction of requests traced: <= 0 disables sampling
	// (forced traces still work), >= 1 traces everything, and anything in
	// between traces every round(1/Sample)-th request — deterministic
	// (counter-based, not random), so a seeded load plan samples the same
	// requests on every run.
	Sample float64
	// Ring bounds how many finished traces are retained for /v1/trace
	// lookups (default 512). Evicted traces return their span buffers to
	// the pool.
	Ring int
	// Seed makes trace IDs deterministic (det-derived from the sequence
	// number) when non-empty; otherwise IDs are random.
	Seed string
}

// Tracer samples requests into traces and retains finished traces in a
// bounded ring, addressable by ID.
type Tracer struct {
	every uint64 // trace when seq%every == 0; 0 = sampling off
	seed  string
	seq   atomic.Uint64

	mu   sync.Mutex
	ring []*Trace
	next int
	byID map[string]*Trace
	pool sync.Pool // []Span buffers recycled through ring eviction
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 512
	}
	t := &Tracer{
		seed: cfg.Seed,
		ring: make([]*Trace, cfg.Ring),
		byID: map[string]*Trace{},
	}
	switch {
	case cfg.Sample >= 1:
		t.every = 1
	case cfg.Sample > 0:
		t.every = uint64(1/cfg.Sample + 0.5)
	}
	return t
}

// Start begins a trace for one request when sampling (or force) selects
// it, returning a derived context carrying the root span. Unsampled
// requests return the context unchanged and a nil trace. The caller must
// Finish every non-nil trace.
func (t *Tracer) Start(ctx context.Context, rootName string, force bool) (context.Context, *Trace) {
	seq := t.seq.Add(1) - 1
	if !force && (t.every == 0 || seq%t.every != 0) {
		return ctx, nil
	}
	var id uint64
	if t.seed != "" {
		id = det.Hash64("trace", t.seed, strconv.FormatUint(seq, 10))
	} else {
		id = rand.Uint64()
	}
	tr := &Trace{id: fmt.Sprintf("%016x", id), start: time.Now()}
	if buf, ok := t.pool.Get().(*[]Span); ok {
		tr.spans = (*buf)[:0]
	}
	tr.spans = append(tr.spans, Span{Name: rootName, Parent: -1})
	return context.WithValue(ctx, ctxKey{}, spanRef{tr: tr, idx: 0}), tr
}

// Finish closes the trace's root span and publishes the trace to the ring,
// evicting (and recycling the span buffer of) the oldest entry.
func (t *Tracer) Finish(tr *Trace) {
	if tr == nil {
		return
	}
	tr.endSpan(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.ring[t.next]; old != nil {
		delete(t.byID, old.id)
		old.mu.Lock()
		buf := old.spans[:0]
		old.spans = nil
		old.mu.Unlock()
		t.pool.Put(&buf)
	}
	t.ring[t.next] = tr
	t.byID[tr.id] = tr
	t.next = (t.next + 1) % len(t.ring)
}

// SpanOut is one span of a trace snapshot, JSON-shaped for the /v1/trace
// debug endpoint.
type SpanOut struct {
	Name string `json:"name"`
	// Parent is the index of the enclosing span (-1 for the root).
	Parent int `json:"parent"`
	// StartUS is the offset from the trace start, DurUS the span length,
	// both in microseconds of real (not simulated) time.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// TraceOut is the JSON payload of one finished trace.
type TraceOut struct {
	TraceID string    `json:"trace_id"`
	Spans   []SpanOut `json:"spans"`
}

// Get snapshots a finished trace by ID.
func (t *Tracer) Get(id string) (TraceOut, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byID[id]
	if !ok {
		return TraceOut{}, false
	}
	out := TraceOut{TraceID: tr.id}
	tr.mu.Lock()
	for _, s := range tr.spans {
		out.Spans = append(out.Spans, SpanOut{
			Name:    s.Name,
			Parent:  int(s.Parent),
			StartUS: float64(s.Start) / float64(time.Microsecond),
			DurUS:   float64(s.Dur) / float64(time.Microsecond),
		})
	}
	tr.mu.Unlock()
	return out, true
}
