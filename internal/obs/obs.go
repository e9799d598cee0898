// Package obs is the zero-dependency observability layer shared by the
// library engines, the CLIs and the serving daemon: request-scoped span
// trees, fixed-bucket latency histograms and a Prometheus text-exposition
// linter, in the same homegrown style as the daemon's metrics.
//
// A span tree records where a solve spends its time — ingest, cache lookup,
// queue wait, engine solve, and inside the engine the per-level coarsening,
// per-bisection GD and rounding. Trees are built under one trace-wide mutex
// and exported as immutable snapshots, so concurrent readers (the daemon's
// /v1/jobs/{id}/trace endpoint polling a running job) are safe.
//
// Determinism contract: span STRUCTURE — names, nesting, child order,
// counts, and every attribute — must be byte-identical for a fixed seed at
// any worker count; only start offsets and durations may vary. The engines
// uphold this by always creating sibling spans from the parent's own
// goroutine in deterministic code order before forking work, never from
// inside concurrent branches; attributes carry only seed-deterministic
// values (sizes, paths, iteration counts, localities — results are
// bit-identical at any parallelism, so these are too). Structure() renders
// exactly the deterministic part, which is what the determinism tests
// compare.
//
// All Span methods are safe on a nil receiver and do nothing, so untraced
// solves pay a single nil check per would-be span.
package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// trace is the shared state of one span tree: the epoch every span offset is
// relative to, and the mutex serializing all mutation and snapshotting.
type trace struct {
	mu    chan struct{} // 1-buffered channel as mutex; avoids sync import cycle concerns and keeps Span copyable-by-pointer only
	epoch time.Time
}

func (t *trace) lock()   { t.mu <- struct{}{} }
func (t *trace) unlock() { <-t.mu }

// Span is one timed region of a trace. Create the root with NewTrace, childs
// with Start, finish with End, annotate with SetAttr. A nil *Span is a valid
// no-op sink: every method returns immediately (Start returns nil), so call
// sites never need to guard.
type Span struct {
	tr       *trace
	name     string
	start    time.Duration // offset from trace epoch
	dur      time.Duration // zero until End
	ended    bool
	attrs    map[string]any
	children []*Span
}

// NewTrace starts a new span tree rooted at a span with the given name.
func NewTrace(name string) *Span {
	tr := &trace{mu: make(chan struct{}, 1), epoch: time.Now()}
	return &Span{tr: tr, name: name}
}

// Start creates and returns a child span, started now. Call from the
// goroutine that owns s (or before forking work to children): sibling order
// is creation order, and the determinism contract requires creation order to
// be schedule-independent.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Since(s.tr.epoch)}
	s.tr.lock()
	s.children = append(s.children, c)
	s.tr.unlock()
	return c
}

// Begin restarts the span's clock now. A span created ahead of the work it
// times — so that sibling order is fixed before the work is scheduled —
// calls it when that work starts, so its duration never counts the wait.
func (s *Span) Begin() {
	if s == nil {
		return
	}
	now := time.Since(s.tr.epoch)
	s.tr.lock()
	s.start = now
	s.tr.unlock()
}

// End marks the span finished, recording its duration. Idempotent: the first
// End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.tr.epoch) - s.start
	}
	s.tr.unlock()
}

// SetAttr attaches (or overwrites) one attribute. Values must be
// seed-deterministic (sizes, paths, iteration counts, localities) — never
// durations or timestamps, which belong in the span timing itself.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.tr.lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.tr.unlock()
}

// Snapshot deep-copies the tree rooted at s into an immutable view, safe to
// render while the solve is still mutating the live spans.
func (s *Span) Snapshot() *SpanView {
	if s == nil {
		return nil
	}
	s.tr.lock()
	defer s.tr.unlock()
	return s.view()
}

// view copies one span (callers hold the trace lock).
func (s *Span) view() *SpanView {
	v := &SpanView{
		Name:    s.name,
		StartUS: s.start.Microseconds(),
		DurUS:   s.dur.Microseconds(),
		Ended:   s.ended,
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]any, len(s.attrs))
		for k, av := range s.attrs {
			v.Attrs[k] = av
		}
	}
	for _, c := range s.children {
		v.Children = append(v.Children, c.view())
	}
	return v
}

// SpanView is the immutable, JSON-ready snapshot of a span. Attrs marshal
// with sorted keys (encoding/json sorts map keys), so two structurally
// identical traces marshal identically except for the timing fields.
type SpanView struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// Ended reports whether End had run when the snapshot was taken; a span
	// still false after its request finished is a span-accounting leak.
	Ended    bool           `json:"ended"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanView    `json:"children,omitempty"`
}

// Structure renders the deterministic part of the tree — names, sorted
// attributes, nesting and child order — with every timing field excluded.
// Two runs of the same request at different worker counts must produce
// byte-identical Structure strings; the determinism tests compare exactly
// this.
func (v *SpanView) Structure() string {
	var b strings.Builder
	v.structure(&b)
	return b.String()
}

func (v *SpanView) structure(b *strings.Builder) {
	if v == nil {
		return
	}
	b.WriteString(v.Name)
	if len(v.Attrs) > 0 {
		keys := make([]string, 0, len(v.Attrs))
		for k := range v.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(formatAttr(v.Attrs[k]))
		}
		b.WriteByte('}')
	}
	if len(v.Children) > 0 {
		b.WriteByte('[')
		for i, c := range v.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.structure(b)
		}
		b.WriteByte(']')
	}
}

// formatAttr renders an attribute value deterministically: floats get the
// shortest exact representation, everything else %v.
func formatAttr(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Walk visits every span of the view in depth-first pre-order.
func (v *SpanView) Walk(fn func(*SpanView)) {
	if v == nil {
		return
	}
	fn(v)
	for _, c := range v.Children {
		c.Walk(fn)
	}
}

// CountSpans returns the number of spans in the tree.
func (v *SpanView) CountSpans() int {
	n := 0
	v.Walk(func(*SpanView) { n++ })
	return n
}

// Float reads a numeric attribute, tolerating the int/int64/float64 variety
// attr writers (and JSON round trips) produce.
func (v *SpanView) Float(key string) (float64, bool) {
	if v == nil || v.Attrs == nil {
		return 0, false
	}
	switch x := v.Attrs[key].(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case int32:
		return float64(x), true
	}
	return 0, false
}

type ctxKey struct{}

// NewContext returns ctx carrying the span; handlers thread the request's
// trace through their call chain with it.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil (a valid no-op span)
// when the request is untraced.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
