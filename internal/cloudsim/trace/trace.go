// Package trace implements an X-Ray-style distributed tracing
// subsystem for the simulated cloud. A Trace holds a tree of Spans,
// one per service hop of a request flow (gateway, lambda — including
// cold-start and billing-quantum sub-spans — s3, kms, dynamo, sqs,
// ses), each with start/end instants on the simulated timeline,
// string annotations (cold_start, billed_ms, region, bytes, ...) and
// the usage records the hop pushed into the pricing meter.
//
// The usage records double as a per-trace cost ledger: pricing each
// span's usage at list price (free tiers apply account-wide, not per
// request) attributes the request fee, GB-seconds and per-call
// charges to the exact hop that incurred them, so one chat message
// can be printed as a flame-style tree carrying both latency and
// dollars. The paper's Table 3 was measured from aggregate CloudWatch
// statistics; traces answer the question those aggregates cannot:
// *why* did this request take 827 ms, and what did it cost?
//
// A Trace is the write side: the request path opens spans, annotates
// them and attributes usage while the flow runs. When the root span
// finishes, the trace is folded once into its Store's columns, and
// from then on it is read only through the store's TraceView and
// SegmentView handles — there is no second way to read a trace. The
// Store is the X-Ray-sim backend proper: head-sampled (see
// SamplerConfig) traces in columnar storage, priced at 2017 X-Ray
// rates, and queried for service maps, critical paths and filter
// expressions. A flow with no store to land in is never traced: New
// returns nil and every Span method is a nil-safe no-op.
package trace

import (
	"sync"
	"time"

	"repro/internal/pricing"
)

// Annotation is one key/value pair attached to a span.
type Annotation struct {
	Key   string
	Value string
}

// Span is one timed operation inside a trace: a service hop, a
// sub-segment of one (cold start, billing quantum), or the client
// root. All methods are nil-safe so untraced flows cost one pointer
// check per hop.
type Span struct {
	tr *Trace

	service string
	op      string
	start   time.Time
	end     time.Time

	annotations []Annotation
	usage       []pricing.Usage
	children    []*Span
}

// Trace is a tree of spans rooted at the client request, bound to the
// store it folds into when the root finishes.
type Trace struct {
	mu    sync.Mutex
	store *Store
	root  *Span
	// row is the trace's row in store once folded, -1 before: a second
	// Finish finds it set and folds nothing.
	row int32

	// slab is the current span allocation chunk. Spans are handed out
	// slot by slot and a fresh fixed-capacity chunk replaces a full one,
	// so span pointers stay stable while a whole request flow costs one
	// or two allocations instead of one per hop — tracing a request must
	// stay cheap enough to leave on fleet-wide.
	slab []Span
}

// spanChunk sizes the slab: a chat-shaped flow (gateway, lambda and
// its sub-segments, per-hop IAM checks) runs about a dozen spans.
const spanChunk = 16

// newSpanLocked hands out the next slab slot, minting a new chunk when
// the current one is full. Never growing a chunk in place is what
// keeps previously returned *Span values valid.
func (t *Trace) newSpanLocked() *Span {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]Span, 0, spanChunk)
	}
	t.slab = append(t.slab, Span{})
	return &t.slab[len(t.slab)-1]
}

// New starts a trace bound for st whose root span (service "client",
// op name) opens at start. A nil store returns a nil trace: a trace
// nothing can read is never built.
func New(st *Store, name string, start time.Time) *Trace {
	if st == nil {
		return nil
	}
	t := &Trace{store: st, row: -1}
	t.root = t.newSpanLocked()
	*t.root = Span{tr: t, service: "client", op: name, start: start}
	return t
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish closes the root span at the given instant, which folds the
// trace into its store, and returns the stored trace's view. Only the
// first Finish folds; later calls return the same view. A nil trace
// returns false.
func (t *Trace) Finish(at time.Time) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	return TraceView{s: t.store, row: t.store.publish(t, at)}, true
}

// StartChild opens a sub-span under s at the given instant. Returns
// nil (safely chainable) when s is nil.
func (s *Span) StartChild(service, op string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	c := s.tr.newSpanLocked()
	*c = Span{tr: s.tr, service: service, op: op, start: at}
	if s.children == nil {
		s.children = make([]*Span, 0, 4)
	}
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// Finish closes the span at the given instant (clamped to the span's
// start so a span never ends before it began). Finishing the root
// publishes the trace: its store folds it in (see Store.publish).
func (s *Span) Finish(at time.Time) {
	if s == nil {
		return
	}
	if s == s.tr.root {
		s.tr.store.publish(s.tr, at)
		return
	}
	s.tr.mu.Lock()
	s.finishLocked(at)
	s.tr.mu.Unlock()
}

// finishLocked sets the span's end. Caller holds s.tr.mu.
func (s *Span) finishLocked(at time.Time) {
	if at.Before(s.start) {
		at = s.start
	}
	s.end = at
}

// Annotate attaches a key/value pair. Re-annotating a key overwrites
// its value.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i, a := range s.annotations {
		if a.Key == key {
			s.annotations[i].Value = value
			return
		}
	}
	if s.annotations == nil {
		s.annotations = make([]Annotation, 0, 4)
	}
	s.annotations = append(s.annotations, Annotation{Key: key, Value: value})
}

// Annotation reports the value for a key and whether it was set.
func (s *Span) Annotation(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for _, a := range s.annotations {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// AddUsage attributes one metered usage record to this span — the
// cost-ledger entry mirroring the service's meter.Add call.
func (s *Span) AddUsage(u pricing.Usage) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.usage == nil {
		s.usage = make([]pricing.Usage, 0, 2)
	}
	s.usage = append(s.usage, u)
	s.tr.mu.Unlock()
}
