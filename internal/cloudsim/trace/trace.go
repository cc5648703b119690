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
// them and attributes usage while the flow runs, writing into a span
// slab the trace borrows from its store. When the root span finishes,
// the trace is folded once from that slab into the Store's columns,
// the slab goes back to the store for the next trace, and from then on
// the trace is read only through the store's TraceView and SegmentView
// handles — there is no second way to read a trace.
//
// The Store is the X-Ray-sim backend proper: traces in columnar
// storage, priced at 2017 X-Ray rates, and queried for service maps,
// critical paths and filter expressions. A store built with a
// SamplerConfig head-samples by X-Ray's one default rule, a reservoir
// of one trace per virtual second plus 5% of the rest on a seeded coin;
// one built without keeps every trace. A flow with no store to land in
// is never traced: New returns nil and every Span method is a nil-safe
// no-op.
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
// root. A Span is a handle — its trace and its slot in the trace's
// slab — and never changes once made; the span's data lives in the
// slab. All methods are nil-safe so untraced flows cost one pointer
// check per hop, and every method on a span of a trace that has
// already folded is a no-op: the slab has gone back to the store, so a
// late call must not write into what is now another trace's slot.
type Span struct {
	tr *Trace
	i  int32 // slot in tr's slab; 0 is the root
}

// Trace is a tree of spans rooted at the client request, bound to the
// store it folds into when the root finishes. The Trace itself is the
// one allocation a traced request makes once the store's slabs and
// columns have grown to the flow's size: it is never recycled, so a
// stale *Trace or *Span can always tell that its trace has folded.
type Trace struct {
	mu    sync.Mutex
	store *Store
	// slab holds the live spans' data while the flow runs; nil once the
	// trace has folded and handed the slab back to the store.
	slab *slab
	// row is the trace's row in store once folded, -1 before: a second
	// Finish finds it set and folds nothing.
	row int32
	// root is the root span's handle, fixed by New.
	root *Span

	// handles are the Spans handed out, in slot order. The first
	// spanChunk live inside the Trace (buf); a longer flow grows the
	// slice, and the *Span values returned earlier stay valid because a
	// handle is immutable.
	handles []Span
	buf     [spanChunk]Span
}

// spanChunk sizes the handles kept inside a Trace: a traced request
// (gateway, lambda and its sub-segments, per-hop IAM checks and the
// service calls) runs about a dozen to two dozen spans.
const spanChunk = 24

// noSlot ends a slab list.
const noSlot = int32(-1)

// slab is the reusable storage of one live trace: the spans' data in
// slot order, and the annotations and usage records attributed to
// them. Each span links its children, annotations and usage records as
// lists through the slab's own columns, so a span, a child link, an
// annotation or a usage record costs no allocation once the slab has
// grown to a flow's size. A trace takes a slab from its store when it
// starts and gives it back when it folds.
type slab struct {
	spans []liveSpan
	annos []liveAnno
	uses  []liveUse
}

// liveSpan is one span's data while its trace runs. The list heads and
// tails are slots in the slab, noSlot when empty: children in creation
// order (next links siblings), annotations in first-set order, usage
// records in attribution order.
type liveSpan struct {
	service, op string
	start, end  time.Time // end is zero until Finish

	kidHead, kidTail, next int32
	annoHead, annoTail     int32
	useHead, useTail       int32
}

type liveAnno struct {
	key, val string
	next     int32
}

type liveUse struct {
	u    pricing.Usage
	next int32
}

// newSpanLocked appends a span to the slab, links it under parent
// (noSlot for the root) and returns its handle. Caller holds t.mu and
// t.slab is live.
func (t *Trace) newSpanLocked(service, op string, start time.Time, parent int32) *Span {
	sl := t.slab
	i := int32(len(sl.spans))
	sl.spans = append(sl.spans, liveSpan{
		service: service, op: op, start: start,
		kidHead: noSlot, kidTail: noSlot, next: noSlot,
		annoHead: noSlot, annoTail: noSlot, useHead: noSlot, useTail: noSlot,
	})
	if parent != noSlot {
		p := &sl.spans[parent]
		if p.kidTail == noSlot {
			p.kidHead = i
		} else {
			sl.spans[p.kidTail].next = i
		}
		p.kidTail = i
	}
	t.handles = append(t.handles, Span{tr: t, i: i})
	return &t.handles[len(t.handles)-1]
}

// New starts a trace bound for st whose root span (service "client",
// op name) opens at start. A nil store returns a nil trace: a trace
// nothing can read is never built.
func New(st *Store, name string, start time.Time) *Trace {
	if st == nil {
		return nil
	}
	t := &Trace{store: st, row: -1, slab: st.takeSlab()}
	t.handles = t.buf[:0]
	t.mu.Lock()
	t.root = t.newSpanLocked("client", name, start, noSlot)
	t.mu.Unlock()
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
// nil (safely chainable) when s is nil or its trace has folded.
func (s *Span) StartChild(service, op string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slab == nil {
		return nil
	}
	return t.newSpanLocked(service, op, at, s.i)
}

// Finish closes the span at the given instant (clamped to the span's
// start so a span never ends before it began). Finishing the root
// publishes the trace: its store folds it in (see Store.publish).
func (s *Span) Finish(at time.Time) {
	if s == nil {
		return
	}
	if s.i == 0 {
		s.tr.store.publish(s.tr, at)
		return
	}
	t := s.tr
	t.mu.Lock()
	if t.slab != nil {
		t.slab.finishLocked(s.i, at)
	}
	t.mu.Unlock()
}

// finishLocked sets span i's end. Caller holds the trace's mu.
func (sl *slab) finishLocked(i int32, at time.Time) {
	sp := &sl.spans[i]
	if at.Before(sp.start) {
		at = sp.start
	}
	sp.end = at
}

// Annotate attaches a key/value pair. Re-annotating a key overwrites
// its value.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if t.slab != nil {
		t.slab.annotateLocked(s.i, key, value)
	}
	t.mu.Unlock()
}

// annotateLocked sets key on span i, in place if it is already set.
// Caller holds the trace's mu.
func (sl *slab) annotateLocked(i int32, key, value string) {
	sp := &sl.spans[i]
	for a := sp.annoHead; a != noSlot; a = sl.annos[a].next {
		if sl.annos[a].key == key {
			sl.annos[a].val = value
			return
		}
	}
	a := int32(len(sl.annos))
	sl.annos = append(sl.annos, liveAnno{key: key, val: value, next: noSlot})
	if sp.annoTail == noSlot {
		sp.annoHead = a
	} else {
		sl.annos[sp.annoTail].next = a
	}
	sp.annoTail = a
}

// Annotation reports the value for a key and whether it was set. A
// span of a folded trace reports nothing; read the stored trace
// through its TraceView instead.
func (s *Span) Annotation(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.slab
	if sl == nil {
		return "", false
	}
	for a := sl.spans[s.i].annoHead; a != noSlot; a = sl.annos[a].next {
		if sl.annos[a].key == key {
			return sl.annos[a].val, true
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
	t := s.tr
	t.mu.Lock()
	if t.slab != nil {
		t.slab.addUsageLocked(s.i, u)
	}
	t.mu.Unlock()
}

// addUsageLocked appends u to span i's usage list. Caller holds the
// trace's mu.
func (sl *slab) addUsageLocked(i int32, u pricing.Usage) {
	sp := &sl.spans[i]
	x := int32(len(sl.uses))
	sl.uses = append(sl.uses, liveUse{u: u, next: noSlot})
	if sp.useTail == noSlot {
		sp.useHead = x
	} else {
		sl.uses[sp.useTail].next = x
	}
	sp.useTail = x
}

// resetLocked empties the slab for its next trace, keeping its
// capacity. Clearing drops the finished trace's strings, so a slab
// waiting in the free list pins nothing. Caller holds the store's mu.
func (sl *slab) resetLocked() {
	clear(sl.spans)
	clear(sl.annos)
	clear(sl.uses)
	sl.spans, sl.annos, sl.uses = sl.spans[:0], sl.annos[:0], sl.uses[:0]
}
