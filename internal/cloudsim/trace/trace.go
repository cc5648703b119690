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
// A Trace models a single causal request chain, like sim.Cursor, but
// is internally locked so concurrent flows may safely share a Store
// and read finished traces from other goroutines. The Store is the
// X-Ray-sim backend proper: head-sampled (see SamplerConfig) traces
// folded into columnar storage at the next read, priced at 2017 X-Ray
// rates, and queried for service maps, critical paths and filter
// expressions.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cloudsim/sortutil"
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
	tr     *Trace
	parent *Span

	service string
	op      string
	start   time.Time
	end     time.Time

	annotations []Annotation
	usage       []pricing.Usage
	children    []*Span
}

// Trace is a tree of spans rooted at the client request.
type Trace struct {
	mu   sync.Mutex
	name string
	root *Span

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

// New starts a trace whose root span (service "client", op name)
// opens at start.
func New(name string, start time.Time) *Trace {
	t := &Trace{name: name}
	t.root = t.newSpanLocked()
	*t.root = Span{tr: t, service: "client", op: name, start: start}
	return t
}

// Name reports the trace's name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish closes the root span at the given instant.
func (t *Trace) Finish(at time.Time) { t.Root().Finish(at) }

// Duration reports the root span's duration.
func (t *Trace) Duration() time.Duration { return t.Root().Duration() }

// Spans returns every span in the trace in preorder (parent before
// children, siblings in creation order).
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	var walk func(s *Span)
	walk = func(s *Span) {
		out = append(out, s)
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Find returns the first span (preorder) matching service and, if op
// is non-empty, op. Nil if none matches.
func (t *Trace) Find(service, op string) *Span {
	for _, s := range t.Spans() {
		if s.service == service && (op == "" || s.op == op) {
			return s
		}
	}
	return nil
}

// FindAll returns every span (preorder) for a service.
func (t *Trace) FindAll(service string) []*Span {
	var out []*Span
	for _, s := range t.Spans() {
		if s.service == service {
			out = append(out, s)
		}
	}
	return out
}

// Usage aggregates the whole trace's usage records by (kind,
// resource, app), in the pricing meter's snapshot order — the same
// shape a meter diff across the request would produce, so the two can
// be compared record for record.
func (t *Trace) Usage() []pricing.Usage {
	type key struct {
		kind     pricing.Kind
		resource string
		app      string
	}
	sums := make(map[key]float64)
	for _, s := range t.Spans() {
		for _, u := range s.Usage() {
			sums[key{u.Kind, u.Resource, u.App}] += u.Quantity
		}
	}
	out := make([]pricing.Usage, 0, len(sums))
	for k, q := range sums {
		out = append(out, pricing.Usage{Kind: k.kind, Quantity: q, Resource: k.resource, App: k.app})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.App < b.App
	})
	return out
}

// Cost prices the whole trace at the book's list price (no free
// tiers), aggregating usage first so the arithmetic matches pricing a
// meter diff of the same flow.
func (t *Trace) Cost(book *pricing.PriceBook) pricing.Money {
	var total pricing.Money
	for _, u := range t.Usage() {
		total += book.ListPrice(u)
	}
	return total
}

// StartChild opens a sub-span under s at the given instant. Returns
// nil (safely chainable) when s is nil.
func (s *Span) StartChild(service, op string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	c := s.tr.newSpanLocked()
	*c = Span{tr: s.tr, parent: s, service: service, op: op, start: at}
	if s.children == nil {
		s.children = make([]*Span, 0, 4)
	}
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// Finish closes the span at the given instant (clamped to the span's
// start so a span never ends before it began).
func (s *Span) Finish(at time.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if at.Before(s.start) {
		at = s.start
	}
	s.end = at
	s.tr.mu.Unlock()
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

// Annotations returns a copy of the span's annotations in insertion
// order.
func (s *Span) Annotations() []Annotation {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return append([]Annotation(nil), s.annotations...)
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

// Usage returns a copy of the span's own usage records (children not
// included).
func (s *Span) Usage() []pricing.Usage {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return append([]pricing.Usage(nil), s.usage...)
}

// Cost prices this span's own usage at list price.
func (s *Span) Cost(book *pricing.PriceBook) pricing.Money {
	var total pricing.Money
	for _, u := range s.Usage() {
		total += book.ListPrice(u)
	}
	return total
}

// SubtreeCost prices this span and everything under it.
func (s *Span) SubtreeCost(book *pricing.PriceBook) pricing.Money {
	if s == nil {
		return 0
	}
	total := s.Cost(book)
	for _, c := range s.Children() {
		total += c.SubtreeCost(book)
	}
	return total
}

// Service reports the span's service name.
func (s *Span) Service() string {
	if s == nil {
		return ""
	}
	return s.service
}

// Op reports the span's operation name.
func (s *Span) Op() string {
	if s == nil {
		return ""
	}
	return s.op
}

// Start reports when the span opened on the simulated timeline.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// End reports when the span closed (zero if still open).
func (s *Span) End() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.end
}

// Duration reports the span's duration (zero while open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Children returns a copy of the span's direct children in creation
// order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Parent returns the span's parent (nil for the root).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Render prints the trace as a flame-style tree: one line per span
// with its offset from the trace start, duration, annotations and
// per-span list-price cost, followed by the trace's total cost.
//
//	chat-send  211ms  $0.00000182
//	├─ gateway /casey/chat/xmpp  +0ms 195ms
//	│  └─ lambda casey-chat  +16ms 179ms  cold_start=false ... $0.00000166
//	│     ├─ kms kms:Decrypt  +25ms 14ms  $0.00000300
//	...
func (t *Trace) Render(book *pricing.PriceBook) string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	root := t.Root()
	fmt.Fprintf(&sb, "%s  %s  %s\n", t.name, fmtDur(root.Duration()), fmtCost(t.Cost(book)))
	children := root.Children()
	for i, c := range children {
		t.renderSpan(&sb, book, c, "", i == len(children)-1, root.Start())
	}
	return sb.String()
}

func (t *Trace) renderSpan(sb *strings.Builder, book *pricing.PriceBook, s *Span, prefix string, last bool, t0 time.Time) {
	branch, cont := "├─ ", "│  "
	if last {
		branch, cont = "└─ ", "   "
	}
	fmt.Fprintf(sb, "%s%s%s %s  +%s %s", prefix, branch, s.Service(), s.Op(),
		fmtDur(s.Start().Sub(t0)), fmtDur(s.Duration()))
	for _, a := range s.Annotations() {
		fmt.Fprintf(sb, "  %s=%s", a.Key, a.Value)
	}
	if c := s.Cost(book); c != 0 {
		fmt.Fprintf(sb, "  %s", fmtCost(c))
	}
	sb.WriteByte('\n')
	children := s.Children()
	for i, c := range children {
		t.renderSpan(sb, book, c, prefix+cont, i == len(children)-1, t0)
	}
}

// fmtDur and fmtCost delegate to the shared sortutil formatters so
// trace renders, the fleet trace dashboard and every other
// observability surface agree digit-for-digit on rounding.
func fmtDur(d time.Duration) string { return sortutil.FormatDuration(d) }

// fmtCost prints a span-scale amount: nanodollar sums far below the
// bill's cent resolution, so render micro-dollar precision.
func fmtCost(m pricing.Money) string { return sortutil.FormatMoneyNanos(m.Nanodollars()) }
