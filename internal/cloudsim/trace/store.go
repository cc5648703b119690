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

// Store is the X-Ray-sim backend: each head-sampled trace is folded
// into columnar storage once, when its root span finishes, so reads
// see every finished trace and never a half-built one.
//
// Each stored trace is a contiguous block of preorder segment rows in
// parallel arrays (service/op ids, instants, block-relative parent
// links, annotation and usage arena ranges). Service and operation
// names intern through sortutil.Names, and time-window reads run
// sortutil.Window over a cached start-time order — the storage core
// the metrics and logs stores share.
//
// Like the metrics and logs services, the store is read-only over the
// simulated economy: it never touches the account meter and its
// Usage() inventory (traces recorded, traces scanned — X-Ray's two
// billable dimensions) is priced only when a caller asks, so tracing
// on versus off is ledger-bit-identical. All methods are nil-safe: a
// cloud built with tracing disabled has a nil store, whose Decide
// keeps nothing, so its flows run untraced.
type Store struct {
	mu      sync.Mutex
	sampler *sampler

	// Interned service and operation names; segSvc/segOp hold ids.
	svcs sortutil.Names
	ops  sortutil.Names

	// Per-trace columns, one row per stored trace in publication order.
	rootStart []int64 // root span start, UnixNano
	rootEnd   []int64
	segLo     []int32 // the trace's segment block is [segLo, segHi)
	segHi     []int32

	// Per-segment columns, preorder within each trace's block.
	segSvc    []int32
	segOp     []int32
	segParent []int32 // block-relative parent index; -1 at the root
	segStart  []int64
	segEnd    []int64 // noEnd for a span never finished before its root
	annoLo    []int32 // annotation arena range
	annoHi    []int32
	useLo     []int32 // usage arena range
	useHi     []int32

	// Arenas shared by every segment.
	annoKeys []string
	annoVals []string
	usages   []pricing.Usage

	// byStart caches trace rows ordered by (rootStart, row) for
	// binary-searched windows; nil means rebuild on next read.
	byStart []int32

	// Counters: sampling decisions, decisions that kept the trace,
	// and traces touched by retrieval/analytics reads (the billed
	// scan dimension). Stored-trace count is len(rootStart).
	decided int64
	kept    int64
	scanned int64
}

// noEnd marks a segment whose span was never finished.
const noEnd = int64(-1) << 62

// StoreStats summarizes the store's sampling and scan counters.
type StoreStats struct {
	Decided int64 // head-sampling decisions taken
	Kept    int64 // decisions that kept the trace
	Stored  int64 // traces folded into columnar storage
	Scanned int64 // traces touched by retrieval and analytics reads
}

// NewStore returns an empty store sampling by cfg. A nil cfg keeps
// every recorded trace — the single-account default.
func NewStore(cfg *SamplerConfig) *Store {
	return &Store{sampler: newSampler(cfg)}
}

// Decide takes the head-based sampling decision for a request named
// (service, op) arriving at the given virtual instant: true means the
// caller should build a trace with New, false means the flow runs
// untraced (nil-safe spans make that nearly free). A nil store — a
// cloud with tracing disabled — decides false, so nothing builds a
// trace that no store would hold.
func (s *Store) Decide(service, op string, at time.Time) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := s.sampler.decideLocked(service, op, at)
	s.decided++
	if keep {
		s.kept++
	}
	return keep
}

// publish closes t's root span at the given instant and, the first
// time, folds t into the columns — the store's only write, run once
// per kept request from the root's Finish. Reads therefore never see a
// trace whose root is still open, and stored rows follow finish order.
// It returns t's row. Locks are taken store first, then trace.
func (s *Store) publish(t *Trace, at time.Time) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.finishLocked(at)
	if t.row < 0 {
		s.foldLocked(t)
	}
	return t.row
}

// foldLocked copies one finished trace into the columns: interned
// handles, preorder segment rows, arena-packed annotations and usage.
// Caller holds s.mu and t.mu.
func (s *Store) foldLocked(t *Trace) {
	base := int32(len(s.segSvc))
	s.foldSpanLocked(t.root, -1, base)
	s.rootStart = append(s.rootStart, t.root.start.UnixNano())
	s.rootEnd = append(s.rootEnd, t.root.end.UnixNano())
	s.segLo = append(s.segLo, base)
	s.segHi = append(s.segHi, int32(len(s.segSvc)))
	s.byStart = nil
	t.row = int32(len(s.rootStart) - 1)
}

// foldSpanLocked appends sp's segment row, then its subtree in
// preorder. parent is block-relative to base.
func (s *Store) foldSpanLocked(sp *Span, parent, base int32) {
	idx := int32(len(s.segSvc)) - base
	s.segSvc = append(s.segSvc, s.svcs.IDLocked(sp.service))
	s.segOp = append(s.segOp, s.ops.IDLocked(sp.op))
	s.segParent = append(s.segParent, parent)
	s.segStart = append(s.segStart, sp.start.UnixNano())
	if sp.end.IsZero() {
		s.segEnd = append(s.segEnd, noEnd)
	} else {
		s.segEnd = append(s.segEnd, sp.end.UnixNano())
	}
	al := int32(len(s.annoKeys))
	for _, a := range sp.annotations {
		s.annoKeys = append(s.annoKeys, a.Key)
		s.annoVals = append(s.annoVals, a.Value)
	}
	s.annoLo = append(s.annoLo, al)
	s.annoHi = append(s.annoHi, int32(len(s.annoKeys)))
	ul := int32(len(s.usages))
	s.usages = append(s.usages, sp.usage...)
	s.useLo = append(s.useLo, ul)
	s.useHi = append(s.useHi, int32(len(s.usages)))
	for _, c := range sp.children {
		s.foldSpanLocked(c, idx, base)
	}
}

// Len reports how many traces the store holds.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rootStart)
}

// Stats reports the sampling and scan counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Decided: s.decided,
		Kept:    s.kept,
		Stored:  int64(len(s.rootStart)),
		Scanned: s.scanned,
	}
}

// Usage reports the store's billable X-Ray inventory: traces recorded
// into storage and traces retrieved or scanned by reads. Like the
// metrics and logs services, the inventory is never pushed into the
// account meter automatically — tracing must not move the ledger.
func (s *Store) Usage() []pricing.Usage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return []pricing.Usage{
		{Kind: pricing.XRayTracesRecorded, Quantity: float64(len(s.rootStart)), Resource: "xray"},
		{Kind: pricing.XRayTracesScanned, Quantity: float64(s.scanned), Resource: "xray"},
	}
}

// orderLocked returns trace rows ordered by (root start, row),
// rebuilding the cache if ingestion invalidated it.
func (s *Store) orderLocked() []int32 {
	if s.byStart == nil {
		s.byStart = make([]int32, len(s.rootStart))
		for i := range s.byStart {
			s.byStart[i] = int32(i)
		}
		sort.Slice(s.byStart, func(i, j int) bool {
			a, b := s.byStart[i], s.byStart[j]
			if s.rootStart[a] != s.rootStart[b] {
				return s.rootStart[a] < s.rootStart[b]
			}
			return a < b
		})
	}
	return s.byStart
}

// windowLocked returns the rows whose root start falls in [from, to]
// (zero bounds are open) in start order, via sortutil.Window on the
// cached order.
func (s *Store) windowLocked(from, to time.Time) []int32 {
	ord := s.orderLocked()
	lo, hi := sortutil.Window(len(ord), func(i int) int64 { return s.rootStart[ord[i]] }, from, to)
	return ord[lo:hi]
}

// Window returns views of the stored traces whose root started in
// [from, to] (zero bounds are open), in start order. The retrieval
// counts toward the scanned dimension.
func (s *Store) Window(from, to time.Time) []TraceView {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.windowLocked(from, to)
	s.scanned += int64(len(rows))
	out := make([]TraceView, len(rows))
	for i, r := range rows {
		out[i] = TraceView{s: s, row: r}
	}
	return out
}

// Last returns the most recently stored trace, if any. The retrieval
// counts one scanned trace.
func (s *Store) Last() (TraceView, bool) {
	if s == nil {
		return TraceView{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rootStart) == 0 {
		return TraceView{}, false
	}
	s.scanned++
	return TraceView{s: s, row: int32(len(s.rootStart) - 1)}, true
}

// TraceView is a handle onto one stored trace. The zero value is
// invalid; obtain views from Stored, Window, Last or Query.
type TraceView struct {
	s   *Store
	row int32
}

// SegmentView is a handle onto one stored segment (span) of a trace.
type SegmentView struct {
	s   *Store
	seg int32 // absolute segment index
	lo  int32 // owning trace's block start, for parent/child resolution
}

// Name reports the trace's name (the root segment's op).
func (v TraceView) Name() string {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.ops.Name(v.s.segOp[v.s.segLo[v.row]])
}

// End reports when the trace's root span closed.
func (v TraceView) End() time.Time {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return time.Unix(0, v.s.rootEnd[v.row]).UTC()
}

// Duration reports the root span's duration.
func (v TraceView) Duration() time.Duration {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.durLocked(v.s.segLo[v.row])
}

// Root returns the root segment.
func (v TraceView) Root() SegmentView {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	lo := v.s.segLo[v.row]
	return SegmentView{s: v.s, seg: lo, lo: lo}
}

// Segments returns every segment in preorder (parent before children,
// siblings in creation order) — the order they were folded in.
func (v TraceView) Segments() []SegmentView {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	lo, hi := v.s.segLo[v.row], v.s.segHi[v.row]
	out := make([]SegmentView, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, SegmentView{s: v.s, seg: i, lo: lo})
	}
	return out
}

// Find returns the first segment (preorder) matching service and, if
// op is non-empty, op.
func (v TraceView) Find(service, op string) (SegmentView, bool) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	lo, hi := v.s.segLo[v.row], v.s.segHi[v.row]
	for i := lo; i < hi; i++ {
		if v.s.svcs.Name(v.s.segSvc[i]) == service && (op == "" || v.s.ops.Name(v.s.segOp[i]) == op) {
			return SegmentView{s: v.s, seg: i, lo: lo}, true
		}
	}
	return SegmentView{}, false
}

// Usage aggregates the whole trace's usage records by (kind,
// resource, app) in the pricing meter's snapshot order — the same
// shape a meter diff across the request would produce, so the two can
// be compared record for record.
func (v TraceView) Usage() []pricing.Usage {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.traceUsageLocked(v.row)
}

// Cost prices the whole trace at the book's list price.
func (v TraceView) Cost(book *pricing.PriceBook) pricing.Money {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.traceCostLocked(v.row, book)
}

// Render prints the stored trace as a flame-style tree: one line per
// segment with its offset from the trace start, duration, annotations
// and per-segment list-price cost, under a header with the trace's
// total cost.
//
//	chat-send  211ms  $0.00000182
//	└─ gateway /casey/chat/xmpp  +0ms 195ms
//	   └─ lambda casey-chat  +16ms 179ms  cold_start=false ... $0.00000166
//	      ├─ kms kms:Decrypt  +25ms 14ms  $0.00000300
//	...
func (v TraceView) Render(book *pricing.PriceBook) string {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	s := v.s
	lo := s.segLo[v.row]
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  %s  %s\n", s.ops.Name(s.segOp[lo]), fmtDur(s.durLocked(lo)),
		fmtCost(s.traceCostLocked(v.row, book)))
	kids := s.childrenLocked(v.row)
	t0 := s.segStart[lo]
	for i, c := range kids[0] {
		s.renderSegLocked(&sb, book, kids, c, lo, "", i == len(kids[0])-1, t0)
	}
	return sb.String()
}

// childrenLocked builds the block-relative child lists of one stored
// trace: kids[i] are the children of segment i, in creation order.
func (s *Store) childrenLocked(row int32) [][]int32 {
	lo, hi := s.segLo[row], s.segHi[row]
	kids := make([][]int32, hi-lo)
	for i := lo + 1; i < hi; i++ {
		p := s.segParent[i]
		kids[p] = append(kids[p], i-lo)
	}
	return kids
}

func (s *Store) renderSegLocked(sb *strings.Builder, book *pricing.PriceBook, kids [][]int32, rel, lo int32, prefix string, last bool, t0 int64) {
	branch, cont := "├─ ", "│  "
	if last {
		branch, cont = "└─ ", "   "
	}
	i := lo + rel
	fmt.Fprintf(sb, "%s%s%s %s  +%s %s", prefix, branch, s.svcs.Name(s.segSvc[i]), s.ops.Name(s.segOp[i]),
		fmtDur(time.Duration(s.segStart[i]-t0)), fmtDur(s.durLocked(i)))
	for a := s.annoLo[i]; a < s.annoHi[i]; a++ {
		fmt.Fprintf(sb, "  %s=%s", s.annoKeys[a], s.annoVals[a])
	}
	if c := s.segCostLocked(i, book); c != 0 {
		fmt.Fprintf(sb, "  %s", fmtCost(c))
	}
	sb.WriteByte('\n')
	for j, c := range kids[rel] {
		s.renderSegLocked(sb, book, kids, c, lo, prefix+cont, j == len(kids[rel])-1, t0)
	}
}

func (s *Store) durLocked(seg int32) time.Duration {
	if s.segEnd[seg] == noEnd {
		return 0
	}
	return time.Duration(s.segEnd[seg] - s.segStart[seg])
}

func (s *Store) segCostLocked(seg int32, book *pricing.PriceBook) pricing.Money {
	var total pricing.Money
	for u := s.useLo[seg]; u < s.useHi[seg]; u++ {
		total += book.ListPrice(s.usages[u])
	}
	return total
}

// traceUsageLocked aggregates one stored trace's usage. A trace's
// segments are folded contiguously, so their usage is one arena run.
func (s *Store) traceUsageLocked(row int32) []pricing.Usage {
	return pricing.Aggregate(s.usages[s.useLo[s.segLo[row]]:s.useHi[s.segHi[row]-1]])
}

func (s *Store) traceCostLocked(row int32, book *pricing.PriceBook) pricing.Money {
	var total pricing.Money
	for _, u := range s.traceUsageLocked(row) {
		total += book.ListPrice(u)
	}
	return total
}

// Service reports the segment's service name.
func (g SegmentView) Service() string {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.svcs.Name(g.s.segSvc[g.seg])
}

// Op reports the segment's operation name.
func (g SegmentView) Op() string {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.ops.Name(g.s.segOp[g.seg])
}

// Start reports when the segment opened on the simulated timeline.
func (g SegmentView) Start() time.Time {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return time.Unix(0, g.s.segStart[g.seg]).UTC()
}

// End reports when the segment closed (zero if it never finished).
func (g SegmentView) End() time.Time {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if g.s.segEnd[g.seg] == noEnd {
		return time.Time{}
	}
	return time.Unix(0, g.s.segEnd[g.seg]).UTC()
}

// Duration reports the segment's duration (zero if it never finished).
func (g SegmentView) Duration() time.Duration {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.durLocked(g.seg)
}

// Annotation reports the value for a key and whether it was set.
func (g SegmentView) Annotation(key string) (string, bool) {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	for a := g.s.annoLo[g.seg]; a < g.s.annoHi[g.seg]; a++ {
		if g.s.annoKeys[a] == key {
			return g.s.annoVals[a], true
		}
	}
	return "", false
}

// Usage returns a copy of the segment's own usage records.
func (g SegmentView) Usage() []pricing.Usage {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return append([]pricing.Usage(nil), g.s.usages[g.s.useLo[g.seg]:g.s.useHi[g.seg]]...)
}

// Cost prices this segment's own usage at list price.
func (g SegmentView) Cost(book *pricing.PriceBook) pricing.Money {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.segCostLocked(g.seg, book)
}

// Parent returns the segment's parent, false at the root.
func (g SegmentView) Parent() (SegmentView, bool) {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	p := g.s.segParent[g.seg]
	if p < 0 {
		return SegmentView{}, false
	}
	return SegmentView{s: g.s, seg: g.lo + p, lo: g.lo}, true
}

// fmtDur and fmtCost delegate to the shared sortutil formatters so
// trace renders, the fleet trace dashboard and every other
// observability surface agree digit-for-digit on rounding.
func fmtDur(d time.Duration) string { return sortutil.FormatDuration(d) }

// fmtCost prints a span-scale amount: nanodollar sums far below the
// bill's cent resolution, so render micro-dollar precision.
func fmtCost(m pricing.Money) string { return sortutil.FormatMoneyNanos(m.Nanodollars()) }
