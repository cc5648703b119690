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
// Each stored trace is a contiguous run of preorder segment rows
// (service/op ids, instants, block-relative parent links, annotation
// and usage row ranges). Every column that grows with the stored
// traces is pointer-free, so the GC never scans it, and is a
// sortutil.Chunks, which never copies what it holds as it grows:
// service, operation and annotation-key names, and the usage records'
// kind, resource and app, intern through sortutil.Names; annotation
// values are runs of one byte column; a usage row is three ids and a
// quantity. Time-window reads run sortutil.Window over a cached
// start-time order — the storage core the metrics and logs stores
// share.
//
// The store also keeps the span slabs (see slab) of finished traces
// for the next traces to reuse, so tracing a request allocates only
// its Trace once a slab has grown to a flow's size.
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

	// Interned service and operation names; a segRow holds their ids.
	svcs sortutil.Names
	ops  sortutil.Names

	// Per-trace columns, one row per stored trace in publication order.
	rootStart []int64 // root span start, UnixNano
	segLo     []int32 // the trace's segment block is [segLo, segHi)
	segHi     []int32

	// Segment rows, each trace's block one run in preorder.
	segs sortutil.Chunks[segRow]

	// Annotation rows, each segment's one run: a key id in annoKeys and
	// a value, a run of annoBytes. The aliasing rule of sortutil.Chunks
	// is the store's: reads inside the store compare and render values
	// as views (annoVal) without copying, and a value that leaves the
	// store (SegmentView.Annotation) is a copy.
	annoKeys  sortutil.Names
	annos     sortutil.Chunks[annoRow]
	annoBytes sortutil.Chunks[byte]

	// Usage rows, each segment's one run, with kind, resource and app
	// interned in useNames.
	useNames sortutil.Names
	uses     sortutil.Chunks[useRow]

	// Scratch the fold builds one trace's rows in before appending each
	// run, kept for the next fold.
	segBuf  []segRow
	annoBuf []annoRow
	useBuf  []useRow

	// free holds the slabs of folded traces for New to hand out again.
	free []*slab

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

// segRow is one stored segment: service and op ids, the parent's
// index within its trace's block (-1 at the root), its instants
// (UnixNano; end is noEnd for a span never finished before its root),
// and its annotation and usage row ranges.
type segRow struct {
	svc, op, parent              int32
	start, end                   int64
	annoLo, annoHi, useLo, useHi int32
}

// annoRow is one stored annotation: its key's id in annoKeys and its
// value, annoBytes[lo:hi].
type annoRow struct{ key, lo, hi int32 }

// useRow is one stored usage record, pointer-free: kind, resource and
// app are ids in useNames.
type useRow struct {
	kind, res, app int32
	qty            float64
}

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

// takeSlab hands a new trace a slab from the free list, or a fresh
// one while every slab is in use by a live trace.
func (s *Store) takeSlab() *slab {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return new(slab)
	}
	sl := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return sl
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
	if t.row < 0 {
		t.slab.finishLocked(0, at)
		s.foldLocked(t)
	}
	return t.row
}

// foldLocked copies one finished trace from its slab into the columns
// — interned handles, one run of preorder segment rows, and each
// segment's annotation and usage runs — then empties the slab into the
// free list and detaches it from t, which turns every later call on
// t's spans into a no-op. Caller holds s.mu and t.mu.
func (s *Store) foldLocked(t *Trace) {
	sl := t.slab
	s.segBuf = s.segBuf[:0]
	s.foldSpanLocked(sl, 0, -1)
	lo, hi := s.segs.Append(s.segBuf...)
	s.rootStart = append(s.rootStart, sl.spans[0].start.UnixNano())
	s.segLo = append(s.segLo, lo)
	s.segHi = append(s.segHi, hi)
	s.byStart = nil
	t.row = int32(len(s.rootStart) - 1)
	sl.resetLocked()
	s.free = append(s.free, sl)
	t.slab = nil
}

// foldSpanLocked appends slot i's segment row to segBuf, then its
// subtree in preorder. parent is the parent's index in segBuf.
func (s *Store) foldSpanLocked(sl *slab, i, parent int32) {
	idx := int32(len(s.segBuf))
	sp := &sl.spans[i]
	r := segRow{
		svc:    s.svcs.IDLocked(sp.service),
		op:     s.ops.IDLocked(sp.op),
		parent: parent,
		start:  sp.start.UnixNano(),
		end:    noEnd,
	}
	if !sp.end.IsZero() {
		r.end = sp.end.UnixNano()
	}
	s.annoBuf = s.annoBuf[:0]
	for a := sp.annoHead; a != noSlot; a = sl.annos[a].next {
		an := &sl.annos[a]
		lo, hi := sortutil.PutString(&s.annoBytes, an.val)
		s.annoBuf = append(s.annoBuf, annoRow{key: s.annoKeys.IDLocked(an.key), lo: lo, hi: hi})
	}
	r.annoLo, r.annoHi = s.annos.Append(s.annoBuf...)
	s.useBuf = s.useBuf[:0]
	for u := sp.useHead; u != noSlot; u = sl.uses[u].next {
		x := &sl.uses[u].u
		s.useBuf = append(s.useBuf, useRow{
			kind: s.useNames.IDLocked(string(x.Kind)),
			res:  s.useNames.IDLocked(x.Resource),
			app:  s.useNames.IDLocked(x.App),
			qty:  x.Quantity,
		})
	}
	r.useLo, r.useHi = s.uses.Append(s.useBuf...)
	s.segBuf = append(s.segBuf, r)
	for c := sp.kidHead; c != noSlot; c = sl.spans[c].next {
		s.foldSpanLocked(sl, c, idx)
	}
}

// annoVal returns annotation row a's value as a view of annoBytes; see
// the aliasing rule there.
func (s *Store) annoVal(a int32) string {
	r := s.annos.At(a)
	return sortutil.View(&s.annoBytes, r.lo, r.hi)
}

// usageAt rebuilds usage row u as a pricing.Usage; its strings are the
// interned names, so nothing is allocated.
func (s *Store) usageAt(u int32) pricing.Usage {
	r := s.uses.At(u)
	return pricing.Usage{
		Kind:     pricing.Kind(s.useNames.Name(r.kind)),
		Quantity: r.qty,
		Resource: s.useNames.Name(r.res),
		App:      s.useNames.Name(r.app),
	}
}

// annoLocked returns seg's row for the annotation key, or -1.
func (s *Store) annoLocked(seg int32, key string) int32 {
	id, ok := s.annoKeys.Lookup(key)
	if !ok {
		return -1
	}
	r := s.segs.At(seg)
	for a := r.annoLo; a < r.annoHi; a++ {
		if s.annos.At(a).key == id {
			return a
		}
	}
	return -1
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
}

// Name reports the trace's name (the root segment's op).
func (v TraceView) Name() string {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.ops.Name(v.s.segs.At(v.s.segLo[v.row]).op)
}

// Duration reports the root span's duration.
func (v TraceView) Duration() time.Duration {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.durLocked(v.s.segLo[v.row])
}

// Find returns the first segment (preorder) matching service and, if
// op is non-empty, op.
func (v TraceView) Find(service, op string) (SegmentView, bool) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	lo, hi := v.s.segLo[v.row], v.s.segHi[v.row]
	for i := lo; i < hi; i++ {
		r := v.s.segs.At(i)
		if v.s.svcs.Name(r.svc) == service && (op == "" || v.s.ops.Name(r.op) == op) {
			return SegmentView{s: v.s, seg: i}, true
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
	fmt.Fprintf(&sb, "%s  %s  %s\n", s.ops.Name(s.segs.At(lo).op), fmtDur(s.durLocked(lo)),
		fmtCost(s.traceCostLocked(v.row, book)))
	kids := s.childrenLocked(v.row)
	t0 := s.segs.At(lo).start
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
		p := s.segs.At(i).parent
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
	r := s.segs.At(i)
	fmt.Fprintf(sb, "%s%s%s %s  +%s %s", prefix, branch, s.svcs.Name(r.svc), s.ops.Name(r.op),
		fmtDur(time.Duration(r.start-t0)), fmtDur(r.dur()))
	for a := r.annoLo; a < r.annoHi; a++ {
		sb.WriteString("  ")
		sb.WriteString(s.annoKeys.Name(s.annos.At(a).key))
		sb.WriteByte('=')
		sb.WriteString(s.annoVal(a))
	}
	if c := s.rowCostLocked(&r, book); c != 0 {
		fmt.Fprintf(sb, "  %s", fmtCost(c))
	}
	sb.WriteByte('\n')
	for j, c := range kids[rel] {
		s.renderSegLocked(sb, book, kids, c, lo, prefix+cont, j == len(kids[rel])-1, t0)
	}
}

// durLocked is segment seg's duration.
func (s *Store) durLocked(seg int32) time.Duration {
	r := s.segs.At(seg)
	return r.dur()
}

// dur is the segment's duration, 0 for a span never finished.
func (r *segRow) dur() time.Duration {
	if r.end == noEnd {
		return 0
	}
	return time.Duration(r.end - r.start)
}

// rowCostLocked prices a segment's own usage at the book's list price.
func (s *Store) rowCostLocked(r *segRow, book *pricing.PriceBook) pricing.Money {
	var total pricing.Money
	for u := r.useLo; u < r.useHi; u++ {
		total += book.ListPrice(s.usageAt(u))
	}
	return total
}

// traceUsageLocked aggregates one stored trace's usage records.
func (s *Store) traceUsageLocked(row int32) []pricing.Usage {
	var us []pricing.Usage
	for i := s.segLo[row]; i < s.segHi[row]; i++ {
		r := s.segs.At(i)
		for u := r.useLo; u < r.useHi; u++ {
			us = append(us, s.usageAt(u))
		}
	}
	return pricing.Aggregate(us)
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
	return g.s.svcs.Name(g.s.segs.At(g.seg).svc)
}

// Op reports the segment's operation name.
func (g SegmentView) Op() string {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.ops.Name(g.s.segs.At(g.seg).op)
}

// Annotation reports the value for a key and whether it was set. The
// value is a copy: it leaves the store.
func (g SegmentView) Annotation(key string) (string, bool) {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	a := g.s.annoLocked(g.seg, key)
	if a < 0 {
		return "", false
	}
	return strings.Clone(g.s.annoVal(a)), true
}

// fmtDur and fmtCost delegate to the shared sortutil formatters so
// trace renders, the fleet trace dashboard and every other
// observability surface agree digit-for-digit on rounding.
func fmtDur(d time.Duration) string { return sortutil.FormatDuration(d) }

// fmtCost prints a span-scale amount: nanodollar sums far below the
// bill's cent resolution, so render micro-dollar precision.
func fmtCost(m pricing.Money) string { return sortutil.FormatMoneyNanos(m.Nanodollars()) }
