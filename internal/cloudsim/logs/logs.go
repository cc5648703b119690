// Package logs simulates CloudWatch Logs, the third leg of the
// observability stack (traces §6, metrics §8, logs §9 of DESIGN.md).
// On real AWS the paper's headline numbers are exactly what an
// operator reads off this service: Lambda's `REPORT RequestId: …
// Duration … Billed Duration … Max Memory Used` lines are the primary
// operator-facing evidence of per-invoke billing.
//
// The simulator stores append-only structured events in log groups and
// streams, stamped with virtual-clock timestamps and numbered per
// stream in arrival order. Nothing expires: every ingested event stays
// at rest for the run, as under CloudWatch Logs' default "never
// expire" policy.
// A single plane interceptor (PlaneInterceptor) auto-emits one event
// per service API call, the lambda platform writes real-shaped
// START/END/REPORT lines per invocation, and a Logs Insights-style
// query engine (query.go) answers `fields | filter | parse | stats | sort | limit` pipelines
// over the stored events. Ingest and storage are billed at the 2017
// CloudWatch Logs rates through the same PriceBook/meter/bill engine
// as every other service.
//
// Storage is columnar and pointer-free: each stream keeps one row per
// event (timestamp, message range, field-slot range), the events'
// field slots, and one append-only byte column that holds the message
// bytes and every field value not interned, all as sortutil.Chunks
// addressed by int32 offsets. Field keys, and the values that repeat
// from event to event (service, op, outcome, principal, app), are ids
// from the service's interners. Each group caches its deterministic
// merged order. The Insights engine (columnar.go) scans those columns
// directly, reading messages and values as views of the byte column —
// no per-event map or string is materialized on the query path — and
// the plane interceptor and the lambda platform append each event
// straight into the store, so every read sees every event published
// before it. Appending an event allocates nothing of its own: its
// message is built on the caller's stack and copied into the store,
// and the columns grow by whole chunks that are never copied. The GC
// never scans the retained events, since none of the columns that grow
// with them holds a pointer.
//
// Logging is read-only with respect to the economy: nothing in this
// package touches the account meter, samples randomness, or advances a
// flow cursor, so a run with logging on is bit-identical to one with
// logging off (TestLogsPreserveLedger proves it).
package logs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/sortutil"
	"repro/internal/pricing"
)

// EventOverheadBytes is the per-event ingestion overhead CloudWatch
// Logs adds to the message payload when metering ingested bytes (26
// bytes per event, per the 2017 pricing page).
const EventOverheadBytes = 26

// Event is one structured log event: what a read returns, in StoredEvent.
type Event struct {
	// Time is the event timestamp on the emitter's (virtual) timeline.
	Time time.Time
	// Message is the log line. Lambda platform lines are plain text in
	// the real service's shape; plane events carry a compact key=value
	// rendering of Fields.
	Message string
	// Fields is the event's structured payload; the query engine
	// exposes each key as a queryable field. Nil for plain lines, whose
	// fields are extracted with `parse` instead.
	Fields map[string]string
}

// StoredEvent is an event at rest: the payload plus its storage
// coordinates and deterministic per-stream sequence number.
type StoredEvent struct {
	Event
	Group  string
	Stream string
	Seq    int64
}

// Line is one plain-text event for AppendLambdaLines: its timestamp and
// its message bytes, which the store copies, so Msg may be the
// caller's scratch buffer.
type Line struct {
	Time time.Time
	Msg  []byte
}

// fieldSlot is one structured field at rest, pointer-free: the key's
// id in Service.keys, and the value — the stream's bytes[lo:hi], or,
// when lo < 0, the value ^lo interned in Service.vals (hi unused).
type fieldSlot struct{ key, lo, hi int32 }

// fieldIn is one field handed to appendLocked: the key's id in
// Service.keys and the value. The value is the event's own message
// bytes msg[lo:hi] when inMsg is set (no copy: the slot points at the
// message in the stream's bytes), else val, interned when intern is
// set (a value that repeats across events) and copied otherwise.
type fieldIn struct {
	key           int32
	val           string
	lo, hi        int
	inMsg, intern bool
}

// The field keys of the plane interceptor and the KMS audit. New
// interns them first, in this order, so the publish paths name them by
// constant id instead of looking them up per event.
const (
	keyService int32 = iota
	keyOp
	keyOutcome
	keyCost
	keyPrincipal
	keyApp
	keyLatency
	keyError
	keyAction
	keyAllowed
	keyKeyID
)

// planeKeys are the names of the key ids above, in id order.
var planeKeys = [...]string{"service", "op", "outcome", "cost_nanodollars", "principal", "app", "latency_ms", "error", "action", "allowed", "key_id"}

// eventRow is one stored event's row: its UnixNano timestamp (time.Time
// is rebuilt only when an event is rendered), its message, the
// stream's bytes[msgLo:msgHi], and its structured fields, the run
// fields[fieldLo:fieldHi] in the order they were ingested.
type eventRow struct {
	at                             int64
	msgLo, msgHi, fieldLo, fieldHi int32
}

// stream is one append-only event sequence inside a group, stored
// pointer-free in three sortutil.Chunks columns, which never copy what
// they hold as they grow: rows, one per event, addressed by row offset
// (an event's sequence number is its row's Index); fields, each
// event's field slots as one run; and bytes, each message and every
// field value not interned. Their aliasing rule is the store's: reads
// inside the store use views of the bytes without copying, and a
// string that leaves the store — a materialized event, a query result
// cell — is a copy, so no caller can pin a chunk or observe a view.
type stream struct {
	name   string
	rows   sortutil.Chunks[eventRow]
	fields sortutil.Chunks[fieldSlot]
	bytes  sortutil.Chunks[byte]
}

// msg returns the message of the event at row offset i as a view.
func (st *stream) msg(i int32) string {
	r := st.rows.At(i)
	return sortutil.View(&st.bytes, r.msgLo, r.msgHi)
}

// fieldsAt returns the structured field slots of the event at row
// offset i (a view into the column — callers must not write to it).
func (st *stream) fieldsAt(i int32) []fieldSlot {
	r := st.rows.At(i)
	return st.fields.Run(r.fieldLo, r.fieldHi)
}

// eventRef addresses one stored event: a stream (its index in the
// group's list) plus the event's row offset. It holds no pointer, so
// the group's merged order is a slice the GC does not scan.
type eventRef struct{ s, i int32 }

// group is a named set of streams.
type group struct {
	name    string
	streams map[string]*stream
	// list holds the streams in creation order; eventRef.s indexes it.
	list []*stream
	// merged caches every event in the group's deterministic order
	// (timestamp, then stream name, then sequence). nil = needs
	// rebuilding after an ingest.
	merged []eventRef
}

// stream returns the stream ref r lives in.
func (g *group) stream(r eventRef) *stream { return g.list[r.s] }

// time returns r's UnixNano timestamp.
func (g *group) time(r eventRef) int64 { return g.list[r.s].rows.At(r.i).at }

// mergedRefs returns the group's events in deterministic order,
// rebuilding the cache if an ingest invalidated it.
func (g *group) mergedRefs() []eventRef {
	if g.merged != nil {
		return g.merged
	}
	total := 0
	for _, st := range g.list {
		total += st.rows.Len()
	}
	refs := make([]eventRef, 0, total)
	var offs []int32
	for s, st := range g.list {
		offs = st.rows.Offsets(offs[:0])
		for _, i := range offs {
			refs = append(refs, eventRef{s: int32(s), i: i})
		}
	}
	// (time, stream, seq) is a total order — two events in one stream
	// never share a seq, and row offsets grow with the seq — so the
	// streams' creation order cannot leak.
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if at, bt := g.time(a), g.time(b); at != bt {
			return at < bt
		}
		if an, bn := g.list[a.s].name, g.list[b.s].name; an != bn {
			return an < bn
		}
		return a.i < b.i
	})
	g.merged = refs
	return refs
}

// windowRefs returns the subrange of the merged order with timestamps
// in [from, to] (zero times mean unbounded).
func (g *group) windowRefs(from, to time.Time) []eventRef {
	refs := g.mergedRefs()
	lo, hi := sortutil.Window(len(refs), func(i int) int64 { return g.time(refs[i]) }, from, to)
	return refs[lo:hi]
}

// GroupInfo summarizes one log group for inventory listings.
type GroupInfo struct {
	Name    string
	Streams int
	Events  int
	Bytes   int64
}

// Service is the simulated CloudWatch Logs store. It is safe for
// concurrent use.
type Service struct {
	clk *clock.Virtual

	mu           sync.Mutex
	groups       map[string]*group
	planeGroups  map[string]*group // service -> its "plane/<service>" group
	lambdaGroups map[string]*group // function -> its "lambda/<function>" group
	// keys interns field keys and vals the field values that repeat;
	// fieldSlot holds their ids.
	keys          sortutil.Names
	vals          sortutil.Names
	ingestedBytes int64
}

// New returns an empty log service over the cloud's clock, which
// timestamps events whose emitter passes a zero time.
func New(clk *clock.Virtual) *Service {
	s := &Service{
		clk:          clk,
		groups:       make(map[string]*group),
		planeGroups:  make(map[string]*group),
		lambdaGroups: make(map[string]*group),
	}
	for _, k := range planeKeys {
		s.keys.IDLocked(k) // s is not shared yet
	}
	return s
}

// AppendLambdaLines appends plain-text lines to the named stream of
// function fn's group, LambdaGroup(fn), creating both on first use. It
// lands the lambda platform's per-invocation START, END and REPORT
// lines without per-call strings: the group is interned per function,
// the stream is found by its bytes, and each message is copied into
// the stream's bytes.
func (s *Service) AppendLambdaLines(fn string, stream []byte, lines ...Line) {
	s.mu.Lock()
	g := s.lambdaGroups[fn]
	if g == nil {
		g = s.ensureGroupLocked(LambdaGroup(fn))
		s.lambdaGroups[fn] = g
	}
	st := g.streams[string(stream)]
	if st == nil {
		st = s.ensureStreamLocked(g, string(stream))
	}
	for _, l := range lines {
		s.appendLocked(g, st, l.Time, unsafe.String(unsafe.SliceData(l.Msg), len(l.Msg)), nil)
	}
	s.mu.Unlock()
}

// AppendKMSAudit appends one KMS audit event to stream "audit" of
// group LogGroupKMSAudit: the message
//
//	"principal=%s action=%s key=%s allowed=%t"
//
// with fields action, allowed, key_id and principal. The message is
// built in a stack buffer and copied into the stream's bytes, and each
// field value points at its bytes inside it, so the call allocates
// nothing of its own (TestAppendKMSAuditAllocs).
func (s *Service) AppendKMSAudit(at time.Time, principal, action, keyID string, allowed bool) {
	var buf [192]byte
	b := append(buf[:0], "principal="...)
	b = append(b, principal...)
	principalHi := len(b)
	b = append(b, " action="...)
	actionLo := len(b)
	b = append(b, action...)
	actionHi := len(b)
	b = append(b, " key="...)
	keyLo := len(b)
	b = append(b, keyID...)
	keyHi := len(b)
	b = append(b, " allowed="...)
	allowedLo := len(b)
	b = strconv.AppendBool(b, allowed)

	// In key order, as a Fields map's fields are stored.
	fs := [...]fieldIn{
		{key: keyAction, lo: actionLo, hi: actionHi, inMsg: true},
		{key: keyAllowed, lo: allowedLo, hi: len(b), inMsg: true},
		{key: keyKeyID, lo: keyLo, hi: keyHi, inMsg: true},
		{key: keyPrincipal, lo: len("principal="), hi: principalHi, inMsg: true},
	}
	s.mu.Lock()
	g := s.ensureGroupLocked(LogGroupKMSAudit)
	s.appendLocked(g, s.ensureStreamLocked(g, "audit"), at, unsafe.String(unsafe.SliceData(b), len(b)), fs[:])
	s.mu.Unlock()
}

// appendLocked lands one event in a stream's columns, stamping a zero
// timestamp with the service clock and accruing the ingested byte
// inventory. msg and the field values are copied (or interned), so
// they may live in the caller's scratch buffers. Caller holds s.mu.
func (s *Service) appendLocked(g *group, st *stream, at time.Time, msg string, fs []fieldIn) {
	if at.IsZero() {
		at = s.clk.Now()
	}
	b := int64(len(msg)) + EventOverheadBytes
	r := eventRow{at: at.UnixNano()}
	r.msgLo, r.msgHi = sortutil.PutString(&st.bytes, msg)
	var buf [8]fieldSlot
	slots := buf[:0]
	for _, f := range fs {
		slot := fieldSlot{key: f.key}
		b += int64(len(s.keys.Name(f.key)))
		switch {
		case f.inMsg:
			slot.lo, slot.hi = r.msgLo+int32(f.lo), r.msgLo+int32(f.hi)
			b += int64(f.hi - f.lo)
		case f.intern:
			slot.lo = ^s.vals.IDLocked(f.val)
			b += int64(len(f.val))
		default:
			slot.lo, slot.hi = sortutil.PutString(&st.bytes, f.val)
			b += int64(len(f.val))
		}
		slots = append(slots, slot)
	}
	r.fieldLo, r.fieldHi = st.fields.Append(slots...)
	st.rows.Append(r)
	s.ingestedBytes += b
	g.merged = nil
}

// fieldVal returns a stored field's value: the interned string, or a
// view of the stream's bytes. Caller holds s.mu.
func (s *Service) fieldVal(st *stream, f fieldSlot) string {
	if f.lo < 0 {
		return s.vals.Name(^f.lo)
	}
	return sortutil.View(&st.bytes, f.lo, f.hi)
}

// Inventory summarizes every group (streams, events, stored bytes),
// sorted by group name.
func (s *Service) Inventory() []GroupInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GroupInfo, 0, len(s.groups))
	for _, name := range sortutil.SortedKeys(s.groups) {
		g := s.groups[name]
		info := GroupInfo{Name: g.name, Streams: len(g.streams)}
		for _, stName := range sortutil.SortedKeys(g.streams) {
			st := g.streams[stName]
			info.Events += st.rows.Len()
			for _, i := range st.rows.Offsets(nil) {
				info.Bytes += s.storedEventBytes(st, i)
			}
		}
		out = append(out, info)
	}
	return out
}

// storedEventBytes is the metered size of st's event at row offset i:
// the same lengths appendLocked billed at ingest. Caller holds s.mu.
func (s *Service) storedEventBytes(st *stream, i int32) int64 {
	r := st.rows.At(i)
	n := int64(r.msgHi-r.msgLo) + EventOverheadBytes
	for _, f := range st.fieldsAt(i) {
		n += int64(len(s.keys.Name(f.key)) + len(s.fieldVal(st, f)))
	}
	return n
}

// materialize rehydrates one stored event into the public shape,
// rebuilding its Fields map (nil when the event has none). The message
// and every field value in its bytes are copied out. Caller holds s.mu.
func (s *Service) materialize(g *group, ref eventRef) StoredEvent {
	st := g.stream(ref)
	e := StoredEvent{
		Event:  Event{Time: time.Unix(0, st.rows.At(ref.i).at).UTC(), Message: strings.Clone(st.msg(ref.i))},
		Group:  g.name,
		Stream: st.name,
		Seq:    int64(st.rows.Index(ref.i)),
	}
	if fs := st.fieldsAt(ref.i); len(fs) > 0 {
		m := make(map[string]string, len(fs))
		for _, f := range fs {
			if f.lo < 0 {
				m[s.keys.Name(f.key)] = s.vals.Name(^f.lo)
			} else {
				m[s.keys.Name(f.key)] = strings.Clone(sortutil.View(&st.bytes, f.lo, f.hi))
			}
		}
		e.Fields = m
	}
	return e
}

// Tail returns a group's last n events merged across streams in
// deterministic order — timestamp, then stream name, then sequence
// number — or all of them when n <= 0 or exceeds the count. Only the
// returned events are materialized.
func (s *Service) Tail(groupName string, n int) []StoredEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[groupName]
	if !ok {
		return nil
	}
	refs := g.mergedRefs()
	if n > 0 && len(refs) > n {
		refs = refs[len(refs)-n:]
	}
	return s.materializeAll(g, refs)
}

// materializeAll materializes refs in order (nil for none). Caller
// holds s.mu.
func (s *Service) materializeAll(g *group, refs []eventRef) []StoredEvent {
	if len(refs) == 0 {
		return nil
	}
	out := make([]StoredEvent, 0, len(refs))
	for _, ref := range refs {
		out = append(out, s.materialize(g, ref))
	}
	return out
}

// IngestedBytes reports the total bytes ever ingested (message +
// fields + per-event overhead) — the quantity CloudWatch Logs billed
// $0.50/GB for in 2017.
func (s *Service) IngestedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingestedBytes
}

// StoredBytes reports the bytes at rest — the $0.03/GB-month storage
// quantity. Nothing expires, so it equals IngestedBytes.
func (s *Service) StoredBytes() int64 { return s.IngestedBytes() }

// Usage reports the log plane's inventory as meterable usage: GB
// ingested and GB-months stored, the 2017 CloudWatch Logs billing
// dimensions. Like the metrics inventory, it is not pushed into the
// account meter automatically (the paper's Tables 1–3 predate the
// observability layer); callers price it on demand via
// PriceBook.ListPrice or a scratch meter, which keeps logging
// bit-invisible to the ledger goldens.
func (s *Service) Usage() []pricing.Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	const gb = 1 << 30
	return []pricing.Usage{
		{Kind: pricing.CWLogsIngestGB, Quantity: float64(s.ingestedBytes) / gb, Resource: "cloudwatch-logs"},
		{Kind: pricing.CWLogsStorageGBMo, Quantity: float64(s.ingestedBytes) / gb, Resource: "cloudwatch-logs"},
	}
}

// ensureGroupLocked returns the named group, creating it if absent. Caller
// holds s.mu.
func (s *Service) ensureGroupLocked(name string) *group {
	g, ok := s.groups[name]
	if !ok {
		g = &group{name: name, streams: make(map[string]*stream)}
		s.groups[name] = g
	}
	return g
}

// ensureStreamLocked returns the named stream in g, creating it if absent.
// Caller holds s.mu.
func (s *Service) ensureStreamLocked(g *group, name string) *stream {
	st, ok := g.streams[name]
	if !ok {
		st = &stream{name: name}
		g.streams[name] = st
		g.list = append(g.list, st)
	}
	return st
}
