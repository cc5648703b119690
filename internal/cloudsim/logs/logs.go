// Package logs simulates CloudWatch Logs, the third leg of the
// observability stack (traces §6, metrics §8, logs §9 of DESIGN.md).
// On real AWS the paper's headline numbers are exactly what an
// operator reads off this service: Lambda's `REPORT RequestId: …
// Duration … Billed Duration … Max Memory Used` lines are the primary
// operator-facing evidence of per-invoke billing.
//
// The simulator stores append-only structured events in log groups and
// streams, stamped with virtual-clock timestamps and deterministic
// sequence tokens. Nothing expires: every ingested event stays at rest
// for the run, as under CloudWatch Logs' default "never expire" policy.
// A single plane interceptor (PlaneInterceptor) auto-emits one event
// per service API call, the lambda platform writes real-shaped
// START/END/REPORT lines per invocation, and a Logs Insights-style
// query engine (query.go) answers `fields | filter | parse | stats | sort | limit` pipelines
// over the stored events. Ingest and storage are billed at the 2017
// CloudWatch Logs rates through the same PriceBook/meter/bill engine
// as every other service.
//
// Storage is columnar: each stream keeps parallel arrays (timestamps,
// messages, sequence numbers) plus one shared key/value arena for
// structured fields, and each group caches its deterministic merged
// order. The Insights engine (columnar.go) scans those columns
// directly — no per-event map is materialized on the query path — and
// the plane interceptor appends each event straight into the store, so
// every read sees every event published before it.
//
// Logging is read-only with respect to the economy: nothing in this
// package touches the account meter, samples randomness, or advances a
// flow cursor, so a run with logging on is bit-identical to one with
// logging off (TestLogsPreserveLedger proves it).
package logs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/sortutil"
	"repro/internal/pricing"
)

// EventOverheadBytes is the per-event ingestion overhead CloudWatch
// Logs adds to the message payload when metering ingested bytes (26
// bytes per event, per the 2017 pricing page).
const EventOverheadBytes = 26

// Event is one structured log event as handed to PutEvents.
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

// field is one structured key/value slot at rest. Events store their
// fields as contiguous runs in the stream's shared arena instead of
// per-event maps.
type field struct{ k, v string }

// stream is one append-only event sequence inside a group, stored as
// parallel columns. Event i is (times[i], msgs[i], seqs[i]) with
// structured fields fields[fieldLo[i]:fieldHi[i]]. Timestamps are
// UnixNano, like the metrics and trace columns, so the time column is
// pointer-free; time.Time is rebuilt only when an event is rendered.
type stream struct {
	name    string
	times   []int64
	msgs    []string
	seqs    []int64
	fieldLo []int32
	fieldHi []int32
	fields  []field
	nextSeq int64
}

// fieldsAt returns event i's structured fields (a view into the
// arena — callers must not mutate or retain it across ingests).
func (st *stream) fieldsAt(i int32) []field {
	return st.fields[st.fieldLo[i]:st.fieldHi[i]]
}

// eventRef addresses one stored event: a stream plus a column index.
type eventRef struct {
	st *stream
	i  int32
}

// time returns the event's UnixNano timestamp.
func (r eventRef) time() int64 { return r.st.times[r.i] }

// group is a named set of streams.
type group struct {
	name    string
	streams map[string]*stream
	// merged caches every event in the group's deterministic order
	// (timestamp, then stream name, then sequence). nil = needs
	// rebuilding after an ingest.
	merged []eventRef
}

// mergedRefs returns the group's events in deterministic order,
// rebuilding the cache if an ingest invalidated it.
func (g *group) mergedRefs() []eventRef {
	if g.merged != nil {
		return g.merged
	}
	total := 0
	for _, st := range g.streams {
		total += len(st.times)
	}
	refs := make([]eventRef, 0, total)
	for _, st := range g.streams {
		for i := range st.times {
			refs = append(refs, eventRef{st: st, i: int32(i)})
		}
	}
	// (time, stream, seq) is a total order — two events in one stream
	// never share a seq — so the map's iteration order cannot leak.
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if at, bt := a.time(), b.time(); at != bt {
			return at < bt
		}
		if a.st.name != b.st.name {
			return a.st.name < b.st.name
		}
		return a.st.seqs[a.i] < b.st.seqs[b.i]
	})
	g.merged = refs
	return refs
}

// windowRefs returns the subrange of the merged order with timestamps
// in [from, to] (zero times mean unbounded).
func (g *group) windowRefs(from, to time.Time) []eventRef {
	refs := g.mergedRefs()
	lo, hi := sortutil.Window(len(refs), func(i int) int64 { return refs[i].time() }, from, to)
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
	clk clock.Clock

	mu            sync.Mutex
	groups        map[string]*group
	planeGroups   map[string]*group // service -> its "plane/<service>" group
	ingestedBytes int64

	// Self-telemetry counter (see SelfStats).
	ingestedEvents int64
}

// New returns an empty log service over the given clock (nil defaults
// to the wall clock); the clock timestamps events whose emitter passes
// a zero time.
func New(clk clock.Clock) *Service {
	if clk == nil {
		clk = clock.Wall{}
	}
	return &Service{clk: clk, groups: make(map[string]*group), planeGroups: make(map[string]*group)}
}

// PutEvents appends events to a stream, creating group and stream on
// first use, and returns the stream's next sequence token. Events with
// a zero Time are stamped with the service clock. Ingested bytes
// (message + fields + the per-event overhead) accrue to the usage
// inventory that Usage() prices.
func (s *Service) PutEvents(groupName, streamName string, events ...Event) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.ensureGroupLocked(groupName)
	st := s.ensureStreamLocked(g, streamName)
	for _, e := range events {
		fs := sortedFields(e.Fields)
		s.appendLocked(g, st, e.Time, e.Message, fs)
	}
	return sequenceToken(groupName, streamName, st.nextSeq)
}

// sortedFields converts a public Fields map into arena slots, sorted
// by key so identical maps always store identically.
func sortedFields(m map[string]string) []field {
	if len(m) == 0 {
		return nil
	}
	fs := make([]field, 0, len(m))
	for k, v := range m {
		fs = append(fs, field{k: k, v: v})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].k < fs[j].k })
	return fs
}

// appendLocked lands one event in a stream's columns, stamping a zero
// timestamp with the service clock, assigning the next sequence
// number, and accruing the ingested byte inventory. Caller
// holds s.mu.
func (s *Service) appendLocked(g *group, st *stream, at time.Time, msg string, fs []field) {
	if at.IsZero() {
		at = s.clk.Now()
	}
	b := int64(len(msg)) + EventOverheadBytes
	for _, f := range fs {
		b += int64(len(f.k) + len(f.v))
	}
	s.ingestedBytes += b
	s.ingestedEvents++
	st.times = append(st.times, at.UnixNano())
	st.msgs = append(st.msgs, msg)
	st.seqs = append(st.seqs, st.nextSeq)
	st.nextSeq++
	lo := int32(len(st.fields))
	st.fields = append(st.fields, fs...)
	st.fieldLo = append(st.fieldLo, lo)
	st.fieldHi = append(st.fieldHi, int32(len(st.fields)))
	g.merged = nil
}

// sequenceToken renders the deterministic upload token for a stream
// position — the same (group, stream, event count) always yields the
// same token, so identically-seeded runs produce identical tokens.
func sequenceToken(group, stream string, next int64) string {
	return fmt.Sprintf("%s/%s@%08d", group, stream, next)
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
			info.Events += len(st.times)
			for i := range st.msgs {
				info.Bytes += storedEventBytes(st, int32(i))
			}
		}
		out = append(out, info)
	}
	return out
}

// storedEventBytes is the metered size of the event at ref position i.
func storedEventBytes(st *stream, i int32) int64 {
	n := int64(len(st.msgs[i])) + EventOverheadBytes
	for _, f := range st.fieldsAt(i) {
		n += int64(len(f.k) + len(f.v))
	}
	return n
}

// materialize rehydrates one stored event into the public shape,
// rebuilding its Fields map (nil when the event has none).
func materialize(groupName string, ref eventRef) StoredEvent {
	st := ref.st
	e := StoredEvent{
		Event:  Event{Time: time.Unix(0, ref.time()).UTC(), Message: st.msgs[ref.i]},
		Group:  groupName,
		Stream: st.name,
		Seq:    st.seqs[ref.i],
	}
	if fs := st.fieldsAt(ref.i); len(fs) > 0 {
		m := make(map[string]string, len(fs))
		for _, f := range fs {
			m[f.k] = f.v
		}
		e.Fields = m
	}
	return e
}

// Events returns a group's events within [from, to] (zero times mean
// unbounded), merged across streams in deterministic order: timestamp,
// then stream name, then sequence number.
func (s *Service) Events(groupName string, from, to time.Time) []StoredEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[groupName]
	if !ok {
		return nil
	}
	refs := g.windowRefs(from, to)
	if len(refs) == 0 {
		return nil
	}
	out := make([]StoredEvent, 0, len(refs))
	for _, ref := range refs {
		out = append(out, materialize(groupName, ref))
	}
	return out
}

// Tail returns a group's last n events in deterministic order (all of
// them when n <= 0 or exceeds the count).
func (s *Service) Tail(groupName string, n int) []StoredEvent {
	all := s.Events(groupName, time.Time{}, time.Time{})
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
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
	}
	return st
}

// SelfStats is the log plane's observation of itself.
type SelfStats struct {
	// Events counts events ingested into the store.
	Events int64
	// Bytes is the cumulative ingested byte count (same quantity as
	// IngestedBytes).
	Bytes int64
}

// SelfStats reports the service's self-telemetry counters.
func (s *Service) SelfStats() SelfStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SelfStats{Events: s.ingestedEvents, Bytes: s.ingestedBytes}
}
