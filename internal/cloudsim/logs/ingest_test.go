package logs

import (
	"fmt"
	"maps"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/sortutil"
	"repro/internal/pricing"
)

// TestPlaneEventAppendAllocs pins the plane interceptor's publish path
// at zero allocations per event: a call through a plane with the log
// interceptor allocates exactly what the same call allocates without
// it. The message is built on the stack and copied into the stream's
// bytes, the cost and latency values point into it, service, op,
// outcome, principal and app are interned, and the field slots go
// from a stack array into their column. The columns open a new chunk
// now and then — a few times in the measured runs — which
// AllocsPerRun's integer average rounds away; one allocation per event
// would not be.
func TestPlaneEventAppendAllocs(t *testing.T) {
	const runs = 500
	ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(clock.Epoch)}
	call := &plane.Call{
		Service: "s3", Op: "s3:GetObject", Action: "s3:GetObject", Resource: iam.Resource{"bucket/x"},
		Fee: pricing.Usage{Kind: pricing.S3GetRequests, Quantity: 1},
	}
	handler := func(*plane.Request) error { return nil }
	do := func(p *plane.Plane) func() {
		return func() {
			ctx.Cursor.Advance(time.Millisecond)
			if err := p.Do(ctx, call, handler); err != nil {
				t.Fatal(err)
			}
		}
	}

	bare := logPlane(t, nil, true)
	s := New(clock.NewVirtual())
	logged := logPlane(t, s, true)
	do(logged)() // creates the group and stream, interns the names

	base := testing.AllocsPerRun(runs, do(bare))
	got := testing.AllocsPerRun(runs, do(logged))
	if got != base {
		t.Fatalf("a logged plane call allocates %v times, an unlogged one %v: the event append should allocate nothing", got, base)
	}
	n := 0
	for _, g := range s.Inventory() {
		n += g.Events
	}
	if n != runs+2 { // the first call, then AllocsPerRun's warm-up and its runs
		t.Fatalf("stored %d events, want %d", n, runs+2)
	}
}

// TestAppendKMSAuditMatchesPutEvents holds the KMS audit's append
// path to the PutEvents call it replaced: the same events, byte for
// byte, and the same metered bytes, for principals short and long
// (past the stack buffer), empty, allowed and denied.
func TestAppendKMSAuditMatchesPutEvents(t *testing.T) {
	cases := []struct {
		principal, action, keyID string
		allowed                  bool
	}{
		{"alice-chat-fn", "kms:Decrypt", "alice-chat", true},
		{"mallory", "kms:GenerateDataKey", "alice-chat", false},
		{"", "kms:Decrypt", "", false},
		{strings.Repeat("long-role-", 30), "kms:Decrypt", strings.Repeat("k", 70), true},
	}
	viaPut, viaAppend := New(clock.NewVirtual()), New(clock.NewVirtual())
	for i, c := range cases {
		at := clock.Epoch.Add(time.Duration(i) * time.Second)
		viaPut.PutEvents(LogGroupKMSAudit, "audit", Event{
			Time: at,
			Message: fmt.Sprintf("principal=%s action=%s key=%s allowed=%t",
				c.principal, c.action, c.keyID, c.allowed),
			Fields: map[string]string{
				"principal": c.principal,
				"action":    c.action,
				"key_id":    c.keyID,
				"allowed":   strconv.FormatBool(c.allowed),
			},
		})
		viaAppend.AppendKMSAudit(at, c.principal, c.action, c.keyID, c.allowed)
	}
	if got, want := viaAppend.Tail(LogGroupKMSAudit, 0), viaPut.Tail(LogGroupKMSAudit, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendKMSAudit stored\n%+v\nPutEvents stored\n%+v", got, want)
	}
	if got, want := viaAppend.Inventory(), viaPut.Inventory(); !reflect.DeepEqual(got, want) {
		t.Fatalf("inventory %+v, want %+v", got, want)
	}
	if got, want := viaAppend.IngestedBytes(), viaPut.IngestedBytes(); got != want {
		t.Fatalf("ingested %d bytes, want %d", got, want)
	}
}

// TestAppendKMSAuditAllocs pins the KMS audit event at zero
// allocations of its own, as TestPlaneEventAppendAllocs does for the
// plane's events.
func TestAppendKMSAuditAllocs(t *testing.T) {
	const runs = 500
	s := New(clock.NewVirtual())
	at := clock.Epoch
	appendOne := func() {
		at = at.Add(time.Millisecond)
		s.AppendKMSAudit(at, "alice-chat-fn", "kms:Decrypt", "alice-chat", true)
	}
	appendOne() // creates the group and stream
	if got := testing.AllocsPerRun(runs, appendOne); got != 0 {
		t.Fatalf("a KMS audit event allocates %v times, want exactly 0", got)
	}
}

// TestNewAllocs pins building a store: the Service and its three
// group maps. Its plane field keys are the shared planeKeys table, so
// New interns none of them; a store built per account pays nothing
// for them.
func TestNewAllocs(t *testing.T) {
	clk := clock.NewVirtual()
	var s *Service
	if got := testing.AllocsPerRun(100, func() { s = New(clk) }); got != newAllocs {
		t.Errorf("New: %v allocs, want exactly %v", got, newAllocs)
	}
	for id, want := range []string{"service", "op", "outcome", "cost_nanodollars", "principal", "app", "latency_ms", "error", "action", "allowed", "key_id"} {
		if got, ok := s.keys.Lookup(want); !ok || got != int32(id) || s.keys.Name(int32(id)) != want {
			t.Errorf("key %q: id %d (found %v), want %d", want, got, ok, id)
		}
	}
}

// newAllocs is TestNewAllocs's pin.
const newAllocs = 4

// field is a field in the plain-string reference model of the store:
// what the columns held before the arena, a key and a value string.
type field struct{ k, v string }

// queryKey is a field name Insights can name in a `fields` stage.
var queryKey = regexp.MustCompile(`^[A-Za-z_@][A-Za-z0-9_.@:-]*$`)

// FuzzIngestRoundTrip holds the arena store to a plain-string model of
// the same events. Each input is a message plus up to eight fields —
// arbitrary keys and values, duplicate keys, empty and invalid UTF-8
// strings, long ones — each stored the way the modes byte says: copied
// into the arena, interned, or as a span of the message. The event is
// appended twice through the publish path and once through PutEvents
// (its fields as a map). Events must return every message and field as
// the model holds it (a duplicate key's last value wins in the map),
// ingested and inventoried bytes must equal the model's byte count,
// and a `fields` query must return each field's first value, as the
// columnar lookup has always resolved duplicates.
func FuzzIngestRoundTrip(f *testing.F) {
	f.Add("s3:s3:GetObject outcome=ok latency_ms=1.500 cost_nanodollars=400 principal=fn",
		"service,op,outcome,cost_nanodollars,latency_ms", "s3,s3:GetObject,ok,,", []byte{1, 1, 1, 2 + 3*60, 2 + 3*40})
	f.Add("", "", "", []byte{})
	f.Add("dup", "k,k,k", "a,,\xff", []byte{0, 1, 2})
	f.Add("\xff\xfe", "\xc3\x28,@message,@logStream", "\xe2\x28\xa1,x,", []byte{2, 1, 0})
	f.Add(strings.Repeat("long line ", 300), "error,detail", strings.Repeat("x", 2000)+",y", []byte{0, 2 + 3*77})
	f.Fuzz(func(t *testing.T, msg, keyList, valList string, modes []byte) {
		keys, vals := strings.Split(keyList, ","), strings.Split(valList, ",")
		s := New(clock.NewVirtual())
		var fs []fieldIn
		var ref []field
		for i := 0; i < len(keys) && i < 8; i++ {
			s.mu.Lock()
			in := fieldIn{key: s.keys.IDLocked(keys[i]), val: vals[i%len(vals)]}
			s.mu.Unlock()
			var mode byte
			if i < len(modes) {
				mode = modes[i]
			}
			switch mode % 3 {
			case 1:
				in.intern = true
			case 2:
				in.inMsg = true
				in.lo = int(mode/3) % (len(msg) + 1)
				in.hi = in.lo + (len(msg)-in.lo)/2
				in.val = msg[in.lo:in.hi]
			}
			fs = append(fs, in)
			ref = append(ref, field{keys[i], in.val})
		}
		refMap := map[string]string(nil)
		if len(ref) > 0 {
			refMap = make(map[string]string)
			for _, fl := range ref {
				refMap[fl.k] = fl.v
			}
		}
		refBytes := func(fields []field) int64 {
			n := int64(len(msg)) + EventOverheadBytes
			for _, fl := range fields {
				n += int64(len(fl.k) + len(fl.v))
			}
			return n
		}
		var mapFields []field
		for _, k := range sortutil.SortedKeys(refMap) {
			mapFields = append(mapFields, field{k, refMap[k]})
		}
		want := [][]field{ref, mapFields, ref}

		publish := func(at time.Time) {
			s.mu.Lock()
			g := s.ensureGroupLocked("g/fuzz")
			s.appendLocked(g, s.ensureStreamLocked(g, "s"), at, msg, fs)
			s.mu.Unlock()
		}
		publish(clock.Epoch)
		s.PutEvents("g/fuzz", "s", Event{Time: clock.Epoch.Add(time.Second), Message: msg, Fields: refMap})
		publish(clock.Epoch.Add(2 * time.Second))

		evs := s.Events("g/fuzz", time.Time{}, time.Time{})
		if len(evs) != 3 {
			t.Fatalf("stored %d events, want 3", len(evs))
		}
		var total int64
		for i, e := range evs {
			if e.Message != msg || e.Seq != int64(i) || !maps.Equal(e.Fields, refMap) || (e.Fields == nil) != (refMap == nil) {
				t.Fatalf("event %d = %q seq %d fields %q, want %q seq %d fields %q", i, e.Message, e.Seq, e.Fields, msg, i, refMap)
			}
			total += refBytes(want[i])
		}
		if got := s.IngestedBytes(); got != total {
			t.Fatalf("IngestedBytes = %d, want %d", got, total)
		}
		if inv := s.Inventory(); len(inv) != 1 || inv[0].Bytes != total || inv[0].Events != 3 {
			t.Fatalf("Inventory = %+v, want one group of 3 events and %d bytes", inv, total)
		}

		for _, k := range keys {
			if !queryKey.MatchString(k) || k == "@timestamp" {
				continue
			}
			res, err := s.Query("g/fuzz", "fields @message, "+k, time.Time{}, time.Time{})
			if err != nil {
				t.Fatalf("fields query for %q: %v", k, err)
			}
			// An event field shadows a same-named builtin.
			lookup := func(i int, name string) string {
				for _, fl := range want[i] {
					if fl.k == name {
						return fl.v
					}
				}
				switch name {
				case "@message":
					return msg
				case "@logGroup":
					return "g/fuzz"
				case "@logStream":
					return "s"
				}
				return ""
			}
			for i, row := range res.Rows {
				if w0, w1 := lookup(i, "@message"), lookup(i, k); row[0] != w0 || row[1] != w1 {
					t.Fatalf("row %d of `fields @message, %s` = %q, want [%q %q]", i, k, row, w0, w1)
				}
			}
		}
	})
}
