package logs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/pricing"
)

func at(d time.Duration) time.Time { return clock.Epoch.Add(d) }

// TestPutEventsSequenceNumbers pins that each stream numbers its events
// from 0 in arrival order, across PutEvents calls, independently of the
// group's other streams.
func TestPutEventsSequenceNumbers(t *testing.T) {
	s := New(clock.NewVirtual())
	s.PutEvents("plane/s3", "Get", Event{Time: at(0), Message: "one"})
	s.PutEvents("plane/s3", "Put", Event{Time: at(time.Second / 2), Message: "other"})
	s.PutEvents("plane/s3", "Get",
		Event{Time: at(time.Second), Message: "two"},
		Event{Time: at(2 * time.Second), Message: "three"})
	evs := s.Events("plane/s3", time.Time{}, time.Time{})
	if len(evs) != 4 {
		t.Fatalf("stored %d events, want 4", len(evs))
	}
	want := map[string]int64{"one": 0, "other": 0, "two": 1, "three": 2}
	for _, e := range evs {
		if e.Seq != want[e.Message] {
			t.Fatalf("event %q (stream %s) has seq %d, want %d", e.Message, e.Stream, e.Seq, want[e.Message])
		}
	}
}

func TestZeroTimeStampedByClock(t *testing.T) {
	clk := clock.NewVirtual()
	clk.Advance(42 * time.Second)
	s := New(clk)
	s.PutEvents("plane/s3", "Get", Event{Message: "unstamped"})
	evs := s.Events("plane/s3", time.Time{}, time.Time{})
	if len(evs) != 1 || !evs[0].Time.Equal(at(42*time.Second)) {
		t.Fatalf("event time = %v, want clock instant %v", evs[0].Time, at(42*time.Second))
	}
}

func TestEventsMergeAcrossStreamsDeterministically(t *testing.T) {
	s := New(clock.NewVirtual())
	// Interleave two streams; same-instant events tie-break on stream
	// name then sequence.
	s.PutEvents("g/a", "s2", Event{Time: at(2 * time.Second), Message: "s2-late"})
	s.PutEvents("g/a", "s1", Event{Time: at(time.Second), Message: "s1-early"})
	s.PutEvents("g/a", "s2", Event{Time: at(time.Second), Message: "s2-early"})
	var got []string
	for _, e := range s.Events("g/a", time.Time{}, time.Time{}) {
		got = append(got, e.Message)
	}
	want := "s1-early s2-early s2-late"
	if strings.Join(got, " ") != want {
		t.Fatalf("merged order = %q, want %q", strings.Join(got, " "), want)
	}
}

func TestEventsWindowAndTail(t *testing.T) {
	s := New(clock.NewVirtual())
	for i := 0; i < 5; i++ {
		s.PutEvents("g/w", "s", Event{Time: at(time.Duration(i) * time.Minute), Message: strings.Repeat("x", i+1)})
	}
	evs := s.Events("g/w", at(time.Minute), at(3*time.Minute))
	if len(evs) != 3 {
		t.Fatalf("window returned %d events, want 3", len(evs))
	}
	for _, tc := range []struct {
		n    int
		want string // messages, oldest first
	}{
		{2, "xxxx xxxxx"},
		{0, "x xx xxx xxxx xxxxx"},
		{-1, "x xx xxx xxxx xxxxx"},
		{5, "x xx xxx xxxx xxxxx"},
		{9, "x xx xxx xxxx xxxxx"},
	} {
		var got []string
		for _, e := range s.Tail("g/w", tc.n) {
			got = append(got, e.Message)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("Tail(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
	if got := s.Tail("g/none", 3); got != nil {
		t.Errorf("Tail of an unknown group = %v, want nil", got)
	}
}

func TestIngestAccountingAndBillLines(t *testing.T) {
	s := New(clock.NewVirtual())
	e := Event{Time: at(0), Message: "hello", Fields: map[string]string{"k": "vv"}}
	s.PutEvents("g/b", "s", e)
	want := int64(len("hello")) + int64(len("k")+len("vv")) + EventOverheadBytes
	if s.IngestedBytes() != want {
		t.Fatalf("ingested %d bytes, want %d", s.IngestedBytes(), want)
	}

	// Usage prices through the standard bill engine with the 2017
	// CloudWatch Logs rates and free tiers.
	book := pricing.Default2017()
	meter := pricing.NewMeter()
	for _, u := range s.Usage() {
		meter.Add(u)
	}
	bill := pricing.Compute(book, meter)
	ingest := bill.Line(pricing.CWLogsIngestGB)
	if ingest.Quantity <= 0 {
		t.Fatalf("no cloudwatch logs ingest line in bill:\n%s", bill)
	}
	if ingest.Billable != 0 || ingest.Cost != 0 {
		t.Fatalf("tiny ingest should sit inside the 5 GB free tier: %+v", ingest)
	}

	// Above the free tier the list price applies: 6 GB ingested bills
	// 1 GB at $0.50.
	m2 := pricing.NewMeter()
	m2.Add(pricing.Usage{Kind: pricing.CWLogsIngestGB, Quantity: 6})
	m2.Add(pricing.Usage{Kind: pricing.CWLogsStorageGBMo, Quantity: 7})
	b2 := pricing.Compute(book, m2)
	if got := b2.Line(pricing.CWLogsIngestGB).Cost; got != pricing.FromDollars(0.50) {
		t.Fatalf("6 GB ingest cost = %v, want $0.50", got)
	}
	if got := b2.Line(pricing.CWLogsStorageGBMo).Cost; got != pricing.FromDollars(0.06) {
		t.Fatalf("7 GB-mo storage cost = %v, want $0.06", got)
	}

	// ListPrice ignores free tiers entirely.
	lp := book.ListPrice(pricing.Usage{Kind: pricing.CWLogsIngestGB, Quantity: 2})
	if lp != pricing.FromDollars(1.00) {
		t.Fatalf("list price of 2 GB ingest = %v, want $1.00", lp)
	}
	nf := book.WithoutFreeTiers()
	if nf.CWLogsFreeIngestGB != 0 || nf.CWLogsFreeStorageGB != 0 {
		t.Fatalf("WithoutFreeTiers kept logs free tiers: %+v", nf)
	}
}

func TestInventoryAndDump(t *testing.T) {
	s := New(clock.NewVirtual())
	s.PutEvents("g/a", "s1", Event{Time: at(0), Message: "m1"})
	s.PutEvents("g/a", "s2", Event{Time: at(time.Second), Message: "m2"})
	s.PutEvents("g/b", "s1", Event{Time: at(2 * time.Second), Message: "m3"})
	inv := s.Inventory()
	if len(inv) != 2 || inv[0].Name != "g/a" || inv[0].Streams != 2 || inv[0].Events != 2 {
		t.Fatalf("inventory = %+v", inv)
	}
	if got := s.Groups(); len(got) != 2 || got[0] != "g/a" || got[1] != "g/b" {
		t.Fatalf("groups = %v", got)
	}
	var dump []string
	for _, g := range s.Groups() {
		for _, e := range s.Events(g, time.Time{}, time.Time{}) {
			dump = append(dump, e.Group+" "+e.Stream+" "+e.Message)
		}
	}
	if want := "g/a s1 m1|g/a s2 m2|g/b s1 m3"; strings.Join(dump, "|") != want {
		t.Fatalf("dump = %v, want %s", dump, want)
	}
}

func TestValidGroupName(t *testing.T) {
	for _, name := range []string{LogGroupKMSAudit, PlaneGroup("s3"), LambdaGroup("chat-fn"), "a/b/c-d"} {
		if !ValidGroupName(name) {
			t.Errorf("ValidGroupName(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"", "noslash", "KMS/Audit", "kms/", "/audit", "kms audit", "kms/Audit"} {
		if ValidGroupName(name) {
			t.Errorf("ValidGroupName(%q) = true, want false", name)
		}
	}
	for _, name := range Names() {
		if !ValidGroupName(name) {
			t.Errorf("registered name %q violates the convention", name)
		}
	}
}
