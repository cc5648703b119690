package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pricing"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func TestSpanTree(t *testing.T) {
	tr := New("req", t0)
	if tr.Name() != "req" {
		t.Fatalf("name = %q", tr.Name())
	}
	root := tr.Root()
	gw := root.StartChild("gateway", "/x", t0.Add(5*time.Millisecond))
	fn := gw.StartChild("lambda", "fn", t0.Add(10*time.Millisecond))
	kms := fn.StartChild("kms", "Decrypt", t0.Add(20*time.Millisecond))
	kms.Finish(t0.Add(30 * time.Millisecond))
	fn.Finish(t0.Add(150 * time.Millisecond))
	gw.Finish(t0.Add(160 * time.Millisecond))
	tr.Finish(t0.Add(170 * time.Millisecond))

	spans := tr.Spans()
	want := []string{"client", "gateway", "lambda", "kms"}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(spans), len(want))
	}
	for i, s := range spans {
		if s.Service() != want[i] {
			t.Errorf("span %d service = %q, want %q", i, s.Service(), want[i])
		}
	}
	if d := tr.Duration(); d != 170*time.Millisecond {
		t.Errorf("trace duration = %v", d)
	}
	if d := kms.Duration(); d != 10*time.Millisecond {
		t.Errorf("kms duration = %v", d)
	}
	if got := tr.Find("lambda", "fn"); got != fn {
		t.Error("Find(lambda, fn) missed")
	}
	if got := tr.Find("kms", ""); got != kms {
		t.Error("Find(kms, *) missed")
	}
	if tr.Find("dynamo", "") != nil {
		t.Error("Find for absent service should be nil")
	}
	if kms.Parent() != fn || fn.Parent() != gw || root.Parent() != nil {
		t.Error("parent links wrong")
	}
}

func TestFinishClamp(t *testing.T) {
	tr := New("req", t0)
	s := tr.Root().StartChild("s3", "Get", t0.Add(time.Second))
	s.Finish(t0) // earlier than start: clamped
	if s.End() != s.Start() {
		t.Fatalf("end = %v, want clamp to start %v", s.End(), s.Start())
	}
	if s.Duration() != 0 {
		t.Fatalf("duration = %v, want 0", s.Duration())
	}
}

func TestAnnotations(t *testing.T) {
	tr := New("req", t0)
	s := tr.Root().StartChild("lambda", "fn", t0)
	s.Annotate("cold_start", "true")
	s.Annotate("region", "us-west-2")
	s.Annotate("cold_start", "false") // overwrite, not duplicate
	if v, ok := s.Annotation("cold_start"); !ok || v != "false" {
		t.Fatalf("cold_start = %q, %v", v, ok)
	}
	if got := s.Annotations(); len(got) != 2 {
		t.Fatalf("annotations = %v", got)
	}
	if _, ok := s.Annotation("absent"); ok {
		t.Fatal("absent annotation reported present")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	var s *Span
	// None of these may panic, and the zero values must be sane.
	s = tr.Root()
	s = s.StartChild("a", "b", t0)
	s.Finish(t0)
	s.Annotate("k", "v")
	s.AddUsage(pricing.Usage{Kind: pricing.KMSRequests, Quantity: 1})
	if s.Duration() != 0 || s.Service() != "" || s.Op() != "" {
		t.Fatal("nil span yielded non-zero values")
	}
	if len(s.Usage()) != 0 || len(s.Annotations()) != 0 || len(s.Children()) != 0 {
		t.Fatal("nil span yielded contents")
	}
	if tr.Spans() != nil || tr.Name() != "" || tr.Duration() != 0 {
		t.Fatal("nil trace yielded contents")
	}
	tr.Finish(t0)
	if tr.Render(pricing.Default2017()) != "" {
		t.Fatal("nil trace rendered")
	}
	if tr.Cost(pricing.Default2017()) != 0 {
		t.Fatal("nil trace cost")
	}
}

func TestUsageAggregationAndCost(t *testing.T) {
	book := pricing.Default2017()
	tr := New("req", t0)
	fn := tr.Root().StartChild("lambda", "fn", t0)
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1, App: "chat"})
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaGBSeconds, Quantity: 0.0875, App: "chat"})
	s3a := fn.StartChild("s3", "Put", t0)
	s3a.AddUsage(pricing.Usage{Kind: pricing.S3PutRequests, Quantity: 1, App: "chat"})
	s3b := fn.StartChild("s3", "Put", t0)
	s3b.AddUsage(pricing.Usage{Kind: pricing.S3PutRequests, Quantity: 1, App: "chat"})

	agg := tr.Usage()
	// Same-key records merge: the two S3 puts become one record.
	var puts float64
	for _, u := range agg {
		if u.Kind == pricing.S3PutRequests {
			puts += u.Quantity
		}
	}
	if puts != 2 {
		t.Fatalf("aggregated puts = %v", puts)
	}
	if len(agg) != 3 {
		t.Fatalf("aggregated records = %d, want 3", len(agg))
	}

	want := book.ListPrice(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1}) +
		book.ListPrice(pricing.Usage{Kind: pricing.LambdaGBSeconds, Quantity: 0.0875}) +
		book.ListPrice(pricing.Usage{Kind: pricing.S3PutRequests, Quantity: 2})
	if got := tr.Cost(book); got != want {
		t.Fatalf("trace cost = %v, want %v", got, want)
	}
	// Per-span and subtree attribution.
	if fn.Cost(book) >= tr.Cost(book) {
		t.Fatal("lambda span alone should cost less than the whole trace")
	}
	if fn.SubtreeCost(book) != tr.Cost(book) {
		t.Fatalf("subtree cost %v != trace cost %v", fn.SubtreeCost(book), tr.Cost(book))
	}
}

func TestRender(t *testing.T) {
	book := pricing.Default2017()
	tr := New("chat-send", t0)
	gw := tr.Root().StartChild("gateway", "/u/chat", t0.Add(time.Millisecond))
	fn := gw.StartChild("lambda", "u-chat", t0.Add(20*time.Millisecond))
	fn.Annotate("cold_start", "true")
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1})
	fn.Finish(t0.Add(200 * time.Millisecond))
	gw.Finish(t0.Add(210 * time.Millisecond))
	tr.Finish(t0.Add(211 * time.Millisecond))

	out := tr.Render(book)
	for _, frag := range []string{
		"chat-send  211ms",
		"└─ gateway /u/chat  +1ms 209ms",
		"└─ lambda u-chat  +20ms 180ms  cold_start=true",
		"$0.00000020", // one request at $0.20/M
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q in:\n%s", frag, out)
		}
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore(nil) // nil sampler: keep everything
	if s.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("fresh store has a last trace")
	}
	a, b := New("a", t0), New("b", t0.Add(time.Second))
	a.Finish(t0.Add(100 * time.Millisecond))
	b.Finish(t0.Add(1100 * time.Millisecond))
	s.Record(a)
	s.Record(b)
	s.Record(nil) // nil traces are ignored
	if got := s.Len(); got != 2 {
		t.Fatalf("len = %d", got)
	}
	views := s.Stored()
	if len(views) != 2 || views[0].Name() != "a" || views[1].Name() != "b" {
		t.Fatalf("stored = %v", views)
	}
	if views[0].Duration() != 100*time.Millisecond {
		t.Fatalf("duration = %v", views[0].Duration())
	}
	last, ok := s.Last()
	if !ok || last.Name() != "b" {
		t.Fatal("last != b")
	}
	// An unfinished trace stays staged, invisible to reads, until it
	// finishes and a later read folds it.
	c := New("c", t0.Add(2*time.Second))
	s.Record(c)
	if got := len(s.Stored()); got != 2 {
		t.Fatalf("open trace leaked into storage: %d stored", got)
	}
	c.Finish(t0.Add(3 * time.Second))
	if got := len(s.Stored()); got != 3 {
		t.Fatalf("finished trace not folded: %d stored", got)
	}
	// Time windows binary-search root starts, bounds inclusive.
	win := s.Window(t0.Add(time.Second), t0.Add(2*time.Second))
	if len(win) != 2 || win[0].Name() != "b" || win[1].Name() != "c" {
		t.Fatalf("window = %d traces", len(win))
	}
	var nilStore *Store
	nilStore.Record(a)
	if nilStore.Len() != 0 || nilStore.Stored() != nil || !nilStore.Decide("x", "y", t0) {
		t.Fatal("nil store misbehaved")
	}
}

func TestConcurrentTraceAccess(t *testing.T) {
	// A reader walking the trace while another goroutine appends spans
	// must be race-free (the store makes traces visible across
	// goroutines).
	tr := New("req", t0)
	root := tr.Root()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := root.StartChild("s3", "Get", t0)
			s.Annotate("k", "v")
			s.AddUsage(pricing.Usage{Kind: pricing.S3GetRequests, Quantity: 1})
			s.Finish(t0.Add(time.Millisecond))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tr.Spans()
			tr.Usage()
			tr.Cost(pricing.Default2017())
		}
	}()
	wg.Wait()
	if got := len(tr.FindAll("s3")); got != 200 {
		t.Fatalf("spans = %d", got)
	}
}
