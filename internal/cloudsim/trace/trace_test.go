package trace

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pricing"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// services lists a stored trace's segment services in preorder.
func services(v TraceView) []string {
	var out []string
	for _, g := range segments(v, nil) {
		out = append(out, g.Service)
	}
	return out
}

func TestSpanTree(t *testing.T) {
	s := NewStore(nil)
	tr := New(s, "req", t0)
	root := tr.Root()
	gw := root.StartChild("gateway", "/x", t0.Add(5*time.Millisecond))
	fn := gw.StartChild("lambda", "fn", t0.Add(10*time.Millisecond))
	kms := fn.StartChild("kms", "Decrypt", t0.Add(20*time.Millisecond))
	kms.Finish(t0.Add(30 * time.Millisecond))
	fn.Finish(t0.Add(150 * time.Millisecond))
	gw.Finish(t0.Add(160 * time.Millisecond))
	v, ok := tr.Finish(t0.Add(170 * time.Millisecond))
	if !ok {
		t.Fatal("finished trace not stored")
	}

	if v.Name() != "req" {
		t.Fatalf("name = %q", v.Name())
	}
	if got, want := services(v), []string{"client", "gateway", "lambda", "kms"}; !slices.Equal(got, want) {
		t.Fatalf("segments = %v, want %v", got, want)
	}
	if d := v.Duration(); d != 170*time.Millisecond {
		t.Errorf("trace duration = %v", d)
	}
	if skms, ok := v.Find("kms", ""); !ok || skms.Op() != "Decrypt" {
		t.Errorf("Find(kms, *) = %q, %v", skms.Op(), ok)
	}
	if sfn, ok := v.Find("lambda", "fn"); !ok || sfn.Service() != "lambda" {
		t.Fatal("Find(lambda, fn) missed")
	}
	if _, ok := v.Find("dynamo", ""); ok {
		t.Error("Find for absent service should miss")
	}
	segs := segments(v, nil)
	if d := segs[3].End.Sub(segs[3].Start); d != 10*time.Millisecond {
		t.Errorf("kms duration = %v", d)
	}
	// Preorder client, gateway, lambda, kms: each the child of the one
	// before, and the root the child of none.
	for i, g := range segs {
		if g.Parent != i-1 {
			t.Errorf("%s parent = %d, want %d", g.Service, g.Parent, i-1)
		}
	}
}

func TestFinishClamp(t *testing.T) {
	s := NewStore(nil)
	tr := New(s, "req", t0)
	c := tr.Root().StartChild("s3", "Get", t0.Add(time.Second))
	c.Finish(t0) // earlier than start: clamped
	v, _ := tr.Finish(t0)
	g := segments(v, nil)[1]
	if g.Op != "Get" || !g.End.Equal(g.Start) {
		t.Fatalf("%s end = %v, want clamp to start %v", g.Op, g.End, g.Start)
	}
}

func TestAnnotations(t *testing.T) {
	s := NewStore(nil)
	tr := New(s, "req", t0)
	sp := tr.Root().StartChild("lambda", "fn", t0)
	sp.Annotate("cold_start", "true")
	sp.Annotate("region", "us-west-2")
	sp.Annotate("cold_start", "false") // overwrite, not duplicate
	if v, ok := sp.Annotation("cold_start"); !ok || v != "false" {
		t.Fatalf("live cold_start = %q, %v", v, ok)
	}
	if _, ok := sp.Annotation("absent"); ok {
		t.Fatal("absent annotation reported present")
	}
	v, _ := tr.Finish(t0)
	g, _ := v.Find("lambda", "fn")
	want := []Annotation{{"cold_start", "false"}, {"region", "us-west-2"}}
	if got := segments(v, nil)[1].Annos; !slices.Equal(got, want) {
		t.Fatalf("stored annotations = %v, want %v", got, want)
	}
	if got, ok := g.Annotation("region"); !ok || got != "us-west-2" {
		t.Fatalf("stored region = %q, %v", got, ok)
	}
	if _, ok := g.Annotation("absent"); ok {
		t.Fatal("absent annotation stored")
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
	if _, ok := s.Annotation("k"); ok {
		t.Fatal("nil span holds an annotation")
	}
	if _, ok := tr.Finish(t0); ok {
		t.Fatal("nil trace stored")
	}
	// A trace with no store to land in is never built.
	if New(nil, "req", t0) != nil {
		t.Fatal("New built a trace for a nil store")
	}
	var st *Store
	if st.Decide(t0) || st.Len() != 0 || st.Stored() != nil {
		t.Fatal("nil store misbehaved")
	}
}

func TestUsageAggregationAndCost(t *testing.T) {
	book := pricing.Default2017()
	st := NewStore(nil)
	tr := New(st, "req", t0)
	fn := tr.Root().StartChild("lambda", "fn", t0)
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1, App: "chat"})
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaGBSeconds, Quantity: 0.0875, App: "chat"})
	s3a := fn.StartChild("s3", "Put", t0)
	s3a.AddUsage(pricing.Usage{Kind: pricing.S3PutRequests, Quantity: 1, App: "chat"})
	s3b := fn.StartChild("s3", "Put", t0)
	s3b.AddUsage(pricing.Usage{Kind: pricing.S3PutRequests, Quantity: 1, App: "chat"})
	v, _ := tr.Finish(t0)

	agg := v.Usage()
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
	if got := v.Cost(book); got != want {
		t.Fatalf("trace cost = %v, want %v", got, want)
	}
	// Per-segment attribution: the lambda segment alone costs less than
	// the trace, and the segments' own costs sum to it.
	segs := segments(v, book)
	if segs[1].Op != "fn" || segs[1].Cost >= v.Cost(book) {
		t.Fatal("lambda segment alone should cost less than the whole trace")
	}
	var sum pricing.Money
	for _, g := range segs {
		sum += g.Cost
	}
	if sum != v.Cost(book) {
		t.Fatalf("segment costs sum to %v, trace cost %v", sum, v.Cost(book))
	}

	// The same holds for a chat send's ledger: a function invocation
	// whose KMS, S3 and per-member SQS hops each carry their own fee,
	// the SQS fees merging into one record across three segments.
	tr = New(st, "chat-send", t0)
	fn = tr.Root().StartChild("gateway", "/u/chat", t0).StartChild("lambda", "u-chat", t0)
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1, Resource: "u-chat", App: "chat"})
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaGBSeconds, Quantity: 0.0875, Resource: "u-chat", App: "chat"})
	for _, k := range []pricing.Kind{pricing.KMSRequests, pricing.S3GetRequests, pricing.S3PutRequests,
		pricing.SQSRequests, pricing.SQSRequests, pricing.SQSRequests} {
		fn.StartChild("hop", string(k), t0).AddUsage(pricing.Usage{Kind: k, Quantity: 1, App: "chat"})
	}
	v, _ = tr.Finish(t0)
	sum = 0
	for _, g := range segments(v, book) {
		sum += g.Cost
	}
	if sum != v.Cost(book) || len(v.Usage()) != 6 {
		t.Fatalf("chat send: segment costs sum to %v, trace cost %v over %d records", sum, v.Cost(book), len(v.Usage()))
	}
}

func TestRender(t *testing.T) {
	book := pricing.Default2017()
	tr := New(NewStore(nil), "chat-send", t0)
	gw := tr.Root().StartChild("gateway", "/u/chat", t0.Add(time.Millisecond))
	fn := gw.StartChild("lambda", "u-chat", t0.Add(20*time.Millisecond))
	fn.Annotate("cold_start", "true")
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1})
	fn.Finish(t0.Add(200 * time.Millisecond))
	gw.Finish(t0.Add(210 * time.Millisecond))
	v, _ := tr.Finish(t0.Add(211 * time.Millisecond))

	out := v.Render(book)
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
	New(s, "a", t0).Finish(t0.Add(100 * time.Millisecond))
	New(s, "b", t0.Add(time.Second)).Finish(t0.Add(1100 * time.Millisecond))
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
	New(s, "c", t0.Add(2*time.Second)).Finish(t0.Add(3 * time.Second))
	// Time windows binary-search root starts, bounds inclusive.
	win := s.Window(t0.Add(time.Second), t0.Add(2*time.Second))
	if len(win) != 2 || win[0].Name() != "b" || win[1].Name() != "c" {
		t.Fatalf("window = %d traces", len(win))
	}
}

// segWant is what a builder wrote for one span, listed in preorder.
type segWant struct {
	service, op string
	parent      int // preorder index of the parent, -1 at the root
	start, end  time.Time
	annos       []Annotation
	usage       []pricing.Usage
}

// TestFoldFidelity checks every stored segment against what the
// builder wrote: service, op, parent, start, end, annotations and
// usage. Spans are created out of preorder (a sibling before its elder
// sibling's children) and one child is still open when the root
// finishes, so the fold's preorder walk and its never-finished marker
// are both exercised.
func TestFoldFidelity(t *testing.T) {
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	use := func(k pricing.Kind, q float64) pricing.Usage {
		return pricing.Usage{Kind: k, Quantity: q, Resource: "r", App: "chat"}
	}
	st := NewStore(nil)
	tr := New(st, "chat-send", ms(0))
	gw := tr.Root().StartChild("gateway", "/u/chat", ms(1))
	fn := gw.StartChild("lambda", "u-chat", ms(2))
	tail := gw.StartChild("sqs", "sqs:SendMessage", ms(150)) // created before fn's children
	fn.Annotate("cold_start", "true")
	fn.Annotate("run_ms", "120")
	fn.Annotate("cold_start", "false")
	fn.AddUsage(use(pricing.LambdaRequests, 1))
	fn.AddUsage(use(pricing.LambdaGBSeconds, 0.0875))
	kms := fn.StartChild("kms", "kms:Decrypt", ms(3))
	kms.AddUsage(use(pricing.KMSRequests, 1))
	kms.Finish(ms(5))
	open := fn.StartChild("s3", "s3:PutObject", ms(6)) // never finished
	open.Annotate("bytes", "222")
	fn.Finish(ms(122))
	tail.AddUsage(use(pricing.SQSRequests, 1))
	tail.Finish(ms(160))
	gw.Finish(ms(170))
	v, ok := tr.Finish(ms(171))
	if !ok {
		t.Fatal("trace not stored")
	}

	want := []segWant{
		{"client", "chat-send", -1, ms(0), ms(171), nil, nil},
		{"gateway", "/u/chat", 0, ms(1), ms(170), nil, nil},
		{"lambda", "u-chat", 1, ms(2), ms(122),
			[]Annotation{{"cold_start", "false"}, {"run_ms", "120"}},
			[]pricing.Usage{use(pricing.LambdaRequests, 1), use(pricing.LambdaGBSeconds, 0.0875)}},
		{"kms", "kms:Decrypt", 2, ms(3), ms(5), nil, []pricing.Usage{use(pricing.KMSRequests, 1)}},
		{"s3", "s3:PutObject", 2, ms(6), time.Time{}, []Annotation{{"bytes", "222"}}, nil},
		{"sqs", "sqs:SendMessage", 1, ms(150), ms(160), nil, []pricing.Usage{use(pricing.SQSRequests, 1)}},
	}
	segs := segments(v, nil)
	if len(segs) != len(want) {
		t.Fatalf("stored %d segments, want %d", len(segs), len(want))
	}
	for i, w := range want {
		g := segs[i]
		if g.Service != w.service || g.Op != w.op {
			t.Errorf("segment %d = %s %s, want %s %s", i, g.Service, g.Op, w.service, w.op)
		}
		if g.Parent != w.parent {
			t.Errorf("segment %d parent = %d, want %d", i, g.Parent, w.parent)
		}
		if !g.Start.Equal(w.start) || !g.End.Equal(w.end) {
			t.Errorf("segment %d = [%v, %v], want [%v, %v]", i, g.Start, g.End, w.start, w.end)
		}
		if !slices.Equal(g.Annos, w.annos) {
			t.Errorf("segment %d annotations = %v, want %v", i, g.Annos, w.annos)
		}
		if !slices.Equal(g.Usage, w.usage) {
			t.Errorf("segment %d usage = %v, want %v", i, g.Usage, w.usage)
		}
	}
}

// TestConcurrentFinish has N goroutines decide, build and finish traces
// into one shared store while another goroutine reads its counters:
// exactly N traces are stored and the counters agree. Run under -race.
func TestConcurrentFinish(t *testing.T) {
	const n = 64
	s := NewStore(nil)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			at := t0.Add(time.Duration(i) * time.Second)
			if !s.Decide(at) {
				t.Error("keep-all store dropped a trace")
				return
			}
			tr := New(s, "req", at)
			c := tr.Root().StartChild("s3", "Get", at)
			c.Annotate("k", "v")
			c.AddUsage(pricing.Usage{Kind: pricing.S3GetRequests, Quantity: 1})
			c.Finish(at.Add(time.Millisecond))
			tr.Finish(at.Add(2 * time.Millisecond))
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			st := s.Stats()
			if st.Stored > st.Kept || st.Kept > st.Decided {
				t.Errorf("inconsistent stats mid-run: %+v", st)
				return
			}
			s.Len()
		}
	}()
	wg.Wait()
	<-done
	if got := s.Stats(); got != (StoreStats{Decided: n, Kept: n, Stored: n}) {
		t.Fatalf("stats = %+v, want %d decided, kept and stored", got, n)
	}
	if got := s.Len(); got != n {
		t.Fatalf("len = %d, want %d", got, n)
	}
}

// A second Finish must not store the trace again: it returns the same
// view, and the stored root keeps the first end instant.
func TestFinishTwice(t *testing.T) {
	s := NewStore(nil)
	tr := New(s, "req", t0)
	first, _ := tr.Finish(t0.Add(time.Second))
	again, ok := tr.Finish(t0.Add(5 * time.Second))
	if !ok || again != first {
		t.Fatal("second Finish returned a different view")
	}
	tr.Root().Finish(t0.Add(9 * time.Second))
	if got := s.Stats().Stored; got != 1 || s.Len() != 1 {
		t.Fatalf("stored %d traces (len %d), want 1", got, s.Len())
	}
	if d := first.Duration(); d != time.Second {
		t.Fatalf("stored duration = %v, want the first Finish's 1s", d)
	}
}

// A trace whose root is still open is invisible to every read, however
// much of it has been built and finished.
func TestOpenTraceInvisible(t *testing.T) {
	book := pricing.Default2017()
	s := NewStore(nil)
	tr := New(s, "req", t0)
	c := tr.Root().StartChild("kms", "kms:Decrypt", t0)
	c.AddUsage(pricing.Usage{Kind: pricing.KMSRequests, Quantity: 1})
	c.Finish(t0.Add(time.Millisecond))
	if s.Len() != 0 || len(s.Stored()) != 0 {
		t.Fatal("open trace visible to Len/Stored")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("open trace visible to Last")
	}
	if m := s.ServiceMap(book, time.Time{}, time.Time{}); m.Traces != 0 {
		t.Fatalf("open trace in the service map: %d traces", m.Traces)
	}
	if p := s.CriticalProfile(time.Time{}, time.Time{}); p.Traces != 0 {
		t.Fatalf("open trace in the critical profile: %d traces", p.Traces)
	}
	if q, err := s.Query(`service(kms)`, book, time.Time{}, time.Time{}); err != nil || len(q) != 0 {
		t.Fatalf("open trace matched a query: %d, %v", len(q), err)
	}
	if st := s.Stats(); st.Stored != 0 || st.Scanned != 0 {
		t.Fatalf("open trace counted: %+v", st)
	}
	tr.Finish(t0.Add(2 * time.Millisecond))
	if s.Len() != 1 {
		t.Fatal("finished trace not stored")
	}
}

// Traces are stored in the order their roots finish, not the order
// they started: Last follows finishing, while windows still order by
// start.
func TestFinishOrder(t *testing.T) {
	s := NewStore(nil)
	a := New(s, "a", t0)
	b := New(s, "b", t0.Add(time.Second))
	vb, _ := b.Finish(t0.Add(2 * time.Second))
	if last, _ := s.Last(); last != vb {
		t.Fatal("b finished first but is not the last stored trace")
	}
	va, _ := a.Finish(t0.Add(3 * time.Second))
	if last, _ := s.Last(); last != va {
		t.Fatal("a finished last but is not the last stored trace")
	}
	if v := s.Stored(); len(v) != 2 || v[0] != va || v[1] != vb {
		t.Fatal("Stored is not in start order")
	}
}
