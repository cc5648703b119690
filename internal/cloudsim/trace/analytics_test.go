package trace

import (
	"testing"
	"time"

	"repro/internal/pricing"
)

// fixtureStore builds a store with two hand-shaped traces:
//
//	t0+0s:  chat-send 200ms — gateway → lambda → kms, lambda billed
//	t0+10s: chat-send 600ms — gateway → lambda → s3 (error, cold start)
func fixtureStore(t testing.TB) *Store {
	t.Helper()
	s := NewStore(nil)

	a := New("chat-send", t0)
	gw := a.Root().StartChild("gateway", "/u/chat", t0.Add(10*time.Millisecond))
	fn := gw.StartChild("lambda", "u-chat", t0.Add(20*time.Millisecond))
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1})
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaGBSeconds, Quantity: 0.0875})
	kms := fn.StartChild("kms", "kms:Decrypt", t0.Add(30*time.Millisecond))
	kms.AddUsage(pricing.Usage{Kind: pricing.KMSRequests, Quantity: 1})
	kms.Finish(t0.Add(40 * time.Millisecond))
	fn.Finish(t0.Add(180 * time.Millisecond))
	gw.Finish(t0.Add(190 * time.Millisecond))
	a.Finish(t0.Add(200 * time.Millisecond))
	s.Record(a)

	b := New("chat-send", t0.Add(10*time.Second))
	bgw := b.Root().StartChild("gateway", "/u/chat", t0.Add(10*time.Second+10*time.Millisecond))
	bfn := bgw.StartChild("lambda", "u-chat", t0.Add(10*time.Second+20*time.Millisecond))
	bfn.Annotate("cold_start", "true")
	bfn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1})
	bs3 := bfn.StartChild("s3", "s3:GetObject", t0.Add(10*time.Second+40*time.Millisecond))
	bs3.Annotate("error", "s3: no such key")
	bs3.AddUsage(pricing.Usage{Kind: pricing.S3GetRequests, Quantity: 1})
	bs3.Finish(t0.Add(10*time.Second + 400*time.Millisecond))
	bfn.Finish(t0.Add(10*time.Second + 580*time.Millisecond))
	bgw.Finish(t0.Add(10*time.Second + 590*time.Millisecond))
	b.Finish(t0.Add(10*time.Second + 600*time.Millisecond))
	s.Record(b)
	return s
}

func TestServiceMapDerivation(t *testing.T) {
	s := fixtureStore(t)
	book := pricing.Default2017()
	m := s.ServiceMap(book, time.Time{}, time.Time{})
	if m.Traces != 2 {
		t.Fatalf("traces = %d", m.Traces)
	}
	// client, gateway, lambda, kms, s3.
	if len(m.Nodes) != 5 {
		t.Fatalf("nodes = %d: %+v", len(m.Nodes), m.Nodes)
	}
	byName := make(map[string]MapNode)
	for _, n := range m.Nodes {
		byName[n.Service] = n
	}
	if n := byName["lambda"]; n.Requests != 2 || n.Errors != 0 || n.Cost <= 0 {
		t.Errorf("lambda node = %+v", n)
	}
	if n := byName["s3"]; n.Requests != 1 || n.Errors != 1 {
		t.Errorf("s3 node = %+v", n)
	}
	if n := byName["gateway"]; n.Total != 180*time.Millisecond+580*time.Millisecond {
		t.Errorf("gateway total = %v", n.Total)
	}
	// client→gateway, gateway→lambda, lambda→kms, lambda→s3.
	if len(m.Edges) != 4 {
		t.Fatalf("edges = %d: %+v", len(m.Edges), m.Edges)
	}
	var ls3 *MapEdge
	for i := range m.Edges {
		if m.Edges[i].From == "lambda" && m.Edges[i].To == "s3" {
			ls3 = &m.Edges[i]
		}
	}
	if ls3 == nil || ls3.Requests != 1 || ls3.Errors != 1 {
		t.Errorf("lambda->s3 edge = %+v", ls3)
	}
	// The render, pinned whole: node rows busiest first, then edges.
	want := `service map — 2 traces, 5 services, 4 edges
  SERVICE        SPANS  ERRORS         AVG       TOTAL           COST
  client             2       0       400ms       800ms    $0.00000000
  gateway            2       0       380ms       760ms    $0.00000000
  lambda             2       0       360ms       720ms    $0.00000186
  kms                1       0        10ms        10ms    $0.00000300
  s3                 1       1       360ms       360ms    $0.00000040
  client -> gateway             2       0       380ms    $0.00000000
  gateway -> lambda             2       0       360ms    $0.00000186
  lambda -> kms                 1       0        10ms    $0.00000300
  lambda -> s3                  1       1       360ms    $0.00000040
`
	if got := m.Render(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestServiceMapMerge(t *testing.T) {
	s := fixtureStore(t)
	book := pricing.Default2017()
	// Split the window in two, merge, and require the same rollup as
	// one whole-window scan — the control tower's per-account merge in
	// miniature.
	whole := s.ServiceMap(book, time.Time{}, time.Time{})
	first := s.ServiceMap(book, time.Time{}, t0.Add(time.Second))
	second := s.ServiceMap(book, t0.Add(time.Second), time.Time{})
	first.Merge(second)
	first.Merge(nil) // nil-safe
	if got, want := first.Render(), whole.Render(); got != want {
		t.Errorf("merged map diverges from whole-window map:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCriticalPathExtraction(t *testing.T) {
	s := fixtureStore(t)
	views := s.Stored()
	path := views[0].CriticalPath()
	// client → gateway → lambda → kms, each keeping its self time.
	want := []PathStep{
		{"client", "chat-send", 20 * time.Millisecond},
		{"gateway", "/u/chat", 20 * time.Millisecond},
		{"lambda", "u-chat", 150 * time.Millisecond},
		{"kms", "kms:Decrypt", 10 * time.Millisecond},
	}
	if len(path) != len(want) {
		t.Fatalf("path = %+v", path)
	}
	for i, st := range path {
		if st != want[i] {
			t.Errorf("step %d = %+v, want %+v", i, st, want[i])
		}
	}
	var total time.Duration
	for _, st := range path {
		total += st.Self
	}
	if total != views[0].Duration() {
		t.Errorf("self times sum to %v, root duration is %v", total, views[0].Duration())
	}
}

func TestCriticalProfileAndMerge(t *testing.T) {
	s := fixtureStore(t)
	whole := s.CriticalProfile(time.Time{}, time.Time{})
	if whole.Traces != 2 {
		t.Fatalf("traces = %d", whole.Traces)
	}
	// 200ms root → 100-250ms bucket; 600ms root → 500ms-1s bucket.
	if whole.Hist[2] != 1 || whole.Hist[4] != 1 {
		t.Errorf("histogram = %v", whole.Hist)
	}
	// Both traces route through lambda u-chat.
	found := false
	for _, st := range whole.Steps {
		if st.Service == "lambda" && st.Op == "u-chat" {
			found = st.Count == 2
		}
	}
	if !found {
		t.Errorf("lambda u-chat not hit twice: %+v", whole.Steps)
	}
	// The render, pinned whole: steps by total self time, then the
	// histogram.
	want := `critical path — 2 traces
  STEP                              HITS    AVG SELF  TOTAL SELF
  s3 s3:GetObject                      1       360ms       360ms
  lambda u-chat                        2       175ms       350ms
  client chat-send                     2        20ms        40ms
  gateway /u/chat                      2        20ms        40ms
  kms kms:Decrypt                      1        10ms        10ms
  duration histogram:  <50ms=0  50-100ms=0  100-250ms=1  250-500ms=0  500ms-1s=1  >=1s=0
`
	if got := whole.Render(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
	// Split-window merge equals the whole-window profile.
	first := s.CriticalProfile(time.Time{}, t0.Add(time.Second))
	second := s.CriticalProfile(t0.Add(time.Second), time.Time{})
	first.Merge(second)
	first.Merge(nil)
	if got, want := first.Render(), whole.Render(); got != want {
		t.Errorf("merged profile diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestFilterQueries(t *testing.T) {
	s := fixtureStore(t)
	book := pricing.Default2017()
	cases := []struct {
		expr string
		want int
	}{
		{`service(kms)`, 1},
		{`service("s3")`, 1},
		{`service(gateway)`, 2},
		{`service(dynamo)`, 0},
		{`duration > 500ms`, 1},
		{`duration <= 200ms`, 1},
		{`duration = 600ms`, 1},
		{`annotation.cold_start = true`, 1},
		{`annotation.cold_start != true`, 0}, // only the cold trace has the key at all
		{`annotation.error != ""`, 1},
		{`cost > $0.0000001`, 2},
		{`cost > $1`, 0},
		{`service(kms) AND duration > 500ms`, 0},
		{`service(kms) OR duration > 500ms`, 2},
		{`NOT service(kms)`, 1},
		{`not (service(kms) or service(s3))`, 0},
		{`service(s3) and annotation.cold_start = true and duration >= 600ms`, 1},
	}
	for _, c := range cases {
		got, err := s.Query(c.expr, book, time.Time{}, time.Time{})
		if err != nil {
			t.Errorf("query %q: %v", c.expr, err)
			continue
		}
		if len(got) != c.want {
			t.Errorf("query %q matched %d traces, want %d", c.expr, len(got), c.want)
		}
	}

	for _, bad := range []string{
		`frobnicate(kms)`,
		`service(kms) extra`,
		`duration > fast`,
		`cost > $abc`,
		`annotation.key > 3`,
		`(service(kms)`,
	} {
		if _, err := s.Query(bad, book, time.Time{}, time.Time{}); err == nil {
			t.Errorf("query %q: expected an error", bad)
		}
	}
}

// TestScanAccounting pins the billed scan dimension: every candidate
// trace a read visits counts once, match or not, and failed parses
// scan nothing.
func TestScanAccounting(t *testing.T) {
	s := fixtureStore(t)
	book := pricing.Default2017()
	base := s.Stats().Scanned
	if _, err := s.Query(`service(dynamo)`, book, time.Time{}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Scanned - base; got != 2 {
		t.Errorf("zero-match query scanned %d, want 2 (scanning bills, matching doesn't)", got)
	}
	base = s.Stats().Scanned
	if _, err := s.Query(`bogus!`, book, time.Time{}, time.Time{}); err == nil {
		t.Fatal("bogus query parsed")
	}
	if got := s.Stats().Scanned - base; got != 0 {
		t.Errorf("failed parse scanned %d traces", got)
	}
	base = s.Stats().Scanned
	s.ServiceMap(book, time.Time{}, time.Time{})
	s.CriticalProfile(time.Time{}, time.Time{})
	if _, ok := s.Last(); !ok {
		t.Fatal("no last trace")
	}
	if got := s.Stats().Scanned - base; got != 5 {
		t.Errorf("map+profile+last scanned %d, want 2+2+1", got)
	}
	// The inventory prices recorded and scanned counts, and nothing is
	// ever metered into an account automatically.
	var recorded, scanned float64
	for _, u := range s.Usage() {
		switch u.Kind {
		case pricing.XRayTracesRecorded:
			recorded = u.Quantity
		case pricing.XRayTracesScanned:
			scanned = u.Quantity
		}
	}
	if recorded != 2 || scanned != float64(s.Stats().Scanned) {
		t.Errorf("usage inventory recorded=%v scanned=%v, stats %+v", recorded, scanned, s.Stats())
	}
}
