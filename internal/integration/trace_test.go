package integration

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/apps/chat"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/trace"
	"repro/internal/core"
	"repro/internal/pricing"
)

// spanID identifies one expected hop in a trace.
type spanID struct{ service, op string }

// TestTracePropagation drives one traced chat send through the whole
// stack — gateway → lambda → {kms, state store} → sqs fan-out — and
// checks the resulting span tree, the cold-start annotation, and that
// the trace's cost ledger reproduces the pricing meter's charges for
// the flow exactly.
func TestTracePropagation(t *testing.T) {
	cases := []struct {
		name    string
		backend string
		members []string
		idle    time.Duration // clock advance before the traced send
		cold    bool
		// wantInside lists the lambda span's expected children in
		// order (the virtual billing-quantum sub-span excluded).
		wantInside []spanID
	}{
		{
			name:    "warm send on s3 backend",
			members: []string{"alice", "bob"},
			idle:    30 * time.Second,
			cold:    false,
			wantInside: []spanID{
				{"kms", "kms:Decrypt"},
				{"s3", "s3:GetObject"},
				{"s3", "s3:PutObject"},
				{"sqs", "sqs:SendMessage"},
			},
		},
		{
			name:    "cold send after warm pool expiry",
			members: []string{"alice", "bob"},
			idle:    10 * time.Minute, // past DefaultWarmTTL
			cold:    true,
			wantInside: []spanID{
				{"lambda", "cold-start"},
				{"kms", "kms:Decrypt"},
				{"s3", "s3:GetObject"},
				{"s3", "s3:PutObject"},
				{"sqs", "sqs:SendMessage"},
			},
		},
		{
			name:    "warm send on dynamo backend",
			backend: "dynamo",
			members: []string{"alice", "bob"},
			idle:    30 * time.Second,
			cold:    false,
			wantInside: []spanID{
				{"kms", "kms:Decrypt"},
				{"dynamo", "dynamodb:GetItem"},
				{"dynamo", "dynamodb:PutItem"},
				{"sqs", "sqs:SendMessage"},
			},
		},
		{
			name:    "fan-out to three members",
			members: []string{"alice", "bob", "carol"},
			idle:    30 * time.Second,
			cold:    false,
			wantInside: []spanID{
				{"kms", "kms:Decrypt"},
				{"s3", "s3:GetObject"},
				{"s3", "s3:PutObject"},
				{"sqs", "sqs:SendMessage"},
				{"sqs", "sqs:SendMessage"},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cloud := newCloud(t)
			d, err := chat.Install(cloud, "proto", chat.App{
				Members: tc.members,
				Backend: tc.backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			alice := chat.NewClient(d, "alice", "laptop")
			if _, err := alice.Session(); err != nil {
				t.Fatal(err)
			}
			cloud.Clock.Advance(tc.idle)

			start := cloud.Clock.Now()
			before := cloud.Meter.Snapshot()
			sent, err := alice.SendTraced("hello, traced world")
			if err != nil {
				t.Fatal(err)
			}
			after := cloud.Meter.Snapshot()
			if !sent.Traced {
				t.Fatal("trace not recorded in the cloud's store")
			}

			assertSpanTree(t, sent.Trace, cloud.Book, d, sent.Stats, tc.cold, tc.wantInside)
			assertCostMatchesMeter(t, sent.Trace, cloud.Book, before, after)

			// The send's view is the store's latest trace, and the root
			// spans the whole send: it opens when the send starts and
			// closes when the message hit the inbox queues.
			last, ok := cloud.Tracer.Last()
			if !ok || last != sent.Trace {
				t.Fatal("the send's trace is not the store's latest")
			}
			if last.Name() != "chat-send" || last.Duration() != sent.At.Sub(start) {
				t.Errorf("stored trace = %q lasting %v, want %q lasting %v",
					last.Name(), last.Duration(), "chat-send", sent.At.Sub(start))
			}
		})
	}
}

// renderedSpan is one line of a stored trace's Render below the
// header: the span's depth (1 for the root's children), service and op.
type renderedSpan struct {
	depth       int
	service, op string
}

// renderedTree parses Render's flame tree back into preorder spans.
// Each level indents by one three-rune column ("│  " or "   ") before
// the "├─ "/"└─ " branch; service and op are the first field after it.
func renderedTree(tr trace.TraceView, book *pricing.PriceBook) []renderedSpan {
	lines := strings.Split(strings.TrimSuffix(tr.Render(book), "\n"), "\n")
	var out []renderedSpan
	for _, line := range lines[1:] {
		i := strings.Index(line, "─ ")
		head, _, _ := strings.Cut(line[i+len("─ "):], "  ")
		service, op, _ := strings.Cut(head, " ")
		out = append(out, renderedSpan{depth: (utf8.RuneCountInString(line[:i])-1)/3 + 1, service: service, op: op})
	}
	return out
}

// children returns the direct children of spans[parent] (of the root
// when parent is -1), in creation order, as indexes into spans.
func children(spans []renderedSpan, parent int) []int {
	depth := 0
	if parent >= 0 {
		depth = spans[parent].depth
	}
	var out []int
	for i := parent + 1; i < len(spans) && spans[i].depth > depth; i++ {
		if spans[i].depth == depth+1 {
			out = append(out, i)
		}
	}
	return out
}

// assertSpanTree checks the client → gateway → lambda → hops chain.
func assertSpanTree(t *testing.T, tr trace.TraceView, book *pricing.PriceBook, d *core.Deployment, stats lambda.InvocationStats, wantCold bool, wantInside []spanID) {
	t.Helper()
	if _, ok := tr.Find("client", "chat-send"); !ok || tr.Name() != "chat-send" {
		t.Fatalf("root = %q, want client chat-send", tr.Name())
	}
	if tr.Duration() <= 0 {
		t.Fatal("trace has no duration")
	}

	spans := renderedTree(tr, book)
	kids := children(spans, -1)
	if len(kids) != 1 {
		t.Fatalf("root has %d children, want 1 gateway span", len(kids))
	}
	gw := spans[kids[0]]
	if gw.service != "gateway" || gw.op != d.Endpoint {
		t.Fatalf("first hop = %s %s, want gateway %s", gw.service, gw.op, d.Endpoint)
	}

	kids = children(spans, kids[0])
	if len(kids) != 1 {
		t.Fatalf("gateway has %d children, want 1 lambda span", len(kids))
	}
	fnAt := kids[0]
	if s := spans[fnAt]; s.service != "lambda" || s.op != d.FnName {
		t.Fatalf("second hop = %s %s, want lambda %s", s.service, s.op, d.FnName)
	}

	// Invocation annotations agree with the returned stats.
	fn, ok := tr.Find("lambda", d.FnName)
	if !ok {
		t.Fatalf("Find(lambda, %s) missed", d.FnName)
	}
	if v, _ := fn.Annotation("cold_start"); v != fmt.Sprintf("%v", wantCold) {
		t.Errorf("cold_start = %q, want %v", v, wantCold)
	}
	if stats.ColdStart != wantCold {
		t.Errorf("stats.ColdStart = %v, want %v", stats.ColdStart, wantCold)
	}
	if v, _ := fn.Annotation("billed_ms"); v != fmt.Sprintf("%d", stats.BilledTime.Milliseconds()) {
		t.Errorf("billed_ms = %q, want %d", v, stats.BilledTime.Milliseconds())
	}
	if v, _ := fn.Annotation("region"); v != stats.Region {
		t.Errorf("region = %q, want %q", v, stats.Region)
	}

	var got []spanID
	for _, c := range children(spans, fnAt) {
		if spans[c].op == "billing-quantum" {
			continue // virtual padding span; presence depends on run time
		}
		got = append(got, spanID{spans[c].service, spans[c].op})
	}
	if len(got) != len(wantInside) {
		t.Fatalf("lambda children = %v, want %v", got, wantInside)
	}
	for i := range got {
		if got[i] != wantInside[i] {
			t.Errorf("hop %d = %v, want %v", i, got[i], wantInside[i])
		}
	}
}

// assertCostMatchesMeter prices the usage metered during the traced
// flow (meter snapshot diff) and requires the trace's own ledger to
// agree record for record and to the exact nanodollar.
func assertCostMatchesMeter(t *testing.T, tr trace.TraceView, book *pricing.PriceBook, before, after []pricing.Usage) {
	t.Helper()
	type key struct {
		kind     pricing.Kind
		resource string
		app      string
	}
	metered := make(map[key]float64)
	for _, u := range before {
		metered[key{u.Kind, u.Resource, u.App}] -= u.Quantity
	}
	for _, u := range after {
		metered[key{u.Kind, u.Resource, u.App}] += u.Quantity
	}
	for k, q := range metered {
		if q == 0 {
			delete(metered, k)
		}
	}

	var meterCost pricing.Money
	for k, q := range metered {
		meterCost += book.ListPrice(pricing.Usage{Kind: k.kind, Quantity: q, Resource: k.resource, App: k.app})
	}

	traced := tr.Usage()
	if len(traced) != len(metered) {
		t.Fatalf("trace ledger has %d usage records, meter diff has %d:\ntrace: %+v\nmeter: %+v",
			len(traced), len(metered), traced, metered)
	}
	for _, u := range traced {
		mq, ok := metered[key{u.Kind, u.Resource, u.App}]
		if !ok {
			t.Errorf("trace records %v/%s/%s, meter did not", u.Kind, u.Resource, u.App)
			continue
		}
		// The diff of two running meter totals carries float rounding
		// the trace's own sum does not; a relative epsilon absorbs it.
		// The priced totals below still must agree exactly.
		if diff := u.Quantity - mq; diff > 1e-9*u.Quantity || -diff > 1e-9*u.Quantity {
			t.Errorf("%v/%s/%s: trace %v, meter %v", u.Kind, u.Resource, u.App, u.Quantity, mq)
		}
	}

	if got := tr.Cost(book); got != meterCost {
		t.Errorf("trace cost %v != metered cost %v", got, meterCost)
	}
}
