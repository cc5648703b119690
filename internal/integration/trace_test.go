package integration

import (
	"fmt"
	"testing"
	"time"

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

			before := cloud.Meter.Snapshot()
			sent, err := alice.SendTraced("hello, traced world")
			if err != nil {
				t.Fatal(err)
			}
			after := cloud.Meter.Snapshot()
			if !sent.Traced {
				t.Fatal("trace not recorded in the cloud's store")
			}

			assertSpanTree(t, sent.Trace, d, sent.Stats, tc.cold, tc.wantInside)
			assertCostMatchesMeter(t, sent.Trace, cloud.Book, before, after)

			// The send's view is the store's latest trace, and the root
			// spans the whole send.
			last, ok := cloud.Tracer.Last()
			if !ok || last != sent.Trace {
				t.Fatal("the send's trace is not the store's latest")
			}
			if last.Name() != "chat-send" || !last.End().Equal(sent.At) {
				t.Errorf("stored trace = %q ending %v, want %q ending %v",
					last.Name(), last.End(), "chat-send", sent.At)
			}
		})
	}
}

// children lists g's child segments in creation order.
func children(tr trace.TraceView, g trace.SegmentView) []trace.SegmentView {
	var out []trace.SegmentView
	for _, c := range tr.Segments() {
		if p, ok := c.Parent(); ok && p == g {
			out = append(out, c)
		}
	}
	return out
}

// assertSpanTree checks the client → gateway → lambda → hops chain.
func assertSpanTree(t *testing.T, tr trace.TraceView, d *core.Deployment, stats lambda.InvocationStats, wantCold bool, wantInside []spanID) {
	t.Helper()
	root := tr.Root()
	if root.Service() != "client" || root.Op() != "chat-send" {
		t.Fatalf("root = %s %s", root.Service(), root.Op())
	}
	if root.Duration() <= 0 {
		t.Fatal("trace has no duration")
	}

	kids := children(tr, root)
	if len(kids) != 1 {
		t.Fatalf("root has %d children, want 1 gateway span", len(kids))
	}
	gw := kids[0]
	if gw.Service() != "gateway" || gw.Op() != d.Endpoint {
		t.Fatalf("first hop = %s %s, want gateway %s", gw.Service(), gw.Op(), d.Endpoint)
	}

	kids = children(tr, gw)
	if len(kids) != 1 {
		t.Fatalf("gateway has %d children, want 1 lambda span", len(kids))
	}
	fn := kids[0]
	if fn.Service() != "lambda" || fn.Op() != d.FnName {
		t.Fatalf("second hop = %s %s, want lambda %s", fn.Service(), fn.Op(), d.FnName)
	}

	// Invocation annotations agree with the returned stats.
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
	for _, c := range children(tr, fn) {
		if c.Op() == "billing-quantum" {
			continue // virtual padding span; presence depends on run time
		}
		got = append(got, spanID{c.Service(), c.Op()})
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
	// The per-segment ledger sums to the same total.
	var sum pricing.Money
	for _, g := range tr.Segments() {
		sum += g.Cost(book)
	}
	if sum != tr.Cost(book) {
		t.Errorf("segment costs sum to %v != trace cost %v", sum, tr.Cost(book))
	}
}
