// Conformance suite for the request plane: every public service
// operation registered in the plane's op registry is driven through a
// live service wiring and checked for the pipeline invariants —
// exactly one span under the trace root, ErrDenied with no state
// change for denied principals, and request-fee metering on both the
// success and the denial path. A registry entry without a
// scenario (or vice versa) fails the suite, so a service cannot add an
// op that silently skips the plane.
package plane_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/dynamo"
	"repro/internal/cloudsim/gateway"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/kms"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/ses"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/sqs"
	"repro/internal/cloudsim/trace"
	"repro/internal/pricing"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// world is one fully-wired simulated cloud with seeded state for every
// service op: a bucket with an object, a table with an item, a queue,
// a key with a wrapped blob, and a function behind an endpoint and an
// SES hook.
type world struct {
	iam    *iam.Service
	meter  *pricing.Meter
	s3     *s3.Service
	kms    *kms.Service
	dynamo *dynamo.Service
	sqs    *sqs.Service
	lambda *lambda.Platform
	ses    *ses.Service
	gw     *gateway.Service

	token   string // presigned GET capability for b/o
	wrapped []byte // data key wrapped under key k
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{iam: iam.New(), meter: pricing.NewMeter()}
	model := netsim.NewDefaultModel()
	clk := clock.NewVirtual()
	w.s3 = s3.New(w.iam, w.meter, model, clk)
	w.kms = kms.New(w.iam, w.meter, model, clk, nil)
	w.dynamo = dynamo.New(w.iam, w.meter, model, clk)
	w.sqs = sqs.New(w.iam, w.meter, model, clk)
	w.lambda = lambda.New(w.meter, model, clk, nil, nil)
	w.ses = ses.New(w.lambda, w.meter, model)
	w.gw = gateway.New(w.lambda, w.meter, model, clk)

	err := w.iam.PutRole(&iam.Role{
		Name: "fn",
		Policies: []iam.Policy{{
			Name:       "all",
			Statements: []iam.Statement{iam.AllowStatement([]string{"*"}, []string{"*"})},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup := &sim.Context{Principal: "fn", Cursor: sim.NewCursor(t0)}

	if err := w.s3.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := w.s3.Put(setup, "b", "o", []byte("object")); err != nil {
		t.Fatal(err)
	}
	if w.token, err = w.s3.Presign("fn", "b", "o", t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := w.dynamo.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := w.dynamo.Put(setup, "t", "k1", []byte("item")); err != nil {
		t.Fatal(err)
	}
	if err := w.sqs.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if err := w.kms.CreateKey("k", false); err != nil {
		t.Fatal(err)
	}
	if _, w.wrapped, err = w.kms.GenerateDataKey(setup, "k"); err != nil {
		t.Fatal(err)
	}
	err = w.lambda.RegisterFunction(lambda.Function{
		Name: "fn1",
		Handler: func(env *lambda.Env, event lambda.Event) (lambda.Response, error) {
			return lambda.Response{Body: []byte("ok")}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.gw.RegisterEndpoint("/ep", "fn1", gateway.Limit{}); err != nil {
		t.Fatal(err)
	}
	if err := w.ses.RegisterInbound("a@example.com", "fn1"); err != nil {
		t.Fatal(err)
	}
	return w
}

// scenario drives one registered op and declares its conformance
// expectations.
type scenario struct {
	invoke func(w *world, ctx *sim.Context) error
	// fee is the op's request-fee kind, metered on success and on
	// denial alike ("" for ops with no per-request fee).
	fee pricing.Kind
	// unchanged probes, after a denied call, that the op mutated no
	// state (nil when the op is read-only or has nothing observable).
	unchanged func(w *world) error
}

var scenarios = map[string]scenario{
	"s3.Put": {
		invoke: func(w *world, ctx *sim.Context) error { return w.s3.Put(ctx, "b", "new", []byte("x")) },
		fee:    pricing.S3PutRequests,
		unchanged: func(w *world) error {
			if n := w.s3.StorageBytes("b"); n != int64(len("object")) {
				return fmt.Errorf("bucket grew to %d bytes after denied Put", n)
			}
			return nil
		},
	},
	"s3.Get": {
		invoke: func(w *world, ctx *sim.Context) error { _, err := w.s3.Get(ctx, "b", "o"); return err },
		fee:    pricing.S3GetRequests,
	},
	"s3.Delete": {
		invoke: func(w *world, ctx *sim.Context) error { return w.s3.Delete(ctx, "b", "o") },
		fee:    pricing.S3PutRequests,
		unchanged: func(w *world) error {
			if n := w.s3.StorageBytes("b"); n != int64(len("object")) {
				return fmt.Errorf("bucket shrank to %d bytes after denied Delete", n)
			}
			return nil
		},
	},
	"s3.List": {
		invoke: func(w *world, ctx *sim.Context) error { _, err := w.s3.List(ctx, "b", ""); return err },
		fee:    pricing.S3GetRequests,
	},
	"s3.GetPresigned": {
		invoke: func(w *world, ctx *sim.Context) error { _, err := w.s3.GetPresigned(ctx, w.token); return err },
		fee:    pricing.S3GetRequests,
	},
	"kms.GenerateDataKey": {
		invoke: func(w *world, ctx *sim.Context) error { _, _, err := w.kms.GenerateDataKey(ctx, "k"); return err },
		fee:    pricing.KMSRequests,
	},
	"kms.Decrypt": {
		invoke: func(w *world, ctx *sim.Context) error { _, err := w.kms.Decrypt(ctx, w.wrapped); return err },
		fee:    pricing.KMSRequests,
	},
	"kms.ImportWrapped": {
		invoke: func(w *world, ctx *sim.Context) error {
			_, err := w.kms.ImportWrapped(ctx, []byte("0123456789abcdef0123456789abcdef"), "k")
			return err
		},
		fee: pricing.KMSRequests,
	},
	"dynamo.Get": {
		invoke: func(w *world, ctx *sim.Context) error { _, err := w.dynamo.Get(ctx, "t", "k1"); return err },
		fee:    pricing.DynamoRCU,
	},
	"dynamo.Put": {
		invoke: func(w *world, ctx *sim.Context) error { return w.dynamo.Put(ctx, "t", "k2", []byte("x")) },
		fee:    pricing.DynamoWCU,
		unchanged: func(w *world) error {
			if n := w.dynamo.StorageBytes("t"); n != int64(len("item")) {
				return fmt.Errorf("table at %d bytes after denied Put", n)
			}
			return nil
		},
	},
	"dynamo.PutIfVersion": {
		invoke: func(w *world, ctx *sim.Context) error {
			return w.dynamo.PutIfVersion(ctx, "t", "k2", []byte("x"), 0)
		},
		fee: pricing.DynamoWCU,
		unchanged: func(w *world) error {
			if n := w.dynamo.StorageBytes("t"); n != int64(len("item")) {
				return fmt.Errorf("table at %d bytes after denied PutIfVersion", n)
			}
			return nil
		},
	},
	"dynamo.Query": {
		invoke: func(w *world, ctx *sim.Context) error { _, err := w.dynamo.Query(ctx, "t", ""); return err },
		fee:    pricing.DynamoRCU,
	},
	"sqs.Send": {
		invoke: func(w *world, ctx *sim.Context) error { _, err := w.sqs.Send(ctx, "q", []byte("m")); return err },
		fee:    pricing.SQSRequests,
		unchanged: func(w *world) error {
			if n := w.sqs.Len("q"); n != 0 {
				return fmt.Errorf("queue has %d messages after denied Send", n)
			}
			return nil
		},
	},
	"sqs.Receive": {
		invoke: func(w *world, ctx *sim.Context) error { _, err := w.sqs.Receive(ctx, "q", 1, 0); return err },
		fee:    pricing.SQSRequests,
	},
	"sqs.Delete": {
		invoke: func(w *world, ctx *sim.Context) error { return w.sqs.Delete(ctx, "q", "m-1") },
		fee:    pricing.SQSRequests,
	},
	"ses.Send": {
		invoke: func(w *world, ctx *sim.Context) error {
			return w.ses.Send(ctx, "me@example.com", []string{"out@example.net"}, []byte("mail"))
		},
		fee: pricing.SESMessages,
	},
	"ses.Deliver": {
		invoke: func(w *world, ctx *sim.Context) error {
			return w.ses.Deliver(ctx, "out@example.net", "a@example.com", []byte("mail"))
		},
	},
	"gateway.Handle": {
		invoke: func(w *world, ctx *sim.Context) error {
			_, _, err := w.gw.Handle(ctx, gateway.Request{Path: "/ep", Op: "ping"})
			return err
		},
	},
	"lambda.Invoke": {
		invoke: func(w *world, ctx *sim.Context) error {
			_, _, err := w.lambda.Invoke(ctx, "fn1", lambda.Event{Op: "ping"})
			return err
		},
		fee: pricing.LambdaRequests,
	},
	"lambda.InvokeTrigger": {
		invoke: func(w *world, ctx *sim.Context) error {
			_, _, err := w.lambda.InvokeTrigger(ctx, "ses", "a@example.com", lambda.Event{Op: "ping"})
			return err
		},
		fee: pricing.LambdaRequests,
	},
}

// TestRegistryCoverage pins the registry and the scenario table to each
// other: an op without a scenario, or a scenario for an unregistered
// op, is a conformance gap.
func TestRegistryCoverage(t *testing.T) {
	registered := make(map[string]plane.Op)
	for _, op := range plane.Ops() {
		key := op.Service + "." + op.Method
		if op.Service == "ztest" {
			continue // plane's own registry unit test
		}
		registered[key] = op
		if _, ok := scenarios[key]; !ok {
			t.Errorf("registered op %s has no conformance scenario", key)
		}
	}
	for key := range scenarios {
		if _, ok := registered[key]; !ok {
			t.Errorf("scenario %s covers no registered op", key)
		}
	}
	// Pinned so an op cannot leave the registry and the table together
	// unnoticed: adding or deleting an op updates this count.
	if len(registered) != 20 {
		t.Errorf("%d registered ops, want 20", len(registered))
	}
}

// TestConformance drives every registered op through the pipeline
// invariants.
func TestConformance(t *testing.T) {
	for _, op := range plane.Ops() {
		if op.Service == "ztest" {
			continue
		}
		op := op
		key := op.Service + "." + op.Method
		sc, ok := scenarios[key]
		if !ok {
			continue // TestRegistryCoverage reports the gap
		}

		t.Run(key+"/traced", func(t *testing.T) {
			w := newWorld(t)
			ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(t0)}
			tr := ctx.StartTrace(trace.NewStore(nil), key)
			before := w.meter.Snapshot()
			if err := sc.invoke(w, ctx); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			tv, _ := tr.Finish(ctx.Now())
			// Render draws the root's direct children with an
			// unindented branch; deeper spans are indented under them.
			got := 0
			for _, line := range strings.Split(tv.Render(pricing.Default2017()), "\n") {
				if strings.HasPrefix(line, "├─ ") || strings.HasPrefix(line, "└─ ") {
					got++
				}
			}
			if got != 1 {
				t.Errorf("%s opened %d root spans, want 1", key, got)
			}
			if sc.fee != "" && quantity(w.meter.Snapshot(), sc.fee) <= quantity(before, sc.fee) {
				t.Errorf("%s metered no %s on success", key, sc.fee)
			}
		})

		if op.Action == "" {
			continue // not IAM-authenticated; no denial path
		}
		t.Run(key+"/denied", func(t *testing.T) {
			w := newWorld(t)
			ctx := &sim.Context{Principal: "nobody", Cursor: sim.NewCursor(t0)}
			before := quantity(w.meter.Snapshot(), sc.fee)
			err := sc.invoke(w, ctx)
			if !errors.Is(err, iam.ErrDenied) {
				t.Fatalf("%s with unknown principal: err = %v, want ErrDenied", key, err)
			}
			if sc.fee != "" && quantity(w.meter.Snapshot(), sc.fee) <= before {
				t.Errorf("%s metered no %s on denial; AWS bills denied calls", key, sc.fee)
			}
			if sc.unchanged != nil {
				if perr := sc.unchanged(w); perr != nil {
					t.Errorf("%s mutated state before authorization: %v", key, perr)
				}
			}
		})
	}
}

func quantity(snapshot []pricing.Usage, k pricing.Kind) float64 {
	var total float64
	for _, u := range snapshot {
		if u.Kind == k {
			total += u.Quantity
		}
	}
	return total
}
