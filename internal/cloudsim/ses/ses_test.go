package ses

import (
	"errors"
	"testing"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

type fixture struct {
	meter    *pricing.Meter
	platform *lambda.Platform
	ses      *Service
	received []lambda.Event
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{meter: pricing.NewMeter()}
	model := netsim.NewDefaultModel()
	f.platform = lambda.New(f.meter, model, clock.NewVirtual(), nil, nil)
	f.ses = New(f.platform, f.meter, model)
	err := f.platform.RegisterFunction(lambda.Function{
		Name: "alice-mail-fn",
		App:  "email",
		Handler: func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
			f.received = append(f.received, ev)
			return lambda.Response{Status: 200}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ses.RegisterInbound("Alice@Example.com", "alice-mail-fn"); err != nil {
		t.Fatal(err)
	}
	return f
}

func ctx() *sim.Context {
	return &sim.Context{App: "email", Cursor: sim.NewCursor(clock.Epoch)}
}

func TestDeliverFiresTrigger(t *testing.T) {
	f := newFixture(t)
	err := f.ses.Deliver(ctx(), "bob@remote.net", "alice@example.com", []byte("Subject: hi\r\n\r\nhello"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.received) != 1 {
		t.Fatalf("received %d events", len(f.received))
	}
	ev := f.received[0]
	if ev.Source != TriggerSource || ev.Attrs["from"] != "bob@remote.net" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestDeliverAddressNormalization(t *testing.T) {
	f := newFixture(t)
	// Registered as Alice@Example.com; delivery with different casing
	// and whitespace must still route.
	if err := f.ses.Deliver(ctx(), "x@y.z", "  ALICE@EXAMPLE.COM ", []byte("m")); err != nil {
		t.Fatal(err)
	}
	if len(f.received) != 1 {
		t.Fatal("normalized address did not route")
	}
}

func TestDeliverNoHook(t *testing.T) {
	f := newFixture(t)
	err := f.ses.Deliver(ctx(), "x@y.z", "nobody@example.com", []byte("m"))
	if !errors.Is(err, ErrNoHook) {
		t.Fatalf("got %v, want ErrNoHook", err)
	}
}

func TestSendMetersPerRecipient(t *testing.T) {
	f := newFixture(t)
	err := f.ses.Send(ctx(), "alice@example.com",
		[]string{"one@remote.net", "two@remote.net", "three@remote.net"}, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.meter.TotalFor(pricing.SESMessages, "email"); got != 3 {
		t.Fatalf("metered %v messages, want 3", got)
	}
	if len(f.ses.Outbox()) != 3 {
		t.Fatalf("outbox has %d, want 3", len(f.ses.Outbox()))
	}
}

func TestSendLocalRecipientTriggersFunction(t *testing.T) {
	f := newFixture(t)
	err := f.ses.Send(ctx(), "bob@remote.net", []string{"alice@example.com"}, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.received) != 1 {
		t.Fatal("local recipient's function not invoked")
	}
	if len(f.ses.Outbox()) != 0 {
		t.Fatal("local delivery leaked to outbox")
	}
}

func TestSendAdvancesCursor(t *testing.T) {
	f := newFixture(t)
	c := ctx()
	f.ses.Send(c, "a@b.c", []string{"x@remote.net"}, []byte("m"))
	if c.Cursor.Elapsed() == 0 {
		t.Fatal("send consumed no simulated time")
	}
}

func TestRegisterInboundUnknownFunction(t *testing.T) {
	f := newFixture(t)
	if err := f.ses.RegisterInbound("x@y.z", "ghost-fn"); !errors.Is(err, lambda.ErrNoSuchFunction) {
		t.Fatalf("got %v, want ErrNoSuchFunction", err)
	}
}
