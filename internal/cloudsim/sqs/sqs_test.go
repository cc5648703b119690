package sqs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

type fixture struct {
	iam   *iam.Service
	meter *pricing.Meter
	sqs   *Service
	clk   *clock.Virtual
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{iam: iam.New(), meter: pricing.NewMeter(), clk: clock.NewVirtual()}
	f.sqs = New(f.iam, f.meter, netsim.NewDefaultModel(), f.clk)
	if err := f.sqs.CreateQueue("alice-inbox"); err != nil {
		t.Fatal(err)
	}
	err := f.iam.PutRole(&iam.Role{
		Name: "chat-fn",
		Policies: []iam.Policy{{
			Name: "queue-access",
			Statements: []iam.Statement{
				iam.AllowStatement([]string{"sqs:*"}, []string{"queue/alice-inbox"}),
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) vctx() *sim.Context {
	return &sim.Context{Principal: "chat-fn", App: "chat", Cursor: sim.NewCursor(clock.Epoch)}
}

// wctx is a context with no cursor.
func (f *fixture) wctx() *sim.Context {
	return &sim.Context{Principal: "chat-fn", App: "chat"}
}

func TestSendReceiveVirtual(t *testing.T) {
	f := newFixture(t)
	sender := f.vctx()
	id, err := f.sqs.Send(sender, "alice-inbox", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty message id")
	}

	receiver := f.vctx()
	msgs, err := f.sqs.Receive(receiver, "alice-inbox", 10, MaxWait)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Body) != "hello" {
		t.Fatalf("Receive = %v", msgs)
	}
	if receiver.Cursor.Elapsed() == 0 {
		t.Fatal("receive consumed no simulated time")
	}
	// Delivery must not have charged the receiver the full 20 s wait:
	// the message was already there.
	if receiver.Cursor.Elapsed() > time.Second {
		t.Fatalf("delivery of a waiting message took %v", receiver.Cursor.Elapsed())
	}
}

func TestReceiveEmptyConsumesFullWait(t *testing.T) {
	f := newFixture(t)
	ctx := f.vctx()
	msgs, err := f.sqs.Receive(ctx, "alice-inbox", 1, MaxWait)
	if err != nil {
		t.Fatal(err)
	}
	if msgs != nil {
		t.Fatalf("got %v from empty queue", msgs)
	}
	if ctx.Cursor.Elapsed() < MaxWait {
		t.Fatalf("empty long poll elapsed %v, want >= %v", ctx.Cursor.Elapsed(), MaxWait)
	}
}

func TestReceiveFutureMessageWithinWindow(t *testing.T) {
	// A message sent 5 simulated seconds after the poll begins must be
	// delivered by a 20 s long poll at roughly its arrival time.
	f := newFixture(t)
	sender := f.vctx()
	sender.Cursor.Advance(5 * time.Second)
	if _, err := f.sqs.Send(sender, "alice-inbox", []byte("later")); err != nil {
		t.Fatal(err)
	}

	receiver := f.vctx() // poll starts at epoch
	msgs, err := f.sqs.Receive(receiver, "alice-inbox", 1, MaxWait)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d messages", len(msgs))
	}
	el := receiver.Cursor.Elapsed()
	if el < 5*time.Second || el > 6*time.Second {
		t.Fatalf("delivery at %v, want just after the 5s arrival", el)
	}
}

func TestReceiveMessageBeyondWindow(t *testing.T) {
	f := newFixture(t)
	sender := f.vctx()
	sender.Cursor.Advance(25 * time.Second) // beyond the 20 s window
	f.sqs.Send(sender, "alice-inbox", []byte("too late"))

	receiver := f.vctx()
	msgs, err := f.sqs.Receive(receiver, "alice-inbox", 1, MaxWait)
	if err != nil {
		t.Fatal(err)
	}
	if msgs != nil {
		t.Fatalf("received a message outside the poll window: %v", msgs)
	}
}

func TestVisibilityTimeout(t *testing.T) {
	f := newFixture(t)
	f.sqs.Send(f.vctx(), "alice-inbox", []byte("x"))

	r1 := f.vctx()
	msgs, _ := f.sqs.Receive(r1, "alice-inbox", 1, time.Second)
	if len(msgs) != 1 {
		t.Fatal("first receive failed")
	}
	// A second receiver polling shortly after sees nothing: in flight.
	r2 := f.vctx()
	again, _ := f.sqs.Receive(r2, "alice-inbox", 1, time.Second)
	if len(again) != 0 {
		t.Fatal("in-flight message visible to second receiver")
	}
	// After the visibility timeout it reappears (at-least-once).
	r3 := f.vctx()
	r3.Cursor.Advance(DefaultVisibility + time.Minute)
	reappeared, _ := f.sqs.Receive(r3, "alice-inbox", 1, time.Second)
	if len(reappeared) != 1 {
		t.Fatal("message did not reappear after visibility timeout")
	}
}

func TestDeleteMessage(t *testing.T) {
	f := newFixture(t)
	id, _ := f.sqs.Send(f.vctx(), "alice-inbox", []byte("x"))
	if err := f.sqs.Delete(f.vctx(), "alice-inbox", id); err != nil {
		t.Fatal(err)
	}
	if f.sqs.Len("alice-inbox") != 0 {
		t.Fatal("message survived delete")
	}
	// Unknown id is a no-op.
	if err := f.sqs.Delete(f.vctx(), "alice-inbox", "m-999"); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMessages(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 5; i++ {
		f.sqs.Send(f.vctx(), "alice-inbox", []byte("x"))
	}
	msgs, _ := f.sqs.Receive(f.vctx(), "alice-inbox", 3, time.Second)
	if len(msgs) != 3 {
		t.Fatalf("Receive(max=3) returned %d", len(msgs))
	}
	// max <= 0 defaults to 1.
	msgs, _ = f.sqs.Receive(f.vctx(), "alice-inbox", 0, time.Second)
	if len(msgs) != 1 {
		t.Fatalf("Receive(max=0) returned %d", len(msgs))
	}
}

func TestWaitClamping(t *testing.T) {
	f := newFixture(t)
	ctx := f.vctx()
	// Waits beyond the SQS maximum are clamped to 20 s.
	f.sqs.Receive(ctx, "alice-inbox", 1, time.Hour)
	if el := ctx.Cursor.Elapsed(); el > MaxWait+time.Second {
		t.Fatalf("wait not clamped: elapsed %v", el)
	}
	// Negative waits behave as immediate polls.
	ctx2 := f.vctx()
	if _, err := f.sqs.Receive(ctx2, "alice-inbox", 1, -time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestIAMDenied(t *testing.T) {
	f := newFixture(t)
	evil := &sim.Context{Principal: "mallory", Cursor: sim.NewCursor(clock.Epoch)}
	if _, err := f.sqs.Send(evil, "alice-inbox", []byte("spam")); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("send: got %v, want ErrDenied", err)
	}
	if _, err := f.sqs.Receive(evil, "alice-inbox", 1, 0); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("receive: got %v, want ErrDenied", err)
	}
}

func TestQueueLifecycle(t *testing.T) {
	f := newFixture(t)
	if err := f.sqs.CreateQueue("alice-inbox"); !errors.Is(err, ErrQueueExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := f.sqs.CreateQueue(""); err == nil {
		t.Fatal("empty queue name accepted")
	}
	if err := f.sqs.DeleteQueue("alice-inbox"); err != nil {
		t.Fatal(err)
	}
	if f.sqs.QueueExists("alice-inbox") {
		t.Fatal("queue survived delete")
	}
	if err := f.sqs.DeleteQueue("alice-inbox"); !errors.Is(err, ErrNoSuchQueue) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestRequestsMetered(t *testing.T) {
	f := newFixture(t)
	f.sqs.Send(f.vctx(), "alice-inbox", []byte("x"))
	f.sqs.Receive(f.vctx(), "alice-inbox", 1, 0)
	if got := f.meter.TotalFor(pricing.SQSRequests, "chat"); got != 2 {
		t.Fatalf("metered = %v, want 2", got)
	}
}

func TestCursorlessReceiveImmediate(t *testing.T) {
	f := newFixture(t)
	f.sqs.Send(f.wctx(), "alice-inbox", []byte("x"))
	got, err := f.sqs.Receive(f.wctx(), "alice-inbox", 1, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("immediate receive: %v, %v", got, err)
	}
}

func TestCursorlessReceiveEmptyReturnsAtOnce(t *testing.T) {
	// A caller without a cursor polls on a fresh cursor at the service
	// clock's now: an empty long poll resolves on that throwaway
	// timeline, returns nothing, and leaves the service clock alone.
	f := newFixture(t)
	start := f.clk.Now()
	got, err := f.sqs.Receive(f.wctx(), "alice-inbox", 1, MaxWait)
	if err != nil || got != nil {
		t.Fatalf("empty cursorless receive: %v, %v", got, err)
	}
	if now := f.clk.Now(); !now.Equal(start) {
		t.Fatalf("service clock moved from %v to %v", start, now)
	}
}

func TestConcurrentSendReceive(t *testing.T) {
	f := newFixture(t)
	const n = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			f.sqs.Send(f.wctx(), "alice-inbox", []byte("m"))
		}
	}()
	received := 0
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(5 * time.Second)
		for received < n && time.Now().Before(deadline) {
			msgs, err := f.sqs.Receive(f.wctx(), "alice-inbox", 10, 100*time.Millisecond)
			if err != nil {
				return
			}
			for _, m := range msgs {
				f.sqs.Delete(f.wctx(), "alice-inbox", m.ID)
				received++
			}
		}
	}()
	wg.Wait()
	if received != n {
		t.Fatalf("received %d of %d", received, n)
	}
}

func TestDeliveryOrderPreserved(t *testing.T) {
	// Messages sent in cursor order arrive in that order within one
	// receive batch.
	f := newFixture(t)
	sender := f.vctx()
	for i := 0; i < 8; i++ {
		sender.Cursor.Advance(time.Second)
		if _, err := f.sqs.Send(sender, "alice-inbox", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	receiver := f.vctx()
	receiver.Cursor.Advance(time.Minute)
	msgs, err := f.sqs.Receive(receiver, "alice-inbox", 10, time.Second)
	if err != nil || len(msgs) != 8 {
		t.Fatalf("received %d: %v", len(msgs), err)
	}
	for i, m := range msgs {
		if m.Body[0] != byte('a'+i) {
			t.Fatalf("order broken at %d: %q", i, m.Body)
		}
	}
}

func TestAtLeastOnceProperty(t *testing.T) {
	// Property: an undeleted message is always redelivered after its
	// visibility timeout, for any receive pattern.
	f := newFixture(t)
	id, _ := f.sqs.Send(f.vctx(), "alice-inbox", []byte("sticky"))
	for round := 0; round < 5; round++ {
		ctx := f.vctx()
		ctx.Cursor.Advance(time.Duration(round+1) * (DefaultVisibility + time.Minute))
		msgs, err := f.sqs.Receive(ctx, "alice-inbox", 1, time.Second)
		if err != nil || len(msgs) != 1 || msgs[0].ID != id {
			t.Fatalf("round %d: %v %v", round, err, msgs)
		}
	}
	// Deleting ends the cycle.
	f.sqs.Delete(f.vctx(), "alice-inbox", id)
	ctx := f.vctx()
	ctx.Cursor.Advance(100 * DefaultVisibility)
	if msgs, _ := f.sqs.Receive(ctx, "alice-inbox", 1, time.Second); len(msgs) != 0 {
		t.Fatal("deleted message redelivered")
	}
}
