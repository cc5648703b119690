package sqs

import (
	"testing"

	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/pricing"
)

// TestCallAllocs pins what one call allocates on an untraced flow with
// the metrics and logs interceptors installed. The plane's Request,
// the call descriptor, its IAM resource and its annotations allocate
// nothing: Send costs its handler state, the message id and the stored
// message; Receive its handler state and the delivered slice; Delete
// its handler closure.
func TestCallAllocs(t *testing.T) {
	f := newFixture(t)
	book := pricing.Default2017()
	f.sqs.Plane().Use(
		metrics.PlaneInterceptor(metrics.New(), book, f.clk),
		logs.PlaneInterceptor(logs.New(f.clk), book, f.clk),
	)
	ctx := f.vctx()
	body := []byte("hello")
	const runs = 100
	ids := make([]string, 0, runs+1)
	pin := func(op string, want float64, call func() error) {
		t.Helper()
		got := testing.AllocsPerRun(runs, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%s: %v allocs per call, want exactly %v", op, got, want)
		}
	}
	pin("Send", 3, func() error {
		id, err := f.sqs.Send(ctx, "alice-inbox", body)
		ids = append(ids, id)
		return err
	})
	pin("Receive", 2, func() error {
		msgs, err := f.sqs.Receive(ctx, "alice-inbox", 1, 0)
		if err == nil && len(msgs) != 1 {
			t.Fatalf("received %d messages, want 1", len(msgs))
		}
		return err
	})
	pin("Delete", 1, func() error {
		id := ids[0]
		ids = ids[1:]
		return f.sqs.Delete(ctx, "alice-inbox", id)
	})
	if n := f.sqs.Len("alice-inbox"); n != 0 {
		t.Errorf("%d messages left after deleting every one", n)
	}
}
