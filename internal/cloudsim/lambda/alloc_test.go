package lambda

import (
	"testing"

	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/pricing"
)

// TestInvokeAllocs pins what one warm invocation allocates on an
// untraced flow with the metrics and logs interceptors installed on the
// platform's plane: the invocation's inputs, function snapshot, Env
// (with its call context and cursor) and results are one object, and
// the plane's Request and the span annotations allocate nothing.
func TestInvokeAllocs(t *testing.T) {
	f := newFixture(t)
	book := pricing.Default2017()
	f.platform.pl.Use(
		metrics.PlaneInterceptor(metrics.New(), book, f.clk),
		logs.PlaneInterceptor(logs.New(f.clk), book, f.clk),
	)
	f.register(t, Function{Name: "nop", MemoryMB: 128, Handler: func(*Env, Event) (Response, error) {
		return Response{Status: 200}, nil
	}})
	ctx := f.ctx()
	got := testing.AllocsPerRun(100, func() {
		if _, _, err := f.platform.Invoke(ctx, "nop", Event{}); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("Invoke: %v allocs per call, want exactly 1", got)
	}
}
