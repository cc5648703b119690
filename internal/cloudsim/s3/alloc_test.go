package s3

import (
	"testing"

	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/pricing"
)

// TestCallAllocs pins what one call allocates on an untraced flow with
// the metrics and logs interceptors installed. The plane's Request,
// the call descriptor, its IAM resource and its annotations allocate
// nothing, so Put costs its handler closure and the stored Object, and
// Get the one struct that holds its handler state and the copy it
// returns.
func TestCallAllocs(t *testing.T) {
	f := newFixture(t)
	book := pricing.Default2017()
	f.s3.Plane().Use(
		metrics.PlaneInterceptor(metrics.New(), book, f.clk),
		logs.PlaneInterceptor(logs.New(f.clk), book, f.clk),
	)
	ctx := f.ctx()
	data := []byte("ciphertext bytes")
	for _, c := range []struct {
		op   string
		want float64
		call func() error
	}{
		{"Put", 2, func() error { return f.s3.Put(ctx, "alice-chat", "room/1", data) }},
		{"Get", 1, func() error { _, err := f.s3.Get(ctx, "alice-chat", "room/1"); return err }},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocs per call, want exactly %v", c.op, got, c.want)
		}
	}
}
