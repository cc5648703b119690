package kms

import (
	"testing"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/pricing"
)

// TestDecryptAllocs pins what one Decrypt allocates on an untraced flow
// with the metrics and logs interceptors installed. The plane's
// Request, the call descriptor, its IAM resource and its annotation
// allocate nothing, and neither does the key id read from the blob
// (the provisioned key's own id string is used); the call costs its
// handler state (which holds the aad) and the unwrapped data key.
func TestDecryptAllocs(t *testing.T) {
	f := newFixture(t)
	clk, book := clock.NewVirtual(), pricing.Default2017()
	f.kms.Plane().Use(
		metrics.PlaneInterceptor(metrics.New(), book, clk),
		logs.PlaneInterceptor(logs.New(clk), book, clk),
	)
	ctx := f.ctx()
	_, wrapped, err := f.kms.GenerateDataKey(ctx, "alice-chat")
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := f.kms.Decrypt(ctx, wrapped); err != nil {
			t.Fatal(err)
		}
	})
	if got != 2 {
		t.Errorf("Decrypt: %v allocs per call, want exactly 2", got)
	}
}
