package trace

import (
	"testing"
	"time"

	"repro/internal/pricing"
)

// benchTrace builds one chat-shaped trace (client → gateway → lambda →
// {kms, s3}) starting at the given instant and finishes it, which
// folds it into s.
func benchTrace(s *Store, start time.Time) {
	tr := New(s, "chat-send", start)
	gw := tr.Root().StartChild("gateway", "/u/chat", start.Add(time.Millisecond))
	fn := gw.StartChild("lambda", "u-chat", start.Add(2*time.Millisecond))
	fn.Annotate("cold_start", "false")
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1})
	kms := fn.StartChild("kms", "kms:Decrypt", start.Add(3*time.Millisecond))
	kms.AddUsage(pricing.Usage{Kind: pricing.KMSRequests, Quantity: 1})
	kms.Finish(start.Add(5 * time.Millisecond))
	s3 := fn.StartChild("s3", "s3:PutObject", start.Add(6*time.Millisecond))
	s3.AddUsage(pricing.Usage{Kind: pricing.S3PutRequests, Quantity: 1})
	s3.Finish(start.Add(40 * time.Millisecond))
	fn.Finish(start.Add(120 * time.Millisecond))
	gw.Finish(start.Add(130 * time.Millisecond))
	tr.Finish(start.Add(140 * time.Millisecond))
}

// BenchmarkTraceRecord prices the store's publish path: one sampling
// decision, one five-span trace built, and its columnar fold when the
// root finishes. This is the per-request cost a traced account adds,
// gated in BENCH_cloudsim.json.
func BenchmarkTraceRecord(b *testing.B) {
	s := NewStore(nil)
	at := t0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bound the columns: restart the store every ~100k folds so the
		// benchmark measures steady-state publication, not the memory of
		// an unboundedly growing run.
		if i%100_000 == 0 && i > 0 {
			b.StopTimer()
			s = NewStore(nil)
			b.StartTimer()
		}
		at = at.Add(40 * time.Second)
		if s.Decide(at) {
			benchTrace(s, at)
		}
	}
}

// BenchmarkServiceMap prices the analytics scan: deriving the service
// graph (RED+cost per node and edge) over a 1024-trace store.
func BenchmarkServiceMap(b *testing.B) {
	s := NewStore(nil)
	at := t0
	for i := 0; i < 1024; i++ {
		at = at.Add(40 * time.Second)
		benchTrace(s, at)
	}
	book := pricing.Default2017()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := s.ServiceMap(book, time.Time{}, time.Time{})
		if m.Traces != 1024 {
			b.Fatalf("map saw %d traces", m.Traces)
		}
	}
}
