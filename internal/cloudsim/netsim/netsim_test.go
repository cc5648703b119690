package netsim

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestHopString(t *testing.T) {
	if HopKMS.String() != "kms" {
		t.Fatalf("HopKMS.String() = %q", HopKMS.String())
	}
	if got := Hop(99).String(); got != "hop(99)" {
		t.Fatalf("unknown hop String() = %q", got)
	}
}

func TestSampleDeterministicAcrossModels(t *testing.T) {
	a := NewDefaultModel()
	b := NewDefaultModel()
	for i := 0; i < 100; i++ {
		if av, bv := a.Sample(HopS3), b.Sample(HopS3); av != bv {
			t.Fatalf("sample %d diverged: %v vs %v (same seed)", i, av, bv)
		}
	}
}

func TestSampleMedianCalibrated(t *testing.T) {
	m := NewDefaultModel()
	const n = 20001
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = m.Sample(HopS3)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	med := samples[n/2]
	want := DefaultParams().Hops[HopS3].Median
	// Log-normal sampling around the median: the empirical median must
	// land within 5% of the configured one.
	if ratio := float64(med) / float64(want); ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("empirical median %v vs configured %v (ratio %.3f)", med, want, ratio)
	}
}

func TestSampleZeroSigmaIsExact(t *testing.T) {
	p := DefaultParams()
	p.Hops[HopKMS].Sigma = 0
	m := NewModel(p)
	for i := 0; i < 10; i++ {
		if got := m.Sample(HopKMS); got != p.Hops[HopKMS].Median {
			t.Fatalf("zero-sigma sample = %v, want %v", got, p.Hops[HopKMS].Median)
		}
	}
}

func TestSampleInvalidHop(t *testing.T) {
	m := NewDefaultModel()
	if m.Sample(Hop(-1)) != 0 || m.Sample(Hop(1000)) != 0 {
		t.Fatal("invalid hop must sample 0")
	}
}

func TestMemoryLatencyFactor(t *testing.T) {
	tests := []struct {
		mem  int
		want float64
	}{
		{448, 1.0}, // the reference allocation
		{128, 3.5},
		{224, 2.0},
		{896, 0.75},  // clamped low
		{64, 4.0},    // clamped high
		{0, 3.5},     // zero memory defaults to 128
		{1536, 0.75}, // clamp
	}
	for _, tt := range tests {
		if got := MemoryLatencyFactor(tt.mem); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("MemoryLatencyFactor(%d) = %v, want %v", tt.mem, got, tt.want)
		}
	}
}

func TestBandwidthProportionalToMemory(t *testing.T) {
	if b1536 := BandwidthMBps(1536); math.Abs(b1536-35.0) > 1e-9 {
		t.Fatalf("BandwidthMBps(1536) = %v, want 35", b1536)
	}
	b128 := BandwidthMBps(128)
	b448 := BandwidthMBps(448)
	if ratio := b448 / b128; math.Abs(ratio-448.0/128.0) > 1e-9 {
		t.Fatalf("bandwidth not proportional: 448/128 ratio = %v", ratio)
	}
	if BandwidthMBps(0) != BandwidthMBps(128) {
		t.Fatal("zero memory must default to the 128 MB floor")
	}
}

func TestTransferTime(t *testing.T) {
	if TransferTime(0, 10) != 0 {
		t.Fatal("zero bytes must take zero time")
	}
	if TransferTime(100, 0) != 0 {
		t.Fatal("zero bandwidth means ample: zero time")
	}
	// 10 MB at 10 MB/s = 1 s.
	if got := TransferTime(10e6, 10); got != time.Second {
		t.Fatalf("TransferTime(10MB, 10MB/s) = %v, want 1s", got)
	}
}

// s3Latency composes one object-store call's latency the way the
// request plane does: the hop's base latency scaled by the memory
// factor, plus the payload's transfer time at the memory-proportional
// bandwidth.
func s3Latency(base time.Duration, memMB int, payloadBytes int64) time.Duration {
	scaled := time.Duration(float64(base) * MemoryLatencyFactor(memMB))
	return scaled + TransferTime(payloadBytes, BandwidthMBps(memMB))
}

func TestS3LatencyMemoryCoupling(t *testing.T) {
	// The paper's key empirical observation: S3 calls from a 128 MB
	// function are significantly slower than from 448 MB.
	base := DefaultParams().Hops[HopS3].Median
	small := s3Latency(base, 128, 1024)
	ref := s3Latency(base, 448, 1024)
	if float64(small) < 2.5*float64(ref) {
		t.Fatalf("128 MB S3 latency %v not significantly slower than 448 MB %v", small, ref)
	}
}

func TestS3LatencyPayloadCost(t *testing.T) {
	base := DefaultParams().Hops[HopS3].Median
	tiny := s3Latency(base, 448, 0)
	big := s3Latency(base, 448, 50<<20) // 50 MB payload
	if big <= tiny {
		t.Fatalf("payload transfer cost missing: %v <= %v", big, tiny)
	}
}

func TestInterRegion(t *testing.T) {
	// A failover forwards the invocation across regions and pays one
	// sampled inter-region hop.
	if NewDefaultModel().Sample(HopInterRegion) == 0 {
		t.Fatal("cross-region hop must cost latency")
	}
}

func TestOutages(t *testing.T) {
	m := NewDefaultModel()
	if !m.RegionUp("us-west-2") {
		t.Fatal("regions start healthy")
	}
	// Clearing before any outage was set touches no outage map.
	m.SetOutage("eu-west-1", false)
	if !m.RegionUp("eu-west-1") {
		t.Fatal("clearing a healthy region marked it down")
	}
	m.SetOutage("us-west-2", true)
	if m.RegionUp("us-west-2") {
		t.Fatal("outage not recorded")
	}
	m.SetOutage("us-west-2", false)
	if !m.RegionUp("us-west-2") {
		t.Fatal("recovery not recorded")
	}
}

func TestConcurrentSampling(t *testing.T) {
	m := NewDefaultModel()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				m.Sample(HopS3)
				m.RegionUp("us-west-2")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
