package fleet

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cloudsim/metrics"
	"repro/internal/pricing"
)

// The fleet percentile read must agree exactly with the metrics
// store's nearest-rank reference — one rank formula, two sample types.
// This property test feeds identical random samples to both paths and
// diffs every percentile, fractional ones included; the p=99.9 cases
// are the regression guard for the truncating rankIndex this package
// used to carry.
func TestPercentilesMatchMetricsReference(t *testing.T) {
	ps := []float64{0, 25, 50, 75, 90, 99, 99.9, 100}
	rng := rand.New(rand.NewSource(7))
	epoch := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		moneys := make([]pricing.Money, n)
		durs := make([]time.Duration, n)
		ref := metrics.New()
		for i := 0; i < n; i++ {
			v := rng.Int63n(1_000_000_000)
			moneys[i] = pricing.Money(v)
			durs[i] = time.Duration(v)
			ref.Record("ns", "m", epoch.Add(time.Duration(i)*time.Second), float64(v))
		}
		slices.Sort(moneys)
		slices.Sort(durs)
		for _, p := range ps {
			want := ref.Percentile("ns", "m", time.Time{}, time.Time{}, p)
			if got := percentile(moneys, p); float64(got) != want {
				t.Fatalf("trial %d n=%d: money percentile(p=%v) = %d, metrics reference %v", trial, n, p, got, want)
			}
			if got := percentile(durs, p); float64(got) != want {
				t.Fatalf("trial %d n=%d: duration percentile(p=%v) = %d, metrics reference %v", trial, n, p, got, want)
			}
		}
	}
}

// Edge cases the property loop can't hit: empty and single-sample
// inputs.
func TestPercentileEdgeCases(t *testing.T) {
	if got := percentile([]pricing.Money(nil), 50); got != 0 {
		t.Fatalf("empty money p50 = %v", got)
	}
	if got := percentile([]time.Duration(nil), 99.9); got != 0 {
		t.Fatalf("empty duration p99.9 = %v", got)
	}
	one := []pricing.Money{41}
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := percentile(one, p); got != 41 {
			t.Fatalf("single-sample money p%v = %v, want 41", p, got)
		}
	}
}
