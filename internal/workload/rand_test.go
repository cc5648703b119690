package workload

import (
	"math"
	"math/rand"
	"testing"
)

// drawMix takes the i-th draw of a fixed mix of every rand.Rand method
// the simulator uses and returns its bits, so two generators can be
// compared draw for draw. The methods consume the source differently
// (NormFloat64 and Intn may reject, Perm takes n draws), so a long mix
// reaches register positions in many alignments.
func drawMix(r *rand.Rand, i int) uint64 {
	switch i % 7 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return math.Float64bits(r.NormFloat64())
	case 2:
		return math.Float64bits(r.ExpFloat64())
	case 3:
		return uint64(r.Intn(1000 + i))
	case 4:
		return uint64(r.Int63())
	case 5:
		return r.Uint64()
	default:
		var h uint64
		for _, v := range r.Perm(5 + i%11) {
			h = h*31 + uint64(v)
		}
		return h
	}
}

// sameStream fails t if got and want differ in any of n mixed draws.
func sameStream(t *testing.T, what string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := drawMix(got, i), drawMix(want, i); g != w {
			t.Fatalf("%s: draw %d = %#x, want %#x", what, i, g, w)
		}
	}
}

// randSeeds are the seeds the stdlib's normalisation treats specially,
// plus a fleet's worth of real substream seeds.
func randSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 89482311,
		int32max, -int32max, 1 << 31, 3 * int32max,
		math.MinInt64, math.MaxInt64,
	}
	for i := 0; i < 200; i++ {
		seeds = append(seeds, Substream(AccountSeed(1, i), "payload"))
	}
	return seeds
}

// TestRandMatchesStdlib pins NewRand to math/rand's sequence, across
// draw 273 (where the lazy phase ends) and draw 607 (one full turn of
// the register).
func TestRandMatchesStdlib(t *testing.T) {
	for _, seed := range randSeeds() {
		sameStream(t, "seed", NewRand(seed), rand.New(rand.NewSource(seed)), 2000)
	}
}

// TestRandReseed checks a used source, re-seeded in and past its lazy
// phase, restarts exactly as a fresh one.
func TestRandReseed(t *testing.T) {
	r := NewRand(5)
	for _, used := range []int{0, 100, 273, 700} {
		for i := 0; i < used; i++ {
			drawMix(r, i)
		}
		seed := int64(used) * 7919
		r.Seed(seed)
		sameStream(t, "reseeded", r, rand.New(rand.NewSource(seed)), 2000)
	}
}

// FuzzRandMatchesStdlib compares n mixed draws for arbitrary seeds.
func FuzzRandMatchesStdlib(f *testing.F) {
	for _, seed := range randSeeds()[:12] {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		sameStream(t, "fuzz", NewRand(seed), rand.New(rand.NewSource(seed)), int(n))
	})
}

// TestSeedCollapsesModulo31Bits pins the stdlib behaviour the
// Substream comment documents: seeds are reduced modulo 2³¹−1, so two
// distinct 64-bit seeds congruent modulo it yield one stream.
func TestSeedCollapsesModulo31Bits(t *testing.T) {
	for i := 0; i < 50; i++ {
		s := Substream(AccountSeed(1, i), "profile")
		alias := s + int32max
		if s > 0 {
			alias = s - int32max
		}
		sameStream(t, "alias", NewRand(alias), NewRand(s), 700)
	}
}

var randSink float64

// TestNewRandAllocs pins seeding at two allocations — the source and
// the rand.Rand around it — with no register until draw 273.
func TestNewRandAllocs(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		r := NewRand(seed)
		randSink = r.Float64() + r.Float64() + r.Float64()
	})
	if allocs > 2 {
		t.Fatalf("NewRand + 3 draws = %.1f allocs, want <= 2", allocs)
	}
}

// BenchmarkNewRand sets NewRand beside the stdlib constructor, each
// seeding a stream and taking the few draws a short-lived account does.
func BenchmarkNewRand(b *testing.B) {
	for _, bc := range []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"lazy", NewRand},
		{"stdlib", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := bc.new(int64(i))
				randSink = r.Float64() + r.NormFloat64()
			}
		})
	}
}
