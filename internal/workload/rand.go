package workload

import "math/rand"

// This file builds every seeded stream the simulator draws from. A
// stream must replay math/rand's exact sequence for its seed — the
// goldens and the benchmark digests pin those draws — but most streams
// are per-account and short-lived: an account may take a handful of
// draws and be discarded. rand.NewSource pays 1,821 division-based LCG
// steps to fill a 607-word register up front; NewRand returns the same
// sequence while seeding in O(1).
//
// The stdlib source is an additive lagged Fibonacci generator over a
// register vec seeded as
//
//	vec0[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// where x[n] = x0·48271ⁿ mod (2³¹−1) is the seeding LCG. Draw k
// (0-based) adds vec[feed] to vec[tap] with feed = 333−k and
// tap = 606−k, and writes the sum back to vec[feed]. Until draw 273 the
// tap reads a word no earlier draw wrote, so draw k < 273 is exactly
// vec0[333−k] + vec0[606−k]: two register words, each three table
// multiplies. Only on draw 273 does the source materialise the register.

const (
	rngLen   = 607 // register length
	rngTap   = 273 // register lag; also the number of lazy draws
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seeding LCG's modulus
	lcgMul   = 48271     // the seeding LCG's multiplier
)

// seedTables are the constants a lazy draw needs. They are derived once
// at package init and never written after.
type seedTables struct {
	// pow[i][j] is 48271^(21+3i+j) mod (2³¹−1), the LCG multiplier
	// taking the seed to the j-th of the three words seeding vec0[i].
	pow [rngLen][3]uint32
	// cooked is math/rand's unexported rngCooked table, recovered from
	// the toolchain's own source (newSeedTables) rather than copied.
	cooked [rngLen]int64
}

var tables = newSeedTables()

// lcgWord is vec0[i] before its rngCooked mask, for seed x0 and the
// LCG powers pow = tables.pow[i].
func lcgWord(x0 uint64, pow [3]uint32) int64 {
	a := x0 * uint64(pow[0]) % int32max
	b := x0 * uint64(pow[1]) % int32max
	c := x0 * uint64(pow[2]) % int32max
	return int64(a<<40 ^ b<<20 ^ c)
}

// newSeedTables derives the LCG power table and recovers rngCooked by
// inverting the first 607 draws of rand.NewSource(1): each draw is a
// sum of two register words (see the file comment), so the initial
// register falls out in three passes, and XORing out seed 1's LCG words
// leaves the cooked mask.
func newSeedTables() (t seedTables) {
	p := uint64(1)
	for n := 1; n <= 20; n++ {
		p = p * lcgMul % int32max
	}
	for i := range t.pow {
		for j := range t.pow[i] {
			p = p * lcgMul % int32max
			t.pow[i][j] = uint32(p)
		}
	}

	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen]int64
	for k := range o {
		o[k] = int64(src.Uint64())
	}
	vec0 := &t.cooked
	// Draws 273..606 tap a word draw k−273 wrote (that draw's output)
	// and feed an untouched initial word.
	for k := rngTap; k < rngLen-rngTap; k++ {
		vec0[rngLen-rngTap-1-k] = o[k] - o[k-rngTap]
	}
	for k := rngLen - rngTap; k < rngLen; k++ {
		vec0[2*rngLen-rngTap-1-k] = o[k] - o[k-rngTap]
	}
	// Draws below 273 sum two initial words, the tap one now known.
	for k := 0; k < rngTap; k++ {
		vec0[rngLen-rngTap-1-k] = o[k] - vec0[rngLen-1-k]
	}
	for i := range t.cooked {
		t.cooked[i] ^= lcgWord(1, t.pow[i])
	}
	return t
}

// NewRand returns a generator whose every draw equals that of
// rand.New(rand.NewSource(seed)), bit for bit, but whose seeding is
// O(1): the 607-word register is only built if the stream outlives 273
// draws. It is the one way simulator code builds a seeded stream.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// lazySource is a rand.Source64 equal to math/rand's for the same seed.
// Like that source it is not safe for concurrent use.
type lazySource struct {
	x0  uint64 // the normalised seed: the LCG's x[0]
	n   int    // draws taken; past rngTap the register holds the state
	reg *register
}

// register is the stdlib source's state, materialised on draw 273.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// Seed resets the stream to seed's sequence, normalising the seed as
// the stdlib does: modulo 2³¹−1, negatives wrapped, and 0 → 89482311.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.n = 0
}

// word returns the initial register word vec0[i].
func (s *lazySource) word(i int) int64 {
	return lcgWord(s.x0, tables.pow[i]) ^ tables.cooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *lazySource) Uint64() uint64 {
	if s.n < rngTap {
		k := s.n
		s.n++
		return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
	}
	if s.n == rngTap {
		s.materialise()
	}
	r := s.reg
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// materialise builds the register as the stdlib's stands after 273
// draws: every initial word, with the lazy draws' feed writes replayed.
// A re-seeded source reuses its register allocation.
func (s *lazySource) materialise() {
	if s.reg == nil {
		s.reg = new(register)
	}
	r := s.reg
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for k := 0; k < rngTap; k++ {
		r.vec[rngLen-rngTap-1-k] += r.vec[rngLen-1-k]
	}
	r.tap, r.feed = rngLen-rngTap, rngLen-2*rngTap
	s.n = rngTap + 1
}
