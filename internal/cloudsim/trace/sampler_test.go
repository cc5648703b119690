package trace

import (
	"slices"
	"testing"
	"time"
)

// decideSeq replays one arrival sequence through a store and returns
// the boolean keep/drop decisions in order.
func decideSeq(s *Store, arrivals []time.Time) []bool {
	out := make([]bool, len(arrivals))
	for i, at := range arrivals {
		out[i] = s.Decide(at)
	}
	return out
}

// TestSamplerDeterministicReplay is the unit form of the fleet's
// replay contract: a sampler's decisions are a pure function of (seed,
// arrival sequence). Per-account decision streams are sequential, so
// identical seeds replaying identical workloads keep identical trace
// sets at any GOMAXPROCS — the fleet golden enforces the end-to-end
// form; this pins the primitive it rests on.
func TestSamplerDeterministicReplay(t *testing.T) {
	arrivals := make([]time.Time, 500)
	for i := range arrivals {
		// Several arrivals per virtual second, uneven spacing.
		arrivals[i] = t0.Add(time.Duration(i) * 237 * time.Millisecond)
	}
	a := decideSeq(NewStore(&SamplerConfig{Seed: 42}), arrivals)
	b := decideSeq(NewStore(&SamplerConfig{Seed: 42}), arrivals)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identically-seeded samplers", i)
		}
	}
	// A different seed draws a different coin stream. The reservoir
	// keeps the first arrival of every second regardless of seed, so
	// compare the whole sequence and require at least one divergence.
	c := decideSeq(NewStore(&SamplerConfig{Seed: 43}), arrivals)
	if slices.Equal(a, c) {
		t.Fatal("seeds 42 and 43 produced identical decision sequences over 500 arrivals")
	}
}

// pinnedArrivals is a fixed arrival sequence of 2,400 requests with
// uneven 5–13 ms gaps, spanning about 21.6 virtual seconds.
func pinnedArrivals() []time.Time {
	arrivals := make([]time.Time, 2400)
	for i := range arrivals {
		arrivals[i] = t0.Add(time.Duration(i*9+(i*i)%5) * time.Millisecond)
	}
	return arrivals
}

// TestSamplerPinnedDecisions pins the kept arrivals of pinnedArrivals
// for three seeds, as captured from the sampler before its rule
// language was removed. Any drift in the coin's seed derivation, the
// reservoir or the 5% rate moves these indices, and with them every
// fleet's kept-trace set.
func TestSamplerPinnedDecisions(t *testing.T) {
	want := map[int64][]int{
		1: { // 132 kept
			0, 4, 14, 32, 37, 58, 82, 104, 110, 111, 134, 182, 197, 222, 274,
			322, 333, 339, 354, 371, 385, 403, 427, 439, 445, 453, 457, 463,
			475, 476, 502, 526, 555, 556, 568, 588, 597, 615, 632, 634, 667,
			671, 682, 685, 734, 753, 778, 817, 834, 849, 859, 864, 889, 935,
			941, 955, 958, 965, 988, 1000, 1003, 1085, 1111, 1121, 1145, 1152,
			1167, 1222, 1223, 1259, 1288, 1299, 1328, 1331, 1333, 1334, 1339,
			1349, 1354, 1368, 1398, 1411, 1445, 1477, 1516, 1522, 1534, 1545,
			1553, 1556, 1561, 1590, 1607, 1626, 1646, 1667, 1685, 1699, 1732,
			1774, 1778, 1779, 1789, 1818, 1874, 1886, 1889, 1929, 1940, 1978,
			1985, 2000, 2008, 2043, 2050, 2081, 2098, 2103, 2111, 2112, 2153,
			2175, 2193, 2207, 2222, 2258, 2289, 2306, 2333, 2363, 2369, 2376,
		},
		7: { // 125 kept
			0, 2, 4, 17, 24, 44, 51, 58, 79, 111, 114, 158, 175, 178, 179,
			222, 267, 299, 304, 315, 333, 351, 381, 386, 406, 445, 496, 505,
			556, 560, 565, 583, 594, 610, 646, 647, 667, 673, 674, 676, 682,
			689, 707, 757, 763, 765, 778, 781, 786, 795, 829, 849, 861, 864,
			881, 889, 901, 982, 988, 1000, 1023, 1045, 1081, 1089, 1108, 1111,
			1161, 1173, 1217, 1222, 1280, 1308, 1333, 1342, 1364, 1366, 1390,
			1401, 1404, 1417, 1422, 1427, 1445, 1471, 1473, 1536, 1545, 1556,
			1586, 1625, 1632, 1644, 1645, 1667, 1675, 1696, 1719, 1727, 1743,
			1778, 1797, 1816, 1825, 1852, 1889, 1917, 1983, 1988, 1993, 2000,
			2038, 2081, 2101, 2111, 2130, 2136, 2139, 2162, 2167, 2170, 2222,
			2246, 2293, 2306, 2333,
		},
		42: { // 137 kept
			0, 37, 63, 71, 79, 89, 110, 111, 121, 134, 186, 203, 208, 219,
			222, 227, 244, 251, 274, 290, 321, 333, 426, 441, 445, 450, 491,
			497, 500, 506, 548, 556, 557, 564, 574, 589, 617, 626, 636, 660,
			667, 687, 729, 756, 763, 778, 782, 865, 889, 912, 931, 971, 1000,
			1002, 1031, 1050, 1084, 1089, 1111, 1112, 1146, 1212, 1222, 1240,
			1249, 1255, 1280, 1294, 1299, 1303, 1333, 1348, 1353, 1385, 1390,
			1399, 1408, 1409, 1418, 1442, 1445, 1448, 1513, 1520, 1556, 1602,
			1605, 1622, 1644, 1649, 1667, 1692, 1733, 1763, 1775, 1776, 1778,
			1779, 1796, 1809, 1834, 1835, 1887, 1889, 1909, 1914, 1920, 1935,
			1936, 1957, 1977, 2000, 2037, 2065, 2077, 2083, 2092, 2096, 2111,
			2129, 2145, 2172, 2176, 2183, 2218, 2222, 2236, 2245, 2251, 2273,
			2282, 2333, 2344, 2365, 2371, 2377, 2385,
		},
	}
	arrivals := pinnedArrivals()
	for _, seed := range []int64{1, 7, 42} {
		var kept []int
		for i, k := range decideSeq(NewStore(&SamplerConfig{Seed: seed}), arrivals) {
			if k {
				kept = append(kept, i)
			}
		}
		if !slices.Equal(kept, want[seed]) {
			t.Errorf("seed %d kept %d arrivals %v, want %d %v", seed, len(kept), kept, len(want[seed]), want[seed])
		}
	}
}

// TestSamplerReservoirRefill pins the virtual-second reservoir: the
// first arrival of every second is kept whatever the seed, crossing a
// second boundary (or a gap of several) refills it, and only the 5%
// coin keeps any later arrival in the same second.
func TestSamplerReservoirRefill(t *testing.T) {
	seconds := []int{0, 1, 2, 5, 9}
	const perSecond = 50
	for _, seed := range []int64{1, 7, 42} {
		s := NewStore(&SamplerConfig{Seed: seed})
		overflowKept := 0
		for _, sec := range seconds {
			for j := 0; j < perSecond; j++ {
				at := t0.Add(time.Duration(sec)*time.Second + time.Duration(j)*10*time.Millisecond)
				kept := s.Decide(at)
				switch {
				case j == 0 && !kept:
					t.Errorf("seed %d: first arrival of second %d dropped", seed, sec)
				case j > 0 && kept:
					overflowKept++
				}
			}
		}
		if overflowKept >= len(seconds)*(perSecond-1)/4 {
			t.Errorf("seed %d kept %d of %d post-reservoir arrivals, want about 5%%", seed, overflowKept, len(seconds)*(perSecond-1))
		}
		st := s.Stats()
		if st.Decided != int64(len(seconds)*perSecond) || st.Kept != int64(len(seconds)+overflowKept) {
			t.Errorf("seed %d stats = %+v, want %d decided / %d kept", seed, st, len(seconds)*perSecond, len(seconds)+overflowKept)
		}
	}
}

// TestSamplerDefault pins the no-config default and the sampled rate:
// a nil SamplerConfig keeps everything (the single-account default),
// and a seeded one keeps X-Ray's 2017 default of 1/s reservoir + 5%.
func TestSamplerDefault(t *testing.T) {
	keepAll := NewStore(nil)
	for i := 0; i < 50; i++ {
		if !keepAll.Decide(t0.Add(time.Duration(i) * time.Millisecond)) {
			t.Fatal("nil-config store dropped a trace")
		}
	}

	// 1000 arrivals spread over 10 virtual seconds: the reservoir keeps
	// exactly 10 (one per second) and the 5% coin keeps roughly 5% of
	// the remaining 990.
	def := NewStore(&SamplerConfig{Seed: 7})
	kept := 0
	for i := 0; i < 1000; i++ {
		if def.Decide(t0.Add(time.Duration(i) * 10 * time.Millisecond)) {
			kept++
		}
	}
	if kept < 30 || kept > 130 {
		t.Errorf("default rule kept %d of 1000, want ~10 + 5%% of 990", kept)
	}
}
