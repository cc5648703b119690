package trace

import (
	"testing"
	"time"
)

// decideSeq replays one arrival sequence through a store and returns
// the boolean keep/drop decisions in order.
func decideSeq(s *Store, service, op string, arrivals []time.Time) []bool {
	out := make([]bool, len(arrivals))
	for i, at := range arrivals {
		out[i] = s.Decide(service, op, at)
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
	a := decideSeq(NewStore(&SamplerConfig{Seed: 42}), "client", "op-chat", arrivals)
	b := decideSeq(NewStore(&SamplerConfig{Seed: 42}), "client", "op-chat", arrivals)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identically-seeded samplers", i)
		}
	}
	// A different seed draws a different coin stream. The reservoir
	// keeps the first arrival of every second regardless of seed, so
	// compare the whole sequence and require at least one divergence.
	c := decideSeq(NewStore(&SamplerConfig{Seed: 43}), "client", "op-chat", arrivals)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical decision sequences over 500 arrivals")
	}
}

// TestSamplerReservoirRefill pins the virtual-second reservoir: with
// rate 0 the first Reservoir arrivals of each second are kept, every
// later arrival in that second is dropped, and crossing a second
// boundary refills the reservoir.
func TestSamplerReservoirRefill(t *testing.T) {
	s := NewStore(&SamplerConfig{Seed: 1, Rules: []Rule{{Reservoir: 2, Rate: 0}}})
	sec := func(n int, off time.Duration) time.Time { return t0.Add(time.Duration(n)*time.Second + off) }
	checks := []struct {
		at   time.Time
		want bool
	}{
		{sec(0, 0), true},                     // reservoir slot 1
		{sec(0, 100*time.Millisecond), true},  // reservoir slot 2
		{sec(0, 200*time.Millisecond), false}, // reservoir exhausted
		{sec(0, 900*time.Millisecond), false},
		{sec(1, 0), true}, // next virtual second: refilled
		{sec(1, time.Millisecond), true},
		{sec(1, 2*time.Millisecond), false},
		{sec(5, 0), true}, // gaps refill too
	}
	for i, c := range checks {
		if got := s.Decide("svc", "op", c.at); got != c.want {
			t.Errorf("decision %d at %v = %v, want %v", i, c.at, got, c.want)
		}
	}
	st := s.Stats()
	if st.Decided != int64(len(checks)) || st.Kept != 5 {
		t.Errorf("stats = %+v, want 8 decided / 5 kept", st)
	}
}

// TestSamplerRateEdges pins the 0% and 100% rate edges: rate 0 keeps
// only the reservoir, rate 1 keeps everything past it.
func TestSamplerRateEdges(t *testing.T) {
	// 20 arrivals inside one virtual second.
	arrivals := make([]time.Time, 20)
	for i := range arrivals {
		arrivals[i] = t0.Add(time.Duration(i) * 10 * time.Millisecond)
	}
	none := decideSeq(NewStore(&SamplerConfig{Rules: []Rule{{Reservoir: 1, Rate: 0}}}), "s", "o", arrivals)
	all := decideSeq(NewStore(&SamplerConfig{Rules: []Rule{{Reservoir: 1, Rate: 1}}}), "s", "o", arrivals)
	for i := range arrivals {
		if wantNone := i == 0; none[i] != wantNone {
			t.Errorf("rate-0 decision %d = %v, want %v", i, none[i], wantNone)
		}
		if !all[i] {
			t.Errorf("rate-1 decision %d dropped", i)
		}
	}
	// A mid rate keeps strictly between the two over enough draws.
	long := make([]time.Time, 400)
	for i := range long {
		long[i] = t0.Add(time.Duration(i) * 2 * time.Millisecond) // one virtual second
	}
	mid := decideSeq(NewStore(&SamplerConfig{Seed: 9, Rules: []Rule{{Reservoir: 1, Rate: 0.5}}}), "s", "o", long)
	kept := 0
	for _, k := range mid {
		if k {
			kept++
		}
	}
	if kept <= 1 || kept >= len(long) {
		t.Errorf("rate-0.5 kept %d of %d", kept, len(long))
	}
}

// TestSamplerRuleMatching pins rule dispatch: first match wins, empty
// fields are wildcards, and a request matching no rule is dropped.
func TestSamplerRuleMatching(t *testing.T) {
	s := NewStore(&SamplerConfig{Rules: []Rule{
		{Service: "client", Op: "op-iot", Reservoir: 0, Rate: 0}, // drop iot outright
		{Service: "client", Reservoir: 1000, Rate: 1},            // keep the rest of client
	}})
	if s.Decide("client", "op-iot", t0) {
		t.Error("op-iot matched the wrong rule (first match must win)")
	}
	if !s.Decide("client", "op-chat", t0) {
		t.Error("op-chat should fall through to the wildcard-op rule")
	}
	if s.Decide("gateway", "op-chat", t0) {
		t.Error("a request matching no rule must be dropped")
	}
	st := s.Stats()
	if st.Decided != 3 || st.Kept != 1 {
		t.Errorf("stats = %+v, want 3 decided / 1 kept", st)
	}
}

// TestSamplerDefault pins the no-config defaults: a nil SamplerConfig
// keeps everything (the single-account default), and an empty rule
// list means X-Ray's 2017 default of 1/s reservoir + 5%.
func TestSamplerDefault(t *testing.T) {
	keepAll := NewStore(nil)
	for i := 0; i < 50; i++ {
		if !keepAll.Decide("any", "thing", t0.Add(time.Duration(i)*time.Millisecond)) {
			t.Fatal("nil-config store dropped a trace")
		}
	}

	// Empty rules = DefaultRule. 1000 arrivals spread over 10 virtual
	// seconds: the reservoir keeps exactly 10 (one per second) and the
	// 5% coin keeps roughly 5% of the remaining 990.
	def := NewStore(&SamplerConfig{Seed: 7})
	kept := 0
	for i := 0; i < 1000; i++ {
		if def.Decide("client", "op-chat", t0.Add(time.Duration(i)*10*time.Millisecond)) {
			kept++
		}
	}
	if kept < 30 || kept > 130 {
		t.Errorf("default rule kept %d of 1000, want ~10 + 5%% of 990", kept)
	}
	if r := DefaultRule(); r.Reservoir != 1 || r.Rate != 0.05 {
		t.Errorf("DefaultRule = %+v", r)
	}
}

// TestSamplerIndependentRuleStreams: two rules with identical match
// patterns still draw independent coin streams (the rule index is
// folded into the seed), so reordering unrelated rules cannot silently
// correlate their decisions.
func TestSamplerIndependentRuleStreams(t *testing.T) {
	arrivals := make([]time.Time, 300)
	for i := range arrivals {
		arrivals[i] = t0.Add(time.Duration(i) * time.Millisecond)
	}
	// Same pattern, same rate, different rule position.
	first := decideSeq(NewStore(&SamplerConfig{Seed: 5, Rules: []Rule{
		{Service: "a", Reservoir: 0, Rate: 0.5},
	}}), "a", "x", arrivals)
	second := decideSeq(NewStore(&SamplerConfig{Seed: 5, Rules: []Rule{
		{Service: "zzz", Reservoir: 0, Rate: 0}, // never matches "a"
		{Service: "a", Reservoir: 0, Rate: 0.5},
	}}), "a", "x", arrivals)
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("rule position did not perturb the coin stream (index not folded into seed)")
	}
}
