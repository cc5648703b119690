package trace

import "time"

// The sampler applies X-Ray's 2017 default rule to every request:
// each virtual second a reservoir of one trace is kept outright, then
// 5% of the overflow is kept by a deterministic coin.
const (
	reservoir  = 1    // traces kept per virtual second before the rate applies
	sampleRate = 0.05 // fraction of post-reservoir traces kept
)

// SamplerConfig seeds a deterministic head-based sampler. Fleet
// accounts seed it from their workload substream partition
// (workload.Substream(seed, "trace")) so identical fleet seeds replay
// identical kept-trace sets at any GOMAXPROCS.
type SamplerConfig struct {
	Seed int64
}

// sampler is the stateful form of a SamplerConfig, guarded by its
// Store's lock. A nil sampler keeps every trace — the single-account
// default, where the operator wants each request explained.
//
// It carries the reservoir fill for the current virtual second and a
// counter-based coin stream. The coin is splitmix64(seed+n) — a pure
// function of the sampler's seed and how many post-reservoir draws
// preceded it — so decisions depend only on the deterministic arrival
// sequence, never on host scheduling.
type sampler struct {
	seed   uint64
	n      uint64
	second int64 // unix second the reservoir count belongs to
	taken  int
	primed bool // second is valid (distinguishes from a real second 0)
}

// splitmix64 is the splitmix64 output finalizer, the same avalanche
// bijection the workload generator's Substream machinery uses; copied
// here so the cloudsim layer stays free of generator-layer imports.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedSalt is folded into every sampler seed: the FNV-1a hash of "/"
// (0xaf63a24c860189fe) XOR splitmix64(0) (0xe220a8397b1dcdaf). That is
// the salt of a first sampling rule matching any service and op, so
// every seed keeps the trace set it always kept
// (TestSamplerPinnedDecisions).
const seedSalt = 0x4d430a75fd1c4451

func newSampler(cfg *SamplerConfig) *sampler {
	if cfg == nil {
		return nil
	}
	return &sampler{seed: splitmix64(uint64(cfg.Seed) ^ seedSalt)}
}

// decideLocked reports whether a request arriving at the given virtual
// instant is kept. Nil samplers keep everything. Caller holds the
// owning Store's mu.
func (s *sampler) decideLocked(at time.Time) bool {
	if s == nil {
		return true
	}
	if sec := at.Unix(); !s.primed || sec != s.second {
		s.primed, s.second, s.taken = true, sec, 0
	}
	if s.taken < reservoir {
		s.taken++
		return true
	}
	u := float64(splitmix64(s.seed+s.n)>>11) / (1 << 53)
	s.n++
	return u < sampleRate
}
