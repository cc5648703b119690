package trace

import "time"

// Rule configures head-based sampling for requests whose root span
// matches (Service, Op); an empty field matches anything. The shape
// mirrors X-Ray's: every virtual second a reservoir of Reservoir
// traces is kept outright, then Rate of the overflow is kept by a
// deterministic per-rule coin.
type Rule struct {
	Service   string
	Op        string
	Reservoir int     // traces kept per virtual second before Rate applies
	Rate      float64 // fraction of post-reservoir traces kept (0 none, 1 all)
}

// DefaultRule is X-Ray's 2017 default: one trace per second plus 5%
// of additional requests.
func DefaultRule() Rule { return Rule{Reservoir: 1, Rate: 0.05} }

// SamplerConfig seeds a deterministic head-based sampler. Rules are
// consulted in order and the first match decides; a request matching
// no rule is dropped. An empty rule list means DefaultRule for every
// request. Fleet accounts seed this from their workload substream
// partition (workload.Substream(seed, "trace")) so identical fleet
// seeds replay identical kept-trace sets at any GOMAXPROCS.
type SamplerConfig struct {
	Seed  int64
	Rules []Rule
}

// sampler is the compiled, stateful form of a SamplerConfig, guarded
// by its Store's lock. A nil sampler keeps every trace — the
// single-account default, where the operator wants each request
// explained.
type sampler struct {
	rules []ruleState
}

// ruleState carries one rule's reservoir fill for the current virtual
// second and its counter-based coin stream. The coin is
// splitmix64(seed+n) — a pure function of the rule's substream seed
// and how many post-reservoir draws preceded it — so decisions depend
// only on the deterministic arrival sequence, never on host
// scheduling.
type ruleState struct {
	rule   Rule
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

// ruleTag hashes a rule's match pattern (FNV-1a over "service/op") so
// the per-rule coin streams of one sampler are mutually independent.
func ruleTag(service, op string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(service); i++ {
		h = (h ^ uint64(service[i])) * prime
	}
	h = (h ^ uint64('/')) * prime
	for i := 0; i < len(op); i++ {
		h = (h ^ uint64(op[i])) * prime
	}
	return h
}

func newSampler(cfg *SamplerConfig) *sampler {
	if cfg == nil {
		return nil
	}
	rules := cfg.Rules
	if len(rules) == 0 {
		rules = []Rule{DefaultRule()}
	}
	s := &sampler{rules: make([]ruleState, len(rules))}
	for i, r := range rules {
		s.rules[i] = ruleState{
			rule: r,
			// Fold the rule index in so two identically-patterned rules
			// still draw from independent streams.
			seed: splitmix64(uint64(cfg.Seed) ^ ruleTag(r.Service, r.Op) ^ splitmix64(uint64(i))),
		}
	}
	return s
}

// decideLocked reports whether a request named (service, op) arriving
// at the given virtual instant is kept. Nil samplers keep everything.
// Caller holds the owning Store's mu.
func (s *sampler) decideLocked(service, op string, at time.Time) bool {
	if s == nil {
		return true
	}
	for i := range s.rules {
		st := &s.rules[i]
		r := st.rule
		if r.Service != "" && r.Service != service {
			continue
		}
		if r.Op != "" && r.Op != op {
			continue
		}
		if sec := at.Unix(); !st.primed || sec != st.second {
			st.primed, st.second, st.taken = true, sec, 0
		}
		if st.taken < r.Reservoir {
			st.taken++
			return true
		}
		if r.Rate <= 0 {
			return false
		}
		if r.Rate >= 1 {
			return true
		}
		u := float64(splitmix64(st.seed+st.n)>>11) / (1 << 53)
		st.n++
		return u < r.Rate
	}
	return false
}
