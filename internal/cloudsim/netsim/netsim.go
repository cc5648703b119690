// Package netsim models the network behaviour of the simulated cloud:
// per-hop latency distributions, the coupling between a serverless
// function's memory allocation and its I/O bandwidth, inter-region
// latency, and region fault injection.
//
// All sampling is driven by a seeded generator so experiments are
// reproducible run to run.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/workload"
)

// Hop identifies one network/service hop whose latency the model samples.
type Hop int

// The hops that occur in a DIY request flow (paper Figure 1 plus the
// SQS long-poll delivery path of the §6.2 chat prototype).
const (
	// HopClientGateway is the client's HTTPS request reaching the
	// platform's front-end endpoint.
	HopClientGateway Hop = iota
	// HopGatewayDispatch is the platform routing an event to a warm
	// function container.
	HopGatewayDispatch
	// HopColdStart is the extra delay of provisioning a fresh container.
	HopColdStart
	// HopKMS is one API call to the key management service.
	HopKMS
	// HopS3 is the base latency of one object-store API call,
	// excluding payload transfer time.
	HopS3
	// HopSQSSend is posting one message to a queue.
	HopSQSSend
	// HopSQSDeliver is a queued message becoming visible to an
	// outstanding long poll.
	HopSQSDeliver
	// HopSQSPoll is the overhead of initiating a receive call.
	HopSQSPoll
	// HopSES is one call to the email send service.
	HopSES
	// HopInterRegion is one cross-region forwarding step.
	HopInterRegion
	numHops
)

var hopNames = [...]string{
	HopClientGateway:   "client-gateway",
	HopGatewayDispatch: "gateway-dispatch",
	HopColdStart:       "cold-start",
	HopKMS:             "kms",
	HopS3:              "s3",
	HopSQSSend:         "sqs-send",
	HopSQSDeliver:      "sqs-deliver",
	HopSQSPoll:         "sqs-poll",
	HopSES:             "ses",
	HopInterRegion:     "inter-region",
}

// String returns the hop's name.
func (h Hop) String() string {
	if h < 0 || int(h) >= len(hopNames) {
		return fmt.Sprintf("hop(%d)", int(h))
	}
	return hopNames[h]
}

// HopParams describes one hop's latency distribution: a median and a
// multiplicative jitter fraction. Samples are drawn log-normally around
// the median so the distribution has the heavy right tail real cloud
// RPCs exhibit, while the median stays exactly calibrated.
type HopParams struct {
	Median time.Duration
	// Sigma is the log-normal shape parameter; 0 yields the median
	// deterministically. Typical cloud API calls sit near 0.2–0.4.
	Sigma float64
}

// Params configures a Model.
type Params struct {
	Seed int64
	Hops [numHops]HopParams
}

// DefaultParams returns hop latencies calibrated so the §6.2 chat
// prototype reproduces the paper's Table 3 medians (run 134 ms, billed
// 200 ms, E2E 211 ms) on the simulated us-west-2.
func DefaultParams() Params {
	p := Params{Seed: 1}
	p.Hops[HopClientGateway] = HopParams{Median: 16 * time.Millisecond, Sigma: 0.15}
	p.Hops[HopGatewayDispatch] = HopParams{Median: 9 * time.Millisecond, Sigma: 0.15}
	p.Hops[HopColdStart] = HopParams{Median: 250 * time.Millisecond, Sigma: 0.25}
	p.Hops[HopKMS] = HopParams{Median: 14 * time.Millisecond, Sigma: 0.2}
	p.Hops[HopS3] = HopParams{Median: 44 * time.Millisecond, Sigma: 0.2}
	p.Hops[HopSQSSend] = HopParams{Median: 13 * time.Millisecond, Sigma: 0.2}
	p.Hops[HopSQSDeliver] = HopParams{Median: 36 * time.Millisecond, Sigma: 0.2}
	p.Hops[HopSQSPoll] = HopParams{Median: 8 * time.Millisecond, Sigma: 0.2}
	p.Hops[HopSES] = HopParams{Median: 40 * time.Millisecond, Sigma: 0.2}
	p.Hops[HopInterRegion] = HopParams{Median: 60 * time.Millisecond, Sigma: 0.2}
	return p
}

// Model samples hop latencies and tracks region health. It is safe for
// concurrent use.
type Model struct {
	mu     sync.Mutex
	rng    *rand.Rand
	params Params
	// outages stays nil until the first SetOutage: only failover
	// experiments inject one, and a nil map reads as every region up.
	outages map[string]bool
}

// NewModel returns a model using the given parameters.
func NewModel(p Params) *Model {
	return &Model{
		rng:    workload.NewRand(p.Seed),
		params: p,
	}
}

// NewDefaultModel returns a model with DefaultParams.
func NewDefaultModel() *Model { return NewModel(DefaultParams()) }

// Sample draws one latency for hop h.
func (m *Model) Sample(h Hop) time.Duration {
	if h < 0 || h >= numHops {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sampleLocked(m.params.Hops[h])
}

func (m *Model) sampleLocked(hp HopParams) time.Duration {
	if hp.Median <= 0 {
		return 0
	}
	if hp.Sigma == 0 {
		return hp.Median
	}
	f := math.Exp(hp.Sigma * m.rng.NormFloat64())
	return time.Duration(float64(hp.Median) * f)
}

// RefMemoryMB is the function allocation at which the memory-coupled
// latency factor is 1.0, so a memory-coupled hop's base latency is
// exactly its configured median: the paper's 448 MB prototype.
const RefMemoryMB = 448

// MemoryLatencyFactor reports the multiplicative penalty on per-request
// base latency for a function with memMB of memory relative to
// RefMemoryMB. The factor is clamped to [0.75, 4.0]: more memory than
// the reference helps a little; much less hurts a lot.
func MemoryLatencyFactor(memMB int) float64 {
	if memMB <= 0 {
		memMB = 128
	}
	f := float64(RefMemoryMB) / float64(memMB)
	return math.Min(4.0, math.Max(0.75, f))
}

// BandwidthMBps reports the modelled network bandwidth, in MB/s,
// available to a function with memMB of allocated memory. Calibrated to
// 2017 Lambda measurements: roughly proportional to memory, ~35 MB/s at
// the 1536 MB ceiling.
func BandwidthMBps(memMB int) float64 {
	if memMB <= 0 {
		memMB = 128
	}
	const mbpsPerMB = 35.0 / 1536.0
	return mbpsPerMB * float64(memMB)
}

// TransferTime reports how long a payload of n bytes takes at bw MB/s.
// A zero or negative bandwidth means "ample" and costs no time.
func TransferTime(n int64, bw float64) time.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	seconds := float64(n) / (bw * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// SetOutage marks a region as down (true) or healthy (false).
func (m *Model) SetOutage(region string, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if down {
		if m.outages == nil {
			m.outages = make(map[string]bool)
		}
		m.outages[region] = true
	} else {
		delete(m.outages, region)
	}
}

// RegionUp reports whether a region is currently healthy.
func (m *Model) RegionUp(region string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.outages[region]
}
