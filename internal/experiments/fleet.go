package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/workload"
)

// FleetReport is the fleet-scale experiment: the paper's "what if a
// meaningful fraction of users ran their own deployment?" premise made
// measurable. It extends Figure 1's single-request story to a
// population — per-account cost percentiles at the fleet tail,
// fleet-wide request latency, and the cold-start fraction as a
// function of inter-request gap, whose knee at the warm-container TTL
// is the serverless-economics argument in one curve.
type FleetReport struct {
	Result *fleet.Result
}

// RunFleet executes a fleet with the given config and wraps the result
// for rendering.
func RunFleet(cfg fleet.Config) (*FleetReport, error) {
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &FleetReport{Result: res}, nil
}

// Render prints the fleet summary. Everything rendered is part of the
// determinism contract — bit-identical across replays at any worker
// count — so check.sh can diff two renders directly. Worker count is
// deliberately absent.
func (r *FleetReport) Render() string {
	res := r.Result
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet: %d accounts, seed %d, span %v, %d shards\n",
		res.Accounts, res.Seed, res.Span, res.Shards)
	if res.ScalingNote != "" {
		fmt.Fprintf(&sb, "  scaling: %s\n", res.ScalingNote)
	}

	mix := make([]string, 0, workload.NumKinds)
	for k := workload.AppKind(0); k < workload.NumKinds; k++ {
		mix = append(mix, fmt.Sprintf("%s=%d", k, res.MixCounts[k]))
	}
	fmt.Fprintf(&sb, "  app mix (simulated accounts): %s\n", strings.Join(mix, " "))

	coldPct := 0.0
	if res.TotalRequests > 0 {
		coldPct = 100 * float64(res.TotalColdStarts) / float64(res.TotalRequests)
	}
	fmt.Fprintf(&sb, "  requests served: %d (cold starts %d, %.1f%%)\n",
		res.TotalRequests, res.TotalColdStarts, coldPct)
	if res.ScaleFactor != 1 {
		fmt.Fprintf(&sb, "  modelled fleet total: ~%.0f requests (×%.1f extrapolation)\n",
			float64(res.TotalRequests)*res.ScaleFactor, res.ScaleFactor)
	}

	fmt.Fprintf(&sb, "  per-account monthly cost: p50 %s  p99 %s  p99.9 %s\n",
		res.CostPercentile(50), res.CostPercentile(99), res.CostPercentile(99.9))
	fmt.Fprintf(&sb, "  request latency:          p50 %v  p99 %v  p99.9 %v\n",
		res.LatencyPercentile(50), res.LatencyPercentile(99), res.LatencyPercentile(99.9))

	sb.WriteString("  cold-start fraction vs inter-request gap (knee = 5m warm-container TTL):\n")
	for _, b := range res.GapBuckets {
		if b.Requests == 0 {
			fmt.Fprintf(&sb, "    %-12s %7d req       —\n", b.Label, 0)
			continue
		}
		fmt.Fprintf(&sb, "    %-12s %7d req  %5.1f%% cold\n",
			b.Label, b.Requests, 100*float64(b.ColdStarts)/float64(b.Requests))
	}
	return sb.String()
}

// RenderAccounts prints one line per simulated account — the long-form
// appendix the fleet golden pins, so a single account drifting by one
// request or one nanodollar breaks parity visibly.
func (r *FleetReport) RenderAccounts() string {
	var sb strings.Builder
	for _, a := range r.Result.PerAccount {
		fmt.Fprintf(&sb, "account %06d %-8s requests=%d cold=%d monthly=%dnd\n",
			a.Index, a.Kind, a.Requests, a.ColdStarts, a.MonthlyCost.Nanodollars())
	}
	return sb.String()
}

// RawFingerprint pins the exact nanosecond latency percentiles and
// per-bucket counts, beyond the rounded rendering.
func (r *FleetReport) RawFingerprint() string {
	res := r.Result
	var sb strings.Builder
	fmt.Fprintf(&sb, "raw: requests=%d cold=%d", res.TotalRequests, res.TotalColdStarts)
	for _, p := range []float64{50, 99, 99.9} {
		fmt.Fprintf(&sb, " costp%v=%dnd latp%v=%dns",
			p, res.CostPercentile(p).Nanodollars(), p, int64(res.LatencyPercentile(p)))
	}
	for _, b := range res.GapBuckets {
		fmt.Fprintf(&sb, " gap[%s]=%d/%d", b.Label, b.ColdStarts, b.Requests)
	}
	sb.WriteString("\n")
	return sb.String()
}
