package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/apps/email"
	"repro/internal/apps/filetransfer"
	"repro/internal/apps/iot"
	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/trace"
	"repro/internal/core"
	"repro/internal/fleet/telemetry"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// operator is every account's user name. The DIY operator *is* the
// account; a constant name keeps resource names (buckets, functions,
// queues) — and so ledgers — a function of the workload alone, which is
// what makes "two identically-seeded accounts produce bit-identical
// ledgers" a meaningful isolation property.
const operator = "op"

// accountSim is one account's private world: its cloud, installed
// deployment and payload stream. It is read-only after newAccountSim;
// replay keeps every per-arrival tally in its own locals.
type accountSim struct {
	cfg     *Config
	profile workload.AccountProfile

	cloud   *core.Cloud
	dep     *core.Deployment
	payload *rand.Rand

	// chat peers (KindChat only).
	owner, peer *chat.Client
}

// simulateAccount builds one account's private world — cloud wired
// from the shared immutable bundle, deployment — replays its span, and
// returns the outcome, the account's gap-band counts, and latencies
// with the account's request latencies appended.
//
// The pprof phase labels and metrics.HostNow marks attribute the
// account's host-clock cost to its two halves: NewCloud + app install
// versus the request-plane replay — the split the ROADMAP's ~100
// µs/request headroom question needs. HostNow is zero (and the labels
// free) in simulated runs with no injected host clock.
func simulateAccount(cfg *Config, shared *sharedState, profile workload.AccountProfile, latencies []time.Duration) (accountOutcome, gapCounts, []time.Duration) {
	var a *accountSim
	var err error
	installStart := metrics.HostNow()
	pprof.Do(context.Background(), pprof.Labels("phase", "install"), func(context.Context) {
		a, err = newAccountSim(cfg, shared, profile)
	})
	if err != nil {
		return accountOutcome{err: fmt.Errorf("account %06d (%v): %w", profile.Index, profile.Kind, err)}, gapCounts{}, latencies
	}
	drainStart := metrics.HostNow()
	var o accountOutcome
	var gaps gapCounts
	pprof.Do(context.Background(), pprof.Labels("phase", "drain"), func(context.Context) {
		o, gaps, latencies = a.replay(latencies)
	})
	drainEnd := metrics.HostNow()
	if cfg.Tower != nil && o.err == nil {
		// Reduce the account's CloudWatch series (and, when traced, its
		// sampled traces) while the stores are hot, then recycle the
		// metrics column chunks (below) — the fleet builds and drops one
		// store per account. Pooling that storage beats append-grown
		// slices on BenchmarkFleetTelemetry: those lost 6 of 8
		// alternating ns/request pairs (roughly +5–15%) even though they
		// cut live heap (see metrics/pool.go).
		o.tower = cfg.Tower.ObserveAccount(a.cloud.Metrics, a.cloud.Tracer, cfg.Book, telemetry.AccountObservation{
			Index:            profile.Index,
			Kind:             profile.Kind.String(),
			Requests:         o.stats.Requests,
			ColdStarts:       o.stats.ColdStarts,
			MonthlyCostNanos: o.stats.MonthlyCost.Nanodollars(),
			InstallHostNs:    drainStart - installStart,
			DrainHostNs:      drainEnd - drainStart,
		})
	}
	a.cloud.Metrics.Recycle()
	return o, gaps, latencies
}

// sharedState is what every account of a fleet run aliases and none
// writes: the provider bundle and one install plan per app kind, built
// once by newSharedState and immutable after.
type sharedState struct {
	cloud *core.Shared
	plans [workload.NumKinds]*core.InstallPlan
}

// newSharedState builds the provider bundle and plans each kind's app
// for the operator.
func newSharedState(book *pricing.PriceBook) (*sharedState, error) {
	cs, err := core.NewShared(book)
	if err != nil {
		return nil, err
	}
	s := &sharedState{cloud: cs}
	for k := range s.plans {
		if s.plans[k], err = core.NewInstallPlan(operator, kindApp(workload.AppKind(k))); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// kindApp is the app an account of kind k installs, configured as every
// account of that kind runs it.
func kindApp(k workload.AppKind) core.App {
	switch k {
	case workload.KindChat:
		return chat.App{Members: []string{"owner", "peer"}, MemoryMB: 448}
	case workload.KindEmail:
		return email.App{}
	case workload.KindFiledrop:
		return filetransfer.App{}
	default:
		return iot.App{AlertRules: map[string]float64{"temperature_c": 60}}
	}
}

// newAccountSim wires the account: per-account netsim and payload
// streams derived from the account's seed partition, and the app
// installation (its kind's plan applied to the account's cloud) +
// warmup.
func newAccountSim(cfg *Config, shared *sharedState, profile workload.AccountProfile) (*accountSim, error) {
	if profile.Kind < 0 || profile.Kind >= workload.NumKinds {
		return nil, fmt.Errorf("unknown app kind %d", profile.Kind)
	}
	params := netsim.DefaultParams()
	params.Seed = workload.Substream(profile.Seed, "netsim")
	// With tracing on, each account gets an X-Ray-sim store whose
	// head sampler draws from its own "trace" seed partition — two
	// identically-seeded accounts keep identical trace sets.
	var sampling *trace.SamplerConfig
	if cfg.Trace {
		sampling = &trace.SamplerConfig{Seed: workload.Substream(profile.Seed, "trace")}
	}
	cloud, err := core.NewCloud(core.CloudOptions{
		Name:      fmt.Sprintf("fleet-%06d", profile.Index),
		Shared:    shared.cloud,
		NetParams: &params,
		// With a control tower attached, each account publishes its
		// CloudWatch plane series for the cross-account rollups. The
		// interceptor is read-only over the request path, so enabling it
		// never moves a ledger. Logging stays off either way: the fleet
		// reads no logs, and ingest would dominate the span's cost.
		DisableObservability: cfg.Tower == nil,
		DisableLogging:       true,
		DisableTracing:       !cfg.Trace,
		TraceSampling:        sampling,
	})
	if err != nil {
		return nil, err
	}
	d, err := shared.plans[profile.Kind].Apply(cloud)
	if err != nil {
		return nil, err
	}
	a := &accountSim{
		cfg:     cfg,
		profile: profile,
		cloud:   cloud,
		dep:     d,
		payload: workload.NewRand(workload.Substream(profile.Seed, "payload")),
	}

	switch profile.Kind {
	case workload.KindChat:
		a.owner = chat.NewClient(d, "owner", "laptop")
		a.peer = chat.NewClient(d, "peer", "phone")
		if _, err := a.owner.Session(); err != nil {
			return nil, err
		}
		if _, err := a.peer.Session(); err != nil {
			return nil, err
		}
	case workload.KindIoT:
		dev, _ := json.Marshal(iot.Device{Name: "sensor", Kind: "thermo"})
		if err := a.invokeOK("register", dev); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// invokeOK sends one op and verifies the app accepted it.
func (a *accountSim) invokeOK(op string, body []byte) error {
	ctx := a.dep.ClientContext()
	resp, _, err := a.dep.Invoke(ctx, op, body)
	if err != nil {
		return err
	}
	if resp.Status != 200 {
		return fmt.Errorf("op %s: status %d: %s", op, resp.Status, resp.Body)
	}
	return nil
}

// replay serves the account's Poisson arrivals in order, each at its
// own instant on the cloud's clock, until the span ends or a request
// fails; then it moves the clock to the horizon, prices the span at
// list price, and extrapolates to the month. It appends each request's
// latency to latencies and counts it in its gap band.
func (a *accountSim) replay(latencies []time.Duration) (accountOutcome, gapCounts, []time.Duration) {
	var o accountOutcome
	var gaps gapCounts
	// The warmup (installs, sessions, device registration) ran at
	// Epoch; the first arrival's inter-request gap measures from here.
	last := a.cloud.Clock.Now()
	arrivals := workload.NewPoisson(workload.Substream(a.profile.Seed, "arrivals"), a.profile.RequestsPerDay, last)
	end := clock.Epoch.Add(a.cfg.Span)
	for at := arrivals.Next(); at.Before(end); at = arrivals.Next() {
		a.cloud.Clock.Set(at)
		now := a.cloud.Clock.Now()
		cold, latency, err := a.request(now, o.stats.Requests)
		if err != nil {
			return accountOutcome{err: fmt.Errorf("account %06d (%v): %w", a.profile.Index, a.profile.Kind, err)}, gaps, latencies
		}
		b := bucketFor(now.Sub(last))
		o.stats.Requests++
		gaps[b].requests++
		if cold {
			o.stats.ColdStarts++
			gaps[b].cold++
		}
		latencies = append(latencies, latency)
		last = now
	}
	a.cloud.Clock.Set(end)

	var span pricing.Money
	for _, u := range a.cloud.Meter.Snapshot() {
		span += a.cfg.Book.ListPrice(u)
	}
	o.stats.Index = a.profile.Index
	o.stats.Kind = a.profile.Kind
	o.stats.MonthlyCost = span.MulFloat(float64(month) / float64(a.cfg.Span))
	if a.cfg.CaptureLedgers {
		o.stats.Ledger = renderLedger(a.cloud.Meter)
	}
	return o, gaps, latencies
}

// request serves arrival n (0-based) at now for the account's app kind,
// reporting whether it hit a cold container and its end-to-end latency.
func (a *accountSim) request(now time.Time, n int) (cold bool, latency time.Duration, err error) {
	switch a.profile.Kind {
	case workload.KindChat:
		return a.chatRequest(now, n)
	case workload.KindEmail:
		return a.emailRequest(now, n)
	case workload.KindFiledrop:
		return a.filedropRequest(now, n)
	default:
		return a.iotRequest(now, n)
	}
}

// chatRequest is the Table 3 flow at fleet scale: owner sends, peer's
// outstanding long poll delivers, E2E latency runs from send initiation
// to decrypted delivery.
func (a *accountSim) chatRequest(now time.Time, n int) (bool, time.Duration, error) {
	sent, err := a.owner.SendTraced(a.body())
	if err != nil {
		return false, 0, fmt.Errorf("chat send %d: %w", n, err)
	}
	pollCtx := a.peer.PollContext(now)
	msgs, err := a.peer.Receive(pollCtx, 20*time.Second)
	if err != nil {
		return false, 0, fmt.Errorf("chat receive %d: %w", n, err)
	}
	if len(msgs) != 1 {
		return false, 0, fmt.Errorf("chat receive %d: got %d messages, want 1", n, len(msgs))
	}
	return sent.Stats.ColdStart, pollCtx.Cursor.Now().Sub(now), nil
}

// emailRequest delivers one inbound message through the SES trigger.
// Deliver does not surface InvocationStats, so cold starts come from
// the function's platform counters.
func (a *accountSim) emailRequest(now time.Time, n int) (bool, time.Duration, error) {
	raw := fmt.Sprintf("From: friend@example.org\r\nSubject: note %d\r\n\r\n%s", n, a.body())
	_, coldBefore := a.cloud.Lambda.Stats(a.dep.FnName)
	ctx, tr := a.dep.TracedContext("email-inbound")
	err := a.cloud.SES.Deliver(ctx, "friend@example.org", operator+"@"+email.MailDomain, []byte(raw))
	tr.Finish(ctx.Now())
	if err != nil {
		return false, 0, fmt.Errorf("email inbound %d: %w", n, err)
	}
	_, coldAfter := a.cloud.Lambda.Stats(a.dep.FnName)
	return coldAfter > coldBefore, ctx.Cursor.Now().Sub(now), nil
}

// filedropRequest uploads one file and verifies the offer was accepted.
func (a *accountSim) filedropRequest(now time.Time, n int) (bool, time.Duration, error) {
	req, err := json.Marshal(filetransfer.UploadRequest{
		Name: fmt.Sprintf("drop-%06d", n),
		To:   "peer",
		Data: []byte(a.body()),
	})
	if err != nil {
		return false, 0, err
	}
	ctx, tr := a.dep.TracedContext("filedrop-upload")
	resp, stats, err := a.dep.Invoke(ctx, "upload", req)
	tr.Finish(ctx.Now())
	if err != nil {
		return false, 0, fmt.Errorf("filedrop upload %d: %w", n, err)
	}
	if resp.Status != 200 {
		return false, 0, fmt.Errorf("filedrop upload %d: status %d: %s", n, resp.Status, resp.Body)
	}
	return stats.ColdStart, ctx.Cursor.Now().Sub(now), nil
}

// iotRequest alternates device telemetry reports with an occasional
// dashboard read — the §6.1 controller workload.
func (a *accountSim) iotRequest(now time.Time, n int) (bool, time.Duration, error) {
	op, body := "report", []byte(nil)
	if n%12 == 11 {
		op = "dashboard"
	} else {
		b, err := json.Marshal(iot.Report{
			Device:  "sensor",
			Metrics: map[string]float64{"temperature_c": 20 + 30*a.payload.Float64()},
		})
		if err != nil {
			return false, 0, err
		}
		body = b
	}
	ctx, tr := a.dep.TracedContext("iot-" + op)
	resp, stats, err := a.dep.Invoke(ctx, op, body)
	tr.Finish(ctx.Now())
	if err != nil {
		return false, 0, fmt.Errorf("iot %s %d: %w", op, n, err)
	}
	if resp.Status != 200 {
		return false, 0, fmt.Errorf("iot %s %d: status %d: %s", op, n, resp.Status, resp.Body)
	}
	return stats.ColdStart, ctx.Cursor.Now().Sub(now), nil
}

// body draws a payload whose length varies around the profile's mean
// from the account's payload stream.
func (a *accountSim) body() string {
	n := a.profile.BodyBytes/2 + a.payload.Intn(a.profile.BodyBytes)
	return strings.Repeat("x", n)
}

// renderLedger formats a meter snapshot as one line per usage
// dimension — the bit-identical comparison form the isolation and
// parity tests diff.
func renderLedger(m *pricing.Meter) string {
	var sb strings.Builder
	for _, u := range m.Snapshot() {
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%.9f\n", u.Kind, u.Resource, u.App, u.Quantity)
	}
	return sb.String()
}
