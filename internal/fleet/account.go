package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/apps/email"
	"repro/internal/apps/filetransfer"
	"repro/internal/apps/iot"
	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/sim"
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

// accountSim drives one account's deployment through its simulated
// span as a chain of timeline events: each arrival serves a request
// and schedules the next. Its mutable fields are written only under mu
// (or from *Locked methods whose callers hold it): the struct is
// shard-private today, but the scheduler's workers are exactly the
// concurrency seam the shardsafe analyzer guards, and the lock keeps
// that guarantee mechanical rather than situational.
type accountSim struct {
	mu      sync.Mutex
	cfg     *Config
	profile workload.AccountProfile

	tl    *clock.Timeline
	cloud *core.Cloud
	dep   *core.Deployment
	end   time.Time

	arrivals *workload.Poisson
	payload  *rand.Rand
	lastAt   time.Time

	// chat peers (KindChat only).
	owner, peer *chat.Client

	stats     AccountStats
	latencies []time.Duration
	samples   []reqSample
	err       error
}

// simulateAccount builds one account's private world — timeline, cloud
// wired from the shared immutable bundle, deployment — replays its
// span, and returns the outcome. slot is the account's position in the
// simulated sub-fleet (its outcome-slice index).
//
// The pprof phase labels and metrics.HostNow marks attribute the
// account's host-clock cost to its two halves: NewCloud + app install
// versus the request-plane replay — the split the ROADMAP's ~100
// µs/request headroom question needs. HostNow is zero (and the labels
// free) in simulated runs with no injected host clock.
func simulateAccount(cfg *Config, shared *core.Shared, profile workload.AccountProfile, slot int) accountOutcome {
	var a *accountSim
	var err error
	installStart := metrics.HostNow()
	pprof.Do(context.Background(), pprof.Labels("phase", "install"), func(context.Context) {
		a, err = newAccountSim(cfg, shared, profile)
	})
	if err != nil {
		return accountOutcome{err: fmt.Errorf("account %06d (%v): %w", profile.Index, profile.Kind, err)}
	}
	drainStart := metrics.HostNow()
	var events int
	pprof.Do(context.Background(), pprof.Labels("phase", "drain"), func(context.Context) {
		a.scheduleNext()
		events = a.tl.RunUntil(a.end)
	})
	drainEnd := metrics.HostNow()
	o := a.outcome()
	o.events = events
	if cfg.Tower != nil && o.err == nil {
		// Reduce the account's CloudWatch series while the store is hot,
		// then recycle its column chunks (below) — the fleet
		// builds and drops one store per account. Pooling that storage
		// beats append-grown slices on BenchmarkFleetTelemetry: those
		// lost 6 of 8 alternating ns/request pairs (roughly +5–15%)
		// even though they cut live heap (see metrics/pool.go).
		cfg.Tower.ObserveAccount(a.cloud.Metrics, telemetry.AccountObservation{
			Slot:             slot,
			Index:            profile.Index,
			Kind:             profile.Kind.String(),
			Requests:         o.stats.Requests,
			ColdStarts:       o.stats.ColdStarts,
			Events:           events,
			MonthlyCostNanos: o.stats.MonthlyCost.Nanodollars(),
			InstallHostNs:    drainStart - installStart,
			DrainHostNs:      drainEnd - drainStart,
		})
		if cfg.Trace {
			// Reduce the account's sampled traces to its service map and
			// critical-path profile while the store is hot; the tower
			// merges them in slot order at Finalize. The rollup reads
			// bump the scanned dimension before Stats is taken, so the
			// dashboard's scan count includes them — deterministically.
			st := a.cloud.Tracer
			smap := st.ServiceMap(cfg.Book, time.Time{}, time.Time{})
			crit := st.CriticalProfile(time.Time{}, time.Time{})
			stats := st.Stats()
			var list int64
			for _, u := range st.Usage() {
				list += cfg.Book.ListPrice(u).Nanodollars()
			}
			cfg.Tower.ObserveTraces(telemetry.TraceObservation{
				Slot:      slot,
				Decided:   stats.Decided,
				Kept:      stats.Kept,
				Stored:    stats.Stored,
				Scanned:   stats.Scanned,
				ListNanos: list,
				Map:       smap,
				Crit:      crit,
			})
		}
	}
	a.cloud.Metrics.Recycle()
	return o
}

// newAccountSim wires the account: an injected shard-local timeline,
// per-account netsim/arrival/payload streams derived from the
// account's seed partition, and the app installation + warmup.
func newAccountSim(cfg *Config, shared *core.Shared, profile workload.AccountProfile) (*accountSim, error) {
	tl := clock.NewTimeline()
	params := shared.Params
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
		Shared:    shared,
		Clock:     tl.Clock(),
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
	a := &accountSim{
		cfg:     cfg,
		profile: profile,
		tl:      tl,
		cloud:   cloud,
		end:     clock.Epoch.Add(cfg.Span),
		payload: workload.NewRand(workload.Substream(profile.Seed, "payload")),
	}

	switch profile.Kind {
	case workload.KindChat:
		d, err := chat.Install(cloud, operator, chat.App{
			Members:  []string{"owner", "peer"},
			MemoryMB: 448,
		})
		if err != nil {
			return nil, err
		}
		a.dep = d
		a.owner = chat.NewClient(d, "owner", "laptop")
		a.peer = chat.NewClient(d, "peer", "phone")
		if _, err := a.owner.Session(); err != nil {
			return nil, err
		}
		if _, err := a.peer.Session(); err != nil {
			return nil, err
		}
	case workload.KindEmail:
		d, err := core.Install(cloud, operator, email.App{})
		if err != nil {
			return nil, err
		}
		a.dep = d
	case workload.KindFiledrop:
		d, err := core.Install(cloud, operator, filetransfer.App{})
		if err != nil {
			return nil, err
		}
		a.dep = d
	case workload.KindIoT:
		d, err := core.Install(cloud, operator, iot.App{
			AlertRules: map[string]float64{"temperature_c": 60},
		})
		if err != nil {
			return nil, err
		}
		a.dep = d
		dev, _ := json.Marshal(iot.Device{Name: "sensor", Kind: "thermo"})
		if err := a.invokeOK("register", dev); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown app kind %d", profile.Kind)
	}

	// The warmup above (installs, sessions, device registration) ran at
	// Epoch; the first arrival's inter-request gap measures from here.
	a.lastAt = cloud.Clock.Now()
	a.arrivals = workload.NewPoisson(
		workload.Substream(profile.Seed, "arrivals"),
		profile.RequestsPerDay,
		a.lastAt,
	)
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

// scheduleNext queues the next arrival, if it falls inside the span.
func (a *accountSim) scheduleNext() {
	next := a.arrivals.Next()
	if next.Before(a.end) {
		a.tl.Schedule(next, a.step)
	}
}

// step is one timeline event: serve the arrival, then schedule the
// next one. Errors latch and stop the chain.
func (a *accountSim) step(now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	if err := a.requestLocked(now); err != nil {
		a.err = err
		return
	}
	a.scheduleNext()
}

// requestLocked serves one workload arrival for the account's app
// kind. Caller holds a.mu.
func (a *accountSim) requestLocked(now time.Time) error {
	gap := now.Sub(a.lastAt)
	a.lastAt = now
	switch a.profile.Kind {
	case workload.KindChat:
		return a.chatRequestLocked(now, gap)
	case workload.KindEmail:
		return a.emailRequestLocked(now, gap)
	case workload.KindFiledrop:
		return a.filedropRequestLocked(now, gap)
	default:
		return a.iotRequestLocked(now, gap)
	}
}

// requestContextLocked returns the arrival's client context. With
// tracing on it is a TracedContext: the head-sampling decision is
// taken up front and an unsampled request carries a nil (still
// nil-safe) trace. Caller holds a.mu and finishes the returned trace
// when the flow completes.
func (a *accountSim) requestContextLocked(op string) (*sim.Context, *trace.Trace) {
	if !a.cfg.Trace {
		return a.dep.ClientContext(), nil
	}
	return a.dep.TracedContext(op)
}

// chatRequestLocked is the Table 3 flow at fleet scale: owner sends,
// peer's outstanding long poll delivers, E2E latency runs from send
// initiation to decrypted delivery.
func (a *accountSim) chatRequestLocked(now time.Time, gap time.Duration) error {
	body := a.bodyLocked()
	var stats lambda.InvocationStats
	var err error
	if a.cfg.Trace {
		_, stats, err = a.owner.SendTraced(body)
	} else {
		stats, _, err = a.owner.SendTimed(body)
	}
	if err != nil {
		return fmt.Errorf("chat send %d: %w", a.stats.Requests, err)
	}
	pollCtx := a.peer.PollContext(now)
	msgs, err := a.peer.Receive(pollCtx, 20*time.Second)
	if err != nil {
		return fmt.Errorf("chat receive %d: %w", a.stats.Requests, err)
	}
	if len(msgs) != 1 {
		return fmt.Errorf("chat receive %d: got %d messages, want 1", a.stats.Requests, len(msgs))
	}
	a.recordLocked(gap, stats.ColdStart, pollCtx.Cursor.Now().Sub(now))
	return nil
}

// emailRequestLocked delivers one inbound message through the SES
// trigger. Deliver does not surface InvocationStats, so cold starts
// come from the function's platform counters.
func (a *accountSim) emailRequestLocked(now time.Time, gap time.Duration) error {
	raw := fmt.Sprintf("From: friend@example.org\r\nSubject: note %d\r\n\r\n%s",
		a.stats.Requests, a.bodyLocked())
	_, coldBefore := a.cloud.Lambda.Stats(a.dep.FnName)
	ctx, tr := a.requestContextLocked("email-inbound")
	err := a.cloud.SES.Deliver(ctx, "friend@example.org", operator+"@"+email.MailDomain, []byte(raw))
	tr.Finish(ctx.Now())
	if err != nil {
		return fmt.Errorf("email inbound %d: %w", a.stats.Requests, err)
	}
	_, coldAfter := a.cloud.Lambda.Stats(a.dep.FnName)
	a.recordLocked(gap, coldAfter > coldBefore, ctx.Cursor.Now().Sub(now))
	return nil
}

// filedropRequestLocked uploads one file and verifies the offer was
// accepted.
func (a *accountSim) filedropRequestLocked(now time.Time, gap time.Duration) error {
	req, err := json.Marshal(filetransfer.UploadRequest{
		Name: fmt.Sprintf("drop-%06d", a.stats.Requests),
		To:   "peer",
		Data: []byte(a.bodyLocked()),
	})
	if err != nil {
		return err
	}
	ctx, tr := a.requestContextLocked("filedrop-upload")
	resp, stats, err := a.dep.Invoke(ctx, "upload", req)
	tr.Finish(ctx.Now())
	if err != nil {
		return fmt.Errorf("filedrop upload %d: %w", a.stats.Requests, err)
	}
	if resp.Status != 200 {
		return fmt.Errorf("filedrop upload %d: status %d: %s", a.stats.Requests, resp.Status, resp.Body)
	}
	a.recordLocked(gap, stats.ColdStart, ctx.Cursor.Now().Sub(now))
	return nil
}

// iotRequestLocked alternates device telemetry reports with an
// occasional dashboard read — the §6.1 controller workload.
func (a *accountSim) iotRequestLocked(now time.Time, gap time.Duration) error {
	op, body := "report", []byte(nil)
	if a.stats.Requests%12 == 11 {
		op = "dashboard"
	} else {
		b, err := json.Marshal(iot.Report{
			Device:  "sensor",
			Metrics: map[string]float64{"temperature_c": 20 + 30*a.payload.Float64()},
		})
		if err != nil {
			return err
		}
		body = b
	}
	ctx, tr := a.requestContextLocked("iot-" + op)
	resp, stats, err := a.dep.Invoke(ctx, op, body)
	tr.Finish(ctx.Now())
	if err != nil {
		return fmt.Errorf("iot %s %d: %w", op, a.stats.Requests, err)
	}
	if resp.Status != 200 {
		return fmt.Errorf("iot %s %d: status %d: %s", op, a.stats.Requests, resp.Status, resp.Body)
	}
	a.recordLocked(gap, stats.ColdStart, ctx.Cursor.Now().Sub(now))
	return nil
}

// bodyLocked draws a payload whose length varies around the profile's
// mean from the account's payload stream. Caller holds a.mu.
func (a *accountSim) bodyLocked() string {
	n := a.profile.BodyBytes/2 + a.payload.Intn(a.profile.BodyBytes)
	return strings.Repeat("x", n)
}

// recordLocked books one served request. Caller holds a.mu.
func (a *accountSim) recordLocked(gap time.Duration, cold bool, latency time.Duration) {
	a.stats.Requests++
	if cold {
		a.stats.ColdStarts++
	}
	a.latencies = append(a.latencies, latency)
	a.samples = append(a.samples, reqSample{gap: gap, cold: cold})
}

// outcome prices the account's span at list price, extrapolates to the
// month, and packages the raw result.
func (a *accountSim) outcome() accountOutcome {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return accountOutcome{err: fmt.Errorf("account %06d (%v): %w", a.profile.Index, a.profile.Kind, a.err)}
	}
	var span pricing.Money
	for _, u := range a.cloud.Meter.Snapshot() {
		span += a.cfg.Book.ListPrice(u)
	}
	a.stats.Index = a.profile.Index
	a.stats.Kind = a.profile.Kind
	a.stats.MonthlyCost = span.MulFloat(float64(month) / float64(a.cfg.Span))
	if a.cfg.CaptureLedgers {
		a.stats.Ledger = renderLedger(a.cloud.Meter)
	}
	return accountOutcome{stats: a.stats, latencies: a.latencies, samples: a.samples}
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
