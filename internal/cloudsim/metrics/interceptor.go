package metrics

import (
	"errors"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/plane"
	"repro/internal/pricing"
)

// PlaneInterceptor returns a plane.Use interceptor that auto-publishes
// RED and cost series for every call routed through the plane it is
// installed on — no per-service instrumentation:
//
//	<service>/<op>  plane.requests          1 per call
//	<service>/<op>  plane.errors            1 per failed call
//	<service>/<op>  plane.denials           1 per IAM-denied call
//	<service>/<op>  plane.latency.ms        cursor time consumed by the call
//	<service>/<op>  plane.cost.nanodollars  list price of the call's metered usage
//	account         account.cost.nanodollars  cumulative priced spend (gauge)
//
// Samples are timestamped at the flow cursor's post-call instant;
// cursor-less flows fall back to the service clock so alarms still see
// them. The interceptor only reads the request — it never meters or
// mutates — so installing it cannot move a ledger-parity golden by a
// nanodollar (scripts/check.sh proves this each run).
//
// The hot path is interned: each (service, op) resolves its five series
// handles once, a call takes exactly one lock — the store's — to
// resolve them, land its samples and advance the spend gauge, and no
// names are formatted per call. The `hotpath` diylint analyzer keeps
// it that way.
func PlaneInterceptor(s *Service, book *pricing.PriceBook, clk *clock.Virtual) plane.Interceptor {
	pub := &publisher{
		svc:       s,
		book:      book,
		clk:       clk,
		account:   s.Handle(AccountNamespace, MetricAccountCostNanos),
		byService: make(map[string]map[string]*opHandles),
	}
	return func(next plane.HandlerFunc) plane.HandlerFunc {
		return func(req *plane.Request) error {
			err := next(req)
			pub.publish(req, err)
			return err
		}
	}
}

// opHandles caches the five resolved series handles for one
// (service, op) namespace, so steady-state publication does no key
// building or map insertion — two map reads, then the inserts.
type opHandles struct {
	requests Handle
	errs     Handle
	denials  Handle
	latency  Handle
	cost     Handle
}

// publisher is the per-interceptor publication state. Its handle
// cache and cumulative gauge are guarded by svc.mu, so a call takes
// one lock in all. core.NewCloud installs one interceptor per Service
// and shares it across the account's planes, so the gauge spans the
// whole account.
type publisher struct {
	svc     *Service
	book    *pricing.PriceBook
	clk     *clock.Virtual
	account Handle

	byService map[string]map[string]*opHandles // guarded by svc.mu
	cum       int64                            // guarded by svc.mu
}

// publish prices the call outside the lock, then inserts its samples
// under the single store lock. Holding svc.mu across the inserts pairs
// each cumulative-gauge update with its sample, so the gauge series
// stays monotone.
func (p *publisher) publish(req *plane.Request, err error) {
	t0 := hostNow()
	at := req.Ctx.Now()
	if at.IsZero() {
		at = p.clk.Now()
	}
	atNs := at.UnixNano()
	var cost pricing.Money
	for _, u := range req.Metered() {
		cost += p.book.ListPrice(u)
	}
	start := req.Start()
	s := p.svc
	s.mu.Lock()
	h := p.resolveLocked(req.Call.Service, req.Call.Op)
	n := int64(3) // requests, cost, account gauge
	s.insertLocked(h.requests, atNs, 1)
	switch {
	case errors.Is(err, iam.ErrDenied):
		s.insertLocked(h.denials, atNs, 1)
		n++
	case err != nil:
		s.insertLocked(h.errs, atNs, 1)
		n++
	}
	if !start.IsZero() && !at.Before(start) {
		s.insertLocked(h.latency, atNs, float64(at.Sub(start))/float64(time.Millisecond))
		n++
	}
	s.insertLocked(h.cost, atNs, float64(cost.Nanodollars()))
	p.cum += cost.Nanodollars()
	s.insertLocked(p.account, atNs, float64(p.cum))
	s.samples += n
	s.mu.Unlock()
	if t0 != 0 {
		s.addOverhead(hostNow() - t0)
	}
}

// resolveLocked interns the five series handles for (service, op),
// building the "service/op" namespace string only on first sight.
// Caller holds p.svc.mu.
func (p *publisher) resolveLocked(service, op string) *opHandles {
	ops := p.byService[service]
	if ops == nil {
		ops = make(map[string]*opHandles)
		p.byService[service] = ops
	}
	h := ops[op]
	if h == nil {
		ns := service + "/" + op
		s := p.svc
		h = &opHandles{
			requests: s.handleLocked(ns, MetricPlaneRequests),
			errs:     s.handleLocked(ns, MetricPlaneErrors),
			denials:  s.handleLocked(ns, MetricPlaneDenials),
			latency:  s.handleLocked(ns, MetricPlaneLatencyMs),
			cost:     s.handleLocked(ns, MetricPlaneCostNanos),
		}
		ops[op] = h
	}
	return h
}

// BudgetAlarm returns the configuration for a monthly-cost budget
// alarm over the cumulative spend gauge PlaneInterceptor publishes:
// Max over each period climbs with the ledger, so the alarm fires
// within one period of list-price spend crossing the budget. Periods
// with no API calls count as not breaching (no spend means no news,
// not missing data).
func BudgetAlarm(name string, budget pricing.Money, period time.Duration) AlarmConfig {
	return AlarmConfig{
		Name:        name,
		Namespace:   AccountNamespace,
		Metric:      MetricAccountCostNanos,
		Stat:        StatMax,
		Period:      period,
		EvalPeriods: 1,
		Comparison:  GreaterThanThreshold,
		Threshold:   float64(budget.Nanodollars()),
		Missing:     MissingNotBreaching,
	}
}

// Usage reports the monitoring inventory as meterable usage — one
// custom-metric month per stored series and one alarm-month per alarm,
// the quantities CloudWatch billed by in 2017. The inventory is
// deliberately not pushed into the account meter automatically (the
// paper's Tables 1–3 predate the observability layer); callers price
// it on demand via PriceBook.ListPrice or a scratch meter.
func (s *Service) Usage() []pricing.Usage {
	return []pricing.Usage{
		{Kind: pricing.CWMetricMonths, Quantity: float64(s.SeriesCount()), Resource: "cloudwatch"},
		{Kind: pricing.CWAlarmMonths, Quantity: float64(s.AlarmCount()), Resource: "cloudwatch"},
	}
}

// SelfPublish records the service's self-telemetry counters as metric
// series under TelemetryNamespace, timestamped at. The telemetry plane
// observes itself through the same registry it serves — `diyctl
// metrics` surfaces these like any other series. Opt-in (core publishes
// only when CloudOptions.SelfTelemetry is set) because the series
// count feeds the CloudWatch inventory bill.
func (s *Service) SelfPublish(at time.Time) {
	st := s.SelfStats()
	s.Record(TelemetryNamespace, MetricTelemetrySamples, at, float64(st.Samples))
	s.Record(TelemetryNamespace, MetricTelemetryOverheadNs, at, float64(st.OverheadNs))
}
