package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/apps/email"
	"repro/internal/apps/filetransfer"
	"repro/internal/apps/iot"
	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/core"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// operator_day is the paper's single DIY operator: one cloud with
// every telemetry default on (metrics, logs, keep-all traces), email,
// file drop and IoT installed on one account, a simulated day of
// Poisson traffic, and a dashboard read every six simulated hours.

type opKind int

const (
	opEmail opKind = iota
	opFiledrop
	opIoT
	numOpKinds
)

var opKindNames = [numOpKinds]string{"email", "filedrop", "iot"}

// opBaseline is the fleet's per-kind mean daily rate and payload size
// (workload's kindBaseline) for the operator's three apps.
var opBaseline = [numOpKinds]struct {
	perDay float64
	body   int
}{
	opEmail:    {120, 4 << 10},
	opFiledrop: {24, 48 << 10},
	opIoT:      {480, 256},
}

const (
	operatorUser   = "op"
	day            = 24 * time.Hour
	dashboardEvery = 6 * time.Hour
	readsPerDay    = int(day / dashboardEvery)
	// billedQuery is the dashboard's Insights read: what the mail
	// function is billed, from its REPORT lines alone.
	billedQuery = `filter @message like "REPORT RequestId" | parse @message "Billed Duration: * ms" as billed_ms | stats count(*) as invokes, pct(billed_ms, 50) as med_billed_ms`
)

// dashboardParts names the three reads of one dashboard.
var dashboardParts = [3]string{"toptable", "insights", "servicemap"}

type opArrival struct {
	at   time.Time
	kind opKind
	n    int // sequence number within the kind
	size int // payload bytes
	off  int // payload offset into the pool
	temp float64
}

type operatorPlan struct {
	index    int
	seed     int64
	arrivals []opArrival
}

type operatorRunner struct {
	plans []operatorPlan
	chunk int
	// pool is the seed's payload bytes; each request body is a slice.
	pool []byte
}

func operatorWorkload(operators, chunk int) func(int64, size) (runner, error) {
	return func(seed int64, sz size) (runner, error) {
		r := &operatorRunner{chunk: sz.of(chunk), pool: make([]byte, 128<<10)}
		rng := rand.New(rand.NewSource(workload.Substream(seed, "operator-pool")))
		for i := range r.pool {
			r.pool[i] = byte('a' + rng.Intn(26))
		}
		for i := 0; i < sz.of(operators); i++ {
			r.plans = append(r.plans, planOperator(seed, i, len(r.pool)))
		}
		return r, nil
	}
}

// planOperator draws one operator's day: Poisson arrivals per app at
// the baseline rates, payload sizes uniform in [½, 1½]× the baseline.
func planOperator(seed int64, index, pool int) operatorPlan {
	acct := workload.AccountSeed(seed, index)
	rng := rand.New(rand.NewSource(workload.Substream(acct, "payload")))
	var arr []opArrival
	for k := opKind(0); k < numOpKinds; k++ {
		b := opBaseline[k]
		p := workload.NewPoisson(workload.Substream(acct, "arrivals/"+opKindNames[k]), b.perDay, clock.Epoch)
		for n, at := range p.ArrivalsWithin(day) {
			sz := b.body/2 + rng.Intn(b.body)
			arr = append(arr, opArrival{at: at, kind: k, n: n, size: sz, off: rng.Intn(pool - sz + 1), temp: 20 + 30*rng.Float64()})
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].at.Before(arr[j].at) })
	return operatorPlan{index: index, seed: acct, arrivals: arr}
}

func (r *operatorRunner) chunks() int { return (len(r.plans) + r.chunk - 1) / r.chunk }

func (r *operatorRunner) warm() error {
	for i := 0; i < max(1, len(r.plans)/warmShare); i++ {
		rd := round{op: newOpStats(false)}
		var out strings.Builder
		r.operate(i, &rd, &out)
		if rd.err != nil {
			return rd.err
		}
	}
	return nil
}

func (r *operatorRunner) run(chunk int, traced bool) round {
	first := chunk * r.chunk
	n := min(r.chunk, len(r.plans)-first)
	rd := round{chunk: chunk, accounts: n, op: newOpStats(traced)}
	if traced {
		rd.usage = make(map[pricing.Kind]float64)
	}
	var out strings.Builder
	for i := first; i < first+n; i++ {
		r.operate(i, &rd, &out)
	}
	untimed(func() { rd.digest = digest(out.String()) })
	return rd
}

// opStats collects operator_day's host-time spans.
type opStats struct {
	req     [numOpKinds][]time.Duration
	parts   [len(dashboardParts)][]time.Duration
	reads   []time.Duration // whole dashboard reads
	install []time.Duration
	timer   *planeTimer // traced rounds only
}

func newOpStats(traced bool) *opStats {
	st := &opStats{}
	if traced {
		st.timer = newPlaneTimer()
	}
	return st
}

// operate runs operator i's day into rd. Request bodies are built
// before the clock starts; everything after is timed: cloud
// construction and installs, every request, and every dashboard read
// with its rendering. The operator's output — dashboards, then the
// final meter — is appended to out.
func (r *operatorRunner) operate(i int, rd *round, out *strings.Builder) {
	p, st := &r.plans[i], rd.op
	rd.attempted += len(p.arrivals) + readsPerDay
	fail := func(n int, err error) {
		rd.failed += n
		if rd.err == nil {
			rd.err = fmt.Errorf("operator %d: %w", i, err)
		}
	}
	var bodies [][]byte
	var err error
	untimed(func() { bodies, err = r.bodies(p) })
	if err != nil {
		fail(len(p.arrivals)+readsPerDay, err)
		return
	}

	sw := startWatch()
	oc, err := newOperatorCloud(p, st.timer)
	st.install = append(st.install, time.Since(sw.t0))
	if err != nil {
		sw.stopInto(rd)
		fail(len(p.arrivals)+readsPerDay, err)
		return
	}
	next := clock.Epoch.Add(dashboardEvery)
	for j, a := range p.arrivals {
		for !a.at.Before(next) {
			oc.cloud.Clock.Set(next)
			if err := oc.dashboard(st, out); err != nil {
				fail(1, err)
			}
			next = next.Add(dashboardEvery)
		}
		oc.cloud.Clock.Set(a.at)
		ts := time.Now()
		err := oc.request(a, bodies[j])
		st.req[a.kind] = append(st.req[a.kind], time.Since(ts))
		rd.requests++
		if err != nil {
			fail(1, fmt.Errorf("%s request %d: %w", opKindNames[a.kind], a.n, err))
		}
	}
	for end := clock.Epoch.Add(day); !next.After(end); next = next.Add(dashboardEvery) {
		oc.cloud.Clock.Set(next)
		if err := oc.dashboard(st, out); err != nil {
			fail(1, err)
		}
	}
	sw.stopInto(rd)

	untimed(func() {
		for _, d := range []*core.Deployment{oc.mail, oc.drop, oc.dev} {
			_, cold := oc.cloud.Lambda.Stats(d.FnName)
			rd.cold += int(cold)
		}
		for _, u := range oc.cloud.Meter.Snapshot() {
			fmt.Fprintf(out, "%s\t%s\t%s\t%.9f\n", u.Kind, u.Resource, u.App, u.Quantity)
			if rd.usage != nil {
				rd.usage[u.Kind] += u.Quantity
			}
		}
	})
}

// bodies builds the operator's request bodies from the payload pool.
// An IoT arrival with a nil body is the app's own dashboard op, every
// twelfth, as in the fleet.
func (r *operatorRunner) bodies(p *operatorPlan) ([][]byte, error) {
	out := make([][]byte, len(p.arrivals))
	for i, a := range p.arrivals {
		payload := r.pool[a.off : a.off+a.size]
		switch a.kind {
		case opEmail:
			out[i] = []byte(fmt.Sprintf("From: friend@example.org\r\nSubject: note %d\r\n\r\n%s", a.n, payload))
		case opFiledrop:
			b, err := json.Marshal(filetransfer.UploadRequest{Name: fmt.Sprintf("drop-%06d", a.n), To: "peer", Data: payload})
			if err != nil {
				return nil, err
			}
			out[i] = b
		case opIoT:
			if a.n%12 == 11 {
				continue
			}
			b, err := json.Marshal(iot.Report{Device: "sensor", Metrics: map[string]float64{"temperature_c": a.temp}})
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
	}
	return out, nil
}

type operatorCloud struct {
	cloud           *core.Cloud
	mail, drop, dev *core.Deployment
}

func newOperatorCloud(p *operatorPlan, timer *planeTimer) (*operatorCloud, error) {
	params := netsim.DefaultParams()
	params.Seed = workload.Substream(p.seed, "netsim")
	cloud, err := core.NewCloud(core.CloudOptions{Name: fmt.Sprintf("operator-%03d", p.index), NetParams: &params})
	if err != nil {
		return nil, err
	}
	oc := &operatorCloud{cloud: cloud}
	if oc.mail, err = core.Install(cloud, operatorUser, email.App{}); err != nil {
		return nil, err
	}
	if oc.drop, err = core.Install(cloud, operatorUser, filetransfer.App{}); err != nil {
		return nil, err
	}
	if oc.dev, err = core.Install(cloud, operatorUser, iot.App{AlertRules: map[string]float64{"temperature_c": 60}}); err != nil {
		return nil, err
	}
	dev, err := json.Marshal(iot.Device{Name: "sensor", Kind: "thermo"})
	if err != nil {
		return nil, err
	}
	if err := invoke(oc.dev, "iot-register", "register", dev); err != nil {
		return nil, err
	}
	if timer != nil {
		for _, pl := range []*plane.Plane{
			cloud.KMS.Plane(), cloud.S3.Plane(), cloud.Dynamo.Plane(), cloud.SQS.Plane(),
			cloud.Lambda.Plane(), cloud.SES.Plane(), cloud.Gateway.Plane(),
		} {
			pl.Use(timer.intercept)
		}
	}
	return oc, nil
}

func (oc *operatorCloud) request(a opArrival, body []byte) error {
	switch a.kind {
	case opEmail:
		ctx, tr := oc.mail.TracedContext("email-inbound")
		err := oc.cloud.SES.Deliver(ctx, "friend@example.org", operatorUser+"@"+email.MailDomain, body)
		tr.Finish(ctx.Now())
		return err
	case opFiledrop:
		return invoke(oc.drop, "filedrop-upload", "upload", body)
	default:
		if body == nil {
			return invoke(oc.dev, "iot-dashboard", "dashboard", nil)
		}
		return invoke(oc.dev, "iot-report", "report", body)
	}
}

func invoke(d *core.Deployment, name, op string, body []byte) error {
	ctx, tr := d.TracedContext(name)
	resp, _, err := d.Invoke(ctx, op, body)
	tr.Finish(ctx.Now())
	if err != nil {
		return err
	}
	if resp.Status != 200 {
		return fmt.Errorf("%s: status %d: %s", name, resp.Status, resp.Body)
	}
	return nil
}

// dashboard is the operator's periodic look at their cloud: the
// per-op RED+cost table, the mail function's billed duration from its
// logs, and the service map of every stored trace, each over the whole
// day so far and rendered as a user would read it.
func (oc *operatorCloud) dashboard(st *opStats, out *strings.Builder) error {
	var zero time.Time
	t0 := time.Now()
	rows := oc.cloud.Metrics.TopTable(zero, zero)
	for _, r := range rows {
		fmt.Fprintf(out, "%-34s %6.0f %5.0f %5.0f %7.1fms %7.1fms %.0fnd\n",
			r.Namespace, r.Requests, r.Errors, r.Denials, r.P50Ms, r.P99Ms, r.CostNanos)
	}
	t1 := time.Now()
	res, qerr := oc.cloud.Logs.Query(logs.LambdaGroup(oc.mail.FnName), billedQuery, zero, zero)
	if qerr == nil {
		out.WriteString(res.Render())
	}
	t2 := time.Now()
	smap := oc.cloud.Tracer.ServiceMap(oc.cloud.Book, zero, zero)
	out.WriteString(smap.Render())
	t3 := time.Now()

	st.parts[0] = append(st.parts[0], t1.Sub(t0))
	st.parts[1] = append(st.parts[1], t2.Sub(t1))
	st.parts[2] = append(st.parts[2], t3.Sub(t2))
	st.reads = append(st.reads, t3.Sub(t0))
	switch {
	case qerr != nil:
		return fmt.Errorf("insights query: %w", qerr)
	case len(rows) == 0 || len(res.Rows) == 0 || smap.Traces == 0:
		return fmt.Errorf("empty dashboard at %v: %d metric rows, %d query rows, %d traces",
			oc.cloud.Clock.Now(), len(rows), len(res.Rows), smap.Traces)
	}
	return nil
}

// planeTimer is a plane.Use interceptor that times each call's handler
// stage on the host clock. Operators run on one goroutine, so nested
// calls (a gateway call invoking lambda invoking s3) form a stack, and
// a call's self time is its duration minus its nested calls'.
type planeTimer struct {
	open  []planeFrame
	calls map[string]int
	self  map[string]time.Duration
}

type planeFrame struct {
	start  time.Time
	nested time.Duration
}

func newPlaneTimer() *planeTimer {
	return &planeTimer{calls: make(map[string]int), self: make(map[string]time.Duration)}
}

func (t *planeTimer) intercept(next plane.HandlerFunc) plane.HandlerFunc {
	return func(r *plane.Request) error {
		t.open = append(t.open, planeFrame{start: time.Now()})
		err := next(r)
		f := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		d := time.Since(f.start)
		t.calls[r.Call.Service]++
		t.self[r.Call.Service] += d - f.nested
		if len(t.open) > 0 {
			t.open[len(t.open)-1].nested += d
		}
		return err
	}
}
