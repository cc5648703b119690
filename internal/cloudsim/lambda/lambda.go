// Package lambda simulates the serverless computing platform at the
// heart of DIY: functions registered with a memory allocation, invoked
// per request in isolated containers, billed in 100 ms increments of
// GB-seconds, scaled and georeplicated transparently.
//
// The simulator reproduces the cost- and latency-relevant mechanics of
// 2017 AWS Lambda:
//
//   - pay-per-request billing ($0.20/M requests + $0.00001667/GB-s,
//     metered through internal/pricing);
//   - execution time billed in 100 ms quanta — the reason the paper's
//     chat prototype runs 134 ms but bills 200 ms;
//   - cold starts when no warm container exists, with a configurable
//     warm-pool TTL;
//   - I/O bandwidth and latency proportional to the memory allocation
//     (via sim.Context.FunctionMemMB, consumed by the S3 simulator);
//   - multi-region replicas with transparent failover when a region is
//     down.
package lambda

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/crypto/envelope"
	"repro/internal/pricing"
)

func init() {
	// Invocations authenticate at the trigger (gateway, SES hook), not
	// via IAM; the invoked function then acts as its own IAM role.
	plane.Register(
		plane.Op{Service: "lambda", Method: "Invoke", Action: ""},
		plane.Op{Service: "lambda", Method: "InvokeTrigger", Action: ""},
	)
}

// Memory limits of the 2017 platform: "Lambda allocates functions a
// limited amount of memory (128MB to 1.5GB at the time of writing)".
const (
	MinMemoryMB = 128
	MaxMemoryMB = 1536
)

// DefaultWarmTTL is how long an idle container stays warm.
const DefaultWarmTTL = 5 * time.Minute

// DefaultTimeout is the maximum function execution time.
const DefaultTimeout = 5 * time.Minute

// DefaultConcurrencyLimit is the 2017 account-wide concurrent
// execution limit.
const DefaultConcurrencyLimit = 1000

// Errors returned by the platform.
var (
	ErrNoSuchFunction = errors.New("lambda: no such function")
	ErrAllRegionsDown = errors.New("lambda: no healthy region")
	ErrTimeout        = errors.New("lambda: function timed out")
	// ErrConcurrencyLimit is the platform-side throttle when the
	// account's concurrent executions are exhausted (a 429 on AWS).
	ErrConcurrencyLimit = errors.New("lambda: concurrent execution limit reached")
)

// Event is the input delivered to a function invocation.
type Event struct {
	// Source identifies the trigger class: "https", "ses", "schedule".
	Source string
	// Path is the HTTPS endpoint path for gateway-triggered events.
	Path string
	// Op is the application-level operation name.
	Op string
	// Body is the request payload.
	Body []byte
	// Attrs carries string metadata (headers, sender address, ...).
	Attrs map[string]string
}

// Response is a function's reply.
type Response struct {
	Status int
	Body   []byte
	Attrs  map[string]string
}

// Handler is the code of a serverless function. Its service calls go
// through the Env so latency, billing and the threat-model boundary are
// enforced by the runtime.
type Handler func(env *Env, event Event) (Response, error)

// Function is a registered serverless function.
type Function struct {
	Name string
	// Handler runs for each request.
	Handler Handler
	// MemoryMB is the container memory allocation; it determines both
	// the GB-seconds price and the I/O performance.
	MemoryMB int
	// Timeout bounds execution time (DefaultTimeout if zero).
	Timeout time.Duration
	// Role is the IAM principal the function's service calls act as.
	Role string
	// App labels metered usage for the app store's resource report.
	App string
	// Regions lists the regions the function is replicated to, in
	// preference order. Empty means []string{"us-west-2"}.
	Regions []string
	// Code is the deployment package bytes; its SHA-256 is the
	// function's attestation measurement. The paper assumes function
	// code "may be unencrypted and accessible by adversaries" but is
	// faithfully executed — the hash is what an enclave would attest.
	Code []byte
	// CacheDataKeys lets warm containers retain unwrapped data keys
	// between invocations, the standard KMS data-key-caching practice
	// that keeps marginal KMS request cost at zero. Keys are scrubbed
	// when the container is evicted.
	CacheDataKeys bool
	// Config is the function's environment configuration (bucket
	// names, wrapped key blobs, queue names), the analog of Lambda
	// environment variables. Note the paper's assumption: stored
	// function configuration "may be unencrypted and accessible by
	// adversaries", which is why only the *wrapped* data key may be
	// placed here.
	Config map[string]string
}

// InvocationStats reports one invocation's accounting.
type InvocationStats struct {
	// RunTime is the modelled execution duration (compute + service
	// I/O) — the paper's "Lambda Time Run".
	RunTime time.Duration
	// BilledTime is RunTime rounded up to the 100 ms quantum — the
	// paper's "Lambda Time Billed".
	BilledTime time.Duration
	// GBSeconds is the billed compute: BilledTime × memory.
	GBSeconds float64
	// ColdStart reports whether a new container was provisioned.
	ColdStart bool
	// PeakMemoryBytes is the handler-reported peak working set.
	PeakMemoryBytes int64
	// Region is where the invocation ran.
	Region string
}

// container is one warm execution environment.
type container struct {
	id       int64
	region   string
	busy     bool
	lastUsed time.Time
	cache    map[string][]byte
}

func (c *container) scrub() {
	for k, v := range c.cache {
		envelope.Zero(v)
		delete(c.cache, k)
	}
}

// functionState tracks a registered function and its containers.
type functionState struct {
	fn          Function
	containers  []*container
	invocations int64
	coldStarts  int64
}

// Platform is the simulated serverless platform. It is safe for
// concurrent use.
type Platform struct {
	meter *pricing.Meter
	pl    *plane.Plane
	model *netsim.Model
	clk   clock.Clock

	mu       sync.Mutex
	services Services
	fns      map[string]*functionState
	triggers map[string]string // "source/key" -> function name
	nextCID  int64
	warmTTL  time.Duration

	concLimit  int
	concurrent int
	metrics    *metrics.Service
	logs       *logs.Service
	nextReqID  int64
}

// New returns a platform wired to the meter, the network model and a
// clock (used for warm-pool aging in wall-clock mode).
func New(meter *pricing.Meter, model *netsim.Model, clk clock.Clock) *Platform {
	if clk == nil {
		clk = clock.Wall{}
	}
	return &Platform{
		meter:     meter,
		pl:        plane.New(nil, meter, model),
		model:     model,
		clk:       clk,
		fns:       make(map[string]*functionState),
		triggers:  make(map[string]string),
		warmTTL:   DefaultWarmTTL,
		concLimit: DefaultConcurrencyLimit,
	}
}

// Plane exposes the platform's request plane so wiring code can attach
// interceptors around every invocation.
func (p *Platform) Plane() *plane.Plane { return p.pl }

// SetMetrics wires a monitoring service; each invocation then
// publishes lambda.run.ms, lambda.billed.ms, lambda.peak.mb and
// lambda.cold samples under the function's name (the CloudWatch
// statistics the paper's Table 3 was measured from).
func (p *Platform) SetMetrics(m *metrics.Service) {
	p.mu.Lock()
	p.metrics = m
	p.mu.Unlock()
}

// SetLogs wires a log service; each invocation then writes the
// platform's START/END/REPORT lines — the 2017 service's shape, with
// Duration, Billed Duration (the 100 ms quantum), Memory Size, Max
// Memory Used, and Init Duration on cold starts — into log group
// "lambda/<function>", the simulator's /aws/lambda/<function>. These
// lines are the operator-facing evidence of per-invoke billing the
// paper's Table 3 numbers would be read from on real AWS.
func (p *Platform) SetLogs(l *logs.Service) {
	p.mu.Lock()
	p.logs = l
	p.mu.Unlock()
}

// SetConcurrencyLimit overrides the account's concurrent execution
// limit (non-positive restores the default).
func (p *Platform) SetConcurrencyLimit(n int) {
	if n <= 0 {
		n = DefaultConcurrencyLimit
	}
	p.mu.Lock()
	p.concLimit = n
	p.mu.Unlock()
}

// SetWarmTTL overrides the warm-pool idle TTL (for the cold-start
// ablation).
func (p *Platform) SetWarmTTL(d time.Duration) {
	p.mu.Lock()
	p.warmTTL = d
	p.mu.Unlock()
}

// RegisterFunction installs a function. The memory allocation is
// clamped into the platform's limits and rounded up to a 64 MB step.
func (p *Platform) RegisterFunction(fn Function) error {
	if fn.Name == "" {
		return errors.New("lambda: function must have a name")
	}
	if fn.Handler == nil {
		return fmt.Errorf("lambda: function %q has no handler", fn.Name)
	}
	if fn.MemoryMB < MinMemoryMB {
		fn.MemoryMB = MinMemoryMB
	}
	if fn.MemoryMB > MaxMemoryMB {
		fn.MemoryMB = MaxMemoryMB
	}
	if rem := fn.MemoryMB % 64; rem != 0 {
		fn.MemoryMB += 64 - rem
	}
	if fn.Timeout <= 0 {
		fn.Timeout = DefaultTimeout
	}
	if len(fn.Regions) == 0 {
		fn.Regions = []string{"us-west-2"}
	}
	if len(fn.Code) == 0 {
		fn.Code = []byte("package:" + fn.Name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.fns[fn.Name]; exists {
		return fmt.Errorf("lambda: function %q already registered", fn.Name)
	}
	p.fns[fn.Name] = &functionState{fn: fn}
	return nil
}

// RemoveFunction deletes a function, scrubbing all its containers.
func (p *Platform) RemoveFunction(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.fns[name]
	if !ok {
		return fmt.Errorf("lambda: %q: %w", name, ErrNoSuchFunction)
	}
	for _, c := range st.containers {
		c.scrub()
	}
	delete(p.fns, name)
	for k, v := range p.triggers {
		if v == name {
			delete(p.triggers, k)
		}
	}
	return nil
}

// Function returns a copy of a registered function's definition.
func (p *Platform) Function(name string) (Function, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.fns[name]
	if !ok {
		return Function{}, false
	}
	return st.fn, true
}

// ReplaceCode swaps a function's deployment package without going
// through the owner's deployment flow — the adversarial action (a
// compromised marketplace or provider-side tamper) that enclave
// attestation (§3.3/§8.2) exists to detect. The handler is also
// replaced when newHandler is non-nil.
func (p *Platform) ReplaceCode(fnName string, code []byte, newHandler Handler) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.fns[fnName]
	if !ok {
		return fmt.Errorf("lambda: %q: %w", fnName, ErrNoSuchFunction)
	}
	st.fn.Code = append([]byte(nil), code...)
	if newHandler != nil {
		st.fn.Handler = newHandler
	}
	return nil
}

// UpdateConfig merges key/value pairs into a function's environment
// configuration (e.g. rebinding the wrapped data key after migration).
func (p *Platform) UpdateConfig(fnName string, kv map[string]string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.fns[fnName]
	if !ok {
		return fmt.Errorf("lambda: %q: %w", fnName, ErrNoSuchFunction)
	}
	if st.fn.Config == nil {
		st.fn.Config = make(map[string]string)
	}
	for k, v := range kv {
		st.fn.Config[k] = v
	}
	// Config changes invalidate warm containers (new deployment).
	for _, c := range st.containers {
		c.scrub()
	}
	st.containers = nil
	return nil
}

// RegisterTrigger routes events of the given source and key (e.g.
// source "ses", key "alice@example.com") to a function.
func (p *Platform) RegisterTrigger(source, key, fnName string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.fns[fnName]; !ok {
		return fmt.Errorf("lambda: trigger target %q: %w", fnName, ErrNoSuchFunction)
	}
	p.triggers[source+"/"+key] = fnName
	return nil
}

// TriggerTarget resolves a trigger to its function name.
func (p *Platform) TriggerTarget(source, key string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn, ok := p.triggers[source+"/"+key]
	return fn, ok
}

// InvokeTrigger fires the function registered for a trigger.
func (p *Platform) InvokeTrigger(ctx *sim.Context, source, key string, event Event) (Response, InvocationStats, error) {
	fnName, ok := p.TriggerTarget(source, key)
	if !ok {
		return Response{}, InvocationStats{}, fmt.Errorf("lambda: no trigger %s/%s: %w", source, key, ErrNoSuchFunction)
	}
	return p.Invoke(ctx, fnName, event)
}

// Invoke runs a function for one event. The caller's cursor (if any)
// advances by the dispatch latency plus the function's full run time.
func (p *Platform) Invoke(ctx *sim.Context, fnName string, event Event) (Response, InvocationStats, error) {
	p.mu.Lock()
	st, ok := p.fns[fnName]
	if !ok {
		p.mu.Unlock()
		return Response{}, InvocationStats{}, fmt.Errorf("lambda: %q: %w", fnName, ErrNoSuchFunction)
	}
	if p.concurrent >= p.concLimit {
		p.mu.Unlock()
		return Response{}, InvocationStats{}, fmt.Errorf("lambda: %d executions in flight: %w", p.concLimit, ErrConcurrencyLimit)
	}
	p.concurrent++
	defer func() {
		p.mu.Lock()
		p.concurrent--
		p.mu.Unlock()
	}()
	fn := st.fn
	warmTTL := p.warmTTL
	p.mu.Unlock()

	var resp Response
	var stats InvocationStats
	// The plane opens the lambda span covering dispatch plus the whole
	// execution (closed at the caller's cursor once the run time has
	// been absorbed); billing stays in the handler because GB-seconds
	// are attributed to the function's app, not the caller's, and the
	// quantum is known only after the run.
	err := p.pl.Do(ctx, &plane.Call{Service: "lambda", Op: fnName}, func(preq *plane.Request) error {
		lsp := preq.Span

		// Region selection with transparent failover: first healthy
		// replica wins; a failed-over request pays inter-region latency.
		region, hops, err := p.pickRegion(fn.Regions)
		if err != nil {
			lsp.Annotate("error", "all-regions-down")
			return err
		}
		if ctx != nil {
			for i := 0; i < hops; i++ {
				ctx.Advance(p.sample(netsim.HopInterRegion))
			}
			ctx.Advance(p.sample(netsim.HopGatewayDispatch))
		}

		// The invocation runs on its own cursor forked from the caller so
		// run time is measured independently of upstream latency.
		start := p.instant(ctx)
		invCursor := sim.NewCursor(start)

		cont, cold := p.acquireContainer(st, region, start)
		stats = InvocationStats{ColdStart: cold, Region: region}
		lsp.Annotate("region", region)
		lsp.Annotate("memory_mb", strconv.Itoa(fn.MemoryMB))
		lsp.Annotate("cold_start", strconv.FormatBool(cold))
		var initDur time.Duration
		if cold {
			csp := lsp.StartChild("lambda", "cold-start", invCursor.Now())
			initDur = p.sample(netsim.HopColdStart)
			invCursor.Advance(initDur)
			csp.Finish(invCursor.Now())
		}

		env := &Env{
			platform: p,
			fn:       &fn,
			cont:     cont,
			ctx: &sim.Context{
				Principal:     fn.Role,
				App:           fn.App,
				Region:        region,
				Cursor:        invCursor,
				FunctionMemMB: fn.MemoryMB,
				// Downstream service hops made from inside the container
				// nest under the invocation's span on its own timeline.
				Span: lsp,
			},
		}

		var herr error
		resp, herr = fn.Handler(env, event)
		env.finish()

		run := invCursor.Elapsed()
		timedOut := run > fn.Timeout
		if timedOut {
			run = fn.Timeout
		}
		stats.RunTime = run
		stats.BilledTime = billQuantum(run)
		stats.GBSeconds = stats.BilledTime.Seconds() * float64(fn.MemoryMB) / 1024.0
		stats.PeakMemoryBytes = env.peakMemory

		lsp.Annotate("run_ms", strconv.FormatInt(run.Milliseconds(), 10))
		lsp.Annotate("billed_ms", strconv.FormatInt(stats.BilledTime.Milliseconds(), 10))
		if pad := stats.BilledTime - run; pad > 0 {
			// The billing quantum's padding is virtual: nothing executes
			// during it, but the GB-seconds charge covers it, so it gets a
			// span of its own for honest cost attribution. It may extend
			// past the parent's end, like X-Ray's in-progress segments.
			qsp := lsp.StartChild("lambda", "billing-quantum", start.Add(run))
			qsp.Annotate("padding_ms", strconv.FormatInt(pad.Milliseconds(), 10))
			qsp.Finish(start.Add(stats.BilledTime))
		}

		// Metering: one request plus billed GB-seconds, attributed to the
		// function's app (not the invoking caller's, hence MeterUsageAs);
		// mirrored into the span so the trace's ledger matches the meter
		// record-for-record, and visible to the request's interceptors
		// so the cost series covers the invocation charge.
		preq.MeterUsageAs(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1, App: fn.App})
		preq.MeterUsageAs(pricing.Usage{Kind: pricing.LambdaGBSeconds, Quantity: stats.GBSeconds, App: fn.App})

		// The caller's timeline absorbs the whole execution.
		if ctx != nil {
			ctx.Advance(run)
		}

		// Publish monitoring samples.
		p.mu.Lock()
		mon := p.metrics
		p.mu.Unlock()
		if mon != nil {
			mon.Record(fnName, metrics.MetricLambdaRunMs, start, float64(stats.RunTime)/float64(time.Millisecond))
			mon.Record(fnName, metrics.MetricLambdaBilledMs, start, float64(stats.BilledTime)/float64(time.Millisecond))
			mon.Record(fnName, metrics.MetricLambdaPeakMB, start, float64(stats.PeakMemoryBytes)/(1<<20))
			coldVal := 0.0
			if stats.ColdStart {
				coldVal = 1
			}
			mon.Record(fnName, metrics.MetricLambdaCold, start, coldVal)
		}

		// Write the platform's log lines. The request id is minted from a
		// platform counter only when a log service is wired, and the
		// whole block is read-only otherwise — no meter, rand, or cursor
		// effect — so logging on vs off cannot move the ledger.
		p.mu.Lock()
		lg := p.logs
		var reqNum int64
		if lg != nil {
			p.nextReqID++
			reqNum = p.nextReqID
		}
		p.mu.Unlock()
		if lg != nil {
			writeLogLines(lg, fnName, reqNum, cont.id, fn.MemoryMB, start, &stats, initDur)
		}

		// Release the container.
		p.mu.Lock()
		st.invocations++
		if cold {
			st.coldStarts++
		}
		cont.busy = false
		cont.lastUsed = maxTime(p.instant(ctx), invCursor.Now())
		if !fn.CacheDataKeys {
			cont.scrub()
		}
		p.mu.Unlock()

		// Evict containers idle beyond the TTL so their cached secrets die.
		p.evictIdle(st, warmTTL, cont.lastUsed)

		if timedOut {
			resp = Response{}
			return fmt.Errorf("lambda: %q after %v: %w", fnName, fn.Timeout, ErrTimeout)
		}
		return herr
	})
	return resp, stats, err
}

// writeLogLines appends one invocation's START, END and REPORT lines
// to stream "<yyyy/mm/dd>/[$LATEST]container-<id>" of the function's
// log group. The request id, the stream name and the three messages
// are built with strconv appends in one stack buffer, which the store
// copies into the stream, so the block allocates nothing of its own per
// invocation (TestLogLinesAllocs). The bytes are exactly the
// historical Sprintf renderings — request id
// "00000000-0000-4000-8000-%012x", stream suffix
// "/[$LATEST]container-%06d", and
//
//	"REPORT RequestId: %s\tDuration: %.2f ms\tBilled Duration: %d ms\tMemory Size: %d MB\tMax Memory Used: %d MB"
//
// plus "\tInit Duration: %.2f ms" after a cold start
// (TestLogLinesMatchSprintf pins them). The hotpath analyzer roots
// this function, so fmt cannot come back into it.
func writeLogLines(lg *logs.Service, fnName string, reqNum, contID int64, memMB int, start time.Time, stats *InvocationStats, initDur time.Duration) {
	var buf [512]byte
	b := start.UTC().AppendFormat(buf[:0], "2006/01/02")
	b = append(b, "/[$LATEST]container-"...)
	b = appendPadded(b, contID, 6, 10)
	streamHi := len(b)

	startLo := len(b)
	b = append(b, "START RequestId: "...)
	idLo := len(b)
	b = append(b, "00000000-0000-4000-8000-"...)
	b = appendPadded(b, reqNum, 12, 16)
	idHi := len(b)
	b = append(b, " Version: $LATEST"...)
	startHi := len(b)

	endLo := len(b)
	b = append(b, "END RequestId: "...)
	b = append(b, b[idLo:idHi]...)
	endHi := len(b)

	reportLo := len(b)
	b = append(b, "REPORT RequestId: "...)
	b = append(b, b[idLo:idHi]...)
	b = append(b, "\tDuration: "...)
	b = strconv.AppendFloat(b, float64(stats.RunTime)/float64(time.Millisecond), 'f', 2, 64)
	b = append(b, " ms\tBilled Duration: "...)
	b = strconv.AppendInt(b, stats.BilledTime.Milliseconds(), 10)
	b = append(b, " ms\tMemory Size: "...)
	b = strconv.AppendInt(b, int64(memMB), 10)
	b = append(b, " MB\tMax Memory Used: "...)
	b = strconv.AppendInt(b, stats.PeakMemoryBytes>>20, 10)
	b = append(b, " MB"...)
	if stats.ColdStart {
		b = append(b, "\tInit Duration: "...)
		b = strconv.AppendFloat(b, float64(initDur)/float64(time.Millisecond), 'f', 2, 64)
		b = append(b, " ms"...)
	}

	endAt := start.Add(stats.RunTime)
	lg.AppendLambdaLines(fnName, b[:streamHi],
		logs.Line{Time: start, Msg: b[startLo:startHi]},
		logs.Line{Time: endAt, Msg: b[endLo:endHi]},
		logs.Line{Time: endAt, Msg: b[reportLo:]},
	)
}

// appendPadded appends v in the given base, zero-padded to width the
// way fmt's %0<width>d and %0<width>x pad: the width counts a leading
// minus sign, and the zeros go after it.
func appendPadded(b []byte, v int64, width, base int) []byte {
	var digits [24]byte
	d := strconv.AppendInt(digits[:0], v, base)
	if v < 0 {
		b = append(b, '-')
		d = d[1:]
		width--
	}
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// Stats reports a function's lifetime invocation and cold-start counts.
func (p *Platform) Stats(fnName string) (invocations, coldStarts int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.fns[fnName]; ok {
		return st.invocations, st.coldStarts
	}
	return 0, 0
}

func (p *Platform) pickRegion(regions []string) (region string, hops int, err error) {
	for i, r := range regions {
		if p.model == nil || p.model.RegionUp(r) {
			return r, i, nil
		}
	}
	return "", 0, ErrAllRegionsDown
}

func (p *Platform) acquireContainer(st *functionState, region string, now time.Time) (*container, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range st.containers {
		if c.busy || c.region != region {
			continue
		}
		if p.warmTTL > 0 && now.Sub(c.lastUsed) > p.warmTTL {
			continue // stale; eviction will collect it
		}
		c.busy = true
		return c, false
	}
	p.nextCID++
	c := &container{
		id:       p.nextCID,
		region:   region,
		busy:     true,
		lastUsed: now,
		cache:    make(map[string][]byte),
	}
	st.containers = append(st.containers, c)
	return c, true
}

func (p *Platform) evictIdle(st *functionState, ttl time.Duration, now time.Time) {
	if ttl <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := st.containers[:0]
	for _, c := range st.containers {
		if !c.busy && now.Sub(c.lastUsed) > ttl {
			c.scrub()
			continue
		}
		kept = append(kept, c)
	}
	st.containers = kept
}

func (p *Platform) sample(h netsim.Hop) time.Duration {
	if p.model == nil {
		return 0
	}
	return p.model.Sample(h)
}

func (p *Platform) instant(ctx *sim.Context) time.Time {
	if ctx != nil && ctx.Cursor != nil {
		return ctx.Cursor.Now()
	}
	return p.clk.Now()
}

// billQuantum rounds a run time up to the 100 ms billing increment.
// Every invocation bills at least one quantum.
func billQuantum(run time.Duration) time.Duration {
	if run <= 0 {
		return pricing.BillingQuantum
	}
	q := pricing.BillingQuantum
	n := (run + q - 1) / q
	return n * q
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
