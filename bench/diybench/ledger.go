package main

import (
	"runtime"
	"time"

	"repro/internal/pricing"
)

type metric struct {
	name  string
	value float64
	unit  string
}

// metricDef names a metric BENCHMARK.json lists.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the simulator sees, on every workload,
// from the untraced timed phase.
var endToEnd = []metricDef{
	{"requests_per_s", "req/s", "higher"},
	{"accounts_per_s", "accounts/s", "higher"},
	{"cpu_us_per_req", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// usageCounts maps count.<name>_per_req to the metered usage kind.
var usageCounts = []struct {
	name string
	kind pricing.Kind
}{
	{"lambda_invocations", pricing.LambdaRequests},
	{"s3_puts", pricing.S3PutRequests},
	{"s3_gets", pricing.S3GetRequests},
	{"sqs_requests", pricing.SQSRequests},
	{"kms_requests", pricing.KMSRequests},
	{"dynamo_wcu", pricing.DynamoWCU},
	{"dynamo_rcu", pricing.DynamoRCU},
	{"ses_messages", pricing.SESMessages},
}

// timedPlanes are the planes operator_day routes calls through, by
// plane.Call.Service (EC2 is unused).
var timedPlanes = []string{"kms", "s3", "dynamo", "sqs", "lambda", "ses", "gateway"}

// perLayer lists the traced run's metrics. Operator-only rows read 0 on
// the fleet workloads, which the harness cannot time from outside.
func perLayer() []metricDef {
	var d []metricDef
	for _, l := range layers {
		d = append(d,
			metricDef{l + ".self_us_per_req", "us", "lower"},
			metricDef{l + ".alloc_kb_per_req", "KB", "lower"})
	}
	for _, l := range libs {
		d = append(d, metricDef{"lib." + l.name + ".us_per_req", "us", "lower"})
	}
	d = append(d,
		metricDef{"phase.install.us_per_account", "us", "lower"},
		metricDef{"phase.drain.us_per_req", "us", "lower"})
	for _, c := range usageCounts {
		d = append(d, metricDef{"count." + c.name + "_per_req", "1/req", "lower"})
	}
	d = append(d,
		metricDef{"cold_start_frac", "ratio", "lower"},
		metricDef{"gc.cpu_frac", "ratio", "lower"},
		metricDef{"gc.cycles_per_s", "1/s", "lower"},
		metricDef{"alloc_kb_per_req", "KB", "lower"},
		metricDef{"allocs_per_req", "1/req", "lower"},
		metricDef{"sched.cpu_util", "ratio", "higher"},
		metricDef{"span.install.us_per_operator", "us", "lower"})
	for _, k := range opKindNames {
		d = append(d, metricDef{"span.request." + k + ".us_p50", "us", "lower"})
	}
	for _, p := range dashboardParts {
		d = append(d, metricDef{"span.dashboard." + p + ".us_p50", "us", "lower"})
	}
	for _, p := range timedPlanes {
		d = append(d,
			metricDef{"plane." + p + ".calls_per_req", "1/req", "lower"},
			metricDef{"plane." + p + ".self_us_per_call", "us", "lower"})
	}
	d = append(d,
		metricDef{"operator.request_p50_us", "us", "lower"},
		metricDef{"operator.request_p99_us", "us", "lower"},
		metricDef{"operator.dashboard_p50_ms", "ms", "lower"},
		metricDef{"operator.dashboard_p95_ms", "ms", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"profile.samples", "count", "higher"},
		metricDef{"profile.coverage", "ratio", "higher"})
	return d
}

// totals sums rounds.
type totals struct {
	requests, accounts, cold int
	wall, cpu                time.Duration
	allocBytes, allocObjects uint64
	usage                    map[pricing.Kind]float64
	op                       opStats
}

func sum(rounds []round) totals {
	t := totals{usage: make(map[pricing.Kind]float64)}
	for _, r := range rounds {
		t.requests += r.requests
		t.accounts += r.accounts
		t.cold += r.cold
		t.wall += r.wall
		t.cpu += r.cpu
		t.allocBytes += r.allocBytes
		t.allocObjects += r.allocObjects
		for k, q := range r.usage {
			t.usage[k] += q
		}
		if o := r.op; o != nil {
			for k := range o.req {
				t.op.req[k] = append(t.op.req[k], o.req[k]...)
			}
			for k := range o.parts {
				t.op.parts[k] = append(t.op.parts[k], o.parts[k]...)
			}
			t.op.reads = append(t.op.reads, o.reads...)
			t.op.install = append(t.op.install, o.install...)
			if o.timer != nil {
				if t.op.timer == nil {
					t.op.timer = newPlaneTimer()
				}
				for s, n := range o.timer.calls {
					t.op.timer.calls[s] += n
				}
				for s, d := range o.timer.self {
					t.op.timer.self[s] += d
				}
			}
		}
	}
	return t
}

// allRequests merges the operator's per-kind request latencies.
func (o *opStats) allRequests() []time.Duration {
	var all []time.Duration
	for _, r := range o.req {
		all = append(all, r...)
	}
	return all
}

// basePass is the traced run's untraced pass, with the runtime/metrics
// snapshots around it.
type basePass struct {
	rounds []round
	rt0    rtSample
	rt1    rtSample
	wall   time.Duration
	scale  float64 // to reference-speed time
}

// tracedPass is the profiled pass with its profiles.
type tracedPass struct {
	rounds         []round
	cpu            *profile
	alloc0, alloc1 *profile
	scale          float64 // to reference-speed time
}

// layerLedger computes the per-layer metrics, keyed by name.
func layerLedger(base basePass, tr tracedPass) (map[string]float64, error) {
	m := make(map[string]float64)
	b, t := sum(base.rounds), sum(tr.rounds)
	req, acc := float64(t.requests), float64(t.accounts)

	vi, err := tr.cpu.valueIndex("cpu")
	if err != nil {
		return nil, err
	}
	cpu := attribute(tr.cpu, vi, func(s sample) bool { return s.labels[untimedLabel] == "" })
	ai, err := tr.alloc1.valueIndex("alloc_space")
	if err != nil {
		return nil, err
	}
	a0, a1 := attribute(tr.alloc0, ai, nil), attribute(tr.alloc1, ai, nil)
	for _, l := range layers {
		m[l+".self_us_per_req"] = ratio(float64(cpu.layer[l])/1e3, req)
		m[l+".alloc_kb_per_req"] = ratio(float64(a1.layer[l]-a0.layer[l])/1024, req)
	}
	for _, l := range libs {
		m["lib."+l.name+".us_per_req"] = ratio(float64(cpu.lib[l.name])/1e3, req)
	}
	m["phase.install.us_per_account"] = ratio(float64(cpu.phase["install"])/1e3, acc)
	m["phase.drain.us_per_req"] = ratio(float64(cpu.phase["drain"])/1e3, req)
	for _, c := range usageCounts {
		m["count."+c.name+"_per_req"] = ratio(t.usage[c.kind], req)
	}
	m["cold_start_frac"] = ratio(float64(t.cold), req)

	// Runtime counters come from the untraced pass.
	used := (base.rt1.totalCPU - base.rt0.totalCPU) - (base.rt1.idleCPU - base.rt0.idleCPU)
	m["gc.cpu_frac"] = ratio(base.rt1.gcCPU-base.rt0.gcCPU, used)
	m["gc.cycles_per_s"] = ratio(float64(base.rt1.gcCycles-base.rt0.gcCycles), base.wall.Seconds())
	m["alloc_kb_per_req"] = ratio(float64(b.allocBytes)/1024, float64(b.requests))
	m["allocs_per_req"] = ratio(float64(b.allocObjects), float64(b.requests))
	m["sched.cpu_util"] = ratio(b.cpu.Seconds(), b.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))

	var install time.Duration
	for _, d := range t.op.install {
		install += d
	}
	m["span.install.us_per_operator"] = ratio(us(install), float64(len(t.op.install)))
	for k, name := range opKindNames {
		m["span.request."+name+".us_p50"] = us(percentile(t.op.req[k], 50))
	}
	for k, name := range dashboardParts {
		m["span.dashboard."+name+".us_p50"] = us(percentile(t.op.parts[k], 50))
	}
	for _, p := range timedPlanes {
		var calls int
		var self time.Duration
		if t.op.timer != nil {
			calls, self = t.op.timer.calls[p], t.op.timer.self[p]
		}
		m["plane."+p+".calls_per_req"] = ratio(float64(calls), req)
		m["plane."+p+".self_us_per_call"] = ratio(us(self), float64(calls))
	}
	baseReqs := b.op.allRequests()
	m["operator.request_p50_us"] = us(percentile(baseReqs, 50))
	m["operator.request_p99_us"] = us(percentile(baseReqs, 99))
	m["operator.dashboard_p50_ms"] = us(percentile(b.op.reads, 50)) / 1e3
	m["operator.dashboard_p95_ms"] = us(percentile(b.op.reads, 95)) / 1e3

	m["trace.overhead_pct"] = 100 * (ratio(ratio(t.cpu.Seconds()*tr.scale, req), ratio(b.cpu.Seconds()*base.scale, float64(b.requests))) - 1)
	m["profile.samples"] = float64(cpu.samples)
	m["profile.coverage"] = ratio(float64(cpu.total), float64(t.cpu))
	return m, nil
}
