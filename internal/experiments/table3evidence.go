package experiments

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/sqs"
	"repro/internal/cloudsim/trace"
	"repro/internal/core"
	"repro/internal/pricing"
)

// Table3Evidence is the Table 3 send window as every evidence source
// recorded it, reconciled by RunTable3, plus what each telemetry store
// would bill for holding that evidence. The paper's numbers are
// CloudWatch evidence; here the client's own InvocationStats, the
// metrics series, the Lambda REPORT log lines and the stored traces
// must all tell the same story.
type Table3Evidence struct {
	sends    int
	readings []reading
	bills    []storeBill
}

// quantity is one Table 3 number that evidence sources report.
type quantity int

const (
	qBilled quantity = iota
	qRun
	qPeak
	qCold
	qInvocations
	qCost
	numQuantities
)

var quantityNames = [numQuantities]string{
	qBilled:      "billed p50 (ms)",
	qRun:         "run p50 (ms)",
	qPeak:        "peak memory (MB)",
	qCold:        "cold starts",
	qInvocations: "invocations",
	qCost:        "send-path cost (nd)",
}

// An estimate is one source's reading of one quantity: the value it
// reports and the closed interval [lo, hi] its stated precision puts
// the true value in. The zero estimate means the source does not carry
// the quantity.
type estimate struct {
	v, lo, hi float64
	ok        bool
}

// exact is a value reported at full precision.
func exact(v float64) estimate { return estimate{v, v, v, true} }

// rounded is a value rounded to the nearest step.
func rounded(v, step float64) estimate { return estimate{v, v - step/2, v + step/2, true} }

// truncated is a value truncated down to a whole step.
func truncated(v, step float64) estimate { return estimate{v, v, v + step, true} }

// reading is what one evidence source says about the send window.
type reading struct {
	source string
	q      [numQuantities]estimate
}

// reconcile compares every pair of sources on every quantity both
// carry. Two estimates agree when their precision intervals overlap;
// each disagreement is reported with the quantity and both sources.
func reconcile(rs []reading) error {
	var errs []error
	for q := range numQuantities {
		for i, a := range rs {
			for _, b := range rs[i+1:] {
				ea, eb := a.q[q], b.q[q]
				if !ea.ok || !eb.ok || (ea.lo <= eb.hi && eb.lo <= ea.hi) {
					continue
				}
				errs = append(errs, fmt.Errorf("%s: %s reports %s, %s reports %s",
					quantityNames[q], a.source, formatNum(ea.v), b.source, formatNum(eb.v)))
			}
		}
	}
	return errors.Join(errs...)
}

// meterAgrees checks one send's trace ledger against the meter's
// growth across the send, record for record by usage quantity. The
// meter keeps float running totals, so the diff of two of them carries
// rounding the trace's own sums do not: priced, it is off by a
// nanodollar on some sends. A relative epsilon of 1e-9 absorbs it.
func meterAgrees(traced, before, after []pricing.Usage) error {
	type key struct {
		kind          pricing.Kind
		resource, app string
	}
	grew := make(map[key]float64, len(after))
	for _, u := range after {
		grew[key{u.Kind, u.Resource, u.App}] += u.Quantity
	}
	for _, u := range before {
		grew[key{u.Kind, u.Resource, u.App}] -= u.Quantity
	}
	for _, u := range traced {
		k := key{u.Kind, u.Resource, u.App}
		if m := grew[k]; math.Abs(u.Quantity-m) > 1e-9*u.Quantity {
			return fmt.Errorf("%v %s/%s: trace records %v, meter grew %v", u.Kind, u.Resource, u.App, u.Quantity, m)
		}
		delete(grew, k)
	}
	for _, u := range after {
		if m := grew[key{u.Kind, u.Resource, u.App}]; m != 0 {
			return fmt.Errorf("%v %s/%s: meter grew %v, trace records nothing", u.Kind, u.Resource, u.App, m)
		}
	}
	return nil
}

// reportQuery reads every Table 3 quantity out of the function's
// Lambda REPORT lines; cold starts are the lines with an Init Duration.
const reportQuery = `filter @message like "REPORT RequestId" ` +
	"| parse @message \"Duration: * ms\tBilled Duration: * ms\tMemory Size: * MB\tMax Memory Used: * MB\" " +
	`as run_ms, billed_ms, memory_mb, peak_mb ` +
	`| parse @message "Init Duration: * ms" as init_ms ` +
	`| stats count(*) as n, pct(billed_ms, 50) as billed, pct(run_ms, 50) as run, max(peak_mb) as peak, count(init_ms) as cold`

// gather reads the send window [from, now] back out of every store
// opts left on, appending one reading and one priced inventory per
// store.
func (ev *Table3Evidence) gather(cloud *core.Cloud, opts core.CloudOptions, fn string, from time.Time) error {
	book := cloud.Book
	var zero time.Time

	// The lambda platform publishes its per-function series whatever
	// the options; the plane series need the metrics interceptor.
	mon := cloud.Metrics
	m := reading{source: "metrics"}
	m.q[qBilled] = exact(mon.Percentile(fn, metrics.MetricLambdaBilledMs, from, zero, 50))
	m.q[qRun] = exact(mon.Percentile(fn, metrics.MetricLambdaRunMs, from, zero, 50))
	m.q[qPeak] = exact(mon.Max(fn, metrics.MetricLambdaPeakMB, from, zero))
	m.q[qCold] = exact(mon.Sum(fn, metrics.MetricLambdaCold, from, zero))
	if !opts.DisableObservability {
		m.q[qInvocations] = exact(float64(mon.Count("lambda/"+fn, metrics.MetricPlaneRequests, from, zero)))
		// Bob's long polls and acks are billed in the window but belong
		// to no traced send.
		var cost float64
		for _, ns := range mon.Namespaces() {
			if ns != "sqs/"+sqs.ActionReceive && ns != "sqs/"+sqs.ActionDelete {
				cost += mon.Sum(ns, metrics.MetricPlaneCostNanos, from, zero)
			}
		}
		m.q[qCost] = exact(cost)
	}
	ev.readings = append(ev.readings, m)
	list, billed := priceStore(book, mon.Usage(), pricing.CWMetricMonths, pricing.CWAlarmMonths)
	ev.bills = append(ev.bills, storeBill{"metrics",
		fmt.Sprintf("%d series, %d alarms", mon.SeriesCount(), mon.AlarmCount()),
		"10 metrics/10 alarms", list, billed})

	if !opts.DisableLogging {
		res, err := cloud.Logs.Query(logs.LambdaGroup(fn), reportQuery, from, zero)
		if err != nil {
			return fmt.Errorf("table3 REPORT query: %w", err)
		}
		l := reading{source: "logs"}
		for _, c := range []struct {
			q      quantity
			column string
			est    func(float64) estimate
		}{
			{qBilled, "billed", exact},
			{qRun, "run", func(v float64) estimate { return rounded(v, 0.01) }},
			{qPeak, "peak", func(v float64) estimate { return truncated(v, 1) }},
			{qCold, "cold", exact},
			{qInvocations, "n", exact},
		} {
			v, err := strconv.ParseFloat(res.Value(0, c.column), 64)
			if err != nil {
				return fmt.Errorf("table3 REPORT query column %s: %w", c.column, err)
			}
			l.q[c.q] = c.est(v)
		}
		ev.readings = append(ev.readings, l)
		list, billed := priceStore(book, cloud.Logs.Usage(), pricing.CWLogsIngestGB, pricing.CWLogsStorageGBMo)
		ev.bills = append(ev.bills, storeBill{"logs",
			fmt.Sprintf("%d bytes ingested, %d stored", cloud.Logs.IngestedBytes(), cloud.Logs.StoredBytes()),
			"5 GB/5 GB", list, billed})
	}

	if !opts.DisableTracing {
		views := cloud.Tracer.Window(from, zero)
		var billedMs, runMs []float64
		var cost pricing.Money
		cold := 0
		for i, v := range views {
			seg, ok := v.Find("lambda", fn)
			if !ok {
				return fmt.Errorf("table3 trace %d: no lambda segment", i)
			}
			b, err := annotatedMs(seg, "billed_ms")
			if err != nil {
				return fmt.Errorf("table3 trace %d: %w", i, err)
			}
			r, err := annotatedMs(seg, "run_ms")
			if err != nil {
				return fmt.Errorf("table3 trace %d: %w", i, err)
			}
			billedMs = append(billedMs, b)
			runMs = append(runMs, r)
			if c, _ := seg.Annotation("cold_start"); c == "true" {
				cold++
			}
			cost += v.Cost(book)
		}
		tr := reading{source: "traces"}
		tr.q[qBilled] = exact(nearestRank(billedMs, 50))
		tr.q[qRun] = truncated(nearestRank(runMs, 50), 1)
		tr.q[qCold] = exact(float64(cold))
		tr.q[qInvocations] = exact(float64(len(views)))
		tr.q[qCost] = exact(float64(cost.Nanodollars()))
		ev.readings = append(ev.readings, tr)
		st := cloud.Tracer.Stats()
		list, billed := priceStore(book, cloud.Tracer.Usage(), pricing.XRayTracesRecorded, pricing.XRayTracesScanned)
		ev.bills = append(ev.bills, storeBill{"x-ray",
			fmt.Sprintf("%d traces recorded, %d scanned", st.Stored, st.Scanned),
			"100k recorded/1M scanned", list, billed})
	}
	return nil
}

// annotatedMs reads a whole-millisecond annotation from a stored segment.
func annotatedMs(g trace.SegmentView, key string) (float64, error) {
	v, ok := g.Annotation(key)
	if !ok {
		return 0, fmt.Errorf("segment %s %s: no %s annotation", g.Service(), g.Op(), key)
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("segment %s %s: bad %s: %w", g.Service(), g.Op(), key, err)
	}
	return float64(ms), nil
}

// millis converts a duration to float milliseconds the way the lambda
// platform publishes it, so exact sources compare bit for bit.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// storeBill is one telemetry store's monthly bill for its inventory.
type storeBill struct {
	store, inventory, freeTier string
	list, billed               pricing.Money
}

// priceStore prices a store's usage at list and through the bill
// engine, whose lines of the given kinds apply the free tier.
func priceStore(book *pricing.PriceBook, usage []pricing.Usage, kinds ...pricing.Kind) (list, billed pricing.Money) {
	meter := pricing.NewMeter()
	for _, u := range usage {
		list += book.ListPrice(u)
		meter.Add(u)
	}
	return list, pricing.Compute(book, meter).TotalOf(kinds...)
}

// formatNum renders a reading in its shortest form at a millionth of a
// unit: a nanosecond of run time, about a byte of peak memory.
func formatNum(v float64) string {
	return strconv.FormatFloat(math.Round(v*1e6)/1e6, 'f', -1, 64)
}

// Render prints the reconciled quantities, one column per source, and
// each store's bill.
func (e *Table3Evidence) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 3 evidence, reconciled across %d sources (%d sends)\n", len(e.readings), e.sends)
	fmt.Fprintf(&sb, "  %-20s", "QUANTITY")
	for _, r := range e.readings {
		fmt.Fprintf(&sb, " %12s", strings.ToUpper(r.source))
	}
	sb.WriteString("\n")
	for q := range numQuantities {
		fmt.Fprintf(&sb, "  %-20s", quantityNames[q])
		for _, r := range e.readings {
			cell := "-"
			if est := r.q[q]; est.ok {
				cell = formatNum(est.v)
			}
			fmt.Fprintf(&sb, " %12s", cell)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("  p50s are nearest-rank, as CloudWatch computes them. Logs round run to 0.01 ms and floor\n")
	sb.WriteString("  peak to whole MB; traces truncate run to whole ms and carry no peak.\n")
	sb.WriteString("  meter: every send's metered usage equals its trace ledger, by quantity (relative 1e-9)\n")
	sb.WriteString("what holding the evidence bills per month (2017 list price):\n")
	for _, b := range e.bills {
		fmt.Fprintf(&sb, "  %-8s %-40s $%.6f list, $%.6f after the %s free tier\n",
			b.store, b.inventory, b.list.Dollars(), b.billed.Dollars(), b.freeTier)
	}
	return sb.String()
}
