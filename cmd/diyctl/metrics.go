package main

import (
	"fmt"
	"time"

	diy "repro"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

// metricsDemo walks the CloudWatch-sim observability layer: the plane
// interceptor auto-publishes RED+cost series for every service the
// chat workload touches, two alarms watch the spend and the lambda
// latency, and the dashboard itself shows up as a line on the bill.
func metricsDemo() error {
	fmt.Println("== CloudWatch-sim: RED metrics, alarms, and what observing costs ==")
	// Interactive runs measure the telemetry plane's own overhead on the
	// host clock; simulated/test runs never inject one, so they stay
	// deterministic and report zero.
	metrics.SetHostClock(func() int64 { return time.Now().UnixNano() })
	cloud, err := diy.NewCloud(diy.CloudOptions{Name: "metrics-demo", SelfTelemetry: true})
	if err != nil {
		return err
	}

	fmt.Println("\n-- installing group chat for 'casey' (members casey, dana)")
	room, err := diy.InstallChat(cloud, "casey", "casey", "dana")
	if err != nil {
		return err
	}
	casey := diy.NewChatClient(room, "casey", "laptop")
	dana := diy.NewChatClient(room, "dana", "phone")
	if _, err := casey.Session(); err != nil {
		return err
	}
	if _, err := dana.Session(); err != nil {
		return err
	}

	// Alarms go in before the traffic, anchored on the virtual clock so
	// the evaluation grid — and thus the transition log — is the same on
	// every run. The budget is deliberately tiny so the demo crosses it.
	const alarmPeriod = 10 * time.Minute
	budget := pricing.FromDollars(0.0002)
	fmt.Printf("\n-- arming a %s monthly budget alarm and a lambda latency alarm\n",
		fmt.Sprintf("$%.4f", budget.Dollars()))
	announce := func(tr metrics.Transition) { fmt.Printf("   [alarm] %s\n", tr) }
	budgetAlarm, err := cloud.Metrics.PutAlarm(
		metrics.BudgetAlarm("monthly-budget", budget, alarmPeriod), cloud.Clock.Now(), announce)
	if err != nil {
		return err
	}
	latencyAlarm, err := cloud.Metrics.PutAlarm(metrics.AlarmConfig{
		Name:        "chat-latency-avg",
		Namespace:   "lambda/" + room.FnName,
		Metric:      metrics.MetricPlaneLatencyMs,
		Stat:        metrics.StatAvg,
		Period:      alarmPeriod,
		EvalPeriods: 2,
		Comparison:  metrics.GreaterThanThreshold,
		Threshold:   1000, // ms; the simulated sends run far below this
		Missing:     metrics.MissingNotBreaching,
	}, cloud.Clock.Now(), announce)
	if err != nil {
		return err
	}

	fmt.Println("\n-- driving 40 chat sends (no per-service metrics code anywhere):")
	for i := 0; i < 40; i++ {
		cloud.Clock.Advance(90 * time.Second)
		if _, err := casey.Send(fmt.Sprintf("observable message %d", i)); err != nil {
			return err
		}
		if _, err := dana.Receive(nil, 20*time.Second); err != nil {
			return err
		}
	}
	// One unauthorized read against the room's bucket: the interceptor
	// files it under the denials series, not errors.
	mallory := &sim.Context{Principal: "mallory", App: "snoop", Cursor: sim.NewCursor(cloud.Clock.Now())}
	if _, err := cloud.S3.Get(mallory, room.Bucket, "history"); err == nil {
		return fmt.Errorf("mallory read the chat bucket")
	} else {
		fmt.Printf("   plus one snooping attempt, denied: %v\n", err)
	}

	// One catch-up call replays every elapsed alarm period in order.
	cloud.Metrics.EvaluateAlarms(cloud.Clock.Now().Add(alarmPeriod))

	var zero time.Time
	fmt.Println("\n-- per-op RED+cost (top table, whole run):")
	fmt.Printf("   %-34s %6s %5s %5s %9s %9s %14s\n",
		"SERIES", "REQS", "ERR", "DENY", "P50", "P99", "AVG $/REQ")
	for _, r := range cloud.Metrics.TopTable(zero, zero) {
		perReq := "-"
		if r.Requests > 0 {
			perReq = fmt.Sprintf("$%.9f", r.CostNanos/r.Requests/1e9)
		}
		fmt.Printf("   %-34s %6.0f %5.0f %5.0f %7.1fms %7.1fms %14s\n",
			r.Namespace, r.Requests, r.Errors, r.Denials, r.P50Ms, r.P99Ms, perReq)
	}

	fmt.Println("\n-- alarm states after the run:")
	for _, a := range []*metrics.Alarm{budgetAlarm, latencyAlarm} {
		fmt.Printf("   %-18s %s (%d transition(s))\n", a.Config().Name, a.State(), len(a.Transitions()))
	}

	fmt.Println("\n-- what this dashboard would cost at CloudWatch's 2017 prices:")
	var list pricing.Money
	obsMeter := pricing.NewMeter()
	for _, u := range cloud.Metrics.Usage() {
		list += cloud.Book.ListPrice(u)
		obsMeter.Add(u)
	}
	billed := pricing.Compute(cloud.Book, obsMeter).
		TotalOf(pricing.CWMetricMonths, pricing.CWAlarmMonths)
	fmt.Printf("   %d series + %d alarms -> $%.6f/mo list, $%.6f/mo after the 10/10 free tier\n",
		cloud.Metrics.SeriesCount(), cloud.Metrics.AlarmCount(), list.Dollars(), billed.Dollars())

	// The telemetry plane observing itself: its publication counters,
	// published as ordinary telemetry.* series through the same
	// registry it serves.
	cloud.PublishSelfTelemetry(cloud.Clock.Now())
	st := cloud.Metrics.SelfStats()
	ls := cloud.Logs.SelfStats()
	fmt.Println("\n-- telemetry self-observation (the cost of watching):")
	fmt.Printf("   metric samples published %8d\n", st.Samples)
	fmt.Printf("   log events ingested      %8d (%d bytes)\n", ls.Events, ls.Bytes)
	fmt.Printf("   interceptor overhead     %8.3f ms host time\n", float64(st.OverheadNs)/1e6)

	fmt.Println("\n-- Prometheus-style exposition (scrape of the whole run):")
	fmt.Print(indent(cloud.Metrics.Exposition(zero, zero)))
	return nil
}
