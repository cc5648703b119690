package main

import (
	"fmt"
	"time"

	diy "repro"
	"repro/internal/cloudsim/logs"
	"repro/internal/pricing"
)

// logsDemo walks the CloudWatch Logs-sim plane: every API call the
// chat workload makes lands in a plane/<service> group, the lambda
// platform writes real-shaped START/END/REPORT lines, KMS mirrors its
// audit trail into kms/audit, and an Insights-style query engine
// turns the raw text back into the numbers the operator cares about.
func logsDemo() error {
	fmt.Println("== CloudWatch Logs-sim: structured logs, REPORT lines, Insights queries ==")
	cloud, err := diy.NewCloud(diy.CloudOptions{Name: "logs-demo"})
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

	fmt.Println("\n-- driving 25 chat sends (no logging code in the app):")
	for i := 0; i < 25; i++ {
		cloud.Clock.Advance(90 * time.Second)
		if _, err := casey.Send(fmt.Sprintf("logged message %d", i)); err != nil {
			return err
		}
		if _, err := dana.Receive(nil, 20*time.Second); err != nil {
			return err
		}
	}
	fmt.Println("   done; every call left a line in the log plane")

	fmt.Println("\n-- log groups after the run:")
	fmt.Printf("   %-24s %8s %8s %10s\n", "GROUP", "STREAMS", "EVENTS", "BYTES")
	for _, g := range cloud.Logs.Inventory() {
		fmt.Printf("   %-24s %8d %8d %10d\n", g.Name, g.Streams, g.Events, g.Bytes)
	}

	fmt.Printf("\n-- tail %s (last 3 events, what `aws logs tail` would show):\n",
		logs.LambdaGroup(room.FnName))
	for _, e := range cloud.Logs.Tail(logs.LambdaGroup(room.FnName), 3) {
		fmt.Printf("   [%s] %s\n", e.Stream, firstLine(e.Message))
	}

	// Each query names its group by a registry expression at the call
	// site — the loggroup analyzer's call-site rule, demonstrated.
	var zero time.Time
	show := func(title, q string, res *logs.QueryResult, err error) error {
		if err != nil {
			return err
		}
		fmt.Printf("\n-- insights: %s\n", title)
		fmt.Printf("   query> %s\n", q)
		fmt.Print(indent(res.Render()))
		return nil
	}
	qBilled := `filter @message like "REPORT RequestId" | parse @message "Billed Duration: * ms" as billed_ms | stats count(*) as invokes, pct(billed_ms, 50) as med_billed_ms`
	res, err := cloud.Logs.Query(logs.LambdaGroup(room.FnName), qBilled, zero, zero)
	if err := show("median billed duration from REPORT lines alone", qBilled, res, err); err != nil {
		return err
	}
	qMix := `stats count(*) as calls by @logStream, outcome | sort calls desc`
	res, err = cloud.Logs.Query(logs.PlaneGroup("s3"), qMix, zero, zero)
	if err := show("request mix on the S3 plane", qMix, res, err); err != nil {
		return err
	}
	qKMS := `stats count(*) as calls by principal, action | sort calls desc | limit 5`
	res, err = cloud.Logs.Query(logs.LogGroupKMSAudit, qKMS, zero, zero)
	if err := show("KMS activity by principal", qKMS, res, err); err != nil {
		return err
	}

	fmt.Println("\n-- what this evidence trail costs at CloudWatch Logs' 2017 prices:")
	var list pricing.Money
	logMeter := pricing.NewMeter()
	for _, u := range cloud.Logs.Usage() {
		list += cloud.Book.ListPrice(u)
		logMeter.Add(u)
	}
	billed := pricing.Compute(cloud.Book, logMeter).
		TotalOf(pricing.CWLogsIngestGB, pricing.CWLogsStorageGBMo)
	fmt.Printf("   %d bytes ingested, %d stored -> $%.6f/mo list, $%.6f/mo after the 5 GB/5 GB free tier\n",
		cloud.Logs.IngestedBytes(), cloud.Logs.StoredBytes(), list.Dollars(), billed.Dollars())
	return nil
}

// firstLine trims a multi-segment log message for one-line display.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
