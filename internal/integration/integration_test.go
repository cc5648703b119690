// Package integration exercises multi-module scenarios end to end:
// several DIY apps sharing one cloud, region outages with failover,
// DDoS cost containment, wall-clock concurrent clients, and a
// month-scale combined workload priced against the paper's
// expectations.
package integration

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/apps/email"
	"repro/internal/apps/filetransfer"
	"repro/internal/apps/iot"
	"repro/internal/apps/video"
	"repro/internal/cloudsim/ec2"
	"repro/internal/cloudsim/gateway"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/sim"
	"repro/internal/core"
	"repro/internal/pricing"
	"repro/internal/spam"
	"repro/internal/store"
	"repro/internal/workload"
)

func newCloud(t *testing.T) *core.Cloud {
	t.Helper()
	c, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOneUserRunsTheWholeSuite installs all four serverless apps for
// one user on one cloud, drives traffic through each, and checks that
// the store's per-app resource report decomposes the shared meter.
func TestOneUserRunsTheWholeSuite(t *testing.T) {
	cloud := newCloud(t)
	s := store.New(cloud)
	apps := []struct {
		manifest store.Manifest
	}{
		{store.Manifest{Name: "chat", Version: 1, Audited: true, App: chat.App{Members: []string{"casey", "dana"}}}},
		{store.Manifest{Name: "email", Version: 1, Audited: true, App: email.App{SpamFilter: spam.NewFilter()}}},
		{store.Manifest{Name: "filetransfer", Version: 1, Audited: true, App: filetransfer.App{}}},
		{store.Manifest{Name: "iot", Version: 1, Audited: true, App: iot.App{AlertRules: map[string]float64{"temperature_c": 60}}}},
	}
	for _, a := range apps {
		if err := s.Publish(a.manifest); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Install("casey", a.manifest.Name); err != nil {
			t.Fatal(err)
		}
	}

	// Chat traffic.
	room, _ := s.Installed("casey", "chat")
	caseyChat := chat.NewClient(room, "casey", "laptop")
	if _, err := caseyChat.Session(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := caseyChat.Send(fmt.Sprintf("msg %d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Inbound mail.
	inCtx := &sim.Context{App: "email", Cursor: sim.NewCursor(cloud.Clock.Now())}
	err := cloud.SES.Deliver(inCtx, "x@remote.net", "casey@"+email.MailDomain,
		[]byte("Subject: integration\r\n\r\nbody\r\n"))
	if err != nil {
		t.Fatal(err)
	}

	// A file transfer.
	xfer, _ := s.Installed("casey", "filetransfer")
	req, _ := json.Marshal(filetransfer.UploadRequest{Name: "a.bin", To: "dana", Data: []byte("payload")})
	if resp, _, err := xfer.Invoke(xfer.ClientContext(), "upload", req); err != nil || resp.Status != 200 {
		t.Fatalf("upload: %v %d", err, resp.Status)
	}

	// IoT traffic.
	home, _ := s.Installed("casey", "iot")
	reg, _ := json.Marshal(iot.Device{Name: "thermostat"})
	if resp, _, err := home.Invoke(home.ClientContext(), "register", reg); err != nil || resp.Status != 200 {
		t.Fatalf("register: %v %d", err, resp.Status)
	}

	// Per-app attribution: the report's lambda totals must sum to the
	// meter's global total.
	reports := s.Report("casey")
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	var sum float64
	for _, r := range reports {
		if r.LambdaRequests <= 0 {
			t.Errorf("app %s reports no requests", r.App)
		}
		sum += r.LambdaRequests
	}
	if total := cloud.Meter.Total(pricing.LambdaRequests); sum != total {
		t.Fatalf("per-app requests sum %v != meter total %v", sum, total)
	}

	// Everything fits in the free tiers.
	if got := cloud.Bill().TotalOf(pricing.LambdaRequests, pricing.LambdaGBSeconds, pricing.SQSRequests, pricing.KMSRequests); got != 0 {
		t.Fatalf("compute bill = %v, want $0.00", got)
	}
}

// TestRegionOutageFailover takes the home region down mid-conversation:
// the serverless chat fails over transparently while the EC2-hosted
// video relay goes dark — the paper's availability contrast.
func TestRegionOutageFailover(t *testing.T) {
	cloud := newCloud(t)
	room, err := chat.Install(cloud, "casey", chat.App{Members: []string{"casey", "dana"}})
	if err != nil {
		t.Fatal(err)
	}
	casey := chat.NewClient(room, "casey", "laptop")
	if _, err := casey.Session(); err != nil {
		t.Fatal(err)
	}
	call, err := video.StartCall(cloud, "casey", "", cloud.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	call.Join("casey")
	call.Join("dana")

	// Healthy: both work.
	if stats, err := casey.Send("before outage"); err != nil || stats.Region != "us-west-2" {
		t.Fatalf("pre-outage send: %v region %s", err, stats.Region)
	}
	if err := call.SendFrame(nil, "casey", []byte("frame")); err != nil {
		t.Fatal(err)
	}

	// Outage.
	cloud.Model.SetOutage("us-west-2", true)
	stats, err := casey.Send("during outage")
	if err != nil {
		t.Fatalf("chat did not fail over: %v", err)
	}
	if stats.Region != "us-east-1" {
		t.Fatalf("send ran in %s, want us-east-1", stats.Region)
	}
	if err := call.SendFrame(nil, "casey", []byte("frame")); !errors.Is(err, ec2.ErrRegionDown) {
		t.Fatalf("VM relay survived the outage: %v", err)
	}

	// Recovery: traffic returns home.
	cloud.Model.SetOutage("us-west-2", false)
	if stats, err := casey.Send("after recovery"); err != nil || stats.Region != "us-west-2" {
		t.Fatalf("post-recovery send: %v region %s", err, stats.Region)
	}
	// No message was lost across the outage.
	hist, err := casey.History()
	if err != nil || len(hist) != 3 {
		t.Fatalf("history after outage: %v, %d messages", err, len(hist))
	}
}

// TestDDoSCostContainment floods a throttled deployment and checks the
// billable damage is bounded (the §8.2 concern).
func TestDDoSCostContainment(t *testing.T) {
	cloud := newCloud(t)
	d, err := core.Install(cloud, "victim", throttledNotes{})
	if err != nil {
		t.Fatal(err)
	}
	before := cloud.Meter.Total(pricing.LambdaRequests)
	blocked := 0
	for i := 0; i < 5000; i++ {
		// Every attack request arrives at the same instant from a
		// fresh connection.
		ctx := &sim.Context{Cursor: sim.NewCursor(cloud.Clock.Now()), External: true}
		_, _, err := d.Invoke(ctx, "get", nil)
		if errors.Is(err, gateway.ErrThrottled) {
			blocked++
		}
	}
	invoked := cloud.Meter.Total(pricing.LambdaRequests) - before
	if blocked < 4900 {
		t.Fatalf("only %d of 5000 attack requests throttled", blocked)
	}
	if invoked > 100 {
		t.Fatalf("attack caused %v billed invocations", invoked)
	}
}

type throttledNotes struct{}

func (throttledNotes) Name() string { return "notes" }
func (throttledNotes) Spec() core.AppSpec {
	return core.AppSpec{Endpoint: "/api", Limit: gateway.Limit{RPS: 5, Burst: 20}}
}
func (throttledNotes) Handler() lambda.Handler {
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		env.Compute(5 * time.Millisecond)
		return lambda.Response{Status: 200}, nil
	}
}

// TestWallClockConcurrentChat drives the chat service with real
// goroutines and cursorless receives: each poll resolves at once on a
// cursor started at the cloud clock's now.
func TestWallClockConcurrentChat(t *testing.T) {
	cloud := newCloud(t)
	room, err := chat.Install(cloud, "casey", chat.App{Members: []string{"casey", "dana"}})
	if err != nil {
		t.Fatal(err)
	}
	casey := chat.NewClient(room, "casey", "laptop")
	dana := chat.NewClient(room, "dana", "phone")
	if _, err := casey.Session(); err != nil {
		t.Fatal(err)
	}
	if _, err := dana.Session(); err != nil {
		t.Fatal(err)
	}

	const n = 10
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := casey.Send(fmt.Sprintf("wall-clock %d", i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	received := 0
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(10 * time.Second)
		for received < n && time.Now().Before(deadline) {
			// No cursor: the poll runs on one at the clock's now.
			ctx := &sim.Context{Principal: room.ClientRole, App: "chat"}
			msgs, err := dana.Receive(ctx, 200*time.Millisecond)
			if err != nil {
				t.Errorf("receive: %v", err)
				return
			}
			received += len(msgs)
		}
	}()
	wg.Wait()
	if received != n {
		t.Fatalf("received %d of %d messages over cursorless polls", received, n)
	}
}

// TestMonthScaleCombinedBill replays a compressed month (2 simulated
// days extrapolated ×15) of the paper's workloads across chat and
// email and confirms the total stays in the cents regime Table 2
// promises.
func TestMonthScaleCombinedBill(t *testing.T) {
	if testing.Short() {
		t.Skip("month-scale replay")
	}
	cloud := newCloud(t)
	group := workload.SlackGroup{
		Members:     []string{"m0", "m1", "m2", "m3", "m4"},
		MsgsPerWeek: 5000, Seed: 3,
	}
	room, err := chat.Install(cloud, "team", chat.App{Members: group.Members})
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[string]*chat.Client)
	for _, m := range group.Members {
		c := chat.NewClient(room, m, "d")
		if _, err := c.Session(); err != nil {
			t.Fatal(err)
		}
		clients[m] = c
	}
	days := 2 * 24 * time.Hour
	for _, ev := range group.Trace(cloud.Clock.Now(), days) {
		cloud.Clock.Set(ev.At)
		if _, err := clients[ev.From].Send(ev.Body); err != nil {
			t.Fatal(err)
		}
	}
	// Extrapolate 2 days -> 30 and accrue storage for the month.
	snap := cloud.Meter.Snapshot()
	for _, u := range snap {
		u.Quantity *= 14 // add the remaining 28 days
		cloud.Meter.Add(u)
	}
	cloud.S3.AccrueStorage(pricing.Month, "chat")

	bill := cloud.Bill()
	total := bill.Total().Dollars()
	// ~1400 msgs/day for the group: compute still free; request fees
	// put the total in the tens of cents, far below the $4.58 VM.
	if compute := bill.TotalOf(pricing.LambdaRequests, pricing.LambdaGBSeconds); compute != 0 {
		t.Errorf("compute bill %v, want $0.00", compute)
	}
	if total > 1.0 {
		t.Errorf("month total $%.2f, want well under $1", total)
	}
}
