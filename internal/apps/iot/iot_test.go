package iot

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
)

func newHome(t *testing.T) (*core.Cloud, *core.Deployment) {
	t.Helper()
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Install(cloud, "alice", App{
		AlertRules: map[string]float64{"temperature_c": 60, "water_ppm": 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cloud, d
}

func do(t *testing.T, d *core.Deployment, op string, v any) (int, []byte) {
	t.Helper()
	var body []byte
	switch x := v.(type) {
	case nil:
	case []byte:
		body = x
	default:
		var err error
		body, err = json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, _, err := d.Invoke(d.ClientContext(), op, body)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return resp.Status, resp.Body
}

func dataKey(t *testing.T, d *core.Deployment) envelope.Key {
	t.Helper()
	raw, err := d.Cloud.KMS.Decrypt(d.ClientContext(), d.WrappedKey)
	if err != nil {
		t.Fatal(err)
	}
	key, err := envelope.NewKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestRegisterAndDashboard(t *testing.T) {
	_, d := newHome(t)
	if st, _ := do(t, d, "register", Device{Name: "thermostat", Kind: "climate"}); st != 200 {
		t.Fatalf("register status %d", st)
	}
	if st, _ := do(t, d, "register", Device{Name: "doorlock", Kind: "security"}); st != 200 {
		t.Fatalf("register status %d", st)
	}
	// Duplicate registration is refused.
	if st, _ := do(t, d, "register", Device{Name: "thermostat"}); st != 409 {
		t.Fatalf("dup register status %d", st)
	}
	st, body := do(t, d, "dashboard", nil)
	if st != 200 {
		t.Fatalf("dashboard status %d", st)
	}
	var db Dashboard
	if err := json.Unmarshal(body, &db); err != nil {
		t.Fatal(err)
	}
	if len(db.Devices) != 2 || db.Devices[0].Name != "doorlock" {
		t.Fatalf("dashboard = %+v", db)
	}
}

func TestCommandRelay(t *testing.T) {
	cloud, d := newHome(t)
	do(t, d, "register", Device{Name: "thermostat", Kind: "climate"})
	if st, _ := do(t, d, "command", Command{Device: "thermostat", Action: "set", Arg: "21C"}); st != 200 {
		t.Fatalf("command status %d", st)
	}
	// The device long-polls its commands queue and opens the payload.
	ctx := d.ClientContext()
	msgs, err := cloud.SQS.Receive(ctx, d.Queues[CommandsQueue], 1, 20*time.Second)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("device poll: %v, %d msgs", err, len(msgs))
	}
	var cmd Command
	if err := OpenQueueJSON(dataKey(t, d), msgs[0].Body, "command", &cmd); err != nil {
		t.Fatal(err)
	}
	if cmd.Action != "set" || cmd.Arg != "21C" {
		t.Fatalf("command = %+v", cmd)
	}
}

func TestCommandUnknownDevice(t *testing.T) {
	_, d := newHome(t)
	if st, _ := do(t, d, "command", Command{Device: "ghost", Action: "x"}); st != 404 {
		t.Fatalf("unknown device status %d", st)
	}
}

func TestQueryStatistics(t *testing.T) {
	_, d := newHome(t)
	do(t, d, "register", Device{Name: "thermostat"})
	for i := 0; i < 3; i++ {
		do(t, d, "command", Command{Device: "thermostat", Action: "read"})
	}
	_, body := do(t, d, "dashboard", nil)
	var db Dashboard
	json.Unmarshal(body, &db)
	if db.Queries != 3 || db.Devices[0].Queries != 3 {
		t.Fatalf("stats: total %d device %d, want 3/3", db.Queries, db.Devices[0].Queries)
	}
}

func TestTelemetryAndAlerts(t *testing.T) {
	cloud, d := newHome(t)
	do(t, d, "register", Device{Name: "boiler"})

	// Nominal report: no alert.
	st, body := do(t, d, "report", Report{Device: "boiler", Metrics: map[string]float64{"temperature_c": 45}})
	if st != 200 || string(body) != "0" {
		t.Fatalf("nominal report: status %d fired %s", st, body)
	}
	// Overheat: alert fires.
	st, body = do(t, d, "report", Report{Device: "boiler", Metrics: map[string]float64{"temperature_c": 95}})
	if st != 200 || string(body) != "1" {
		t.Fatalf("overheat report: status %d fired %s", st, body)
	}
	ctx := d.ClientContext()
	msgs, err := cloud.SQS.Receive(ctx, d.Queues[AlertsQueue], 1, 20*time.Second)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("alert poll: %v, %d msgs", err, len(msgs))
	}
	var alert Alert
	if err := OpenQueueJSON(dataKey(t, d), msgs[0].Body, "alert", &alert); err != nil {
		t.Fatal(err)
	}
	if alert.Device != "boiler" || alert.Metric != "temperature_c" || alert.Value != 95 {
		t.Fatalf("alert = %+v", alert)
	}
	// The dashboard reflects the latest metrics and the alert count.
	_, dbBody := do(t, d, "dashboard", nil)
	var db Dashboard
	json.Unmarshal(dbBody, &db)
	if db.Alerts != 1 || db.Devices[0].Metrics["temperature_c"] != 95 {
		t.Fatalf("dashboard after alert = %+v", db)
	}
	if db.Devices[0].LastSeen.IsZero() {
		t.Fatal("last seen not updated")
	}
}

func TestReportUnknownDevice(t *testing.T) {
	_, d := newHome(t)
	if st, _ := do(t, d, "report", Report{Device: "ghost"}); st != 404 {
		t.Fatalf("unknown device report status %d", st)
	}
}

func TestValidation(t *testing.T) {
	_, d := newHome(t)
	if st, _ := do(t, d, "register", []byte("junk")); st != 400 {
		t.Fatalf("junk register status %d", st)
	}
	if st, _ := do(t, d, "command", Command{}); st != 400 {
		t.Fatalf("empty command status %d", st)
	}
	if st, _ := do(t, d, "report", []byte("junk")); st != 400 {
		t.Fatalf("junk report status %d", st)
	}
	if st, _ := do(t, d, "selfdestruct", nil); st != 400 {
		t.Fatalf("unknown op status %d", st)
	}
}

func TestRegistryAtRestIsSealed(t *testing.T) {
	cloud, d := newHome(t)
	do(t, d, "register", Device{Name: "secret-camera", Kind: "video"})
	admin := &sim.Context{Principal: d.Role}
	obj, err := cloud.S3.Get(admin, d.Bucket, "registry")
	if err != nil {
		t.Fatal(err)
	}
	if !envelope.IsSealed(obj.Data) || bytes.Contains(obj.Data, []byte("secret-camera")) {
		t.Fatal("registry leaks plaintext")
	}
}

// A failed registry read must fail the request, not be taken for an
// empty registry: saving an empty registry over an unreadable one would
// forget every device.
func TestUnreadableRegistryFailsAndKeepsDevices(t *testing.T) {
	cloud, d := newHome(t)
	if st, _ := do(t, d, "register", Device{Name: "thermostat", Kind: "climate"}); st != 200 {
		t.Fatalf("register status %d", st)
	}
	role, _ := cloud.IAM.Role(d.Role)
	orig := *role
	denied := orig
	denied.Policies = append(append([]iam.Policy(nil), orig.Policies...), iam.Policy{
		Name:       "deny-state-reads",
		Statements: []iam.Statement{iam.DenyStatement([]string{s3.ActionGet}, []string{"*"})},
	})
	if err := cloud.IAM.PutRole(&denied); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(Device{Name: "doorlock", Kind: "security"})
	if resp, _, err := d.Invoke(d.ClientContext(), "register", body); err == nil && resp.Status == 200 {
		t.Fatal("register succeeded although the registry could not be read")
	}
	if err := cloud.IAM.PutRole(&orig); err != nil {
		t.Fatal(err)
	}
	_, out := do(t, d, "dashboard", nil)
	var db Dashboard
	if err := json.Unmarshal(out, &db); err != nil {
		t.Fatal(err)
	}
	if len(db.Devices) != 1 || db.Devices[0].Name != "thermostat" {
		t.Fatalf("dashboard after the failed read = %+v", db)
	}
}
