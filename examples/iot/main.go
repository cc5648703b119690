// Iot demonstrates the DIY smart-home controller: device registration,
// command relay through the sealed commands queue, telemetry reports
// that trip alert rules, and the dashboard — with all state encrypted
// at rest in the user's own deployment.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	diy "repro"
	"repro/internal/apps/iot"
	"repro/internal/crypto/envelope"
)

func main() {
	log.SetFlags(0)

	cloud, err := diy.NewCloud(diy.CloudOptions{})
	if err != nil {
		log.Fatal(err)
	}
	d, err := diy.Install(cloud, "casey", diy.IoTApp{
		AlertRules: map[string]float64{"temperature_c": 60, "water_ppm": 500},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed IoT controller at %s\n", d.Endpoint)

	invoke := func(op string, v any) []byte {
		var body []byte
		if v != nil {
			body, _ = json.Marshal(v)
		}
		resp, _, err := d.Invoke(d.ClientContext(), op, body)
		if err != nil || resp.Status != 200 {
			log.Fatalf("%s: %v (status %d: %s)", op, err, resp.Status, resp.Body)
		}
		return resp.Body
	}

	// Register the home's devices.
	for _, dev := range []iot.Device{
		{Name: "thermostat", Kind: "climate"},
		{Name: "boiler", Kind: "climate"},
		{Name: "front-door", Kind: "security"},
	} {
		invoke("register", dev)
		fmt.Printf("registered %s (%s)\n", dev.Name, dev.Kind)
	}

	// The user's phone sends a command; the device long-polls for it.
	invoke("command", iot.Command{Device: "thermostat", Action: "set", Arg: "21C"})
	ctx := d.ClientContext()
	msgs, err := cloud.SQS.Receive(ctx, d.Queues[iot.CommandsQueue], 1, 20*time.Second)
	if err != nil || len(msgs) != 1 {
		log.Fatalf("device poll: %v (%d messages)", err, len(msgs))
	}
	dataKey, err := cloud.KMS.Decrypt(d.ClientContext(), d.WrappedKey)
	if err != nil {
		log.Fatal(err)
	}
	key, err := envelope.NewKey(dataKey)
	if err != nil {
		log.Fatal(err)
	}
	var cmd iot.Command
	if err := iot.OpenQueueJSON(key, msgs[0].Body, "command", &cmd); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("thermostat received sealed command: %s %s\n", cmd.Action, cmd.Arg)

	// Telemetry: the boiler overheats and trips an alert.
	invoke("report", iot.Report{Device: "boiler", Metrics: map[string]float64{"temperature_c": 45}})
	invoke("report", iot.Report{Device: "boiler", Metrics: map[string]float64{"temperature_c": 96}})
	alerts, err := cloud.SQS.Receive(d.ClientContext(), d.Queues[iot.AlertsQueue], 1, 20*time.Second)
	if err != nil || len(alerts) != 1 {
		log.Fatalf("alert poll: %v (%d messages)", err, len(alerts))
	}
	var alert iot.Alert
	if err := iot.OpenQueueJSON(key, alerts[0].Body, "alert", &alert); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ALERT on casey's phone: %s %s=%.0f (limit %.0f)\n",
		alert.Device, alert.Metric, alert.Value, alert.Limit)

	// Dashboard summary.
	var db iot.Dashboard
	if err := json.Unmarshal(invoke("dashboard", nil), &db); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndashboard: %d devices, %d queries relayed, %d alerts\n",
		len(db.Devices), db.Queries, db.Alerts)
	for _, dev := range db.Devices {
		fmt.Printf("  %-12s %-10s metrics=%v\n", dev.Name, dev.Kind, dev.Metrics)
	}

	fmt.Println("\nbill so far:")
	fmt.Print(cloud.Bill())
}
