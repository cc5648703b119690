// Package iot implements the paper's IoT controller (§6.1): "An IoT
// controller, which relays user queries to IoT devices ... The
// function stores statistics/metadata about the queries and then
// relays the request to an IoT connected device. The function may also
// serve other features available in centralized IoT services, such as
// dashboards and alerts (where alerts are generated by IoT devices
// making requests to the service)."
//
// Devices long-poll the commands queue; the user's phone long-polls
// the alerts queue. All state — the device registry, query statistics,
// telemetry — is envelope-encrypted in the deployment bucket.
package iot

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sortutil"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
)

// Queue suffixes.
const (
	CommandsQueue = "commands"
	AlertsQueue   = "alerts"
)

const baseMemory = 30 << 20

// App is the DIY IoT controller application.
type App struct {
	// AlertRules maps a metric name to the threshold above which a
	// device report raises an alert (e.g. "temperature_c" -> 60).
	AlertRules map[string]float64
}

// Name implements core.App.
func (App) Name() string { return "iot" }

// Spec implements core.App: the Table 2 IoT row — a 128 MB function,
// 500 ms requests.
func (App) Spec() core.AppSpec {
	return core.AppSpec{
		MemoryMB:         128,
		Timeout:          30 * time.Second,
		Endpoint:         "/iot",
		Queues:           []string{CommandsQueue, AlertsQueue},
		CacheDataKeys:    true,
		ClientCanDecrypt: true,
		EstCompute:       500 * time.Millisecond, // Table 2 row 4
		Code:             []byte("diy-iot:controller:v1"),
	}
}

// Device is one registered device's sealed record.
type Device struct {
	Name       string             `json:"name"`
	Kind       string             `json:"kind"`
	Registered time.Time          `json:"registered"`
	LastSeen   time.Time          `json:"last_seen"`
	Metrics    map[string]float64 `json:"metrics"`
	Queries    int                `json:"queries"`
}

// registry is the sealed device registry + statistics document.
type registry struct {
	Devices map[string]*Device `json:"devices"`
	Queries int                `json:"queries"`
	Alerts  int                `json:"alerts"`
}

// Command is a relayed user query.
type Command struct {
	Device string `json:"device"`
	Action string `json:"action"`
	Arg    string `json:"arg,omitempty"`
}

// Report is a device telemetry payload.
type Report struct {
	Device  string             `json:"device"`
	Metrics map[string]float64 `json:"metrics"`
}

// Alert is posted to the alerts queue when a rule fires.
type Alert struct {
	Device string  `json:"device"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Limit  float64 `json:"limit"`
}

// Dashboard is the "dashboard" op response.
type Dashboard struct {
	Devices []Device `json:"devices"`
	Queries int      `json:"queries"`
	Alerts  int      `json:"alerts"`
}

// Handler implements core.App. Operations:
//
//	op "register":  body = Device JSON (name, kind)
//	op "command":   body = Command JSON; relayed to the commands queue
//	op "report":    body = Report JSON from a device; updates metrics
//	                and raises alerts per the rules
//	op "dashboard": returns the Dashboard JSON
func (a App) Handler() lambda.Handler {
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		h := &iotHandler{env: env, app: a}
		switch ev.Op {
		case "register":
			return h.register(ev.Body)
		case "command":
			return h.command(ev.Body)
		case "report":
			return h.report(ev.Body)
		case "dashboard":
			return h.dashboard()
		default:
			return lambda.Response{Status: 400, Body: []byte("unknown op")}, nil
		}
	}
}

type iotHandler struct {
	env *lambda.Env
	app App
}

func (h *iotHandler) key() ([]byte, error) {
	wrapped, err := hex.DecodeString(h.env.Config(core.ConfigWrappedKey))
	if err != nil {
		return nil, fmt.Errorf("iot: bad wrapped key config: %w", err)
	}
	return h.env.DataKey(wrapped)
}

func (h *iotHandler) bucket() string { return h.env.Config(core.ConfigBucket) }

// loadRegistry fetches and opens the device registry. Only a missing
// object means an empty registry; any other read failure is returned,
// since saving an empty registry over an unreadable one would forget
// every device.
func (h *iotHandler) loadRegistry(key []byte) (*registry, error) {
	obj, err := h.env.S3().Get(h.env.Ctx(), h.bucket(), "registry")
	if errors.Is(err, s3.ErrNoSuchKey) {
		return &registry{Devices: make(map[string]*Device)}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("iot: reading registry: %w", err)
	}
	pt, err := envelope.Open(key, obj.Data, []byte("registry"))
	if err != nil {
		return nil, fmt.Errorf("iot: opening registry: %w", err)
	}
	r, err := parseRegistry(pt)
	if err != nil {
		return nil, fmt.Errorf("iot: parsing registry: %w", err)
	}
	if r.Devices == nil {
		r.Devices = make(map[string]*Device)
	}
	return r, nil
}

func (h *iotHandler) saveRegistry(key []byte, r *registry) error {
	buf, err := marshalRegistry(r)
	if err != nil {
		return err
	}
	sealed, err := envelope.SealInPlace(key, buf, []byte("registry"))
	if err != nil {
		return err
	}
	return h.env.S3().Put(h.env.Ctx(), h.bucket(), "registry", sealed)
}

func (h *iotHandler) register(body []byte) (lambda.Response, error) {
	h.env.RecordMemory(baseMemory)
	h.env.Compute(4 * time.Millisecond)
	var dev Device
	if err := json.Unmarshal(body, &dev); err != nil || dev.Name == "" {
		return lambda.Response{Status: 400, Body: []byte("register needs a device name")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	r, err := h.loadRegistry(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if _, dup := r.Devices[dev.Name]; dup {
		return lambda.Response{Status: 409, Body: []byte("device already registered")}, nil
	}
	dev.Registered = h.env.Ctx().Cursor.Now()
	dev.Metrics = make(map[string]float64)
	r.Devices[dev.Name] = &dev
	if err := h.saveRegistry(key, r); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200}, nil
}

// command stores query statistics and relays the request to the
// device's queue, sealed.
func (h *iotHandler) command(body []byte) (lambda.Response, error) {
	h.env.RecordMemory(baseMemory)
	h.env.Compute(4 * time.Millisecond)
	var cmd Command
	if err := json.Unmarshal(body, &cmd); err != nil || cmd.Device == "" || cmd.Action == "" {
		return lambda.Response{Status: 400, Body: []byte("command needs device and action")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	r, err := h.loadRegistry(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	dev, ok := r.Devices[cmd.Device]
	if !ok {
		return lambda.Response{Status: 404, Body: []byte("unknown device")}, nil
	}
	dev.Queries++
	r.Queries++
	if err := h.saveRegistry(key, r); err != nil {
		return lambda.Response{Status: 500}, err
	}
	sealed, err := envelope.Seal(key, marshalCommand(&cmd), []byte("command"))
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	qname := h.env.Config(core.ConfigQueuePref + CommandsQueue)
	if _, err := h.env.SQS().Send(h.env.Ctx(), qname, sealed); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200}, nil
}

// report ingests device telemetry and raises alerts.
func (h *iotHandler) report(body []byte) (lambda.Response, error) {
	h.env.RecordMemory(baseMemory)
	h.env.Compute(4 * time.Millisecond)
	rep, err := decodeReport(body)
	if err != nil || rep.Device == "" {
		return lambda.Response{Status: 400, Body: []byte("report needs a device")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	r, err := h.loadRegistry(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	dev, ok := r.Devices[rep.Device]
	if !ok {
		return lambda.Response{Status: 404, Body: []byte("unknown device")}, nil
	}
	dev.LastSeen = h.env.Ctx().Cursor.Now()
	fired := 0
	// Alerts land on the queue (and in the ledger) in iteration order,
	// so walk the metrics sorted — a raw map range would reorder them
	// per run.
	for _, metric := range sortutil.SortedKeys(rep.Metrics) {
		value := rep.Metrics[metric]
		dev.Metrics[metric] = value
		limit, ruled := h.app.AlertRules[metric]
		if !ruled || value <= limit {
			continue
		}
		r.Alerts++
		fired++
		notice, err := marshalAlert(&Alert{Device: rep.Device, Metric: metric, Value: value, Limit: limit})
		if err != nil {
			return lambda.Response{Status: 500}, err
		}
		sealed, err := envelope.Seal(key, notice, []byte("alert"))
		if err != nil {
			return lambda.Response{Status: 500}, err
		}
		qname := h.env.Config(core.ConfigQueuePref + AlertsQueue)
		if _, err := h.env.SQS().Send(h.env.Ctx(), qname, sealed); err != nil {
			return lambda.Response{Status: 500}, err
		}
	}
	if err := h.saveRegistry(key, r); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: []byte(strconv.Itoa(fired))}, nil
}

func (h *iotHandler) dashboard() (lambda.Response, error) {
	h.env.RecordMemory(baseMemory)
	h.env.Compute(5 * time.Millisecond)
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	r, err := h.loadRegistry(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	db := Dashboard{Queries: r.Queries, Alerts: r.Alerts}
	names := make([]string, 0, len(r.Devices))
	for n := range r.Devices {
		names = append(names, n)
	}
	sort.Strings(names) // stable ordering for clients
	for _, n := range names {
		db.Devices = append(db.Devices, *r.Devices[n])
	}
	out, err := marshalDashboard(&db)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: out}, nil
}

// OpenQueueJSON opens a sealed queue payload into v — the client- and
// device-side helper for commands and alerts.
func OpenQueueJSON(dataKey, sealed []byte, aad string, v any) error {
	pt, err := envelope.Open(dataKey, sealed, []byte(aad))
	if err != nil {
		return err
	}
	return json.Unmarshal(pt, v)
}
