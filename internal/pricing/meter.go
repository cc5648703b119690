package pricing

import (
	"sort"
	"sync"
)

// Kind identifies a billable usage dimension.
type Kind string

// The usage dimensions metered by the simulated services.
const (
	LambdaRequests  Kind = "lambda-requests"   // count
	LambdaGBSeconds Kind = "lambda-gb-seconds" // GB-seconds
	S3StorageGBMo   Kind = "s3-storage-gb-mo"  // GB-months
	S3PutRequests   Kind = "s3-put-requests"   // count
	S3GetRequests   Kind = "s3-get-requests"   // count
	TransferOutGB   Kind = "transfer-out-gb"   // GB
	SQSRequests     Kind = "sqs-requests"      // count
	KMSRequests     Kind = "kms-requests"      // count
	KMSCustomerKeys Kind = "kms-customer-keys" // key-months
	SESMessages     Kind = "ses-messages"      // count
	EC2Seconds      Kind = "ec2-seconds"       // seconds (Resource = instance type)
	DynamoWCU       Kind = "dynamo-wcu"        // consumed write capacity units
	DynamoRCU       Kind = "dynamo-rcu"        // consumed read capacity units
	CWMetricMonths  Kind = "cw-metric-months"  // custom-metric months (CloudWatch)
	CWAlarmMonths   Kind = "cw-alarm-months"   // alarm-months (CloudWatch)

	CWLogsIngestGB    Kind = "cw-logs-ingest-gb"     // GB ingested (CloudWatch Logs)
	CWLogsStorageGBMo Kind = "cw-logs-storage-gb-mo" // GB-months stored (CloudWatch Logs)

	XRayTracesRecorded Kind = "xray-traces-recorded" // traces recorded (X-Ray)
	XRayTracesScanned  Kind = "xray-traces-scanned"  // traces retrieved/scanned (X-Ray)
)

// Usage is one metered quantity.
type Usage struct {
	Kind Kind
	// Quantity in the kind's unit (counts, GB, GB-seconds, ...).
	Quantity float64
	// Resource is a kind-specific dimension, e.g. the EC2 instance
	// type, whose unit price differs per resource.
	Resource string
	// App attributes the usage to a deployed application, feeding the
	// app store's per-app resource report.
	App string
}

// Meter accumulates usage records. It is safe for concurrent use.
// The zero value is not ready; construct with NewMeter.
type Meter struct {
	mu    sync.Mutex
	byKey map[meterKey]float64
}

type meterKey struct {
	kind     Kind
	resource string
	app      string
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{byKey: make(map[meterKey]float64)}
}

// Add records a usage quantity. Zero and negative quantities are
// ignored: services only ever consume.
func (m *Meter) Add(u Usage) {
	if u.Quantity <= 0 {
		return
	}
	m.mu.Lock()
	m.byKey[meterKey{u.Kind, u.Resource, u.App}] += u.Quantity
	m.mu.Unlock()
}

// Total reports the summed quantity for a kind across all resources and
// apps.
func (m *Meter) Total(k Kind) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	for key, q := range m.byKey {
		if key.kind == k {
			sum += q
		}
	}
	return sum
}

// TotalFor reports the summed quantity for a kind attributed to one app.
func (m *Meter) TotalFor(k Kind, app string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	for key, q := range m.byKey {
		if key.kind == k && key.app == app {
			sum += q
		}
	}
	return sum
}

// ByResource reports the per-resource quantities for a kind (e.g.
// EC2 seconds per instance type).
func (m *Meter) ByResource(k Kind) map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64)
	for key, q := range m.byKey {
		if key.kind == k {
			out[key.resource] += q
		}
	}
	return out
}

// Snapshot returns a copy of the per-(kind,resource,app) quantities,
// for migration of usage reports between clouds and for tests.
func (m *Meter) Snapshot() []Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedUsage(m.byKey)
}

// Aggregate sums usage records by (kind, resource, app) and returns
// one record per key in Snapshot order — the shape a meter diff across
// the same records would produce, so the two compare record for
// record. Unlike Meter.Add it keeps zero and negative quantities: it
// reports what was recorded, not what a meter would bill.
func Aggregate(us []Usage) []Usage {
	sums := make(map[meterKey]float64)
	for _, u := range us {
		sums[meterKey{u.Kind, u.Resource, u.App}] += u.Quantity
	}
	return sortedUsage(sums)
}

// sortedUsage flattens per-key sums into records ordered by kind, then
// resource, then app.
func sortedUsage(sums map[meterKey]float64) []Usage {
	out := make([]Usage, 0, len(sums))
	for key, q := range sums {
		out = append(out, Usage{Kind: key.kind, Quantity: q, Resource: key.resource, App: key.app})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.App < b.App
	})
	return out
}
