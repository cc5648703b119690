package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
)

// TestCloudWiring checks the sinks NewCloud hands the services at
// construction. Lambda's lambda.* samples are the Table 3 statistics,
// so they are published with logging on and off alike; the platform's
// REPORT lines and the KMS audit group are log sinks, so they exist
// only when logging is on. The in-memory KMS audit log records either
// way.
func TestCloudWiring(t *testing.T) {
	for _, logging := range []bool{true, false} {
		c, err := NewCloud(CloudOptions{DisableLogging: !logging})
		if err != nil {
			t.Fatal(err)
		}
		d := install(t, c, "alice")
		if _, _, err := d.Invoke(d.ClientContext(), "put", []byte("note")); err != nil {
			t.Fatal(err)
		}

		var zero time.Time
		for _, m := range []string{metrics.MetricLambdaRunMs, metrics.MetricLambdaBilledMs, metrics.MetricLambdaPeakMB, metrics.MetricLambdaCold} {
			if n := c.Metrics.Count(d.FnName, m, zero, zero); n != 1 {
				t.Errorf("logging=%v: %s has %d samples, want 1", logging, m, n)
			}
		}

		reports := 0
		for _, e := range c.Logs.Tail(logs.LambdaGroup(d.FnName), 0) {
			if strings.HasPrefix(e.Message, "REPORT RequestId: ") {
				reports++
			}
		}
		audits := len(c.Logs.Tail(logs.LogGroupKMSAudit, 0))
		if logging && (reports != 1 || audits == 0) {
			t.Errorf("logging on: %d REPORT lines and %d kms/audit events, want 1 and some", reports, audits)
		}
		if !logging && (reports != 0 || audits != 0) {
			t.Errorf("logging off: %d REPORT lines and %d kms/audit events, want none", reports, audits)
		}
		if len(c.KMS.Audit()) == 0 {
			t.Errorf("logging=%v: the in-memory KMS audit log is empty", logging)
		}
	}
}
