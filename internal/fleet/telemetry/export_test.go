package telemetry

import "repro/internal/cloudsim/metrics"

// Store exposes the tower's fleet-level metrics store (read-only by
// convention; populated once Finalize has run).
func (t *Tower) Store() *metrics.Service { return t.store }
