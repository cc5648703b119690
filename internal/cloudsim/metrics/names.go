package metrics

import "sort"

// This file is the central registry of metric series names. Every name
// published through Service.Record in non-test code must be one of the
// Metric* constants below — a typo'd name would silently split a
// series into two (half the samples under "lambda.billed.ms", half
// under "lambda.billedms", and every windowed stat quietly wrong). The
// `metricname` diylint analyzer enforces both halves of the contract:
// Record call sites must pass a registry constant, and the constants
// themselves must be unique lowercase dot-separated identifiers.

// AccountNamespace is the namespace for account-wide rollup series
// (the per-(service, op) plane series use "service/op" namespaces).
const AccountNamespace = "account"

const (
	// Plane series, auto-published by PlaneInterceptor into a
	// "service/op" namespace for every call routed through plane.Do.
	MetricPlaneRequests  = "plane.requests"
	MetricPlaneErrors    = "plane.errors"
	MetricPlaneDenials   = "plane.denials"
	MetricPlaneLatencyMs = "plane.latency.ms"
	MetricPlaneCostNanos = "plane.cost.nanodollars"

	// MetricAccountCostNanos is a cumulative gauge of everything
	// PlaneInterceptor has priced so far, in nanodollars, under
	// AccountNamespace. The monthly budget alarm watches its Max.
	MetricAccountCostNanos = "account.cost.nanodollars"

	// Lambda per-invocation series, published by the lambda platform
	// into a per-function namespace.
	MetricLambdaRunMs    = "lambda.run.ms"
	MetricLambdaBilledMs = "lambda.billed.ms"
	MetricLambdaPeakMB   = "lambda.peak.mb"
	MetricLambdaCold     = "lambda.cold"
)

var registered = []string{
	MetricPlaneRequests,
	MetricPlaneErrors,
	MetricPlaneDenials,
	MetricPlaneLatencyMs,
	MetricPlaneCostNanos,
	MetricAccountCostNanos,
	MetricLambdaRunMs,
	MetricLambdaBilledMs,
	MetricLambdaPeakMB,
	MetricLambdaCold,
}

// Names returns every registered metric name, sorted.
func Names() []string {
	out := append([]string(nil), registered...)
	sort.Strings(out)
	return out
}

// Registered reports whether name is in the registry.
func Registered(name string) bool {
	for _, n := range registered {
		if n == name {
			return true
		}
	}
	return false
}
