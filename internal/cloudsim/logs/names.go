// Log group name registry. Mirrors the metric-name registry in
// internal/cloudsim/metrics/names.go: every log group name used by
// simulator or application code is minted here, either as a LogGroup*
// constant or by a builder function, and the diylint `loggroup`
// analyzer rejects ad-hoc string literals at emit sites. A typo'd
// group name would silently fork the evidence trail into a parallel
// group nobody queries — the same failure mode as a typo-split metric
// series.
//
// Convention: lowercase slash-separated segments, `<plane>/<entity>`
// (e.g. "kms/audit", "lambda/chat-fn", "plane/s3").
package logs

// Registered log group names. Prefix LogGroup, value lowercase
// slash-separated — both enforced by diylint.
const (
	// LogGroupKMSAudit receives one structured event per KMS API call,
	// mirroring the in-memory AuditEntry log that backs the paper's
	// "hardened, audited system" trust argument (§3).
	LogGroupKMSAudit = "kms/audit"
)

// PlaneGroup is the log group the plane interceptor writes a
// service's request events into: "plane/<service>".
func PlaneGroup(service string) string {
	return "plane/" + service
}

// LambdaGroup is the log group a function's platform lines
// (START/END/REPORT) land in: "lambda/<function>" — the simulator's
// analogue of /aws/lambda/<function>.
func LambdaGroup(fn string) string {
	return "lambda/" + fn
}
