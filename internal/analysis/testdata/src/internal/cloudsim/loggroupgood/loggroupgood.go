// Package loggroupgood names log groups by registry expression at
// every store-API call site; loggroup must stay silent.
package loggroupgood

import (
	"time"

	"repro/internal/cloudsim/logs"
)

// Emit reads across groups, deriving every group name from the logs
// package at the call site.
func Emit(s *logs.Service, fn string, at time.Time) (int, error) {
	lines := s.Tail(logs.LambdaGroup(fn), 0)
	audit := s.Tail(logs.LogGroupKMSAudit, 0)
	res, err := s.Query(logs.PlaneGroup("s3"), `stats count(*) as n`, time.Time{}, at)
	if err != nil {
		return 0, err
	}
	return len(lines) + len(audit) + len(res.Rows), nil
}
