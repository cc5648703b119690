// Package loggroupgood names log groups by registry expression at
// every store-API call site; loggroup must stay silent.
package loggroupgood

import (
	"time"

	"repro/internal/cloudsim/logs"
)

// Emit writes an event and reads back across groups, deriving every
// group name from the logs package at the call site.
func Emit(s *logs.Service, fn string, at time.Time) (int, error) {
	s.PutEvents(logs.LambdaGroup(fn), "stream", logs.Event{Time: at, Message: "kept"})
	audit := s.Tail(logs.LogGroupKMSAudit, 0)
	res, err := s.Query(logs.PlaneGroup("s3"), `stats count(*) as n`, time.Time{}, time.Time{})
	if err != nil {
		return 0, err
	}
	return len(audit) + len(res.Rows), nil
}
