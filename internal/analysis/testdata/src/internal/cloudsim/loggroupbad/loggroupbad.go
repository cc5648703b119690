// Package loggroupbad names log groups ad hoc — a locally minted
// constant in the wrong shape, a string literal, and a variable —
// instead of the registry expressions; loggroup must flag every one.
package loggroupbad

import (
	"time"

	"repro/internal/cloudsim/logs"
)

// LogGroupShadow mints a group name outside the registry, in a casing
// the store's own validation rejects.
const LogGroupShadow = "Lambda/Proto"

// Emit reads events under groups no query will ever cover.
func Emit(s *logs.Service, at time.Time) int {
	orphaned := s.Tail("lambda/protochat", 1)
	_, err := s.Query(LogGroupShadow, `stats count(*) as n`, at, at)
	group := logs.LambdaGroup("proto-chat")
	if err != nil {
		return len(orphaned)
	}
	return len(s.Tail(group, 5))
}
