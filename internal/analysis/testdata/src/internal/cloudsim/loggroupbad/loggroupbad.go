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

// Emit writes and reads events under groups no query will ever
// cover.
func Emit(s *logs.Service, at time.Time) int {
	s.PutEvents("lambda/protochat", "stream", logs.Event{Time: at, Message: "orphaned"})
	s.PutEvents(LogGroupShadow, "stream", logs.Event{Time: at, Message: "shadowed"})
	group := logs.LambdaGroup("proto-chat")
	return len(s.Tail(group, 5))
}
