package logs

import (
	"regexp"

	"repro/internal/cloudsim/sortutil"
)

// groupRE is the naming convention: lowercase slash-separated
// segments, each starting with a letter, digits and dashes allowed.
var groupRE = regexp.MustCompile(`^[a-z][a-z0-9-]*(/[a-z][a-z0-9-]*)+$`)

// ValidGroupName reports whether a log group name follows the
// registry convention.
func ValidGroupName(name string) bool {
	return groupRE.MatchString(name)
}

// Names lists the registered constant group names (builders like
// PlaneGroup and LambdaGroup mint per-entity names on top).
func Names() []string {
	return []string{LogGroupKMSAudit}
}

// SequenceToken reports a stream's current upload token without
// writing ("" for an unknown stream).
func (s *Service) SequenceToken(groupName, streamName string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[groupName]
	if !ok {
		return ""
	}
	st, ok := g.streams[streamName]
	if !ok {
		return ""
	}
	return sequenceToken(groupName, streamName, int64(st.rows.Len()))
}

// Groups lists every log group name, sorted.
func (s *Service) Groups() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortutil.SortedKeys(s.groups)
}
