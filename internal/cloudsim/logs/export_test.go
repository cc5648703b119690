package logs

import (
	"regexp"
	"time"

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

// Events returns a group's events within [from, to] (zero times mean
// unbounded), merged across streams in deterministic order: timestamp,
// then stream name, then sequence number.
func (s *Service) Events(groupName string, from, to time.Time) []StoredEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[groupName]
	if !ok {
		return nil
	}
	return s.materializeAll(g, g.windowRefs(from, to))
}

// Groups lists every log group name, sorted.
func (s *Service) Groups() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortutil.SortedKeys(s.groups)
}

// PutEvents appends events to a stream, creating group and stream on
// first use. Events with a zero Time are stamped with the service
// clock. Ingested bytes (message + fields + the per-event overhead)
// accrue to the usage inventory that Usage() prices.
func (s *Service) PutEvents(groupName, streamName string, events ...Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.ensureGroupLocked(groupName)
	st := s.ensureStreamLocked(g, streamName)
	for _, e := range events {
		s.appendLocked(g, st, e.Time, e.Message, s.sortedFieldsLocked(e.Fields))
	}
}

// sortedFieldsLocked converts a public Fields map into fields to
// append, sorted by key so identical maps always store identically.
// The keys are interned; the values are arbitrary, so they are copied,
// not interned. Caller holds s.mu.
func (s *Service) sortedFieldsLocked(m map[string]string) []fieldIn {
	if len(m) == 0 {
		return nil
	}
	keys := sortutil.SortedKeys(m)
	fs := make([]fieldIn, len(keys))
	for i, k := range keys {
		fs[i] = fieldIn{key: s.keys.IDLocked(k), val: m[k]}
	}
	return fs
}
