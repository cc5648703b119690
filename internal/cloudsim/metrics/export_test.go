package metrics

import (
	"regexp"
	"sort"
)

// nameRE is the shape every registered name must have: lowercase
// dot-separated identifiers, each starting with a letter.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)+$`)

// ValidName reports whether name is a well-formed series name
// (lowercase dot-separated identifiers). The registry test checks
// every registered constant against it.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Metrics lists the metric names recorded under a namespace, sorted.
// Interned-but-empty series are invisible until their first sample.
func (s *Service) Metrics(namespace string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, sx := range s.series {
		if sx.namespace == namespace && sx.n > 0 {
			out = append(out, sx.metric)
		}
	}
	sort.Strings(out)
	return out
}
