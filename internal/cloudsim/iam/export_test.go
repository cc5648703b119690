package iam

// Roles reports how many roles exist (for TCB accounting and tests).
func (s *Service) Roles() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.roles)
}
