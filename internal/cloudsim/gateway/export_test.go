package gateway

// Throttled reports how many requests the gateway has rejected.
func (s *Service) Throttled() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.throttled
}
