package pricing

// Reset clears all accumulated usage.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.byKey = make(map[meterKey]float64)
	m.mu.Unlock()
}
