package attr

// DenseCap exposes the dense job-state table's capacity, so a test can
// count how often a replay made it grow.
func (s *Sink) DenseCap() int { return cap(s.dense) }

// Presize gives a fresh sink a dense table that never has to grow for
// IDs below n — the no-growth reference the growth test compares to.
func (s *Sink) Presize(n int) { s.dense = make([]jobState, 0, n) }
