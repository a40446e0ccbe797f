package metrics

// Utilization summarizes how busy a set of slots was over a horizon —
// the capacity-planning view a cluster administrator asks SimMR for
// ("assess various what-if questions", §VII).
type Utilization struct {
	// BusySlotSeconds is the total slot-seconds consumed by tasks.
	BusySlotSeconds float64
	// Horizon is the observation window length.
	Horizon float64
	// Slots is the capacity used for the fraction.
	Slots int
	// Fraction is BusySlotSeconds / (Slots * Horizon), in [0, 1] for a
	// feasible schedule.
	Fraction float64
	// Peak is the maximum number of simultaneously busy slots.
	Peak int
}

// ComputeUtilization aggregates task intervals against a slot capacity.
// A zero horizon or capacity yields a zero result.
func ComputeUtilization(tasks []Interval, slots int, horizon float64) Utilization {
	u := Utilization{Slots: slots, Horizon: horizon}
	if slots <= 0 || horizon <= 0 {
		return u
	}
	for _, iv := range tasks {
		if iv.End > iv.Start {
			u.BusySlotSeconds += iv.End - iv.Start
		}
	}
	u.Fraction = u.BusySlotSeconds / (float64(slots) * horizon)
	u.Peak = PeakConcurrency(tasks)
	return u
}
