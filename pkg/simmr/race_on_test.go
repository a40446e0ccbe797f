//go:build race

package simmr

// raceDetectorEnabled reports whether this test binary was built with
// -race: the detector allocates on its own account, so allocation
// budgets are only asserted without it.
const raceDetectorEnabled = true
