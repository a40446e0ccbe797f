package simmr

import (
	"simmr/internal/obs"
	"simmr/internal/runs"
)

// Run registry facade: the ops-plane types re-exported so embedders
// wire live run tracking without importing internal packages, in the
// same type-alias style as Telemetry and Sink.
//
// Pass DefaultRuns() (or a private NewRunRegistry) in SweepConfig.Runs
// / BatchConfig.Runs / BranchSetConfig.Runs and the entry point
// registers itself: kind, trace identity, policy and configuration
// fingerprints, live done/total progress, accumulated engine totals,
// and the final outcome. The debug server (-debug-addr) serves the
// default registry at /runs, streams it at /runs/{id}/stream, and
// exposes flight-recorder dumps at /runs/{id}/flight.
type (
	// RunRegistry tracks live runs plus a bounded ring of completed
	// ones.
	RunRegistry = runs.Registry
	// RunSnapshot is the JSON view served by /runs.
	RunSnapshot = runs.Snapshot
	// FlightRecorder is the fixed-ring post-mortem sink (obs package).
	FlightRecorder = obs.FlightRecorder
)

// DefaultRuns returns the process-wide run registry — the one the
// debug server serves.
func DefaultRuns() *RunRegistry { return runs.Default() }

// NewRunRegistry builds a private registry retaining the last
// recentCap completed runs (<= 0 selects the default capacity).
func NewRunRegistry(recentCap int) *RunRegistry { return runs.New(recentCap) }
