package runs

import (
	"slices"

	"simmr/internal/obs"
)

// Flight-recorder attachment: a run may carry any number of
// obs.FlightRecorders (one per engine — a sweep attaches one per cell
// worker) plus explicit post-mortem dumps its wrapper captured
// (deadline misses, errors). `GET /runs/{id}/flight` serves the
// collected dumps; `POST /runs/{id}/flight` triggers live captures.

// AttachFlight registers a recorder with the run. Safe for concurrent
// use — sweep workers attach from their own goroutines. The recorder's
// owner keeps feeding it; the run only ever reads published dumps. A
// run that has ended attaches nothing: only a running engine polls a
// recorder's trigger, and End has already released the rest.
func (h *Handle) AttachFlight(f *obs.FlightRecorder) {
	if h == nil || f == nil {
		return
	}
	h.flightMu.Lock()
	if h.end.Load() == nil {
		h.flights = append(h.flights, f)
	}
	h.flightMu.Unlock()
}

// releaseFlights is End's part of the attachment: what the recorders
// have published joins the stored dumps, exactly as FlightDumps lists
// them, and the recorders themselves — a 4096-event ring each, which
// nothing can read any more — are let go. Without this the registry's
// history of finished runs pins every ring its runs ever attached.
func (h *Handle) releaseFlights() {
	h.flightMu.Lock()
	h.dumps = h.flightDumpsLocked()
	h.flights = nil
	h.flightMu.Unlock()
}

// AddFlightDump stores a captured dump with the run, bounded to the
// last maxFlightDumps (oldest evicted).
func (h *Handle) AddFlightDump(d *obs.FlightDump) {
	if h == nil || d == nil {
		return
	}
	h.flightMu.Lock()
	h.dumps = append(h.dumps, d)
	if len(h.dumps) > maxFlightDumps {
		n := copy(h.dumps, h.dumps[len(h.dumps)-maxFlightDumps:])
		h.dumps = h.dumps[:n]
	}
	h.flightMu.Unlock()
}

// TriggerFlight requests a live capture from every attached recorder;
// each publishes at its next poll point. Returns how many recorders
// were signaled — none once the run has ended.
func (h *Handle) TriggerFlight() int {
	if h == nil {
		return 0
	}
	h.flightMu.Lock()
	defer h.flightMu.Unlock()
	for _, f := range h.flights {
		f.Trigger()
	}
	return len(h.flights)
}

// FlightDumps returns the run's available post-mortems: explicitly
// stored dumps first (oldest to newest), then each attached recorder's
// latest published capture. A capture that was both stored and is still
// a recorder's latest appears once (same immutable dump either way).
// An ended run serves the list as it stood at End.
func (h *Handle) FlightDumps() []*obs.FlightDump {
	if h == nil {
		return nil
	}
	h.flightMu.Lock()
	defer h.flightMu.Unlock()
	return h.flightDumpsLocked()
}

// flightDumpsLocked builds FlightDumps' list; callers hold flightMu.
func (h *Handle) flightDumpsLocked() []*obs.FlightDump {
	out := make([]*obs.FlightDump, 0, len(h.dumps)+len(h.flights))
	out = append(out, h.dumps...)
	for _, f := range h.flights {
		if d := f.Latest(); d != nil && !slices.Contains(h.dumps, d) {
			out = append(out, d)
		}
	}
	return out
}
