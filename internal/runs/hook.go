package runs

import "simmr/internal/obs"

// engineHook feeds a run from inside one engine. It reads progress from
// the event stream (the obs package's contract): each block's events of
// the paper's seven kinds are engine events fired, its job departures
// are jobs done, so a block becomes live intra-replay done/total and
// event counts, and RunEnd settles the jobs. The stream is the only
// source of the event count: a fork's RunEnd counts its prefix too. One
// hook serves one engine at a time (the Sink contract); pooled reuse
// across runs is fine because RunEnd clears the count of departures.
type engineHook struct {
	h          *Handle
	jobs       int
	departures int
}

// EngineHook returns an obs.Sink that streams the progress of one
// engine replaying a trace of jobs jobs into the run — Tee it with
// whatever other sinks the caller attaches. This is how a single long
// replay (no sweep-level ProgressFunc) surfaces live percent-complete on
// /runs/{id}/stream. Returns nil for a nil handle, which obs.Tee skips.
func (h *Handle) EngineHook(jobs int) obs.Sink {
	if h == nil {
		return nil
	}
	return &engineHook{h: h, jobs: jobs}
}

func (e *engineHook) Event(ev obs.Event) { e.Events((&[1]obs.Event{ev})[:]) }

// Events counts a block's fired events and departures and reports them.
func (e *engineHook) Events(evs []obs.Event) {
	var fired uint64
	for i := range evs {
		if k := evs[i].Kind; k < obs.KindMapSlotAlloc {
			fired++
			if k == obs.KindJobDeparture {
				e.departures++
			}
		}
	}
	e.h.AddEvents(fired)
	e.h.Progress(e.departures, e.jobs)
}

func (e *engineHook) RunEnd(c obs.Counters) {
	e.departures = 0
	e.h.AddJobs(uint64(c.Jobs))
	e.h.Progress(c.Jobs, c.Jobs)
}
