package runs

import "simmr/internal/obs"

// engineHook feeds a run from inside one engine: the engine's periodic
// progress samples (obs.ProgressSampler, every 64 macro-steps) become
// live intra-replay done/total and event counts, and RunEnd settles
// the totals. One hook serves one engine at a time (the Sink
// contract); pooled reuse across runs is fine because q.Fired()
// restarts from zero at Reset, which RunEnd mirrors by clearing the
// delta base.
type engineHook struct {
	h          *Handle
	lastEvents uint64
}

// EngineHook returns an obs.Sink that streams one engine's progress
// into the run — Tee it with whatever other sinks the caller attaches.
// This is how a single long replay (no sweep-level ProgressFunc)
// surfaces live percent-complete on /runs/{id}/stream. Returns nil for
// a nil handle, which obs.Tee skips.
func (h *Handle) EngineHook() obs.Sink {
	if h == nil {
		return nil
	}
	return &engineHook{h: h}
}

// Event and Events ignore the stream: the hook reads only the samples
// and the counters. Events makes it an obs.BatchSink, so a block costs
// it one call instead of one per event.
func (e *engineHook) Event(obs.Event) {}

func (e *engineHook) Events([]obs.Event) {}

func (e *engineHook) SampleProgress(now float64, events uint64, jobsDone, jobsTotal int) {
	if events > e.lastEvents {
		e.h.AddEvents(events - e.lastEvents)
		e.lastEvents = events
	}
	e.h.Progress(jobsDone, jobsTotal)
}

func (e *engineHook) RunEnd(c obs.Counters) {
	if c.Events > e.lastEvents {
		e.h.AddEvents(c.Events - e.lastEvents)
	}
	e.lastEvents = 0
	e.h.AddJobs(uint64(c.Jobs))
	e.h.Progress(c.Jobs, c.Jobs)
}
