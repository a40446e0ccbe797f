// SimMetrics is the SimMR metric set over a Registry, and EngineSink is
// the obs.BatchSink that feeds it: each engine's sink writes the
// registry with plain atomics once per block of events, so one
// SimMetrics aggregates any number of concurrent engines with no lock
// between them.

package telemetry

import (
	"maps"
	"math"
	"sync"
	"time"

	"simmr/internal/attr"
	"simmr/internal/obs"
	"simmr/internal/rcache"
)

// Bucket boundaries, in seconds unless noted. Fixed at registration so
// the exposition format is stable (the golden test pins them).
var (
	// TaskDurationBuckets covers replayed task durations: testbed map
	// tasks run tens of seconds, reduces up to tens of minutes.
	TaskDurationBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	// CompletionBuckets covers job completion times and makespans.
	CompletionBuckets = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}
	// WallBuckets covers real (not simulated) elapsed time: replay wall
	// time and lifecycle spans, from sub-millisecond to tens of seconds.
	WallBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	// WaitBuckets covers per-job attributed wait times by phase; the
	// low end resolves near-zero waits (most jobs on an idle cluster).
	WaitBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
)

// SpanStages are the replay-lifecycle stages timed by Span, in
// exposition order: trace load, engine build/reset, the replay itself,
// and report/output writing.
var SpanStages = []string{"load", "build", "run", "report"}

// SimMetrics bundles the full SimMR metric set. Build one per process
// (or per sweep) with NewSimMetrics, attach EngineSink() to each
// engine, and serve Registry() via Handler. All methods are safe for
// concurrent use; a nil *SimMetrics is valid and inert, so callers
// guard instrumentation with a single nil check.
type SimMetrics struct {
	reg *Registry

	mapTaskDur    *Histogram
	reduceTaskDur *Histogram
	jobCompletion *Histogram
	replayWall    *Histogram
	spans         []*Histogram // by SpanStages index
	jobWait       []*Histogram // by attr.WaitPhases index
	missCause     []*Counter   // by attr.Phase

	eventsByKind []*Counter // by obs.Kind
	replaysTotal *Counter
	poolGets     [2]*Counter // [miss, hit]

	forksTotal      *Counter
	forkBytesCopied *Counter

	cachesMu sync.Mutex
	caches   []*rcache.Cache // read at scrape by the rcache families (BindCache)

	buildOnce sync.Once // StampBuildInfo registers at most once
}

// NewSimMetrics builds the SimMR metric set on a fresh registry. Its
// argument is ignored: it is kept only for the benchmark probe's
// NewSimMetrics(0) call, and goes with ROADMAP item 1e.
func NewSimMetrics(...int) *SimMetrics {
	r := NewRegistry()
	kinds := make([]string, obs.KindCount)
	for k := obs.Kind(0); k < obs.KindCount; k++ {
		kinds[k] = k.String()
	}
	t := &SimMetrics{reg: r}
	t.mapTaskDur = r.NewHistogram("simmr_map_task_duration_seconds",
		"Simulated durations of replayed map task executions.", TaskDurationBuckets)
	t.reduceTaskDur = r.NewHistogram("simmr_reduce_task_duration_seconds",
		"Simulated durations of replayed reduce tasks (shuffle + reduce phase).", TaskDurationBuckets)
	t.jobCompletion = r.NewHistogram("simmr_job_completion_seconds",
		"Simulated job completion times (departure - arrival).", CompletionBuckets)
	t.replayWall = r.NewHistogram("simmr_replay_wall_seconds",
		"Wall-clock time per replay through the parallel runtime.", WallBuckets)
	// The two totals are read off the per-kind counters at scrape: the
	// stream's events of the paper's seven kinds are the events fired
	// (obs package doc), and its departures the jobs done.
	r.NewFuncCounter("simmr_engine_events_total",
		"Engine events processed (DES queue pops): the paper's seven kinds in simmr_engine_events_by_kind_total.",
		func() (n uint64) {
			for _, c := range t.eventsByKind[:obs.KindMapSlotAlloc] {
				n += c.Value()
			}
			return n
		})
	t.eventsByKind = r.NewCounterVec("simmr_engine_events_by_kind_total",
		"Observability events delivered to sinks, by kind.", "kind", kinds)
	r.NewFuncCounter("simmr_jobs_completed_total",
		"Jobs that departed across all replays.", t.eventsByKind[obs.KindJobDeparture].Value)
	t.replaysTotal = r.NewCounter("simmr_replays_total",
		"Replays completed.")
	t.forksTotal = r.NewCounter("simmr_engine_forks_total",
		"What-if branch engines forked off sealed snapshots.")
	t.forkBytesCopied = r.NewCounter("simmr_engine_fork_bytes_copied",
		"Engine state bytes copied to arm forks (pending events, live job slots, outcomes so far).")
	pg := r.NewCounterVec("simmr_engine_pool_gets_total",
		"Engine acquisitions from the replay pool, by whether a warmed engine was reused.",
		"reused", []string{"false", "true"})
	t.poolGets[0], t.poolGets[1] = pg[0], pg[1]
	r.NewFuncCounterVec("simmr_rcache_hits_total",
		"Replay result cache hits, by the tier that served them.",
		"tier", []string{"mem", "disk"},
		func(i int) uint64 {
			st := t.cacheStats()
			if i == 0 {
				return st.Hits - st.DiskHits
			}
			return st.DiskHits
		})
	r.NewFuncCounter("simmr_rcache_misses_total",
		"Replay result cache misses (including corrupt entries silently dropped).",
		func() uint64 { return t.cacheStats().Misses })
	r.NewFuncCounter("simmr_rcache_evictions_total",
		"Entries evicted from the cache's in-memory LRU tier under byte-budget pressure.",
		func() uint64 { return t.cacheStats().Evictions })
	r.NewFuncGauge("simmr_rcache_bytes",
		"Bytes resident in the replay result cache's in-memory tier.",
		func() float64 { return float64(t.cacheStats().MemBytes) })
	t.spans = r.NewHistogramVec("simmr_replay_stage_seconds",
		"Wall-clock replay lifecycle stage timings (trace load, engine build, run, report).",
		"stage", SpanStages, WallBuckets)
	waitPhases := make([]string, len(attr.WaitPhases))
	for i, p := range attr.WaitPhases {
		waitPhases[i] = p.String()
	}
	t.jobWait = r.NewHistogramVec("simmr_job_wait_seconds",
		"Per-job attributed wait time by phase (attr phase decomposition; one observation per job per phase).",
		"phase", waitPhases, WaitBuckets)
	causes := make([]string, attr.PhaseCount)
	for p := attr.Phase(0); p < attr.PhaseCount; p++ {
		causes[p] = p.String()
	}
	t.missCause = r.NewCounterVec("simmr_deadline_miss_causes_total",
		"Deadline misses by attributed root cause (the phase that consumed most of the job's completion time).",
		"cause", causes)
	return t
}

// Registry returns the underlying registry — serve it with Handler.
func (t *SimMetrics) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// ReplayDone records one replay's wall time. Callers invoke it once
// per replay (cold path).
func (t *SimMetrics) ReplayDone(wall time.Duration) {
	if t == nil {
		return
	}
	t.replayWall.Observe(wall.Seconds())
}

// ForkDone records one finished what-if branch and the bytes arming it
// copied (engine.ForkStats). Cold path, once per branch.
func (t *SimMetrics) ForkDone(bytesCopied uint64) {
	if t == nil {
		return
	}
	t.forksTotal.Inc()
	t.forkBytesCopied.Add(bytesCopied)
}

// PoolGet records one engine acquisition; hand it to engine.Pool.Observed.
func (t *SimMetrics) PoolGet(reused bool) {
	if t == nil {
		return
	}
	i := 0
	if reused {
		i = 1
	}
	t.poolGets[i].Inc()
}

// BindCache adds c to the caches the simmr_rcache_* families report:
// each scrape sums their Stats, the one place a cache counts its hits,
// misses, evictions and resident bytes. A nil receiver or cache is
// ignored.
func (t *SimMetrics) BindCache(c *rcache.Cache) {
	if t == nil || c == nil {
		return
	}
	t.cachesMu.Lock()
	t.caches = append(t.caches, c)
	t.cachesMu.Unlock()
}

// cacheStats sums the bound caches' Stats.
func (t *SimMetrics) cacheStats() (sum rcache.Stats) {
	t.cachesMu.Lock()
	defer t.cachesMu.Unlock()
	for _, c := range t.caches {
		st := c.Stats()
		sum.Hits += st.Hits
		sum.DiskHits += st.DiskHits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.MemBytes += st.MemBytes
	}
	return sum
}

// Span starts timing one replay-lifecycle stage ("load", "build",
// "run", "report") and returns the stop function. Unknown stages and
// nil receivers return an inert stop.
func (t *SimMetrics) Span(stage string) func() {
	if t == nil {
		return noopStop
	}
	var h *Histogram
	for i, s := range SpanStages {
		if s == stage {
			h = t.spans[i]
			break
		}
	}
	if h == nil {
		return noopStop
	}
	start := time.Now()
	return func() {
		h.Observe(time.Since(start).Seconds())
	}
}

func noopStop() {}

// EngineSink returns a new single-engine observability sink feeding
// this metric set. Returns a nil interface when t is nil, so the
// engine's `sink != nil` fast path stays taken. One sink per engine
// (obs.Sink contract); a sink may be reused across sequential runs of
// the same engine.
func (t *SimMetrics) EngineSink() obs.Sink {
	if t == nil {
		return nil
	}
	return t.engineSink(make(map[int]float64), nil)
}

func (t *SimMetrics) engineSink(arrivals map[int]float64, fillerStarts map[int64]float64) *engineSink {
	return &engineSink{
		t:             t,
		arrivals:      arrivals,
		fillerStarts:  fillerStarts,
		mapTaskDur:    t.mapTaskDur.NewTally(),
		reduceTaskDur: t.reduceTaskDur.NewTally(),
		jobCompletion: t.jobCompletion.NewTally(),
	}
}

// engineSink tallies one engine's event stream into the shared
// registry. It is single-goroutine like every obs.Sink.
type engineSink struct {
	t *SimMetrics
	// arrivals maps live job IDs to arrival times so departures can
	// observe completion durations; cleared at RunEnd for reuse.
	arrivals map[int]float64
	// fillerStarts maps jobID<<20|task to first-wave reduce start times
	// so KindFillerPatch can observe the full task duration. Lazily
	// allocated: replays without fillers never build it.
	fillerStarts map[int64]float64
	// The per-event histograms, accumulated per block and published at
	// its end.
	mapTaskDur, reduceTaskDur, jobCompletion Tally
}

// Fork returns a sink for a what-if branch of the engine this sink has
// observed so far: it knows the prefix's live arrivals and filler starts,
// so the branch's departures and patches are observed in full. Like
// obs.FlightRecorder.Fork it is called between events, and forks of one
// sink may be taken concurrently.
func (s *engineSink) Fork() obs.Sink {
	return s.t.engineSink(maps.Clone(s.arrivals), maps.Clone(s.fillerStarts))
}

func fillerKey(jobID, task int) int64 {
	return int64(jobID)<<20 | int64(task)
}

// Event tallies one engine event: the one-element case of Events.
func (s *engineSink) Event(ev obs.Event) { s.Events((&[1]obs.Event{ev})[:]) }

// Events tallies a block of engine events (obs.BatchSink): counts are
// kept in locals and the histogram observations in the sink's tallies,
// and the registry is written once per block — a handful of
// atomics, not two to five per event. A scrape therefore sees a block's
// events all at once, when it ends.
func (s *engineSink) Events(evs []obs.Event) {
	var byKind [obs.KindCount]uint64
	for i := range evs {
		ev := &evs[i]
		byKind[ev.Kind]++
		switch ev.Kind {
		case obs.KindJobArrival:
			s.arrivals[ev.JobID] = ev.Time
		case obs.KindJobDeparture:
			if a, ok := s.arrivals[ev.JobID]; ok {
				s.jobCompletion.Observe(ev.Time - a)
				delete(s.arrivals, ev.JobID)
			}
		case obs.KindMapTaskStart:
			// End is the planned departure; preempted attempts are counted
			// as scheduled (their replanned re-execution is counted again).
			s.mapTaskDur.Observe(ev.End - ev.Time)
		case obs.KindReduceTaskStart:
			if math.IsInf(ev.End, 1) {
				// First-wave filler: duration unknown until the map stage
				// completes; remember the start for KindFillerPatch.
				if s.fillerStarts == nil {
					s.fillerStarts = make(map[int64]float64)
				}
				s.fillerStarts[fillerKey(ev.JobID, ev.Task)] = ev.Time
			} else {
				s.reduceTaskDur.Observe(ev.End - ev.Time)
			}
		case obs.KindFillerPatch:
			if start, ok := s.fillerStarts[fillerKey(ev.JobID, ev.Task)]; ok {
				s.reduceTaskDur.Observe(ev.End - start)
				delete(s.fillerStarts, fillerKey(ev.JobID, ev.Task))
			}
		}
	}
	t := s.t
	for k, n := range byKind {
		if n != 0 {
			t.eventsByKind[k].Add(n)
		}
	}
	s.mapTaskDur.Flush()
	s.reduceTaskDur.Flush()
	s.jobCompletion.Flush()
}

// RunEnd counts the replay and resets the sink's per-run scratch so it
// can serve the engine's next run. It reads no counter: every total the
// registry keeps is a count of the stream's events.
func (s *engineSink) RunEnd(obs.Counters) {
	s.t.replaysTotal.Inc()
	clear(s.arrivals)
	clear(s.fillerStarts)
}
