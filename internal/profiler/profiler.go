// Package profiler implements MRProfiler (§III-A): it extracts job
// performance metrics from JobTracker history logs and builds the
// replayable job templates that SimMR consumes.
//
// Per job it derives:
//   - map task durations (finish − start),
//   - the map-stage end (latest map finish),
//   - for each reduce task, the shuffle/sort phase and the reduce phase.
//
// Following §II, the shuffle phase of first-wave reduces (those that
// started before the map stage completed) is recorded as only its
// *non-overlapping* portion — sortFinished − mapStageEnd — because that
// is the part invariant to the slot allocation. Reduces started after
// the map stage contribute *typical* shuffle durations
// (sortFinished − start).
package profiler

import (
	"fmt"
	"io"
	"sort"

	"simmr/internal/cluster"
	"simmr/internal/hadooplog"
	"simmr/internal/trace"
)

// FromReader parses a JobTracker history log stream and builds a trace
// with one job per logged job, arrival times set to submit times.
func FromReader(r io.Reader) (*trace.Trace, error) {
	recs, err := hadooplog.Parse(r)
	if err != nil {
		return nil, err
	}
	return FromRecords(recs)
}

// CounterKeys lists the task counters MRProfiler extracts when present
// in the logs — the "easily extendable" metric set of §IV-A (Rumen
// collects 40+; we stay selective). Extracted values are summed per job
// into Template.Counters, prefixed with the task kind ("MAP_" /
// "REDUCE_").
var CounterKeys = []string{
	hadooplog.KeyHDFSBytesRead,
	hadooplog.KeyHDFSBytesWritten,
	hadooplog.KeyFileBytesWritten,
	hadooplog.KeyShuffleBytes,
}

// jobAccum accumulates one job's records during the log scan.
type jobAccum struct {
	jobID     string
	name      string
	submit    float64
	hasSubmit bool
	totalMaps int
	totalReds int
	mapStart  map[string]float64
	mapFinish map[string]float64
	redStart  map[string]float64
	redSort   map[string]float64
	redFinish map[string]float64
	counters  map[string]float64
	order     int // encounter order, for stable output
}

// addCounters folds a record's known counters into the job aggregate.
func (j *jobAccum) addCounters(prefix string, r *hadooplog.Record) {
	for _, key := range CounterKeys {
		if v, ok := r.Float(key); ok {
			if j.counters == nil {
				j.counters = make(map[string]float64)
			}
			j.counters[prefix+key] += v
		}
	}
}

// FromRecords builds a trace from parsed log records.
func FromRecords(recs []hadooplog.Record) (*trace.Trace, error) {
	jobs := make(map[string]*jobAccum)
	get := func(id string) *jobAccum {
		j, ok := jobs[id]
		if !ok {
			j = &jobAccum{
				jobID:     id,
				mapStart:  map[string]float64{},
				mapFinish: map[string]float64{},
				redStart:  map[string]float64{},
				redSort:   map[string]float64{},
				redFinish: map[string]float64{},
				order:     len(jobs),
			}
			jobs[id] = j
		}
		return j
	}

	for i, r := range recs {
		switch r.Entity {
		case hadooplog.EntityJob:
			id := r.Get(hadooplog.KeyJobID)
			if id == "" {
				return nil, fmt.Errorf("profiler: record %d: Job without JOBID", i)
			}
			j := get(id)
			if t, ok := r.Float(hadooplog.KeySubmitTime); ok {
				j.submit, j.hasSubmit = t, true
			}
			if n := r.Get(hadooplog.KeyJobName); n != "" {
				j.name = n
			}
			if v, ok := r.Int(hadooplog.KeyTotalMaps); ok {
				j.totalMaps = v
			}
			if v, ok := r.Int(hadooplog.KeyTotalReduces); ok {
				j.totalReds = v
			}
		case hadooplog.EntityMapAttempt:
			id, jobID, err := attemptJob(&r)
			if err != nil {
				return nil, fmt.Errorf("profiler: record %d: %w", i, err)
			}
			j := get(jobID)
			if t, ok := r.Float(hadooplog.KeyStartTime); ok {
				j.mapStart[id] = t
			}
			if t, ok := r.Float(hadooplog.KeyFinishTime); ok {
				j.mapFinish[id] = t
				j.addCounters("MAP_", &r)
			}
		case hadooplog.EntityReduceAttempt:
			id, jobID, err := attemptJob(&r)
			if err != nil {
				return nil, fmt.Errorf("profiler: record %d: %w", i, err)
			}
			j := get(jobID)
			if t, ok := r.Float(hadooplog.KeyStartTime); ok {
				j.redStart[id] = t
			}
			if t, ok := r.Float(hadooplog.KeySortFinish); ok {
				j.redSort[id] = t
			}
			if t, ok := r.Float(hadooplog.KeyFinishTime); ok {
				j.redFinish[id] = t
				j.addCounters("REDUCE_", &r)
			}
		}
	}

	accums := make([]*jobAccum, 0, len(jobs))
	for _, j := range jobs {
		accums = append(accums, j)
	}
	sort.Slice(accums, func(a, b int) bool { return accums[a].order < accums[b].order })

	tr := &trace.Trace{}
	for _, j := range accums {
		tj, err := j.build()
		if err != nil {
			return nil, err
		}
		tr.Jobs = append(tr.Jobs, tj)
	}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("profiler: built invalid trace: %w", err)
	}
	return tr, nil
}

// attemptJob extracts the attempt ID and its job ID portion
// (attempt_<job>_[mr]_<task>_<try>).
func attemptJob(r *hadooplog.Record) (attempt, jobID string, err error) {
	attempt = r.Get(hadooplog.KeyTaskAttemptID)
	if len(attempt) < len("attempt_000000") || attempt[:8] != "attempt_" {
		return "", "", fmt.Errorf("bad attempt id %q", attempt)
	}
	return attempt, "job_" + attempt[8:14], nil
}

// build converts an accumulated job into a trace job with its template.
func (j *jobAccum) build() (*trace.Job, error) {
	if !j.hasSubmit {
		return nil, fmt.Errorf("profiler: job %s has no submit record", j.jobID)
	}

	mapDur := make([]float64, 0, len(j.mapFinish))
	mapStageEnd := 0.0
	for id, fin := range j.mapFinish {
		start, ok := j.mapStart[id]
		if !ok {
			return nil, fmt.Errorf("profiler: job %s: map %s finished without start", j.jobID, id)
		}
		if fin < start {
			return nil, fmt.Errorf("profiler: job %s: map %s finishes before it starts", j.jobID, id)
		}
		mapDur = append(mapDur, fin-start)
		if fin > mapStageEnd {
			mapStageEnd = fin
		}
	}
	if j.totalMaps == 0 {
		j.totalMaps = len(mapDur)
	}
	if len(mapDur) != j.totalMaps {
		return nil, fmt.Errorf("profiler: job %s: %d completed maps, expected %d",
			j.jobID, len(mapDur), j.totalMaps)
	}

	reds := make([]cluster.ReduceSpan, 0, len(j.redFinish))
	for id, fin := range j.redFinish {
		start, okS := j.redStart[id]
		sortEnd, okC := j.redSort[id]
		if !okS || !okC {
			return nil, fmt.Errorf("profiler: job %s: reduce %s incomplete records", j.jobID, id)
		}
		if sortEnd < start || fin < sortEnd {
			return nil, fmt.Errorf("profiler: job %s: reduce %s phases out of order", j.jobID, id)
		}
		reds = append(reds, cluster.ReduceSpan{Start: start, SortEnd: sortEnd, End: fin})
	}
	if j.totalReds == 0 {
		j.totalReds = len(reds)
	}
	if len(reds) != j.totalReds {
		return nil, fmt.Errorf("profiler: job %s: %d completed reduces, expected %d",
			j.jobID, len(reds), j.totalReds)
	}
	tpl := template(j.name, mapDur, reds, mapStageEnd)
	tpl.Counters = j.counters
	return &trace.Job{Name: j.name, Arrival: j.submit, Template: tpl}, nil
}

// template applies §III-A's extraction rule to one job's observed map
// durations and reduce spans, sorting both in place. A reduce started
// before the map stage ended (first wave) records only the part of its
// shuffle that does not overlap the map stage; a later one records its
// whole shuffle as typical. A replayable template needs both shuffle
// arrays when the job has reduces at all, so a run with only one kind
// of wave falls back to the observed one.
func template(name string, maps []float64, reds []cluster.ReduceSpan, mapStageEnd float64) *trace.Template {
	sort.Float64s(maps) // neither log nor task order may leak into traces
	sort.Slice(reds, func(a, b int) bool { return reds[a].Start < reds[b].Start })
	tpl := &trace.Template{AppName: name, NumMaps: len(maps), NumReduces: len(reds), MapDurations: maps}
	for _, r := range reds {
		if r.Start < mapStageEnd {
			tpl.FirstShuffle = append(tpl.FirstShuffle, max(r.SortEnd-mapStageEnd, 0))
		} else {
			tpl.TypicalShuffle = append(tpl.TypicalShuffle, r.ShuffleDuration())
		}
		tpl.ReduceDurations = append(tpl.ReduceDurations, r.ReduceDuration())
	}
	if len(reds) > 0 {
		if len(tpl.TypicalShuffle) == 0 {
			// Single reduce wave: approximate a typical shuffle with the
			// full observed shuffle spans after map end. Conservative:
			// a cold shuffle cannot be faster than the residual one.
			for _, r := range reds {
				tpl.TypicalShuffle = append(tpl.TypicalShuffle, r.SortEnd-max(r.Start, mapStageEnd))
			}
		}
		if len(tpl.FirstShuffle) == 0 {
			// All reduces started after the map stage (tiny map stage):
			// there is no overlapped portion; first shuffle = typical.
			tpl.FirstShuffle = append(tpl.FirstShuffle, tpl.TypicalShuffle...)
		}
	}
	return tpl
}

// FromResult builds the same trace directly from an emulator result,
// bypassing the textual log round trip. Used to cross-check the log
// pipeline and by experiments that do not need log files.
func FromResult(res *cluster.Result) *trace.Trace {
	tr := &trace.Trace{}
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		var maps []float64
		for _, m := range jr.Maps {
			maps = append(maps, m.Duration())
		}
		tpl := template(jr.Name, maps, append([]cluster.ReduceSpan(nil), jr.Reduces...), jr.MapStageEnd)
		tpl.Dataset = jr.Dataset
		tr.Jobs = append(tr.Jobs, &trace.Job{
			Name:     jr.Name,
			Arrival:  jr.Submit,
			Deadline: jr.Deadline,
			Template: tpl,
		})
	}
	tr.Normalize()
	return tr
}
