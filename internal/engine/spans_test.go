package engine

import (
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// taskSpans replays tr with an obs.TimelineSink as the sink and returns
// the result beside every job's task history, by job ID, as the event
// stream tells it: one span per attempt in start order, a map attempt
// killed by preemption marked Preempted and ending at the kill.
func taskSpans(t *testing.T, cfg Config, tr *trace.Trace, pol sched.Policy) (res *Result, maps, reduces map[int][]obs.SlotSpan) {
	t.Helper()
	tl := obs.NewTimelineSink()
	cfg.Sink = tl
	res, err := Run(cfg, tr, pol)
	if err != nil {
		t.Fatal(err)
	}
	maps, reduces = map[int][]obs.SlotSpan{}, map[int][]obs.SlotSpan{}
	for _, sp := range tl.Spans() {
		if sp.Reduce {
			reduces[sp.JobID] = append(reduces[sp.JobID], sp)
		} else {
			maps[sp.JobID] = append(maps[sp.JobID], sp)
		}
	}
	return res, maps, reduces
}

// allSpans flattens a per-job span table.
func allSpans(byJob map[int][]obs.SlotSpan) []obs.SlotSpan {
	var all []obs.SlotSpan
	for _, spans := range byJob {
		all = append(all, spans...)
	}
	return all
}

func peakConcurrency(spans []obs.SlotSpan) int {
	peak := 0
	for _, a := range spans {
		mid := (a.Start + a.End) / 2
		n := 0
		for _, b := range spans {
			if b.Start <= mid && mid < b.End {
				n++
			}
		}
		if n > peak {
			peak = n
		}
	}
	return peak
}
