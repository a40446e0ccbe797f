package attr

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"simmr/internal/obs"
)

// Report is a finished run's attribution bundle: per-job explanations,
// the makespan critical path, and run totals. Build one from a Sink
// after RunEnd; render with WriteTSV / WriteJSON.
type Report struct {
	Jobs         []Explanation
	CriticalPath []CPStep
	Makespan     float64
	Events       uint64
}

// Report assembles the sink's attribution bundle. Valid after RunEnd.
func (s *Sink) Report() *Report {
	return &Report{
		Jobs:         s.exps,
		CriticalPath: s.cp,
		Makespan:     s.counters.Makespan,
		Events:       s.counters.Events,
	}
}

// MissCause aggregates deadline misses by root-cause phase.
type MissCause struct {
	Cause Phase
	// Jobs is how many missed jobs have this root cause.
	Jobs int
	// Seconds is the total time those jobs spent in the phase.
	Seconds float64
	// Overrun is their total finish−deadline.
	Overrun float64
}

// MissCauses buckets the report's missed-deadline jobs by root-cause
// phase, sorted by job count descending (ties: phase order).
func (r *Report) MissCauses() []MissCause {
	var byPhase [PhaseCount]MissCause
	for p := Phase(0); p < PhaseCount; p++ {
		byPhase[p].Cause = p
	}
	total := 0
	for i := range r.Jobs {
		e := &r.Jobs[i]
		if !e.Missed {
			continue
		}
		total++
		c := &byPhase[e.RootCause]
		c.Jobs++
		c.Seconds += e.Phases[e.RootCause]
		c.Overrun += e.Finish - e.Deadline
	}
	if total == 0 {
		return nil
	}
	out := make([]MissCause, 0, PhaseCount)
	for _, c := range byPhase {
		if c.Jobs > 0 {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Jobs > out[k].Jobs })
	return out
}

// TopMisses returns up to k missed-deadline jobs ordered by overrun
// (finish−deadline) descending.
func (r *Report) TopMisses(k int) []Explanation {
	var missed []Explanation
	for _, e := range r.Jobs {
		if e.Missed {
			missed = append(missed, e)
		}
	}
	sort.SliceStable(missed, func(i, j int) bool {
		return missed[i].Finish-missed[i].Deadline > missed[j].Finish-missed[j].Deadline
	})
	if k > 0 && len(missed) > k {
		missed = missed[:k]
	}
	return missed
}

// WriteTSV renders the operator report: the per-job breakdown table
// (phases in fixed order, summing to completion), the makespan critical
// path, the top-K deadline-miss root causes, and the longest blamed
// waits. Deterministic for a given report.
func (r *Report) WriteTSV(w io.Writer, topK int) error {
	if topK <= 0 {
		topK = 10
	}
	bw := &errWriter{w: w}
	bw.printf("# attribution: %d jobs, makespan %.2f s, %d events\n", len(r.Jobs), r.Makespan, r.Events)
	bw.printf("job\tname\tarrival\tfinish\tcompletion")
	for p := Phase(0); p < PhaseCount; p++ {
		bw.printf("\t%s", p)
	}
	bw.printf("\troot-cause\tdeadline\tmissed\n")
	for i := range r.Jobs {
		e := &r.Jobs[i]
		bw.printf("%d\t%s\t%.2f\t%.2f\t%.2f", e.JobID, e.Name, e.Arrival, e.Finish, e.Completion())
		for p := Phase(0); p < PhaseCount; p++ {
			bw.printf("\t%.2f", e.Phases[p])
		}
		missed := "-"
		if e.Missed {
			missed = "MISSED"
		}
		deadline := "-"
		if e.Deadline > 0 {
			deadline = fmt.Sprintf("%.2f", e.Deadline)
		}
		bw.printf("\t%s\t%s\t%s\n", e.RootCause, deadline, missed)
	}

	bw.printf("\n# critical path (%d steps)\n", len(r.CriticalPath))
	bw.printf("kind\tjob\ttask\tstart\tend\tdur\tdetail\n")
	for i := range r.CriticalPath {
		st := &r.CriticalPath[i]
		task := "-"
		if st.Task >= 0 {
			class := "m"
			if st.Reduce {
				class = "r"
			}
			task = fmt.Sprintf("%s%d", class, st.Task)
		}
		bw.printf("%s\t%d\t%s\t%.2f\t%.2f\t%.2f\t%s\n",
			st.Kind, st.JobID, task, st.Start, st.End, st.End-st.Start, st.Detail)
	}

	if causes := r.MissCauses(); len(causes) > 0 {
		bw.printf("\n# deadline-miss root causes\n")
		bw.printf("cause\tjobs\tseconds\toverrun\n")
		for _, c := range causes {
			bw.printf("%s\t%d\t%.2f\t%.2f\n", c.Cause, c.Jobs, c.Seconds, c.Overrun)
		}
		bw.printf("\n# top deadline misses\n")
		bw.printf("job\tname\tdeadline\tfinish\toverrun\troot-cause\n")
		for _, e := range r.TopMisses(topK) {
			bw.printf("%d\t%s\t%.2f\t%.2f\t%.2f\t%s\n",
				e.JobID, e.Name, e.Deadline, e.Finish, e.Finish-e.Deadline, e.RootCause)
		}
	}

	type ownedWait struct {
		job  int
		name string
		w    WaitInterval
	}
	var waits []ownedWait
	for i := range r.Jobs {
		e := &r.Jobs[i]
		for _, wi := range e.Waits {
			waits = append(waits, ownedWait{e.JobID, e.Name, wi})
		}
	}
	sort.SliceStable(waits, func(i, j int) bool {
		return waits[i].w.Duration() > waits[j].w.Duration()
	})
	if len(waits) > topK {
		waits = waits[:topK]
	}
	if len(waits) > 0 {
		bw.printf("\n# longest waits\n")
		bw.printf("job\tname\tphase\tstart\tend\tdur\tblame\n")
		for _, ow := range waits {
			bw.printf("%d\t%s\t%s\t%.2f\t%.2f\t%.2f\t%s\n",
				ow.job, ow.name, ow.w.Phase, ow.w.Start, ow.w.End, ow.w.Duration(), ow.w.Blame())
		}
	}
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// JSON shapes — stable field order, phases as a name-keyed object
// (encoding/json sorts map keys, so output is deterministic).

type jobJSON struct {
	ID         int                `json:"id"`
	Name       string             `json:"name,omitempty"`
	Arrival    float64            `json:"arrival"`
	Finish     float64            `json:"finish"`
	Completion float64            `json:"completion"`
	Deadline   float64            `json:"deadline,omitempty"`
	Missed     bool               `json:"missed,omitempty"`
	RootCause  string             `json:"root_cause"`
	Phases     map[string]float64 `json:"phases"`
	Waits      []waitJSON         `json:"waits,omitempty"`
}

type waitJSON struct {
	Phase     string  `json:"phase"`
	Class     string  `json:"class"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	BlameJob  int     `json:"blame_job"`
	BlameTask int     `json:"blame_task,omitempty"`
	Blame     string  `json:"blame"`
}

type cpJSON struct {
	Kind   string  `json:"kind"`
	JobID  int     `json:"job"`
	Task   int     `json:"task"`
	Reduce bool    `json:"reduce,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Detail string  `json:"detail,omitempty"`
}

type reportJSON struct {
	Jobs         []jobJSON   `json:"jobs"`
	CriticalPath []cpJSON    `json:"critical_path"`
	MissCauses   []causeJSON `json:"miss_causes,omitempty"`
	Makespan     float64     `json:"makespan"`
	Events       uint64      `json:"events"`
}

type causeJSON struct {
	Cause   string  `json:"cause"`
	Jobs    int     `json:"jobs"`
	Seconds float64 `json:"seconds"`
	Overrun float64 `json:"overrun"`
}

// WriteJSON renders the report as indented JSON (machine-readable form
// of WriteTSV; same information plus every wait interval).
func (r *Report) WriteJSON(w io.Writer) error {
	out := reportJSON{Makespan: r.Makespan, Events: r.Events}
	out.Jobs = make([]jobJSON, 0, len(r.Jobs))
	for i := range r.Jobs {
		e := &r.Jobs[i]
		je := jobJSON{
			ID: e.JobID, Name: e.Name,
			Arrival: e.Arrival, Finish: e.Finish, Completion: e.Completion(),
			Deadline: e.Deadline, Missed: e.Missed,
			RootCause: e.RootCause.String(),
			Phases:    make(map[string]float64, PhaseCount),
		}
		for p := Phase(0); p < PhaseCount; p++ {
			je.Phases[p.String()] = e.Phases[p]
		}
		for _, wi := range e.Waits {
			class := "map"
			if wi.Reduce {
				class = "reduce"
			}
			je.Waits = append(je.Waits, waitJSON{
				Phase: wi.Phase.String(), Class: class,
				Start: wi.Start, End: wi.End,
				BlameJob: wi.BlameJob, BlameTask: wi.BlameTask,
				Blame: wi.Blame(),
			})
		}
		out.Jobs = append(out.Jobs, je)
	}
	for _, st := range r.CriticalPath {
		out.CriticalPath = append(out.CriticalPath, cpJSON{
			Kind: st.Kind.String(), JobID: st.JobID, Task: st.Task,
			Reduce: st.Reduce, Start: st.Start, End: st.End, Detail: st.Detail,
		})
	}
	for _, c := range r.MissCauses() {
		out.MissCauses = append(out.MissCauses, causeJSON{
			Cause: c.Cause.String(), Jobs: c.Jobs, Seconds: c.Seconds, Overrun: c.Overrun,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// JobDelta is one job's attribution change between a control run and a
// what-if branch: positive deltas mean the branch spent more.
type JobDelta struct {
	JobID           int
	Name            string
	CompletionDelta float64
	PhaseDeltas     [PhaseCount]float64
	MissedControl   bool
	MissedBranch    bool
}

// LargestShift returns the phase with the largest absolute delta.
func (d *JobDelta) LargestShift() (Phase, float64) {
	best := Phase(0)
	for p := Phase(1); p < PhaseCount; p++ {
		if math.Abs(d.PhaseDeltas[p]) > math.Abs(d.PhaseDeltas[best]) {
			best = p
		}
	}
	return best, d.PhaseDeltas[best]
}

// String renders the delta headline: "job 2 (sort): completion -40.00s
// (reduce-slot-wait -40.00s)".
func (d *JobDelta) String() string {
	name := ""
	if d.Name != "" {
		name = fmt.Sprintf(" (%s)", d.Name)
	}
	p, shift := d.LargestShift()
	verdict := ""
	switch {
	case d.MissedControl && !d.MissedBranch:
		verdict = ", now meets deadline"
	case !d.MissedControl && d.MissedBranch:
		verdict = ", now MISSES deadline"
	}
	return fmt.Sprintf("job %d%s: completion %+.2fs (%s %+.2fs)%s",
		d.JobID, name, d.CompletionDelta, p, shift, verdict)
}

// AttrDiff compares a branch attribution against its control.
type AttrDiff struct {
	// Jobs holds per-job deltas for every job present in both runs,
	// sorted by |completion delta| descending; among equal deltas, the
	// jobs whose deadline status changed come first.
	Jobs []JobDelta
	// PhaseTotals sums the per-job phase deltas.
	PhaseTotals [PhaseCount]float64
	// MakespanDelta is branch − control.
	MakespanDelta float64
	// FixedJobs / BrokenJobs count deadline flips branch-vs-control.
	FixedJobs  int
	BrokenJobs int
}

// Diff computes the attribution delta of branch relative to control.
// Jobs only present in one run are skipped — there is nothing to diff
// against.
func Diff(control, branch *Report) *AttrDiff {
	base := make(map[int]*Explanation, len(control.Jobs))
	for i := range control.Jobs {
		base[control.Jobs[i].JobID] = &control.Jobs[i]
	}
	d := &AttrDiff{MakespanDelta: branch.Makespan - control.Makespan}
	for i := range branch.Jobs {
		b := &branch.Jobs[i]
		c, ok := base[b.JobID]
		if !ok {
			continue
		}
		jd := JobDelta{
			JobID: b.JobID, Name: b.Name,
			CompletionDelta: b.Completion() - c.Completion(),
			MissedControl:   c.Missed, MissedBranch: b.Missed,
		}
		for p := Phase(0); p < PhaseCount; p++ {
			jd.PhaseDeltas[p] = b.Phases[p] - c.Phases[p]
			d.PhaseTotals[p] += jd.PhaseDeltas[p]
		}
		if c.Missed && !b.Missed {
			d.FixedJobs++
		} else if !c.Missed && b.Missed {
			d.BrokenJobs++
		}
		d.Jobs = append(d.Jobs, jd)
	}
	// Largest completion shift first; among equal shifts, a job whose
	// deadline was fixed or broken ahead of one whose status held.
	sort.SliceStable(d.Jobs, func(i, k int) bool {
		a, b := &d.Jobs[i], &d.Jobs[k]
		if da, db := math.Abs(a.CompletionDelta), math.Abs(b.CompletionDelta); da != db {
			return da > db
		}
		return a.MissedControl != a.MissedBranch && b.MissedControl == b.MissedBranch
	})
	return d
}

// Headline summarizes the diff in one line for the whatif table:
// "makespan -12.00s, 3 deadlines fixed; biggest shift: job 2
// reduce-slot-wait -40.00s".
func (d *AttrDiff) Headline() string {
	s := fmt.Sprintf("makespan %+.2fs", d.MakespanDelta)
	if d.FixedJobs > 0 {
		s += fmt.Sprintf(", %d deadline(s) fixed", d.FixedJobs)
	}
	if d.BrokenJobs > 0 {
		s += fmt.Sprintf(", %d deadline(s) broken", d.BrokenJobs)
	}
	if len(d.Jobs) > 0 {
		jd := &d.Jobs[0]
		if p, shift := jd.LargestShift(); shift != 0 {
			s += fmt.Sprintf("; biggest shift: job %d %s %+.2fs", jd.JobID, p, shift)
		}
	}
	return s
}

// WriteTSV renders the per-job diff table, largest completion change
// first, capped at topK rows (0 = all).
func (d *AttrDiff) WriteTSV(w io.Writer, topK int) error {
	bw := &errWriter{w: w}
	bw.printf("# diff vs control: %s\n", d.Headline())
	bw.printf("job\tname\tcompletion-delta")
	for p := Phase(0); p < PhaseCount; p++ {
		bw.printf("\t%s", p)
	}
	bw.printf("\tdeadline\n")
	rows := d.Jobs
	if topK > 0 && len(rows) > topK {
		rows = rows[:topK]
	}
	for i := range rows {
		jd := &rows[i]
		bw.printf("%d\t%s\t%+.2f", jd.JobID, jd.Name, jd.CompletionDelta)
		for p := Phase(0); p < PhaseCount; p++ {
			bw.printf("\t%+.2f", jd.PhaseDeltas[p])
		}
		flip := "-"
		switch {
		case jd.MissedControl && !jd.MissedBranch:
			flip = "fixed"
		case !jd.MissedControl && jd.MissedBranch:
			flip = "broken"
		case jd.MissedBranch:
			flip = "still-missed"
		}
		bw.printf("\t%s\n", flip)
	}
	return bw.err
}

// OverlaySpans converts a critical path into Chrome-trace overlay spans
// (obs.ChromeTraceSink.SetOverlay): the chain of task executions, slot
// waits, and barriers that determined the makespan, rendered as its own
// track above the slot timeline.
func OverlaySpans(cp []CPStep) []obs.OverlaySpan {
	out := make([]obs.OverlaySpan, 0, len(cp))
	for i := range cp {
		st := &cp[i]
		name := st.Kind.String()
		if st.Kind == CPTask {
			class := "m"
			if st.Reduce {
				class = "r"
			}
			name = fmt.Sprintf("j%d/%s%d", st.JobID, class, st.Task)
		} else if st.JobID >= 0 {
			name = fmt.Sprintf("%s j%d", st.Kind, st.JobID)
		}
		out = append(out, obs.OverlaySpan{
			Name: name, Cat: "critical-path",
			Start: st.Start, End: st.End,
			Detail: st.Detail,
		})
	}
	return out
}
