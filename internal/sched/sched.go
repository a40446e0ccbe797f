// Package sched implements the pluggable scheduling policies of §III-C.
//
// SimMR's simulator engine (and this reproduction's cluster emulator)
// communicate with a policy through the paper's deliberately narrow
// interface: ChooseNextMapTask(jobQ) and ChooseNextReduceTask(jobQ),
// each returning which job's task should occupy the next free slot.
// Policies that size allocations on arrival (MinEDF) additionally
// implement ArrivalAware.
package sched

import (
	"math"

	"simmr/internal/model"
	"simmr/internal/trace"
)

// JobInfo is the scheduler-visible state of one active job, maintained
// by the simulator that owns the job queue.
type JobInfo struct {
	ID       int
	Name     string
	Arrival  float64
	Deadline float64 // absolute; 0 = none

	NumMaps    int
	NumReduces int

	// Scheduler-visible progress counters, maintained by the engine.
	ScheduledMaps    int // tasks handed to slots so far (running + done)
	CompletedMaps    int
	ScheduledReduces int
	CompletedReduces int

	// ReduceReady is set once enough maps have completed for reduce
	// tasks to be launched (the engine's minMapPercentCompleted gate).
	ReduceReady bool

	// leaf holds the job's leaf slot + 1 in the Tournament of each Lane
	// (0 = not indexed); see Tournament.slot. Index bookkeeping only —
	// no policy decision reads it. (Placed here to share ReduceReady's
	// alignment padding.)
	leaf [numLanes]int32

	// Profile points at the compact job profile for model-based policies
	// — the template's memoized one (Template.ProfileRef), shared
	// read-only by every job built from it. Nil reads as the zero profile.
	Profile *trace.Profile

	// WantedMaps / WantedReduces cap concurrent tasks for policies that
	// size allocations (MinEDF). Zero means unlimited.
	WantedMaps    int
	WantedReduces int
}

// PendingMaps returns the number of map tasks not yet handed to a slot.
func (j *JobInfo) PendingMaps() int { return j.NumMaps - j.ScheduledMaps }

// PendingReduces returns reduce tasks not yet handed to a slot.
func (j *JobInfo) PendingReduces() int { return j.NumReduces - j.ScheduledReduces }

// RunningMaps returns map tasks currently occupying slots.
func (j *JobInfo) RunningMaps() int { return j.ScheduledMaps - j.CompletedMaps }

// RunningReduces returns reduce tasks currently occupying slots.
func (j *JobInfo) RunningReduces() int { return j.ScheduledReduces - j.CompletedReduces }

// MapsDone reports whether the whole map stage has completed.
func (j *JobInfo) MapsDone() bool { return j.CompletedMaps >= j.NumMaps }

// Done reports whether the job has fully completed.
func (j *JobInfo) Done() bool {
	return j.MapsDone() && j.CompletedReduces >= j.NumReduces
}

// wantsMapSlot reports whether the job can use one more map slot under
// its policy caps.
func (j *JobInfo) wantsMapSlot() bool {
	if j.PendingMaps() <= 0 {
		return false
	}
	return j.WantedMaps == 0 || j.RunningMaps() < j.WantedMaps
}

// wantsReduceSlot reports whether the job can use one more reduce slot.
func (j *JobInfo) wantsReduceSlot() bool {
	if !j.ReduceReady || j.PendingReduces() <= 0 {
		return false
	}
	return j.WantedReduces == 0 || j.RunningReduces() < j.WantedReduces
}

// EffectiveDeadline orders jobs for EDF: the absolute deadline, or +Inf
// for jobs without one (they sort last, amongst themselves by arrival).
// Exported for the engine's preemption index, which maximizes it.
func (j *JobInfo) EffectiveDeadline() float64 {
	if j.Deadline <= 0 {
		return math.Inf(1)
	}
	return j.Deadline
}

// Policy is the paper's narrow scheduler interface. Implementations
// return the index into jobQ of the job whose map (or reduce) task
// should be executed next, or -1 when no job should receive the slot.
type Policy interface {
	Name() string
	ChooseNextMapTask(jobQ []*JobInfo) int
	ChooseNextReduceTask(jobQ []*JobInfo) int
}

// ArrivalAware is implemented by policies that react to job arrivals
// (MinEDF computes its minimal allocation there).
type ArrivalAware interface {
	OnJobArrival(j *JobInfo, totalMapSlots, totalReduceSlots int)
}

// FIFO finds the earliest-arriving job that needs a map (or reduce)
// task executed next.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// ChooseNextMapTask implements Policy.
func (FIFO) ChooseNextMapTask(q []*JobInfo) int {
	return argmin(q, (*JobInfo).wantsMapSlot, byArrival)
}

// ChooseNextReduceTask implements Policy.
func (FIFO) ChooseNextReduceTask(q []*JobInfo) int {
	return argmin(q, (*JobInfo).wantsReduceSlot, byArrival)
}

// MaxEDF orders jobs by earliest deadline and gives each the maximum
// available resources (the per-job allocation behaves like FIFO's).
type MaxEDF struct{}

// Name implements Policy.
func (MaxEDF) Name() string { return "MaxEDF" }

// ChooseNextMapTask implements Policy.
func (MaxEDF) ChooseNextMapTask(q []*JobInfo) int {
	return argmin(q, (*JobInfo).wantsMapSlot, byDeadline)
}

// ChooseNextReduceTask implements Policy.
func (MaxEDF) ChooseNextReduceTask(q []*JobInfo) int {
	return argmin(q, (*JobInfo).wantsReduceSlot, byDeadline)
}

// Estimator selects which completion-time estimate MinEDF sizes
// allocations against. The paper uses the midpoint of the ARIA bounds
// ("typically, the average of lower and upper bounds is a good
// approximation"); the other two exist for the estimator ablation.
type Estimator int

// Estimator choices.
const (
	// EstimatorAvg sizes against the bounds midpoint (paper default).
	EstimatorAvg Estimator = iota
	// EstimatorLow sizes optimistically against the lower bound: fewer
	// slots, higher risk of missing the deadline.
	EstimatorLow
	// EstimatorUp sizes conservatively against the upper bound: more
	// slots, deadline met with margin.
	EstimatorUp
)

// String names the estimator for reports.
func (e Estimator) String() string {
	switch e {
	case EstimatorLow:
		return "low"
	case EstimatorUp:
		return "up"
	default:
		return "avg"
	}
}

// MinEDF orders jobs by earliest deadline but allocates each job only
// the minimal number of map and reduce slots needed to meet its
// deadline, computed from the ARIA bounds model when the job arrives
// (§V-A). Spare resources are left for later arrivals.
//
// The zero value uses the paper's bounds-midpoint estimator; set
// Estimate to run the sizing ablation.
type MinEDF struct {
	Estimate Estimator
}

// Name implements Policy.
func (m MinEDF) Name() string {
	if m.Estimate == EstimatorAvg {
		return "MinEDF"
	}
	return "MinEDF-" + m.Estimate.String()
}

// OnJobArrival sizes the job's allocation: the minimal (S_M, S_R) on the
// deadline hyperbola, clamped to cluster capacity. Jobs without
// deadlines get unlimited allocations (FIFO-like behaviour).
func (m MinEDF) OnJobArrival(j *JobInfo, totalMapSlots, totalReduceSlots int) {
	if j.Deadline <= 0 {
		j.WantedMaps, j.WantedReduces = 0, 0
		return
	}
	var profile trace.Profile
	if j.Profile != nil {
		profile = *j.Profile
	}
	var coeffs model.Coeffs
	switch m.Estimate {
	case EstimatorLow:
		coeffs = model.LowCoeffs(profile)
	case EstimatorUp:
		coeffs = model.UpCoeffs(profile)
	default:
		coeffs = model.AvgCoeffs(profile)
	}
	relDeadline := j.Deadline - j.Arrival
	alloc := model.MinimalSlotsCoeffs(profile, coeffs, relDeadline, totalMapSlots, totalReduceSlots)
	j.WantedMaps = alloc.MapSlots
	j.WantedReduces = alloc.ReduceSlots
}

// ChooseNextMapTask implements Policy. The wanted-slot caps are enforced
// by JobInfo.wantsMapSlot, which keeps running tasks below the wanted
// count, exactly as §III-C describes.
func (MinEDF) ChooseNextMapTask(q []*JobInfo) int {
	return argmin(q, (*JobInfo).wantsMapSlot, byDeadline)
}

// ChooseNextReduceTask implements Policy.
func (MinEDF) ChooseNextReduceTask(q []*JobInfo) int {
	return argmin(q, (*JobInfo).wantsReduceSlot, byDeadline)
}

// byArrival orders a before b by arrival time, breaking ties by ID.
func byArrival(a, b *JobInfo) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// byDeadline orders by effective deadline, then arrival, then ID.
func byDeadline(a, b *JobInfo) bool {
	da, db := a.EffectiveDeadline(), b.EffectiveDeadline()
	if da != db {
		return da < db
	}
	return byArrival(a, b)
}

// argmin returns the index of the minimal eligible job, or -1.
func argmin(q []*JobInfo, eligible func(*JobInfo) bool, less func(a, b *JobInfo) bool) int {
	best := -1
	for i, j := range q {
		if j == nil || !eligible(j) {
			continue
		}
		if best == -1 || less(j, q[best]) {
			best = i
		}
	}
	return best
}
