// Package mumak re-implements the modeling behaviour of Apache's Mumak
// MapReduce simulator (MAPREDUCE-728), the baseline the paper compares
// SimMR against (§IV-A, §IV-D, §IV-E).
//
// The two documented properties that distinguish Mumak from SimMR are
// reproduced exactly:
//
//  1. Mumak simulates the TaskTrackers and their heartbeats. Slot
//     allocation happens only when a simulated tracker heartbeats to the
//     job tracker, so the simulation processes vastly more events than a
//     task-level replay — the reason Mumak is two orders of magnitude
//     slower (Figure 6: "Mumak simulates the TaskTrackers and the
//     heartbeats between them, which leads to greater number of
//     simulated events and computation").
//
//  2. Mumak does not model the shuffle phase. A special
//     AllMapsFinished event triggers the reduce phase, and "Mumak models
//     the total runtime of the reduce task as the summation of the time
//     taken for completion of all maps and the time taken for an
//     individual task to complete the reduce phase (without the
//     shuffle)". Consequently it underestimates completion times of
//     shuffle-heavy jobs — the error shown in Figure 5(a).
//
// Like the real Mumak, it executes the scheduling policy "as-is" on
// every heartbeat.
package mumak

import (
	"fmt"

	"simmr/internal/des"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// Config describes the simulated cluster Mumak replays onto.
type Config struct {
	Nodes              int
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// HeartbeatInterval in seconds; Hadoop 0.20 uses 0.3 s for clusters
	// of this size.
	HeartbeatInterval float64
	// MinMapPercentCompleted gates reduce launches, as in the engine.
	MinMapPercentCompleted float64
}

// DefaultConfig mirrors the paper's testbed: 64 trackers with one map
// and one reduce slot each.
func DefaultConfig() Config {
	return Config{
		Nodes:                  64,
		MapSlotsPerNode:        1,
		ReduceSlotsPerNode:     1,
		HeartbeatInterval:      0.3,
		MinMapPercentCompleted: 0.05,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("mumak: Nodes = %d", c.Nodes)
	case c.MapSlotsPerNode < 0 || c.ReduceSlotsPerNode < 0:
		return fmt.Errorf("mumak: negative slots per node")
	case c.HeartbeatInterval <= 0:
		return fmt.Errorf("mumak: HeartbeatInterval = %v", c.HeartbeatInterval)
	case c.MinMapPercentCompleted < 0 || c.MinMapPercentCompleted > 1:
		return fmt.Errorf("mumak: MinMapPercentCompleted = %v", c.MinMapPercentCompleted)
	}
	return nil
}

// JobOutcome reports one replayed job.
type JobOutcome struct {
	ID          int
	Name        string
	Arrival     float64
	Finish      float64
	MapStageEnd float64
}

// CompletionTime returns finish − arrival.
func (o *JobOutcome) CompletionTime() float64 { return o.Finish - o.Arrival }

// Result is the outcome of one Mumak replay.
type Result struct {
	Jobs     []JobOutcome
	Events   uint64
	Makespan float64
}

const (
	evHeartbeat = iota
	evJobArrival
	evMapDone
	evAllMapsFinished
	evReduceDone
)

type simJob struct {
	info *sched.JobInfo
	tpl  *trace.Template
	out  JobOutcome

	nextMap      int
	nextReduce   int
	slowstartMin int

	// waiting are reduce tasks that started before AllMapsFinished;
	// each holds its reduce-phase duration, applied from the map-stage
	// end (Mumak's reduce model).
	waiting      []waitingReduce
	allMapsFired bool
	done         bool
}

type waitingReduce struct {
	node   int
	reduce float64
}

// Simulator replays one trace with Mumak's modeling choices.
type Simulator struct {
	cfg    Config
	policy sched.Policy

	clock des.Clock
	q     des.EventQueue

	freeMap    []int
	freeReduce []int

	jobs      []*simJob
	indexOf   map[int]int // job ID -> index in jobs
	active    []*sched.JobInfo
	remaining int
}

// New builds a Mumak replay of the trace.
func New(cfg Config, tr *trace.Trace, policy sched.Policy) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:        cfg,
		policy:     policy,
		indexOf:    make(map[int]int, len(tr.Jobs)),
		freeMap:    make([]int, cfg.Nodes),
		freeReduce: make([]int, cfg.Nodes),
		remaining:  len(tr.Jobs),
	}
	for n := 0; n < cfg.Nodes; n++ {
		s.freeMap[n] = cfg.MapSlotsPerNode
		s.freeReduce[n] = cfg.ReduceSlotsPerNode
	}
	for _, j := range tr.Jobs {
		slowstart := int(float64(j.Template.NumMaps)*cfg.MinMapPercentCompleted + 0.9999)
		if slowstart < 1 {
			slowstart = 1
		}
		s.indexOf[j.ID] = len(s.jobs)
		s.jobs = append(s.jobs, &simJob{
			info: &sched.JobInfo{
				ID: j.ID, Name: j.Name,
				Arrival: j.Arrival, Deadline: j.Deadline,
				NumMaps: j.Template.NumMaps, NumReduces: j.Template.NumReduces,
				Profile: j.Template.ProfileRef(),
			},
			tpl:          j.Template,
			out:          JobOutcome{ID: j.ID, Name: j.Name, Arrival: j.Arrival},
			slowstartMin: slowstart,
		})
	}
	return s, nil
}

// Run replays the trace to completion.
func (s *Simulator) Run() (*Result, error) {
	for _, sj := range s.jobs {
		s.q.Push(sj.info.Arrival, evJobArrival, sj.info.ID, nil)
	}
	for n := 0; n < s.cfg.Nodes; n++ {
		offset := s.cfg.HeartbeatInterval * float64(n) / float64(s.cfg.Nodes)
		s.q.Push(offset, evHeartbeat, n, nil)
	}
	for s.remaining > 0 {
		if s.q.Len() == 0 {
			return nil, fmt.Errorf("mumak: deadlock with %d jobs unfinished", s.remaining)
		}
		ev := s.q.Pop()
		s.clock.AdvanceTo(ev.Time)
		switch ev.Type {
		case evHeartbeat:
			s.onHeartbeat(ev.JobID)
		case evJobArrival:
			s.onJobArrival(s.jobs[s.indexOf[ev.JobID]])
		case evMapDone:
			s.onMapDone(s.jobs[s.indexOf[ev.JobID]], ev.Payload.(int))
		case evAllMapsFinished:
			s.onAllMapsFinished(s.jobs[s.indexOf[ev.JobID]])
		case evReduceDone:
			s.onReduceDone(s.jobs[s.indexOf[ev.JobID]], ev.Payload.(int))
		default:
			return nil, fmt.Errorf("mumak: unknown event type %d", ev.Type)
		}
	}
	res := &Result{Events: s.q.Fired()}
	for _, sj := range s.jobs {
		res.Jobs = append(res.Jobs, sj.out)
		if sj.out.Finish > res.Makespan {
			res.Makespan = sj.out.Finish
		}
	}
	return res, nil
}

func (s *Simulator) onJobArrival(sj *simJob) {
	s.active = append(s.active, sj.info)
	if aa, ok := s.policy.(sched.ArrivalAware); ok {
		aa.OnJobArrival(sj.info, s.cfg.Nodes*s.cfg.MapSlotsPerNode, s.cfg.Nodes*s.cfg.ReduceSlotsPerNode)
	}
}

// onHeartbeat runs the scheduler for one tracker — Mumak's per-heartbeat
// scheduler invocation.
func (s *Simulator) onHeartbeat(node int) {
	now := s.clock.Now()
	for s.freeMap[node] > 0 {
		idx := s.policy.ChooseNextMapTask(s.active)
		if idx < 0 {
			break
		}
		s.startMap(s.jobs[s.indexOf[s.active[idx].ID]], node)
	}
	for s.freeReduce[node] > 0 {
		idx := s.policy.ChooseNextReduceTask(s.active)
		if idx < 0 {
			break
		}
		s.startReduce(s.jobs[s.indexOf[s.active[idx].ID]], node)
	}
	if s.remaining > 0 {
		s.q.Push(now+s.cfg.HeartbeatInterval, evHeartbeat, node, nil)
	}
}

func (s *Simulator) startMap(sj *simJob, node int) {
	i := sj.nextMap
	sj.nextMap++
	sj.info.ScheduledMaps++
	s.freeMap[node]--
	dur := sj.tpl.MapDuration(i)
	s.q.Push(s.clock.Now()+dur, evMapDone, sj.info.ID, node)
}

func (s *Simulator) onMapDone(sj *simJob, node int) {
	sj.info.CompletedMaps++
	s.freeMap[node]++
	if !sj.info.ReduceReady && sj.info.CompletedMaps >= sj.slowstartMin {
		sj.info.ReduceReady = true
	}
	if sj.info.MapsDone() && !sj.allMapsFired {
		sj.allMapsFired = true
		s.q.Push(s.clock.Now(), evAllMapsFinished, sj.info.ID, nil)
	}
}

func (s *Simulator) startReduce(sj *simJob, node int) {
	i := sj.nextReduce
	sj.nextReduce++
	sj.info.ScheduledReduces++
	s.freeReduce[node]--
	reducePhase := sj.tpl.ReduceDuration(i)
	now := s.clock.Now()
	if !sj.info.MapsDone() {
		// Reduce runtime = (time for all maps to finish) + reduce phase,
		// with no shuffle: the task parks until AllMapsFinished.
		sj.waiting = append(sj.waiting, waitingReduce{node: node, reduce: reducePhase})
		return
	}
	s.q.Push(now+reducePhase, evReduceDone, sj.info.ID, node)
}

// onAllMapsFinished is Mumak's special event triggering the reduce phase
// of parked reduces.
func (s *Simulator) onAllMapsFinished(sj *simJob) {
	now := s.clock.Now()
	sj.out.MapStageEnd = now
	for _, w := range sj.waiting {
		s.q.Push(now+w.reduce, evReduceDone, sj.info.ID, w.node)
	}
	sj.waiting = nil
	if sj.info.NumReduces == 0 {
		s.finish(sj)
	}
}

func (s *Simulator) onReduceDone(sj *simJob, node int) {
	sj.info.CompletedReduces++
	s.freeReduce[node]++
	if sj.info.Done() {
		s.finish(sj)
	}
}

func (s *Simulator) finish(sj *simJob) {
	if sj.done {
		return
	}
	sj.done = true
	sj.out.Finish = s.clock.Now()
	s.remaining--
	for i, info := range s.active {
		if info == sj.info {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
}

// Run is a convenience wrapper: build and run in one call.
func Run(cfg Config, tr *trace.Trace, policy sched.Policy) (*Result, error) {
	s, err := New(cfg, tr, policy)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
