package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"simmr/internal/des"
	"simmr/internal/hadooplog"
	"simmr/internal/sched"
	"simmr/internal/trace"
	"simmr/internal/workload"
)

// Job is one submission to the emulated cluster.
type Job struct {
	Name     string
	Spec     workload.Spec
	Arrival  float64
	Deadline float64 // absolute; 0 = none
	// Profile optionally carries a previously profiled job template
	// summary for model-based policies (MinEDF); on the real testbed
	// this comes from earlier profiling runs of the same application.
	Profile trace.Profile
}

// Locality classifies how close a map task ran to its input block.
type Locality int

// Locality levels, best first.
const (
	NodeLocal Locality = iota
	RackLocal
	OffRack
)

// String names the locality level.
func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case RackLocal:
		return "rack-local"
	default:
		return "off-rack"
	}
}

// MapSpan records one executed map task. Local reports node-locality
// (Locality == NodeLocal) for convenience.
type MapSpan struct {
	Start, End float64
	Node       int
	Local      bool
	Locality   Locality
}

// Duration returns the task's execution time.
func (s MapSpan) Duration() float64 { return s.End - s.Start }

// ReduceSpan records one executed reduce task through its phases:
// Start → FetchEnd (all partitions copied) → SortEnd (final merge done)
// → End (user reduce function done).
type ReduceSpan struct {
	Start, FetchEnd, SortEnd, End float64
	Node                          int
}

// ShuffleDuration returns the combined shuffle/sort phase length (the
// paper folds the interleaved sort into "shuffle").
func (s ReduceSpan) ShuffleDuration() float64 { return s.SortEnd - s.Start }

// ReduceDuration returns the user reduce-phase length.
func (s ReduceSpan) ReduceDuration() float64 { return s.End - s.SortEnd }

// JobResult is the ground truth produced by one emulated job execution.
type JobResult struct {
	ID          int
	Name        string
	App         string
	Dataset     string
	Submit      float64
	Finish      float64
	MapStageEnd float64
	Deadline    float64
	Maps        []MapSpan
	Reduces     []ReduceSpan
}

// CompletionTime returns finish − submit.
func (r *JobResult) CompletionTime() float64 { return r.Finish - r.Submit }

// Result is the outcome of a full emulation run.
type Result struct {
	Jobs []JobResult
	// Events is the number of discrete events processed — the quantity
	// that makes fine-grained simulation slow (Figure 6 discussion).
	Events uint64
	// Makespan is the completion time of the last job.
	Makespan float64
}

// LocalityBreakdown counts executed map tasks per locality level across
// all jobs of the run.
func (r *Result) LocalityBreakdown() map[Locality]int {
	out := make(map[Locality]int, 3)
	for i := range r.Jobs {
		for _, m := range r.Jobs[i].Maps {
			out[m.Locality]++
		}
	}
	return out
}

// event types
const (
	evHeartbeat = iota
	evJobArrival
	evMapDone
	evFetchPoll
	evSortDone
	evReduceDone
)

// simJob is the emulator's internal per-job state.
type simJob struct {
	id   int
	job  Job
	info *sched.JobInfo
	res  JobResult

	// partPerMapMB is the intermediate data each map contributes to
	// each reduce partition.
	partPerMapMB float64
	partTotalMB  float64

	// pendingByNode maps node -> task indices with a replica there;
	// pendingByRack the same per rack.
	pendingByNode map[int][]int
	pendingByRack map[int][]int
	pendingOrder  []int // FIFO of unassigned task indices
	assigned      []bool

	// mapDone marks completed map tasks; attempts holds each task's
	// in-flight attempts, by task index (more than one only with
	// speculative execution).
	mapDone     []bool
	attempts    [][]mapAttempt
	sumMapDur   float64 // total duration of completed maps (for straggler detection)
	replicaSets []map[int]bool

	reduces    []*reduceState
	nextReduce int

	// skipSince is the time this job first declined a non-local slot
	// under delay scheduling; -1 when not currently waiting.
	skipSince float64

	arrived  bool
	finished bool
}

// mapAttempt is one execution attempt of a map task; its try number is
// its index among the task's attempts.
type mapAttempt struct {
	node     int
	start    float64
	locality Locality
	seq      uint64 // its evMapDone record
}

type reduceState struct {
	idx     int
	node    int
	started bool
	span    ReduceSpan

	fetchedMB float64
	fetchDone bool
}

// Simulator emulates the testbed for one workload run. Create with New,
// then call Run once.
type Simulator struct {
	cfg    Config
	policy sched.Policy
	rng    *rand.Rand
	logw   *hadooplog.Writer

	clock des.Clock
	q     des.Lanes

	nodeSpeed       []float64
	freeMapSlots    []int
	freeReduceSlots []int

	jobs      []*simJob
	active    []*sched.JobInfo // jobQ passed to the policy
	remaining int
}

// New builds a simulator for the given configuration, workload and
// policy. logw may be nil to skip JobTracker log emission.
func New(cfg Config, jobs []Job, policy sched.Policy, logw *hadooplog.Writer) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: no jobs to run")
	}
	for i := range jobs {
		if err := jobs[i].Spec.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: job %d: %w", i, err)
		}
		if jobs[i].Arrival < 0 {
			return nil, fmt.Errorf("cluster: job %d: negative arrival", i)
		}
	}
	s := &Simulator{
		cfg:       cfg,
		policy:    policy,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		logw:      logw,
		remaining: len(jobs),
	}
	s.nodeSpeed = make([]float64, cfg.Workers)
	s.freeMapSlots = make([]int, cfg.Workers)
	s.freeReduceSlots = make([]int, cfg.Workers)
	for n := 0; n < cfg.Workers; n++ {
		speed := 1 + s.rng.NormFloat64()*cfg.NodeJitter
		if speed < 0.5 {
			speed = 0.5
		}
		s.nodeSpeed[n] = speed
		s.freeMapSlots[n] = cfg.MapSlotsPerNode
		s.freeReduceSlots[n] = cfg.ReduceSlotsPerNode
	}
	for i := range jobs {
		s.jobs = append(s.jobs, s.prepareJob(i, jobs[i]))
	}
	return s, nil
}

func (s *Simulator) prepareJob(id int, j Job) *simJob {
	name := j.Name
	if name == "" {
		name = j.Spec.App
	}
	sj := &simJob{
		id:  id,
		job: j,
		info: &sched.JobInfo{
			ID: id, Name: name,
			Arrival: j.Arrival, Deadline: j.Deadline,
			NumMaps: j.Spec.NumMaps, NumReduces: j.Spec.NumReduces,
		},
		res: JobResult{
			ID: id, Name: name, App: j.Spec.App, Dataset: j.Spec.Dataset,
			Submit: j.Arrival, Deadline: j.Deadline,
			Maps:    make([]MapSpan, j.Spec.NumMaps),
			Reduces: make([]ReduceSpan, j.Spec.NumReduces),
		},
		pendingByNode: make(map[int][]int),
		pendingByRack: make(map[int][]int),
		assigned:      make([]bool, j.Spec.NumMaps),
		mapDone:       make([]bool, j.Spec.NumMaps),
		attempts:      make([][]mapAttempt, j.Spec.NumMaps),
		replicaSets:   make([]map[int]bool, j.Spec.NumMaps),
		skipSince:     -1,
	}
	sj.info.Profile = &sj.job.Profile
	if j.Spec.NumReduces > 0 {
		sj.partPerMapMB = j.Spec.BlockMB * j.Spec.Selectivity / float64(j.Spec.NumReduces)
		sj.partTotalMB = sj.partPerMapMB * float64(j.Spec.NumMaps)
	}
	// HDFS placement: each block gets Replication distinct replica nodes,
	// the second and later on a different rack where possible.
	for t := 0; t < j.Spec.NumMaps; t++ {
		sj.pendingOrder = append(sj.pendingOrder, t)
		reps := s.pickReplicas()
		sj.replicaSets[t] = make(map[int]bool, len(reps))
		racksSeen := map[int]bool{}
		for _, n := range reps {
			sj.pendingByNode[n] = append(sj.pendingByNode[n], t)
			sj.replicaSets[t][n] = true
			if rack := s.rackOf(n); !racksSeen[rack] {
				racksSeen[rack] = true
				sj.pendingByRack[rack] = append(sj.pendingByRack[rack], t)
			}
		}
	}
	sj.reduces = make([]*reduceState, j.Spec.NumReduces)
	for r := range sj.reduces {
		sj.reduces[r] = &reduceState{idx: r}
	}
	return sj
}

// rackOf maps a node to its rack (round-robin assignment).
func (s *Simulator) rackOf(node int) int { return node % s.cfg.Racks }

// pickReplicas follows HDFS placement: the first replica on a random
// node, subsequent replicas on a single different rack (when one
// exists), distinct nodes throughout.
func (s *Simulator) pickReplicas() []int {
	k := s.cfg.Replication
	if k > s.cfg.Workers {
		k = s.cfg.Workers
	}
	reps := make([]int, 0, k)
	seen := make(map[int]bool, k)
	add := func(n int) bool {
		if seen[n] {
			return false
		}
		seen[n] = true
		reps = append(reps, n)
		return true
	}
	first := s.rng.Intn(s.cfg.Workers)
	add(first)
	// Pick the remote rack for the remaining replicas.
	remoteRack := -1
	if s.cfg.Racks > 1 {
		remoteRack = (s.rackOf(first) + 1 + s.rng.Intn(s.cfg.Racks-1)) % s.cfg.Racks
	}
	for tries := 0; len(reps) < k && tries < 64*k; tries++ {
		n := s.rng.Intn(s.cfg.Workers)
		if remoteRack >= 0 && s.rackOf(n) != remoteRack {
			continue
		}
		add(n)
	}
	// Tiny remote racks may not have enough distinct nodes: fill from
	// anywhere.
	for len(reps) < k {
		add(s.rng.Intn(s.cfg.Workers))
	}
	return reps
}

// Run executes the emulation to completion and returns the result.
func (s *Simulator) Run() (*Result, error) {
	// Seed job arrivals and the first heartbeat of every node,
	// staggered across the interval so trackers do not beat in
	// lockstep.
	for _, sj := range s.jobs {
		s.q.Push(sj.job.Arrival, evJobArrival, sj.id, 0)
	}
	for n := 0; n < s.cfg.Workers; n++ {
		offset := s.cfg.HeartbeatInterval * float64(n) / float64(s.cfg.Workers)
		s.q.Push(offset, evHeartbeat, 0, n)
	}

	// Task carries a heartbeat's node, a map's task index and a reduce's
	// index.
	var e des.Record
	for s.remaining > 0 {
		if !s.q.Pop(&e) {
			return nil, fmt.Errorf("cluster: deadlock: %d jobs unfinished with empty event queue", s.remaining)
		}
		s.clock.AdvanceTo(e.Time)
		sj, task := s.jobs[e.JobID], int(e.Task)
		switch e.Type {
		case evHeartbeat:
			s.onHeartbeat(task)
		case evJobArrival:
			s.onJobArrival(sj)
		case evMapDone:
			s.onMapDone(sj, task)
		case evFetchPoll:
			s.onFetchPoll(sj, sj.reduces[task])
		case evSortDone:
			s.onSortDone(sj, sj.reduces[task])
		case evReduceDone:
			s.onReduceDone(sj, sj.reduces[task])
		default:
			return nil, fmt.Errorf("cluster: unknown event type %d", e.Type)
		}
	}

	res := &Result{Events: s.q.Fired()}
	for _, sj := range s.jobs {
		res.Jobs = append(res.Jobs, sj.res)
		if sj.res.Finish > res.Makespan {
			res.Makespan = sj.res.Finish
		}
	}
	if s.logw != nil {
		if err := s.logw.Flush(); err != nil {
			return nil, fmt.Errorf("cluster: flush log: %w", err)
		}
	}
	return res, nil
}

// trySpeculate launches a duplicate of the most overdue running map task
// onto an idle slot of `node`, following Hadoop's straggler rule: a task
// is a straggler once its elapsed time exceeds SpeculativeSlowFactor
// times the mean duration of the job's completed maps (with a minimum
// number completed so the mean is meaningful). Of several equally
// overdue tasks — attempts launched in one heartbeat tie — the first in
// active-job and task-index order wins. Returns false when no candidate
// exists.
func (s *Simulator) trySpeculate(node int) bool {
	now := s.clock.Now()
	var bestJob *simJob
	var bestTask int
	var bestOverdue float64
	for _, info := range s.active {
		sj := s.jobByInfo(info)
		if sj.info.CompletedMaps < s.cfg.SpeculativeMinCompleted {
			continue
		}
		meanDur := sj.sumMapDur / float64(sj.info.CompletedMaps)
		threshold := s.cfg.SpeculativeSlowFactor * meanDur
		for task, atts := range sj.attempts {
			if len(atts) != 1 || sj.mapDone[task] {
				continue // already speculated or done
			}
			if atts[0].node == node {
				continue // duplicating onto the same node helps nothing
			}
			overdue := (now - atts[0].start) - threshold
			if overdue > 0 && overdue > bestOverdue {
				bestJob, bestTask, bestOverdue = sj, task, overdue
			}
		}
	}
	if bestJob == nil {
		return false
	}
	loc := OffRack
	if bestJob.replicaSets[bestTask][node] {
		loc = NodeLocal
	} else {
		for rep := range bestJob.replicaSets[bestTask] {
			if s.rackOf(rep) == s.rackOf(node) {
				loc = RackLocal
				break
			}
		}
	}
	s.launchMapAttempt(bestJob, bestTask, node, loc)
	return true
}

func (s *Simulator) onJobArrival(sj *simJob) {
	sj.arrived = true
	s.active = append(s.active, sj.info)
	if sj.info.NumMaps > 0 && s.cfg.SlowstartFraction == 0 {
		sj.info.ReduceReady = true
	}
	if aa, ok := s.policy.(sched.ArrivalAware); ok {
		aa.OnJobArrival(sj.info, s.cfg.MapSlots(), s.cfg.ReduceSlots())
	}
	if s.logw != nil {
		s.logw.Write(hadooplog.EntityJob, map[string]string{
			hadooplog.KeyJobID:        hadooplog.JobID(sj.id),
			hadooplog.KeyJobName:      sj.info.Name,
			hadooplog.KeySubmitTime:   hadooplog.FormatTime(s.clock.Now()),
			hadooplog.KeyTotalMaps:    fmt.Sprint(sj.info.NumMaps),
			hadooplog.KeyTotalReduces: fmt.Sprint(sj.info.NumReduces),
		})
	}
	// Assignment still waits for heartbeats, as in Hadoop.
}

// onHeartbeat is the JobTracker's per-tracker scheduling round: fill the
// node's free slots according to the policy.
func (s *Simulator) onHeartbeat(node int) {
	now := s.clock.Now()
	s.assignMaps(node)
	for s.freeReduceSlots[node] > 0 {
		idx := s.policy.ChooseNextReduceTask(s.active)
		if idx < 0 {
			break
		}
		s.startReduceTask(s.jobByInfo(s.active[idx]), node)
	}
	// Speculative execution: spare map slots may duplicate stragglers.
	if s.cfg.SpeculativeExecution {
		for s.freeMapSlots[node] > 0 {
			if !s.trySpeculate(node) {
				break
			}
		}
	}
	// Keep beating while any work remains anywhere.
	if s.remaining > 0 {
		s.q.Push(now+s.cfg.HeartbeatInterval, evHeartbeat, 0, node)
	}
}

func (s *Simulator) jobByInfo(info *sched.JobInfo) *simJob { return s.jobs[info.ID] }

// assignMaps fills the node's free map slots. Without delay scheduling
// the policy's choice is taken as-is; with it, a chosen job lacking a
// node-local block is skipped (for up to DelaySchedulingWait seconds
// since it first declined) and the policy is re-consulted over the
// remaining jobs.
func (s *Simulator) assignMaps(node int) {
	for s.freeMapSlots[node] > 0 {
		if s.cfg.DelaySchedulingWait <= 0 {
			idx := s.policy.ChooseNextMapTask(s.active)
			if idx < 0 {
				return
			}
			s.startMapTask(s.jobByInfo(s.active[idx]), node)
			continue
		}
		masked := append([]*sched.JobInfo(nil), s.active...)
		assigned := false
		for {
			idx := s.policy.ChooseNextMapTask(masked)
			if idx < 0 {
				break
			}
			sj := s.jobByInfo(masked[idx])
			now := s.clock.Now()
			switch {
			case sj.hasLocalPending(node):
				sj.skipSince = -1
				s.startMapTask(sj, node)
				assigned = true
			case sj.skipSince >= 0 && now-sj.skipSince >= s.cfg.DelaySchedulingWait:
				// Waited long enough: accept the non-local assignment.
				sj.skipSince = -1
				s.startMapTask(sj, node)
				assigned = true
			default:
				if sj.skipSince < 0 {
					sj.skipSince = now
				}
				masked[idx] = nil // skip this job at this heartbeat
				continue
			}
			break
		}
		if !assigned {
			return
		}
	}
}

// hasLocalPending reports whether the job still has an unassigned map
// whose block is replicated on the node (with lazy cleanup of stale
// queue entries).
func (sj *simJob) hasLocalPending(node int) bool {
	cands := sj.pendingByNode[node]
	for len(cands) > 0 && sj.assigned[cands[0]] {
		cands = cands[1:]
	}
	sj.pendingByNode[node] = cands
	return len(cands) > 0
}

// pickMapTask selects a pending map task for the job with Hadoop's
// locality preference: a block replicated on the heartbeating node,
// else one replicated on the node's rack, else any pending block.
func (sj *simJob) pickMapTask(node, rack int) (task int, loc Locality) {
	if t := popPending(sj.pendingByNode, node, sj.assigned); t >= 0 {
		return t, NodeLocal
	}
	if t := popPending(sj.pendingByRack, rack, sj.assigned); t >= 0 {
		return t, RackLocal
	}
	for len(sj.pendingOrder) > 0 {
		t := sj.pendingOrder[0]
		sj.pendingOrder = sj.pendingOrder[1:]
		if !sj.assigned[t] {
			return t, OffRack
		}
	}
	return -1, OffRack
}

// popPending pops the first unassigned task from queues[key] (lazy
// deletion of already-assigned entries), or -1.
func popPending(queues map[int][]int, key int, assigned []bool) int {
	cands := queues[key]
	for len(cands) > 0 {
		t := cands[0]
		cands = cands[1:]
		if !assigned[t] {
			queues[key] = cands
			return t
		}
	}
	queues[key] = cands
	return -1
}

func (s *Simulator) startMapTask(sj *simJob, node int) {
	task, loc := sj.pickMapTask(node, s.rackOf(node))
	if task < 0 {
		// Scheduler state said pending > 0 but all were assigned — a
		// bookkeeping bug; fail loudly.
		panic(fmt.Sprintf("cluster: job %d has no pending map despite PendingMaps=%d",
			sj.id, sj.info.PendingMaps()))
	}
	sj.assigned[task] = true
	sj.info.ScheduledMaps++
	s.launchMapAttempt(sj, task, node, loc)
}

// readRateFor returns the input read rate for a locality level.
func (s *Simulator) readRateFor(loc Locality) float64 {
	switch loc {
	case NodeLocal:
		return s.cfg.LocalReadMBps
	case RackLocal:
		return s.cfg.RackLocalReadMBps
	default:
		return s.cfg.RemoteReadMBps
	}
}

// launchMapAttempt starts one execution attempt of a map task on a node
// (the first attempt or a speculative duplicate).
func (s *Simulator) launchMapAttempt(sj *simJob, task, node int, loc Locality) {
	s.freeMapSlots[node]--
	now := s.clock.Now()
	speed := s.nodeSpeed[node]
	read := sj.job.Spec.BlockMB / (s.readRateFor(loc) * speed)
	compute := sj.job.Spec.MapCompute.Sample(s.rng) * s.taskJitter() / speed
	dur := read + math.Max(0, compute)

	try := len(sj.attempts[task])
	sj.attempts[task] = append(sj.attempts[task], mapAttempt{
		node: node, start: now, locality: loc,
		seq: s.q.Push(now+dur, evMapDone, sj.id, task),
	})

	if s.logw != nil {
		s.logw.Write(hadooplog.EntityMapAttempt, map[string]string{
			hadooplog.KeyTaskAttemptID: hadooplog.MapAttemptTryID(sj.id, task, try),
			hadooplog.KeyStartTime:     hadooplog.FormatTime(now),
			hadooplog.KeyTrackerName:   fmt.Sprintf("tracker_node%03d", node),
			hadooplog.KeyDataLocal:     fmt.Sprint(loc == NodeLocal),
			hadooplog.KeyLocality:      loc.String(),
		})
	}
}

func (s *Simulator) taskJitter() float64 {
	j := 1 + s.rng.NormFloat64()*s.cfg.TaskJitter
	if j < 0.3 {
		j = 0.3
	}
	return j
}

func (s *Simulator) onMapDone(sj *simJob, task int) {
	now := s.clock.Now()
	if sj.mapDone[task] {
		// A speculative sibling already finished; losers are canceled
		// eagerly, so this indicates a bookkeeping bug.
		panic(fmt.Sprintf("cluster: duplicate completion of job %d map %d", sj.id, task))
	}
	// The attempt that finished is the one whose record was just popped,
	// the only one Remove does not find. Any other is a speculative
	// sibling, killed here: its slot frees immediately.
	var winner mapAttempt
	var try int
	for i, att := range sj.attempts[task] {
		if s.q.Remove(att.seq) {
			s.freeMapSlots[att.node]++
		} else {
			winner, try = att, i
		}
	}
	sj.attempts[task] = nil

	sj.mapDone[task] = true
	sj.res.Maps[task] = MapSpan{
		Start: winner.start, End: now, Node: winner.node,
		Local: winner.locality == NodeLocal, Locality: winner.locality,
	}
	sj.sumMapDur += now - winner.start
	sj.info.CompletedMaps++
	s.freeMapSlots[winner.node]++

	if s.logw != nil {
		s.logw.Write(hadooplog.EntityMapAttempt, map[string]string{
			hadooplog.KeyTaskAttemptID: hadooplog.MapAttemptTryID(sj.id, task, try),
			hadooplog.KeyFinishTime:    hadooplog.FormatTime(now),
			hadooplog.KeyTaskStatus:    hadooplog.StatusSuccess,
			// Rumen-style counters (bytes): input block read from HDFS,
			// intermediate output spilled to local disk.
			hadooplog.KeyHDFSBytesRead: fmt.Sprintf("%.0f", sj.job.Spec.BlockMB*1e6),
			hadooplog.KeyFileBytesWritten: fmt.Sprintf("%.0f",
				sj.job.Spec.BlockMB*sj.job.Spec.Selectivity*1e6),
		})
	}

	// Slowstart gate for reduce launching.
	if !sj.info.ReduceReady {
		need := int(math.Ceil(s.cfg.SlowstartFraction * float64(sj.info.NumMaps)))
		if need < 1 {
			need = 1
		}
		if sj.info.CompletedMaps >= need {
			sj.info.ReduceReady = true
		}
	}

	if sj.info.MapsDone() {
		sj.res.MapStageEnd = now
		if sj.info.NumReduces == 0 {
			s.finishJob(sj)
		}
	}
}

// availableMB returns the per-reduce intermediate bytes produced so far.
func (sj *simJob) availableMB() float64 {
	if sj.info.MapsDone() {
		return sj.partTotalMB
	}
	return sj.partPerMapMB * float64(sj.info.CompletedMaps)
}

func (s *Simulator) startReduceTask(sj *simJob, node int) {
	if sj.nextReduce >= len(sj.reduces) {
		panic(fmt.Sprintf("cluster: job %d has no pending reduce despite PendingReduces=%d",
			sj.id, sj.info.PendingReduces()))
	}
	r := sj.reduces[sj.nextReduce]
	sj.nextReduce++
	sj.info.ScheduledReduces++
	s.freeReduceSlots[node]--

	now := s.clock.Now()
	r.started = true
	r.node = node
	r.span.Start = now

	if s.logw != nil {
		s.logw.Write(hadooplog.EntityReduceAttempt, map[string]string{
			hadooplog.KeyTaskAttemptID: hadooplog.ReduceAttemptID(sj.id, r.idx),
			hadooplog.KeyStartTime:     hadooplog.FormatTime(now),
			hadooplog.KeyTrackerName:   fmt.Sprintf("tracker_node%03d", node),
		})
	}
	// First fetch round starts immediately.
	s.q.Push(now, evFetchPoll, sj.id, r.idx)
}

// onFetchPoll is one fetch round of a reducer: copy everything currently
// available, then either finish (all maps done, all data here), keep
// copying (more appeared meanwhile — the next poll lands when this copy
// ends), or back off for a poll interval.
func (s *Simulator) onFetchPoll(sj *simJob, r *reduceState) {
	if r.fetchDone {
		return
	}
	now := s.clock.Now()
	avail := sj.availableMB()
	if avail > r.fetchedMB {
		rate := s.cfg.ShuffleMBps * s.nodeSpeed[r.node]
		dt := (avail - r.fetchedMB) / rate
		r.fetchedMB = avail
		s.q.Push(now+dt, evFetchPoll, sj.id, r.idx)
		return
	}
	if sj.info.MapsDone() && r.fetchedMB >= sj.partTotalMB {
		s.completeFetch(sj, r)
		return
	}
	s.q.Push(now+s.cfg.FetchPollInterval, evFetchPoll, sj.id, r.idx)
}

// completeFetch ends the copy phase and schedules the final merge pass.
func (s *Simulator) completeFetch(sj *simJob, r *reduceState) {
	if r.fetchDone {
		return
	}
	r.fetchDone = true
	now := s.clock.Now()
	r.span.FetchEnd = now
	merge := s.cfg.MergeSecPerMB * sj.partTotalMB / s.nodeSpeed[r.node]
	s.q.Push(now+merge, evSortDone, sj.id, r.idx)
}

func (s *Simulator) onSortDone(sj *simJob, r *reduceState) {
	now := s.clock.Now()
	r.span.SortEnd = now
	compute := sj.job.Spec.ReduceCompute.Sample(s.rng) * s.taskJitter() / s.nodeSpeed[r.node]
	s.q.Push(now+math.Max(0, compute), evReduceDone, sj.id, r.idx)
}

func (s *Simulator) onReduceDone(sj *simJob, r *reduceState) {
	now := s.clock.Now()
	r.span.End = now
	r.span.Node = r.node
	sj.res.Reduces[r.idx] = r.span
	sj.info.CompletedReduces++
	s.freeReduceSlots[r.node]++

	if s.logw != nil {
		s.logw.Write(hadooplog.EntityReduceAttempt, map[string]string{
			hadooplog.KeyTaskAttemptID: hadooplog.ReduceAttemptID(sj.id, r.idx),
			hadooplog.KeyShuffleFinish: hadooplog.FormatTime(r.span.FetchEnd),
			hadooplog.KeySortFinish:    hadooplog.FormatTime(r.span.SortEnd),
			hadooplog.KeyFinishTime:    hadooplog.FormatTime(now),
			hadooplog.KeyTaskStatus:    hadooplog.StatusSuccess,
			// Rumen-style counters: partition fetched, output written.
			hadooplog.KeyShuffleBytes:     fmt.Sprintf("%.0f", sj.partTotalMB*1e6),
			hadooplog.KeyHDFSBytesWritten: fmt.Sprintf("%.0f", sj.partTotalMB*1e6),
		})
	}

	if sj.info.Done() {
		s.finishJob(sj)
	}
}

func (s *Simulator) finishJob(sj *simJob) {
	if sj.finished {
		return
	}
	sj.finished = true
	sj.res.Finish = s.clock.Now()
	s.remaining--
	for i, info := range s.active {
		if info == sj.info {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	if s.logw != nil {
		s.logw.Write(hadooplog.EntityJob, map[string]string{
			hadooplog.KeyJobID:      hadooplog.JobID(sj.id),
			hadooplog.KeyFinishTime: hadooplog.FormatTime(sj.res.Finish),
			hadooplog.KeyJobStatus:  hadooplog.StatusSuccess,
		})
	}
}

// Run is a convenience wrapper: build and run in one call.
func Run(cfg Config, jobs []Job, policy sched.Policy, logw *hadooplog.Writer) (*Result, error) {
	s, err := New(cfg, jobs, policy, logw)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
