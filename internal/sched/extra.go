package sched

// This file implements schedulers beyond the three the paper evaluates:
// the Hadoop Fair Scheduler and the Capacity scheduler, both named in
// §I as the schedulers "broadly used for job processing". They are
// extensions of this reproduction (flagged in DESIGN.md §6) and slot
// directly into the same narrow Policy interface, demonstrating its
// pluggability.

// Fair approximates the Hadoop Fair Scheduler: each active job deserves
// an equal share of slots; the next slot goes to the eligible job
// furthest below its fair share (fewest running tasks), breaking ties
// by arrival. This is HFS without delay scheduling (SimMR does not model
// per-node locality, so delay scheduling has nothing to act on).
type Fair struct{}

// Name implements Policy.
func (Fair) Name() string { return "Fair" }

// ChooseNextMapTask implements Policy.
func (Fair) ChooseNextMapTask(q []*JobInfo) int {
	return argmin(q, (*JobInfo).wantsMapSlot, fairMapBetter)
}

// ChooseNextReduceTask implements Policy.
func (Fair) ChooseNextReduceTask(q []*JobInfo) int {
	return argmin(q, (*JobInfo).wantsReduceSlot, fairReduceBetter)
}

// fairMapBetter orders by fewest running maps, then arrival, then ID.
// The running count is fully dynamic: in the scheduling index every
// grant and completion reaches the tournament through Fix.
func fairMapBetter(a, b *JobInfo) bool {
	if ra, rb := a.RunningMaps(), b.RunningMaps(); ra != rb {
		return ra < rb
	}
	return byArrival(a, b)
}

func fairReduceBetter(a, b *JobInfo) bool {
	if ra, rb := a.RunningReduces(), b.RunningReduces(); ra != rb {
		return ra < rb
	}
	return byArrival(a, b)
}

// Capacity approximates the Hadoop Capacity scheduler: jobs are assigned
// to one of N queues, each with a guaranteed fraction of the cluster.
// The next slot goes to the most underserved queue (smallest ratio of
// running tasks to guaranteed share) that has an eligible job; within a
// queue, jobs run FIFO. Unused capacity spills over to other queues
// automatically because underserved-ness is relative, not absolute.
type Capacity struct {
	// Shares are the queues' guaranteed fractions; they need not sum
	// to 1 (they are normalized). Empty means a single queue (= FIFO).
	Shares []float64
}

// Name implements Policy.
func (c Capacity) Name() string { return "Capacity" }

// queue is job j's queue: its ID modulo the number of queues, taken
// non-negative, as a job ID may be negative.
func (c Capacity) queue(j *JobInfo) int {
	n := len(c.Shares)
	if n == 0 {
		return 0
	}
	return (j.ID%n + n) % n
}

// choose picks the eligible job in the most underserved queue.
func (c Capacity) choose(q []*JobInfo, eligible func(*JobInfo) bool, running func(*JobInfo) int) int {
	nq := len(c.Shares)
	if nq == 0 {
		return argmin(q, eligible, byArrival)
	}
	load := make([]int, nq)
	for _, j := range q {
		if j != nil {
			load[c.queue(j)] += running(j)
		}
	}
	best := -1
	var bestRatio float64
	for i, j := range q {
		if j == nil || !eligible(j) {
			continue
		}
		qi := c.queue(j)
		share := c.Shares[qi]
		if share <= 0 {
			share = 1e-9
		}
		ratio := float64(load[qi]) / share
		if best == -1 || ratio < bestRatio ||
			(ratio == bestRatio && byArrival(j, q[best])) {
			best, bestRatio = i, ratio
		}
	}
	return best
}

// ChooseNextMapTask implements Policy.
func (c Capacity) ChooseNextMapTask(q []*JobInfo) int {
	return c.choose(q, (*JobInfo).wantsMapSlot, (*JobInfo).RunningMaps)
}

// ChooseNextReduceTask implements Policy.
func (c Capacity) ChooseNextReduceTask(q []*JobInfo) int {
	return c.choose(q, (*JobInfo).wantsReduceSlot, (*JobInfo).RunningReduces)
}

// DynamicPriority approximates the Dynamic Proportional Share scheduler
// of Sandholm & Lai (cited in §I as a research prototype): each job
// carries a spending budget and a per-slot bid; every slot allocation
// charges the winning job its bid, and the job with the highest bid
// among those with budget remaining wins the slot. Jobs that exhaust
// their budget still run, but at the lowest priority (FIFO among
// themselves) — DP's "free tier".
//
// The zero value (no budgets) degrades to FIFO. DynamicPriority is a
// pointer policy because allocations mutate budget state.
type DynamicPriority struct {
	// Bids maps job ID to its per-slot bid. Jobs without an entry bid 0.
	Bids map[int]float64
	// Budgets maps job ID to its remaining budget; decremented by the
	// job's bid on every slot won. Missing entry = zero budget.
	Budgets map[int]float64
}

// NewDynamicPriority builds a DP scheduler from initial budgets and bids.
func NewDynamicPriority(budgets, bids map[int]float64) *DynamicPriority {
	dp := &DynamicPriority{Bids: map[int]float64{}, Budgets: map[int]float64{}}
	for id, b := range budgets {
		dp.Budgets[id] = b
	}
	for id, b := range bids {
		dp.Bids[id] = b
	}
	return dp
}

// Name implements Policy.
func (dp *DynamicPriority) Name() string { return "DynamicPriority" }

// effectiveBid returns the job's current bid: its configured bid while
// budget remains, else zero.
func (dp *DynamicPriority) effectiveBid(j *JobInfo) float64 {
	bid := dp.Bids[j.ID]
	if bid <= 0 || dp.Budgets[j.ID] < bid {
		return 0
	}
	return bid
}

// charge debits the winning job's budget for one slot.
func (dp *DynamicPriority) charge(j *JobInfo) {
	if bid := dp.effectiveBid(j); bid > 0 {
		dp.Budgets[j.ID] -= bid
	}
}

func (dp *DynamicPriority) choose(q []*JobInfo, eligible func(*JobInfo) bool) int {
	best := -1
	var bestBid float64
	for i, j := range q {
		if j == nil || !eligible(j) {
			continue
		}
		bid := dp.effectiveBid(j)
		switch {
		case best == -1,
			bid > bestBid,
			bid == bestBid && byArrival(j, q[best]):
			best, bestBid = i, bid
		}
	}
	if best >= 0 {
		dp.charge(q[best])
	}
	return best
}

// ChooseNextMapTask implements Policy.
func (dp *DynamicPriority) ChooseNextMapTask(q []*JobInfo) int {
	return dp.choose(q, (*JobInfo).wantsMapSlot)
}

// ChooseNextReduceTask implements Policy.
func (dp *DynamicPriority) ChooseNextReduceTask(q []*JobInfo) int {
	return dp.choose(q, (*JobInfo).wantsReduceSlot)
}
