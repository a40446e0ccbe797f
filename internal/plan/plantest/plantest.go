// Package plantest is the run plan's shortcut checker: a test binary
// installs it as plan.Settled in its TestMain, and from then on every
// Result the plan hands out without replaying it straight through — a
// split replay, an answer from another request's peaks, a copy from a
// trail, a gate follower's, a cache hit — is re-derived by a fresh,
// unpooled engine.Run and compared with it. A totals-only split Result
// (no Jobs: plan.Totals) is compared by its totals — events, makespan and
// peaks. A fork, a branch from a sealed prefix, is compared with a fresh
// engine paused at the fork's event, edited by the request's Edit and run
// to its end: the edit is applied a second time, so it must act on the
// engine it is handed alone.
//
//	func TestMain(m *testing.M) {
//		plan.Settled = plantest.Shortcuts.Settle
//		os.Exit(plantest.Shortcuts.Verdict(m.Run()))
//	}
package plantest

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/plan"
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// Shortcuts is the checker a test binary installs.
var Shortcuts Checker

// Checker checks settlements (Settle) and tallies those of the traces a
// test watches (Watch). The zero value is ready to use.
type Checker struct {
	mu                      sync.Mutex
	checked, forks, skipped int
	mismatches              []string
	watched                 map[*trace.Trace]*Tally
	// straight holds the digests of each straight replay made so far, so
	// that a shortcut taken again is checked without replaying, and with
	// no allocation.
	straight map[replay]sums
}

// sums are a Result's digests: of its totals — events, makespan and
// peaks — and of every field.
type sums struct{ totals, full uint64 }

// replay names a straight replay by what decides its Result: the
// trace's content, the config and the policy's fingerprint.
type replay struct {
	trace, policy uint64
	cfg           engine.Config
}

// Tally adds up the provenances of one trace's settlements.
type Tally struct {
	By map[plan.How]int // settlements by how each was produced
	// Accepted and Cancelled count split boundaries, Copied the job
	// outcomes copied from trails.
	Accepted, Cancelled, Copied int
	// Simulated lists the configs of the settlements the plan accounted
	// as simulated, if only in part. Events is the events they simulated:
	// each Result's less those it took (Provenance.Event).
	Simulated []engine.Config
	Events    uint64
}

// names are plan.How's, in order.
var names = [...]string{"simulated", "split", "answered", "copied", "followed", "cached", "forked"}

// Settle is plan.Settled's signature. It tallies the settlement when its
// trace is watched, and checks it unless it was simulated straight
// through. A Result produced under a policy with no fingerprint is not
// checked, but counted: such a policy may carry state from one replay to
// the next, and a fresh one would take another call of the caller's
// factory; a fork's straight replay could not start from the policy
// state the fork inherited.
func (c *Checker) Settle(pv plan.Provenance, simulated bool, rq plan.Request, res *engine.Result, src plan.Request) {
	c.tally(pv, simulated, rq, res)
	if pv.How == plan.Simulated {
		return
	}
	if rq.Policy == nil {
		rq.Policy = src.Policy
	}
	fp, ok := sched.FingerprintOf(rq.Policy)
	if !ok {
		c.mu.Lock()
		c.skipped++
		c.mu.Unlock()
		return
	}
	var d string
	if pv.How == plan.Forked {
		d = fork(pv.Event, rq, res)
	} else {
		d = c.check(pv, rq, res, src.Cfg, fp)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if pv.How == plan.Forked {
		c.forks++
	} else {
		c.checked++
	}
	if d != "" {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s Result of %q on %d+%d slots under %s (from %d, segments %d, cancelled %d, jobs copied %d, events taken %d): %s",
			names[pv.How], rq.Trace.Name, rq.Cfg.MapSlots, rq.Cfg.ReduceSlots, rq.Policy.Name(), pv.From, pv.Segments, pv.Cancelled, pv.Jobs, pv.Event, d))
	}
}

// check compares res with a straight replay of rq and says how the two
// differ, or returns "". An answer with no Result of its own is checked
// as the straight replays of rq and of src, the config that answered. A
// split Result with no Jobs is a totals-only one (plan.Totals), checked
// by its totals; every other kind of Result keeps its jobs, and is
// checked in full.
func (c *Checker) check(pv plan.Provenance, rq plan.Request, res *engine.Result, src engine.Config, fp uint64) string {
	want, err := c.replay(rq.Cfg, rq.Trace, rq.Policy, fp)
	if err != nil {
		return "the straight replay failed: " + err.Error()
	}
	var got sums
	if res != nil {
		got = digest(res)
	} else if got, err = c.replay(src, rq.Trace, rq.Policy, fp); err != nil {
		return "the source's straight replay failed: " + err.Error()
	}
	totals := pv.How == plan.Split && res != nil && res.Jobs == nil
	if got.totals == want.totals && (totals || got.full == want.full) {
		return ""
	}
	// Replay both again to say how they differ.
	w, _ := run(rq.Cfg, rq.Trace, rq.Policy)
	if res == nil {
		res, _ = run(src, rq.Trace, rq.Policy)
	}
	if d := diff(res, w, totals); d != "" {
		return d
	}
	return "the digests differ"
}

// fork compares res, a fork's Result, with a straight replay of rq paused
// at event at, edited by rq.Edit and run to its end, and says how the two
// differ, or returns "".
func fork(at uint64, rq plan.Request, res *engine.Result) string {
	cfg := rq.Cfg
	cfg.Sink = nil
	e, err := engine.New(cfg, rq.Trace, rq.Policy)
	if err == nil {
		_, err = e.RunEvents(at)
	}
	if err == nil && rq.Edit != nil {
		err = rq.Edit(e)
	}
	var want *engine.Result
	if err == nil {
		want, err = e.Run()
	}
	if err != nil {
		return "the straight replay failed: " + err.Error()
	}
	return diff(res, want, false)
}

// replay returns the digests of a straight replay of cfg, tr and p, whose
// fingerprint is fp.
func (c *Checker) replay(cfg engine.Config, tr *trace.Trace, p sched.Policy, fp uint64) (sums, error) {
	cfg.Sink = nil
	k := replay{trace: tr.ContentHash(), policy: fp, cfg: cfg}
	c.mu.Lock()
	d, ok := c.straight[k]
	c.mu.Unlock()
	if ok {
		return d, nil
	}
	res, err := run(cfg, tr, p)
	if err != nil {
		return sums{}, err
	}
	d = digest(res)
	c.mu.Lock()
	if c.straight == nil {
		c.straight = map[replay]sums{}
	}
	c.straight[k] = d
	c.mu.Unlock()
	return d, nil
}

// run is a straight replay: a fresh engine, unpooled and unobserved.
func run(cfg engine.Config, tr *trace.Trace, p sched.Policy) (*engine.Result, error) {
	cfg.Sink = nil
	return engine.Run(cfg, tr, p)
}

// digest hashes res (FNV-1a, floats by their bits): its totals, and then
// its jobs too.
func digest(res *engine.Result) sums {
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	word(res.Events)
	word(math.Float64bits(res.Makespan))
	word(uint64(res.PeakMapSlots))
	word(uint64(res.PeakReduceSlots))
	totals := h
	for i := range res.Jobs {
		j := &res.Jobs[i]
		word(uint64(j.ID))
		for k := 0; k < len(j.Name); k++ {
			word(uint64(j.Name[k]))
		}
		for _, f := range [...]float64{j.Arrival, j.Finish, j.Deadline, j.MapStageEnd} {
			word(math.Float64bits(f))
		}
		word(uint64(j.Events))
	}
	return sums{totals, h}
}

// diff says how got differs from want in its events, makespan, peaks or,
// unless got is a totals-only Result, jobs, or returns "".
func diff(got, want *engine.Result, totals bool) string {
	switch {
	case got == nil || want == nil:
		return "a replay failed"
	case got.Events != want.Events:
		return fmt.Sprintf("%d events, the straight replay %d", got.Events, want.Events)
	case got.Makespan != want.Makespan:
		return fmt.Sprintf("makespan %v, the straight replay %v", got.Makespan, want.Makespan)
	case got.PeakMapSlots != want.PeakMapSlots || got.PeakReduceSlots != want.PeakReduceSlots:
		return fmt.Sprintf("peaks %d+%d, the straight replay %d+%d", got.PeakMapSlots, got.PeakReduceSlots, want.PeakMapSlots, want.PeakReduceSlots)
	case totals:
		return ""
	case len(got.Jobs) != len(want.Jobs):
		return fmt.Sprintf("%d jobs, the straight replay %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range got.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			return fmt.Sprintf("job %d is %+v, the straight replay's %+v", i, got.Jobs[i], want.Jobs[i])
		}
	}
	return ""
}

func (c *Checker) tally(pv plan.Provenance, simulated bool, rq plan.Request, res *engine.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.watched[rq.Trace]
	if t == nil {
		return
	}
	t.By[pv.How]++
	t.Copied += pv.Jobs
	if simulated {
		t.Simulated = append(t.Simulated, rq.Cfg)
		t.Events += res.Events - pv.Event
	}
	if pv.How == plan.Split {
		t.Accepted += pv.Segments - 1 - pv.Cancelled
		t.Cancelled += pv.Cancelled
	}
}

// Watch tallies the settlements of tr from now on; the returned function
// stops and returns the tally. A test that replays a trace of its own
// reads how each of its Results was produced, whatever other tests do at
// the same time.
func (c *Checker) Watch(tr *trace.Trace) func() Tally {
	t := &Tally{By: map[plan.How]int{}}
	c.mu.Lock()
	if c.watched == nil {
		c.watched = map[*trace.Trace]*Tally{}
	}
	c.watched[tr] = t
	c.mu.Unlock()
	return func() Tally {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.watched, tr)
		return *t
	}
}

// Mismatches returns every mismatch found so far.
func (c *Checker) Mismatches() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.mismatches...)
}

// Verdict is a test binary's exit code: code, or 1 when any shortcut
// differed from its straight replay, after listing them on stderr. Under
// -v it also says how many shortcuts it checked.
func (c *Checker) Verdict(code int) int {
	m := c.Mismatches()
	for _, s := range m {
		fmt.Fprintln(os.Stderr, "shortcut mismatch:", s)
	}
	if len(m) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d of %d shortcuts and forks differ from a straight replay\n", len(m), c.checked+c.forks)
		return 1
	}
	if testing.Verbose() {
		fmt.Printf("plantest: %d shortcuts and %d forks checked against a straight replay, none differ; %d under a policy with no fingerprint not checked\n", c.checked, c.forks, c.skipped)
	}
	return code
}
