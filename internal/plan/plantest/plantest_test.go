package plantest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/plan"
	"simmr/internal/sched"
	"simmr/internal/synth"
)

// TestCheckerCatchesBadShortcuts settles two good shortcuts and two bad
// ones on a checker of its own: a follower whose Result has one job's
// Finish moved by one ULP, and a member answered by a replay whose peaks
// engine.Answers refuses. The checker must pass the good ones and report
// both bad ones.
func TestCheckerCatchesBadShortcuts(t *testing.T) {
	s, err := synth.NewStream(synth.StreamConfig{
		Name: "sparse", Jobs: 200, MeanInterArrival: 30, TemplatePool: 16,
		Shapes: []synth.WeightedShape{{Shape: synth.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(37)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	pol := sched.FIFO{}
	large := engine.Config{MapSlots: 256, ReduceSlots: 256, MinMapPercentCompleted: 0.05}
	small := large
	small.MapSlots, small.ReduceSlots = 2, 2
	lead, err := engine.Run(large, tr, pol)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := engine.Run(small, tr, pol)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Answers(tight, small, large, pol) {
		t.Fatal("a 2+2 replay's peaks answer for 256+256; pick a busier trace")
	}

	var c Checker
	stop := c.Watch(tr)
	rq := plan.Request{Cfg: large, Trace: tr, Policy: pol}
	followed, answered := plan.Provenance{How: plan.Followed}, plan.Provenance{How: plan.Answered, From: 1}
	c.Settle(followed, false, rq, lead, rq)
	c.Settle(answered, false, rq, nil, rq)
	if m := c.Mismatches(); len(m) != 0 {
		t.Fatalf("good shortcuts reported: %q", m)
	}

	off := *lead
	off.Jobs = append([]engine.JobOutcome(nil), lead.Jobs...)
	off.Jobs[len(off.Jobs)/2].Finish = math.Nextafter(off.Jobs[len(off.Jobs)/2].Finish, math.Inf(1))
	c.Settle(followed, false, rq, &off, rq)
	c.Settle(answered, false, plan.Request{Cfg: large, Trace: tr}, nil, plan.Request{Cfg: small, Trace: tr, Policy: pol})
	m := c.Mismatches()
	if len(m) != 2 || !strings.HasPrefix(m[0], "followed ") || !strings.Contains(m[0], "job ") || !strings.HasPrefix(m[1], "answered ") {
		t.Fatalf("bad shortcuts reported: %q; want the follower's job and the refused answer", m)
	}
	// A settlement accounted as simulated adds its events but those it took.
	c.Settle(plan.Provenance{How: plan.Copied, From: 1, Jobs: 1, Event: 5}, true, rq, lead, rq)
	if got := stop(); got.By[plan.Followed] != 2 || got.By[plan.Answered] != 2 || len(got.Simulated) != 1 || got.Events != lead.Events-5 {
		t.Errorf("tally %+v, want 2 followed, 2 answered and one copy of %d simulated events", got, lead.Events-5)
	}
	for _, line := range m {
		t.Log(line)
	}
}

// TestCheckerComparesTotals: a totals-only Result, a split one that keeps
// no Jobs (plan.Totals), is checked by its events, makespan and peaks:
// one equal to a straight replay's totals passes, one with its makespan
// moved by one ULP is reported. Every other kind of Result keeps its
// jobs: a copy, a follower's or a cache hit with none is reported even
// when its totals are right.
func TestCheckerComparesTotals(t *testing.T) {
	tr, err := synth.MultiTenantTrace(60, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	full, err := engine.Run(cfg, tr, sched.MaxEDF{})
	if err != nil {
		t.Fatal(err)
	}
	var c Checker
	rq := plan.Request{Cfg: cfg, Trace: tr, Policy: sched.MaxEDF{}}
	split := plan.Provenance{How: plan.Split, Segments: 2}
	totals := *full
	totals.Jobs = nil
	c.Settle(split, true, rq, &totals, plan.Request{})
	if m := c.Mismatches(); len(m) != 0 {
		t.Fatalf("a totals-only Result equal to the straight replay's totals reported: %q", m)
	}
	totals.Makespan = math.Nextafter(totals.Makespan, math.Inf(1))
	c.Settle(split, true, rq, &totals, plan.Request{})
	if m := c.Mismatches(); len(m) != 1 || !strings.Contains(m[0], "makespan") {
		t.Fatalf("a totals-only Result with its makespan moved: reported %q, want the makespan", m)
	}
	totals.Makespan = full.Makespan
	for _, how := range []plan.How{plan.Copied, plan.Followed, plan.Cached} {
		c.Settle(plan.Provenance{How: how}, false, rq, &totals, rq)
	}
	m := c.Mismatches()
	if len(m) != 4 {
		t.Fatalf("a copy, a follower's and a cache hit with no jobs: reported %q, want all three", m)
	}
	want := fmt.Sprintf("0 jobs, the straight replay %d", len(full.Jobs))
	for i, how := range []string{"copied ", "followed ", "cached "} {
		if !strings.HasPrefix(m[1+i], how) || !strings.HasSuffix(m[1+i], want) {
			t.Errorf("mismatch %q, want a %sResult with %q", m[1+i], how, want)
		}
	}
}

// TestCheckerChecksForks settles forks on a checker of its own. One whose
// Result is a straight replay paused at its event, edited and run on
// passes. One that dropped its edit, and one that forked at another
// event, are reported. One under a policy with no fingerprint is not
// checked, but counted.
func TestCheckerChecksForks(t *testing.T) {
	tr, err := synth.MultiTenantTrace(60, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.MapSlots, cfg.ReduceSlots = 8, 8
	full, err := engine.Run(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	at := full.Events / 3
	edit := func(e *engine.Engine) error { return e.SetPolicy(sched.MaxEDF{}) }
	e, err := engine.New(cfg, tr, sched.FIFO{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEvents(at); err != nil {
		t.Fatal(err)
	}
	if err := edit(e); err != nil {
		t.Fatal(err)
	}
	edited, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if diff(edited, full, false) == "" {
		t.Fatal("the edit changes no outcome; pick another")
	}

	var c Checker
	rq := plan.Request{Cfg: cfg, Trace: tr, Policy: sched.FIFO{}, Edit: edit}
	forked := plan.Provenance{How: plan.Forked, Event: at}
	c.Settle(forked, true, rq, edited, plan.Request{})
	if m := c.Mismatches(); len(m) != 0 {
		t.Fatalf("a good fork reported: %q", m)
	}
	c.Settle(forked, true, rq, full, plan.Request{})
	c.Settle(plan.Provenance{How: plan.Forked}, true, rq, edited, plan.Request{})
	m := c.Mismatches()
	if len(m) != 2 || !strings.HasPrefix(m[0], "forked ") || !strings.HasPrefix(m[1], "forked ") {
		t.Fatalf("a fork that dropped its edit and one forked at event 0: reported %q, want both", m)
	}
	rq.Policy = sched.NewDynamicPriority(nil, nil)
	c.Settle(forked, true, rq, full, plan.Request{})
	if len(c.Mismatches()) != 2 || c.skipped != 1 || c.forks != 3 {
		t.Fatalf("a fork under a policy with no fingerprint: %d mismatches, %d skipped, %d forks checked; want it skipped",
			len(c.Mismatches()), c.skipped, c.forks)
	}
	for _, line := range m {
		t.Log(line)
	}
}
