package plantest

import (
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
	c.Settle(followed, rq, lead, rq)
	c.Settle(answered, rq, nil, rq)
	if m := c.Mismatches(); len(m) != 0 {
		t.Fatalf("good shortcuts reported: %q", m)
	}

	off := *lead
	off.Jobs = append([]engine.JobOutcome(nil), lead.Jobs...)
	off.Jobs[len(off.Jobs)/2].Finish = math.Nextafter(off.Jobs[len(off.Jobs)/2].Finish, math.Inf(1))
	c.Settle(followed, rq, &off, rq)
	c.Settle(answered, plan.Request{Cfg: large, Trace: tr}, nil, plan.Request{Cfg: small, Trace: tr, Policy: pol})
	m := c.Mismatches()
	if len(m) != 2 || !strings.HasPrefix(m[0], "followed ") || !strings.Contains(m[0], "job ") || !strings.HasPrefix(m[1], "answered ") {
		t.Fatalf("bad shortcuts reported: %q; want the follower's job and the refused answer", m)
	}
	if got := stop(); got.By[plan.Followed] != 2 || got.By[plan.Answered] != 2 {
		t.Errorf("tally %+v, want 2 followed and 2 answered", got)
	}
	for _, line := range m {
		t.Log(line)
	}
}
