package plan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/runs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// sparseTrace is 300 multi-tenant jobs a minute apart on average, half
// of them with deadlines: few are active at once, so from a few slots up
// a replay leaves slots unused.
func sparseTrace(t *testing.T) *trace.Trace {
	t.Helper()
	s, err := synth.NewStream(synth.StreamConfig{
		Name: "sparse", Jobs: 300, MeanInterArrival: 60, TemplatePool: 32,
		DeadlineFraction: 0.5, DeadlineSlack: 900,
		Shapes: []synth.WeightedShape{{Shape: synth.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(28)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// A rectangular grid across the sparse trace's knee: the largest cell
// answers every column past the trace's map peak, and each row below it
// is answered by its head.
var kneeGrid = []int{12, 16, 20, 24, 32, 40, 48, 64}

// waitFor polls cond for up to ten seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return false
}

// kneeSweep fans kneeGrid × kneeGrid out as a bare capacity sweep does,
// at the given worker count, and returns how many cells it replayed: a
// sweep builds a policy per replayed cell. Which cells a parallel fan-out
// replays depends on which of its replays finish first, and the claim
// rule takes its evidence from the grid's largest cell: none covers that
// cell finishing after the other worker has replayed every row head
// below the map peak. So the replays are made to finish in the order
// they start: the first two, the grid's largest and smallest cells,
// start together, and each later one once every earlier one is settled.
// What the fan-out replays is then decided by its claims alone.
func kneeSweep(t *testing.T, ctx context.Context, tr *trace.Trace, workers int, hold func(call int64)) (int64, error) {
	t.Helper()
	var calls, settled atomic.Int64
	testHookSettled = func() { settled.Add(1) }
	defer func() { testHookSettled = nil }()
	var reqs []Request
	for _, m := range kneeGrid {
		for _, r := range kneeGrid {
			reqs = append(reqs, Request{Cfg: engine.Config{MapSlots: m, ReduceSlots: r, MinMapPercentCompleted: 0.05}, Trace: tr})
		}
	}
	p := Begin(Options{Workers: workers}, Run{Kind: runs.KindSweep, Traces: []*trace.Trace{tr}, Replays: len(reqs)})
	err := p.End(p.Fan(ctx, Fanout{
		Requests: reqs,
		NewPolicy: func() sched.Policy {
			n := calls.Add(1)
			var started bool
			switch {
			case n == 1 && workers > 1:
				started = waitFor(func() bool { return calls.Load() >= 2 })
			case n == 2:
				started = true
			default:
				started = waitFor(func() bool { return settled.Load() >= n-1 })
			}
			if !started {
				t.Errorf("replay %d never started", n)
			}
			if hold != nil {
				hold(n)
			}
			return sched.FIFO{}
		},
		Fold: func(int, *engine.Result) {},
		Took: func(int, int) {},
	}))
	return calls.Load(), err
}

// TestParallelSweepReplaysWhatSerialDoes: a worker never replays a cell
// that a running replay is expected to answer, so a two-worker sweep
// replays the cells a one-worker sweep does, whichever of its replays
// finishes first.
func TestParallelSweepReplaysWhatSerialDoes(t *testing.T) {
	tr := sparseTrace(t)
	want, err := kneeSweep(t, context.Background(), tr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cells := int64(len(kneeGrid) * len(kneeGrid)); want > cells/8 {
		t.Fatalf("a serial sweep replays %d of %d cells: the grid does not span the knee", want, cells)
	}
	for run := 0; run < 50; run++ {
		got, err := kneeSweep(t, context.Background(), tr, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: two workers replayed %d cells, one worker %d", run, got, want)
		}
	}
}

// TestArrivalAwareSweepStaysParallel: under a policy that Answers
// refuses (MinEDF), no finished replay answers a cell or is expected to,
// so two workers replay the grid two cells at a time to its last cell.
// Each replay but the lead and the last is held until the next one has
// started: a worker that waited on a running replay would leave it held.
func TestArrivalAwareSweepStaysParallel(t *testing.T) {
	tr := sparseTrace(t)
	var reqs []Request
	for _, m := range kneeGrid {
		for _, r := range kneeGrid {
			reqs = append(reqs, Request{Cfg: engine.Config{MapSlots: m, ReduceSlots: r, MinMapPercentCompleted: 0.05}, Trace: tr})
		}
	}
	var calls atomic.Int64
	p := Begin(Options{Workers: 2}, Run{Kind: runs.KindSweep, Traces: []*trace.Trace{tr}, Replays: len(reqs)})
	err := p.End(p.Fan(context.Background(), Fanout{
		Requests: reqs,
		NewPolicy: func() sched.Policy {
			n := calls.Add(1)
			if n > 1 && n < int64(len(reqs)) && !waitFor(func() bool { return calls.Load() > n }) {
				t.Errorf("replay %d ran alone", n)
			}
			return sched.MinEDF{}
		},
		Fold: func(int, *engine.Result) {},
		Took: func(int, int) {},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(reqs)) {
		t.Fatalf("replayed %d of %d cells", got, len(reqs))
	}
}

// waitingIn reports whether a goroutine is blocked in a fan-out's worker
// body, waiting for a running replay to finish.
func waitingIn() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "(*Cond).Wait") && strings.Contains(g, "(*fan).next") {
			return true
		}
	}
	return false
}

// TestSweepCancelWhileWaiting: a worker waiting for a running replay
// returns when ctx is canceled, the sweep returns context.Canceled, and
// no worker is left behind. The last replay is held until the other
// worker has answered what it can and waits on it.
func TestSweepCancelWhileWaiting(t *testing.T) {
	tr := sparseTrace(t)
	want, err := kneeSweep(t, context.Background(), tr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = kneeSweep(t, ctx, tr, 2, func(n int64) {
		if n != want {
			return
		}
		if !waitFor(waitingIn) {
			t.Error("no worker waited for the last replay")
		}
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep returned %v, want context.Canceled", err)
	}
	if waitingIn() {
		t.Fatal("a worker is still waiting after the sweep returned")
	}
}

// TestBatchGroupErrorIsLowestSpec: a group whose lead fails hands its
// riders back, and the fan-out reports the lowest failing request, as a
// serial batch does, whichever replay failed first. Each request has a
// sink of its own, so the four form one group and the others board the
// lead's replay. The lead is request 1, the largest cluster, which has
// no reduce slot for the trace's reduces. Request 0 has no map slot and
// request 2 reduce slots the lead lacks, so their gates close before the
// lead starts; request 3 has the lead's reduce count, so its gate is
// open until the lead fails, and only the failure hands it back.
func TestBatchGroupErrorIsLowestSpec(t *testing.T) {
	tr := planTrace(10)
	slots := [][2]int{{0, 4}, {100, 0}, {8, 8}, {50, 0}}
	reqs := make([]Request, len(slots))
	for i, s := range slots {
		reqs[i] = Request{Cfg: engine.Config{MapSlots: s[0], ReduceSlots: s[1], MinMapPercentCompleted: 0.05}, Trace: tr, Policy: sched.FIFO{},
			Sink: func() obs.Sink { return &obs.RecordSink{} }}
	}
	f := Fanout{
		Requests: reqs, Keep: true,
		Fold: func(int, *engine.Result) {},
		Wrap: func(i int, err error) error { return fmt.Errorf("spec %d: %w", i, err) },
	}
	for _, workers := range []int{1, 4} {
		p := Begin(Options{Workers: workers}, Run{Kind: runs.KindBatch, Replays: len(reqs)})
		s := newFan(p, f)
		for i := range s.ms {
			if s.ms[i].g == nil || s.ms[i].g != s.ms[0].g {
				t.Fatalf("Workers %d: request %d is not in the one group", workers, i)
			}
		}
		s.mu.Lock()
		u, ok := s.claim()
		s.mu.Unlock()
		if !ok || u.kind != replayUnit || u.i != 1 || !slices.Equal(s.ms[1].riders, []int{0, 2, 3}) {
			t.Fatalf("Workers %d: first claim %+v (ok %v) with riders %v, want request 1's replay carrying 0, 2 and 3", workers, u, ok, s.ms[1].riders)
		}
		if n := s.replay(1); n != 0 || s.errAt != 1 {
			t.Fatalf("Workers %d: the failing lead settled %d requests, error at %d (%v)", workers, n, s.errAt, s.err)
		}
		for _, j := range []int{0, 2, 3} {
			if !s.ms[j].claimable {
				t.Fatalf("Workers %d: rider %d was not handed back when the lead failed", workers, j)
			}
		}
		p.End(s.err)

		p = Begin(Options{Workers: workers}, Run{Kind: runs.KindBatch, Replays: len(reqs)})
		err := p.End(p.Fan(context.Background(), f))
		if err == nil || !strings.HasPrefix(err.Error(), "spec 0:") {
			t.Fatalf("Workers %d: err = %v, want spec 0's", workers, err)
		}
	}
}

// TestLeadSettlesWhatAnswersAccepts: requests of one trace, one policy
// fingerprint and one config up to slot counts, each observed by a sink
// of its own, form one group, led by the largest cluster (most slots,
// then most map slots, then the lowest request). Claiming the lead
// boards every other member as a rider, and the lead's replay settles
// exactly the riders engine.Answers accepts from its Result, each with
// its own replay's Result and stream: a gate stays open exactly when
// Answers holds. The riders it cuts wait to be claimed again. Sparse,
// dense and burst traces (the burst's lead holds all its map slots)
// under FIFO, MaxEDF, Fair and Capacity, with slot counts below, at and
// above the lead's peaks and at the lead's, and a repeat of the lead.
func TestLeadSettlesWhatAnswersAccepts(t *testing.T) {
	policies := []func() sched.Policy{
		func() sched.Policy { return sched.FIFO{} },
		func() sched.Policy { return sched.MaxEDF{} },
		func() sched.Policy { return sched.Fair{} },
		func() sched.Policy { return sched.Capacity{Shares: []float64{0.6, 0.4}} },
	}
	own := func(cfg engine.Config, tr *trace.Trace, pol sched.Policy) (*engine.Result, *obs.RecordSink) {
		rec := &obs.RecordSink{}
		cfg.Sink = rec
		e, err := engine.New(cfg, tr, pol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	// A burst: six jobs at once hold every map slot of the lead.
	burst := planTrace(10)
	burst.Name = "burst"
	for range 4 {
		burst.Jobs = append(burst.Jobs, &trace.Job{Template: burst.Jobs[0].Template.Clone()})
	}
	burst.Jobs[1].Arrival = 0
	burst.Normalize()
	var answered, cut int
	for _, tr := range []*trace.Trace{sparseTrace(t), planTrace(10), burst} {
		for _, mk := range policies {
			const ran = 48
			cfgOf := func(m, r int) engine.Config {
				return engine.Config{MapSlots: m, ReduceSlots: r, MinMapPercentCompleted: 0.05}
			}
			top, _ := own(cfgOf(ran, ran), tr, mk())
			var cfgs []engine.Config
			for _, m := range []int{top.PeakMapSlots / 2, top.PeakMapSlots, top.PeakMapSlots + 1, ran} {
				for _, r := range []int{top.PeakReduceSlots / 2, top.PeakReduceSlots, top.PeakReduceSlots + 1, ran} {
					if c := cfgOf(m, r); m >= 1 && r >= 1 && !slices.Contains(cfgs, c) {
						cfgs = append(cfgs, c)
					}
				}
			}
			// Two more requests at ran slots of both kinds, one in the
			// middle and one at the end: repeats, and the middle one leads
			// unless a count above the peak is larger still.
			cfgs = slices.Insert(cfgs, len(cfgs)/2, cfgOf(ran, ran))
			cfgs = append(cfgs, cfgOf(ran, ran))
			lead := 0
			for i, c := range cfgs {
				l := cfgs[lead]
				if n, ln := c.MapSlots+c.ReduceSlots, l.MapSlots+l.ReduceSlots; n > ln || n == ln && c.MapSlots > l.MapSlots {
					lead = i
				}
			}

			reqs := make([]Request, len(cfgs))
			sinks := make([]obs.RecordSink, len(cfgs))
			got := make([]*engine.Result, len(cfgs))
			for i, cfg := range cfgs {
				reqs[i] = Request{Cfg: cfg, Trace: tr, Policy: mk(), Sink: func() obs.Sink { return &sinks[i] }}
			}
			p := Begin(Options{Workers: 1}, Run{Kind: runs.KindBatch, Replays: len(reqs)})
			s := newFan(p, Fanout{
				Requests: reqs, Keep: true,
				Fold: func(i int, res *engine.Result) { got[i] = res },
			})
			name := fmt.Sprintf("%s/%s", tr.Name, reqs[0].Policy.Name())
			for i := range s.ms {
				if s.ms[i].g == nil || s.ms[i].g != s.ms[0].g {
					t.Fatalf("%s: request %d is not in the one group", name, i)
				}
			}
			s.mu.Lock()
			u, ok := s.claim()
			s.mu.Unlock()
			if !ok || u.kind != replayUnit || u.i != lead {
				t.Fatalf("%s: first claim %+v (ok %v), want the replay of request %d", name, u, ok, lead)
			}
			riders := slices.Clone(s.ms[lead].riders)
			slices.Sort(riders)
			var others []int
			for i := range cfgs {
				if i != lead {
					others = append(others, i)
				}
			}
			if !slices.Equal(riders, others) {
				t.Fatalf("%s: riders %v, want every other request %v", name, riders, others)
			}

			settled := s.replay(lead)
			wantLead, _ := own(cfgs[lead], tr, mk())
			if !reflect.DeepEqual(got[lead], wantLead) {
				t.Fatalf("%s: the lead's Result differs from its own replay", name)
			}
			opened := 0
			for _, j := range riders {
				answers := engine.Answers(got[lead], cfgs[lead], cfgs[j], reqs[lead].Policy)
				if s.ms[j].claimable == answers {
					t.Fatalf("%s: rider %d (%d+%d) waits again = %v, but Answers from the lead (peaks %d+%d) = %v",
						name, j, cfgs[j].MapSlots, cfgs[j].ReduceSlots, s.ms[j].claimable, got[lead].PeakMapSlots, got[lead].PeakReduceSlots, answers)
				}
				if !answers {
					cut++
					continue
				}
				opened++
				answered++
				res, rec := own(cfgs[j], tr, mk())
				if !reflect.DeepEqual(got[j], res) || !reflect.DeepEqual(sinks[j], *rec) {
					t.Fatalf("%s: rider %d (%d+%d) settled with a Result or stream other than its own replay's", name, j, cfgs[j].MapSlots, cfgs[j].ReduceSlots)
				}
			}
			if settled != 1+opened {
				t.Fatalf("%s: the lead's replay settled %d requests, want it and the %d riders Answers accepts", name, settled, opened)
			}
		}
	}
	t.Logf("%d riders answered, %d cut", answered, cut)
	if answered == 0 || cut == 0 {
		t.Fatalf("%d riders answered and %d cut: both paths must run", answered, cut)
	}
}

// The progress plumbing: a fan-out's final (total, total) call arrives
// exactly once, for a batch whose requests keep their Results and for a
// sweep whose cells fold, at one worker and at several.
func TestBatchAndSweepProgress(t *testing.T) {
	tr := planTrace(10)
	batch := make([]Request, 6)
	for i := range batch {
		batch[i] = Request{Cfg: engine.Config{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05}, Trace: tr, Policy: sched.FIFO{}}
	}
	var sweep []Request
	for _, m := range []int{2, 4, 8, 16} {
		sweep = append(sweep, Request{Cfg: engine.Config{MapSlots: m, ReduceSlots: 4, MinMapPercentCompleted: 0.05}, Trace: tr})
	}
	for _, c := range []struct {
		kind runs.Kind
		f    Fanout
	}{
		{runs.KindBatch, Fanout{Requests: batch, Keep: true}},
		{runs.KindSweep, Fanout{Requests: sweep, NewPolicy: func() sched.Policy { return sched.FIFO{} }, Took: func(int, int) {}}},
	} {
		c.f.Fold = func(int, *engine.Result) {}
		for _, workers := range []int{1, 3} {
			total := len(c.f.Requests)
			var finals atomic.Int64
			p := Begin(Options{Workers: workers, Progress: func(done, n int) {
				if done == n && n == total {
					finals.Add(1)
				}
			}}, Run{Kind: c.kind, Traces: []*trace.Trace{tr}, Replays: total})
			if err := p.End(p.Fan(context.Background(), c.f)); err != nil {
				t.Fatal(err)
			}
			if finals.Load() != 1 {
				t.Fatalf("%s, Workers %d: final progress delivered %d times", c.kind, workers, finals.Load())
			}
		}
	}
}
