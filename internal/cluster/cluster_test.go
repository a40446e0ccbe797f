package cluster

import (
	"bytes"
	"math"
	"testing"

	"simmr/internal/hadooplog"
	"simmr/internal/sched"
	"simmr/internal/stats"
	"simmr/internal/workload"
)

// smallSpec builds a quick job for unit tests.
func smallSpec(maps, reduces int) workload.Spec {
	return workload.Spec{
		App: "test", Dataset: "unit",
		NumMaps: maps, NumReduces: reduces, BlockMB: 64,
		MapCompute:    stats.Constant{V: 5},
		Selectivity:   0.5,
		ReduceCompute: stats.Constant{V: 2},
	}
}

// quietConfig removes stochastic jitter so assertions are exact-ish.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.NodeJitter = 0
	cfg.TaskJitter = 0
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"no workers":     func(c *Config) { c.Workers = 0 },
		"neg map slots":  func(c *Config) { c.MapSlotsPerNode = -1 },
		"no slots":       func(c *Config) { c.MapSlotsPerNode = 0; c.ReduceSlotsPerNode = 0 },
		"no heartbeat":   func(c *Config) { c.HeartbeatInterval = 0 },
		"no read rate":   func(c *Config) { c.LocalReadMBps = 0 },
		"no shuffle":     func(c *Config) { c.ShuffleMBps = 0 },
		"neg merge":      func(c *Config) { c.MergeSecPerMB = -1 },
		"no replication": func(c *Config) { c.Replication = 0 },
		"bad slowstart":  func(c *Config) { c.SlowstartFraction = 1.5 },
		"neg jitter":     func(c *Config) { c.NodeJitter = -1 },
	}
	for name, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cfg := quietConfig()
	if _, err := New(cfg, nil, sched.FIFO{}, nil); err == nil {
		t.Fatal("empty job list should fail")
	}
	bad := smallSpec(0, 0)
	if _, err := New(cfg, []Job{{Spec: bad}}, sched.FIFO{}, nil); err == nil {
		t.Fatal("invalid spec should fail")
	}
	if _, err := New(cfg, []Job{{Spec: smallSpec(1, 0), Arrival: -1}}, sched.FIFO{}, nil); err == nil {
		t.Fatal("negative arrival should fail")
	}
	if _, err := New(cfg, []Job{{Spec: smallSpec(1, 0)}}, nil, nil); err == nil {
		t.Fatal("nil policy should fail")
	}
}

func TestSingleJobCompletes(t *testing.T) {
	cfg := quietConfig()
	res, err := Run(cfg, []Job{{Spec: smallSpec(16, 4)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.Finish <= 0 {
		t.Fatal("job never finished")
	}
	if len(jr.Maps) != 16 || len(jr.Reduces) != 4 {
		t.Fatalf("task counts: %d maps %d reduces", len(jr.Maps), len(jr.Reduces))
	}
	for i, m := range jr.Maps {
		if m.End <= m.Start {
			t.Fatalf("map %d empty span: %+v", i, m)
		}
	}
	for i, r := range jr.Reduces {
		if !(r.Start < r.FetchEnd && r.FetchEnd <= r.SortEnd && r.SortEnd < r.End) {
			t.Fatalf("reduce %d phases disordered: %+v", i, r)
		}
		// Fetch cannot complete before the last map output exists.
		if r.FetchEnd < jr.MapStageEnd {
			t.Fatalf("reduce %d fetched all data before map stage ended", i)
		}
	}
	if jr.MapStageEnd <= 0 || jr.MapStageEnd > jr.Finish {
		t.Fatalf("map stage end out of range: %v", jr.MapStageEnd)
	}
}

func TestMapOnlyJobFinishesAtMapStageEnd(t *testing.T) {
	cfg := quietConfig()
	res, err := Run(cfg, []Job{{Spec: smallSpec(10, 0)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.Finish != jr.MapStageEnd {
		t.Fatalf("map-only job finish %v != map stage end %v", jr.Finish, jr.MapStageEnd)
	}
}

func TestSlotCapacityNeverExceeded(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 4 // 4 map slots, 4 reduce slots
	res, err := Run(cfg, []Job{{Spec: smallSpec(32, 8)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if got := peakConcurrent(mapIntervals(jr)); got > 4 {
		t.Fatalf("map concurrency %d exceeds 4 slots", got)
	}
	if got := peakConcurrent(reduceIntervals(jr)); got > 4 {
		t.Fatalf("reduce concurrency %d exceeds 4 slots", got)
	}
}

func TestWaveStructure(t *testing.T) {
	// 32 maps on 8 slots -> 4 waves; makespan ~ 4 x (map duration).
	cfg := quietConfig()
	res, err := Run(cfg, []Job{{Spec: smallSpec(32, 0)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	minDur := jr.Maps[0].Duration()
	for _, m := range jr.Maps {
		if d := m.Duration(); d < minDur {
			minDur = d
		}
	}
	expect := 4 * minDur
	// Slack: heartbeat quantization per wave plus slower remote reads
	// (64 MB at RemoteReadMBps vs LocalReadMBps).
	remotePenalty := 64/cfg.RemoteReadMBps - 64/cfg.LocalReadMBps
	if jr.MapStageEnd < expect || jr.MapStageEnd > expect+4*cfg.HeartbeatInterval+remotePenalty+1 {
		t.Fatalf("map stage end %v, expected about %v", jr.MapStageEnd, expect)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	jobs := []Job{{Spec: smallSpec(20, 6)}, {Spec: smallSpec(10, 2), Arrival: 30}}
	a, err := Run(cfg, jobs, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, jobs, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Finish != b.Jobs[i].Finish {
			t.Fatalf("job %d: nondeterministic finish %v vs %v", i, a.Jobs[i].Finish, b.Jobs[i].Finish)
		}
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	jobs := []Job{{Spec: smallSpec(20, 6)}}
	a, _ := Run(cfg, jobs, sched.FIFO{}, nil)
	cfg.Seed = 999
	b, _ := Run(cfg, jobs, sched.FIFO{}, nil)
	if a.Jobs[0].Finish == b.Jobs[0].Finish {
		t.Fatal("different seeds produced identical executions; jitter not applied")
	}
}

func TestFIFOOrderingAcrossJobs(t *testing.T) {
	// Two identical jobs arriving in order; FIFO must finish job 0 first.
	cfg := quietConfig()
	jobs := []Job{
		{Name: "first", Spec: smallSpec(40, 4), Arrival: 0},
		{Name: "second", Spec: smallSpec(40, 4), Arrival: 1},
	}
	res, err := Run(cfg, jobs, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Finish >= res.Jobs[1].Finish {
		t.Fatalf("FIFO finished second job first: %v vs %v", res.Jobs[0].Finish, res.Jobs[1].Finish)
	}
}

func TestMaxEDFPrefersUrgentJob(t *testing.T) {
	cfg := quietConfig()
	// Both jobs present from t=0; job 1 has the earlier deadline and
	// must complete first under MaxEDF despite equal arrival order.
	jobs := []Job{
		{Name: "lazy", Spec: smallSpec(40, 4), Arrival: 0, Deadline: 10000},
		{Name: "urgent", Spec: smallSpec(40, 4), Arrival: 0, Deadline: 100},
	}
	res, err := Run(cfg, jobs, sched.MaxEDF{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Finish >= res.Jobs[0].Finish {
		t.Fatalf("MaxEDF did not prioritize the urgent job: urgent %v, lazy %v",
			res.Jobs[1].Finish, res.Jobs[0].Finish)
	}
}

func TestShuffleOverlapsMapStage(t *testing.T) {
	// First-wave reduces must start during the map stage (slowstart) and
	// finish fetching only after it.
	cfg := quietConfig()
	res, err := Run(cfg, []Job{{Spec: smallSpec(64, 8)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	early := 0
	for _, r := range jr.Reduces {
		if r.Start < jr.MapStageEnd {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no reduce started during the map stage; slowstart broken")
	}
}

func TestLocalityPreferred(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 16
	res, err := Run(cfg, []Job{{Spec: smallSpec(128, 0)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	local := 0
	for _, m := range res.Jobs[0].Maps {
		if m.Local {
			local++
		}
	}
	// With replication 3 over 16 nodes, most assignments should be local.
	if float64(local)/float64(len(res.Jobs[0].Maps)) < 0.5 {
		t.Fatalf("only %d/%d maps were data-local", local, len(res.Jobs[0].Maps))
	}
}

func TestLocalMapsFasterThanRemote(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 4
	cfg.RemoteReadMBps = 5 // make remote reads clearly slower
	res, err := Run(cfg, []Job{{Spec: smallSpec(64, 0)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var localSum, remoteSum float64
	var localN, remoteN int
	for _, m := range res.Jobs[0].Maps {
		if m.Local {
			localSum += m.Duration()
			localN++
		} else {
			remoteSum += m.Duration()
			remoteN++
		}
	}
	if localN == 0 || remoteN == 0 {
		t.Skip("run produced only one locality class")
	}
	if localSum/float64(localN) >= remoteSum/float64(remoteN) {
		t.Fatal("local maps not faster than remote maps")
	}
}

func TestZeroSelectivityShufflesInstantly(t *testing.T) {
	cfg := quietConfig()
	spec := smallSpec(8, 2)
	spec.Selectivity = 0
	res, err := Run(cfg, []Job{{Spec: spec}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Jobs[0].Reduces {
		// An empty shuffle completes at the first fetch poll after the
		// map stage ends.
		if r.FetchEnd-res.Jobs[0].MapStageEnd > cfg.FetchPollInterval+1e-6 {
			t.Fatalf("reduce %d: empty shuffle took %v", i, r.FetchEnd-res.Jobs[0].MapStageEnd)
		}
	}
}

func TestLogEmission(t *testing.T) {
	var buf bytes.Buffer
	w := hadooplog.NewWriter(&buf)
	cfg := quietConfig()
	_, err := Run(cfg, []Job{{Name: "logged", Spec: smallSpec(4, 2)}}, sched.FIFO{}, w)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := hadooplog.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var submits, mapStarts, mapFins, redFins, jobFins int
	for _, r := range recs {
		switch r.Entity {
		case hadooplog.EntityJob:
			if r.Get(hadooplog.KeySubmitTime) != "" {
				submits++
			}
			if r.Get(hadooplog.KeyFinishTime) != "" {
				jobFins++
			}
		case hadooplog.EntityMapAttempt:
			if r.Get(hadooplog.KeyStartTime) != "" {
				mapStarts++
			}
			if r.Get(hadooplog.KeyFinishTime) != "" {
				mapFins++
			}
		case hadooplog.EntityReduceAttempt:
			if r.Get(hadooplog.KeyFinishTime) != "" {
				redFins++
			}
		}
	}
	if submits != 1 || jobFins != 1 {
		t.Fatalf("job records: %d submits %d finishes", submits, jobFins)
	}
	if mapStarts != 4 || mapFins != 4 {
		t.Fatalf("map records: %d starts %d finishes", mapStarts, mapFins)
	}
	if redFins != 2 {
		t.Fatalf("reduce finish records: %d", redFins)
	}
}

func TestCompletionTimeHelper(t *testing.T) {
	jr := JobResult{Submit: 10, Finish: 35}
	if jr.CompletionTime() != 25 {
		t.Fatal(jr.CompletionTime())
	}
}

func TestSpanHelpers(t *testing.T) {
	r := ReduceSpan{Start: 10, FetchEnd: 18, SortEnd: 20, End: 23}
	if r.ShuffleDuration() != 10 {
		t.Fatalf("shuffle duration = %v", r.ShuffleDuration())
	}
	if r.ReduceDuration() != 3 {
		t.Fatalf("reduce duration = %v", r.ReduceDuration())
	}
	m := MapSpan{Start: 1, End: 4}
	if m.Duration() != 3 {
		t.Fatalf("map duration = %v", m.Duration())
	}
}

func TestConfigSlotTotals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 10
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 3
	if cfg.MapSlots() != 20 || cfg.ReduceSlots() != 30 {
		t.Fatalf("slot totals: %d / %d", cfg.MapSlots(), cfg.ReduceSlots())
	}
}

func TestSlowstartZeroMeansImmediateReduceReady(t *testing.T) {
	cfg := quietConfig()
	cfg.SlowstartFraction = 0
	res, err := Run(cfg, []Job{{Spec: smallSpec(8, 2)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reduces may start at the very first heartbeat, before any map
	// completes.
	first := res.Jobs[0].Reduces[0].Start
	firstMapEnd := res.Jobs[0].Maps[0].End
	for _, m := range res.Jobs[0].Maps {
		if m.End < firstMapEnd {
			firstMapEnd = m.End
		}
	}
	if first >= firstMapEnd {
		t.Fatalf("reduce started at %v, after first map completion %v", first, firstMapEnd)
	}
}

func TestEventCountReported(t *testing.T) {
	cfg := quietConfig()
	res, err := Run(cfg, []Job{{Spec: smallSpec(4, 1)}}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// At minimum: arrival + per-map done + fetch + sort + reduce done +
	// many heartbeats.
	if res.Events < 10 {
		t.Fatalf("suspiciously few events: %d", res.Events)
	}
}

type interval struct{ start, end float64 }

func mapIntervals(jr JobResult) []interval {
	out := make([]interval, len(jr.Maps))
	for i, m := range jr.Maps {
		out[i] = interval{m.Start, m.End}
	}
	return out
}

func reduceIntervals(jr JobResult) []interval {
	out := make([]interval, len(jr.Reduces))
	for i, r := range jr.Reduces {
		out[i] = interval{r.Start, r.End}
	}
	return out
}

func peakConcurrent(ivs []interval) int {
	peak := 0
	for _, a := range ivs {
		n := 0
		mid := (a.start + a.end) / 2
		for _, b := range ivs {
			if b.start <= mid && mid < b.end {
				n++
			}
		}
		if n > peak {
			peak = n
		}
	}
	return peak
}

func TestMakespanIsMaxFinish(t *testing.T) {
	cfg := quietConfig()
	res, err := Run(cfg, []Job{
		{Spec: smallSpec(8, 2)},
		{Spec: smallSpec(8, 2), Arrival: 100},
	}, sched.FIFO{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Max(res.Jobs[0].Finish, res.Jobs[1].Finish)
	if res.Makespan != want {
		t.Fatalf("makespan %v != max finish %v", res.Makespan, want)
	}
}
