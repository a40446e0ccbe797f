package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simmr/internal/cluster"
	"simmr/internal/hadooplog"
	"simmr/internal/mumak"
	"simmr/internal/sched"
	"simmr/internal/stats"
	"simmr/internal/synth"
	"simmr/internal/trace"
	"simmr/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/simulator_digests.golden")

const digestGolden = "simulator_digests.golden"

// digest is a short hex fingerprint of everything printed into it.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// digestPolicies are the policies both simulators are pinned under.
func digestPolicies() []sched.Policy {
	return []sched.Policy{sched.FIFO{}, sched.MaxEDF{}, sched.MinEDF{}, sched.Fair{}}
}

// digestJobs is a small mixed emulator workload: straggly map stages
// (so speculation has work), shuffles overlapping them, staggered
// arrivals, and deadlines with profiles for the EDF policies.
func digestJobs() []cluster.Job {
	var jobs []cluster.Job
	for i := 0; i < 6; i++ {
		maps, reduces := 24+8*i, 1+i%3
		arrival := 3 * float64(i)
		jobs = append(jobs, cluster.Job{
			Spec: workload.Spec{
				App: "mix", Dataset: fmt.Sprint(i),
				NumMaps: maps, NumReduces: reduces, BlockMB: 64,
				MapCompute:    stats.LogNormal{Mu: 2, Sigma: 0.9},
				Selectivity:   0.5,
				ReduceCompute: stats.Normal{Mu: 8, Sigma: 2},
			},
			Arrival:  arrival,
			Deadline: arrival + 150 + 20*float64(i),
			Profile: trace.Profile{
				NumMaps: maps, NumReduces: reduces,
				Map:            trace.PhaseProfile{Avg: 12, Max: 40},
				FirstShuffle:   trace.PhaseProfile{Avg: 10, Max: 20},
				TypicalShuffle: trace.PhaseProfile{Avg: 5, Max: 10},
				Reduce:         trace.PhaseProfile{Avg: 8, Max: 12},
			},
		})
	}
	return jobs
}

// digestTrace is a production trace of n jobs, about half of them with
// a deadline.
func digestTrace(t *testing.T, n int, seed int64) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := synth.ProductionTrace(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if rng.Intn(2) == 0 {
			j.Deadline = j.Arrival + 600 + rng.Float64()*3600
		}
	}
	return tr
}

// TestSimulatorDigestsMatchPinned pins what the testbed emulator and
// the Mumak baseline compute — every outcome, the event count and the
// emulator's JobTracker log bytes — over a grid of policies, speculation,
// slots per node and seeds. Neither simulator feeds the engine, so this
// is their only exact gate: results/ sees them through averages and
// profiled traces. The file was written on the pointer-heap event queue;
// any queue that pops in (time, seq) order reproduces it. Regenerate —
// only for an intended change of what a simulator does — with
// `go test ./internal/experiments -run SimulatorDigests -update`.
func TestSimulatorDigestsMatchPinned(t *testing.T) {
	var lines []string
	jobs := digestJobs()
	for _, p := range digestPolicies() {
		for _, spec := range []bool{false, true} {
			for _, slots := range []int{1, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := cluster.DefaultConfig()
					cfg.Workers = 16
					cfg.MapSlotsPerNode = slots
					cfg.SpeculativeExecution = spec
					cfg.Seed = seed
					if _, fair := p.(sched.Fair); fair {
						cfg.DelaySchedulingWait = 5
					}
					var log bytes.Buffer
					res, err := cluster.Run(cfg, jobs, p, hadooplog.NewWriter(&log))
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fmt.Sprintf("emulator/%s/spec=%t/slots=%d/seed=%d events=%d result=%s log=%s",
						p.Name(), spec, slots, seed, res.Events, digest(*res), digest(log.String())))
				}
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		tr := digestTrace(t, 20, seed)
		for _, p := range digestPolicies() {
			res, err := mumak.Run(mumak.DefaultConfig(), tr, p)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("mumak/%s/seed=%d events=%d result=%s",
				p.Name(), seed, res.Events, digest(*res)))
		}
	}

	path := filepath.Join("testdata", digestGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	defer f.Close()
	var pinned []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		pinned = append(pinned, sc.Text())
	}
	if len(pinned) != len(lines) {
		t.Fatalf("%s: %d runs pinned, %d run", digestGolden, len(pinned), len(lines))
	}
	// One subtest per run, named for it: a failure says which run moved.
	for i := range lines {
		name, _, _ := strings.Cut(lines[i], " ")
		got, want := lines[i], pinned[i]
		t.Run(name, func(t *testing.T) {
			if got != want {
				t.Errorf("got  %s\nwant %s", got, want)
			}
		})
	}
}
