package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"simmr/internal/plan"
	"simmr/internal/plan/plantest"
	"simmr/internal/runs"
	"simmr/internal/sched/schedtest"
	"simmr/pkg/simmr"
)

// simmrBin is the CLI built from this package's source, once per test
// binary; the tests drive it the way a user does, by exec.
var simmrBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "simmr-cli-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simmrBin = filepath.Join(dir, "simmr")
	if out, err := exec.Command("go", "build", "-o", simmrBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cmd/simmr: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	plan.Settled = plantest.Shortcuts.Settle
	code := plantest.Shortcuts.Verdict(m.Run())
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestReplaySummaryMatchesScanOracle pins what `simmr -trace T -policy P
// -v` prints for every policy name the CLI accepts: every per-job line
// and the summary must be, byte for byte, what an in-process replay forced
// through the paper's per-slot scan implies. The CLI passes the bare
// policy value, so it runs on the engine's scheduling index; this is the
// end-to-end proof that the index changed no output. On the second
// fixture, long enough to split, it is the same proof for the split
// replay: the CLI runs with GOMAXPROCS=4, so it splits into up to four
// segments on any machine, and the same replay in-process through
// plan.One — the CLI's path — shows that boundaries were both accepted
// and cancelled on the way.
func TestReplaySummaryMatchesScanOracle(t *testing.T) {
	// The burst is contended, with deadlines on every other job, so the EDF
	// orderings, MinEDF's sizing and the Capacity queues all matter. The
	// oracle replays what the CLI loads, not what was packed.
	fixtures := []struct{ prefix, path string }{
		{"", filepath.Join(cliFixture(t), "trace.strc")},
		{"sparse/", filepath.Join(splitFixture(t), "sparse.strc")},
	}
	cfg := simmr.DefaultReplayConfig()
	for _, f := range fixtures {
		loaded, err := simmr.OpenPackedTrace(f.path)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		tally := plantest.Shortcuts.Watch(loaded)
		for _, name := range []string{"fifo", "maxedf", "minedf", "fair", "capacity"} {
			t.Run(f.prefix+name, func(t *testing.T) {
				p, err := policyByName(name, "0.5,0.5")
				if err != nil {
					t.Fatal(err)
				}
				want, err := simmr.Replay(cfg, loaded, schedtest.ScanOnly(p))
				if err != nil {
					t.Fatal(err)
				}
				cmd := exec.Command(simmrBin, "-trace", f.path, "-policy", name, "-v")
				cmd.Env = append(os.Environ(), "GOMAXPROCS=4")
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("simmr -policy %s -v: %v", name, err)
				}
				got, wantOut := strings.Split(string(out), "\n"), strings.Split(verboseOutput(want, p), "\n")
				for i := range wantOut {
					if i >= len(got) || got[i] != wantOut[i] {
						t.Fatalf("simmr -policy %s -v printed, at line %d,\n  %q\nscan oracle implies\n  %q", name, i+1, strings.Join(got[i:min(i+1, len(got))], ""), wantOut[i])
					}
				}
				if len(got) != len(wantOut) {
					t.Fatalf("simmr -policy %s -v printed %d lines, scan oracle implies %d", name, len(got), len(wantOut))
				}
				res, _, err := plan.One(plan.Options{Workers: 4}, runs.KindReplay, cfg, loaded, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("plan.One's replay under %s differs from the scan oracle's", name)
				}
			})
		}
		if split := tally(); f.prefix != "" {
			t.Logf("split replays of the sparse fixture: %d boundaries accepted, %d cancelled", split.Accepted, split.Cancelled)
			if split.Accepted == 0 || split.Cancelled == 0 {
				t.Errorf("the sparse fixture's replays accepted %d boundaries and cancelled %d; want both paths taken", split.Accepted, split.Cancelled)
			}
		}
	}
}

// verboseOutput is what `simmr -v` prints for a replay.
func verboseOutput(res *simmr.ReplayResult, p simmr.Policy) string {
	var b strings.Builder
	for _, j := range res.Jobs {
		missed := ""
		if j.ExceededDeadline() {
			missed = "\tMISSED-DEADLINE"
		}
		fmt.Fprintf(&b, "job %d\t%s\tarrival %.1f\tcompletion %.1f%s\n", j.ID, j.Name, j.Arrival, j.CompletionTime(), missed)
	}
	fmt.Fprintf(&b, "%d jobs, makespan %.1f s, %d events, policy %s\n", len(res.Jobs), res.Makespan, res.Events, p.Name())
	return b.String()
}

// splitFixture writes sparse.strc, in a fresh directory: 4 096 jobs
// arriving a minute apart on average, every other one with a deadline —
// enough for four segments of a split replay — except around the middle,
// where 1 280 jobs with five-minute reduces arrive 10 s apart. The cluster
// is never empty there, yet no map task outlasts the next arrival, so a
// boundary looked for in the middle is tried, and cancelled.
func splitFixture(t *testing.T) string {
	t.Helper()
	s, err := simmr.NewTraceStream(simmr.StreamConfig{
		Name: "sparse", Jobs: 4096, MeanInterArrival: 60, TemplatePool: 64,
		DeadlineFraction: 0.5, DeadlineSlack: 900,
		Shapes: []simmr.WeightedShape{{Shape: simmr.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	busy := &simmr.Template{
		AppName: "busy", NumMaps: 2, NumReduces: 2,
		MapDurations: []float64{2, 3}, FirstShuffle: []float64{5, 5}, TypicalShuffle: []float64{5, 5}, ReduceDurations: []float64{300, 300},
	}
	mid, prevOrig, prev := len(tr.Jobs)/2, 0.0, 0.0
	for i, j := range tr.Jobs {
		gap := j.Arrival - prevOrig
		prevOrig = j.Arrival
		if i >= mid-640 && i < mid+640 {
			gap = 10
			j.Name, j.Template = busy.AppName, busy
		}
		at := prev + gap
		if i == 0 {
			at = j.Arrival
		}
		if j.Deadline > 0 {
			j.Deadline += at - j.Arrival
		}
		j.Arrival, prev = at, at
	}
	dir := t.TempDir()
	if err := simmr.WritePackedTrace(filepath.Join(dir, "sparse.strc"), tr); err != nil {
		t.Fatal(err)
	}
	return dir
}

var update = flag.Bool("update", false, "rewrite cmd/simmr/testdata/*.golden from what the built CLI prints")

// cliFixture writes the CLI tests' workload — a contended 120-job burst,
// deadlines on every other job — as trace.strc in a fresh directory,
// which the golden invocations run in: every path the CLI echoes is
// then relative, and the same on every machine.
func cliFixture(t *testing.T) string {
	t.Helper()
	tr, err := simmr.MultiTenantTrace(120, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := simmr.DefaultReplayConfig()
	rng := rand.New(rand.NewSource(5))
	for i, j := range tr.Jobs {
		if i%2 == 0 {
			up := simmr.JobBounds(j.Template.Profile(), cfg.MapSlots, cfg.ReduceSlots).Up
			j.Deadline = j.Arrival + (1+2*rng.Float64())*up
		}
	}
	dir := t.TempDir()
	if err := simmr.WritePackedTrace(filepath.Join(dir, "trace.strc"), tr); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sparseSweep is the grid of TestCLIGolden's sparse-sweep row.
const sparseSweep = "4,8,16,32,48,64,96,128"

// TestCLIGolden pins what a user sees: stdout and exit code of every
// replaying invocation, byte for byte, against goldens generated at
// the commit before the CLI moved onto the run plan. Invocations that
// share a name prefix up to "#" run in order in one directory — the
// second replay against one -cache-dir prints the hit line and skips
// its exports, `cache info` counts the entries the sweeps before it
// stored, then none once `cache clear` has run, and a trace unpacked to
// JSON and packed again is the store it came from. Invocations named
// sparse-… run beside splitFixture's sparse.strc instead of trace.strc.
// Regenerate with `go test ./cmd/simmr -run CLIGolden -update` only when
// an output change is intended.
func TestCLIGolden(t *testing.T) {
	cases := []struct {
		name string
		args string
		exit int
	}{
		{"replay", "-trace trace.strc -policy minedf", 0},
		{"replay-v", "-trace trace.strc -policy maxedf -v", 0},
		{"replay-json", "-trace trace.strc -json", 0},
		{"replay-capacity", "-trace trace.strc -policy capacity -v", 0},
		{"sweep", "-trace trace.strc -sweep 8,16,32", 0},
		{"sweep-shard0", "-trace trace.strc -sweep 8,16,32 -shard 0/2", 0},
		{"sweep-shard1", "-trace trace.strc -sweep 8,16,32 -shard 1/2", 0},
		{"sweep-maxedf", "-trace trace.strc -sweep 8,16,32 -policy maxedf -slowstart 0.5", 0},
		{"sweep-policy-bad", "-trace trace.strc -sweep 8,16 -policy bogus", 1},
		{"sweep-bad", "-trace trace.strc -sweep 8,x", 1},
		{"sweep-junk", "-trace trace.strc -sweep 16,24x", 1},
		{"shard-junk", "-trace trace.strc -sweep 8,16 -shard 0/2x", 1},
		{"shard-zero", "-trace trace.strc -sweep 16 -shard 0/0", 1},
		{"sweep-slots", "-trace trace.strc -sweep 16,32 -reduce-slots 8", 1},
		{"shares-junk", "-trace trace.strc -policy capacity -capacity-shares 0.5x,0.5", 1},
		{"whatif-scale-junk", "trace whatif -trace trace.strc -policies minedf -deadline-scale 2x", 1},
		{"sparse-sweep", "-trace sparse.strc -sweep " + sparseSweep, 0},
		{"shard-without-sweep", "-trace trace.strc -shard 0/2", 1},
		{"trace-run", "trace run -trace trace.strc -policy fair -out events.json -slot-timeline slots.tsv", 0},
		{"whatif", "trace whatif -trace trace.strc -at 0 -policies minedf -deadline-scale 2 -explain", 0},
		{"explain", "trace explain -trace trace.strc -policy maxedf", 0},
		{"cached#1", "-trace trace.strc -policy minedf -cache-dir cache", 0},
		{"cached#2", "-trace trace.strc -policy minedf -cache-dir cache", 0},
		{"cached-sweep#1", "-trace trace.strc -sweep 8,16 -cache-dir cache", 0},
		{"cached-sweep#2", "-trace trace.strc -sweep 8,16,32 -cache-dir cache", 0},
		{"cached-sweep#3", "cache info -cache-dir cache", 0},
		{"cached-sweep#4", "cache clear -cache-dir cache", 0},
		{"cached-sweep#5", "cache info -cache-dir cache", 0},
		{"cache-info-missing", "cache info -cache-dir typo", 1},
		{"cache-clear-missing", "cache clear -cache-dir typo", 1},
		{"cached-run#1", "trace run -trace trace.strc -out events.json -cache-dir cache", 0},
		{"cached-run#2", "trace run -trace trace.strc -out again.json -cache-dir cache", 0},
		{"timeline", "-trace trace.strc -policy fair -timeline tl.tsv -step 50", 0},
		{"timeline-cached#1", "-trace trace.strc -policy fair -timeline tl.tsv -step 50 -cache-dir cache", 0},
		{"timeline-cached#2", "-trace trace.strc -policy fair -timeline again.tsv -step 50 -cache-dir cache", 0},
		{"mumak", "-trace trace.strc -engine mumak -policy maxedf -v", 0},
		{"mumak-timeline", "-trace trace.strc -engine mumak -timeline tl.tsv", 1},
		{"mumak-json", "-trace trace.strc -engine mumak -json", 1},
		{"mumak-sweep", "-trace trace.strc -engine mumak -sweep 8,16", 1},
		{"mumak-cache", "-trace trace.strc -engine mumak -cache-dir cache", 1},
		{"engine-bad", "-trace trace.strc -engine bogus -sweep 8,16", 1},
		{"engine-bad-info", "-trace trace.strc -engine bogus -info", 1},
		{"pack#1", "trace unpack -trace trace.strc -out trace.json", 0},
		{"pack#2", "trace pack -trace trace.json -out again.strc", 0},
		{"pack#3", "trace info -trace again.strc", 0},
		{"pack#4", "trace info -trace trace.strc", 0},
		{"pack#5", "-trace again.strc -policy minedf", 0},
		{"pack-no-out", "trace pack -trace trace.strc", 1},
		{"unpack-no-trace", "trace unpack", 1},
		{"info-no-trace", "trace info", 1},
		{"info-not-packed#1", "trace unpack -trace trace.strc -out trace.json", 0},
		{"info-not-packed#2", "trace info -trace trace.json", 1},
	}
	dirs, stderr := map[string]string{}, map[string]string{}
	for _, c := range cases {
		group, _, _ := strings.Cut(c.name, "#")
		if dirs[group] == "" {
			fixture := cliFixture
			if strings.HasPrefix(group, "sparse-") {
				fixture = splitFixture
			}
			dirs[group] = fixture(t)
		}
		cmd := exec.Command(simmrBin, strings.Fields(c.args)...)
		cmd.Dir = dirs[group]
		out, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); code != c.exit {
			t.Fatalf("%s: simmr %s: exit %d (%v), want %d", c.name, c.args, code, err, c.exit)
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			stderr[c.name] = string(ee.Stderr)
		}
		golden := filepath.Join("testdata", strings.ReplaceAll(c.name, "#", "-")+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, out, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Errorf("%s: simmr %s printed\n%s\nwant (%s)\n%s", c.name, c.args, out, golden, want)
		}
	}
	// The sparse-sweep row's cells below the largest cell's peaks follow its
	// trail. The same sweep in-process, on one worker so that each of them
	// is claimed once the largest cell has finished, copies jobs.
	sparse, err := simmr.OpenPackedTrace(filepath.Join(dirs["sparse-sweep"], "sparse.strc"))
	if err != nil {
		t.Fatal(err)
	}
	defer sparse.Close()
	var counts []int
	for _, c := range strings.Split(sparseSweep, ",") {
		n, _ := strconv.Atoi(c)
		counts = append(counts, n)
	}
	tally := plantest.Shortcuts.Watch(sparse)
	if _, err := simmr.CapacitySweep(sparse, simmr.SweepConfig{MapSlotCounts: counts, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	copied := tally().Copied
	t.Logf("the sparse sweep copied %d jobs from its largest cell's trail", copied)
	if copied == 0 {
		t.Error("the sparse sweep copied no job from its largest cell's trail")
	}
	// `trace unpack` then `trace pack` gives back the packed store byte for
	// byte (pack#3 and pack#4 print the same layout; pack#5 replays as
	// the replay row does).
	repacked, err := os.ReadFile(filepath.Join(dirs["pack"], "again.strc"))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := os.ReadFile(filepath.Join(dirs["pack"], "trace.strc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(repacked) != string(packed) {
		t.Error("trace unpack then trace pack changed the .strc store")
	}
	// The second cached `trace run` served a hit: it exported nothing.
	if _, err := os.Stat(filepath.Join(dirs["cached-run"], "again.json")); err == nil {
		t.Error("a cache hit wrote its Chrome trace; no events were replayed to export")
	}
	// -timeline is an event export too: its file is pinned byte for byte,
	// the same with a cold cache, and not written on a hit.
	tsvGolden := filepath.Join("testdata", "timeline.tsv.golden")
	if *update {
		got, err := os.ReadFile(filepath.Join(dirs["timeline"], "tl.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tsvGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(tsvGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range []string{"timeline", "timeline-cached"} {
		got, err := os.ReadFile(filepath.Join(dirs[group], "tl.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: -timeline wrote\n%s\nwant (%s)\n%s", group, got, tsvGolden, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dirs["timeline-cached"], "again.tsv")); err == nil {
		t.Error("a cache hit wrote its timeline; no events were replayed to export")
	}
	if _, err := os.Stat(filepath.Join(dirs["mumak-timeline"], "tl.tsv")); err == nil {
		t.Error("-engine mumak -timeline wrote a file; the combination is a usage error")
	}
	if _, err := os.Stat(filepath.Join(dirs["mumak-cache"], "cache")); err == nil {
		t.Error("-engine mumak -cache-dir made the directory; the combination is a usage error")
	}
	// A sweep flag it would ignore is refused, and the error names it.
	for name, flag := range map[string]string{"shard-zero": "-shard", "sweep-slots": "-reduce-slots"} {
		if !strings.Contains(stderr[name], flag) {
			t.Errorf("%s: the error %q does not name %s", name, stderr[name], flag)
		}
	}
	// `cache info|clear` on a mistyped directory names it and creates nothing.
	for _, name := range []string{"cache-info-missing", "cache-clear-missing"} {
		if !strings.Contains(stderr[name], "typo") {
			t.Errorf("%s: the error %q does not name the missing directory", name, stderr[name])
		}
		if _, err := os.Stat(filepath.Join(dirs[name], "typo")); err == nil {
			t.Errorf("%s: made the mistyped directory", name)
		}
	}
}

// TestReplayRegistersOnOpsPlane is the live check of a single replay's
// run plan: with -debug-addr the replay lists at /runs under its kind
// and policy, named by the trace's content digest, ended ok, holding the
// one post-mortem its one flight recorder captured (MinEDF misses
// deadlines on the fixture) — read from the lingering process.
func TestReplayRegistersOnOpsPlane(t *testing.T) {
	dir := cliFixture(t)
	base := startLingering(t, dir, nil, "-trace", "trace.strc", "-policy", "minedf")
	tr, err := simmr.OpenPackedTrace(filepath.Join(dir, "trace.strc"))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var list struct {
		Runs []simmr.RunSnapshot `json:"runs"`
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		resp, err := http.Get(base + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Runs) == 1 && list.Runs[0].Outcome != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/runs never showed the finished replay: %+v", list.Runs)
		}
	}
	got := list.Runs[0]
	if got.Kind != "replay" || got.Policy != "MinEDF" || got.Outcome != "ok" || got.Config != "map_slots=64 reduce_slots=64" {
		t.Fatalf("/runs lists %+v", got)
	}
	if want := fmt.Sprintf("%016x", tr.ContentHash()); got.TraceHash != want {
		t.Fatalf("trace_hash %q, want the content digest %s", got.TraceHash, want)
	}
	if got.FlightDumps != 1 || got.Jobs != uint64(len(tr.Jobs)) || got.Events == 0 {
		t.Fatalf("one recorder, one deadline-miss dump, every job counted: %+v", got)
	}
}

// startLingering starts simmr with args, the debug server on a free
// port and 30 s of -linger, in dir with env added to its environment,
// and returns the server's base URL. The process is killed when the
// test ends.
func startLingering(t *testing.T, dir string, env []string, args ...string) string {
	t.Helper()
	cmd := exec.Command(simmrBin, append(args, "-debug-addr", "127.0.0.1:0", "-linger", "30s")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	// The startup line names the bound port.
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "debug endpoint at "); ok {
			go io.Copy(io.Discard, stderr) // keep the pipe drained
			return strings.TrimSuffix(strings.Fields(rest)[0], "/metrics")
		}
	}
	t.Fatal("simmr never announced its debug endpoint")
	return ""
}

// getOK fetches url and returns its body, failing the test on anything
// but a 200.
func getOK(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %v\n%s", url, resp.Status, err, body)
	}
	return body
}

// TestSweepStreamsOnOpsPlane drives the ops plane of a live sweep end to
// end: /healthz and /buildinfo answer, /runs and /runs/latest list the
// sweep, its SSE stream delivers a progress frame taken while it ran and
// the end event after, and its final snapshot is ok with events counted.
// The stream is subscribed while the sweep runs: 64 cells of a
// 10 000-job burst on one core (GOMAXPROCS=1) take about a second, where
// finding the run takes milliseconds. The burst keeps every cell's
// cluster busy, so no cell is answered by another's replay.
func TestSweepStreamsOnOpsPlane(t *testing.T) {
	dir := t.TempDir()
	tr, err := simmr.MultiTenantTrace(10_000, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if err := simmr.WritePackedTrace(filepath.Join(dir, "ops.strc"), tr); err != nil {
		t.Fatal(err)
	}
	var cells []string
	for n := 4; n <= 256; n += 4 {
		cells = append(cells, strconv.Itoa(n))
	}
	base := startLingering(t, dir, []string{"GOMAXPROCS=1"},
		"-trace", "ops.strc", "-policy", "maxedf", "-sweep", strings.Join(cells, ","))

	if body := getOK(t, base+"/healthz"); string(body) != "ok\n" {
		t.Errorf("/healthz = %q, want \"ok\"", body)
	}
	var info struct{ Version string }
	if err := json.Unmarshal(getOK(t, base+"/buildinfo"), &info); err != nil || info.Version == "" {
		t.Errorf("/buildinfo has no version (%v)", err)
	}

	// The sweep registers once its trace is loaded.
	var run simmr.RunSnapshot
	for deadline := time.Now().Add(20 * time.Second); run.Kind != "sweep"; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("/runs/latest never resolved the sweep")
		}
		resp, err := http.Get(base + "/runs/latest")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&run)
		}
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(base + "/runs/" + run.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var frames []simmr.RunSnapshot
	ended := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for event := ""; !ended && sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			ended = event == "end"
		case event == "progress" && strings.HasPrefix(line, "data: "):
			var f simmr.RunSnapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
	}
	resp.Body.Close()
	if len(frames) == 0 || frames[0].Outcome != "running" || !ended {
		t.Fatalf("stream of %s: %d progress frames (the first %+v), end event %v; want a running frame first and the end event",
			run.ID, len(frames), frames, ended)
	}

	var list struct {
		Runs []simmr.RunSnapshot `json:"runs"`
	}
	if err := json.Unmarshal(getOK(t, base+"/runs"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != run.ID || list.Runs[0].Kind != "sweep" || list.Runs[0].Policy != "MaxEDF" {
		t.Fatalf("/runs lists %+v, want the one MaxEDF sweep %s", list.Runs, run.ID)
	}
	var final simmr.RunSnapshot
	if err := json.Unmarshal(getOK(t, base+"/runs/"+run.ID), &final); err != nil {
		t.Fatal(err)
	}
	if final.Outcome != "ok" || final.Events == 0 || final.Done != len(cells) {
		t.Fatalf("final snapshot %+v: want outcome ok, events counted, %d cells done", final, len(cells))
	}
}
