package debugserver

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"simmr/internal/obs"
	"simmr/internal/runs"
	"simmr/internal/telemetry"
	"simmr/internal/telemetry/telemetrytest"
)

// The debug server, started once per test process (the endpoint
// registrations are process-global), so the test can run -count times.
var (
	serveOnce sync.Once
	served    struct {
		tel  *telemetry.SimMetrics
		addr string
		err  error
	}
)

func serve(t *testing.T) (*telemetry.SimMetrics, string) {
	t.Helper()
	serveOnce.Do(func() { served.tel, served.addr, served.err = start("test", "127.0.0.1:0") })
	if served.err != nil {
		t.Fatal(served.err)
	}
	return served.tel, served.addr
}

// One start covers the full surface: /metrics speaks Prometheus text
// format with the build-info gauge stamped, pprof answers, /debug/vars
// is gone (Prometheus is the one export), and a second start is refused.
func TestStartServesDebugSurface(t *testing.T) {
	tel, addr := serve(t)
	if tel == nil {
		t.Fatal("nil telemetry")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE simmr_build_info gauge",
		`simmr_build_info{version="`,
		`go_version="go`,
		"simmr_engine_events_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Errorf("/debug/pprof/ index = %q", out)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars: status %d, want 404", resp.StatusCode)
	}

	if _, _, err := start("test", "127.0.0.1:0"); err == nil {
		t.Fatal("second start in one process succeeded")
	}

	testOpsSurface(t, tel, addr, get)
	testStreamAndScrapeConcurrently(t, addr)
}

// testOpsSurface exercises the ops plane against the already-started
// server (Start is one-shot per process, so this rides the main test).
func testOpsSurface(t *testing.T, tel *telemetry.SimMetrics, addr string, get func(string) string) {
	if out := get("/healthz"); !strings.Contains(out, "ok") {
		t.Errorf("/healthz = %q", out)
	}
	var bi struct {
		Version    string `json:"version"`
		Go         string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	}
	if err := json.Unmarshal([]byte(get("/buildinfo")), &bi); err != nil {
		t.Fatalf("/buildinfo not JSON: %v", err)
	}
	if bi.Version == "" || !strings.HasPrefix(bi.Go, "go") || bi.GOMAXPROCS < 1 {
		t.Errorf("/buildinfo = %+v", bi)
	}

	const sweeps = `simmr_runs_started{kind="sweep"}`
	before := telemetrytest.Scrape(t, tel.Registry())[sweeps]
	h := runs.Default().Begin(runs.Meta{Kind: runs.KindSweep, Trace: "unit", Policy: "fifo"})
	h.SetPhase("replay")
	h.Progress(2, 8)

	var list struct {
		Active int             `json:"active"`
		Runs   []runs.Snapshot `json:"runs"`
	}
	if err := json.Unmarshal([]byte(get("/runs")), &list); err != nil {
		t.Fatalf("/runs not JSON: %v", err)
	}
	if list.Active < 1 || len(list.Runs) < 1 {
		t.Fatalf("/runs = %+v", list)
	}
	var snap runs.Snapshot
	if err := json.Unmarshal([]byte(get("/runs/"+h.ID())), &snap); err != nil {
		t.Fatalf("/runs/{id} not JSON: %v", err)
	}
	if snap.ID != h.ID() || snap.Phase != "replay" || snap.Done != 2 {
		t.Fatalf("/runs/{id} = %+v", snap)
	}
	if err := json.Unmarshal([]byte(get("/runs/latest")), &snap); err != nil || snap.ID != h.ID() {
		t.Fatalf("/runs/latest = %+v err=%v", snap, err)
	}

	// Metrics reflect the registry through the scrape-time gauges.
	metrics := get("/metrics")
	if !strings.Contains(metrics, "simmr_runs_active 1") {
		t.Errorf("metrics missing live simmr_runs_active:\n%s", metrics)
	}
	if got := telemetrytest.Scrape(t, tel.Registry())[sweeps]; got != before+1 {
		t.Errorf("%s = %v after one more sweep began, was %v", sweeps, got, before)
	}

	// Flight: attach a recorder, trigger over HTTP, feed events past the
	// poll point, then fetch the dump both ways.
	rec := obs.NewFlightRecorder(64)
	h.AttachFlight(rec)
	resp, err := http.Post("http://"+addr+"/runs/"+h.ID()+"/flight", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; i < 600; i++ {
		rec.Event(obs.Event{Time: float64(i), Kind: obs.KindJobArrival, JobID: i, Task: -1})
	}
	flight := get("/runs/" + h.ID() + "/flight")
	var dumps []json.RawMessage
	if err := json.Unmarshal([]byte(flight), &dumps); err != nil || len(dumps) != 1 {
		t.Fatalf("/flight = %v err=%v", len(dumps), err)
	}
	if chrome := get("/runs/" + h.ID() + "/flight?format=chrome"); !strings.Contains(chrome, "traceEvents") {
		t.Errorf("chrome flight render missing traceEvents")
	}

	// SSE: subscribe, drive progress to completion, expect a progress
	// frame and the end event.
	streamResp, err := http.Get("http://" + addr + "/runs/" + h.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(streamResp.Body)
		done <- string(b)
	}()
	h.Progress(8, 8)
	h.End(nil)
	body := <-done
	if !strings.Contains(body, "event: progress") || !strings.Contains(body, `"outcome":"ok"`) {
		t.Errorf("stream missing final progress frame:\n%s", body)
	}
	if !strings.Contains(body, "event: end") {
		t.Errorf("stream missing end event:\n%s", body)
	}

	if resp, err := http.Get("http://" + addr + "/runs/NOPE"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown run status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// testStreamAndScrapeConcurrently is the -race coverage for the
// registry and SSE path: many runs progressing and ending while
// scrapers poll /runs and /metrics and tailers hold streams open.
func testStreamAndScrapeConcurrently(t *testing.T, addr string) {
	const runsN = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers.
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []string{"/runs", "/metrics", "/runs/latest"} {
					resp, err := http.Get("http://" + addr + p)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}

	// Runs with tailers attached.
	for i := 0; i < runsN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := runs.Default().Begin(runs.Meta{Kind: runs.KindBatch})
			resp, err := http.Get("http://" + addr + "/runs/" + h.ID() + "/stream")
			if err != nil {
				t.Error(err)
				h.End(err)
				return
			}
			drained := make(chan struct{})
			go func() {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				close(drained)
			}()
			for d := 0; d <= 100; d++ {
				h.Progress(d, 100)
			}
			if i%2 == 0 {
				h.End(nil)
			} else {
				h.End(errors.New("synthetic failure"))
			}
			<-drained // stream must terminate after End
		}(i)
	}

	doneAll := make(chan struct{})
	go func() { wg.Wait(); close(doneAll) }()
	// Let the scrapers overlap the runs briefly, then wind down.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case <-doneAll:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent stream/scrape test hung")
	}
}

// Every family /metrics emits — the SimMR set, the run registry's and
// build info — has a row in DESIGN.md §10's "Signals and who reads
// them" table, and every row names an emitted family: a series added or
// dropped without its reader row fails here.
func TestSignalTableMatchesExposition(t *testing.T) {
	tel := telemetry.NewSimMetrics()
	tel.StampBuildInfo("test")
	registerRunMetrics(tel.Registry())
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			emitted[strings.Fields(typ)[0]] = true
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "| Series (`simmr_…`) | Fed by | Read by |\n|---|---|---|\n")
	if !ok {
		t.Fatal("DESIGN.md has no signal table")
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		// The first cell names the families in backticks, labels in braces.
		series := strings.Split(strings.Split(line, "|")[1], "`")
		for i := 1; i < len(series); i += 2 {
			name, _, _ := strings.Cut(series[i], "{")
			rows["simmr_"+name] = true
		}
	}
	for name := range emitted {
		if !rows[name] {
			t.Errorf("/metrics emits %s, which has no row in DESIGN.md's signal table", name)
		}
	}
	for name := range rows {
		if !emitted[name] {
			t.Errorf("DESIGN.md's signal table has a row for %s, which /metrics does not emit", name)
		}
	}
}
