package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"simmr/internal/plan"
	"simmr/internal/runs"
	"simmr/pkg/simmr"
)

// runOpsCmd dispatches `simmr ops`: the client side of the ops plane a
// -debug-addr process serves. `list` snapshots every known run; `watch`
// tails one run's SSE progress stream until it ends.
//
//	simmr ops list  [-addr localhost:6060]
//	simmr ops watch [run-id] [-addr localhost:6060]
//
// The run id may be a unique prefix; it defaults to "latest", so
// `simmr ops watch` alone tails whatever the process is doing now.
func runOpsCmd(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "list":
			return runOpsList(args[1:])
		case "watch":
			return runOpsWatch(args[1:])
		}
	}
	return fmt.Errorf("usage: simmr ops list|watch [run-id] [-addr HOST:PORT]")
}

func runOpsList(args []string) error {
	fs := flag.NewFlagSet("ops list", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:6060", "debug address of the simmr process (-debug-addr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get("http://" + *addr + "/runs")
	if err != nil {
		return fmt.Errorf("ops list: %w (is the process running with -debug-addr?)", err)
	}
	defer resp.Body.Close()
	var list struct {
		Active int                 `json:"active"`
		Runs   []simmr.RunSnapshot `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return fmt.Errorf("ops list: %w", err)
	}
	fmt.Printf("%d active\n", list.Active)
	fmt.Println("id\tkind\ttrace\tpolicy\tphase\tprogress\toutcome\telapsed_s")
	for _, s := range list.Runs {
		outcome := s.Outcome
		if outcome == runs.OutcomeRunning {
			outcome = "live"
		}
		fmt.Printf("%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\t%.1f\n",
			s.ID, s.Kind, orDash(s.Trace), orDash(s.Policy), orDash(s.Phase),
			s.Done, s.Total, outcome, s.ElapsedSec)
	}
	return nil
}

func runOpsWatch(args []string) error {
	// Accept `simmr ops watch <id> -addr ...` and `simmr ops watch -addr ...`.
	id := "latest"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("ops watch", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:6060", "debug address of the simmr process (-debug-addr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get("http://" + *addr + "/runs/" + id + "/stream")
	if err != nil {
		return fmt.Errorf("ops watch: %w (is the process running with -debug-addr?)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ops watch: run %q: %s", id, resp.Status)
	}
	return tailStream(resp.Body, os.Stdout)
}

// tailStream renders an SSE progress stream as one rewriting status
// line, terminated by the run's final snapshot when the `end` event
// arrives. Split out from the HTTP client for tests.
func tailStream(body interface{ Read([]byte) (int, error) }, w *os.File) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var last simmr.RunSnapshot
	seen := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			break
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		payload := strings.TrimPrefix(line, "data: ")
		if payload == "{}" {
			continue
		}
		if err := json.Unmarshal([]byte(payload), &last); err != nil {
			continue
		}
		seen = true
		fmt.Fprintf(w, "\r%s %s %s %d/%d (%.0f%%) %s events=%d elapsed=%.1fs ",
			last.ID, last.Kind, orDash(last.Phase), last.Done, last.Total,
			last.Progress*100, barFor(last.Progress), last.Events, last.ElapsedSec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ops watch: stream: %w", err)
	}
	if !seen {
		return fmt.Errorf("ops watch: stream ended without a snapshot")
	}
	verdict := last.Outcome
	if last.Outcome == runs.OutcomeError && last.Error != "" {
		verdict += ": " + last.Error
	}
	fmt.Fprintf(w, "\n%s %s %s in %.1fs (%d/%d, %d events, %d jobs)\n",
		last.ID, last.Kind, verdict, last.ElapsedSec, last.Done, last.Total,
		last.Events, last.Jobs)
	return nil
}

// barFor renders a 20-cell progress bar.
func barFor(frac float64) string {
	const cells = 20
	filled := int(frac * cells)
	if filled > cells {
		filled = cells
	}
	if filled < 0 {
		filled = 0
	}
	return "[" + strings.Repeat("#", filled) + strings.Repeat("-", cells-filled) + "]"
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// opsOptions is the run-plan options of a CLI invocation. With the debug
// server up (tel != nil) every replay, sweep and what-if fan-out also
// registers with the process-wide run registry served at /runs — live
// progress, an SSE stream — and carries default-size flight recorders,
// whose "error" and "deadline-miss" post-mortems /runs/{id}/flight
// serves. Without -debug-addr only the cache, if any, is set.
func opsOptions(tel *simmr.Telemetry, cache *simmr.Cache) plan.Options {
	o := plan.Options{Telemetry: tel, Cache: cache}
	if tel != nil {
		o.Runs, o.Flight = simmr.DefaultRuns(), -1
	}
	return o
}

// holdOpen keeps the process alive after a run completes so watchers
// and scrapers can read the final state — used by -linger.
func holdOpen(d time.Duration) {
	if d > 0 {
		fmt.Fprintf(os.Stderr, "simmr: lingering %s for scrapers (-linger)\n", d)
		time.Sleep(d)
	}
}
