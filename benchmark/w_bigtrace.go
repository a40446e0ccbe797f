package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"

	"simmr/pkg/simmr"
)

// bigtrace is bigtrace-cold: one operation is a fresh `simmr -trace
// T.strc -policy fifo` process, from start to exit with stdout
// captured — the north-star user story. Load, validate, a cold engine
// arm and page faults are paid on every operation, as users pay them.
type bigtrace struct {
	e      env
	bin    string // built cmd/simmr
	path   string // the packed trace
	trace  *simmr.Trace
	oracle *simmr.ReplayResult // in-process replay of the same file
	want   string              // the summary line the oracle implies
}

func setupBigtrace(e env) (workload, error) {
	w := &bigtrace{
		e:    e,
		bin:  filepath.Join(e.outDir, "simmr"),
		path: filepath.Join(e.outDir, "big.strc"),
	}
	// The import path resolves against the enclosing module from any
	// directory inside it, so the harness needs no notion of a root.
	if out, err := exec.Command("go", "build", "-o", w.bin, "simmr/cmd/simmr").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build simmr/cmd/simmr: %v\n%s", err, out)
	}
	s, err := sparseStream("bigtrace", e.sz.bigJobs, e.seed)
	if err != nil {
		return nil, err
	}
	if _, _, err := simmr.PackStream(w.path, s); err != nil {
		return nil, err
	}
	if w.trace, err = simmr.OpenPackedTrace(w.path); err != nil {
		return nil, err
	}
	if w.oracle, err = simmr.Replay(simmr.DefaultReplayConfig(), w.trace, simmr.NewFIFO()); err != nil {
		return nil, err
	}
	w.want = summaryLine(w.oracle, simmr.NewFIFO())
	return w, nil
}

// summaryLine is the line cmd/simmr prints after a replay.
func summaryLine(res *simmr.ReplayResult, p simmr.Policy) string {
	return fmt.Sprintf("%d jobs, makespan %.1f s, %d events, policy %s",
		len(res.Jobs), res.Makespan, res.Events, p.Name())
}

func (w *bigtrace) op(tr *tracer) (output, error) {
	var out output
	var err error
	tr.do("cmd/simmr.exec", func() {
		cmd := exec.Command(w.bin, "-trace", w.path, "-policy", "fifo")
		cmd.Stderr = os.Stderr
		var stdout []byte
		stdout, err = cmd.Output()
		out.summary = strings.TrimSpace(string(stdout))
		if cmd.ProcessState != nil {
			out.child, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
		}
	})
	if err != nil {
		return out, fmt.Errorf("simmr -trace %s: %w", w.path, err)
	}
	// The events the operation returned are the ones its summary line
	// reports; check holds the whole line to the oracle.
	var jobs int
	var makespan float64
	if _, err := fmt.Sscanf(out.summary, "%d jobs, makespan %f s, %d events", &jobs, &makespan, &out.events); err != nil {
		return out, fmt.Errorf("summary line %q: %w", out.summary, err)
	}
	return out, nil
}

func (w *bigtrace) check(out output) error {
	if out.summary != w.want {
		return fmt.Errorf("bigtrace-cold: CLI printed %q, in-process replay of the same file gives %q", out.summary, w.want)
	}
	return nil
}

func (w *bigtrace) between() error { return nil }

func (w *bigtrace) pin() uint64 { return resultDigest(w.oracle) }

func (w *bigtrace) target() probeTarget {
	return probeTarget{
		gen:      func() (*simmr.Trace, error) { return sparseTrace("bigtrace", w.e.sz.bigJobs, w.e.seed) },
		trace:    w.trace,
		cfg:      simmr.DefaultReplayConfig(),
		policies: []simmr.Policy{simmr.NewFIFO()},
		cold:     true,
	}
}

// layers derives what the process costs beyond the replay itself —
// runtime start, flag parsing, page faults, printing, exit — as the
// CLI's median less the in-process open + validate + arm + run of the
// same file, which the probes have just measured.
func (w *bigtrace) layers(_ *tracer, m map[string]float64, opP50 float64) error {
	jobs, events := float64(len(w.oracle.Jobs)), float64(w.oracle.Events)
	inProcess := jobs*(m["tracebin.open_ns_per_job"]+m["trace.validate_ns_per_job"]+m["engine.arm_cold_ns_per_job"]) +
		events*m["engine.run_ns_per_event"]
	m["cli.process_overhead_s"] = opP50 - inProcess/1e9
	return nil
}

func (w *bigtrace) close() { w.trace.Close() }
