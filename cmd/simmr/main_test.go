package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestReplaySummaryMatchesScanOracle pins what `simmr -trace T -policy P`
// prints for every policy name the CLI accepts: the summary line must
// be, byte for byte, the one an in-process replay forced through the
// paper's per-slot scan implies. The CLI passes the bare policy value,
// so it runs on the engine's scheduling index; this is the end-to-end
// proof that the index changed no output.
func TestReplaySummaryMatchesScanOracle(t *testing.T) {
	// A contended burst with deadlines on every other job, so the EDF
	// orderings, MinEDF's sizing and the Capacity queues all matter.
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
	path := filepath.Join(t.TempDir(), "small.strc")
	if err := simmr.WritePackedTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	// The oracle replays what the CLI loads, not what was packed.
	loaded, err := simmr.OpenPackedTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	for _, name := range []string{"fifo", "maxedf", "minedf", "fair", "capacity"} {
		t.Run(name, func(t *testing.T) {
			p, err := policyByName(name, "0.5,0.5")
			if err != nil {
				t.Fatal(err)
			}
			want, err := simmr.Replay(cfg, loaded, schedtest.ScanOnly(p))
			if err != nil {
				t.Fatal(err)
			}
			wantLine := fmt.Sprintf("%d jobs, makespan %.1f s, %d events, policy %s",
				len(want.Jobs), want.Makespan, want.Events, p.Name())

			out, err := exec.Command(simmrBin, "-trace", path, "-policy", name).Output()
			if err != nil {
				t.Fatalf("simmr -policy %s: %v", name, err)
			}
			if got := strings.TrimRight(string(out), "\n"); got != wantLine {
				t.Fatalf("simmr -policy %s printed\n  %q\nscan oracle implies\n  %q", name, got, wantLine)
			}
		})
	}
}
