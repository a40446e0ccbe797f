// Command benchmark is the repo's benchmark: four replay workloads
// driven through the public entry points only (the cmd/simmr binary,
// pkg/simmr and the exported functions of the internal layers), every
// operation checked against an oracle, every metric printed by name
// with its unit. README.md defines the workloads and metrics;
// BENCHMARK.json is the contract the driver runs it under:
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object. Without
// --workload every workload runs in turn, each in a process of its own.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all four, one process each")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from (1 is the pinned seed, 2 the held-out one)")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	smokeSize := flag.Bool("smoke", false, "toy sizes and three operations (what the package's tests run)")
	aa := flag.Bool("aa", false, "run the untraced set twice and compare: every end-to-end metric of every workload must agree within its bound")
	runs := flag.Int("runs", 1, "with --aa: runs per workload and set, each with the next seed; medians are compared and quartile spreads printed")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "scratch directory (built binary, traces, cache, span files)")
	flag.Parse()
	o.trace = *trace != 0
	o.sz = full
	if *smokeSize {
		o.sz = smoke
	}

	var err error
	switch {
	case *aa:
		err = runAA(o, *runs)
	case o.workload == "":
		err = runAll(o)
	default:
		_, err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// child runs one workload in a process of its own — so that its peak
// resident set and GC state are that workload's alone — echoes what it
// prints and returns its result line.
func child(o options, echo bool) (report, error) {
	var rep report
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	args := []string{
		"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--out", o.outDir,
	}
	if o.trace {
		args = append(args, "--trace", "1")
	}
	if o.sz.name == smoke.name {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return rep, fmt.Errorf("%s: %w", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, fmt.Errorf("%s: result line: %w", o.workload, err)
	}
	return rep, nil
}

func runAll(o options) error {
	failed := 0
	for _, s := range setups {
		o.workload = s.name
		rep, err := child(o, true)
		if err != nil {
			return err
		}
		failed += rep.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	return nil
}

// runAA is the A/A check: the untraced set twice back to back on the
// same code. For every end-to-end metric of every workload it prints
// both sets' medians, their relative gap, the bound, and each set's
// quartile spread over the runs; any gap beyond its bound (either way)
// or any failed operation is an error.
func runAA(o options, runs int) error {
	cells := map[string]*[2][]float64{} // workload and metric → each set's values
	failed := 0
	for set := 0; set < 2; set++ {
		for _, s := range setups {
			for run := 0; run < runs; run++ {
				c := o
				c.workload, c.seed, c.trace = s.name, o.seed+int64(run), false
				rep, err := child(c, false)
				if err != nil {
					return err
				}
				failed += rep.Failed
				fmt.Printf("aa set=%d %s seed=%d attempted=%d failed=%d\n", set, s.name, c.seed, rep.Attempted, rep.Failed)
				for _, d := range endToEnd {
					key := s.name + " " + d.Name
					if cells[key] == nil {
						cells[key] = &[2][]float64{}
					}
					cells[key][set] = append(cells[key][set], rep.Metrics[d.Name].Value)
				}
			}
		}
	}
	var buf bytes.Buffer
	beyond := 0
	fmt.Fprintf(&buf, "%-17s %-15s %12s %12s %8s %6s %9s %9s\n", "workload", "metric", "A", "B", "gap", "bound", "spread_A", "spread_B")
	for _, s := range setups {
		for _, d := range endToEnd {
			c := cells[s.name+" "+d.Name]
			a, b := median(c[0]), median(c[1])
			gap := (b - a) / a
			mark := ""
			if gap > d.Bound || gap < -d.Bound {
				beyond++
				mark = "  BEYOND BOUND"
			}
			fmt.Fprintf(&buf, "%-17s %-15s %12.6g %12.6g %+8.4f %6.2f %9.4f %9.4f%s\n",
				s.name, d.Name, a, b, gap, d.Bound, quartileSpread(c[0]), quartileSpread(c[1]), mark)
		}
	}
	os.Stdout.Write(buf.Bytes())
	if beyond > 0 || failed > 0 {
		return fmt.Errorf("A/A: %d metrics beyond their bound, %d failed operations", beyond, failed)
	}
	return nil
}
