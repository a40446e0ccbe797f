package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"syscall"

	"simmr/pkg/simmr"
)

// sizing fixes how much work one operation is. The full sizes are part
// of the benchmark's definition (README.md says how they were chosen);
// they are never calibrated at run time. smoke is the same code at toy
// sizes for the package's tests.
type sizing struct {
	name        string
	bigJobs     int   // bigtrace-cold: jobs in the .strc file
	backlogJobs int   // backlog-policies: jobs in the burst
	sweepJobs   int   // sweep-grid: jobs in the swept trace
	sweepGrid   []int // sweep-grid: slot counts on both axes
	sessionJobs int   // session-observed: jobs in the base trace
	minOps      int   // timed operations at least, however long they take
	warmups     int   // untimed operations before the first timed one
	setupReps   int   // set-ups per run; setup_s is their median
	probeReps   int   // repetitions of each per-layer probe
}

var (
	full = sizing{
		name:        "full",
		bigJobs:     100_000,
		backlogJobs: 2_500,
		sweepJobs:   4_000,
		sweepGrid:   []int{16, 24, 32, 48, 64, 80, 96, 128},
		sessionJobs: 20_000,
		minOps:      40,
		warmups:     3,
		setupReps:   3,
		probeReps:   3,
	}
	smoke = sizing{
		name:        "smoke",
		bigJobs:     2_000,
		backlogJobs: 150,
		sweepJobs:   200,
		sweepGrid:   []int{16, 64, 128},
		sessionJobs: 400,
		minOps:      3,
		warmups:     1,
		setupReps:   1,
		probeReps:   1,
	}
)

// env is what a set-up needs to know about the run.
type env struct {
	sz     sizing
	seed   int64
	nproc  int
	outDir string // scratch directory of this workload, inside the checkout
}

// output is what one operation returned, kept for the untimed check.
// Each workload fills the fields its operation produces.
type output struct {
	events  uint64                // simulated events in the returned results
	results []*simmr.ReplayResult // backlog-policies, session-observed
	points  []simmr.SweepPoint    // sweep-grid
	summary string                // bigtrace-cold: the CLI's summary line
	child   *syscall.Rusage       // bigtrace-cold: the simmr process's usage
	// session-observed: what the operation did to the cache, and
	// whether it was the first one, which starts cold.
	hits, misses uint64
	cold         bool
}

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// op runs one operation; a non-nil tracer records spans around the
	// calls it makes and installs the policy and sink wrappers.
	op(tr *tracer) (output, error)
	// check compares an operation's output with the oracle built in
	// set-up; it runs outside the timed region.
	check(out output) error
	// between does untimed housekeeping after each operation.
	between() error
	// pin is the digest of the oracle's outputs, compared with pins.json.
	pin() uint64
	// target is the replay the per-layer probes decompose.
	target() probeTarget
	// layers adds the per-layer metrics only this workload can measure,
	// to the probes' m; opP50 is this run's untraced median operation.
	layers(tr *tracer, m map[string]float64, opP50 float64) error
	close()
}

// setups lists the workloads in the order BENCHMARK.json does.
var setups = []struct {
	name  string
	setup func(env) (workload, error)
}{
	{"bigtrace-cold", setupBigtrace},
	{"backlog-policies", setupBacklog},
	{"sweep-grid", setupSweep},
	{"session-observed", setupSession},
}

// sparseStream is the sparse multi-tenant stream three workloads draw
// from: small jobs a minute apart on a 256-template pool, half of them
// with deadlines, so few jobs are ever active at once.
func sparseStream(name string, jobs int, seed int64) (*simmr.TraceStream, error) {
	return simmr.NewTraceStream(simmr.StreamConfig{
		Name:             name,
		Jobs:             jobs,
		MeanInterArrival: 60,
		TemplatePool:     256,
		DeadlineFraction: 0.5,
		DeadlineSlack:    900,
		Shapes:           []simmr.WeightedShape{{Shape: simmr.MultiTenantShape(), Weight: 1}},
	}, rand.New(rand.NewSource(seed)))
}

func sparseTrace(name string, jobs int, seed int64) (*simmr.Trace, error) {
	s, err := sparseStream(name, jobs, seed)
	if err != nil {
		return nil, err
	}
	return s.Collect()
}

// paperPolicies are the paper's three policies, built as cmd/simmr
// builds them for -policy fifo|maxedf|minedf.
func paperPolicies() []simmr.Policy {
	return []simmr.Policy{simmr.NewFIFO(), simmr.NewMaxEDF(), simmr.NewMinEDF()}
}

// digest is FNV-1a over 64-bit words, least significant byte first.
type digest struct{ hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.Write(b[:])
}

func (d digest) f64(v float64) { d.u64(math.Float64bits(v)) }

// resultDigest identifies a replay's simulated outcome: event count,
// makespan and every job's ID and finish time, bit for bit.
func resultDigest(res *simmr.ReplayResult) uint64 {
	d := newDigest()
	d.u64(res.Events)
	d.f64(res.Makespan)
	for i := range res.Jobs {
		d.u64(uint64(res.Jobs[i].ID))
		d.f64(res.Jobs[i].Finish)
	}
	return d.Sum64()
}

func combineDigests(ds []uint64) uint64 {
	d := newDigest()
	for _, v := range ds {
		d.u64(v)
	}
	return d.Sum64()
}

// checkDigests reports the first result whose digest differs from want.
func checkDigests(what string, results []*simmr.ReplayResult, want []uint64) error {
	if len(results) != len(want) {
		return fmt.Errorf("%s: %d results, want %d", what, len(results), len(want))
	}
	for i, res := range results {
		if got := resultDigest(res); got != want[i] {
			return fmt.Errorf("%s: result %d digest %016x, oracle %016x", what, i, got, want[i])
		}
	}
	return nil
}
