package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

// The observation stream of 7 policies × 4 workloads, pinned as one
// (length, digest) line each in testdata/obs_streams.golden. The file
// was written by the engine that still called Sink.Event from its
// handlers, one call per event; an engine that delivers in blocks must
// reproduce every line, through a per-event sink and a block-taking one
// alike. Regenerate — only for an intended change of the stream itself
// — with `go test ./internal/engine -run DeliveredStreams -update`.

// streamCase is one workload of the stream differential.
type streamCase struct {
	name string
	cfg  Config
	tr   *trace.Trace
}

func streamCases(t *testing.T) []streamCase {
	t.Helper()
	multi := func(n int, seed int64) *trace.Trace {
		tr, err := synth.MultiTenantTrace(n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// Every job present at once: one macro-step admits them all.
	burst := multi(120, 11)
	for _, j := range burst.Jobs {
		if j.Deadline > 0 {
			j.Deadline -= j.Arrival
		}
		j.Arrival = 0
	}
	// Long map stages on few slots with reduces admitted at 5 %: every
	// reduce of the first wave starts as a filler and is patched.
	fillers := &trace.Trace{Name: "fillers"}
	for i := 0; i < 24; i++ {
		fillers.Jobs = append(fillers.Jobs, &trace.Job{
			Arrival:  float64(i) * 3,
			Deadline: float64(i)*3 + 400 + float64(i%5)*90,
			Template: uniformTemplate(40, 6, 9+float64(i%4), 4, 6, 3+float64(i%3)),
		})
	}
	fillers.Normalize()
	preempt := DefaultConfig()
	preempt.MapSlots, preempt.ReduceSlots, preempt.PreemptMapTasks = 24, 24, true
	return []streamCase{
		{"dense-burst", DefaultConfig(), burst},
		{"sparse-ids", DefaultConfig(), sparseIDTrace(t)},
		{"preempt", preempt, multi(150, 77)},
		{"fillers", Config{MapSlots: 8, ReduceSlots: 8, MinMapPercentCompleted: 0.05}, fillers},
	}
}

// streamDigest folds every field of every event, in order.
func streamDigest(evs []obs.Event) uint64 {
	h := fnv.New64a()
	var b [41]byte
	for _, ev := range evs {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(ev.Time))
		binary.LittleEndian.PutUint64(b[8:], uint64(int64(ev.JobID)))
		binary.LittleEndian.PutUint64(b[16:], uint64(int64(ev.Task)))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(ev.End))
		binary.LittleEndian.PutUint64(b[32:], math.Float64bits(ev.ShuffleEnd))
		b[40] = byte(ev.Kind)
		h.Write(b[:])
	}
	return h.Sum64()
}

// blockRecorder is RecordSink taking blocks: it keeps the stream and
// how it arrived.
type blockRecorder struct {
	events   []obs.Event
	blocks   []int // length of each Events call, in call order
	singles  int   // Event calls
	counters obs.Counters
	ended    bool
	late     int // deliveries after RunEnd
}

func (r *blockRecorder) Event(ev obs.Event) {
	r.singles++
	r.add([]obs.Event{ev})
}

func (r *blockRecorder) Events(evs []obs.Event) {
	r.blocks = append(r.blocks, len(evs))
	r.add(evs)
}

func (r *blockRecorder) add(evs []obs.Event) {
	if r.ended {
		r.late += len(evs)
	}
	r.events = append(r.events, evs...) // a copy: the block is the engine's
}

func (r *blockRecorder) RunEnd(c obs.Counters) { r.counters, r.ended = c, true }

const (
	streamGolden   = "obs_streams.golden"
	countersGolden = "counters.golden"
)

// readGolden reads a testdata file of "name rest-of-line" rows.
func readGolden(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	defer f.Close()
	pinned := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, rest, ok := strings.Cut(sc.Text(), " "); ok {
			pinned[name] = rest
		}
	}
	return pinned
}

func TestDeliveredStreamsMatchPinned(t *testing.T) {
	var pinned map[string]string
	if !*updateGolden {
		pinned = readGolden(t, streamGolden)
	}
	var lines []string
	kinds := map[obs.Kind]int{}
	for _, sc := range streamCases(t) {
		for _, pc := range diffPolicies() {
			name := sc.name + "/" + pc.name
			perEvent, inBlocks := &obs.RecordSink{}, &blockRecorder{}
			cfg := sc.cfg
			cfg.Sink = obs.Tee(perEvent, inBlocks)
			if _, err := Run(cfg, sc.tr, pc.mk()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(perEvent.Events) != len(inBlocks.events) {
				t.Fatalf("%s: %d events per event, %d in blocks", name, len(perEvent.Events), len(inBlocks.events))
			}
			for i, ev := range perEvent.Events {
				if ev != inBlocks.events[i] {
					t.Fatalf("%s: event %d: per event %+v, in blocks %+v", name, i, ev, inBlocks.events[i])
				}
				kinds[ev.Kind]++
			}
			if !perEvent.Ended || !inBlocks.ended || perEvent.Counters != inBlocks.counters || inBlocks.late != 0 {
				t.Fatalf("%s: RunEnd: per event %v %+v, in blocks %v %+v, %d deliveries after it",
					name, perEvent.Ended, perEvent.Counters, inBlocks.ended, inBlocks.counters, inBlocks.late)
			}
			line := fmt.Sprintf("%d %016x", len(perEvent.Events), streamDigest(perEvent.Events))
			lines = append(lines, name+" "+line)
			if pinned != nil && pinned[name] != line {
				t.Errorf("%s: stream is (%s), pinned (%s)", name, line, pinned[name])
			}
		}
	}
	// The cases must reach what they are named for.
	for _, k := range []obs.Kind{obs.KindPreempt, obs.KindFillerPatch} {
		if kinds[k] == 0 {
			t.Errorf("no %v event in any case", k)
		}
	}
	settleGolden(t, streamGolden, lines, pinned)
}

// settleGolden ends a golden comparison: under -update it writes the rows
// run, otherwise it checks that every pinned row was run.
func settleGolden(t *testing.T, file string, lines []string, pinned map[string]string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(filepath.Join("testdata", file), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(pinned) != len(lines) {
		t.Errorf("%s: %d cases pinned, %d run", file, len(pinned), len(lines))
	}
}

// The event counts and run counters of the same 28 replays, pinned in
// testdata/counters.golden: what the engine counts as an event (in
// total and per job), how deep the queue got, and how many slots,
// patches and kills the run took (counted in its recorded stream). The file was written by the engine
// that still queued a task-arrival event per grant; an engine that
// starts the task in the granting round must count exactly the same.
// Regenerate — only for an intended change of what an event is — with
// `go test ./internal/engine -run CountersMatchPinned -update`.
func TestCountersMatchPinned(t *testing.T) {
	var pinned map[string]string
	if !*updateGolden {
		pinned = readGolden(t, countersGolden)
	}
	var lines []string
	for _, sc := range streamCases(t) {
		for _, pc := range diffPolicies() {
			name := sc.name + "/" + pc.name
			res, sink := replayRecorded(t, sc.cfg, sc.tr, pc.mk())
			perJob := 0
			for _, o := range res.Jobs {
				perJob += o.Events
			}
			c, evs := sink.Counters, sink.Events
			line := fmt.Sprintf("events=%d perjob=%d highwater=%d mapallocs=%d reduceallocs=%d patches=%d preemptions=%d",
				res.Events, perJob, c.HeapHighWater, kindTotal(evs, obs.KindMapSlotAlloc), kindTotal(evs, obs.KindReduceSlotAlloc),
				kindTotal(evs, obs.KindFillerPatch), kindTotal(evs, obs.KindPreempt))
			lines = append(lines, name+" "+line)
			if c.Events != res.Events {
				t.Errorf("%s: RunEnd counted %d events, the Result %d", name, c.Events, res.Events)
			}
			if pinned != nil && pinned[name] != line {
				t.Errorf("%s: counters are (%s), pinned (%s)", name, line, pinned[name])
			}
		}
	}
	settleGolden(t, countersGolden, lines, pinned)
}
