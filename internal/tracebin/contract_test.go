package tracebin

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"simmr/internal/trace"
)

// contractCase is one image that breaks the trace contract
// Trace.Validate states while keeping the format's own rules.
type contractCase struct {
	name string
	img  []byte
}

// contractImages hand-builds one image per rule of the job contract:
// the writer refuses to produce them, so each is a valid image with one
// job field patched and the CRCs recomputed, plus an image with no jobs.
func contractImages(t testing.TB) []contractCase {
	t.Helper()
	img, err := Pack(sharedTrace(t, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(img, uint64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	jobs := int(h.sections[secJobs].off)
	// patch sets one 8-byte field of one job record: 0 is the ID, 16 the
	// arrival and 24 the deadline.
	patch := func(job, field int, v uint64) []byte {
		mut := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(mut[jobs+job*jobRecSize+field:], v)
		patchSectionCRC(mut, secJobs)
		patchHeaderCRC(mut)
		return mut
	}
	// No jobs: the count and the jobs section's size are 0, and the
	// section's CRC is that of no bytes.
	empty := append([]byte(nil), img[:jobs]...)
	binary.LittleEndian.PutUint64(empty[8:], 0)
	binary.LittleEndian.PutUint64(empty[sectionTableOff+secJobs*sectionEntrySize+8:], 0)
	patchSectionCRC(empty, secJobs)
	patchHeaderCRC(empty)
	f := math.Float64bits
	return []contractCase{
		{"no jobs", empty},
		{"duplicate ID", patch(1, 0, 0)},
		{"negative arrival", patch(1, 16, f(-1))},
		{"NaN arrival", patch(1, 16, f(math.NaN()))},
		{"+Inf arrival", patch(1, 16, f(math.Inf(1)))},
		{"NaN deadline", patch(1, 24, f(math.NaN()))},
		{"negative deadline", patch(1, 24, f(-1))},
		// Job 0 arrives at 0 with its deadline at 500.
		{"deadline before arrival", patch(0, 16, f(1000))},
	}
}

// TestOpenRefusesContractBreaks: Open hands every decoded trace to
// Trace.Validate, so a file refused for a job, a duplicate ID or no jobs
// at all is refused with Validate's own error.
func TestOpenRefusesContractBreaks(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range contractImages(t) {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".strc")
			if err := os.WriteFile(path, tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted an image that breaks the contract")
			}
			if _, derr := Decode(tc.img); derr == nil || derr.Error() != err.Error() {
				t.Fatalf("Open: %v; OpenReaderAt: %v", err, derr)
			}
			if tc.name == "no jobs" && !errors.Is(err, trace.ErrEmptyTrace) {
				t.Fatalf("Open: %v, want trace.ErrEmptyTrace", err)
			}
		})
	}
}

// TestOpenHandsOutAValidatedTrace: the trace Open returns has passed
// Trace.Validate already, so the engine's own Validate is one load.
// Validate is memoized, so an edit made after Open goes unseen only if
// Open did validate.
func TestOpenHandsOutAValidatedTrace(t *testing.T) {
	img, err := Pack(sharedTrace(t, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := s.Trace()
	tr.Jobs[1].ID = tr.Jobs[0].ID
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate walked the jobs again after Open: %v", err)
	}
}

// TestWriteFileRefusesWhatOpenRefuses: WriteFile packs only a trace
// that passes Trace.Validate, and a refused trace leaves nothing on
// disk.
func TestWriteFileRefusesWhatOpenRefuses(t *testing.T) {
	src := sharedTrace(t, 12, 3)
	// fresh copies the jobs into a trace that has not been validated.
	fresh := func(edit func([]*trace.Job)) *trace.Trace {
		tr := &trace.Trace{Name: src.Name}
		for _, j := range src.Jobs {
			c := *j
			tr.Jobs = append(tr.Jobs, &c)
		}
		edit(tr.Jobs)
		return tr
	}
	cases := map[string]*trace.Trace{
		"duplicate ID": fresh(func(js []*trace.Job) { js[7].ID = js[3].ID }),
		"NaN deadline": fresh(func(js []*trace.Job) { js[5].Deadline = math.NaN() }),
		"no jobs":      {Name: "empty"},
	}
	dir := t.TempDir()
	for name, tr := range cases {
		path := filepath.Join(dir, "t.strc")
		err := WriteFile(path, tr)
		want := tr.Validate()
		if err == nil || want == nil || err.Error() != "tracebin: "+want.Error() {
			t.Errorf("%s: WriteFile: %v, want tracebin: %v", name, err, want)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("refused writes left %d files behind", len(left))
	}
}

// TestConcurrentWriteFile: writers racing on one path each write a temp
// file of their own, so every call succeeds and the file left behind
// opens as one of the inputs, whole.
func TestConcurrentWriteFile(t *testing.T) {
	a, b := sharedTrace(t, 40, 3), sharedTrace(t, 41, 4)
	want := map[uint64]bool{a.ContentHash(): true, b.ContentHash(): true}
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.strc")
	for round := 0; round < 100; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, tr := range []*trace.Trace{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = WriteFile(path, tr)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := s.Trace().ContentHash()
		s.Close()
		if !want[got] {
			t.Fatalf("round %d: the file holds neither input (content hash %016x)", round, got)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 {
		t.Fatalf("%d files in the directory, want the one written", len(left))
	}
}
