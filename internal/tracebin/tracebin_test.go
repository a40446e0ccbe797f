package tracebin

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"simmr/internal/synth"
	"simmr/internal/trace"
)

// sharedTrace builds a trace whose jobs share k templates by pointer —
// the deduplicated regime the format is built for.
func sharedTrace(t testing.TB, jobs, k int) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(jobs*31 + k)))
	pool := make([]*trace.Template, k)
	for i := range pool {
		tpl := &trace.Template{
			AppName:      fmt.Sprintf("app-%d", i%3),
			Dataset:      fmt.Sprintf("ds-%d", i),
			NumMaps:      2 + i%4,
			NumReduces:   i % 3,
			MapDurations: make([]float64, 2+i%4),
			Counters:     map[string]float64{"input_mb": float64(100 * (i + 1)), "spill": float64(i)},
		}
		for d := range tpl.MapDurations {
			tpl.MapDurations[d] = 10 + rng.Float64()*50
		}
		if tpl.NumReduces > 0 {
			tpl.ReduceDurations = make([]float64, tpl.NumReduces)
			tpl.FirstShuffle = make([]float64, tpl.NumReduces)
			tpl.TypicalShuffle = make([]float64, tpl.NumReduces)
			for d := 0; d < tpl.NumReduces; d++ {
				tpl.ReduceDurations[d] = 5 + rng.Float64()*20
				tpl.FirstShuffle[d] = 1 + rng.Float64()*3
				tpl.TypicalShuffle[d] = 2 + rng.Float64()*5
			}
		}
		pool[i] = tpl
	}
	tr := &trace.Trace{Name: "shared-fixture"}
	arrival := 0.0
	for i := 0; i < jobs; i++ {
		j := &trace.Job{
			ID:       i,
			Name:     fmt.Sprintf("job-%d", i%5),
			Arrival:  arrival,
			Template: pool[i%k],
		}
		if i%3 == 0 {
			j.Deadline = arrival + 500
		}
		tr.Jobs = append(tr.Jobs, j)
		arrival += rng.Float64() * 10
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("fixture trace invalid: %v", err)
	}
	return tr
}

// assertTraceEqual compares two traces through the JSON wire format:
// byte-identical encodings mean identical names, job tables, and
// (bit-for-bit) template durations.
func assertTraceEqual(t *testing.T, want, got *trace.Trace) {
	t.Helper()
	wj, err := trace.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := trace.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("trace diverged after round trip (%d vs %d JSON bytes)", len(wj), len(gj))
	}
}

func TestPackDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"shared", sharedTrace(t, 200, 7)},
		{"single-job", sharedTrace(t, 1, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, err := Pack(tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			if !IsPacked(img) {
				t.Fatal("packed image does not sniff as packed")
			}
			s, err := Decode(img)
			if err != nil {
				t.Fatal(err)
			}
			assertTraceEqual(t, tc.tr, s.Trace())
			if err := s.Trace().Validate(); err != nil {
				t.Fatalf("decoded trace invalid: %v", err)
			}
		})
	}
}

func TestRoundTripSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := synth.MultiTenantTrace(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Pack(tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, s.Trace())
}

func TestTemplateDedup(t *testing.T) {
	tr := sharedTrace(t, 100, 5)
	var m memSeeker
	w, err := NewWriter(&m, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := w.Add(j); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.UniqueTemplates != 5 {
		t.Fatalf("pointer dedup: %d unique templates, want 5", st.UniqueTemplates)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Content dedup: byte-identical copies behind distinct pointers
	// must merge into the same pool entries.
	var m2 memSeeker
	w2, err := NewWriter(&m2, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range tr.Jobs {
		if err := w2.Add(j); err != nil {
			t.Fatal(err)
		}
		if err := w2.Add(&trace.Job{
			ID:       1000 + i,
			Name:     j.Name,
			Arrival:  j.Arrival,
			Deadline: j.Deadline,
			Template: j.Template.Clone(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := w2.Stats(); st.UniqueTemplates != 5 {
		t.Fatalf("content dedup: %d unique templates, want 5", st.UniqueTemplates)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// The decoded trace must restore sharing: jobs that shared a
	// template on write share one *Template after load.
	s, err := Decode(m.buf)
	if err != nil {
		t.Fatal(err)
	}
	dec := s.Trace()
	seen := make(map[*trace.Template]bool)
	for _, j := range dec.Jobs {
		seen[j.Template] = true
	}
	if len(seen) != 5 {
		t.Fatalf("decoded trace has %d distinct templates, want 5", len(seen))
	}
}

func TestWriteFileOpenMmap(t *testing.T) {
	tr := sharedTrace(t, 500, 9)
	path := filepath.Join(t.TempDir(), "t.strc")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
		if !info.Mapped {
			t.Error("expected mmap-backed store on this platform")
		}
	}
	if info.Jobs != 500 || info.UniqueTemplates != 9 {
		t.Fatalf("info = %+v, want 500 jobs / 9 templates", info)
	}
	if info.BytesPerJob <= 0 {
		t.Fatalf("bytes/job = %v", info.BytesPerJob)
	}
	if len(info.Sections) != numSections {
		t.Fatalf("%d sections in info, want %d", len(info.Sections), numSections)
	}
	assertTraceEqual(t, tr, s.Trace())

	// Closing through the trace backing releases the mapping;
	// both close paths are idempotent.
	if err := s.Trace().Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenReaderAtFallback(t *testing.T) {
	tr := sharedTrace(t, 50, 3)
	img, err := Pack(tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenReaderAt(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Info().Mapped {
		t.Error("ReaderAt path must not report a mapping")
	}
	assertTraceEqual(t, tr, s.Trace())
}

func TestDecodeArenaMatchesZeroCopy(t *testing.T) {
	tr := sharedTrace(t, 40, 4)
	img, err := Pack(tr)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(img, uint64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	sec := h.sections[secArena]
	fast := arenaFloats(img[sec.off : sec.off+sec.size])
	slow := decodeArena(img[sec.off : sec.off+sec.size])
	if len(fast) != len(slow) {
		t.Fatalf("arena lengths %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("arena[%d]: %v vs %v", i, fast[i], slow[i])
		}
	}
}

// Opening a packed trace allocates per template, never per job: the job
// table decodes into two slabs and names are interned, which is what
// the format buys over JSON's allocation per inlined template copy. At
// a fixed template pool, ten times the jobs cost not one allocation
// more.
func TestDecodeAllocsIndependentOfJobCount(t *testing.T) {
	decodeAllocs := func(jobs int) float64 {
		img, err := Pack(sharedTrace(t, jobs, 64))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Decode(img); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := decodeAllocs(2_000), decodeAllocs(20_000); big > small {
		t.Fatalf("Decode allocates %.0f times for 20000 jobs, %.0f for 2000, over the same 64 templates", big, small)
	}
}

// errSource fails after yielding two jobs.
type errSource struct {
	tr *trace.Trace
	n  int
}

func (e *errSource) Next() (*trace.Job, bool, error) {
	if e.n >= 2 {
		return nil, false, fmt.Errorf("synthetic source failure")
	}
	j := e.tr.Jobs[e.n]
	e.n++
	return j, true, nil
}

func TestWriteSource(t *testing.T) {
	tr := sharedTrace(t, 120, 6)
	path := filepath.Join(t.TempDir(), "src.strc")
	i := 0
	src := sourceFunc(func() (*trace.Job, bool, error) {
		if i >= len(tr.Jobs) {
			return nil, false, nil
		}
		j := tr.Jobs[i]
		i++
		return j, true, nil
	})
	st, err := WriteSource(path, tr.Name, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 120 || st.UniqueTemplates != 6 {
		t.Fatalf("stats = %+v", st)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertTraceEqual(t, tr, s.Trace())

	// A failing source must leave no file behind.
	badPath := filepath.Join(t.TempDir(), "bad.strc")
	if _, err := WriteSource(badPath, "bad", &errSource{tr: tr}); err == nil {
		t.Fatal("expected source error")
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatalf("failed WriteSource left %s behind", badPath)
	}
	if left, _ := filepath.Glob(badPath + ".*.tmp"); len(left) != 0 {
		t.Fatalf("failed WriteSource left temp files behind: %v", left)
	}
}

// sourceFunc adapts a closure to JobSource.
type sourceFunc func() (*trace.Job, bool, error)

func (f sourceFunc) Next() (*trace.Job, bool, error) { return f() }

func TestWriterRejectsBadInput(t *testing.T) {
	tpl := sharedTrace(t, 1, 1).Jobs[0].Template
	cases := []struct {
		name string
		job  *trace.Job
	}{
		{"nil-template", &trace.Job{ID: 1, Arrival: 0}},
		{"negative-arrival", &trace.Job{ID: 1, Arrival: -1, Template: tpl}},
		{"deadline-before-arrival", &trace.Job{ID: 1, Arrival: 10, Deadline: 5, Template: tpl}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m memSeeker
			w, err := NewWriter(&m, "bad")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Add(tc.job); err == nil {
				t.Fatal("expected Add error")
			}
			// A failed writer stays failed.
			if err := w.Close(); err == nil {
				t.Fatal("expected Close to propagate failure")
			}
		})
	}

	var m memSeeker
	w, err := NewWriter(&m, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("expected empty-trace error from Close")
	}
}

func TestCorruptSectionCRC(t *testing.T) {
	tr := sharedTrace(t, 30, 3)
	img, err := Pack(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the jobs section payload: the section CRC must
	// catch it.
	h, err := decodeHeader(img, uint64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), img...)
	corrupt[h.sections[secJobs].off] ^= 0xFF
	if _, err := Decode(corrupt); err == nil {
		t.Fatal("expected CRC error on corrupted jobs section")
	}
	// And a header flip must be caught by the header CRC.
	corrupt2 := append([]byte(nil), img...)
	corrupt2[8] ^= 0x01
	if _, err := Decode(corrupt2); err == nil {
		t.Fatal("expected header CRC error")
	}
}

// Pack encodes a trace into an in-memory `.strc` image.
func Pack(tr *trace.Trace) ([]byte, error) {
	var m memSeeker
	if err := WriteTrace(&m, tr); err != nil {
		return nil, err
	}
	return m.buf, nil
}

// memSeeker is a minimal in-memory io.WriteSeeker for Pack.
type memSeeker struct {
	buf []byte
	off int
}

func (m *memSeeker) Write(p []byte) (int, error) {
	if need := m.off + len(p); need > len(m.buf) {
		if need > cap(m.buf) {
			grown := make([]byte, need, need*2)
			copy(grown, m.buf)
			m.buf = grown
		} else {
			m.buf = m.buf[:need]
		}
	}
	copy(m.buf[m.off:], p)
	m.off += len(p)
	return len(p), nil
}

func (m *memSeeker) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = int64(m.off) + offset
	case io.SeekEnd:
		abs = int64(len(m.buf)) + offset
	default:
		return 0, fmt.Errorf("tracebin: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("tracebin: negative seek %d", abs)
	}
	m.off = int(abs)
	return abs, nil
}

// Decode decodes an in-memory `.strc` image through OpenReaderAt.
func Decode(data []byte) (*Store, error) {
	return OpenReaderAt(bytes.NewReader(data), int64(len(data)))
}
