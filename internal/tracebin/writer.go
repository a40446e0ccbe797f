package tracebin

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"simmr/internal/trace"
)

// JobSource yields jobs one at a time — the streaming-generation
// contract synth.Stream satisfies. Next returns (nil, false, nil) when
// the source is exhausted.
type JobSource interface {
	Next() (*trace.Job, bool, error)
}

// Writer streams a trace into the `.strc` format. Jobs are added one
// at a time; their duration arrays are written straight into the
// on-disk arena, so the writer's memory footprint is proportional to
// the number of *unique* templates (plus a compact fixed-width record
// per job), never to total task-duration volume — a million-job trace
// packs in bounded memory.
//
// Templates are deduplicated by pointer first and by content second:
// two jobs sharing one *Template (or carrying byte-identical copies)
// reference a single pool entry and a single arena span. Output is
// deterministic for a given Add sequence — template and string-table
// order is first appearance, counters are key-sorted — which is what
// makes byte-for-byte golden fixtures possible.
type Writer struct {
	ws  io.WriteSeeker
	bw  *bufio.Writer
	err error

	name string

	arenaLen uint64 // floats written
	arenaCRC uint32

	strings  []byte
	strIdx   map[string]uint32 // string -> offset (dedup)
	tpls     []byte            // template records
	ctrs     []byte            // counter records
	jobs     []byte            // job records
	jobCount uint64

	byPtr  map[*trace.Template]uint32
	byHash map[uint64][]poolEntry
	pool   []*trace.Template // retained for content-equality checks
}

// poolEntry is one deduplicated template: its index and the retained
// original for hash-collision comparison.
type poolEntry struct {
	idx uint32
	tpl *trace.Template
}

// NewWriter starts a `.strc` stream on ws (typically an *os.File).
// name becomes the trace's Name on load. The caller must Close the
// writer to fix up the header; the underlying file stays open.
func NewWriter(ws io.WriteSeeker, name string) (*Writer, error) {
	w := &Writer{
		ws:     ws,
		name:   name,
		strIdx: make(map[string]uint32),
		byPtr:  make(map[*trace.Template]uint32),
		byHash: make(map[uint64][]poolEntry),
	}
	// Reserve the header; the arena streams right behind it.
	if _, err := ws.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("tracebin: seek: %w", err)
	}
	w.bw = bufio.NewWriterSize(ws, 1<<16)
	if _, err := w.bw.Write(make([]byte, headerSize)); err != nil {
		return nil, fmt.Errorf("tracebin: reserve header: %w", err)
	}
	return w, nil
}

// Add appends one job. The job is checked with trace.ValidateJob (its
// template once) and its template interned; the job record itself is
// buffered until Close.
func (w *Writer) Add(j *trace.Job) error {
	if w.err != nil {
		return w.err
	}
	if err := trace.ValidateJob(j); err != nil {
		return w.fail(fmt.Errorf("tracebin: job %d: %w", w.jobCount, err))
	}
	tplIdx, err := w.intern(j.Template)
	if err != nil {
		return w.fail(err)
	}
	nameOff, nameLen := w.internString(j.Name)
	rec := make([]byte, jobRecSize)
	binary.LittleEndian.PutUint64(rec[0:8], uint64(int64(j.ID)))
	binary.LittleEndian.PutUint32(rec[8:12], nameOff)
	binary.LittleEndian.PutUint32(rec[12:16], nameLen)
	binary.LittleEndian.PutUint64(rec[16:24], math.Float64bits(j.Arrival))
	binary.LittleEndian.PutUint64(rec[24:32], math.Float64bits(j.Deadline))
	binary.LittleEndian.PutUint32(rec[32:36], tplIdx)
	w.jobs = append(w.jobs, rec...)
	w.jobCount++
	return nil
}

// AddAll drains a JobSource into the writer.
func (w *Writer) AddAll(src JobSource) error {
	for {
		j, ok, err := src.Next()
		if err != nil {
			return w.fail(err)
		}
		if !ok {
			return nil
		}
		if err := w.Add(j); err != nil {
			return err
		}
	}
}

// Stats reports the writer's dedup effectiveness so far.
type WriterStats struct {
	Jobs            int
	UniqueTemplates int
	ArenaFloats     int
}

// Stats returns jobs added, unique templates interned, and arena size.
func (w *Writer) Stats() WriterStats {
	return WriterStats{
		Jobs:            int(w.jobCount),
		UniqueTemplates: len(w.pool),
		ArenaFloats:     int(w.arenaLen),
	}
}

// Close flushes the arena, appends the buffered sections, and rewrites
// the header with final offsets and CRCs. The underlying WriteSeeker
// is not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.jobCount == 0 {
		return w.fail(fmt.Errorf("tracebin: %w", trace.ErrEmptyTrace))
	}
	h := header{jobCount: w.jobCount, tplCount: uint64(len(w.pool))}
	h.nameOff, h.nameLen = w.internString(w.name)

	pos := uint64(headerSize)
	h.sections[secArena] = section{off: pos, size: w.arenaLen * 8, crc: w.arenaCRC}
	pos += w.arenaLen * 8

	appendSec := func(idx int, data []byte) error {
		// Pad the previous section end to 8 bytes so every section
		// offset stays aligned.
		if pad := (8 - pos%8) % 8; pad != 0 {
			if _, err := w.bw.Write(make([]byte, pad)); err != nil {
				return err
			}
			pos += pad
		}
		h.sections[idx] = section{off: pos, size: uint64(len(data)), crc: crc32.Checksum(data, castagnoli)}
		if _, err := w.bw.Write(data); err != nil {
			return err
		}
		pos += uint64(len(data))
		return nil
	}
	for _, s := range []struct {
		idx  int
		data []byte
	}{
		{secStrings, w.strings},
		{secTemplates, w.tpls},
		{secCounters, w.ctrs},
		{secJobs, w.jobs},
	} {
		if err := appendSec(s.idx, s.data); err != nil {
			return w.fail(fmt.Errorf("tracebin: write %s: %w", sectionNames[s.idx], err))
		}
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(fmt.Errorf("tracebin: flush: %w", err))
	}
	if _, err := w.ws.Seek(0, io.SeekStart); err != nil {
		return w.fail(fmt.Errorf("tracebin: seek header: %w", err))
	}
	if _, err := w.ws.Write(encodeHeader(&h)); err != nil {
		return w.fail(fmt.Errorf("tracebin: write header: %w", err))
	}
	w.err = fmt.Errorf("tracebin: writer closed")
	return nil
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// internString adds s to the string table (deduplicated) and returns
// its (offset, length) reference.
func (w *Writer) internString(s string) (off, n uint32) {
	if s == "" {
		return 0, 0
	}
	if o, ok := w.strIdx[s]; ok {
		return o, uint32(len(s))
	}
	o := uint32(len(w.strings))
	w.strings = append(w.strings, s...)
	w.strIdx[s] = o
	return o, uint32(len(s))
}

// intern deduplicates a template and returns its pool index, writing
// its duration arrays into the arena on first appearance.
func (w *Writer) intern(t *trace.Template) (uint32, error) {
	if idx, ok := w.byPtr[t]; ok {
		return idx, nil
	}
	hash := t.Digest()
	for _, e := range w.byHash[hash] {
		if templatesEqual(e.tpl, t) {
			w.byPtr[t] = e.idx
			return e.idx, nil
		}
	}
	if len(w.pool) >= math.MaxUint32 {
		return 0, fmt.Errorf("tracebin: template pool overflow")
	}

	rec := make([]byte, tplRecSize)
	appOff, appLen := w.internString(t.AppName)
	dsOff, dsLen := w.internString(t.Dataset)
	binary.LittleEndian.PutUint32(rec[0:4], appOff)
	binary.LittleEndian.PutUint32(rec[4:8], appLen)
	binary.LittleEndian.PutUint32(rec[8:12], dsOff)
	binary.LittleEndian.PutUint32(rec[12:16], dsLen)
	binary.LittleEndian.PutUint32(rec[16:20], uint32(t.NumMaps))
	binary.LittleEndian.PutUint32(rec[20:24], uint32(t.NumReduces))

	ctrIdx := uint32(len(w.ctrs) / ctrRecSize)
	keys := make([]string, 0, len(t.Counters))
	for k := range t.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		crec := make([]byte, ctrRecSize)
		kOff, kLen := w.internString(k)
		binary.LittleEndian.PutUint32(crec[0:4], kOff)
		binary.LittleEndian.PutUint32(crec[4:8], kLen)
		binary.LittleEndian.PutUint64(crec[8:16], math.Float64bits(t.Counters[k]))
		w.ctrs = append(w.ctrs, crec...)
	}
	binary.LittleEndian.PutUint32(rec[24:28], ctrIdx)
	binary.LittleEndian.PutUint32(rec[28:32], uint32(len(keys)))

	for i, ds := range [4][]float64{t.MapDurations, t.FirstShuffle, t.TypicalShuffle, t.ReduceDurations} {
		off := w.arenaLen
		if err := w.writeArena(ds); err != nil {
			return 0, fmt.Errorf("tracebin: arena write: %w", err)
		}
		base := 32 + i*16
		binary.LittleEndian.PutUint64(rec[base:base+8], off)
		binary.LittleEndian.PutUint64(rec[base+8:base+16], uint64(len(ds)))
	}

	idx := uint32(len(w.pool))
	w.tpls = append(w.tpls, rec...)
	w.pool = append(w.pool, t)
	w.byPtr[t] = idx
	w.byHash[hash] = append(w.byHash[hash], poolEntry{idx: idx, tpl: t})
	return idx, nil
}

// writeArena streams one duration array to the file, updating the
// running arena CRC.
func (w *Writer) writeArena(ds []float64) error {
	var buf [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d))
		w.arenaCRC = crc32.Update(w.arenaCRC, castagnoli, buf[:])
		if _, err := w.bw.Write(buf[:]); err != nil {
			return err
		}
		w.arenaLen++
	}
	return nil
}

// templatesEqual compares templates bitwise (durations by Float64bits,
// so +0/-0 and exact payloads never merge incorrectly).
func templatesEqual(a, b *trace.Template) bool {
	if a.AppName != b.AppName || a.Dataset != b.Dataset ||
		a.NumMaps != b.NumMaps || a.NumReduces != b.NumReduces ||
		len(a.Counters) != len(b.Counters) {
		return false
	}
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !eq(a.MapDurations, b.MapDurations) || !eq(a.FirstShuffle, b.FirstShuffle) ||
		!eq(a.TypicalShuffle, b.TypicalShuffle) || !eq(a.ReduceDurations, b.ReduceDurations) {
		return false
	}
	for k, v := range a.Counters {
		bv, ok := b.Counters[k]
		if !ok || math.Float64bits(v) != math.Float64bits(bv) {
			return false
		}
	}
	return true
}

// WriteTrace streams an in-memory trace through a Writer — the
// `simmr trace pack` path.
func WriteTrace(ws io.WriteSeeker, tr *trace.Trace) error {
	w, err := NewWriter(ws, tr.Name)
	if err != nil {
		return err
	}
	for _, j := range tr.Jobs {
		if err := w.Add(j); err != nil {
			return err
		}
	}
	return w.Close()
}

// WriteFile packs a trace to path atomically (trace.WriteFileAtomic).
// It packs only a trace that passes Trace.Validate, so it never writes a
// file Open refuses.
func WriteFile(path string, tr *trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("tracebin: %w", err)
	}
	return trace.WriteFileAtomic(path, func(f *os.File) error { return WriteTrace(f, tr) })
}

// WriteSource streams a JobSource into a packed file atomically — the
// bounded-memory generation path: jobs flow from the source through
// the writer to disk without a materialized trace. Returns the
// writer's dedup stats.
func WriteSource(path, name string, src JobSource) (st WriterStats, err error) {
	err = trace.WriteFileAtomic(path, func(f *os.File) error {
		w, err := NewWriter(f, name)
		if err != nil {
			return err
		}
		if err := w.AddAll(src); err != nil {
			return err
		}
		st = w.Stats()
		return w.Close()
	})
	if err != nil {
		return WriterStats{}, err
	}
	return st, nil
}
