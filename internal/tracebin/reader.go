package tracebin

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"

	"simmr/internal/trace"
)

// Store is an opened `.strc` trace: the decoded, fully validated trace
// plus the backing storage (an mmap or an owned heap copy). The trace
// returned by Trace() serves template durations directly off the
// backing arena; Close unmaps it, after which the trace must not be
// used. Trace.SetBacking wires this up automatically — closing the
// trace closes the store.
type Store struct {
	tr     *trace.Trace
	closer io.Closer
	closed atomic.Bool

	info Info
}

// Info summarizes an opened store for `simmr trace info`.
type Info struct {
	FileSize        int64
	Jobs            int
	UniqueTemplates int
	ArenaFloats     int
	// BytesPerJob is FileSize / Jobs.
	BytesPerJob float64
	// Mapped reports whether the store is a zero-copy memory mapping
	// (false on the io.ReaderAt fallback path).
	Mapped bool
	// Sections lists each section's name, size, and CRC.
	Sections []SectionInfo
}

// SectionInfo is one section-table row.
type SectionInfo struct {
	Name   string
	Offset uint64
	Size   uint64
	CRC    uint32
}

// Trace returns the decoded trace. The trace shares the store's arena:
// it is valid until Close and its templates' duration slices must be
// treated as read-only (Clone deep-copies when mutation is needed).
func (s *Store) Trace() *trace.Trace { return s.tr }

// Info returns the store's layout summary.
func (s *Store) Info() Info { return s.info }

// Close releases the backing storage. Idempotent.
func (s *Store) Close() error {
	if s.closed.Swap(true) || s.closer == nil {
		return nil
	}
	return s.closer.Close()
}

// Open maps path and decodes it. On platforms with mmap support the
// duration arena is served zero-copy from the page cache; elsewhere
// (or if mapping fails) the file is read through the io.ReaderAt
// fallback. The returned store's trace has the store set as its
// backing, so trace.Close() (or Store.Close) releases the mapping.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracebin: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracebin: %w", err)
	}
	if data, closer, ok := tryMmap(f, st.Size()); ok {
		f.Close() // the mapping outlives the descriptor
		s, err := openBytes(data, closer, true, st.Size())
		if err != nil {
			closer.Close()
			return nil, err
		}
		return s, nil
	}
	s, err := OpenReaderAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	// The fallback copied everything onto the heap; the descriptor can
	// go, but keep closing idempotent through the store.
	f.Close()
	return s, nil
}

// OpenReaderAt decodes a `.strc` image through io.ReaderAt — the
// portable fallback when mmap is unavailable. Sections are read into
// owned memory; the arena is still a single contiguous allocation
// shared by every template span.
func OpenReaderAt(r io.ReaderAt, size int64) (*Store, error) {
	if size < headerSize {
		return nil, fmt.Errorf("tracebin: file too short for header: %d bytes", size)
	}
	if size > 1<<56 {
		return nil, fmt.Errorf("tracebin: implausible file size %d", size)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, size), data); err != nil {
		return nil, fmt.Errorf("tracebin: read: %w", err)
	}
	return openBytes(data, nil, false, size)
}

// openBytes is the decode core shared by Open and OpenReaderAt. Every
// cross-section reference is bounds-checked and every section CRC
// verified before any trace object is built, so corrupt input errors
// cleanly. What the format cannot say for itself — the job contract —
// is Trace.Validate's: the decoded trace passes it or Open fails.
func openBytes(data []byte, closer io.Closer, mapped bool, fileSize int64) (*Store, error) {
	h, err := decodeHeader(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	for i, s := range h.sections {
		seg := data[s.off : s.off+s.size]
		if got := crc32.Checksum(seg, castagnoli); got != s.crc {
			return nil, fmt.Errorf("tracebin: section %s CRC mismatch: %08x != %08x", sectionNames[i], got, s.crc)
		}
	}
	strSec := h.sections[secStrings]
	strs := data[strSec.off : strSec.off+strSec.size]
	arenaSec := h.sections[secArena]
	arena := arenaFloats(data[arenaSec.off : arenaSec.off+arenaSec.size])
	arenaLen := uint64(len(arena))
	ctrSec := h.sections[secCounters]
	ctrData := data[ctrSec.off : ctrSec.off+ctrSec.size]
	ctrTotal := uint64(len(ctrData) / ctrRecSize)
	tplData := data[h.sections[secTemplates].off:][:h.sections[secTemplates].size]
	jobData := data[h.sections[secJobs].off:][:h.sections[secJobs].size]

	// Shared names (every job of an app repeats its string) are
	// interned so a million-job load allocates one string per distinct
	// name, not per job.
	strCache := make(map[string]string)
	getString := func(off, n uint32, what string) (string, error) {
		if err := checkStringRef(off, n, strSec.size, what); err != nil {
			return "", err
		}
		if n == 0 {
			return "", nil
		}
		raw := strs[off : off+n]
		if s, ok := strCache[string(raw)]; ok {
			return s, nil
		}
		s := string(raw)
		strCache[s] = s
		return s, nil
	}

	tpls := make([]trace.Template, h.tplCount)
	for i := uint64(0); i < h.tplCount; i++ {
		rec := tplData[i*tplRecSize : (i+1)*tplRecSize]
		t := &tpls[i]
		if t.AppName, err = getString(binary.LittleEndian.Uint32(rec[0:4]), binary.LittleEndian.Uint32(rec[4:8]), "template app"); err != nil {
			return nil, err
		}
		if t.Dataset, err = getString(binary.LittleEndian.Uint32(rec[8:12]), binary.LittleEndian.Uint32(rec[12:16]), "template dataset"); err != nil {
			return nil, err
		}
		nm := binary.LittleEndian.Uint32(rec[16:20])
		nr := binary.LittleEndian.Uint32(rec[20:24])
		if nm > math.MaxInt32 || nr > math.MaxInt32 {
			return nil, fmt.Errorf("tracebin: template %d: task counts %d/%d out of range", i, nm, nr)
		}
		t.NumMaps, t.NumReduces = int(nm), int(nr)

		spans := [4]*[]float64{&t.MapDurations, &t.FirstShuffle, &t.TypicalShuffle, &t.ReduceDurations}
		for p, dst := range spans {
			base := 32 + p*16
			off := binary.LittleEndian.Uint64(rec[base : base+8])
			n := binary.LittleEndian.Uint64(rec[base+8 : base+16])
			if n > arenaLen || off > arenaLen-n {
				return nil, fmt.Errorf("tracebin: template %d: arena span [%d,+%d) exceeds arena length %d", i, off, n, arenaLen)
			}
			if n > 0 {
				*dst = arena[off : off+n : off+n]
			}
		}

		cIdx := uint64(binary.LittleEndian.Uint32(rec[24:28]))
		cN := uint64(binary.LittleEndian.Uint32(rec[28:32]))
		if cN > ctrTotal || cIdx > ctrTotal-cN {
			return nil, fmt.Errorf("tracebin: template %d: counter span [%d,+%d) exceeds %d entries", i, cIdx, cN, ctrTotal)
		}
		if cN > 0 {
			t.Counters = make(map[string]float64, cN)
			for c := cIdx; c < cIdx+cN; c++ {
				crec := ctrData[c*ctrRecSize : (c+1)*ctrRecSize]
				key, err := getString(binary.LittleEndian.Uint32(crec[0:4]), binary.LittleEndian.Uint32(crec[4:8]), "counter key")
				if err != nil {
					return nil, err
				}
				t.Counters[key] = math.Float64frombits(binary.LittleEndian.Uint64(crec[8:16]))
			}
		}
		// Every template in the pool is checked, referenced or not; the
		// check is memoized, so Trace.Validate below does not repeat it.
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("tracebin: %w", err)
		}
	}

	if h.jobCount > uint64(math.MaxInt/2) {
		return nil, fmt.Errorf("tracebin: job count %d out of range", h.jobCount)
	}
	name, err := getString(h.nameOff, h.nameLen, "trace name")
	if err != nil {
		return nil, err
	}
	// One slab for all jobs: two allocations for the whole job table.
	jobSlab := make([]trace.Job, h.jobCount)
	jobPtrs := make([]*trace.Job, h.jobCount)
	for i := uint64(0); i < h.jobCount; i++ {
		rec := jobData[i*jobRecSize : (i+1)*jobRecSize]
		j := &jobSlab[i]
		j.ID = int(int64(binary.LittleEndian.Uint64(rec[0:8])))
		if j.Name, err = getString(binary.LittleEndian.Uint32(rec[8:12]), binary.LittleEndian.Uint32(rec[12:16]), "job name"); err != nil {
			return nil, err
		}
		j.Arrival = math.Float64frombits(binary.LittleEndian.Uint64(rec[16:24]))
		j.Deadline = math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32]))
		tplIdx := binary.LittleEndian.Uint32(rec[32:36])
		if uint64(tplIdx) >= h.tplCount {
			return nil, fmt.Errorf("tracebin: job %d references template %d of %d", i, tplIdx, h.tplCount)
		}
		j.Template = &tpls[tplIdx]
		jobPtrs[i] = j
	}
	// The jobs keep the same contract as every other trace: one check,
	// memoized, so the engine's own Validate is then one load.
	tr := &trace.Trace{Name: name, Jobs: jobPtrs}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("tracebin: %w", err)
	}

	s := &Store{
		tr:     tr,
		closer: closer,
		info: Info{
			FileSize:        fileSize,
			Jobs:            int(h.jobCount),
			UniqueTemplates: int(h.tplCount),
			ArenaFloats:     int(arenaLen),
			BytesPerJob:     float64(fileSize) / float64(h.jobCount),
			Mapped:          mapped,
		},
	}
	for i, sec := range h.sections {
		s.info.Sections = append(s.info.Sections, SectionInfo{
			Name: sectionNames[i], Offset: sec.off, Size: sec.size, CRC: sec.crc,
		})
	}
	s.tr.SetBacking(s)
	return s, nil
}

// IsPacked sniffs whether data (or a filename) is a `.strc` image.
func IsPacked(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == magic
}
