package rcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"simmr/internal/engine"
)

// Entry format ("SRRC"): one engine.Result in a compact columnar
// encoding, reusing tracebin's section/CRC conventions — little-endian
// throughout, a fixed CRC-guarded header with a section table, 8-byte
// aligned sections each carrying its own CRC-32C. Columnar layout (all
// IDs, then all arrivals, ...) is what lets a disk hit decode at tens
// of millions of jobs/sec: every column is a straight fixed-width scan.
//
//	off   0  magic "SRRC"
//	off   4  version  u16
//	off   6  reserved u16   (zero)
//	off   8  jobCount u64
//	off  16  events   u64   (Result.Events)
//	off  24  makespan f64   (Result.Makespan)
//	off  32  key      2×u64 (Hi, Lo — self-identifying; Decode verifies)
//	off  48  section table: 2 × {off u64, size u64, crc u32, pad u32}
//	off  96  peakMap    u64 (Result.PeakMapSlots)
//	off 104  peakReduce u64 (Result.PeakReduceSlots)
//	off 112  zero
//	off 120  header CRC-32C over bytes [0,120)
//	off 124  pad
//
// Sections: cols (fixed-width numeric columns, 44 B/job, the section
// padded to 8), names (u32 cumulative offsets[n+1] + string blob). An
// image of another version is corrupt like any other undecodable image:
// a miss, which the next Put overwrites. Version 3 added the peaks, so a
// hit can answer for other cluster sizes as the replay it memoizes can
// (engine.Answers).
const (
	entryMagic      = "SRRC"
	entryVersion    = 3
	entryHeaderSize = 128
	sectionTableOff = 48
	peaksOff        = 96
	sectionEntrySz  = 24
	headerCRCOff    = 120

	secCols  = 0
	secNames = 1
	numSecs  = 2

	colsRecSize = 44 // 5×f64/i64 + 1×u32 per job
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt is the umbrella decode failure; callers treat any decode
// error as a cache miss and recompute.
var errCorrupt = errors.New("rcache: corrupt entry")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

// Encode serializes res under key k. It fails (and the caller skips
// caching) only when a count overflows the fixed-width columns — jobs
// of 2^32 events or a 4 GiB name table are not realistic replays.
func Encode(k Key, res *engine.Result) ([]byte, error) {
	n := len(res.Jobs)
	nameLen, err := checkCounts(res)
	if err != nil {
		return nil, err
	}

	colsSize := pad8(n * colsRecSize)
	namesSize := pad8(4*(n+1) + nameLen)
	buf := make([]byte, entryHeaderSize+colsSize+namesSize)

	// Header.
	copy(buf[0:4], entryMagic)
	binary.LittleEndian.PutUint16(buf[4:6], entryVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:24], res.Events)
	binary.LittleEndian.PutUint64(buf[24:32], math.Float64bits(res.Makespan))
	binary.LittleEndian.PutUint64(buf[32:40], k.Hi)
	binary.LittleEndian.PutUint64(buf[40:48], k.Lo)
	binary.LittleEndian.PutUint64(buf[peaksOff:], uint64(res.PeakMapSlots))
	binary.LittleEndian.PutUint64(buf[peaksOff+8:], uint64(res.PeakReduceSlots))

	// One pass over the jobs writes each job's six columns, its name
	// offset and its name.
	cols := newColumns(buf[entryHeaderSize:entryHeaderSize+colsSize], n)
	names := buf[entryHeaderSize+colsSize : entryHeaderSize+colsSize+namesSize]
	blob := names[4*(n+1):]
	cum := 0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		binary.LittleEndian.PutUint64(cols.id[8*i:], uint64(int64(j.ID)))
		binary.LittleEndian.PutUint64(cols.arrival[8*i:], math.Float64bits(j.Arrival))
		binary.LittleEndian.PutUint64(cols.finish[8*i:], math.Float64bits(j.Finish))
		binary.LittleEndian.PutUint64(cols.deadline[8*i:], math.Float64bits(j.Deadline))
		binary.LittleEndian.PutUint64(cols.mapEnd[8*i:], math.Float64bits(j.MapStageEnd))
		binary.LittleEndian.PutUint32(cols.events[4*i:], uint32(j.Events))
		binary.LittleEndian.PutUint32(names[4*i:], uint32(cum))
		cum += copy(blob[cum:], j.Name)
	}
	binary.LittleEndian.PutUint32(names[4*n:], uint32(cum))

	// Section table + CRCs.
	secs := [numSecs]struct{ off, size int }{
		{entryHeaderSize, colsSize},
		{entryHeaderSize + colsSize, namesSize},
	}
	for i, s := range secs {
		base := sectionTableOff + i*sectionEntrySz
		binary.LittleEndian.PutUint64(buf[base:], uint64(s.off))
		binary.LittleEndian.PutUint64(buf[base+8:], uint64(s.size))
		binary.LittleEndian.PutUint32(buf[base+16:], crc32.Checksum(buf[s.off:s.off+s.size], castagnoli))
	}
	binary.LittleEndian.PutUint32(buf[headerCRCOff:], crc32.Checksum(buf[:headerCRCOff], castagnoli))
	return buf, nil
}

// checkCounts returns the bytes of res's names, or an error when a count
// overflows an entry's fixed-width fields.
func checkCounts(res *engine.Result) (nameLen int, err error) {
	for i := range res.Jobs {
		j := &res.Jobs[i]
		nameLen += len(j.Name)
		if j.Events < 0 || j.Events > math.MaxUint32 {
			return 0, fmt.Errorf("rcache: job %d event count overflows u32", j.ID)
		}
	}
	if uint64(nameLen)+uint64(len(res.Jobs)) > math.MaxUint32 {
		return 0, fmt.Errorf("rcache: name table too large (%d bytes)", nameLen)
	}
	return nameLen, nil
}

// Decode reconstructs the Result encoded in img. want is the key the
// caller addressed the entry by; a mismatch (renamed file, key-scheme
// drift) is corruption like any other. Decode never panics: every
// offset, size, and count is validated against the image before use,
// and any failure returns an error the cache treats as a miss.
func Decode(img []byte, want Key) (*engine.Result, error) {
	size := uint64(len(img))
	if size < entryHeaderSize {
		return nil, corrupt("short image (%d bytes)", size)
	}
	if string(img[0:4]) != entryMagic {
		return nil, corrupt("bad magic %q", img[0:4])
	}
	if v := binary.LittleEndian.Uint16(img[4:6]); v != entryVersion {
		return nil, corrupt("version %d (want %d)", v, entryVersion)
	}
	if got := binary.LittleEndian.Uint32(img[headerCRCOff:]); got != crc32.Checksum(img[:headerCRCOff], castagnoli) {
		return nil, corrupt("header CRC mismatch")
	}
	if hi, lo := binary.LittleEndian.Uint64(img[32:40]), binary.LittleEndian.Uint64(img[40:48]); hi != want.Hi || lo != want.Lo {
		return nil, corrupt("key mismatch (entry %016x%016x)", hi, lo)
	}
	n64 := binary.LittleEndian.Uint64(img[8:16])
	if n64 > (size-entryHeaderSize)/colsRecSize {
		return nil, corrupt("job count %d exceeds image", n64)
	}
	n := int(n64)

	var secs [numSecs]struct {
		off, size uint64
	}
	for i := range secs {
		base := sectionTableOff + i*sectionEntrySz
		secs[i].off = binary.LittleEndian.Uint64(img[base:])
		secs[i].size = binary.LittleEndian.Uint64(img[base+8:])
		if secs[i].off < entryHeaderSize || secs[i].off > size || secs[i].size > size-secs[i].off {
			return nil, corrupt("section %d out of bounds (off %d size %d)", i, secs[i].off, secs[i].size)
		}
		if secs[i].off%8 != 0 {
			return nil, corrupt("section %d misaligned (off %d)", i, secs[i].off)
		}
		data := img[secs[i].off : secs[i].off+secs[i].size]
		if got := binary.LittleEndian.Uint32(img[base+16:]); got != crc32.Checksum(data, castagnoli) {
			return nil, corrupt("section %d CRC mismatch", i)
		}
	}
	if need := uint64(pad8(n * colsRecSize)); secs[secCols].size != need {
		return nil, corrupt("cols section %d bytes, want %d", secs[secCols].size, need)
	}
	if secs[secNames].size < uint64(4*(n+1)) {
		return nil, corrupt("names section %d bytes, need %d offsets", secs[secNames].size, n+1)
	}

	peakMap, peakReduce := binary.LittleEndian.Uint64(img[peaksOff:]), binary.LittleEndian.Uint64(img[peaksOff+8:])
	if peakMap > math.MaxInt32 || peakReduce > math.MaxInt32 {
		return nil, corrupt("peak slots %d+%d out of range", peakMap, peakReduce)
	}

	res := &engine.Result{
		Jobs:            make([]engine.JobOutcome, n),
		Events:          binary.LittleEndian.Uint64(img[16:24]),
		Makespan:        math.Float64frombits(binary.LittleEndian.Uint64(img[24:32])),
		PeakMapSlots:    int(peakMap),
		PeakReduceSlots: int(peakReduce),
	}

	// One pass over the jobs reads each job's six columns and its name.
	// One string holds every name, sliced per job: one allocation, not
	// one per job (a cached result's names share their backing bytes).
	cols := newColumns(img[secs[secCols].off:secs[secCols].off+secs[secCols].size], n)
	names := img[secs[secNames].off : secs[secNames].off+secs[secNames].size]
	blob := string(names[4*(n+1):])
	prev := binary.LittleEndian.Uint32(names)
	if uint64(prev) > uint64(len(blob)) {
		return nil, corrupt("name offset 0 out of blob")
	}
	for i := range res.Jobs {
		cum := binary.LittleEndian.Uint32(names[4*(i+1):])
		if cum < prev || uint64(cum) > uint64(len(blob)) {
			return nil, corrupt("name offset %d non-monotonic or out of blob", i+1)
		}
		j := &res.Jobs[i] // field by field, as resident.result stores
		j.ID = int(int64(binary.LittleEndian.Uint64(cols.id[8*i:])))
		j.Name = blob[prev:cum]
		j.Arrival = math.Float64frombits(binary.LittleEndian.Uint64(cols.arrival[8*i:]))
		j.Finish = math.Float64frombits(binary.LittleEndian.Uint64(cols.finish[8*i:]))
		j.Deadline = math.Float64frombits(binary.LittleEndian.Uint64(cols.deadline[8*i:]))
		j.MapStageEnd = math.Float64frombits(binary.LittleEndian.Uint64(cols.mapEnd[8*i:]))
		j.Events = int(binary.LittleEndian.Uint32(cols.events[4*i:]))
		prev = cum
	}
	return res, nil
}

// columns splits a cols section of n jobs into its six columns.
type columns struct{ id, arrival, finish, deadline, mapEnd, events []byte }

func newColumns(sec []byte, n int) columns {
	return columns{sec[:8*n], sec[8*n : 16*n], sec[16*n : 24*n], sec[24*n : 32*n], sec[32*n : 40*n], sec[40*n : 44*n]}
}

func pad8(n int) int { return (n + 7) &^ 7 }
