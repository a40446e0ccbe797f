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
//	off   6  flags    u16   (bit0: span sections present)
//	off   8  jobCount u64
//	off  16  events   u64   (Result.Events)
//	off  24  makespan f64   (Result.Makespan)
//	off  32  key      2×u64 (Hi, Lo — self-identifying; Decode verifies)
//	off  48  section table: 3 × {off u64, size u64, crc u32, pad u32}
//	off 120  header CRC-32C over bytes [0,120)
//	off 124  pad
//
// Sections: cols (fixed-width numeric columns, 56 B/job), names
// (u32 cumulative offsets[n+1] + string blob), spans (u32 per-job map
// and reduce span counts, then f64 (start,end) pairs for map spans and
// (start,end,shuffleEnd) triplets for reduce spans; present whenever
// the engine materialized span slices — i.e. Config.RecordSpans was
// set — even if every count is zero, so Decode reconstructs non-nil
// empty slices exactly as the fresh result holds them).
const (
	entryMagic      = "SRRC"
	entryVersion    = 1
	entryHeaderSize = 128
	sectionTableOff = 48
	sectionEntrySz  = 24
	headerCRCOff    = 120

	secCols  = 0
	secNames = 1
	secSpans = 2
	numSecs  = 3

	flagSpans = 1 << 0

	colsRecSize = 56 // 5×f64/i64 + 4×u32 per job
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
// beyond 2^32 tasks or a 4 GiB name table are not realistic replays.
func Encode(k Key, res *engine.Result) ([]byte, error) {
	n := len(res.Jobs)
	var flags uint16
	var nameLen, mapSpans, redSpans int
	for i := range res.Jobs {
		j := &res.Jobs[i]
		nameLen += len(j.Name)
		mapSpans += len(j.MapSpans)
		redSpans += len(j.ReduceSpans)
		// Nil-ness, not count: a RecordSpans engine materializes a
		// (possibly empty) slice for every job, and Decode must restore
		// exactly that shape for the cached==fresh DeepEqual invariant —
		// even when every job recorded zero spans.
		if j.MapSpans != nil || j.ReduceSpans != nil {
			flags |= flagSpans
		}
		if j.MapTasksRun < 0 || j.MapTasksRun > math.MaxUint32 ||
			j.ReduceTasksRun < 0 || j.ReduceTasksRun > math.MaxUint32 ||
			j.PreemptedMaps < 0 || j.PreemptedMaps > math.MaxUint32 ||
			j.Events < 0 || j.Events > math.MaxUint32 {
			return nil, fmt.Errorf("rcache: job %d counts overflow u32", j.ID)
		}
	}
	if uint64(nameLen)+uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("rcache: name table too large (%d bytes)", nameLen)
	}

	colsSize := n * colsRecSize
	namesSize := pad8(4*(n+1) + nameLen)
	spansSize := 0
	if flags&flagSpans != 0 {
		spansSize = 8*n + 16*mapSpans + 24*redSpans
	}
	buf := make([]byte, entryHeaderSize+colsSize+namesSize+spansSize)

	// Header.
	copy(buf[0:4], entryMagic)
	binary.LittleEndian.PutUint16(buf[4:6], entryVersion)
	binary.LittleEndian.PutUint16(buf[6:8], flags)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(n))
	binary.LittleEndian.PutUint64(buf[16:24], res.Events)
	binary.LittleEndian.PutUint64(buf[24:32], math.Float64bits(res.Makespan))
	binary.LittleEndian.PutUint64(buf[32:40], k.Hi)
	binary.LittleEndian.PutUint64(buf[40:48], k.Lo)

	// Cols section: one column at a time.
	cols := buf[entryHeaderSize : entryHeaderSize+colsSize]
	off := 0
	for i := range res.Jobs {
		binary.LittleEndian.PutUint64(cols[off+8*i:], uint64(int64(res.Jobs[i].ID)))
	}
	off += 8 * n
	for _, get := range []func(*engine.JobOutcome) float64{
		func(j *engine.JobOutcome) float64 { return j.Arrival },
		func(j *engine.JobOutcome) float64 { return j.Finish },
		func(j *engine.JobOutcome) float64 { return j.Deadline },
		func(j *engine.JobOutcome) float64 { return j.MapStageEnd },
	} {
		for i := range res.Jobs {
			binary.LittleEndian.PutUint64(cols[off+8*i:], math.Float64bits(get(&res.Jobs[i])))
		}
		off += 8 * n
	}
	for _, get := range []func(*engine.JobOutcome) int{
		func(j *engine.JobOutcome) int { return j.MapTasksRun },
		func(j *engine.JobOutcome) int { return j.ReduceTasksRun },
		func(j *engine.JobOutcome) int { return j.PreemptedMaps },
		func(j *engine.JobOutcome) int { return j.Events },
	} {
		for i := range res.Jobs {
			binary.LittleEndian.PutUint32(cols[off+4*i:], uint32(get(&res.Jobs[i])))
		}
		off += 4 * n
	}

	// Names section: cumulative offsets, then the blob.
	names := buf[entryHeaderSize+colsSize : entryHeaderSize+colsSize+namesSize]
	blobOff := 4 * (n + 1)
	cum := 0
	for i := range res.Jobs {
		binary.LittleEndian.PutUint32(names[4*i:], uint32(cum))
		cum += copy(names[blobOff+cum:], res.Jobs[i].Name)
	}
	binary.LittleEndian.PutUint32(names[4*n:], uint32(cum))

	// Spans section.
	if flags&flagSpans != 0 {
		spans := buf[entryHeaderSize+colsSize+namesSize:]
		for i := range res.Jobs {
			binary.LittleEndian.PutUint32(spans[4*i:], uint32(len(res.Jobs[i].MapSpans)))
			binary.LittleEndian.PutUint32(spans[4*n+4*i:], uint32(len(res.Jobs[i].ReduceSpans)))
		}
		so := 8 * n
		for i := range res.Jobs {
			for _, s := range res.Jobs[i].MapSpans {
				binary.LittleEndian.PutUint64(spans[so:], math.Float64bits(s.Start))
				binary.LittleEndian.PutUint64(spans[so+8:], math.Float64bits(s.End))
				so += 16
			}
		}
		for i := range res.Jobs {
			for _, s := range res.Jobs[i].ReduceSpans {
				binary.LittleEndian.PutUint64(spans[so:], math.Float64bits(s.Start))
				binary.LittleEndian.PutUint64(spans[so+8:], math.Float64bits(s.End))
				binary.LittleEndian.PutUint64(spans[so+16:], math.Float64bits(s.ShuffleEnd))
				so += 24
			}
		}
	}

	// Section table + CRCs.
	secs := [numSecs]struct{ off, size int }{
		{entryHeaderSize, colsSize},
		{entryHeaderSize + colsSize, namesSize},
		{entryHeaderSize + colsSize + namesSize, spansSize},
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
	flags := binary.LittleEndian.Uint16(img[6:8])
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
	if secs[secCols].size != uint64(n)*colsRecSize {
		return nil, corrupt("cols section %d bytes, want %d", secs[secCols].size, uint64(n)*colsRecSize)
	}
	if secs[secNames].size < uint64(4*(n+1)) {
		return nil, corrupt("names section %d bytes, need %d offsets", secs[secNames].size, n+1)
	}

	res := &engine.Result{
		Jobs:     make([]engine.JobOutcome, n),
		Events:   binary.LittleEndian.Uint64(img[16:24]),
		Makespan: math.Float64frombits(binary.LittleEndian.Uint64(img[24:32])),
	}

	cols := img[secs[secCols].off : secs[secCols].off+secs[secCols].size]
	off := 0
	for i := range res.Jobs {
		res.Jobs[i].ID = int(int64(binary.LittleEndian.Uint64(cols[off+8*i:])))
	}
	off += 8 * n
	for _, set := range []func(*engine.JobOutcome, float64){
		func(j *engine.JobOutcome, v float64) { j.Arrival = v },
		func(j *engine.JobOutcome, v float64) { j.Finish = v },
		func(j *engine.JobOutcome, v float64) { j.Deadline = v },
		func(j *engine.JobOutcome, v float64) { j.MapStageEnd = v },
	} {
		for i := range res.Jobs {
			set(&res.Jobs[i], math.Float64frombits(binary.LittleEndian.Uint64(cols[off+8*i:])))
		}
		off += 8 * n
	}
	for _, set := range []func(*engine.JobOutcome, int){
		func(j *engine.JobOutcome, v int) { j.MapTasksRun = v },
		func(j *engine.JobOutcome, v int) { j.ReduceTasksRun = v },
		func(j *engine.JobOutcome, v int) { j.PreemptedMaps = v },
		func(j *engine.JobOutcome, v int) { j.Events = v },
	} {
		for i := range res.Jobs {
			set(&res.Jobs[i], int(binary.LittleEndian.Uint32(cols[off+4*i:])))
		}
		off += 4 * n
	}

	// One string for every name, sliced per job: one allocation, not one
	// per job (a cached result's names share their backing bytes).
	names := img[secs[secNames].off : secs[secNames].off+secs[secNames].size]
	blob := string(names[4*(n+1):])
	prev := uint32(0)
	for i := 0; i <= n; i++ {
		cum := binary.LittleEndian.Uint32(names[4*i:])
		if cum < prev || uint64(cum) > uint64(len(blob)) {
			return nil, corrupt("name offset %d non-monotonic or out of blob", i)
		}
		if i > 0 {
			res.Jobs[i-1].Name = blob[prev:cum]
		}
		prev = cum
	}

	if flags&flagSpans != 0 {
		spans := img[secs[secSpans].off : secs[secSpans].off+secs[secSpans].size]
		if uint64(len(spans)) < uint64(8*n) {
			return nil, corrupt("spans section %d bytes, need %d counts", len(spans), 8*n)
		}
		var mapTotal, redTotal uint64
		for i := 0; i < n; i++ {
			mapTotal += uint64(binary.LittleEndian.Uint32(spans[4*i:]))
			redTotal += uint64(binary.LittleEndian.Uint32(spans[4*n+4*i:]))
		}
		if need := uint64(8*n) + 16*mapTotal + 24*redTotal; need != uint64(len(spans)) {
			return nil, corrupt("spans section %d bytes, need %d", len(spans), need)
		}
		so := 8 * n
		for i := range res.Jobs {
			// A span-recording engine gives every job non-nil (possibly
			// empty) slices; materialize even at count 0 so the decoded
			// result is DeepEqual to the fresh one.
			cnt := int(binary.LittleEndian.Uint32(spans[4*i:]))
			res.Jobs[i].MapSpans = make([]engine.Span, cnt)
			for s := 0; s < cnt; s++ {
				res.Jobs[i].MapSpans[s].Start = math.Float64frombits(binary.LittleEndian.Uint64(spans[so:]))
				res.Jobs[i].MapSpans[s].End = math.Float64frombits(binary.LittleEndian.Uint64(spans[so+8:]))
				so += 16
			}
		}
		for i := range res.Jobs {
			cnt := int(binary.LittleEndian.Uint32(spans[4*n+4*i:]))
			res.Jobs[i].ReduceSpans = make([]engine.Span, cnt)
			for s := 0; s < cnt; s++ {
				res.Jobs[i].ReduceSpans[s].Start = math.Float64frombits(binary.LittleEndian.Uint64(spans[so:]))
				res.Jobs[i].ReduceSpans[s].End = math.Float64frombits(binary.LittleEndian.Uint64(spans[so+8:]))
				res.Jobs[i].ReduceSpans[s].ShuffleEnd = math.Float64frombits(binary.LittleEndian.Uint64(spans[so+16:]))
				so += 24
			}
		}
	}
	return res, nil
}

func pad8(n int) int { return (n + 7) &^ 7 }
