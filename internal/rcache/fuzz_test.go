package rcache

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/sched"
	"simmr/internal/synth"
)

// FuzzDecodeRCache throws corrupted, truncated, and adversarial entry
// images at the decoder, mirroring tracebin's FuzzDecodeSTRC. The
// contract: Decode either returns a coherent Result or an error — it
// must never panic or over-read, because in production every decode
// failure is a silent fall-back to recompute and a panic would take
// the whole sweep down. The seeds cover two valid images — 12 jobs fill
// the cols section to an 8-byte boundary, 13 leave it to the pad — each
// with truncations at every section boundary and targeted corruption of
// the job count, the section table and the name offsets, the CRC gates
// patched so corruption reaches the deeper validators; and version 1 and
// 2 images, as older binaries left them in a cache directory.
func FuzzDecodeRCache(f *testing.F) {
	key := Key{Hi: 3, Lo: 9} // the stale fixtures'
	f.Add([]byte{})
	f.Add([]byte(entryMagic))
	for _, name := range []string{"entry_v1.srrc", "entry_v2.srrc"} {
		stale, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stale)
	}
	for _, jobs := range []int{12, 13} {
		seedImage(f, key, jobs)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data, key)
		if err != nil {
			return
		}
		// A successful decode must be coherent: touch everything it
		// returned.
		if got == nil {
			t.Fatal("nil result without error")
		}
		var sum float64
		for i := range got.Jobs {
			j := &got.Jobs[i]
			sum += j.Arrival + j.Finish + j.Deadline + j.MapStageEnd
			sum += float64(len(j.Name) + j.Events)
		}
		_ = sum
	})
}

// seedImage adds the valid entry image of a jobs-job replay and its
// truncations and corruptions to the corpus.
func seedImage(f *testing.F, key Key, jobs int) {
	tr, err := synth.ProductionTrace(jobs, rand.New(rand.NewSource(3)))
	if err != nil {
		f.Fatal(err)
	}
	res, err := engine.Run(engine.DefaultConfig(), tr, sched.MaxEDF{})
	if err != nil {
		f.Fatal(err)
	}
	img, err := Encode(key, res)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(img)
	f.Add(img[:entryHeaderSize])
	f.Add(img[:entryHeaderSize/2])

	// Truncate at and just inside each section boundary.
	for i := 0; i < numSecs; i++ {
		base := sectionTableOff + i*sectionEntrySz
		off := binary.LittleEndian.Uint64(img[base:])
		size := binary.LittleEndian.Uint64(img[base+8:])
		if off < uint64(len(img)) {
			f.Add(append([]byte(nil), img[:off]...))
		}
		if end := off + size; end > 0 && end <= uint64(len(img)) {
			f.Add(append([]byte(nil), img[:end-1]...))
		}
	}
	// Corrupt the job count (header CRC patched so it reaches the
	// section validators).
	for _, v := range []uint64{0, 1, 1 << 20, 1 << 60, ^uint64(0)} {
		mut := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(mut[8:], v)
		patchEntryHeaderCRC(mut)
		f.Add(mut)
	}
	// Corrupt each section-table entry's offset and size.
	for i := 0; i < numSecs; i++ {
		base := sectionTableOff + i*sectionEntrySz
		for _, v := range []uint64{0, 7, uint64(len(img)), ^uint64(0) >> 1} {
			mut := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(mut[base:], v)
			patchEntryHeaderCRC(mut)
			f.Add(mut)
			mut2 := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(mut2[base+8:], v)
			patchEntryHeaderCRC(mut2)
			f.Add(mut2)
		}
	}
	// Corrupt the name-offset table with section + header CRCs patched,
	// so the monotonicity validator is reached.
	namesOff := int(binary.LittleEndian.Uint64(img[sectionTableOff+secNames*sectionEntrySz:]))
	if namesOff+8 <= len(img) {
		mut := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(mut[namesOff:], ^uint32(0))
		patchEntrySectionCRC(mut, secNames)
		patchEntryHeaderCRC(mut)
		f.Add(mut)
	}
}

// patchEntryHeaderCRC recomputes the header CRC after a mutation so
// the corruption penetrates past the integrity gate.
func patchEntryHeaderCRC(img []byte) {
	if len(img) < entryHeaderSize {
		return
	}
	binary.LittleEndian.PutUint32(img[headerCRCOff:], crc32.Checksum(img[:headerCRCOff], castagnoli))
}

// patchEntrySectionCRC recomputes one section's table CRC after
// mutating its payload.
func patchEntrySectionCRC(img []byte, idx int) {
	if len(img) < entryHeaderSize {
		return
	}
	base := sectionTableOff + idx*sectionEntrySz
	off := binary.LittleEndian.Uint64(img[base:])
	size := binary.LittleEndian.Uint64(img[base+8:])
	if off > uint64(len(img)) || size > uint64(len(img))-off {
		return
	}
	binary.LittleEndian.PutUint32(img[base+16:], crc32.Checksum(img[off:off+size], castagnoli))
}
