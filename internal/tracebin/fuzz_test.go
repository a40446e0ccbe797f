package tracebin

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeSTRC throws corrupted, truncated, and adversarial images
// at the decoder through OpenReaderAt, the path that reads a file
// without mapping it. The contract under fuzzing: it either returns a
// validated trace or an error — it must never panic, over-read, or
// hand back objects referencing memory outside the image. The seeds
// cover a valid image, truncations at every section boundary, targeted
// corruption of counts, section offsets, and arena spans, and one
// image per rule of the trace contract.
func FuzzDecodeSTRC(f *testing.F) {
	tr := sharedTrace(f, 12, 3)
	img, err := Pack(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(img[:headerSize])
	f.Add(img[:headerSize/2])

	h, err := decodeHeader(img, uint64(len(img)))
	if err != nil {
		f.Fatal(err)
	}
	// Truncate at and just inside each section boundary.
	for _, s := range h.sections {
		if s.off < uint64(len(img)) {
			f.Add(append([]byte(nil), img[:s.off]...))
		}
		if end := s.off + s.size; end > 0 && end <= uint64(len(img)) {
			f.Add(append([]byte(nil), img[:end-1]...))
		}
	}
	// Corrupt the job/template counts (with the header CRC patched so
	// corruption reaches the section validators, not just the CRC gate).
	for _, off := range []int{8, 16} {
		for _, v := range []uint64{0, 1, 1 << 20, 1 << 60, ^uint64(0)} {
			mut := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(mut[off:], v)
			patchHeaderCRC(mut)
			f.Add(mut)
		}
	}
	// Corrupt each section-table entry's offset and size.
	for i := 0; i < numSections; i++ {
		base := sectionTableOff + i*sectionEntrySize
		for _, v := range []uint64{0, 7, uint64(len(img)), ^uint64(0) >> 1} {
			mut := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(mut[base:], v)
			patchHeaderCRC(mut)
			f.Add(mut)
			mut2 := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(mut2[base+8:], v)
			patchHeaderCRC(mut2)
			f.Add(mut2)
		}
	}
	// Corrupt the first template record's arena spans and string refs
	// (section CRC patched too, so the span validators are reached).
	tplOff := int(h.sections[secTemplates].off)
	if tplOff+tplRecSize <= len(img) {
		for _, fieldOff := range []int{0, 4, 32, 40, 48, 56} {
			mut := append([]byte(nil), img...)
			binary.LittleEndian.PutUint32(mut[tplOff+fieldOff:], ^uint32(0))
			patchSectionCRC(mut, secTemplates)
			patchHeaderCRC(mut)
			f.Add(mut)
		}
	}

	// One image per rule of the trace contract Open hands to
	// Trace.Validate, and one with no jobs.
	for _, tc := range contractImages(f) {
		f.Add(tc.img)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenReaderAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// A successful decode must yield a coherent, validated trace.
		tr := s.Trace()
		if tr == nil || len(tr.Jobs) == 0 {
			t.Fatal("decode succeeded but returned an empty trace")
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decode succeeded but trace invalid: %v", err)
		}
		for i, j := range tr.Jobs {
			// Touch every duration the engine would read: any
			// out-of-image span would fault here under ASAN or read
			// garbage that Validate above should have caught.
			var sum float64
			for _, d := range j.Template.MapDurations {
				sum += d
			}
			for _, d := range j.Template.ReduceDurations {
				sum += d
			}
			_ = sum
			_ = i
		}
	})
}

// patchHeaderCRC recomputes the header CRC after a mutation so the
// corruption penetrates past the integrity gate.
func patchHeaderCRC(img []byte) {
	if len(img) < headerSize {
		return
	}
	binary.LittleEndian.PutUint32(img[headerCRCOff:], crc32.Checksum(img[:headerCRCOff], castagnoli))
}

// patchSectionCRC recomputes one section's table CRC after mutating
// its payload.
func patchSectionCRC(img []byte, idx int) {
	if len(img) < headerSize {
		return
	}
	base := sectionTableOff + idx*sectionEntrySize
	off := binary.LittleEndian.Uint64(img[base:])
	size := binary.LittleEndian.Uint64(img[base+8:])
	if off > uint64(len(img)) || size > uint64(len(img))-off {
		return
	}
	binary.LittleEndian.PutUint32(img[base+16:], crc32.Checksum(img[off:off+size], castagnoli))
}
