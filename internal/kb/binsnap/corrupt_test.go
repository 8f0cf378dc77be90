package binsnap

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"driftclean/internal/kb"
)

// restamp recomputes and stores the checksum so structural corruptions
// reach the structural validators instead of being caught by CRC.
func restamp(data []byte) {
	binary.LittleEndian.PutUint32(data[offChecksum:], checksumOf(data))
}

// mustDecodeFail asserts Decode rejects data with ErrCorrupt — and, by
// not panicking, that validation never indexes past what it has proven.
func mustDecodeFail(t *testing.T, data []byte, what string) {
	t.Helper()
	v, err := Decode(data)
	if err == nil {
		t.Fatalf("%s: corrupt image decoded without error", what)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: error %v does not wrap ErrCorrupt", what, err)
	}
	if v != nil {
		t.Fatalf("%s: corrupt decode returned a view", what)
	}
}

func encodeSmall(t *testing.T) []byte {
	t.Helper()
	data, err := Encode(smallKB())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := encodeSmall(t)
	// Every prefix must fail — header cut short, section table cut
	// short, section data cut short. None may panic.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(data))
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	orig := encodeSmall(t)
	// Without restamping, the CRC must catch any single-bit damage.
	for off := 0; off < len(orig); off += 7 {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x40
		if _, err := Decode(data); err == nil {
			t.Fatalf("bit flip at byte %d decoded without error", off)
		}
	}
}

func TestDecodeRejectsRestampedFieldDamage(t *testing.T) {
	orig := encodeSmall(t)
	flip := func(mutate func(data []byte)) []byte {
		data := append([]byte(nil), orig...)
		mutate(data)
		restamp(data)
		return data
	}
	le := binary.LittleEndian
	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", flip(func(d []byte) { d[0] = 'X' })},
		{"future version", flip(func(d []byte) { le.PutUint32(d[offVersion:], FormatVersion+1) })},
		{"zero version", flip(func(d []byte) { le.PutUint32(d[offVersion:], 0) })},
		{"inflated pair stats", flip(func(d []byte) { le.PutUint64(d[offStats:], 999) })},
		{"inflated total count", flip(func(d []byte) { le.PutUint64(d[offStats+8:], 999) })},
		{"inflated concept stats", flip(func(d []byte) { le.PutUint64(d[offStats+16:], 999) })},
		{"inflated active extractions", flip(func(d []byte) { le.PutUint64(d[offStats+24:], 999) })},
		{"string count beyond section", flip(func(d []byte) { le.PutUint32(d[offCounts:], 1<<20) })},
		{"pair count beyond section", flip(func(d []byte) { le.PutUint32(d[offCounts+8:], 1<<20) })},
		{"extraction count beyond section", flip(func(d []byte) { le.PutUint32(d[offCounts+12:], 1<<20) })},
		{"section offset into header", flip(func(d []byte) { le.PutUint64(d[offSections:], 0) })},
		{"section beyond file", flip(func(d []byte) { le.PutUint64(d[offSections+8:], 1<<40) })},
		{"section length overflows file", flip(func(d []byte) {
			le.PutUint64(d[offSections+secStrBlob*16+8:], 1<<40)
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { mustDecodeFail(t, tc.data, tc.name) })
	}
}

// sectionBounds reads a section's (offset, length) from the header.
func sectionBounds(data []byte, sec int) (int, int) {
	le := binary.LittleEndian
	off := int(le.Uint64(data[offSections+sec*16:]))
	ln := int(le.Uint64(data[offSections+sec*16+8:]))
	return off, ln
}

func TestDecodeRejectsRestampedColumnDamage(t *testing.T) {
	orig := encodeSmall(t)
	// Corrupt the first u32 of each column section to an enormous value:
	// CSR spans, ID ranges and sort invariants must all catch their own.
	// Free-value columns (first iterations, sentence IDs, extraction
	// iterations) carry no invariant — any u32 is legal data there — so
	// they are skipped, along with the non-u32 sections.
	free := map[int]bool{
		secStrBlob: true, secExtActive: true,
		secPairFirst: true, secExtSentence: true, secExtIter: true,
	}
	for sec := 0; sec < numSections; sec++ {
		if free[sec] {
			continue
		}
		off, ln := sectionBounds(orig, sec)
		if ln < 4 {
			continue
		}
		data := append([]byte(nil), orig...)
		binary.LittleEndian.PutUint32(data[off:], 1<<30)
		restamp(data)
		if _, err := Decode(data); err == nil {
			t.Fatalf("section %d: poisoned first entry decoded without error", sec)
		}
	}
	// An out-of-range active flag must be rejected too.
	off, ln := sectionBounds(orig, secExtActive)
	if ln == 0 {
		t.Fatal("fixture has no extractions")
	}
	data := append([]byte(nil), orig...)
	data[off] = 2
	restamp(data)
	mustDecodeFail(t, data, "active flag 2")
}

func TestDecodeRejectsUnsortedStrings(t *testing.T) {
	// Swap the contents of the first two strings in the blob (equal
	// lengths not required — rewrite both ranges reversed) by reversing
	// the blob's first string bytes; simplest reliable break: make the
	// first string lexicographically larger than the second by raising
	// its first byte to 0xFF.
	data := encodeSmall(t)
	off, _ := sectionBounds(data, secStrBlob)
	data[off] = 0xFF
	restamp(data)
	mustDecodeFail(t, data, "unsorted strings")
}

func TestOpenRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.bin")
	if err := WriteFile(path, smallKB()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path)
	if err == nil {
		t.Fatal("corrupt file opened without error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

// FuzzDecode feeds arbitrary bytes to the decoder: it must reject or
// accept without ever panicking, and anything it accepts must answer
// queries without panicking — the no-panic-after-open guarantee.
func FuzzDecode(f *testing.F) {
	small, err := Encode(smallKB())
	if err != nil {
		f.Fatal(err)
	}
	empty, err := Encode(kb.New())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(empty)
	f.Add(small[:headerSize])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted: exercise every query path.
		for _, c := range v.Concepts() {
			for _, e := range v.Instances(c) {
				v.Count(c, e)
				v.SubInstances(c, e)
				if _, ok := v.Explain(c, e, 0); !ok {
					t.Fatalf("active pair (%s,%s) has no explanation", c, e)
				}
				v.ConceptsOfInstance(e)
			}
			v.DriftDepth(c)
		}
		for i := 0; i < v.NumExtractions(); i++ {
			v.ExtractionAt(i)
		}
		if _, err := v.ToKB(); err != nil {
			t.Fatalf("accepted image fails KB materialization: %v", err)
		}
	})
}
