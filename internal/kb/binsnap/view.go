package binsnap

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"driftclean/internal/kb"
)

// Header summarizes a snapshot file's fixed header for tooling
// (cmd/kbsnap info).
type Header struct {
	Version     uint32
	Checksum    uint32
	FileBytes   int64
	Strings     int
	Concepts    int
	Pairs       int
	Extractions int
	Stats       kb.Stats
}

// View is a read-only KB view over a validated binary snapshot image,
// usually an mmap of the file. It satisfies kb.View, so the snapshot
// and serving layers answer queries from it exactly as they do from a
// heap KB. All methods are safe for unbounded concurrent use: the
// backing bytes are immutable and every query reads them in place.
//
// Only the string blob is copied to the heap at open (one allocation;
// every returned string is a substring header sharing it). The CSR
// columns — the bulk of the file — are read directly from the mapping,
// which is what lets co-located replicas share page cache instead of
// private heaps, and keeps open cost independent of how the KB grew.
type View struct {
	data   []byte
	munmap func([]byte) error // nil when heap-backed

	hdr  Header
	secs [numSections][]byte

	// blob is the heap copy of the string bytes; strs[i] is a substring
	// of it. Copying the blob (and nothing else) means no string ever
	// points into the mapping, so unmapping a dropped generation can
	// never invalidate results that escaped into caches.
	blob     string
	strs     []string
	concepts []string // active concept names, sorted
	stats    kb.Stats
}

// Open maps the snapshot file at path read-only and validates it fully
// — checksum, section bounds, CSR monotonicity, ID ranges, stats
// consistency. A snapshot that opens can never panic at query time; a
// torn, truncated or bit-flipped file fails here with an error wrapping
// ErrCorrupt. The mapping is released by Close, or by the garbage
// collector once the view (and every in-flight query holding it) is
// unreachable — replaced serving generations clean themselves up.
func Open(path string) (*View, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("binsnap: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("binsnap: %w", err)
	}
	if st.Size() > math.MaxInt-1 {
		return nil, corruptf("file size %d overflows this platform", st.Size())
	}
	data, munmap, err := mmapFile(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("binsnap: mapping %s: %w", path, err)
	}
	v, err := newView(data, munmap)
	if err != nil {
		if munmap != nil {
			_ = munmap(data)
		}
		return nil, err
	}
	if munmap != nil {
		runtime.SetFinalizer(v, func(v *View) { _ = v.munmap(v.data) })
	}
	return v, nil
}

// Decode validates an in-memory snapshot image and returns a view over
// it. The caller must not modify data afterwards.
func Decode(data []byte) (*View, error) {
	return newView(data, nil)
}

// Close releases the file mapping (a no-op for heap-backed views). The
// view must not be used after Close; serving paths normally never call
// it and let the finalizer reclaim dropped generations instead.
func (v *View) Close() error {
	if v.munmap == nil {
		return nil
	}
	runtime.SetFinalizer(v, nil)
	m := v.munmap
	v.munmap = nil
	return m(v.data)
}

// Header returns the decoded file header.
func (v *View) Header() Header { return v.hdr }

// newView parses and validates the image, then materializes the string
// table and active-concept list.
func newView(data []byte, munmap func([]byte) error) (*View, error) {
	v := &View{data: data, munmap: munmap}
	if err := v.parseHeader(); err != nil {
		return nil, err
	}
	if got := checksumOf(data); got != v.hdr.Checksum {
		return nil, corruptf("checksum mismatch: file says %08x, content hashes to %08x", v.hdr.Checksum, got)
	}
	if err := v.validate(); err != nil {
		return nil, err
	}
	v.materialize()
	return v, nil
}

// parseHeader checks magic, version and section-table sanity.
func (v *View) parseHeader() error {
	data := v.data
	// The magic is checked first, so a file of another format (even a
	// short one) is named as such rather than as a truncated snapshot.
	if head := data[offMagic:min(len(data), offMagic+len(Magic))]; string(head) != Magic {
		return corruptf("bad magic %q, want %q", head, Magic)
	}
	if len(data) < headerSize {
		return corruptf("file is %d bytes, smaller than the %d-byte header", len(data), headerSize)
	}
	le := binary.LittleEndian
	v.hdr.Version = le.Uint32(data[offVersion:])
	if v.hdr.Version != FormatVersion {
		return corruptf("format version %d, this build reads %d", v.hdr.Version, FormatVersion)
	}
	v.hdr.Checksum = le.Uint32(data[offChecksum:])
	v.hdr.FileBytes = int64(len(data))
	v.stats = kb.Stats{
		DistinctPairs:     int(le.Uint64(data[offStats:])),
		TotalCount:        int(le.Uint64(data[offStats+8:])),
		Concepts:          int(le.Uint64(data[offStats+16:])),
		ActiveExtractions: int(le.Uint64(data[offStats+24:])),
	}
	v.hdr.Stats = v.stats
	v.hdr.Strings = int(le.Uint32(data[offCounts:]))
	v.hdr.Concepts = int(le.Uint32(data[offCounts+4:]))
	v.hdr.Pairs = int(le.Uint32(data[offCounts+8:]))
	v.hdr.Extractions = int(le.Uint32(data[offCounts+12:]))

	for i := 0; i < numSections; i++ {
		off := le.Uint64(data[offSections+i*16:])
		ln := le.Uint64(data[offSections+i*16+8:])
		if off < headerSize || off > uint64(len(data)) || ln > uint64(len(data))-off {
			return corruptf("section %d spans [%d, %d+%d) outside the %d-byte file", i, off, off, ln, len(data))
		}
		v.secs[i] = data[off : off+ln : off+ln]
	}
	return nil
}

// u32 reads element i of a u32 column section.
func (v *View) u32(sec, i int) uint32 {
	return binary.LittleEndian.Uint32(v.secs[sec][i*4:])
}

// u32len returns the element count of a u32 column section.
func (v *View) u32len(sec int) int { return len(v.secs[sec]) / 4 }

// validate performs the full structural sweep. Everything queries will
// ever index is checked here, which is what makes the no-panic
// guarantee after a successful open.
func (v *View) validate() error {
	nStr, nCon, nPairs, nExts := v.hdr.Strings, v.hdr.Concepts, v.hdr.Pairs, v.hdr.Extractions

	// Column lengths must match the header counts.
	wantLen := [numSections]int{
		secStrOffsets:   (nStr + 1) * 4,
		secStrBlob:      -1,
		secConceptIDs:   nCon * 4,
		secConceptPair:  (nCon + 1) * 4,
		secPairInstance: nPairs * 4, secPairCount: nPairs * 4, secPairFirst: nPairs * 4,
		secPairExtStart: (nPairs + 1) * 4, secPairExtIDs: -1,
		secTrigStart: (nPairs + 1) * 4, secTrigExtIDs: -1,
		secExtSentence: nExts * 4, secExtConcept: nExts * 4, secExtIter: nExts * 4,
		secExtActive:    nExts,
		secExtCandStart: (nExts + 1) * 4, secExtCandIDs: -1,
		secExtInstStart: (nExts + 1) * 4, secExtInstIDs: -1,
		secExtTrigStart: (nExts + 1) * 4, secExtTrigIDs: -1,
		secRevStart: (nStr + 1) * 4, secRevConceptIDs: -1,
		secActiveConcepts: -1,
	}
	for sec, want := range wantLen {
		if want >= 0 && len(v.secs[sec]) != want {
			return corruptf("section %d is %d bytes, want %d for the header counts", sec, len(v.secs[sec]), want)
		}
		if want == -1 && sec != secStrBlob && sec != secExtActive && len(v.secs[sec])%4 != 0 {
			return corruptf("section %d length %d is not a whole number of u32s", sec, len(v.secs[sec]))
		}
	}

	// String offsets: monotone, spanning the blob exactly; strings
	// strictly ascending (sorted and deduplicated — binary-search
	// lookups and by-ID ordering both depend on it).
	blobLen := len(v.secs[secStrBlob])
	if v.u32(secStrOffsets, 0) != 0 || int(v.u32(secStrOffsets, nStr)) != blobLen {
		return corruptf("string offsets do not span the %d-byte blob", blobLen)
	}
	for i := 0; i < nStr; i++ {
		a, b := v.u32(secStrOffsets, i), v.u32(secStrOffsets, i+1)
		if a > b || int(b) > blobLen {
			return corruptf("string %d spans [%d, %d) outside the %d-byte blob", i, a, b, blobLen)
		}
	}
	blob := v.secs[secStrBlob]
	for i := 0; i+1 < nStr; i++ {
		a0, a1 := v.u32(secStrOffsets, i), v.u32(secStrOffsets, i+1)
		b1 := v.u32(secStrOffsets, i+2)
		if string(blob[a0:a1]) >= string(blob[a1:b1]) {
			return corruptf("string table not strictly sorted at entry %d", i)
		}
	}

	// Concept list and pair grouping.
	if err := v.checkAscendingIDs(secConceptIDs, nStr, "concept"); err != nil {
		return err
	}
	if err := v.checkCSR(secConceptPair, nCon, nPairs, "concept→pair"); err != nil {
		return err
	}
	for ci := 0; ci < nCon; ci++ {
		lo, hi := int(v.u32(secConceptPair, ci)), int(v.u32(secConceptPair, ci+1))
		for pi := lo; pi < hi; pi++ {
			iid := v.u32(secPairInstance, pi)
			if int(iid) >= nStr {
				return corruptf("pair %d has instance string ID %d of %d", pi, iid, nStr)
			}
			if pi > lo && v.u32(secPairInstance, pi-1) >= iid {
				return corruptf("pairs of concept %d not strictly sorted at pair %d", ci, pi)
			}
		}
	}

	// Pair adjacency: supporting and triggered extraction lists.
	nPairExt := v.u32len(secPairExtIDs)
	if err := v.checkCSR(secPairExtStart, nPairs, nPairExt, "pair→extraction"); err != nil {
		return err
	}
	if err := v.checkIDRange(secPairExtIDs, nExts, "supporting extraction"); err != nil {
		return err
	}
	nTrig := v.u32len(secTrigExtIDs)
	if err := v.checkCSR(secTrigStart, nPairs, nTrig, "pair→triggered"); err != nil {
		return err
	}
	if err := v.checkIDRange(secTrigExtIDs, nExts, "triggered extraction"); err != nil {
		return err
	}

	// Extraction columns and token lists.
	if err := v.checkIDRange(secExtConcept, nStr, "extraction concept"); err != nil {
		return err
	}
	for i, a := range v.secs[secExtActive] {
		if a > 1 {
			return corruptf("extraction %d has active flag %d", i, a)
		}
	}
	for _, s := range [][3]int{
		{secExtCandStart, secExtCandIDs, 0},
		{secExtInstStart, secExtInstIDs, 0},
		{secExtTrigStart, secExtTrigIDs, 0},
	} {
		if err := v.checkCSR(s[0], nExts, v.u32len(s[1]), "extraction token"); err != nil {
			return err
		}
		if err := v.checkIDRange(s[1], nStr, "extraction token"); err != nil {
			return err
		}
	}

	// Stats must be derivable from the columns — a snapshot cannot lie
	// about its own aggregates.
	distinct, total := 0, 0
	activeConcepts := 0
	for ci := 0; ci < nCon; ci++ {
		lo, hi := int(v.u32(secConceptPair, ci)), int(v.u32(secConceptPair, ci+1))
		conceptActive := false
		for pi := lo; pi < hi; pi++ {
			if c := int(v.u32(secPairCount, pi)); c > 0 {
				distinct++
				total += c
				conceptActive = true
			}
		}
		if conceptActive {
			activeConcepts++
		}
	}
	activeExts := 0
	for _, a := range v.secs[secExtActive] {
		activeExts += int(a)
	}
	if v.stats.DistinctPairs != distinct || v.stats.TotalCount != total ||
		v.stats.Concepts != activeConcepts || v.stats.ActiveExtractions != activeExts {
		return corruptf("header stats %+v disagree with the columns (pairs %d, count %d, concepts %d, active extractions %d)",
			v.stats, distinct, total, activeConcepts, activeExts)
	}

	// Active-concept list: ascending concept IDs, each with ≥1 active
	// pair, and exactly as many as the stats promise.
	nActive := v.u32len(secActiveConcepts)
	if nActive != activeConcepts {
		return corruptf("active-concept list holds %d entries, stats say %d", nActive, activeConcepts)
	}
	if err := v.checkAscendingIDs(secActiveConcepts, nStr, "active concept"); err != nil {
		return err
	}
	for i := 0; i < nActive; i++ {
		cid := v.u32(secActiveConcepts, i)
		ci, ok := v.conceptIndexByID(cid)
		if !ok || !v.conceptHasActive(ci) {
			return corruptf("active-concept entry %d (string %d) has no active pair", i, cid)
		}
	}

	// Reverse index: every entry must be an active pair, per-instance
	// lists strictly ascending, and the total must equal the distinct
	// active pair count — together that pins the index to exactly the
	// active pair set.
	nRev := v.u32len(secRevConceptIDs)
	if err := v.checkCSR(secRevStart, nStr, nRev, "reverse index"); err != nil {
		return err
	}
	if nRev != distinct {
		return corruptf("reverse index holds %d entries, want %d active pairs", nRev, distinct)
	}
	for iid := 0; iid < nStr; iid++ {
		lo, hi := int(v.u32(secRevStart, iid)), int(v.u32(secRevStart, iid+1))
		for r := lo; r < hi; r++ {
			cid := v.u32(secRevConceptIDs, r)
			if r > lo && v.u32(secRevConceptIDs, r-1) >= cid {
				return corruptf("reverse index of string %d not strictly sorted", iid)
			}
			pi, ok := v.pairIndexByIDs(cid, uint32(iid))
			if !ok || v.u32(secPairCount, pi) == 0 {
				return corruptf("reverse index lists (%d isA %d), which is not an active pair", iid, cid)
			}
		}
	}
	return nil
}

// checkCSR validates one offset column: n+1 entries, first 0, monotone,
// last equal to the target array length.
func (v *View) checkCSR(sec, n, target int, what string) error {
	if v.u32(sec, 0) != 0 || int(v.u32(sec, n)) != target {
		return corruptf("%s offsets do not span the %d-entry target", what, target)
	}
	for i := 0; i < n; i++ {
		if v.u32(sec, i) > v.u32(sec, i+1) {
			return corruptf("%s offsets decrease at entry %d", what, i)
		}
	}
	return nil
}

// checkIDRange validates that every entry of a u32 ID column is < limit.
func (v *View) checkIDRange(sec, limit int, what string) error {
	for i, n := 0, v.u32len(sec); i < n; i++ {
		if int(v.u32(sec, i)) >= limit {
			return corruptf("%s ID %d at entry %d out of range %d", what, v.u32(sec, i), i, limit)
		}
	}
	return nil
}

// checkAscendingIDs validates a strictly ascending u32 ID column with
// entries < limit.
func (v *View) checkAscendingIDs(sec, limit int, what string) error {
	if err := v.checkIDRange(sec, limit, what); err != nil {
		return err
	}
	for i, n := 1, v.u32len(sec); i < n; i++ {
		if v.u32(sec, i-1) >= v.u32(sec, i) {
			return corruptf("%s IDs not strictly ascending at entry %d", what, i)
		}
	}
	return nil
}

// materialize copies the string blob to the heap and builds the string
// and active-concept tables. This is the only O(vocabulary) work at
// open; everything else stays in the mapping.
func (v *View) materialize() {
	v.blob = string(v.secs[secStrBlob])
	nStr := v.hdr.Strings
	v.strs = make([]string, nStr)
	for i := 0; i < nStr; i++ {
		v.strs[i] = v.blob[v.u32(secStrOffsets, i):v.u32(secStrOffsets, i+1)]
	}
	nActive := v.u32len(secActiveConcepts)
	v.concepts = make([]string, nActive)
	for i := 0; i < nActive; i++ {
		v.concepts[i] = v.strs[v.u32(secActiveConcepts, i)]
	}
}

// stringID binary-searches the sorted string table for s.
func (v *View) stringID(s string) (uint32, bool) {
	i := sort.SearchStrings(v.strs, s)
	if i < len(v.strs) && v.strs[i] == s {
		return uint32(i), true
	}
	return 0, false
}

// conceptIndexByID binary-searches the concept list for a string ID.
func (v *View) conceptIndexByID(cid uint32) (int, bool) {
	n := v.u32len(secConceptIDs)
	i := sort.Search(n, func(i int) bool { return v.u32(secConceptIDs, i) >= cid })
	if i < n && v.u32(secConceptIDs, i) == cid {
		return i, true
	}
	return 0, false
}

// pairIndexByIDs binary-searches a concept's pair range for an instance
// string ID.
func (v *View) pairIndexByIDs(cid, iid uint32) (int, bool) {
	ci, ok := v.conceptIndexByID(cid)
	if !ok {
		return 0, false
	}
	lo, hi := int(v.u32(secConceptPair, ci)), int(v.u32(secConceptPair, ci+1))
	i := lo + sort.Search(hi-lo, func(i int) bool { return v.u32(secPairInstance, lo+i) >= iid })
	if i < hi && v.u32(secPairInstance, i) == iid {
		return i, true
	}
	return 0, false
}

// pairIndex resolves a (concept, instance) name pair to its pair index.
func (v *View) pairIndex(concept, instance string) (int, bool) {
	cid, ok := v.stringID(concept)
	if !ok {
		return 0, false
	}
	iid, ok := v.stringID(instance)
	if !ok {
		return 0, false
	}
	return v.pairIndexByIDs(cid, iid)
}

// conceptHasActive reports whether any pair of concept index ci has a
// positive count.
func (v *View) conceptHasActive(ci int) bool {
	lo, hi := int(v.u32(secConceptPair, ci)), int(v.u32(secConceptPair, ci+1))
	for pi := lo; pi < hi; pi++ {
		if v.u32(secPairCount, pi) > 0 {
			return true
		}
	}
	return false
}

// csrRange returns the [lo, hi) element range of entry i in an offset
// column.
func (v *View) csrRange(sec, i int) (int, int) {
	return int(v.u32(sec, i)), int(v.u32(sec, i+1))
}

// names materializes the string IDs of a CSR range into a name slice;
// empty ranges return nil, matching the KB's nil-preserving copies.
func (v *View) names(idSec, lo, hi int) []string {
	if lo >= hi {
		return nil
	}
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, v.strs[v.u32(idSec, i)])
	}
	return out
}
