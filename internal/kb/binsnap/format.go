// Package binsnap implements the compact columnar on-disk KB snapshot
// format and its zero-copy mmap reader.
//
// It is the one on-disk KB format. Opening never rebuilds the graph:
// the file stores the KB the way the hot path stores it in memory — a
// deduplicated, lexicographically sorted string table plus CSR
// adjacency arrays (concepts → pairs → supporting extractions → trigger
// edges) and precomputed aggregate statistics — so opening a snapshot
// is mmap + header parse + one linear validation sweep. No per-record
// decode, no per-record allocation, and co-located replicas mapping the
// same file share its pages through the OS page cache instead of
// keeping N private heaps.
//
// Layout (all integers little-endian):
//
//	header   magic "DCKBSNP1", version, flags, CRC-32C whole-file
//	         checksum (field zeroed while hashing), precomputed
//	         kb.Stats, element counts, and a section table of
//	         (offset, length) pairs
//	sections string offsets + blob; concept IDs; concept→pair CSR;
//	         per-pair instance/count/first-iteration columns;
//	         pair→supporting-extraction CSR; pair→triggered-extraction
//	         CSR; per-extraction sentence/concept/iteration/active
//	         columns; extraction→candidate/instance/trigger CSRs;
//	         instance→concept reverse CSR; active-concept list
//
// String IDs are ranks in the sorted string table, so sorting by ID is
// sorting by name and every "sorted" query answer falls out of the
// storage order for free. Open validates structure exhaustively —
// checksum, section bounds, CSR monotonicity, ID ranges, stats
// consistency — so a snapshot that opens can never panic at query time;
// a torn or corrupted file fails Open with an error wrapping
// ErrCorrupt. Files are written via kb.AtomicWriteFile (temp + fsync +
// rename), so a crash mid-publish never replaces a good snapshot with a
// torn one.
package binsnap

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic is the 8-byte signature opening every binary KB snapshot. Open
// checks it first, so a file of any other format fails with an error
// naming its bad magic.
const Magic = "DCKBSNP1"

// FormatVersion is the on-disk format version this package reads and
// writes. Any other version fails Open.
const FormatVersion = 1

// ErrCorrupt marks a snapshot that failed checksum or structural
// validation: truncated, bit-flipped, or written by a buggy encoder.
// Every validation failure wraps it, so callers can errors.Is without
// string-matching.
var ErrCorrupt = errors.New("corrupt binary snapshot")

// corruptf wraps a validation failure with context and ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("binsnap: "+format+": %w", append(args, ErrCorrupt)...)
}

// Section indices of the section table, in file order. Each section is
// a flat array: u32 columns, u8 flags, or raw string bytes.
const (
	secStrOffsets     = iota // (nStrings+1) × u32: byte offsets into the blob
	secStrBlob               // raw string bytes, lexicographically sorted
	secConceptIDs            // nConcepts × u32: string IDs, strictly ascending
	secConceptPair           // (nConcepts+1) × u32: pair-range CSR per concept
	secPairInstance          // nPairs × u32: instance string ID per pair
	secPairCount             // nPairs × u32: active support count
	secPairFirst             // nPairs × u32: first supporting iteration
	secPairExtStart          // (nPairs+1) × u32: supporting-extraction CSR
	secPairExtIDs            // u32 extraction IDs supporting each pair
	secTrigStart             // (nPairs+1) × u32: triggered-extraction CSR
	secTrigExtIDs            // u32 extraction IDs each pair triggered
	secExtSentence           // nExts × u32: sentence ID
	secExtConcept            // nExts × u32: concept string ID
	secExtIter               // nExts × u32: extraction iteration
	secExtActive             // nExts × u8: 1 = active, 0 = rolled back
	secExtCandStart          // (nExts+1) × u32: candidate CSR
	secExtCandIDs            // u32 candidate string IDs
	secExtInstStart          // (nExts+1) × u32: instance CSR
	secExtInstIDs            // u32 instance string IDs
	secExtTrigStart          // (nExts+1) × u32: trigger CSR
	secExtTrigIDs            // u32 trigger string IDs
	secRevStart              // (nStrings+1) × u32: instance→concept reverse CSR
	secRevConceptIDs         // u32 concept string IDs of active pairs
	secActiveConcepts        // u32 string IDs of concepts with ≥1 active pair
	numSections
)

// Fixed header field offsets. The section table of numSections
// (offset, length) u64 pairs follows the counts; section data begins at
// headerSize, 8-byte aligned.
const (
	offMagic    = 0
	offVersion  = 8
	offFlags    = 12
	offChecksum = 16
	offReserved = 20
	offStats    = 24 // 4 × u64: distinct pairs, total count, concepts, active extractions
	offCounts   = 56 // 4 × u32: strings, concepts, pairs, extractions
	offSections = 72
	headerSize  = offSections + numSections*16
)

// crcTable is the Castagnoli polynomial table; CRC-32C is the storage
// checksum (hardware-accelerated in the stdlib), distinct from the
// FNV-64a fingerprints the bench layer uses for semantic identity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksumOf computes the whole-file checksum with the checksum field
// itself treated as zero, so the stored value can be verified in place.
func checksumOf(data []byte) uint32 {
	crc := crc32.Update(0, crcTable, data[:offChecksum])
	var zero [4]byte
	crc = crc32.Update(crc, crcTable, zero[:])
	return crc32.Update(crc, crcTable, data[offChecksum+4:])
}
