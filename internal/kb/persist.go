package kb

import (
	"bufio"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// snapshot is the gob wire format of a KB. Extraction records plus pair
// states fully determine the KB; the trigger and concept indexes are
// rebuilt on load.
type snapshot struct {
	Version     int
	Extractions []Extraction
	Pairs       []pairState
}

type pairState struct {
	Concept, Instance string
	Count, FirstIter  int
	Extractions       []int
}

const snapshotVersion = 1

// PairState is the exported serializable form of one pair: identity,
// active support count, first supporting iteration and the IDs of every
// supporting extraction (including rolled-back ones). Alternative
// snapshot encoders (internal/kb/binsnap) move KB state through
// Export/Build as slices of these.
type PairState struct {
	Concept, Instance string
	Count, FirstIter  int
	Extractions       []int
}

// Export returns the KB's full serializable state, by name: every
// extraction in ID order and every pair — including rolled-back,
// zero-count ones — sorted by concept then instance. The result is a
// fresh copy; it is the single source every snapshot encoder serializes
// from, so two formats written from one KB describe identical state.
func (kb *KB) Export() ([]Extraction, []PairState) {
	exts := make([]Extraction, len(kb.exts))
	buf := make([]string, 0, len(kb.arena))
	for i := range kb.exts {
		exts[i], buf = kb.extraction(i, buf)
	}
	keys := make([]uint32, 0, len(kb.recs))
	for i := range kb.recs {
		if kb.recs[i].isPair {
			keys = append(keys, uint32(i))
		}
	}
	slices.SortFunc(keys, func(a, b uint32) int {
		ra, rb := &kb.recs[a], &kb.recs[b]
		if c := cmp.Compare(kb.syms.Name(ra.concept), kb.syms.Name(rb.concept)); c != 0 {
			return c
		}
		return cmp.Compare(kb.syms.Name(ra.instance), kb.syms.Name(rb.instance))
	})
	ids := make([]int, 0, len(kb.links))
	pairs := make([]PairState, len(keys))
	for j, i := range keys {
		r := &kb.recs[i]
		start := len(ids)
		ids = kb.listIDs(r.sup, ids)
		pairs[j] = PairState{
			Concept:   kb.syms.Name(r.concept),
			Instance:  kb.syms.Name(r.instance),
			Count:     r.count,
			FirstIter: r.firstIter,
		}
		if len(ids) > start {
			pairs[j].Extractions = ids[start:len(ids):len(ids)]
		}
	}
	return exts, pairs
}

// WriteTo serializes the KB (including rolled-back extractions and their
// provenance) to w.
func (kb *KB) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	exts, pairs := kb.Export()
	snap := snapshot{Version: snapshotVersion, Extractions: exts}
	for _, ps := range pairs {
		snap.Pairs = append(snap.Pairs, pairState(ps))
	}
	if err := gob.NewEncoder(cw).Encode(snap); err != nil {
		return cw.n, fmt.Errorf("kb: encoding snapshot: %w", err)
	}
	return cw.n, nil
}

// Read deserializes a KB previously written with WriteTo. The wire
// state is validated before it becomes a live KB: a truncated or
// corrupted snapshot must fail here, with a descriptive error, rather
// than load "successfully" and panic at query time when an
// out-of-range extraction index is finally dereferenced.
func Read(r io.Reader) (*KB, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("kb: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("kb: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	pairs := make([]PairState, len(snap.Pairs))
	for i, ps := range snap.Pairs {
		pairs[i] = PairState(ps)
	}
	return Build(snap.Extractions, pairs)
}

// Build reconstructs a KB from exported state (see Export), validating
// it the same way Read validates a gob snapshot: extraction IDs must be
// dense and in order, pair extraction references in range, counts
// nonnegative, pairs unique. The names are interned in a table of the
// KB's own. The trigger lists are rebuilt from the extraction records,
// and the active-pair count and per-concept aggregates from the pair
// records, exactly as the live KB maintains them.
func Build(extractions []Extraction, pairs []PairState) (*KB, error) {
	kb := New()
	for i := range extractions {
		ex := &extractions[i]
		if ex.ID != i {
			return nil, fmt.Errorf("kb: extraction %d has ID %d", i, ex.ID)
		}
		off := len(kb.arena)
		for _, names := range [][]string{ex.Candidates, ex.Instances, ex.Triggers} {
			for _, n := range names {
				kb.arena = append(kb.arena, kb.syms.Intern(n))
			}
		}
		c := kb.syms.Intern(ex.Concept)
		kb.exts = append(kb.exts, extRec{
			sentence:  ex.SentenceID,
			iteration: ex.Iteration,
			concept:   c,
			off:       uint32(off),
			nCand:     uint32(len(ex.Candidates)),
			nInst:     uint32(len(ex.Instances)),
			nTrig:     uint32(len(ex.Triggers)),
			active:    ex.Active,
		})
		kb.st(c).defined = true
		// Trigger provenance is kept for inactive extractions too, as in
		// the live KB (rollback never removes trigger links).
		for _, t := range kb.triggers(&kb.exts[i]) {
			kb.appendLink(&kb.recs[kb.recordFor(c, t)].trig, i)
		}
	}
	for _, ps := range pairs {
		p := Pair{ps.Concept, ps.Instance}
		c, e := kb.syms.Intern(ps.Concept), kb.syms.Intern(ps.Instance)
		if _, dup := kb.pairIndex(c, e); dup {
			return nil, fmt.Errorf("kb: snapshot lists pair %s twice", p)
		}
		if ps.Count < 0 {
			return nil, fmt.Errorf("kb: pair %s has negative count %d", p, ps.Count)
		}
		for _, id := range ps.Extractions {
			if id < 0 || id >= len(kb.exts) {
				return nil, fmt.Errorf("kb: pair %s references extraction %d, but the snapshot holds %d extractions",
					p, id, len(kb.exts))
			}
		}
		i := kb.recordFor(c, e)
		kb.makePair(i, ps.FirstIter)
		kb.recs[i].count = ps.Count
		for _, id := range ps.Extractions {
			kb.appendLink(&kb.recs[i].sup, id)
		}
		if ps.Count > 0 {
			kb.activate(c)
		}
	}
	for name, d := range kb.recomputeDigests() {
		c, _ := kb.syms.Lookup(name)
		kb.st(c).digest = d
	}
	return kb, nil
}

// SaveFile writes the KB snapshot to a file, atomically: the bytes go
// to a temporary file in the target's directory, are fsynced, and only
// then renamed over the target. A crash or full disk mid-write can
// never leave a torn snapshot where a good one used to be — the old
// file survives intact until the new one is durably complete.
func (kb *KB) SaveFile(path string) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		_, err := kb.WriteTo(w)
		return err
	})
}

// AtomicWriteFile streams write's output into path via a same-directory
// temp file, fsync and rename. On any failure the temp file is removed
// and the previous contents of path are untouched. Every snapshot
// format the repo persists (gob here, the binary columnar format in
// internal/kb/binsnap) publishes through this one discipline.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("kb: creating temp snapshot: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		_ = f.Close()
		_ = os.Remove(tmp)
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		cleanup() // already failing; the write error wins
		return err
	}
	if err := w.Flush(); err != nil {
		cleanup()
		return fmt.Errorf("kb: flushing snapshot: %w", err)
	}
	// Sync before rename: the rename must never become visible while the
	// data behind it is still only in the page cache.
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("kb: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("kb: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("kb: publishing snapshot: %w", err)
	}
	return nil
}

// LoadFile reads a KB snapshot from a file.
func LoadFile(path string) (*KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kb: %w", err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Concept != ps[j].Concept {
			return ps[i].Concept < ps[j].Concept
		}
		return ps[i].Instance < ps[j].Instance
	})
}
