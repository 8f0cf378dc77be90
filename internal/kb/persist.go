package kb

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// PairState is the exported serializable form of one pair: identity,
// active support count, first supporting iteration and the IDs of every
// supporting extraction (including rolled-back ones). The on-disk
// snapshot format (internal/kb/binsnap) moves KB state through
// Export/Build as slices of these.
type PairState struct {
	Concept, Instance string
	Count, FirstIter  int
	Extractions       []int
}

// Export returns the KB's full serializable state, by name: every
// extraction in ID order and every pair — including rolled-back,
// zero-count ones — sorted by concept then instance. The result is a
// fresh copy; the snapshot encoder serializes from it, and Build
// reverses it.
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

// Build reconstructs a KB from exported state (see Export). The state
// may come from an untrusted file, so it is validated before it becomes
// a live KB, and bad state fails here with a descriptive error rather
// than panicking at query time: extraction IDs must be dense and in
// order, pair extraction references in range, counts nonnegative, pairs
// unique. The names are interned in a table of the
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

// AtomicWriteFile streams write's output into path via a same-directory
// temp file, fsync and rename. On any failure the temp file is removed
// and the previous contents of path are untouched, so a crash or full
// disk mid-write never leaves a torn snapshot where a good one used to
// be. Snapshot files (internal/kb/binsnap) publish through it.
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

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Concept != ps[j].Concept {
			return ps[i].Concept < ps[j].Concept
		}
		return ps[i].Instance < ps[j].Instance
	})
}
