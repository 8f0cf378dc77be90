// Package kb implements the isA knowledge base underlying the
// semantic-based iterative extractor. Besides (concept, instance) pairs
// with support counts, it records full provenance: which sentence produced
// each extraction and which already-known pairs *triggered* it (paper
// Sec 2.1: "an existing instance triggers the extraction of some other
// instances"). This trigger graph is the single substrate behind
//
//   - the sub-instance sets sub(e) used by features f1 and f4 (Sec 3.1),
//   - the random-walk scoring graph (Sec 5.2),
//   - ground-truth DP labeling in evaluation, and
//   - the cascading roll-back of Sec 4.2: removing a pair rolls back
//     every extraction that depended on it, which can zero other pairs'
//     counts and propagate further.
//
// # Storage
//
// Every concept and instance name is interned once in a Symbols table
// and the KB stores only the dense uint32 IDs (Sym). Its state is a
// handful of flat, pointer-free arrays: extraction records whose
// candidate, instance and trigger IDs are spans of one shared ID arena;
// pair records, found through one map keyed on the packed (concept,
// instance) IDs; per-pair supporting and triggered extraction lists
// threaded through one links array; and per-ID state (the concept's
// digest and the heads of its and the instance's record lists). Adding
// an extraction therefore appends to those arrays and allocates nothing
// of its own, Clone copies a few flat slices, and the garbage collector
// has no pointers inside a KB to chase.
//
// Several KBs may share one table — a checkpointed extract.Stream
// replays every checkpoint on its own — so IDs say nothing about a name
// except its identity. The string methods (the View surface, Pairs,
// Info, Extraction, Export) translate at the boundary, and every order
// they expose is lexicographic by name, never by ID. Analysis passes
// read the ID form (Record, EachRecord, EachHolder, AppendTriggered,
// ExtractionSyms) and the hashes the table stores with each name.
package kb

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"driftclean/internal/memo"
)

// Pair is an isA pair: Instance isA Concept.
type Pair struct {
	Concept  string
	Instance string
}

// String renders the pair in "(instance isA concept)" form.
func (p Pair) String() string { return fmt.Sprintf("(%s isA %s)", p.Instance, p.Concept) }

// Extraction records one resolved sentence parse, by name.
type Extraction struct {
	ID         int
	SentenceID int
	Concept    string   // the concept the extractor chose
	Candidates []string // the sentence's candidate concepts at parse time
	Instances  []string // instance tokens extracted under Concept
	Triggers   []string // instances already known under Concept that enabled this resolution; empty in iteration 1
	Iteration  int      // 1-based extraction iteration
	Active     bool     // false once rolled back
}

// ExtractionSyms is one extraction by ID. Its slices are read-only
// views into the KB's arena: reading an extraction this way allocates
// nothing.
type ExtractionSyms struct {
	SentenceID int
	Concept    Sym
	Candidates []Sym
	Instances  []Sym
	Triggers   []Sym
	Iteration  int
	Active     bool
}

// PairInfo aggregates the state of one isA pair.
type PairInfo struct {
	Count       int   // number of active extractions supporting the pair
	FirstIter   int   // iteration of the first supporting extraction
	Extractions []int // extraction IDs supporting the pair (including inactive)
}

// Record is one pair record by ID.
type Record struct {
	Concept, Instance Sym
	Count, FirstIter  int
}

// ref is a 1-based index into one of the KB's arrays; 0 is the end of a
// list.
type ref = uint32

// extRec is one extraction. Its candidates, instances and triggers are
// consecutive spans of the arena starting at off.
type extRec struct {
	sentence, iteration int
	concept             Sym
	off                 uint32
	nCand, nInst, nTrig uint32
	active              bool
}

// list is a list of extraction IDs threaded through the links array, in
// append order.
type list struct{ head, tail ref }

type link struct {
	ext  uint32
	next ref
}

// pairRec is the record of one (concept, instance) pair. A record with
// isPair false is a placeholder that only carries the extractions the
// pair triggered: an extraction may name a trigger its concept does not
// hold. A placeholder is no pair — no count, no digest term, no export
// — until an extraction supports it.
type pairRec struct {
	count, firstIter  int
	concept, instance Sym
	sup, trig         list
	// nextC and nextI link the concept's and the instance's pair
	// records (placeholders are in neither list).
	nextC, nextI ref
	isPair       bool
}

// symState is the per-ID state of a KB.
type symState struct {
	// digest is ConceptDigest of the name as a concept; defined (even
	// when zero) once the KB holds an extraction or pair record of it.
	digest  uint64
	defined bool
	// cHead and iHead start the lists of pair records with this name as
	// concept and as instance; active counts the concept's pair records
	// with positive count.
	cHead, iHead ref
	active       int32
}

// KB is the mutable knowledge base. It is not safe for concurrent use
// while mutated; a sealed KB (Seal) is never mutated again and is safe
// for any number of concurrent readers, also while another KB interns
// new names into the table they share.
type KB struct {
	syms  *Symbols
	exts  []extRec
	arena []Sym
	recs  []pairRec
	// index maps pairKey(concept, instance) to the pair's record.
	index map[uint64]uint32
	links []link
	// state is indexed by Sym and grows on demand: an ID past its end
	// has zero state.
	state []symState
	// numPairs counts the pair records with positive count. It changes
	// only at a record's 0↔positive count transitions (activate,
	// deactivate).
	numPairs int
	// sealed makes every mutator panic (Seal).
	sealed bool
}

// New returns an empty knowledge base with a table of its own.
func New() *KB { return NewWithSymbols(NewSymbols(), Sizes{}) }

// Sizes is a capacity hint for a new KB: roughly how many extractions
// it will record, how many candidate, instance and trigger IDs those
// carry in total, and how many pair records they create. A caller that
// knows what it is about to add saves the arrays' regrowth; a wrong
// hint costs only memory or regrowth, never contents.
type Sizes struct {
	Extractions, IDs, Pairs int
}

// NewWithSymbols returns an empty knowledge base that interns its names
// in t, which it may share with other KBs, with room for hint.
func NewWithSymbols(t *Symbols, hint Sizes) *KB {
	return &KB{
		syms:  t,
		exts:  make([]extRec, 0, hint.Extractions),
		arena: make([]Sym, 0, hint.IDs),
		links: make([]link, 0, hint.IDs),
		recs:  make([]pairRec, 0, hint.Pairs),
		index: make(map[uint64]uint32, hint.Pairs),
		state: make([]symState, 0, t.Len()),
	}
}

// Symbols returns the KB's name table.
func (kb *KB) Symbols() *Symbols { return kb.syms }

// Sym returns the ID of name in the KB's table, or ok=false when the
// table has never seen it (so the KB holds nothing about it).
func (kb *KB) Sym(name string) (Sym, bool) { return kb.syms.Lookup(name) }

// Name returns the name of an ID of the KB's table.
func (kb *KB) Name(s Sym) string { return kb.syms.Name(s) }

func pairKey(c, e Sym) uint64 { return uint64(c)<<32 | uint64(e) }

// Seal makes the KB read-only for good: every later AddExtraction,
// AddExtractionSyms, RemovePairs, RemovePairsNoCascade or
// RollbackExtractions call panics. A published snapshot serves its KB
// without copying it, so a mutation that would corrupt what readers see
// fails loudly instead. Clone returns an unsealed copy.
func (kb *KB) Seal() { kb.sealed = true }

// mutation starts a mutating call named op: it panics on a sealed KB.
func (kb *KB) mutation(op string) {
	if kb.sealed {
		panic("kb: " + op + " on a sealed KB: a published KB is read-only; mutate a Clone")
	}
}

// stateOf returns the state of s, zero past the end of the array.
func (kb *KB) stateOf(s Sym) symState {
	if int(s) < len(kb.state) {
		return kb.state[s]
	}
	return symState{}
}

// st returns s's state for writing, growing the array to the table's
// size when s lies past its end. The pointer is valid until the next st
// call.
func (kb *KB) st(s Sym) *symState {
	if old := len(kb.state); int(s) >= old {
		n := max(kb.syms.Len(), int(s)+1)
		kb.state = slices.Grow(kb.state, n-old)[:n]
		clear(kb.state[old:])
	}
	return &kb.state[s]
}

// ConceptDigest returns a 64-bit content digest of one concept's slice
// of the KB: the sum, mod 2⁶⁴, of one mixed term per extraction of the
// concept (over its Instances, Triggers, Iteration and Active flag) and
// one per pair record of the concept (over its instance, Count and
// FirstIter, zero-count records included). Every mutator updates it
// incrementally, so reading it is O(1).
//
// Everything the per-concept analysis artifacts read of their own
// concept — the instance list and core, the sub(e) index and the
// trigger graph — is a function of those records, so equal digests
// mean equal artifacts, on any KB of this process: the terms are keyed
// hashes of names under a per-process seed (memo.String, stored with
// each name in the table), never of IDs, so KBs on different tables
// agree, and collisions cannot be crafted through ingested text. Both
// kinds of term are needed: RemovePairs zeroes a pair's count without
// deactivating the extractions that support it. A concept the KB has
// never seen has digest 0.
func (kb *KB) ConceptDigest(concept string) uint64 {
	c, ok := kb.syms.Lookup(concept)
	if !ok {
		return 0
	}
	return kb.stateOf(c).digest
}

// foldSyms is memo.Strings over the names of ids, read from their
// stored hashes.
func (kb *KB) foldSyms(acc uint64, ids []Sym) uint64 {
	for _, s := range ids {
		acc = memo.Mix(acc + kb.syms.Hash(s))
	}
	return memo.Mix(acc + uint64(len(ids)))
}

// extractionTerm is x's term of its concept's digest.
func (kb *KB) extractionTerm(x *extRec) uint64 {
	h := kb.foldSyms(kb.foldSyms(uint64(x.iteration), kb.instances(x)), kb.triggers(x))
	if x.active {
		h++
	}
	return memo.Mix(h)
}

// pairTerm is the term of one pair record of its concept's digest,
// given the record's instance hash (memo.String).
func pairTerm(instance uint64, count, firstIter int) uint64 {
	return memo.Mix(memo.Mix(instance+uint64(count)) + uint64(firstIter))
}

func (kb *KB) span(off, n uint32) []Sym { return kb.arena[off : off+n : off+n] }

func (kb *KB) candidates(x *extRec) []Sym { return kb.span(x.off, x.nCand) }
func (kb *KB) instances(x *extRec) []Sym  { return kb.span(x.off+x.nCand, x.nInst) }
func (kb *KB) triggers(x *extRec) []Sym {
	return kb.span(x.off+x.nCand+x.nInst, x.nTrig)
}

// addDigest adds d to concept c's digest.
func (kb *KB) addDigest(c Sym, d uint64) {
	s := kb.st(c)
	s.digest += d
	s.defined = true
}

// setCount changes record i's count, keeps the whole-KB aggregates
// current, and returns the change it makes to its concept's digest.
func (kb *KB) setCount(i uint32, count int) uint64 {
	r := &kb.recs[i]
	h := kb.syms.Hash(r.instance)
	old := pairTerm(h, r.count, r.firstIter)
	switch was := r.count; {
	case was <= 0 && count > 0:
		kb.activate(r.concept)
	case was > 0 && count <= 0:
		kb.deactivate(r.concept)
	}
	r.count = count
	return pairTerm(h, r.count, r.firstIter) - old
}

// activate and deactivate record a pair count of concept c turning
// positive or reaching zero.
func (kb *KB) activate(c Sym) {
	kb.numPairs++
	kb.st(c).active++
}

func (kb *KB) deactivate(c Sym) {
	kb.numPairs--
	kb.st(c).active--
}

// AddExtraction records a resolved sentence: all instances are extracted
// under concept, enabled by the given trigger instances (nil for
// iteration-1 core extractions). The names are interned in the KB's
// table. It returns the new extraction's ID.
func (kb *KB) AddExtraction(sentenceID int, concept string, candidates, instances, triggers []string, iteration int) int {
	kb.mutation("AddExtraction")
	ids := make([]Sym, 0, len(candidates)+len(instances)+len(triggers))
	for _, names := range [][]string{candidates, instances, triggers} {
		for _, n := range names {
			ids = append(ids, kb.syms.Intern(n))
		}
	}
	nc, ni := len(candidates), len(candidates)+len(instances)
	return kb.addExtraction(sentenceID, kb.syms.Intern(concept), ids[:nc], ids[nc:ni], ids[ni:], iteration)
}

// AddExtractionSyms is AddExtraction by ID: every ID must come from the
// KB's table. The KB copies the IDs into its arena, so the caller keeps
// ownership of the slices.
func (kb *KB) AddExtractionSyms(sentenceID int, concept Sym, candidates, instances, triggers []Sym, iteration int) int {
	kb.mutation("AddExtraction")
	return kb.addExtraction(sentenceID, concept, candidates, instances, triggers, iteration)
}

func (kb *KB) addExtraction(sentenceID int, concept Sym, candidates, instances, triggers []Sym, iteration int) int {
	id := len(kb.exts)
	off := len(kb.arena)
	kb.arena = append(append(append(kb.arena, candidates...), instances...), triggers...)
	kb.exts = append(kb.exts, extRec{
		sentence:  sentenceID,
		iteration: iteration,
		concept:   concept,
		off:       uint32(off),
		nCand:     uint32(len(candidates)),
		nInst:     uint32(len(instances)),
		nTrig:     uint32(len(triggers)),
		active:    true,
	})
	d := kb.extractionTerm(&kb.exts[id])
	for _, e := range instances {
		d += kb.supportPair(concept, e, id, iteration)
	}
	kb.addDigest(concept, d)
	for _, t := range triggers {
		i := kb.recordFor(concept, t)
		kb.appendLink(&kb.recs[i].trig, id)
	}
	return id
}

// recordFor returns the record of (c, e), creating a placeholder when
// there is none.
func (kb *KB) recordFor(c, e Sym) uint32 {
	key := pairKey(c, e)
	if i, ok := kb.index[key]; ok {
		return i
	}
	i := uint32(len(kb.recs))
	kb.recs = append(kb.recs, pairRec{concept: c, instance: e})
	kb.index[key] = i
	return i
}

// makePair turns placeholder i into a pair record first supported at
// firstIter and links it into its concept's and instance's lists.
func (kb *KB) makePair(i uint32, firstIter int) {
	r := &kb.recs[i]
	r.isPair, r.firstIter = true, firstIter
	c := kb.st(r.concept)
	c.defined = true
	r.nextC, c.cHead = c.cHead, i+1
	e := kb.st(r.instance)
	r.nextI, e.iHead = e.iHead, i+1
}

func (kb *KB) appendLink(l *list, ext int) {
	kb.links = append(kb.links, link{ext: uint32(ext)})
	r := ref(len(kb.links))
	if l.tail == 0 {
		l.head = r
	} else {
		kb.links[l.tail-1].next = r
	}
	l.tail = r
}

// supportPair counts one more supporting extraction of (c, e) and
// returns the change it makes to c's digest.
func (kb *KB) supportPair(c, e Sym, ext, iteration int) uint64 {
	h := kb.syms.Hash(e)
	i := kb.recordFor(c, e)
	var delta uint64
	if !kb.recs[i].isPair {
		kb.makePair(i, iteration)
	} else {
		delta -= pairTerm(h, kb.recs[i].count, kb.recs[i].firstIter)
	}
	r := &kb.recs[i]
	r.count++
	if r.count == 1 {
		kb.activate(c)
	}
	if iteration < r.firstIter {
		r.firstIter = iteration
	}
	kb.appendLink(&r.sup, ext)
	return delta + pairTerm(h, r.count, r.firstIter)
}

// Clone returns a deep copy of the KB: mutating either copy (adding
// extractions, rolling back pairs) never affects the other. The copies
// share the name table, which only ever appends, so a clone costs one
// copy of each flat array and of the pair index. The clone is unsealed,
// even when the KB is sealed: it is how a caller gets a mutable copy of
// a published KB, and how snapshot.Freeze isolates a snapshot from a KB
// its owner keeps mutating.
func (kb *KB) Clone() *KB {
	return &KB{
		syms:     kb.syms,
		exts:     slices.Clone(kb.exts),
		arena:    slices.Clone(kb.arena),
		recs:     slices.Clone(kb.recs),
		index:    maps.Clone(kb.index),
		links:    slices.Clone(kb.links),
		state:    slices.Clone(kb.state),
		numPairs: kb.numPairs,
	}
}

// pairIndex returns the record index of the pair (c, e) when the KB
// holds a pair record (of any count) for it.
func (kb *KB) pairIndex(c, e Sym) (uint32, bool) {
	i, ok := kb.index[pairKey(c, e)]
	if !ok || !kb.recs[i].isPair {
		return 0, false
	}
	return i, true
}

// find returns the pair record of (concept, instance) by name, or nil.
func (kb *KB) find(concept, instance string) *pairRec {
	c, ok := kb.syms.Lookup(concept)
	if !ok {
		return nil
	}
	e, ok := kb.syms.Lookup(instance)
	if !ok {
		return nil
	}
	if i, ok := kb.pairIndex(c, e); ok {
		return &kb.recs[i]
	}
	return nil
}

// Has reports whether the pair is currently in the KB with positive count.
func (kb *KB) Has(concept, instance string) bool {
	r := kb.find(concept, instance)
	return r != nil && r.count > 0
}

// HasSyms is Has by ID.
func (kb *KB) HasSyms(concept, instance Sym) bool {
	i, ok := kb.index[pairKey(concept, instance)]
	return ok && kb.recs[i].count > 0
}

// Count returns the active support count of a pair (0 if absent).
func (kb *KB) Count(concept, instance string) int {
	if r := kb.find(concept, instance); r != nil {
		return r.count
	}
	return 0
}

// Record returns the pair record of (concept, instance) by ID, zero
// count included; ok=false when the KB holds none.
func (kb *KB) Record(concept, instance Sym) (Record, bool) {
	i, ok := kb.pairIndex(concept, instance)
	if !ok {
		return Record{}, false
	}
	return kb.recs[i].record(), true
}

// RecordOf is Record by name.
func (kb *KB) RecordOf(concept, instance string) (Record, bool) {
	if r := kb.find(concept, instance); r != nil {
		return r.record(), true
	}
	return Record{}, false
}

func (r *pairRec) record() Record {
	return Record{Concept: r.concept, Instance: r.instance, Count: r.count, FirstIter: r.firstIter}
}

// Info returns a copy of the state of a pair, or nil when the KB holds
// no record of it.
func (kb *KB) Info(concept, instance string) *PairInfo {
	r := kb.find(concept, instance)
	if r == nil {
		return nil
	}
	return &PairInfo{Count: r.count, FirstIter: r.firstIter, Extractions: kb.listIDs(r.sup, nil)}
}

// listIDs appends the extraction IDs of l to buf.
func (kb *KB) listIDs(l list, buf []int) []int {
	for r := l.head; r != 0; r = kb.links[r-1].next {
		buf = append(buf, int(kb.links[r-1].ext))
	}
	return buf
}

// Extraction returns, by name, the extraction with the given ID. The
// record is materialized on each call; analysis passes read
// ExtractionSyms instead.
func (kb *KB) Extraction(id int) *Extraction {
	x := &kb.exts[id]
	ex, _ := kb.extraction(id, make([]string, 0, x.nCand+x.nInst+x.nTrig))
	return &ex
}

// extraction materializes extraction id, carving its name lists from
// buf (each capped, so appending to one never reaches another; empty
// lists are nil). It returns the grown buf.
func (kb *KB) extraction(id int, buf []string) (Extraction, []string) {
	x := &kb.exts[id]
	ex := Extraction{
		ID:         id,
		SentenceID: x.sentence,
		Concept:    kb.syms.Name(x.concept),
		Iteration:  x.iteration,
		Active:     x.active,
	}
	ex.Candidates, buf = kb.names(buf, kb.candidates(x))
	ex.Instances, buf = kb.names(buf, kb.instances(x))
	ex.Triggers, buf = kb.names(buf, kb.triggers(x))
	return ex, buf
}

// names appends the names of ids to buf and returns them as a capped
// slice (nil when ids is empty) along with the grown buf.
func (kb *KB) names(buf []string, ids []Sym) ([]string, []string) {
	if len(ids) == 0 {
		return nil, buf
	}
	start := len(buf)
	for _, s := range ids {
		buf = append(buf, kb.syms.Name(s))
	}
	return buf[start:len(buf):len(buf)], buf
}

// ExtractionSyms returns the extraction with the given ID by ID,
// without allocating.
func (kb *KB) ExtractionSyms(id int) ExtractionSyms {
	x := &kb.exts[id]
	return ExtractionSyms{
		SentenceID: x.sentence,
		Concept:    x.concept,
		Candidates: kb.candidates(x),
		Instances:  kb.instances(x),
		Triggers:   kb.triggers(x),
		Iteration:  x.iteration,
		Active:     x.active,
	}
}

// NumExtractions returns the total number of recorded extractions
// (including rolled-back ones).
func (kb *KB) NumExtractions() int { return len(kb.exts) }

// Instances returns the instances currently under a concept, sorted.
func (kb *KB) Instances(concept string) []string {
	return kb.instancesWhere(concept, func(*pairRec) bool { return true })
}

// InstancesAtIteration returns instances whose first supporting extraction
// happened at or before the given iteration (E(C, i) in the paper's
// notation), sorted. Rolled-back pairs are excluded.
func (kb *KB) InstancesAtIteration(concept string, iteration int) []string {
	return kb.instancesWhere(concept, func(r *pairRec) bool { return r.firstIter <= iteration })
}

// instancesWhere lists, sorted, the names of the concept's instances
// with positive count that keep passes.
func (kb *KB) instancesWhere(concept string, keep func(*pairRec) bool) []string {
	c, ok := kb.syms.Lookup(concept)
	if !ok {
		return []string{}
	}
	st := kb.stateOf(c)
	out := make([]string, 0, st.active)
	for i := st.cHead; i != 0; i = kb.recs[i-1].nextC {
		if r := &kb.recs[i-1]; r.count > 0 && keep(r) {
			out = append(out, kb.syms.Name(r.instance))
		}
	}
	sort.Strings(out)
	return out
}

// CoreSyms returns E(C, 1), the concept's core, by ID: the instances of
// its pair records with positive count first supported in iteration 1,
// sorted by ID. As a set of names it equals
// InstancesAtIteration(concept, 1); an unknown ID has an empty core.
func (kb *KB) CoreSyms(concept Sym) []Sym {
	var out []Sym
	for i := kb.stateOf(concept).cHead; i != 0; i = kb.recs[i-1].nextC {
		if r := &kb.recs[i-1]; r.count > 0 && r.firstIter <= 1 {
			out = append(out, r.instance)
		}
	}
	slices.Sort(out)
	return out
}

// EachRecord calls fn with every pair record of the concept, zero-count
// records included, in unspecified order. It serves order-independent
// folds over a concept's records, such as memo keys and counts.
func (kb *KB) EachRecord(concept Sym, fn func(Record)) {
	for i := kb.stateOf(concept).cHead; i != 0; i = kb.recs[i-1].nextC {
		fn(kb.recs[i-1].record())
	}
}

// EachHolder calls fn with the record of every concept holding the
// instance with positive count, in unspecified order.
func (kb *KB) EachHolder(instance Sym, fn func(Record)) {
	for i := kb.stateOf(instance).iHead; i != 0; i = kb.recs[i-1].nextI {
		if r := &kb.recs[i-1]; r.count > 0 {
			fn(r.record())
		}
	}
}

// AppendTriggered appends to buf the ID of every extraction, active or
// not, in which the pair (concept, instance) served as a trigger, in ID
// order.
func (kb *KB) AppendTriggered(buf []int, concept, instance Sym) []int {
	if i, ok := kb.index[pairKey(concept, instance)]; ok {
		buf = kb.listIDs(kb.recs[i].trig, buf)
	}
	return buf
}

// Concepts returns all concepts that currently have at least one instance,
// sorted.
func (kb *KB) Concepts() []string {
	out := make([]string, 0)
	for s := range kb.state {
		if kb.state[s].active > 0 {
			out = append(out, kb.syms.Name(Sym(s)))
		}
	}
	sort.Strings(out)
	return out
}

// NumPairs returns the number of distinct pairs with positive count.
// The count is maintained by every mutator, so this is O(1).
func (kb *KB) NumPairs() int { return kb.numPairs }

// Pairs returns all active pairs, sorted by concept then instance.
func (kb *KB) Pairs() []Pair {
	out := make([]Pair, 0, kb.numPairs)
	for i := range kb.recs {
		if r := &kb.recs[i]; r.isPair && r.count > 0 {
			out = append(out, Pair{kb.syms.Name(r.concept), kb.syms.Name(r.instance)})
		}
	}
	sortPairs(out)
	return out
}

// TriggeredExtractions returns the IDs of extractions in which the pair
// served as a trigger (active and inactive).
func (kb *KB) TriggeredExtractions(concept, instance string) []int {
	c, ok := kb.syms.Lookup(concept)
	if !ok {
		return nil
	}
	e, ok := kb.syms.Lookup(instance)
	if !ok {
		return nil
	}
	return kb.AppendTriggered(nil, c, e)
}

// SubInstances returns sub(e): the set of instances whose extraction under
// the concept was triggered by e, across all active extractions where e is
// a trigger (paper Sec 2.1). The trigger itself is excluded. The result is
// sorted and never nil. It serves one-off lookups (queries, serving,
// evaluation of a single instance); an analysis pass that needs sub(e) for
// many instances of a concept reads them from one SubIndex instead.
func (kb *KB) SubInstances(concept, instance string) []string {
	var out []string
	c, okc := kb.syms.Lookup(concept)
	e, oke := kb.syms.Lookup(instance)
	if okc && oke {
		out = kb.subInstances(map[Sym]struct{}{}, c, e)
	}
	if out == nil {
		out = []string{}
	}
	return out
}

// SubIndex returns sub(e) for every active instance of the concept, keyed
// by instance, computing each list once with one reused scratch set. Each
// list is sorted and equal to SubInstances(concept, e); an instance that
// triggered nothing has no key (an absent key reads as the empty list).
// The index is a fresh map the caller owns and may share read-only across
// goroutines.
func (kb *KB) SubIndex(concept string) map[string][]string {
	out := make(map[string][]string)
	c, ok := kb.syms.Lookup(concept)
	if !ok {
		return out
	}
	seen := make(map[Sym]struct{})
	for i := kb.stateOf(c).cHead; i != 0; i = kb.recs[i-1].nextC {
		r := &kb.recs[i-1]
		if r.count <= 0 {
			continue
		}
		if subs := kb.subInstances(seen, c, r.instance); subs != nil {
			out[kb.syms.Name(r.instance)] = subs
		}
	}
	return out
}

// subInstances computes sorted sub(e) using seen as scratch (cleared
// first), returning nil when sub(e) is empty.
func (kb *KB) subInstances(seen map[Sym]struct{}, c, e Sym) []string {
	clear(seen)
	i, ok := kb.index[pairKey(c, e)]
	if !ok {
		return nil
	}
	for l := kb.recs[i].trig.head; l != 0; l = kb.links[l-1].next {
		x := &kb.exts[kb.links[l-1].ext]
		if !x.active {
			continue
		}
		trig := kb.triggers(x)
		for _, s := range kb.instances(x) {
			if s != e && !slices.Contains(trig, s) {
				seen[s] = struct{}{}
			}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, kb.syms.Name(s))
	}
	sort.Strings(out)
	return out
}

// ConceptsOfInstance returns all concepts currently holding the instance
// with positive count, sorted; nil when none does. The list is built
// from the instance's records on each call and belongs to the caller.
func (kb *KB) ConceptsOfInstance(instance string) []string {
	e, ok := kb.syms.Lookup(instance)
	if !ok {
		return nil
	}
	var out []string
	kb.EachHolder(e, func(r Record) { out = append(out, kb.syms.Name(r.Concept)) })
	sort.Strings(out)
	return out
}

// RollbackResult reports the effect of a roll-back cascade.
type RollbackResult struct {
	PairsRemoved       []Pair
	ExtractionsRolled  int
	CascadeDepth       int
	CountsDecremented  int
	InitiallyRequested int
}

// removeAll force-removes the listed pairs that are present with
// positive count, zeroing their counts regardless of support, and
// returns their records.
func (kb *KB) removeAll(pairs []Pair, res *RollbackResult) []uint32 {
	queue := make([]uint32, 0, len(pairs))
	for _, p := range pairs {
		c, okc := kb.syms.Lookup(p.Concept)
		e, oke := kb.syms.Lookup(p.Instance)
		if !okc || !oke {
			continue
		}
		i, ok := kb.pairIndex(c, e)
		if !ok || kb.recs[i].count <= 0 {
			continue
		}
		res.CountsDecremented += kb.recs[i].count
		kb.addDigest(c, kb.setCount(i, 0))
		queue = append(queue, i)
		res.PairsRemoved = append(res.PairsRemoved, p)
	}
	return queue
}

// RemovePairs removes the given pairs outright and rolls back the cascade
// of extractions they enabled (paper Sec 4.2): every extraction all of
// whose triggers are gone is deactivated; deactivation decrements the
// counts of its extracted pairs; pairs reaching zero are removed and the
// process repeats until a fixpoint.
func (kb *KB) RemovePairs(pairs []Pair) RollbackResult {
	kb.mutation("RemovePairs")
	res := RollbackResult{InitiallyRequested: len(pairs)}
	kb.cascade(kb.removeAll(pairs, &res), &res)
	sortPairs(res.PairsRemoved)
	return res
}

// RemovePairsNoCascade removes the given pairs outright without rolling
// back the extractions they enabled — the "one-shot removal" ablation
// contrasted with the paper's Sec 4.2 cascade.
func (kb *KB) RemovePairsNoCascade(pairs []Pair) RollbackResult {
	kb.mutation("RemovePairsNoCascade")
	res := RollbackResult{InitiallyRequested: len(pairs)}
	kb.removeAll(pairs, &res)
	sortPairs(res.PairsRemoved)
	return res
}

// RollbackExtractions deactivates the given extractions directly (used for
// Intentional-DP sentence-level cleaning, Sec 4.1) and cascades.
func (kb *KB) RollbackExtractions(ids []int) RollbackResult {
	kb.mutation("RollbackExtractions")
	var res RollbackResult
	res.InitiallyRequested = len(ids)
	queue := make([]uint32, 0)
	for _, id := range ids {
		if !kb.exts[id].active {
			continue
		}
		queue = append(queue, kb.rollbackExtraction(id, &res)...)
	}
	kb.cascade(queue, &res)
	return res
}

// cascade rolls back, level by level, every active extraction that a
// zeroed record in queue triggered and that has no living trigger left,
// until no further record reaches zero.
func (kb *KB) cascade(queue []uint32, res *RollbackResult) {
	depth := 0
	for len(queue) > 0 {
		depth++
		var next []uint32
		for _, i := range queue {
			for r := kb.recs[i].trig.head; r != 0; r = kb.links[r-1].next {
				id := int(kb.links[r-1].ext)
				if x := &kb.exts[id]; !x.active || kb.anyTriggerAlive(x) {
					continue
				}
				next = append(next, kb.rollbackExtraction(id, res)...)
			}
		}
		queue = next
		if len(next) > 0 {
			res.CascadeDepth = depth
		}
	}
}

// anyTriggerAlive reports whether at least one trigger pair of x is still
// present — extractions remain supported while any trigger survives.
func (kb *KB) anyTriggerAlive(x *extRec) bool {
	for _, t := range kb.triggers(x) {
		if kb.HasSyms(x.concept, t) {
			return true
		}
	}
	return x.nTrig == 0 // core extractions have no triggers and never cascade away
}

// rollbackExtraction deactivates extraction id, decrements its pairs and
// returns the records whose count reached zero.
func (kb *KB) rollbackExtraction(id int, res *RollbackResult) []uint32 {
	x := &kb.exts[id]
	d := -kb.extractionTerm(x)
	x.active = false
	d += kb.extractionTerm(x)
	res.ExtractionsRolled++
	var zeroed []uint32
	for _, e := range kb.instances(x) {
		i, ok := kb.pairIndex(x.concept, e)
		if !ok || kb.recs[i].count <= 0 {
			continue
		}
		d += kb.setCount(i, kb.recs[i].count-1)
		res.CountsDecremented++
		if kb.recs[i].count == 0 {
			zeroed = append(zeroed, i)
			res.PairsRemoved = append(res.PairsRemoved, Pair{kb.syms.Name(x.concept), kb.syms.Name(e)})
		}
	}
	kb.addDigest(x.concept, d)
	return zeroed
}

// Stats returns aggregate KB statistics.
type Stats struct {
	DistinctPairs     int
	TotalCount        int
	Concepts          int
	ActiveExtractions int
}

// Stats computes the current aggregate statistics.
func (kb *KB) Stats() Stats {
	var s Stats
	for i := range kb.state {
		if kb.state[i].active > 0 {
			s.Concepts++
		}
	}
	for i := range kb.recs {
		if r := &kb.recs[i]; r.isPair && r.count > 0 {
			s.DistinctPairs++
			s.TotalCount += r.count
		}
	}
	for i := range kb.exts {
		if kb.exts[i].active {
			s.ActiveExtractions++
		}
	}
	return s
}

// recomputeDigests builds every concept's digest from scratch, by name.
func (kb *KB) recomputeDigests() map[string]uint64 {
	out := make(map[string]uint64)
	for i := range kb.exts {
		x := &kb.exts[i]
		out[kb.syms.Name(x.concept)] += kb.extractionTerm(x)
	}
	for i := range kb.recs {
		if r := &kb.recs[i]; r.isPair {
			out[kb.syms.Name(r.concept)] += pairTerm(kb.syms.Hash(r.instance), r.count, r.firstIter)
		}
	}
	return out
}
