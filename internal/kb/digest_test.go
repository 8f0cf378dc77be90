package kb_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"driftclean/internal/bench"
	"driftclean/internal/core"
	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/rank"
)

// digestOps drives a random mutation sequence through the KB's
// exported API: core and triggered extractions, cascading and
// no-cascade removals, direct rollbacks, and — every sequence — a pair
// force-removed and then supported again, whose removal must change its
// concept's digest. Every step is applied in lockstep to two KBs: one
// on a name table of its own (kb.New) and one on a shared table that
// already holds other names, interned in another order, so every name
// has a different ID in the two. check runs on both after every step,
// and the two must answer every query alike (sameAnswers).
func digestOps(t *testing.T, seed int64, check func(step string, k *kb.KB) bool) bool {
	rng := rand.New(rand.NewSource(seed))
	concepts := []string{"c0", "c1", "c2"}
	nInst := 10 + rng.Intn(15)
	inst := func() string { return fmt.Sprintf("e%d", rng.Intn(nInst)) }
	k := kb.New()
	shared := kb.NewSymbols()
	for i := 40; i >= 0; i-- {
		shared.Intern(fmt.Sprintf("other%d", i))
		shared.Intern(fmt.Sprintf("e%d", i))
	}
	shared.Intern("c2")
	ks := kb.NewWithSymbols(shared, kb.Sizes{})
	both := func(op func(k *kb.KB)) {
		op(k)
		op(ks)
	}
	checkBoth := func(step string) bool {
		return check(step, k) && check(step+" (shared table)", ks) && sameAnswers(t, step, k, ks)
	}
	sentence := 0
	add := func() {
		c := concepts[rng.Intn(len(concepts))]
		insts := []string{inst(), inst()}
		if insts[0] == insts[1] {
			insts = insts[:1]
		}
		known := k.Instances(c)
		if len(known) == 0 || rng.Intn(3) == 0 {
			both(func(k *kb.KB) { k.AddExtraction(sentence, c, concepts, insts, nil, 1) })
		} else {
			trig := known[rng.Intn(len(known))]
			iter := 2 + rng.Intn(3)
			both(func(k *kb.KB) { k.AddExtraction(sentence, c, concepts, append(insts, trig), []string{trig}, iter) })
		}
		sentence++
	}
	for i := 0; i < 12; i++ {
		add()
	}
	if !checkBoth("build") {
		return false
	}
	resupport := 4 + rng.Intn(8)
	for step := 0; step < 16; step++ {
		pairs := k.Pairs()
		var what string
		switch op := rng.Intn(5); {
		case step == resupport && len(pairs) > 0:
			p := pairs[rng.Intn(len(pairs))]
			before := k.ConceptDigest(p.Concept)
			both(func(k *kb.KB) { k.RemovePairs([]kb.Pair{p}) })
			if k.ConceptDigest(p.Concept) == before {
				t.Logf("step %d: forced removal of %v left its concept's digest unchanged", step, p)
				return false
			}
			if !checkBoth("force-remove " + p.String()) {
				return false
			}
			iter := 1 + rng.Intn(3)
			both(func(k *kb.KB) { k.AddExtraction(sentence, p.Concept, nil, []string{p.Instance}, nil, iter) })
			sentence++
			what = "re-support " + p.String()
		case op == 0 && len(pairs) > 0:
			p := pairs[rng.Intn(len(pairs))]
			both(func(k *kb.KB) { k.RemovePairs([]kb.Pair{p}) })
			what = "remove " + p.String()
		case op == 1 && len(pairs) > 0:
			p := pairs[rng.Intn(len(pairs))]
			both(func(k *kb.KB) { k.RemovePairsNoCascade([]kb.Pair{p}) })
			what = "remove without cascade " + p.String()
		case op == 2:
			id := rng.Intn(k.NumExtractions())
			both(func(k *kb.KB) { k.RollbackExtractions([]int{id}) })
			what = fmt.Sprintf("roll back extraction %d", id)
		default:
			add()
			what = "add"
		}
		if !checkBoth(fmt.Sprintf("step %d (%s)", step, what)) {
			return false
		}
	}
	return true
}

// answers renders everything a reader can ask a KB, by name: every View
// method over every concept and every instance an extraction mentions,
// plus Pairs, every ConceptDigest, NumPairs, the digests and the
// benchmark fingerprint.
func answers(k *kb.KB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%q\n%v\nnumPairs=%d\n%v\n%s\n",
		k.Stats(), k.Concepts(), k.Pairs(), k.NumPairs(), k.Digests(), bench.Fingerprint(k))
	seen := map[string]bool{}
	var instances []string
	for id := 0; id < k.NumExtractions(); id++ {
		fmt.Fprintf(&b, "ex %+v\n", *k.Extraction(id))
		for _, e := range k.Extraction(id).Instances {
			if !seen[e] {
				seen[e] = true
				instances = append(instances, e)
			}
		}
	}
	slices.Sort(instances)
	for _, c := range []string{"c0", "c1", "c2", "never-seen"} {
		fmt.Fprintf(&b, "%s: digest=%x instances=%q drift=%v\n",
			c, k.ConceptDigest(c), k.Instances(c), k.DriftDepth(c))
		for _, e := range instances {
			ex, ok := k.Explain(c, e, 0)
			fmt.Fprintf(&b, "  %s: has=%v count=%d subs=%q explain=%v %+v\n",
				e, k.Has(c, e), k.Count(c, e), k.SubInstances(c, e), ok, ex)
		}
	}
	for _, e := range append(instances, "never-seen") {
		fmt.Fprintf(&b, "%s isA %q\n", e, k.ConceptsOfInstance(e))
	}
	return b.String()
}

// sameAnswers reports whether the shared-table KB ks answers every
// query as the private-table KB k does, itself and through every reload
// path.
func sameAnswers(t *testing.T, step string, k, ks *kb.KB) bool {
	want := answers(k)
	if got := answers(ks); got != want {
		t.Logf("%s: the shared-table KB answers\n%s\nthe private-table KB\n%s", step, got, want)
		return false
	}
	copies := reloads(t, ks)
	if copies == nil {
		return false
	}
	for path, c := range copies {
		if got := answers(c); got != want {
			t.Logf("%s: the shared-table KB via %s answers\n%s\nthe private-table KB\n%s", step, path, got, want)
			return false
		}
	}
	return true
}

// reloads returns k copied through every path that rebuilds a KB: a
// Clone and a binary snapshot materialized back into a KB (View.ToKB →
// Build). It returns nil after logging the error if a path fails.
func reloads(t *testing.T, k *kb.KB) map[string]*kb.KB {
	data, err := binsnap.Encode(k)
	if err != nil {
		t.Log(err)
		return nil
	}
	v, err := binsnap.Decode(data)
	if err != nil {
		t.Log(err)
		return nil
	}
	bin, err := v.ToKB()
	if err != nil {
		t.Log(err)
		return nil
	}
	return map[string]*kb.KB{"Clone": k.Clone(), "binsnap ToKB": bin}
}

// TestQuickDigestMatchesRecompute: after every step of a random
// mutation sequence, the incrementally maintained concept digests equal
// a from-scratch recompute, and every reload path carries the same
// digests.
func TestQuickDigestMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		return digestOps(t, seed, func(step string, k *kb.KB) bool {
			want := k.Digests()
			if got := k.RecomputedDigests(); !maps.Equal(got, want) {
				t.Logf("%s: incremental digests %v, recomputed %v", step, want, got)
				return false
			}
			copies := reloads(t, k)
			if copies == nil {
				return false
			}
			for path, c := range copies {
				if got := c.Digests(); !maps.Equal(got, want) {
					t.Logf("%s: %s digests %v, want %v", step, path, got, want)
					return false
				}
			}
			return true
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// indexMatchesScan reports whether k's maintained NumPairs and
// ConceptsOfInstance equal a from-scratch scan of its pair records
// (kb.Pairs), for every instance an extraction mentions: nil for an
// instance no concept holds, else its holders in concept order.
func indexMatchesScan(t *testing.T, what string, k *kb.KB) bool {
	pairs := k.Pairs()
	want := map[string][]string{}
	for _, p := range pairs {
		want[p.Instance] = append(want[p.Instance], p.Concept)
	}
	if got := k.NumPairs(); got != len(pairs) {
		t.Logf("%s: NumPairs %d, scan %d", what, got, len(pairs))
		return false
	}
	for id := 0; id < k.NumExtractions(); id++ {
		for _, e := range k.Extraction(id).Instances {
			got := k.ConceptsOfInstance(e)
			if !slices.Equal(got, want[e]) || (got == nil) != (want[e] == nil) {
				t.Logf("%s: ConceptsOfInstance(%q) = %#v, scan %#v", what, e, got, want[e])
				return false
			}
		}
	}
	return true
}

// TestQuickIndexMatchesScan: after every step of the same random
// mutation sequences — the force-removed-then-resupported pair included
// — the KB's maintained active-pair count and instance → concepts
// index equal a from-scratch scan of its pair records, on the KB itself
// and on every reload path.
func TestQuickIndexMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		return digestOps(t, seed, func(step string, k *kb.KB) bool {
			if !indexMatchesScan(t, step, k) {
				return false
			}
			copies := reloads(t, k)
			if copies == nil {
				return false
			}
			for path, c := range copies {
				if !indexMatchesScan(t, step+" via "+path, c) {
					return false
				}
			}
			return true
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// digestConfig is a small world cleaned at the default round cap, so
// its checkpoints pass through several round states.
func digestConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.World.NumDomains = 2
	cfg.World.InstancesPerConceptMin = 40
	cfg.World.InstancesPerConceptMax = 80
	cfg.Corpus.NumSentences = 6000
	return cfg
}

// TestDigestKeysArtifactsAcrossCheckpoints is the soundness side of
// keying per-concept artifacts on kb.ConceptDigest, at pipeline scale:
// over a bulk checkpoint, three one-sentence checkpoints and an empty
// one, every KB state a cleaning round starts from (and every final
// state) is recorded per concept, and whenever a concept's digest
// repeats — in a later round or a later checkpoint's fresh KB — its
// Instances, core (CoreSyms, by name), SubIndex and trigger-graph Signature must repeat
// too.
func TestDigestKeysArtifactsAcrossCheckpoints(t *testing.T) {
	type key struct {
		concept string
		digest  uint64
	}
	seen := map[key]string{}
	repeats, states := 0, 0
	var sys *core.System
	record := func() {
		k := sys.KB
		states++
		for _, c := range k.Concepts() {
			instances := k.Instances(c)
			s, _ := k.Sym(c)
			var core []string
			for _, e := range k.CoreSyms(s) {
				core = append(core, k.Name(e))
			}
			slices.Sort(core)
			art := fmt.Sprintf("%q|%q|%v|%x", instances, core, k.SubIndex(c),
				rank.BuildGraph(k, c).Signature())
			id := key{c, k.ConceptDigest(c)}
			if prev, ok := seen[id]; ok {
				repeats++
				if prev != art {
					t.Fatalf("state %d: concept %q has digest %x again, but its artifacts differ:\n%s\nvs\n%s",
						states, c, id.digest, prev, art)
				}
				continue
			}
			seen[id] = art
		}
	}
	cfg := digestConfig()
	cfg.Clean.OnRound = func(int) bool {
		record()
		return false
	}
	sys = core.Prepare(cfg)
	ing := core.NewIngestor(sys, core.DetectMultiTask)
	sentences := sys.Corpus.Sentences
	bulk := len(sentences) - 3
	batches := [][]int{{0, bulk}, {bulk, bulk + 1}, {bulk + 1, bulk + 2}, {bulk + 2, bulk + 3}, {bulk + 3, bulk + 3}}
	for _, b := range batches {
		if _, err := ing.Ingest(sentences[b[0]:b[1]], nil); err != nil {
			t.Fatal(err)
		}
		record()
	}
	if repeats == 0 || len(seen) <= len(sys.KB.Concepts()) {
		t.Fatalf("premise: want repeated and changing digests, got %d repeats over %d (concept, digest) keys in %d states",
			repeats, len(seen), states)
	}
	t.Logf("%d KB states, %d (concept, digest) keys, %d repeats checked", states, len(seen), repeats)
}
