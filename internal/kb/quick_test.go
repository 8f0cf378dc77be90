package kb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// randomKB builds a random but structurally valid KB: core extractions
// first, then triggered extractions whose triggers are existing pairs.
func randomKB(seed int64) *KB {
	rng := rand.New(rand.NewSource(seed))
	k := New()
	concepts := []string{"c0", "c1", "c2"}
	instOf := func(i int) string { return fmt.Sprintf("e%d", i) }
	nInst := 12 + rng.Intn(20)
	// Core extractions.
	for s := 0; s < 8; s++ {
		c := concepts[rng.Intn(len(concepts))]
		var insts []string
		for j := 0; j < 1+rng.Intn(3); j++ {
			insts = append(insts, instOf(rng.Intn(nInst)))
		}
		k.AddExtraction(s, c, nil, dedupStr(insts), nil, 1)
	}
	// Triggered extractions.
	for s := 8; s < 40; s++ {
		c := concepts[rng.Intn(len(concepts))]
		known := k.Instances(c)
		if len(known) == 0 {
			continue
		}
		trigger := known[rng.Intn(len(known))]
		var insts []string
		for j := 0; j < 1+rng.Intn(3); j++ {
			insts = append(insts, instOf(rng.Intn(nInst)))
		}
		insts = append(insts, trigger)
		k.AddExtraction(s, c, nil, dedupStr(insts), []string{trigger}, 2+rng.Intn(3))
	}
	return k
}

func dedupStr(xs []string) []string {
	seen := map[string]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// checkInvariants asserts the structural invariants every KB state must
// satisfy. Note that an *active* extraction may reference a force-removed
// pair: Sec 4.2 removes pairs, not the sentences that merely contain
// them — only extractions whose triggers are all gone roll back.
func checkInvariants(k *KB) error {
	for _, p := range k.Pairs() {
		info := k.Info(p.Concept, p.Instance)
		if info.Count <= 0 {
			return fmt.Errorf("active pair %v with count %d", p, info.Count)
		}
		// Count never exceeds the active supporting extractions (forced
		// removals can push it below, never above).
		active := 0
		for _, exID := range info.Extractions {
			if k.Extraction(exID).Active {
				active++
			}
		}
		if info.Count > active {
			return fmt.Errorf("pair %v count %d above %d active extractions", p, info.Count, active)
		}
	}
	// The Sec 4.2 fixpoint: no active triggered extraction may survive
	// with every trigger removed.
	for id := 0; id < k.NumExtractions(); id++ {
		ex := k.Extraction(id)
		if !ex.Active || len(ex.Triggers) == 0 {
			continue
		}
		alive := false
		for _, t := range ex.Triggers {
			if k.Has(ex.Concept, t) {
				alive = true
				break
			}
		}
		if !alive {
			return fmt.Errorf("active extraction %d has no living trigger", id)
		}
	}
	return nil
}

// Property: invariants hold after construction and after arbitrary
// removal cascades.
func TestQuickInvariantsUnderRemoval(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		k := randomKB(seed)
		if err := checkInvariants(k); err != nil {
			t.Log(err)
			return false
		}
		pairs := k.Pairs()
		if len(pairs) == 0 {
			return true
		}
		k.RemovePairs([]Pair{pairs[int(which)%len(pairs)]})
		if err := checkInvariants(k); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: SubIndex agrees with SubInstances on random KBs after every
// step of a random mutation sequence mixing cascading removals, direct
// rollbacks, no-cascade removals and re-support of zeroed pairs.
func TestQuickSubIndexMatchesSubInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := randomKB(seed)
		if err := checkSubIndex(k); err != nil {
			t.Log(err)
			return false
		}
		for step := 0; step < 6; step++ {
			pairs := k.Pairs()
			switch op := rng.Intn(4); {
			case op == 0 && len(pairs) > 0:
				k.RemovePairs([]Pair{pairs[rng.Intn(len(pairs))]})
			case op == 1:
				k.RollbackExtractions([]int{rng.Intn(k.NumExtractions())})
			case op == 2 && len(pairs) > 0:
				k.RemovePairsNoCascade([]Pair{pairs[rng.Intn(len(pairs))]})
			default:
				var zeroed []Pair
				for _, r := range k.recs {
					if r.isPair && r.count == 0 {
						zeroed = append(zeroed, Pair{k.Name(r.concept), k.Name(r.instance)})
					}
				}
				if len(zeroed) == 0 {
					continue
				}
				sort.Slice(zeroed, func(i, j int) bool {
					return zeroed[i].Concept+"\x00"+zeroed[i].Instance < zeroed[j].Concept+"\x00"+zeroed[j].Instance
				})
				p := zeroed[rng.Intn(len(zeroed))]
				k.AddExtraction(100+step, p.Concept, nil, []string{p.Instance}, nil, 5)
			}
			if err := checkSubIndex(k); err != nil {
				t.Logf("step %d: %v", step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: removing all pairs empties the KB entirely.
func TestQuickTotalRemovalEmptiesKB(t *testing.T) {
	f := func(seed int64) bool {
		k := randomKB(seed)
		k.RemovePairs(k.Pairs())
		return k.NumPairs() == 0 && checkInvariants(k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: RemovePairs is idempotent — a second identical call changes
// nothing.
func TestQuickRemovalIdempotent(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		k := randomKB(seed)
		pairs := k.Pairs()
		if len(pairs) == 0 {
			return true
		}
		target := []Pair{pairs[int(which)%len(pairs)]}
		k.RemovePairs(target)
		statsAfter := k.Stats()
		res := k.RemovePairs(target)
		return len(res.PairsRemoved) == 0 && k.Stats() == statsAfter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: persistence round-trips commute with removal — removing a
// pair before saving equals removing it after loading.
func TestQuickPersistCommutesWithRemoval(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		k1 := randomKB(seed)
		k2 := roundTripQuick(k1)
		pairs := k1.Pairs()
		if len(pairs) == 0 {
			return true
		}
		target := []Pair{pairs[int(which)%len(pairs)]}
		k1.RemovePairs(target)
		k2.RemovePairs(target)
		if k1.NumPairs() != k2.NumPairs() || k1.Stats() != k2.Stats() {
			return false
		}
		return checkInvariants(k2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// roundTripQuick rebuilds k from its exported state (Export → Build),
// the path every snapshot load ends in.
func roundTripQuick(k *KB) *KB {
	got, err := Build(k.Export())
	if err != nil {
		panic(err)
	}
	return got
}

// Property: CoreOf over a concept's Instances list equals
// InstancesAtIteration(concept, 1), before and after a cascading
// removal and a direct rollback.
func TestQuickCoreOfMatchesInstancesAtIteration(t *testing.T) {
	check := func(k *KB) bool {
		for _, c := range k.Concepts() {
			got, want := k.CoreOf(c, k.Instances(c)), k.InstancesAtIteration(c, 1)
			if !reflect.DeepEqual(got, want) {
				t.Logf("%s: CoreOf = %v, InstancesAtIteration = %v", c, got, want)
				return false
			}
		}
		return true
	}
	f := func(seed int64, which uint8) bool {
		k := randomKB(seed)
		if !check(k) {
			return false
		}
		if pairs := k.Pairs(); len(pairs) > 0 {
			k.RemovePairs([]Pair{pairs[int(which)%len(pairs)]})
		}
		k.RollbackExtractions([]int{int(which) % k.NumExtractions()})
		return check(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
