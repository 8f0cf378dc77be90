package rank

import (
	"math"
	"testing"

	"driftclean/internal/corpus"
	"driftclean/internal/extract"
	"driftclean/internal/kb"
	"driftclean/internal/world"
)

// smokeKB extracts the drifted KB of the benchmark's smoke scale: the
// default world over 6,000 sentences.
func smokeKB(t testing.TB) *kb.KB {
	t.Helper()
	w := world.New(world.DefaultConfig())
	ccfg := corpus.DefaultConfig()
	ccfg.NumSentences = 6000
	return extract.Run(corpus.Generate(w, ccfg), extract.DefaultConfig()).KB
}

// referenceRandomWalk is RandomWalk as it was before the teleport loop
// was restricted to the restart support: every dangling node adds its
// share to every node, restart weight zero or not. The exactness tests
// compare RandomWalk against it bit for bit.
func referenceRandomWalk(g *Graph, cfg Config) Scores {
	n := len(g.Nodes)
	out := make(Scores, n)
	if n == 0 {
		return out
	}
	restart := make([]float64, n)
	var mass float64
	for i, isCore := range g.Core {
		if isCore {
			restart[i] = g.CoreWeight[i]
			if restart[i] <= 0 {
				restart[i] = 1
			}
			mass += restart[i]
		}
	}
	if mass == 0 {
		for i := range restart {
			restart[i] = 1
		}
		mass = float64(n)
	}
	for i := range restart {
		restart[i] /= mass
	}
	outWeight := make([]float64, n)
	for i, edges := range g.Out {
		for _, e := range edges {
			outWeight[i] += e.Weight
		}
	}
	p := append([]float64(nil), restart...)
	next := make([]float64, n)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for i := range next {
			next[i] = cfg.Restart * restart[i]
		}
		for i, edges := range g.Out {
			if p[i] == 0 {
				continue
			}
			if outWeight[i] == 0 {
				for j := range next {
					next[j] += (1 - cfg.Restart) * p[i] * restart[j]
				}
				continue
			}
			share := (1 - cfg.Restart) * p[i] / outWeight[i]
			for _, e := range edges {
				next[e.To] += share * e.Weight
			}
		}
		if l1Delta(p, next) < cfg.Tol {
			p, next = next, p
			break
		}
		p, next = next, p
	}
	for i, e := range g.Nodes {
		out[e] = p[i]
	}
	return out
}

// checkWalkBits fails the test unless RandomWalk and the reference walk
// agree bit for bit on every node of g.
func checkWalkBits(t *testing.T, g *Graph) {
	t.Helper()
	got := RandomWalk(g, DefaultConfig())
	want := referenceRandomWalk(g, DefaultConfig())
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, reference has %d", g.Concept, len(got), len(want))
	}
	for e, w := range want {
		if math.Float64bits(got[e]) != math.Float64bits(w) {
			t.Fatalf("%s: score of %s = %v, reference %v", g.Concept, e, got[e], w)
		}
	}
}

// TestRandomWalkMatchesReference pins the support-restricted teleport
// to the full O(n·dangling) loop on every concept graph of the smoke
// KB, on a graph with no core (the support is then every node) and on a
// graph where every node dangles.
func TestRandomWalkMatchesReference(t *testing.T) {
	k := smokeKB(t)
	dangling := 0
	for _, c := range k.Concepts() {
		g := BuildGraph(k, c)
		for i := range g.Nodes {
			if len(g.Out[i]) == 0 && !g.Core[i] {
				dangling++
			}
		}
		checkWalkBits(t, g)
	}
	if dangling == 0 {
		t.Fatal("premise: the smoke KB has no dangling non-core node")
	}

	noCore := BuildGraph(chainKB(), "animal")
	for i := range noCore.Core {
		noCore.Core[i], noCore.CoreWeight[i] = false, 0
	}
	checkWalkBits(t, noCore)

	allDangle := kb.New()
	allDangle.AddExtraction(1, "c", nil, []string{"a", "b"}, nil, 1)
	allDangle.AddExtraction(2, "c", nil, []string{"x", "y", "z"}, nil, 2)
	g := BuildGraph(allDangle, "c")
	for i := range g.Nodes {
		if len(g.Out[i]) != 0 {
			t.Fatalf("premise: %s has out-edges", g.Nodes[i])
		}
	}
	checkWalkBits(t, g)
}

// TestBuildGraphCoreMatchesIteration1 pins BuildGraph's restart set,
// read off the sorted node list, to E(C, 1) as InstancesAtIteration
// lists it, with the log-damped support count as weight: on every
// concept of the smoke KB, Core and CoreWeight match bit for bit, and
// so does the graph Signature the walk memo keys on.
func TestBuildGraphCoreMatchesIteration1(t *testing.T) {
	k := smokeKB(t)
	for _, c := range k.Concepts() {
		g := BuildGraph(k, c)
		want := &Graph{
			Nodes:      g.Nodes,
			Out:        g.Out,
			Core:       make([]bool, len(g.Nodes)),
			CoreWeight: make([]float64, len(g.Nodes)),
		}
		for _, e := range k.InstancesAtIteration(c, 1) {
			i := g.Index[e]
			want.Core[i] = true
			want.CoreWeight[i] = math.Log2(1 + float64(k.Count(c, e)))
		}
		for i, e := range g.Nodes {
			if g.Core[i] != want.Core[i] || math.Float64bits(g.CoreWeight[i]) != math.Float64bits(want.CoreWeight[i]) {
				t.Fatalf("%s/%s: core %v weight %v, want %v weight %v", c, e, g.Core[i], g.CoreWeight[i], want.Core[i], want.CoreWeight[i])
			}
		}
		if g.Signature() != want.Signature() {
			t.Fatalf("%s: signature differs from the InstancesAtIteration core", c)
		}
	}
}
