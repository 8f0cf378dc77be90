// Package rank implements the three instance-scoring models the paper
// compares in Sec 5.2 (Table 2) and uses inside features f3 and f4:
//
//   - Frequency: score proportional to the pair's support count;
//   - PageRank: classic PageRank over the *undirected* trigger graph,
//     exactly the paper's "same graph ... except that the edges are
//     undirected" variant;
//   - Random Walk with Restart: the paper's chosen model (Tong et al.,
//     ICDM 2006) — walks start from the concept's first-iteration (core)
//     instances and follow directed trigger edges, so an instance's score
//     is the probability of reaching it from trusted seeds.
//
// All models operate per concept on the trigger graph recorded in the KB.
package rank

import (
	"math"
	"slices"
	"sort"

	"driftclean/internal/floats"
	"driftclean/internal/kb"
)

// Graph is the per-concept trigger graph: nodes are instances under the
// concept, and a directed edge u->v exists when u triggered the extraction
// of v in some active extraction.
type Graph struct {
	Concept string
	Nodes   []string
	Index   map[string]int
	// Out[i] lists (neighbor index, weight) edges. Weight is the number
	// of distinct active extractions in which the trigger relation held.
	Out [][]Edge
	In  [][]Edge
	// Core marks first-iteration instances (random-walk restart set);
	// CoreWeight carries their support counts, so restart mass is
	// proportional to first-iteration evidence — a count-1 mis-parse in
	// the core receives almost no trust.
	Core       []bool
	CoreWeight []float64
}

// Edge is a weighted adjacency entry.
type Edge struct {
	To     int
	Weight float64
}

// BuildGraph constructs the trigger graph of a concept from the KB.
//
// Adjacency is accumulated per node, CSR style: edge weights build up in
// a scratch counter array (float64 increments of small integers commute
// exactly, so the counts match the old global-map accumulation bit for
// bit), each node's neighbor list is sorted as it is emitted, and both
// Out and In share one flat edge array each instead of a map entry plus
// a slice per node. Edge order is identical to the previous
// sort-by-(from,to) formulation: sources are visited in ascending index
// order and each neighbor list is sorted ascending.
func BuildGraph(k *kb.KB, concept string) *Graph {
	// The nodes are the concept's active pair records, read by ID and
	// listed in name order.
	var recs []kb.Record
	c, known := k.Sym(concept)
	if known {
		k.EachRecord(c, func(r kb.Record) {
			if r.Count > 0 {
				recs = append(recs, r)
			}
		})
	}
	sort.Slice(recs, func(i, j int) bool { return k.Name(recs[i].Instance) < k.Name(recs[j].Instance) })
	n := len(recs)
	g := &Graph{
		Concept: concept,
		Nodes:   make([]string, n),
		Index:   make(map[string]int, n),
	}
	index := make(map[kb.Sym]int, n)
	g.Out = make([][]Edge, n)
	g.In = make([][]Edge, n)
	g.Core = make([]bool, n)
	g.CoreWeight = make([]float64, n)
	for i, r := range recs {
		name := k.Name(r.Instance)
		g.Nodes[i] = name
		g.Index[name] = i
		index[r.Instance] = i
		// The core is E(C,1): the active instances first extracted in
		// iteration 1.
		if r.FirstIter <= 1 {
			g.Core[i] = true
			// Log-damped evidence: a count-1 mis-parse in the core gets a
			// sliver of restart mass, a well-attested head gets several
			// times more, but no single popular instance dominates the
			// restart distribution.
			g.CoreWeight[i] = math.Log2(1 + float64(r.Count))
		}
	}

	counts := make([]float64, n) // scratch: weight accumulator per target
	touched := make([]int, 0, 16)
	// Edge counts are ~constant-degree in practice; 4n absorbs the first
	// few growth doublings without over-reserving on sparse graphs.
	outFlat := make([]Edge, 0, 4*n)
	outStart := make([]int, n+1)
	inDeg := make([]int, n)
	var triggered []int
	for u, r := range recs {
		touched = touched[:0]
		e := r.Instance
		triggered = k.AppendTriggered(triggered[:0], c, e)
		// Extractions are read by ID, so a visit allocates nothing.
		for _, exID := range triggered {
			ex := k.ExtractionSyms(exID)
			if !ex.Active {
				continue
			}
			for _, sub := range ex.Instances {
				if sub == e {
					continue
				}
				v, ok := index[sub]
				if !ok {
					continue // rolled back
				}
				if slices.Contains(ex.Triggers, sub) {
					continue
				}
				if counts[v] == 0 {
					touched = append(touched, v)
				}
				counts[v]++
			}
		}
		sort.Ints(touched)
		outStart[u] = len(outFlat)
		for _, v := range touched {
			// Log damping keeps a polysemous bridge's heavy repeat-trigger
			// edges from funneling its entire mass into the drift cluster.
			outFlat = append(outFlat, Edge{To: v, Weight: math.Log2(1 + counts[v])})
			inDeg[v]++
			counts[v] = 0
		}
	}
	outStart[n] = len(outFlat)
	for u := 0; u < n; u++ {
		if s, e := outStart[u], outStart[u+1]; s < e {
			g.Out[u] = outFlat[s:e:e]
		}
	}
	// CSR transpose for In: prefix-sum the in-degrees, then fill each
	// target's span in ascending source order — the same order the old
	// sorted-key loop appended.
	inFlat := make([]Edge, len(outFlat))
	inStart := make([]int, n+1)
	for v := 0; v < n; v++ {
		inStart[v+1] = inStart[v] + inDeg[v]
	}
	fill := append([]int(nil), inStart[:n]...)
	for u := 0; u < n; u++ {
		for _, ed := range outFlat[outStart[u]:outStart[u+1]] {
			inFlat[fill[ed.To]] = Edge{To: u, Weight: ed.Weight}
			fill[ed.To]++
		}
	}
	for v := 0; v < n; v++ {
		if s, e := inStart[v], inStart[v+1]; s < e {
			g.In[v] = inFlat[s:e:e]
		}
	}
	return g
}

// Scores maps instance -> score for one concept.
type Scores map[string]float64

// Ranked returns the instances sorted by descending score, ties broken by
// name for determinism.
func (s Scores) Ranked() []string {
	out := make([]string, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !floats.Identical(s[out[i]], s[out[j]]) {
			return s[out[i]] > s[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Frequency scores each instance by its normalized support count.
func Frequency(k *kb.KB, concept string) Scores {
	insts := k.Instances(concept)
	out := make(Scores, len(insts))
	total := 0
	for _, e := range insts {
		total += k.Count(concept, e)
	}
	if total == 0 {
		return out
	}
	for _, e := range insts {
		out[e] = float64(k.Count(concept, e)) / float64(total)
	}
	return out
}

// Config holds the iteration parameters shared by the walk models.
type Config struct {
	// Restart is the teleport/restart probability (the paper uses 0.15).
	Restart float64
	// MaxIter and Tol bound the power iteration.
	MaxIter int
	Tol     float64
}

// DefaultConfig mirrors the paper's setting.
func DefaultConfig() Config { return Config{Restart: 0.15, MaxIter: 100, Tol: 1e-10} }

// RandomWalk computes Random-Walk-with-Restart scores on the directed
// trigger graph, restarting uniformly over the concept's core
// (first-iteration) instances. The score of e is the stationary
// probability of the walk being at e — "the probability that we could
// randomly walk from the instances obtained in the first iterations to
// the node of the instance e" (Sec 3.1).
//
// A dangling node's mass teleports only to the restart support (the
// nodes with non-zero restart weight), so an iteration costs
// O(E + dangling·core) rather than O(E + dangling·n). That is exact:
// off the support the full loop added (1-r)·p[i]·0 = +0, which leaves
// next[j] unchanged, and along the support the additions happen in the
// same order with the same operands ((1-r)·p[i] is evaluated first in
// either form). With no core the support is every node.
func RandomWalk(g *Graph, cfg Config) Scores {
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
		// Degenerate concept with no core: restart uniformly.
		for i := range restart {
			restart[i] = 1
		}
		mass = float64(n)
	}
	for i := range restart {
		restart[i] /= mass
	}
	// The restart support: the only nodes teleported mass can reach.
	support := make([]int, 0, n)
	for j, r := range restart {
		if r != 0 {
			support = append(support, j)
		}
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
				// Dangling mass teleports back to the restart set.
				teleport := (1 - cfg.Restart) * p[i]
				for _, j := range support {
					next[j] += teleport * restart[j]
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

// PageRank computes PageRank on the undirected version of the trigger
// graph with uniform teleport (the paper's comparison model, Sec 5.2).
func PageRank(g *Graph, cfg Config) Scores {
	n := len(g.Nodes)
	out := make(Scores, n)
	if n == 0 {
		return out
	}
	// Undirected adjacency = Out ∪ In.
	adj := make([][]Edge, n)
	deg := make([]float64, n)
	for i := range g.Out {
		adj[i] = append(adj[i], g.Out[i]...)
		adj[i] = append(adj[i], g.In[i]...)
		for _, e := range adj[i] {
			deg[i] += e.Weight
		}
	}
	uniform := 1 / float64(n)
	p := make([]float64, n)
	for i := range p {
		p[i] = uniform
	}
	next := make([]float64, n)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for i := range next {
			next[i] = cfg.Restart * uniform
		}
		for i, edges := range adj {
			if p[i] == 0 {
				continue
			}
			if deg[i] == 0 {
				for j := range next {
					next[j] += (1 - cfg.Restart) * p[i] * uniform
				}
				continue
			}
			share := (1 - cfg.Restart) * p[i] / deg[i]
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

func l1Delta(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}
