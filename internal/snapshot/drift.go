package snapshot

import (
	"sort"
	"sync"

	"driftclean/internal/kb"
)

// DriftRow is one row of a drift ranking: an instance and the length of
// its provenance chain back to the core. Concept is set only in
// rankings across every concept, where rows from different concepts mix;
// concept-scoped rankings leave it empty, which keeps their wire format
// free of it.
type DriftRow struct {
	Concept string `json:"concept,omitempty"`
	Name    string `json:"name"`
	Depth   int    `json:"depth"`
}

// sortDrifted orders drift rows canonically: depth descending, then
// concept, then instance name. Concept-scoped rows share an empty
// concept, so the same order ranks them by depth, then name. Both
// rankings, per concept and across every concept, use this one order.
func sortDrifted(rows []DriftRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Depth != b.Depth {
			return a.Depth > b.Depth
		}
		if a.Concept != b.Concept {
			return a.Concept < b.Concept
		}
		return a.Name < b.Name
	})
}

// driftIndex holds a snapshot's drift rankings. A snapshot never
// changes, so neither do its rankings: they are built once, on the
// first drift query, and every later query answers with a prefix.
type driftIndex struct {
	once      sync.Once
	builds    int                   // times the build ran; the once keeps it at most 1
	byConcept map[string][]DriftRow // each concept's ranking, Concept left empty
	all       []DriftRow            // every concept's rows, Concept set; never nil once built
}

// driftIndex returns the snapshot's drift index, building it on first
// use. The build takes no context: it runs to completion for whichever
// caller arrives first, so a cancelled request can never leave the
// index half built for the requests queued behind it.
func (s *Snapshot) driftIndex() *driftIndex {
	d := &s.drift
	d.once.Do(func() {
		d.builds++
		d.byConcept, d.all = buildDriftIndex(s.k, s.concepts)
	})
	return d
}

// buildDriftIndex ranks every active pair of the given concepts, tracing
// each provenance chain exactly once.
func buildDriftIndex(k kb.View, concepts []string) (map[string][]DriftRow, []DriftRow) {
	byConcept := make(map[string][]DriftRow, len(concepts))
	total := 0
	for _, c := range concepts {
		depth := k.DriftDepth(c)
		// Instances() is the deterministic iteration surface; the depth
		// map itself must never be ranged into an ordered sink.
		names := k.Instances(c)
		rows := make([]DriftRow, len(names))
		for i, e := range names {
			rows[i] = DriftRow{Name: e, Depth: depth[e]}
		}
		sortDrifted(rows)
		byConcept[c] = rows
		total += len(rows)
	}
	all := make([]DriftRow, 0, total)
	for _, c := range concepts {
		for _, r := range byConcept[c] {
			r.Concept = c
			all = append(all, r)
		}
	}
	sortDrifted(all)
	return byConcept, all
}

// DriftRanking returns up to n of the concept's instances, deepest
// provenance chain first (ties by name), with Concept left empty. It is
// nil when the snapshot does not hold the concept.
//
// Like FleetDriftRanking, the rows are a prefix of the snapshot's
// shared index: callers must not modify them. The slice's capacity
// equals its length, so an append copies instead of writing into the
// index. A non-positive n yields no rows.
func (s *Snapshot) DriftRanking(concept string, n int) []DriftRow {
	return prefix(s.driftIndex().byConcept[concept], n)
}

// FleetDriftRanking returns up to n rows spanning every concept of the
// snapshot, Concept set, in sortDrifted order. The result is never nil.
func (s *Snapshot) FleetDriftRanking(n int) []DriftRow {
	return prefix(s.driftIndex().all, n)
}

// prefix clips rows to at most n elements with capacity equal to length.
func prefix(rows []DriftRow, n int) []DriftRow {
	n = max(0, min(n, len(rows)))
	return rows[:n:n]
}
