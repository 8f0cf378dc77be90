package extract

import (
	"reflect"
	"testing"

	"driftclean/internal/hearst"
	"driftclean/internal/kb"
)

// knownKB builds a KB where each concept holds the given instances as
// iteration-1 knowledge.
func knownKB(known map[string][]string) *kb.KB {
	k := kb.New()
	sid := 0
	for concept, insts := range known {
		for _, e := range insts {
			k.AddExtraction(sid, concept, nil, []string{e}, nil, 1)
			sid++
		}
	}
	return k
}

// resolve runs disambiguate and appendTriggers on a parse by name,
// interning its names in k's table, and returns the outcome by name.
func resolve(k *kb.KB, p hearst.Parse) (concept string, triggers []string, ok bool) {
	cands, insts := syms(k, p.Candidates), syms(k, p.Instances)
	c, ok := disambiguate(k, cands, insts)
	if !ok {
		return "", nil, false
	}
	for _, e := range appendTriggers(nil, k, c, insts) {
		triggers = append(triggers, k.Name(e))
	}
	return k.Name(c), triggers, true
}

func syms(k *kb.KB, names []string) []kb.Sym {
	out := make([]kb.Sym, len(names))
	for i, n := range names {
		out[i] = k.Symbols().Intern(n)
	}
	return out
}

func TestDisambiguateTable(t *testing.T) {
	cases := []struct {
		name         string
		known        map[string][]string
		parse        hearst.Parse
		wantOK       bool
		wantConcept  string
		wantTriggers []string
	}{
		{
			name:  "clear winner by known-instance count",
			known: map[string][]string{"food": {"pork", "beef"}, "animal": {"dog"}},
			parse: hearst.Parse{
				Candidates: []string{"food", "animal"},
				Instances:  []string{"pork", "beef", "emu"},
			},
			wantOK:       true,
			wantConcept:  "food",
			wantTriggers: []string{"pork", "beef"},
		},
		{
			name:  "exact tie between top two stays pending",
			known: map[string][]string{"food": {"pork"}, "animal": {"dog"}},
			parse: hearst.Parse{
				Candidates: []string{"food", "animal"},
				Instances:  []string{"pork", "dog"},
			},
			wantOK: false,
		},
		{
			name:  "no candidate knows any instance",
			known: map[string][]string{"food": {"pork"}},
			parse: hearst.Parse{
				Candidates: []string{"food", "animal"},
				Instances:  []string{"quartz", "basalt"},
			},
			wantOK: false,
		},
		{
			name:  "single candidate with one known instance wins",
			known: map[string][]string{"food": {"pork"}},
			parse: hearst.Parse{
				Candidates: []string{"food"},
				Instances:  []string{"pork", "granite"},
			},
			wantOK:       true,
			wantConcept:  "food",
			wantTriggers: []string{"pork"},
		},
		{
			name:  "single candidate with nothing known stays pending",
			known: map[string][]string{"food": {"pork"}},
			parse: hearst.Parse{
				Candidates: []string{"animal"},
				Instances:  []string{"granite"},
			},
			wantOK: false,
		},
		{
			name: "three-way: strict winner over tied runners-up",
			known: map[string][]string{
				"food":   {"pork", "beef", "rice"},
				"animal": {"dog"},
				"plant":  {"fern"},
			},
			parse: hearst.Parse{
				Candidates: []string{"food", "animal", "plant"},
				Instances:  []string{"pork", "beef", "dog", "fern"},
			},
			wantOK:       true,
			wantConcept:  "food",
			wantTriggers: []string{"pork", "beef"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := knownKB(tc.known)
			concept, triggers, ok := resolve(k, tc.parse)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				return
			}
			if concept != tc.wantConcept {
				t.Errorf("concept = %q, want %q", concept, tc.wantConcept)
			}
			if !reflect.DeepEqual(triggers, tc.wantTriggers) {
				t.Errorf("triggers = %v, want %v", triggers, tc.wantTriggers)
			}
		})
	}
}

// TestDisambiguateTieBreaksAcrossIterations reproduces the paper's
// retry behavior end to end: a sentence tied in one iteration resolves
// in a later one after new knowledge breaks the tie.
func TestDisambiguateTieBreaksAcrossIterations(t *testing.T) {
	k := knownKB(map[string][]string{"food": {"pork"}, "animal": {"dog"}})
	p := hearst.Parse{
		SentenceID: 99,
		Candidates: []string{"food", "animal"},
		Instances:  []string{"pork", "dog", "beef"},
	}
	if _, _, ok := resolve(k, p); ok {
		t.Fatal("1-1 tie must stay pending in the first pass")
	}

	// New knowledge arrives: beef is food. The same parse now resolves.
	k.AddExtraction(500, "food", nil, []string{"beef"}, nil, 1)
	concept, triggers, ok := resolve(k, p)
	if !ok || concept != "food" {
		t.Fatalf("after tie-break: concept=%q ok=%v, want food", concept, ok)
	}
	if !reflect.DeepEqual(triggers, []string{"pork", "beef"}) {
		t.Errorf("triggers = %v, want [pork beef]", triggers)
	}

	// And resolvePending applies it the same way at any worker count.
	for _, workers := range []int{1, 4} {
		pl := &pool{syms: k.Symbols()}
		pl.add([]parsedSentence{{parse: p, ok: true}})
		resolved, still := pl.resolvePending(k, pl.pending, workers, nil, &scan{})
		if len(resolved) != 1 || len(still) != 0 {
			t.Fatalf("workers=%d: resolved=%d still=%d", workers, len(resolved), len(still))
		}
		if got := k.Name(resolved[0].concept); got != "food" {
			t.Errorf("workers=%d: concept = %q", workers, got)
		}
		if got := syms(k, []string{"pork", "beef"}); !reflect.DeepEqual(resolved[0].triggers, got) {
			t.Errorf("workers=%d: triggers = %v, want %v", workers, resolved[0].triggers, got)
		}
	}
}
