package driftclean

// Integration tests: cross-module contracts that no single package test
// can see — whole-pipeline determinism, cleaning idempotence, persistence
// mid-pipeline, and behavior at degenerate scales (failure injection).

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"driftclean/internal/corpus"
	"driftclean/internal/extract"
	"driftclean/internal/hearst"
	"driftclean/internal/kb"
	"driftclean/internal/world"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.World.NumDomains = 2
	cfg.World.InstancesPerConceptMin = 40
	cfg.World.InstancesPerConceptMax = 80
	cfg.Corpus.NumSentences = 8000
	cfg.Clean.MaxRounds = 2
	return cfg
}

// TestPipelineDeterminism: identical configs must produce bit-identical
// outcomes end to end, including through the parallel analysis stage.
func TestPipelineDeterminism(t *testing.T) {
	r1, err := CleanContext(context.Background(), WithConfig(tinyConfig()))
	if err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	r2, err := CleanContext(context.Background(), WithConfig(tinyConfig()))
	if err != nil && !errors.Is(err, ErrNoDPsDetected) {
		t.Fatal(err)
	}
	if r1.PrecisionBefore != r2.PrecisionBefore || r1.PrecisionAfter != r2.PrecisionAfter {
		t.Errorf("precision differs across identical runs: %v/%v vs %v/%v",
			r1.PrecisionBefore, r1.PrecisionAfter, r2.PrecisionBefore, r2.PrecisionAfter)
	}
	if r1.PairsAfter != r2.PairsAfter {
		t.Errorf("pair counts differ: %d vs %d", r1.PairsAfter, r2.PairsAfter)
	}
	if !reflect.DeepEqual(r1.System.KB.Pairs(), r2.System.KB.Pairs()) {
		t.Error("final pair sets differ across identical runs")
	}
}

// TestCleaningConverges: a second full cleaning pass over an
// already-cleaned KB must remove (almost) nothing more.
func TestCleaningConverges(t *testing.T) {
	sys := Build(tinyConfig())
	if _, err := sys.CleanDPs(DetectMultiTask); err != nil {
		t.Fatal(err)
	}
	pairsAfterFirst := sys.KB.NumPairs()
	if _, err := sys.CleanDPs(DetectMultiTask); err != nil {
		t.Fatal(err)
	}
	removedAgain := pairsAfterFirst - sys.KB.NumPairs()
	if float64(removedAgain) > 0.05*float64(pairsAfterFirst) {
		t.Errorf("second cleaning pass removed %d of %d pairs — cleaning did not converge",
			removedAgain, pairsAfterFirst)
	}
}

// TestPersistenceMidPipeline: save the drifted KB, reload it, clean the
// reload — the outcome must equal cleaning the original.
func TestPersistenceMidPipeline(t *testing.T) {
	sysA := Build(tinyConfig())
	var buf bytes.Buffer
	if _, err := sysA.KB.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := kb.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sysB := Build(tinyConfig()) // same world/corpus (deterministic)
	sysB.KB = loaded
	sysB.Extraction.KB = loaded

	if _, err := sysA.CleanDPs(DetectMultiTask); err != nil {
		t.Fatal(err)
	}
	if _, err := sysB.CleanDPs(DetectMultiTask); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sysA.KB.Pairs(), sysB.KB.Pairs()) {
		t.Error("cleaning a reloaded KB diverged from cleaning the original")
	}
}

// TestDegenerateScales: the pipeline must not panic or error on extreme
// configurations (failure injection at the config boundary).
func TestDegenerateScales(t *testing.T) {
	cases := map[string]func(*Config){
		"tiny-corpus":       func(c *Config) { c.Corpus.NumSentences = 50 },
		"one-domain":        func(c *Config) { c.World.NumDomains = 1 },
		"huge-instances":    func(c *Config) { c.Corpus.InstancesMin = 8; c.Corpus.InstancesMax = 12 },
		"no-modifiers":      func(c *Config) { c.Corpus.FracModifier = 0.0001 },
		"all-modifiers":     func(c *Config) { c.Corpus.FracModifier = 0.95 },
		"single-round":      func(c *Config) { c.Clean.MaxRounds = 1 },
		"one-iteration":     func(c *Config) { c.Extract.MaxIterations = 1 },
		"reversed-patterns": func(c *Config) { c.Corpus.Patterns = corpus.PatternMix{AndOther: 1} },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Corpus.NumSentences = 3000
			mutate(&cfg)
			rep, err := CleanContext(context.Background(), WithConfig(cfg))
			if err != nil && !errors.Is(err, ErrNoDPsDetected) {
				t.Fatalf("pipeline failed: %v", err)
			}
			if rep.System.KB == nil {
				t.Fatal("no KB produced")
			}
		})
	}
}

// TestParserNeverPanics: random token soup must never panic the parser
// (fuzz-style failure injection).
func TestParserNeverPanics(t *testing.T) {
	tokens := []string{"such", "as", "and", "other", "than", ",", ".", "including",
		"especially", "animal", "dog", "", "from", "in", "of", "many"}
	// Deterministic pseudo-random walks over the token vocabulary.
	state := uint64(12345)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for trial := 0; trial < 5000; trial++ {
		length := 1 + next(12)
		parts := make([]string, length)
		for i := range parts {
			parts[i] = tokens[next(len(tokens))]
		}
		text := ""
		for i, p := range parts {
			if i > 0 {
				text += " "
			}
			text += p
		}
		// Must not panic; ok/!ok are both acceptable.
		hearst.ParseSentence(trial, text)
	}
}

// TestExtractorHandlesUnparseableCorpus: a corpus of garbage lines is
// counted, not fatal.
func TestExtractorHandlesUnparseableCorpus(t *testing.T) {
	s := extract.NewStream(extract.DefaultConfig())
	garbage := []corpus.Sentence{
		{ID: 0, Text: "complete nonsense"},
		{ID: 1, Text: ""},
		{ID: 2, Text: ". . . ."},
	}
	if core, ambiguous := s.Append(garbage); core != 0 || ambiguous != 0 {
		t.Errorf("garbage produced %d core and %d ambiguous parses", core, ambiguous)
	}
	res := s.Replay()
	if res.Unparseable != 3 {
		t.Errorf("unparseable = %d, want 3", res.Unparseable)
	}
	if n := res.KB.NumExtractions(); n != 0 {
		t.Errorf("garbage produced %d extractions", n)
	}
}

// TestWorldCorpusContract: the corpus generator must stay within the
// world's vocabulary except for deliberately injected noise.
func TestWorldCorpusContract(t *testing.T) {
	wcfg := world.DefaultConfig()
	wcfg.NumDomains = 2
	w := world.New(wcfg)
	ccfg := corpus.DefaultConfig()
	ccfg.NumSentences = 3000
	c := corpus.Generate(w, ccfg)
	for i := 0; i < c.Len(); i++ {
		truth := c.Truth(i)
		if w.Concept(truth.TrueConcept) == nil {
			t.Fatalf("sentence %d claims unknown concept %q", i, truth.TrueConcept)
		}
	}
}

// TestSaveLoadThroughAPI exercises the save/load path the CLI uses.
func TestSaveLoadThroughAPI(t *testing.T) {
	sys := Build(tinyConfig())
	path := filepath.Join(t.TempDir(), "kb.gob")
	if err := sys.KB.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := kb.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPairs() != sys.KB.NumPairs() {
		t.Errorf("pairs %d after reload, want %d", loaded.NumPairs(), sys.KB.NumPairs())
	}
}
