package main

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
)

// saveFixtureKB writes a small KB with a drift chain under "animal" and
// a polysemous instance shared with "car", returning the file path.
func saveFixtureKB(t *testing.T) string {
	t.Helper()
	k := kb.New()
	k.AddExtraction(0, "animal", []string{"animal"}, []string{"dog", "jaguar"}, nil, 1)
	k.AddExtraction(1, "animal", []string{"animal"}, []string{"wolf"}, []string{"dog"}, 2)
	k.AddExtraction(2, "animal", []string{"animal"}, []string{"dingo"}, []string{"wolf"}, 3)
	k.AddExtraction(3, "car", []string{"car"}, []string{"jaguar"}, nil, 1)
	path := filepath.Join(t.TempDir(), "kb.bin")
	if err := binsnap.WriteFile(path, k); err != nil {
		t.Fatal(err)
	}
	return path
}

// exec runs the CLI and captures its streams.
func exec(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(argv, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCommandsHappyPath(t *testing.T) {
	path := saveFixtureKB(t)

	code, out, _ := exec(t, "-kb", path, "stats")
	if code != 0 || !strings.Contains(out, "pairs:    5") {
		t.Errorf("stats: code=%d out=%q", code, out)
	}

	code, out, _ = exec(t, "-kb", path, "concepts")
	if code != 0 || !strings.Contains(out, "animal") || !strings.Contains(out, "car") {
		t.Errorf("concepts: code=%d out=%q", code, out)
	}

	code, out, _ = exec(t, "-kb", path, "instances", "animal")
	if code != 0 || !strings.Contains(out, "dingo") {
		t.Errorf("instances: code=%d out=%q", code, out)
	}

	code, out, _ = exec(t, "-kb", path, "explain", "animal", "dingo")
	if code != 0 || !strings.Contains(out, "provenance chain") {
		t.Errorf("explain: code=%d out=%q", code, out)
	}

	code, out, _ = exec(t, "-kb", path, "drifted", "animal", "2")
	if code != 0 || !strings.Contains(out, "chain depth 3") {
		t.Errorf("drifted: code=%d out=%q", code, out)
	}

	code, out, _ = exec(t, "-kb", path, "subs", "animal", "dog")
	if code != 0 || !strings.Contains(out, "wolf") {
		t.Errorf("subs: code=%d out=%q", code, out)
	}

	code, out, _ = exec(t, "-kb", path, "of", "jaguar")
	if code != 0 || !strings.Contains(out, "animal") || !strings.Contains(out, "car") {
		t.Errorf("of: code=%d out=%q", code, out)
	}
}

// TestUnknownCommandRejected is the regression test for the bug where
// unknown subcommands after valid flags were silently accepted on some
// paths: every unknown command must print usage and exit 2.
func TestUnknownCommandRejected(t *testing.T) {
	path := saveFixtureKB(t)
	for _, argv := range [][]string{
		{"-kb", path, "nosuchcommand"},
		{"-kb", path, "statss"},
		{"-kb", path, "explaim", "animal", "dog"},
	} {
		code, out, stderr := exec(t, argv...)
		if code != 2 {
			t.Errorf("%v: code = %d, want 2", argv, code)
		}
		if !strings.Contains(stderr, "usage:") {
			t.Errorf("%v: no usage on stderr: %q", argv, stderr)
		}
		if out != "" {
			t.Errorf("%v: unexpected stdout %q", argv, out)
		}
	}
}

// TestMalformedArgumentsRejected: wrong arity and trailing garbage are
// usage errors, not silently ignored.
func TestMalformedArgumentsRejected(t *testing.T) {
	path := saveFixtureKB(t)
	for _, argv := range [][]string{
		{"-kb", path},                                   // no command
		{"-kb", path, "instances"},                      // missing concept
		{"-kb", path, "instances", "animal", "extra"},   // trailing garbage
		{"-kb", path, "stats", "extra"},                 // trailing garbage
		{"-kb", path, "explain", "animal"},              // missing instance
		{"-kb", path, "explain", "animal", "dog", "x"},  // trailing garbage
		{"-kb", path, "drifted"},                        // missing concept
		{"-kb", path, "drifted", "animal", "nope"},      // malformed n
		{"-kb", path, "drifted", "animal", "-1"},        // non-positive n
		{"-kb", path, "drifted", "animal", "2", "more"}, // trailing garbage
		{"stats"}, // missing -kb
	} {
		code, _, stderr := exec(t, argv...)
		if code != 2 {
			t.Errorf("%v: code = %d, want 2 (stderr %q)", argv, code, stderr)
		}
	}
}

func TestOperationalErrors(t *testing.T) {
	path := saveFixtureKB(t)
	code, _, stderr := exec(t, "-kb", path, "explain", "animal", "spoon")
	if code != 1 || !strings.Contains(stderr, "not in the KB") {
		t.Errorf("missing pair: code=%d stderr=%q", code, stderr)
	}
	code, _, stderr = exec(t, "-kb", filepath.Join(t.TempDir(), "absent.bin"), "stats")
	if code != 1 || !strings.Contains(stderr, "loading") {
		t.Errorf("missing file: code=%d stderr=%q", code, stderr)
	}
}

// TestRejectsNonBinsnap: a gob stream, the KB format of earlier
// versions, fails with exit 1 and a corrupt-snapshot error naming the
// bad magic.
func TestRejectsNonBinsnap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.gob")
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Version int }{1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := exec(t, "-kb", path, "stats")
	if code != 1 || !strings.Contains(stderr, "bad magic") || !strings.Contains(stderr, binsnap.ErrCorrupt.Error()) {
		t.Errorf("gob file: code=%d stderr=%q; want 1 and a corrupt-snapshot error naming the bad magic", code, stderr)
	}
}
