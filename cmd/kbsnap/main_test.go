package main

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"driftclean/internal/bench"
	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
)

func testKB() *kb.KB {
	k := kb.New()
	k.AddExtraction(0, "animal", nil, []string{"chicken", "dog"}, nil, 1)
	k.AddExtraction(1, "animal", nil, []string{"pork"}, []string{"chicken"}, 2)
	return k
}

// exec runs the tool and returns exit code, stdout, stderr.
func exec(t *testing.T, argv ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(argv, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeKB saves testKB as a binary snapshot at dir/name.
func writeKB(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := binsnap.WriteFile(path, testKB()); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadKB opens a snapshot file and rebuilds the heap KB from it.
func loadKB(t *testing.T, path string) *kb.KB {
	t.Helper()
	v, err := binsnap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	k, err := v.ToKB()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestConvertRoundTrip: re-encoding a snapshot reproduces its bytes
// exactly (the encoding is canonical) and its KB state.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := writeKB(t, dir, "kb.bin")
	out := filepath.Join(dir, "again.bin")
	if code, stdout, errOut := exec(t, "convert", in, out); code != 0 {
		t.Fatalf("convert: code %d, %s%s", code, stdout, errOut)
	}
	a, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-encoding a snapshot changed its bytes")
	}
	orig, back := testKB(), loadKB(t, out)
	if !reflect.DeepEqual(back.Pairs(), orig.Pairs()) || back.Stats() != orig.Stats() {
		t.Fatal("convert changed the KB")
	}
}

// TestConvertExplicitTarget pins the benchmark's set-up sequence: a
// binary snapshot that driftclean -savekb wrote under the name kb.gob
// goes through "convert kb.gob kb.bin binary", and the output holds the
// same KB by fingerprint.
func TestConvertExplicitTarget(t *testing.T) {
	dir := t.TempDir()
	in := writeKB(t, dir, "kb.gob")
	out := filepath.Join(dir, "kb.bin")
	if code, _, errOut := exec(t, "convert", in, out, "binary"); code != 0 {
		t.Fatalf("code %d: %s", code, errOut)
	}
	if got, want := bench.Fingerprint(loadKB(t, out)), bench.Fingerprint(testKB()); got != want {
		t.Fatalf("converted KB fingerprint %s, want %s", got, want)
	}
}

func TestInfoAndVerify(t *testing.T) {
	path := writeKB(t, t.TempDir(), "kb.bin")

	code, out, _ := exec(t, "info", path)
	if code != 0 {
		t.Fatalf("info failed: %s", out)
	}
	for _, want := range []string{"version:  1", "checksum:", "pairs:    3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("info output missing %q:\n%s", want, out)
		}
	}
	if code, out, _ = exec(t, "verify", path); code != 0 || !strings.Contains(out, "OK") {
		t.Fatalf("verify: code %d, %s", code, out)
	}
}

func TestVerifyRejectsCorruption(t *testing.T) {
	path := writeKB(t, t.TempDir(), "kb.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := exec(t, "verify", path)
	if code != 1 {
		t.Fatalf("verify of corrupt file: code %d, want 1", code)
	}
	if !strings.Contains(errOut, "corrupt") {
		t.Fatalf("error does not mention corruption: %s", errOut)
	}
}

// TestRejectsNonBinsnap: a gob stream, the KB format of earlier
// versions, fails every command with exit 1 and an error naming the bad
// magic.
func TestRejectsNonBinsnap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.gob")
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Version int }{1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, argv := range [][]string{
		{"verify", path}, {"info", path}, {"convert", path, filepath.Join(dir, "out.bin")},
	} {
		code, _, errOut := exec(t, argv...)
		if code != 1 || !strings.Contains(errOut, "bad magic") || !strings.Contains(errOut, binsnap.ErrCorrupt.Error()) {
			t.Fatalf("argv %v: code %d, stderr %q; want 1 and a corrupt-snapshot error naming the bad magic", argv, code, errOut)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, argv := range [][]string{
		{}, {"bogus"}, {"convert", "one"}, {"convert", "a", "b", "c", "d"},
		{"convert", "a", "b", "xml"}, {"convert", "a", "b", "gob"},
		{"info"}, {"verify"}, {"info", "a", "b"},
	} {
		if code, _, _ := exec(t, argv...); code != 2 {
			t.Fatalf("argv %v: code %d, want 2", argv, code)
		}
	}
}

func TestOperationalErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, argv := range [][]string{
		{"info", missing}, {"verify", missing},
		{"convert", missing, filepath.Join(t.TempDir(), "out")},
	} {
		if code, _, _ := exec(t, argv...); code != 1 {
			t.Fatalf("argv %v: code %d, want 1", argv, code)
		}
	}
}
