package kb_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
)

// fileKB is a small KB with a trigger chain and one rolled-back
// extraction, for the snapshot-file tests.
func fileKB() *kb.KB {
	k := kb.New()
	k.AddExtraction(0, "animal", nil, []string{"chicken", "dog"}, nil, 1)
	k.AddExtraction(1, "food", nil, []string{"beef", "pork"}, nil, 1)
	k.AddExtraction(2, "animal", nil, []string{"pork"}, []string{"chicken"}, 2)
	id := k.AddExtraction(3, "animal", nil, []string{"cheese"}, []string{"pork"}, 3)
	k.RollbackExtractions([]int{id})
	return k
}

// loadFile opens a snapshot file and rebuilds the heap KB from it.
func loadFile(path string) (*kb.KB, error) {
	v, err := binsnap.Open(path)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	return v.ToKB()
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.bin")
	orig := fileKB()
	if err := binsnap.WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPairs() != orig.NumPairs() || got.Stats() != orig.Stats() {
		t.Fatalf("pairs %d stats %+v, want %d %+v", got.NumPairs(), got.Stats(), orig.NumPairs(), orig.Stats())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := loadFile(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := binsnap.Decode([]byte("not a snapshot")); !errors.Is(err, binsnap.ErrCorrupt) {
		t.Errorf("garbage input: err = %v, want ErrCorrupt", err)
	}
}

// TestSaveFileFailedWriteLeavesTargetIntact is the torn-snapshot
// regression test: when the write fails partway through (ENOSPC, crash,
// encoder error), the previous snapshot at the target path must survive
// byte-for-byte and no temp litter may remain. A writer that created
// the target directly would have truncated the good snapshot before the
// first byte was written, so this test fails there.
func TestSaveFileFailedWriteLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.bin")
	if err := binsnap.WriteFile(path, fileKB()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err = kb.AtomicWriteFile(path, func(w io.Writer) error {
		// A partial write followed by failure — the torn-snapshot shape.
		if _, err := w.Write([]byte("torn")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("AtomicWriteFile error = %v, want %v", err, boom)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save corrupted the existing snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind after failed save", e.Name())
		}
	}
	// The intact target must still load.
	if _, err := loadFile(path); err != nil {
		t.Fatalf("existing snapshot no longer loads: %v", err)
	}
}

// TestSaveFileReplacesExisting: a successful save atomically replaces
// the previous snapshot, leaving no temp files behind.
func TestSaveFileReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.bin")
	if err := binsnap.WriteFile(path, kb.New()); err != nil {
		t.Fatal(err)
	}
	orig := fileKB()
	if err := binsnap.WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPairs() != orig.NumPairs() {
		t.Fatalf("pairs = %d, want %d", got.NumPairs(), orig.NumPairs())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after save, want just the snapshot", len(entries))
	}
}
