package kbio

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/snapshot"
)

func testKB() *kb.KB {
	k := kb.New()
	k.AddExtraction(0, "animal", nil, []string{"chicken", "dog"}, nil, 1)
	k.AddExtraction(1, "animal", nil, []string{"pork"}, []string{"chicken"}, 2)
	id := k.AddExtraction(2, "animal", nil, []string{"cheese"}, []string{"dog"}, 2)
	k.RollbackExtractions([]int{id})
	return k
}

// TestFreezeFileBothFormatsAgree: the heap KB frozen in memory and the
// same KB mmap-opened from its snapshot file answer alike, and the
// returned header describes the file.
func TestFreezeFileBothFormatsAgree(t *testing.T) {
	k := testKB()
	path := filepath.Join(t.TempDir(), "kb.bin")
	if err := binsnap.WriteFile(path, k); err != nil {
		t.Fatal(err)
	}
	hs := snapshot.Freeze(k)
	bs, hdr, err := FreezeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.FileBytes != st.Size() || hdr.Checksum == 0 || hdr.Stats != k.Stats() {
		t.Fatalf("header %+v does not describe the %d-byte file of %+v", hdr, st.Size(), k.Stats())
	}
	if hs.Stats() != bs.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", hs.Stats(), bs.Stats())
	}
	if !reflect.DeepEqual(hs.Concepts(), bs.Concepts()) {
		t.Fatal("concepts differ between representations")
	}
	for _, c := range hs.Concepts() {
		if !reflect.DeepEqual(hs.Instances(c), bs.Instances(c)) {
			t.Fatalf("instances of %q differ", c)
		}
	}
	if bs.Generation() <= hs.Generation() {
		t.Fatal("freeze generations not monotonic")
	}
}

func TestFreezeFileErrors(t *testing.T) {
	if _, _, err := FreezeFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file should fail")
	}
	garbage := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(garbage, []byte("DCKBSNP1 but then garbage follows"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FreezeFile(garbage); err == nil {
		t.Fatal("corrupt binary header should fail")
	}
}

// TestFreezeFileRejectsNonBinsnap: a file in another format — here a
// gob stream, the KB format of earlier versions — fails as corrupt, and
// the error names the bad magic.
func TestFreezeFileRejectsNonBinsnap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(struct{ Version int }{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = FreezeFile(path)
	if !errors.Is(err, binsnap.ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("FreezeFile(gob file) = %v, want ErrCorrupt naming the bad magic", err)
	}
}
