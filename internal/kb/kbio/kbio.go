// Package kbio opens a saved knowledge base for serving. The one
// on-disk KB format is the binary columnar snapshot of
// internal/kb/binsnap, written by driftclean -savekb; every consumer
// (driftserve, kbquery, the bench harness) opens it through FreezeFile.
// A file that is not a binary snapshot fails with an error wrapping
// binsnap.ErrCorrupt that names its bad magic.
package kbio

import (
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/snapshot"
)

// FreezeFile mmap-opens the snapshot file zero-copy and freezes it into
// an immutable serving snapshot, so freeze cost is O(1) in KB size. The
// returned header (checksum, size, counts) is for logs and bench
// records.
func FreezeFile(path string) (*snapshot.Snapshot, binsnap.Header, error) {
	v, err := binsnap.Open(path)
	if err != nil {
		return nil, binsnap.Header{}, err
	}
	return snapshot.FreezeOwned(v), v.Header(), nil
}
