// Command kbsnap is the ops tool for saved knowledge-base snapshots,
// the binary columnar files of internal/kb/binsnap that driftclean
// -savekb writes: re-encode a snapshot, inspect its header and
// statistics, and verify integrity (checksum plus full structural
// validation) without loading the KB into a server.
//
// Usage:
//
//	kbsnap convert IN OUT [binary]   re-encode IN as OUT
//	kbsnap info FILE                 sizes, stats, checksum
//	kbsnap verify FILE               validate; exit 0 iff the snapshot is sound
//
// convert rebuilds the KB from IN and encodes it again, so OUT is the
// canonical encoding of IN's state; "binary", the only output format,
// may be named explicitly. A file that is not a binary snapshot fails
// every command with exit status 1. Output files are published
// atomically, like every snapshot write in this repo.
package main

import (
	"fmt"
	"io"
	"os"

	"driftclean/internal/kb/binsnap"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit codes: 0 success, 1 operational
// error (unreadable, corrupt), 2 usage error.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) < 1 {
		return usage(stderr)
	}
	cmd, rest := argv[0], argv[1:]
	switch cmd {
	case "convert":
		if len(rest) < 2 || len(rest) > 3 || (len(rest) == 3 && rest[2] != "binary") {
			return usage(stderr)
		}
		return convert(rest[0], rest[1], stdout, stderr)
	case "info":
		if len(rest) != 1 {
			return usage(stderr)
		}
		return info(rest[0], stdout, stderr)
	case "verify":
		if len(rest) != 1 {
			return usage(stderr)
		}
		return verify(rest[0], stdout, stderr)
	}
	return usage(stderr)
}

// convert re-encodes src as dst: open, rebuild the heap KB, write.
func convert(src, dst string, stdout, stderr io.Writer) int {
	v, err := binsnap.Open(src)
	if err != nil {
		return fail(stderr, "loading %s: %v", src, err)
	}
	defer v.Close()
	k, err := v.ToKB()
	if err != nil {
		return fail(stderr, "loading %s: %v", src, err)
	}
	if err := binsnap.WriteFile(dst, k); err != nil {
		return fail(stderr, "writing %s: %v", dst, err)
	}
	st, err := os.Stat(dst)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	fmt.Fprintf(stdout, "converted %s -> %s, %d bytes, %d pairs\n", src, dst, st.Size(), k.NumPairs())
	return 0
}

// info prints the snapshot header's version, size, checksum, element
// counts and statistics.
func info(path string, stdout, stderr io.Writer) int {
	v, err := binsnap.Open(path)
	if err != nil {
		return fail(stderr, "opening %s: %v", path, err)
	}
	defer v.Close()
	h := v.Header()
	fmt.Fprintf(stdout, "version:  %d\nbytes:    %d\nchecksum: %08x\n", h.Version, h.FileBytes, h.Checksum)
	fmt.Fprintf(stdout, "strings:  %d\nextractions: %d (total, incl. rolled back)\npair records: %d (incl. zero-count)\n",
		h.Strings, h.Extractions, h.Pairs)
	fmt.Fprintf(stdout, "concepts: %d\npairs:    %d\ncounts:   %d\nactive extractions: %d\n",
		h.Stats.Concepts, h.Stats.DistinctPairs, h.Stats.TotalCount, h.Stats.ActiveExtractions)
	return 0
}

// verify fully validates the snapshot — checksum and structure, via
// Open — and reports OK or the precise corruption.
func verify(path string, stdout, stderr io.Writer) int {
	v, err := binsnap.Open(path)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	defer v.Close()
	fmt.Fprintf(stdout, "%s: OK (checksum %08x, %d pairs)\n", path, v.Header().Checksum, v.NumPairs())
	return 0
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: kbsnap convert IN OUT [binary] | info FILE | verify FILE")
	return 2
}

func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "kbsnap: "+format+"\n", args...)
	return 1
}
