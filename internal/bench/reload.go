// Reload benchmark: the serving layer hot-reloads by re-opening the KB
// snapshot file and swapping the frozen snapshot in. This module
// measures how long that takes, and how much heap each co-located
// replica pays to hold the snapshot open, through the same open path the
// server uses, and lands the numbers in BENCH_serve.json next to the
// latency sweep.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"driftclean/internal/kb"
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/kb/kbio"
	"driftclean/internal/snapshot"
)

// reloadIters is how many timed reloads the benchmark runs; the
// artifact reports exact order statistics of the sample, so a handful
// suffices to shed scheduler noise.
const reloadIters = 7

// ReloadStats are the snapshot reload measurements in the serving
// artifact.
type ReloadStats struct {
	// Replicas is how many snapshots were held live for the per-replica
	// heap measurement.
	Replicas int `json:"replicas"`
	// Iterations is the timed-reload sample size.
	Iterations int `json:"iterations"`
	// FileBytes is the on-disk snapshot size.
	FileBytes int64 `json:"file_bytes"`
	// ReloadP50Micros and ReloadMaxMicros summarize the time of a full
	// reload — open the file, validate, freeze a serving snapshot — over
	// the timed iterations.
	ReloadP50Micros int64 `json:"reload_p50_us"`
	ReloadMaxMicros int64 `json:"reload_max_us"`
	// HeapBytesPerReplica is the steady-state heap cost of one extra
	// co-resident replica holding the snapshot open.
	HeapBytesPerReplica int64 `json:"heap_bytes_per_replica"`
}

// measureReload writes k as a binary snapshot and measures reload
// latency and per-replica heap through kbio.FreezeFile — the exact code
// path driftserve's reloader runs.
func measureReload(k *kb.KB, replicas int, progress func(string)) (*ReloadStats, error) {
	dir, err := os.MkdirTemp("", "driftclean-reload-*")
	if err != nil {
		return nil, fmt.Errorf("bench: reload scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "kb.bin")
	if err := binsnap.WriteFile(path, k); err != nil {
		return nil, fmt.Errorf("bench: saving snapshot: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	rs := &ReloadStats{Replicas: replicas, Iterations: reloadIters, FileBytes: st.Size()}

	// One warm-up load primes the page cache, so reloads are timed over
	// a warm file — the regime of a server reloading a snapshot it just
	// wrote.
	if _, _, err := kbio.FreezeFile(path); err != nil {
		return nil, fmt.Errorf("bench: reload warm-up: %w", err)
	}
	nanos := make([]int64, 0, reloadIters)
	for i := 0; i < reloadIters; i++ {
		t0 := time.Now()
		snap, _, err := kbio.FreezeFile(path)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("bench: timed reload: %w", err)
		}
		runtime.KeepAlive(snap)
		nanos = append(nanos, int64(d))
	}
	sort.Slice(nanos, func(i, j int) bool { return nanos[i] < nanos[j] })
	// Sub-microsecond reloads round up to 1µs so the artifact never
	// claims a zero-cost reload.
	us := int64(time.Microsecond)
	rs.ReloadP50Micros = max(percentile(nanos, 0.50)/us, 1)
	rs.ReloadMaxMicros = max(nanos[len(nanos)-1]/us, 1)

	if rs.HeapBytesPerReplica, err = heapPerReplica(path, replicas); err != nil {
		return nil, err
	}
	if progress != nil {
		progress(fmt.Sprintf("reload: p50 %dus, max %dus (%d KB file, %d KB heap/replica)",
			rs.ReloadP50Micros, rs.ReloadMaxMicros, rs.FileBytes/1024, rs.HeapBytesPerReplica/1024))
	}
	return rs, nil
}

// heapPerReplica opens `replicas` independent snapshots of the file and
// reports the settled heap growth per replica. Each replica holds
// little beyond the string table, the bulk staying in the shared file
// mapping — which is the number this measurement exists to show.
func heapPerReplica(path string, replicas int) (int64, error) {
	settle := func() uint64 {
		// Two GC rounds: the first queues finalizers (which unmap dropped
		// views), the second collects what they released.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := settle()
	snaps := make([]*snapshot.Snapshot, 0, replicas)
	for i := 0; i < replicas; i++ {
		snap, _, err := kbio.FreezeFile(path)
		if err != nil {
			return 0, fmt.Errorf("bench: replica load: %w", err)
		}
		snaps = append(snaps, snap)
	}
	after := settle()
	runtime.KeepAlive(snaps)
	if after <= before {
		return 0, nil
	}
	return int64(after-before) / int64(replicas), nil
}
