package serve

import (
	"context"
	"testing"

	"driftclean/internal/snapshot"
)

// benchChainLen sizes the drift chain so building the drift index does
// real traversal work (DriftDepth walks every provenance chain) while
// the cached path is a map lookup.
const benchChainLen = 600

// benchRows keeps benchmark results reachable so the calls under
// measurement cannot be optimized away.
var benchRows []DriftedInstance

// BenchmarkDriftIndexBuild measures what the first drift query of a new
// generation pays: tracing every chain and ranking the rows. Each
// iteration freezes a fresh snapshot with the timer stopped, so only
// the index build and the query that triggers it are timed.
func BenchmarkDriftIndexBuild(b *testing.B) {
	k := chainKB(benchChainLen)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := New(snapshot.Freeze(k), Options{CacheSize: -1})
		b.StartTimer()
		rows, err := svc.Drifted(ctx, "", 20)
		if err != nil {
			b.Fatal(err)
		}
		benchRows = rows
	}
}

// BenchmarkServeColdDrifted measures the uncached KB-wide query once
// the generation's drift index exists: caching disabled, every Drifted
// call takes a prefix of the snapshot's ranking.
func BenchmarkServeColdDrifted(b *testing.B) {
	svc := New(snapshot.Freeze(chainKB(benchChainLen)), Options{CacheSize: -1})
	ctx := context.Background()
	if _, err := svc.Drifted(ctx, "", 20); err != nil {
		b.Fatal(err) // builds the index outside the timed loop
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := svc.Drifted(ctx, "", 20)
		if err != nil {
			b.Fatal(err)
		}
		benchRows = rows
	}
}

// BenchmarkServeCached measures the same query repeated against the LRU
// cache (first call primes it before the timer starts).
func BenchmarkServeCached(b *testing.B) {
	svc := New(snapshot.Freeze(chainKB(benchChainLen)), Options{})
	ctx := context.Background()
	if _, err := svc.Drifted(ctx, "c", 20); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Drifted(ctx, "c", 20); err != nil {
			b.Fatal(err)
		}
	}
}
