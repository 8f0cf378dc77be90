package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"driftclean/internal/kb"
	"driftclean/internal/snapshot"
)

// chainKB builds a KB whose concept "c" holds a single trigger chain of
// n instances (i0 core, i1 triggered by i0, ...) plus a flat concept.
func chainKB(n int) *kb.KB {
	k := kb.New()
	k.AddExtraction(0, "c", []string{"c"}, []string{"i0"}, nil, 1)
	for i := 1; i < n; i++ {
		k.AddExtraction(i, "c", []string{"c"},
			[]string{"i" + strconv.Itoa(i)}, []string{"i" + strconv.Itoa(i-1)}, i+1)
	}
	k.AddExtraction(n, "flat", []string{"flat"}, []string{"x", "y"}, nil, 1)
	return k
}

func testService(t testing.TB, n int, opts Options) (*Service, *kb.KB) {
	t.Helper()
	k := chainKB(n)
	return New(snapshot.Freeze(k), opts), k
}

func TestEndpointsAnswer(t *testing.T) {
	svc, _ := testService(t, 10, Options{})
	ctx := context.Background()

	st, err := svc.Stats(ctx)
	if err != nil || st.Stats.DistinctPairs != 12 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	cs, err := svc.Concepts(ctx)
	if err != nil || len(cs) != 2 || cs[0].Name != "c" || cs[0].Instances != 10 {
		t.Fatalf("Concepts = %+v, %v", cs, err)
	}
	ins, err := svc.Instances(ctx, "c")
	if err != nil || len(ins) != 10 {
		t.Fatalf("Instances = %+v, %v", ins, err)
	}
	ex, err := svc.Explain(ctx, "c", "i5", 0)
	if err != nil || len(ex.Supports) == 0 || len(ex.Supports[0].Chain) != 6 {
		t.Fatalf("Explain = %+v, %v", ex, err)
	}
	dr, err := svc.Drifted(ctx, "c", 3)
	if err != nil || len(dr) != 3 || dr[0].Name != "i9" || dr[0].Depth != 10 {
		t.Fatalf("Drifted = %+v, %v", dr, err)
	}
}

func TestNotFoundAndNoSnapshot(t *testing.T) {
	svc, _ := testService(t, 4, Options{})
	ctx := context.Background()
	if _, err := svc.Instances(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Instances(nope) err = %v, want ErrNotFound", err)
	}
	if _, err := svc.Explain(ctx, "c", "nope", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Explain err = %v, want ErrNotFound", err)
	}
	if _, err := svc.Drifted(ctx, "nope", 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("Drifted err = %v, want ErrNotFound", err)
	}

	empty := New(nil, Options{})
	if _, err := empty.Stats(ctx); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("Stats with no snapshot err = %v, want ErrNoSnapshot", err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Stats(canceled); !errors.Is(err, context.Canceled) {
		t.Errorf("Stats with canceled ctx err = %v", err)
	}
}

func TestCacheHitCounts(t *testing.T) {
	svc, k := testService(t, 8, Options{})
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := svc.Drifted(ctx, "c", 5); err != nil {
			t.Fatal(err)
		}
	}
	m := svc.Metrics().Endpoints["drifted"]
	if m.CacheMisses != 1 || m.CacheHits != 2 {
		t.Errorf("after 3 identical queries: misses=%d hits=%d, want 1/2", m.CacheMisses, m.CacheHits)
	}

	// A different query key misses independently.
	if _, err := svc.Drifted(ctx, "c", 6); err != nil {
		t.Fatal(err)
	}
	m = svc.Metrics().Endpoints["drifted"]
	if m.CacheMisses != 2 {
		t.Errorf("distinct query did not miss: %+v", m)
	}

	// Swapping in a new snapshot invalidates by construction: the key
	// embeds the generation.
	svc.Swap(snapshot.Freeze(k))
	if _, err := svc.Drifted(ctx, "c", 5); err != nil {
		t.Fatal(err)
	}
	m = svc.Metrics().Endpoints["drifted"]
	if m.CacheMisses != 3 {
		t.Errorf("query after swap should miss: %+v", m)
	}

	// Errors are never cached.
	for i := 0; i < 2; i++ {
		if _, err := svc.Instances(ctx, "nope"); !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	im := svc.Metrics().Endpoints["instances"]
	if im.CacheMisses != 2 || im.CacheHits != 0 || im.Errors != 2 {
		t.Errorf("error caching: %+v", im)
	}
}

func TestCacheDisabled(t *testing.T) {
	svc, _ := testService(t, 8, Options{CacheSize: -1})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := svc.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m := svc.Metrics().Endpoints["stats"]
	if m.CacheHits != 0 || m.CacheMisses != 3 {
		t.Errorf("disabled cache still hit: %+v", m)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.add("a", 1)
	c.add("b", 2)
	c.add("c", 3) // evicts a
	if _, ok := c.get("a"); ok {
		t.Error("a survived eviction")
	}
	if v, ok := c.get("b"); !ok || v != 2 {
		t.Error("b missing")
	}
	c.add("d", 4) // evicts c (b was just used)
	if _, ok := c.get("c"); ok {
		t.Error("c survived eviction after b was touched")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// asJSON canonicalizes a response for byte comparison.
func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestDriftedAnswersAreAppendSafe: drift answers share the snapshot's
// index, so each is clipped to cap == len — also when n reaches past
// the ranking — and appending to one response never changes the next.
func TestDriftedAnswersAreAppendSafe(t *testing.T) {
	snap := snapshot.Freeze(chainKB(10))
	ctx := context.Background()
	for name, q := range map[string]*Service{
		"cached":   New(snap, Options{}),
		"uncached": New(snap, Options{CacheSize: -1}),
	} {
		for _, concept := range []string{"", "c"} {
			for _, n := range []int{1, 3, 12, 1000} {
				what := fmt.Sprintf("%s Drifted(%q, %d)", name, concept, n)
				first, err := q.Drifted(ctx, concept, n)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if cap(first) != len(first) {
					t.Fatalf("%s: cap %d != len %d", what, cap(first), len(first))
				}
				want := asJSON(t, first)
				_ = append(first, DriftedInstance{Name: "intruder", Depth: 99})
				next, err := q.Drifted(ctx, concept, n)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := asJSON(t, next); got != want {
					t.Fatalf("%s: append leaked into a later response:\n got %s\nwant %s", what, got, want)
				}
			}
		}
	}
}

// TestDriftedCancelledCallerDoesNotPoisonIndex: a caller whose context
// is already done gets ctx.Err() before any work, and the next caller
// on the same fresh snapshot still gets the full ranking.
func TestDriftedCancelledCallerDoesNotPoisonIndex(t *testing.T) {
	svc, _ := testService(t, 6, Options{CacheSize: -1})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Drifted(cancelled, "", 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Drifted err = %v, want context.Canceled", err)
	}
	rows, err := svc.Drifted(context.Background(), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0] != (DriftedInstance{Concept: "c", Name: "i5", Depth: 6}) {
		t.Fatalf("Drifted after a cancelled caller = %+v", rows)
	}
}

// TestCoalescing proves that identical in-flight queries compute once:
// one goroutine blocks inside compute while followers pile up on the
// same key, then everyone gets the single result.
func TestCoalescing(t *testing.T) {
	svc, _ := testService(t, 4, Options{})
	const followers = 7

	var computes atomic.Int32
	computing := make(chan struct{})
	release := make(chan struct{})
	compute := func(*snapshot.Snapshot) (any, error) {
		if computes.Add(1) == 1 {
			close(computing)
			<-release
		}
		return "result", nil
	}

	results := make(chan string, followers+1)
	runOne := func() {
		v, err := svc.do(context.Background(), "stats", "coalesce-me", compute)
		if err != nil {
			t.Error(err)
			results <- ""
			return
		}
		results <- v.(string)
	}

	go runOne()
	<-computing // leader is inside compute, key is in flight

	for i := 0; i < followers; i++ {
		go runOne()
	}
	// Deterministically wait until every follower is parked on the call.
	key := "stats\x1f" + strconv.FormatUint(svc.Generation(), 10) + "\x1fcoalesce-me"
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.flights.mu.Lock()
		c := svc.flights.m[key]
		parked := int32(0)
		if c != nil {
			parked = c.waiters.Load()
		}
		svc.flights.mu.Unlock()
		if parked >= followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers parked", parked, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < followers+1; i++ {
		if got := <-results; got != "result" {
			t.Fatalf("result %d = %q", i, got)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	m := svc.Metrics().Endpoints["stats"]
	if m.Coalesced != followers || m.CacheMisses != 1 {
		t.Errorf("coalesced=%d misses=%d, want %d/1", m.Coalesced, m.CacheMisses, followers)
	}
}

// TestSwapUnderConcurrentReaders is the -race hammer: 12 readers issue
// queries nonstop while the writer swaps fresh snapshots underneath
// them. Every reader must only ever observe fully-consistent snapshots.
func TestSwapUnderConcurrentReaders(t *testing.T) {
	k := chainKB(32)
	svc := New(snapshot.Freeze(k), Options{})
	minGen := svc.Generation()

	const readers = 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st, err := svc.Stats(ctx)
				if err != nil {
					errs <- err
					return
				}
				if st.Generation < minGen {
					errs <- fmt.Errorf("reader %d saw stale generation %d < %d", r, st.Generation, minGen)
					return
				}
				// Internally-consistent reads regardless of swaps: the
				// chain concept always has exactly 32 instances.
				ins, err := svc.Instances(ctx, "c")
				if err != nil {
					errs <- err
					return
				}
				if len(ins) != 32 {
					errs <- fmt.Errorf("reader %d saw %d instances", r, len(ins))
					return
				}
				if _, err := svc.Drifted(ctx, "c", 4); err != nil {
					errs <- err
					return
				}
				if _, err := svc.Explain(ctx, "c", "i7", 1); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	for i := 0; i < 60; i++ {
		// Mutate the writer's KB, then publish a fresh frozen view —
		// the single-writer / many-reader protocol end to end.
		k.AddExtraction(1000+i, "flat", []string{"flat"}, []string{"z" + strconv.Itoa(i)}, nil, 2)
		old := svc.Swap(snapshot.Freeze(k))
		if old == nil {
			t.Error("Swap returned nil previous snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := svc.Metrics().Swaps; got != 60 {
		t.Errorf("swaps = %d, want 60", got)
	}
}

func TestExpvarHandler(t *testing.T) {
	svc, _ := testService(t, 4, Options{})
	if _, err := svc.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	svc.ExpvarHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc struct {
		Driftserve Metrics `json:"driftserve"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Driftserve.Endpoints["stats"].Requests != 1 {
		t.Errorf("metrics = %+v", doc.Driftserve)
	}
	if doc.Driftserve.Generation == 0 {
		t.Error("generation missing from metrics")
	}
}
