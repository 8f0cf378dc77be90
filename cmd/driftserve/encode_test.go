package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"driftclean/internal/kb"
	"driftclean/internal/serve"
	"driftclean/internal/snapshot"
)

// wireTypes lists every type the server answers with: the value
// encoding/json is given, and the same value as the encoder's body.
var wireTypes = []struct {
	zero any
	body func(v any) body
}{
	{serve.StatsResult{}, func(v any) body { return statsBody(v.(serve.StatsResult)) }},
	{[]serve.ConceptInfo{}, func(v any) body { return conceptList(v.([]serve.ConceptInfo)) }},
	{[]serve.InstanceInfo{}, func(v any) body { return instanceList(v.([]serve.InstanceInfo)) }},
	{[]snapshot.DriftRow{}, func(v any) body { return driftList(v.([]snapshot.DriftRow)) }},
	{kb.Explanation{}, func(v any) body { return explanation(v.(kb.Explanation)) }},
	{generationResponse{}, func(v any) body { return v.(generationResponse) }},
	{reloadResponse{}, func(v any) body { return v.(reloadResponse) }},
	{ingestResponse{}, func(v any) body { return v.(ingestResponse) }},
	{errorBody{}, func(v any) body { return v.(errorBody) }},
}

// checkEncoding fails t unless the encoder writes what json.Encoder
// writes for v, a value of one of wireTypes, byte for byte.
func checkEncoding(t *testing.T, v any) {
	t.Helper()
	var b body
	for _, w := range wireTypes {
		if reflect.TypeOf(w.zero) == reflect.TypeOf(v) {
			b = w.body(v)
		}
	}
	if b == nil {
		t.Fatalf("%T is not a wire type", v)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if got := b.appendJSON(nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%T %#v\nappendJSON: %q\nencoding/json: %q", v, v, got, want.Bytes())
	}
}

// TestAppendBodyMatchesEncodingJSON encodes random values of every wire
// type. testing/quick fills every field, so a field added to one of
// these types fails here until the encoder writes it.
func TestAppendBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range wireTypes {
		for i := 0; i < 200; i++ {
			v, ok := quick.Value(reflect.TypeOf(w.zero), rng)
			if !ok {
				t.Fatalf("quick cannot generate %T", w.zero)
			}
			checkEncoding(t, v.Interface())
		}
	}
}

// FuzzAppendBody builds a value of every wire type from two strings and
// an integer, with nil, empty or one-element slices, and compares the
// encoder with encoding/json.
func FuzzAppendBody(f *testing.F) {
	// Each escape alone inside plain ASCII, so that no other byte sends
	// the string down the escaping path.
	for _, s := range []string{
		"", "dog", `"`, `\`, "<", ">", "&", "\x00", "\t", "\n", "\x1f", "\x7f",
		"\u2028", "\u2029", "\xff", "\xed\xa0\x80", "é", "\U0001F415",
	} {
		f.Add("a"+s+"b", "animal", int64(3), uint8(2))
		f.Add("dingo", s, int64(-1), uint8(1))
	}
	f.Add("", "", int64(0), uint8(0))
	f.Add("x", "", int64(math.MinInt64), uint8(2))
	f.Add("x", "y", int64(math.MaxInt64), uint8(2))
	f.Fuzz(func(t *testing.T, a, c string, n int64, shape uint8) {
		// shape 0: nil slices; 1: empty slices; otherwise one element.
		i := int(n)
		var (
			concepts  []serve.ConceptInfo
			instances []serve.InstanceInfo
			rows      []snapshot.DriftRow
			supports  []kb.Support
			triggers  []string
			chain     []kb.ChainLink
		)
		switch shape % 3 {
		case 1:
			concepts, instances, rows = []serve.ConceptInfo{}, []serve.InstanceInfo{}, []snapshot.DriftRow{}
			supports, triggers, chain = []kb.Support{}, []string{}, []kb.ChainLink{}
		case 2:
			concepts = []serve.ConceptInfo{{Name: a, Instances: i}}
			instances = []serve.InstanceInfo{{Name: a, Count: i, SubInstances: -i}}
			rows = []snapshot.DriftRow{{Concept: c, Name: a, Depth: i}, {Name: c, Depth: -i}}
			triggers = []string{a, c}
			chain = []kb.ChainLink{{Pair: kb.Pair{Concept: c, Instance: a}, Iteration: i, Core: n%2 == 0}}
			supports = []kb.Support{
				{ExtractionID: i, SentenceID: -i, Iteration: i, Triggers: triggers, Chain: chain},
				{Triggers: nil, Chain: nil},
			}
		}
		for _, v := range []any{
			serve.StatsResult{Generation: uint64(n), Stats: kb.Stats{DistinctPairs: i, TotalCount: -i, Concepts: len(a), ActiveExtractions: len(c)}},
			concepts,
			instances,
			rows,
			kb.Explanation{Pair: kb.Pair{Concept: c, Instance: a}, Count: i, Supports: supports},
			generationResponse{Generation: uint64(n), Stale: n%2 != 0},
			reloadResponse{Generation: uint64(n)},
			ingestResponse{Generation: uint64(n), Ingested: i, Remaining: -i},
			errorBody{Error: a + c},
		} {
			checkEncoding(t, v)
		}
	})
}

// TestConcurrentBodiesMatchSequential sends requests of every size from
// several goroutines at once through one handler with the cache off:
// each body must equal its sequential answer, so no two requests ever
// share a pooled buffer.
func TestConcurrentBodiesMatchSequential(t *testing.T) {
	snap, err := freezeFile(writeTestKB(t, t.TempDir(), 300))
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler(handlerConfig{svc: serve.New(snap, serve.Options{CacheSize: -1})})
	targets := []string{
		"/v1/stats", "/v1/concepts", "/v1/instances?concept=tool", "/v1/instances?concept=animal",
		"/v1/explain?concept=animal&instance=dingo", "/v1/drifted", "/v1/drifted?n=1",
		"/v1/instances?concept=spaceship", "/v1/generation",
	}
	answer := func(target string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec.Body.String()
	}
	want := make([]string, len(targets))
	for i, target := range targets {
		want[i] = answer(target)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % len(targets)
				if got := answer(targets[k]); got != want[k] {
					t.Errorf("%s answered %q concurrently, %q alone", targets[k], got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
