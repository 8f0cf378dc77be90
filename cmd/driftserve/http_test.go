package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"driftclean"
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/serve"
)

// writePipelineKB runs the default pipeline over a corpus of the given
// size and saves the cleaned KB as a binary snapshot, as driftclean
// -savekb does, returning its path.
func writePipelineKB(tb testing.TB, sentences int) string {
	tb.Helper()
	cfg := driftclean.DefaultConfig()
	cfg.Corpus.NumSentences = sentences
	rep, err := driftclean.CleanContext(context.Background(), driftclean.WithConfig(cfg))
	if err != nil && !errors.Is(err, driftclean.ErrNoDPsDetected) {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "kb.bin")
	if err := binsnap.WriteFile(path, rep.System.KB); err != nil {
		tb.Fatal(err)
	}
	return path
}

// pinnedRequests is the fixed request list of TestHTTPResponsesPinned:
// a method, a target and, for a POST, an optional body ("{}" when
// absent). {c} and {e} expand to the served KB's deepest-drifted pair;
// repeated requests are cache hits. The explicit one-sentence ingest
// comes last: in -session mode it publishes the first snapshot.
var pinnedRequests = []string{
	"GET /v1/stats",
	"GET /v1/stats",
	"GET /v1/concepts",
	"GET /v1/concepts",
	"GET /v1/instances?concept={c}",
	"GET /v1/instances?concept={c}",
	"GET /v1/explain?concept={c}&instance={e}",
	"GET /v1/explain?concept={c}&instance={e}",
	"GET /v1/explain?concept={c}&instance={e}&n=1",
	"GET /v1/drifted?concept={c}&n=2",
	"GET /v1/drifted?concept={c}&n=2",
	"GET /v1/drifted",
	"GET /v1/drifted?n=3",
	"GET /v1/drifted?n=100000",
	"GET /v1/generation",
	"GET /v1/instances",
	"GET /v1/explain?concept={c}",
	"GET /v1/explain?instance={e}",
	"GET /v1/drifted?n=potato",
	"GET /v1/drifted?concept={c}&n=-3",
	"GET /v1/explain?concept={c}&instance={e}&n=zero",
	"GET /v1/instances?concept=spaceship",
	"GET /v1/explain?concept={c}&instance=spoon",
	"GET /v1/drifted?concept=spaceship",
	"GET /v1/nosuch",
	"POST /v1/stats",
	"POST /v1/ingest",
	"POST /v1/reload",
	`POST /v1/ingest {"sentences":[{"ID":0,"Text":"animal such as dog , cat and duck ."}]}`,
}

const (
	jsonType = "application/json; charset=utf-8"
	textType = "text/plain; charset=utf-8"
)

// httpPin is what one pinned request must answer: the status, the
// Content-Type and the FNV-1a fingerprint of the body, with snapshot
// generations masked (they count freezes process-wide).
type httpPin struct {
	status int
	ctype  string
	fp     string
}

// httpPins hold every answer of pinnedRequests, in order, per served
// state. An intended change to what goes over the wire edits them.
var httpPins = map[string][]httpPin{
	"small": {
		{200, jsonType, "f4106b4abe0b5bd9"},
		{200, jsonType, "f4106b4abe0b5bd9"},
		{200, jsonType, "7856a53945a33f91"},
		{200, jsonType, "7856a53945a33f91"},
		{200, jsonType, "82085672b5fa8222"},
		{200, jsonType, "82085672b5fa8222"},
		{200, jsonType, "c65b4539a6e0e26b"},
		{200, jsonType, "c65b4539a6e0e26b"},
		{200, jsonType, "c65b4539a6e0e26b"},
		{200, jsonType, "bb45c84329c20b5d"},
		{200, jsonType, "bb45c84329c20b5d"},
		{200, jsonType, "2f71ba64ce39ca19"},
		{200, jsonType, "a14b670918b287ec"},
		{200, jsonType, "2f71ba64ce39ca19"},
		{200, jsonType, "88ae423a21345613"},
		{400, jsonType, "047d83e8382673f7"},
		{400, jsonType, "0262e6ecdd49b69a"},
		{400, jsonType, "047d83e8382673f7"},
		{400, jsonType, "32fdabeaef9ce562"},
		{400, jsonType, "32fdabeaef9ce562"},
		{400, jsonType, "32fdabeaef9ce562"},
		{404, jsonType, "58864b62ce381d7d"},
		{404, jsonType, "66c38d13a0df5f3e"},
		{404, jsonType, "58864b62ce381d7d"},
		{404, textType, "549c53e274b689c7"},
		{405, textType, "3536e7adc28d51dd"},
		{404, textType, "549c53e274b689c7"},
		{200, jsonType, "d08f9ac471faed89"},
		{404, textType, "549c53e274b689c7"},
	},
	"6k": {
		{200, jsonType, "a794e8ada4efec02"},
		{200, jsonType, "a794e8ada4efec02"},
		{200, jsonType, "6677e4eb37c1e054"},
		{200, jsonType, "6677e4eb37c1e054"},
		{200, jsonType, "1baf50adbdc2e17f"},
		{200, jsonType, "1baf50adbdc2e17f"},
		{200, jsonType, "9df5b452bbec0960"},
		{200, jsonType, "9df5b452bbec0960"},
		{200, jsonType, "9df5b452bbec0960"},
		{200, jsonType, "0afcdd652881f097"},
		{200, jsonType, "0afcdd652881f097"},
		{200, jsonType, "d375f02a62ac6f6d"},
		{200, jsonType, "911c0868bbac4443"},
		{200, jsonType, "b5b158bafd08ef31"},
		{200, jsonType, "88ae423a21345613"},
		{400, jsonType, "047d83e8382673f7"},
		{400, jsonType, "0262e6ecdd49b69a"},
		{400, jsonType, "047d83e8382673f7"},
		{400, jsonType, "32fdabeaef9ce562"},
		{400, jsonType, "32fdabeaef9ce562"},
		{400, jsonType, "32fdabeaef9ce562"},
		{404, jsonType, "58864b62ce381d7d"},
		{404, jsonType, "d6ce0925f5fc91a0"},
		{404, jsonType, "58864b62ce381d7d"},
		{404, textType, "549c53e274b689c7"},
		{405, textType, "3536e7adc28d51dd"},
		{404, textType, "549c53e274b689c7"},
		{200, jsonType, "d08f9ac471faed89"},
		{404, textType, "549c53e274b689c7"},
	},
	"session": {
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{200, jsonType, "88ae423a21345613"},
		{400, jsonType, "047d83e8382673f7"},
		{400, jsonType, "0262e6ecdd49b69a"},
		{400, jsonType, "047d83e8382673f7"},
		{400, jsonType, "32fdabeaef9ce562"},
		{400, jsonType, "32fdabeaef9ce562"},
		{400, jsonType, "32fdabeaef9ce562"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{503, jsonType, "3cb15e618b14ab00"},
		{404, textType, "549c53e274b689c7"},
		{405, textType, "3536e7adc28d51dd"},
		{400, jsonType, "f2f0c8e0459b5bfc"},
		{404, textType, "549c53e274b689c7"},
		{200, jsonType, "1aef8c090b2dfeab"},
	},
}

var generationField = regexp.MustCompile(`"generation":[0-9]+`)

// bodyFingerprint is the FNV-1a hash of body with every generation
// number replaced by 0.
func bodyFingerprint(body []byte) string {
	h := fnv.New64a()
	h.Write(generationField.ReplaceAll(body, []byte(`"generation":0`)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestHTTPResponsesPinned sends pinnedRequests through newHandler with
// the default 5s timeout and compares each answer with its pin: over
// the small test KB, over a 6,000-sentence pipeline KB, and in -session
// mode before the first ingest.
func TestHTTPResponsesPinned(t *testing.T) {
	for _, name := range []string{"small", "6k", "session"} {
		t.Run(name, func(t *testing.T) {
			var path string
			switch name {
			case "small":
				path = writeTestKB(t, t.TempDir(), 0)
			case "6k":
				path = writePipelineKB(t, 6000)
			}
			c, e := "animal", "dingo"
			var h http.Handler
			if path == "" {
				h = sessionHandler(openTestSession(t), serve.Options{}, 5*time.Second, log.New(io.Discard, "", 0))
			} else {
				snap, err := freezeFile(path)
				if err != nil {
					t.Fatal(err)
				}
				top := snap.FleetDriftRanking(1)[0]
				c, e = top.Concept, top.Name
				svc := serve.New(snap, serve.Options{})
				reload := func() error {
					next, err := freezeFile(path)
					if err == nil {
						svc.Swap(next)
					}
					return err
				}
				h = newHandler(handlerConfig{svc: svc, reload: reload, timeout: 5 * time.Second})
			}
			expand := strings.NewReplacer("{c}", url.QueryEscape(c), "{e}", url.QueryEscape(e))
			var got []httpPin
			for _, req := range pinnedRequests {
				method, rest, _ := strings.Cut(expand.Replace(req), " ")
				target, payload, _ := strings.Cut(rest, " ")
				var body io.Reader
				if method == http.MethodPost {
					if payload == "" {
						payload = "{}"
					}
					body = strings.NewReader(payload)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, target, body))
				got = append(got, httpPin{rec.Code, rec.Header().Get("Content-Type"), bodyFingerprint(rec.Body.Bytes())})
			}
			want := httpPins[name]
			if len(want) != len(got) {
				t.Fatalf("%d pins for %d requests; answers now:\n%s", len(want), len(got), pinLiterals(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: got %+v, pinned %+v", pinnedRequests[i], got[i], want[i])
				}
			}
			if t.Failed() {
				t.Logf("answers now:\n%s", pinLiterals(got))
			}
		})
	}
}

// pinLiterals formats answers as httpPins entries.
func pinLiterals(pins []httpPin) string {
	var b strings.Builder
	for _, p := range pins {
		ctype := fmt.Sprintf("%q", p.ctype)
		switch p.ctype {
		case jsonType:
			ctype = "jsonType"
		case textType:
			ctype = "textType"
		}
		fmt.Fprintf(&b, "\t\t{%d, %s, %q},\n", p.status, ctype, p.fp)
	}
	return b.String()
}

// BenchmarkHandler measures one query through newHandler on the
// cleaned KB of the default 40,000-sentence pipeline, in two arms.
//
//   - hot: the requests follow driftserve's hot load mix — 40% instance
//     listings, 30% explains, 10% concept drift rankings, 10% fleet-wide
//     rankings, 10% concept listings — and every one is answered once
//     before the timer starts, so each timed request is a cache hit. It
//     runs with the default 5s deadline and without one.
//   - cold: the same endpoint mix drawn as perfbench's serve-cold draws
//     it — explains with n in 1–64, concept rankings with n in 1–7000,
//     fleet-wide rankings with n up to the pair count — from 10,000
//     requests. A request recurs only after some 6,000 others have
//     pushed it out of the 4,096-entry cache, so every explain and
//     ranking is computed and encoded afresh; the few listings stay
//     cached (they are answered once before the timer starts), as they
//     do in serve-cold.
func BenchmarkHandler(b *testing.B) {
	snap, err := freezeFile(writePipelineKB(b, 40000))
	if err != nil {
		b.Fatal(err)
	}
	concepts := snap.Concepts()
	var pairs [][2]string
	for _, c := range concepts {
		for _, e := range snap.Instances(c) {
			pairs = append(pairs, [2]string{c, e})
		}
	}
	get := func(target string) *http.Request { return httptest.NewRequest(http.MethodGet, target, nil) }
	instances := func(c string) *http.Request { return get("/v1/instances?concept=" + url.QueryEscape(c)) }
	explain := func(p [2]string, n int) *http.Request {
		return get("/v1/explain?concept=" + url.QueryEscape(p[0]) + "&instance=" + url.QueryEscape(p[1]) + "&n=" + strconv.Itoa(n))
	}
	drifted := func(c string, n int) *http.Request {
		return get("/v1/drifted?concept=" + url.QueryEscape(c) + "&n=" + strconv.Itoa(n))
	}
	var hot, cold []*http.Request
	for i := 0; i < 100; i++ {
		c := concepts[i%len(concepts)]
		switch i % 10 {
		case 0, 1, 2, 3:
			hot = append(hot, instances(c))
		case 4, 5, 6:
			hot = append(hot, explain(pairs[i*7919%len(pairs)], 3))
		case 7:
			hot = append(hot, drifted(c, 10))
		case 8:
			hot = append(hot, get("/v1/drifted?n=20"))
		default:
			hot = append(hot, get("/v1/concepts"))
		}
	}
	listings := []*http.Request{get("/v1/concepts")}
	for _, c := range concepts {
		listings = append(listings, instances(c))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		switch pick := rng.Intn(10); {
		case pick < 4:
			cold = append(cold, instances(concepts[rng.Intn(len(concepts))]))
		case pick < 7:
			cold = append(cold, explain(pairs[rng.Intn(len(pairs))], 1+rng.Intn(64)))
		case pick < 8:
			cold = append(cold, drifted(concepts[rng.Intn(len(concepts))], 1+rng.Intn(7000)))
		case pick < 9:
			cold = append(cold, get("/v1/drifted?n="+strconv.Itoa(1+rng.Intn(len(pairs)))))
		default:
			cold = append(cold, get("/v1/concepts"))
		}
	}
	run := func(name string, timeout time.Duration, warm, reqs []*http.Request) {
		b.Run(name, func(b *testing.B) {
			h := newHandler(handlerConfig{svc: serve.New(snap, serve.Options{}), timeout: timeout})
			for _, r := range warm {
				h.ServeHTTP(httptest.NewRecorder(), r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				if h.ServeHTTP(rec, reqs[i%len(reqs)]); rec.Code != http.StatusOK {
					b.Fatalf("%s = %d: %s", reqs[i%len(reqs)].URL, rec.Code, rec.Body)
				}
			}
		})
	}
	for _, timeout := range []time.Duration{5 * time.Second, 0} {
		run("hot/timeout="+timeout.String(), timeout, hot, hot)
	}
	run("cold", 5*time.Second, listings, cold)
}
