package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"driftclean/internal/kb/kbio"
	"driftclean/internal/serve"
	"driftclean/internal/snapshot"
)

// The serve mixes draw driftload's endpoint shares: 40% instance
// listings, 30% explains, 10% concept drift rankings, 10% fleet-wide
// drift rankings and 10% concept listings.
const (
	// hotExplainKeys bounds serve-hot's popular explain pairs, so its
	// whole key set fits in driftserve's default result cache.
	hotExplainKeys = 512
	hotZipfS       = 1.1
	// coldExplainMaxN and coldDriftMaxN bound the uniform n of serve-cold's
	// explains and concept rankings. With the 40k-sentence KB's 13,603
	// pairs and 63 concepts, both key spaces exceed 100x the cache.
	coldExplainMaxN = 64
	coldDriftMaxN   = 7000
	// replayBudget caps the traced run's in-process replay.
	replayBudget = 8 * time.Second
	// warmSeconds of untimed requests from the mix precede the timed
	// phase, so it starts on a server that has been answering the mix.
	warmSeconds = 2 * time.Second
)

// endpoints are the query endpoints the mixes use.
var endpoints = []string{"concepts", "instances", "explain", "drifted"}

// request is one driftserve query.
type request struct {
	endpoint          string
	concept, instance string
	n                 int
}

func (r request) path() string {
	q := url.Values{}
	if r.concept != "" {
		q.Set("concept", r.concept)
	}
	if r.instance != "" {
		q.Set("instance", r.instance)
	}
	if r.n > 0 {
		q.Set("n", strconv.Itoa(r.n))
	}
	if len(q) == 0 {
		return "/v1/" + r.endpoint
	}
	return "/v1/" + r.endpoint + "?" + q.Encode()
}

// call answers the request in-process, as driftserve's handler does.
func (r request) call(ctx context.Context, svc *serve.Service) (any, error) {
	switch r.endpoint {
	case "concepts":
		return svc.Concepts(ctx)
	case "instances":
		return svc.Instances(ctx, r.concept)
	case "explain":
		return svc.Explain(ctx, r.concept, r.instance, r.n)
	default:
		return svc.Drifted(ctx, r.concept, r.n)
	}
}

type pair struct{ concept, instance string }

// keySpace is the population requests draw from: every concept and
// every active pair of the served KB.
type keySpace struct {
	concepts []string
	pairs    []pair
}

func newKeySpace(snap *snapshot.Snapshot) *keySpace {
	ks := &keySpace{concepts: snap.Concepts()}
	for _, c := range ks.concepts {
		for _, e := range snap.Instances(c) {
			ks.pairs = append(ks.pairs, pair{c, e})
		}
	}
	return ks
}

type mix interface{ next() request }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// hotMix draws Zipf-distributed keys from a popular set that fits in
// the result cache.
type hotMix struct {
	rng      *rand.Rand
	concepts []string
	pairs    []pair
	zc, zp   *rand.Zipf
}

func newHotMix(ks *keySpace, seed int64) *hotMix {
	rng := newRand(seed)
	m := &hotMix{rng: rng}
	for _, i := range rng.Perm(len(ks.concepts)) {
		m.concepts = append(m.concepts, ks.concepts[i])
	}
	for _, i := range rng.Perm(len(ks.pairs))[:min(hotExplainKeys, len(ks.pairs))] {
		m.pairs = append(m.pairs, ks.pairs[i])
	}
	m.zc = rand.NewZipf(rng, hotZipfS, 1, uint64(len(m.concepts)-1))
	m.zp = rand.NewZipf(rng, hotZipfS, 1, uint64(len(m.pairs)-1))
	return m
}

func (m *hotMix) next() request {
	switch pick := m.rng.Intn(10); {
	case pick < 4:
		return request{endpoint: "instances", concept: m.concepts[m.zc.Uint64()]}
	case pick < 7:
		p := m.pairs[m.zp.Uint64()]
		return request{endpoint: "explain", concept: p.concept, instance: p.instance, n: 3}
	case pick < 8:
		return request{endpoint: "drifted", concept: m.concepts[m.zc.Uint64()], n: 10}
	case pick < 9:
		return request{endpoint: "drifted", n: 20}
	default:
		return request{endpoint: "concepts"}
	}
}

// keys is the popular set: every request the mix can draw.
func (m *hotMix) keys() []request {
	out := []request{{endpoint: "concepts"}, {endpoint: "drifted", n: 20}}
	for _, c := range m.concepts {
		out = append(out, request{endpoint: "instances", concept: c}, request{endpoint: "drifted", concept: c, n: 10})
	}
	for _, p := range m.pairs {
		out = append(out, request{endpoint: "explain", concept: p.concept, instance: p.instance, n: 3})
	}
	return out
}

// coldMix draws concepts, pairs and n uniformly, so explains and drift
// rankings almost never repeat a key the cache still holds.
type coldMix struct {
	rng *rand.Rand
	ks  *keySpace
}

func (m *coldMix) next() request {
	ks := m.ks
	switch pick := m.rng.Intn(10); {
	case pick < 4:
		return request{endpoint: "instances", concept: ks.concepts[m.rng.Intn(len(ks.concepts))]}
	case pick < 7:
		p := ks.pairs[m.rng.Intn(len(ks.pairs))]
		return request{endpoint: "explain", concept: p.concept, instance: p.instance, n: 1 + m.rng.Intn(coldExplainMaxN)}
	case pick < 8:
		return request{endpoint: "drifted", concept: ks.concepts[m.rng.Intn(len(ks.concepts))], n: 1 + m.rng.Intn(coldDriftMaxN)}
	case pick < 9:
		return request{endpoint: "drifted", n: 1 + m.rng.Intn(len(ks.pairs))}
	default:
		return request{endpoint: "concepts"}
	}
}

// keyCounts returns how many distinct explain and drift-ranking
// requests the mix draws from.
func (m *coldMix) keyCounts() (explain, drifted int) {
	return len(m.ks.pairs) * coldExplainMaxN, len(m.ks.concepts)*coldDriftMaxN + len(m.ks.pairs)
}

func runServeHot(rc *runCtx) error {
	// With every answer cached, a request costs about 100 us of server
	// CPU, mostly net/http and system calls. Spare Ps then spin in both
	// processes and take the CPU the other is about to need, which moved
	// latency by a fifth between runs on a 2-CPU host; one P each keeps
	// client and server on a CPU apiece.
	return runServe(rc, 1, func(ks *keySpace) (mix, []request) {
		m := newHotMix(ks, rc.seed)
		return m, m.keys()
	})
}

func runServeCold(rc *runCtx) error {
	// The fresh rankings allocate heavily, and the program's concurrent
	// GC is part of what this workload measures, so it keeps the default
	// GOMAXPROCS.
	return runServe(rc, 0, func(ks *keySpace) (mix, []request) {
		m := &coldMix{rng: newRand(rc.seed), ks: ks}
		if e, d := m.keyCounts(); min(e, d) < 100*serve.DefaultCacheSize {
			rc.logf("note: cold key space (%d explain, %d drift-ranking keys) is under 100x the cache", e, d)
		}
		// The warm-up is the seed-independent canonical set: seeded cold
		// draws would make set-up cost depend on how many fleet-wide
		// rankings, tens of ms each, the seed happens to draw.
		return m, canonicalRequests(ks)
	})
}

// runServe drives driftserve -kb on the binary snapshot of a cleaned KB
// with one closed-loop connection. newMix returns the request mix and
// the warm-up requests the set-up sends. procs > 0 sets GOMAXPROCS in
// both the server and the benchmark's client.
func runServe(rc *runCtx, procs int, newMix func(*keySpace) (mix, []request)) error {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rc.host.GOMAXPROCS = procs
	}
	kbFile, err := buildServedKB(rc)
	if err != nil {
		return err
	}
	snap, _, err := kbio.FreezeFile(kbFile)
	if err != nil {
		return err
	}
	ks := newKeySpace(snap)
	m, warm := newMix(ks)
	canon := canonicalRequests(ks)
	want, err := inProcessHash(snap, canon)
	if err != nil {
		return err
	}
	rc.logf("canonical response hash %s (%d concepts, %d pairs)", want, len(ks.concepts), len(ks.pairs))
	if rec := expected("serve", rc.w.sentences, rc.world); rec != "" && want != rec {
		rc.fail("in-process canonical response hash %s, recorded %s", want, rec)
	}

	var t timing
	var srv *server
	for i := 0; i < rc.w.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if srv, err = startServer(rc, procs, "-kb", kbFile); err != nil {
			return err
		}
		for _, r := range warm {
			if _, err := srv.query(r); err != nil {
				srv.stop()
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		t.setups = append(t.setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	if got, err := responseHash(canon, srv.query); err != nil || got != want {
		rc.fail("canonical response hash over HTTP %s (%v), in-process %s", got, err, want)
	}

	for deadline := time.Now().Add(warmSeconds); time.Now().Before(deadline); {
		if _, err := srv.query(m.next()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	var vars0 map[string]serve.EndpointStats
	if rc.trace {
		if vars0, err = srv.vars(); err != nil {
			return err
		}
	}
	var reqs []request
	bodyBytes := 0
	pid := srv.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	probe := startHostProbe()
	start := time.Now()
	for deadline := start.Add(rc.seconds); time.Now().Before(deadline); {
		rc.attempted++
		r := m.next()
		t0 := time.Now()
		status, body, err := srv.get(r.path())
		d := time.Since(t0)
		if err := checkResponse(status, body, err); err != nil {
			rc.fail("GET %s: %v", r.path(), err)
			continue
		}
		t.lat = append(t.lat, ms(d))
		bodyBytes += len(body)
		if rc.trace {
			reqs = append(reqs, r)
		}
	}
	t.wall = time.Since(start)
	probe.finish(rc)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	t.cpu = cpu1 - cpu0
	if t.rssMB, err = peakRSSMB(pid); err != nil {
		return err
	}
	if !rc.trace {
		rc.report(t)
		return nil
	}
	vars1, err := srv.vars()
	if err != nil {
		return err
	}
	srv.stop()
	if len(reqs) == 0 {
		return fmt.Errorf("no request succeeded")
	}
	return rc.serveLayers(kbFile, warm, reqs, t.lat, bodyBytes, vars0, vars1)
}

// buildServedKB writes the cleaned KB with the program's own commands:
// driftclean -savekb, then kbsnap convert to the binary format.
func buildServedKB(rc *runCtx) (string, error) {
	gob, bin := filepath.Join(rc.dir, "kb.gob"), filepath.Join(rc.dir, "kb.bin")
	if err := rc.tool("driftclean", append(cliArgs(rc.w.sentences, rc.world), "-savekb", gob)...); err != nil {
		return "", err
	}
	if err := rc.tool("kbsnap", "convert", gob, bin, "binary"); err != nil {
		return "", err
	}
	return bin, nil
}

// canonicalRequests is a fixed response set covering every endpoint of
// the mixes and every concept.
func canonicalRequests(ks *keySpace) []request {
	out := []request{{endpoint: "concepts"}, {endpoint: "drifted", n: 100}}
	for _, c := range ks.concepts {
		out = append(out, request{endpoint: "instances", concept: c}, request{endpoint: "drifted", concept: c, n: 5})
	}
	seen := map[string]bool{}
	for _, p := range ks.pairs {
		if !seen[p.concept] {
			seen[p.concept] = true
			out = append(out, request{endpoint: "explain", concept: p.concept, instance: p.instance, n: 3})
		}
	}
	return out
}

// responseHash hashes the bodies of the requests, in order.
func responseHash(reqs []request, fetch func(request) ([]byte, error)) (string, error) {
	h := fnv.New64a()
	for _, r := range reqs {
		body, err := fetch(r)
		if err != nil {
			return "", err
		}
		h.Write(body)
		h.Write([]byte{0x1f})
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// inProcessHash answers the requests through serve.New on the snapshot
// and encodes them as driftserve's handler does.
func inProcessHash(snap *snapshot.Snapshot, reqs []request) (string, error) {
	svc := serve.New(snap, serve.Options{})
	ctx := context.Background()
	return responseHash(reqs, func(r request) ([]byte, error) {
		v, err := r.call(ctx, svc)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(v)
		return buf.Bytes(), err
	})
}

// serveLayers computes the traced serve run's per-layer metrics: the
// live server's cache counters over the timed phase, and an in-process
// replay of the same requests through serve.Service and through the
// snapshot's view methods.
func (rc *runCtx) serveLayers(kbFile string, warm, reqs []request, httpLat []float64, bodyBytes int,
	vars0, vars1 map[string]serve.EndpointStats) error {
	set := func(name string, v float64) { rc.layers[name] = v }
	ops := float64(len(reqs))
	var opens []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, _, err := kbio.FreezeFile(kbFile); err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t0)))
	}
	set("kbio.open_ms", median(opens))
	coalesced := int64(0)
	for _, ep := range endpoints {
		a, b := vars0[ep], vars1[ep]
		if n := b.Requests - a.Requests; n > 0 {
			set("serve.cache_hit_ratio."+ep, float64(b.CacheHits-a.CacheHits)/float64(n))
		}
		coalesced += b.Coalesced - a.Coalesced
	}
	set("serve.coalesced_per_op", float64(coalesced)/ops)
	set("http.response_bytes", float64(bodyBytes)/ops)
	set("trace.latency_p50_ms", percentile(sorted(httpLat), 50))

	snap, _, err := kbio.FreezeFile(kbFile)
	if err != nil {
		return err
	}
	svc := serve.New(snap, serve.Options{})
	ctx := context.Background()
	for _, r := range warm {
		if _, err := r.call(ctx, svc); err != nil {
			return err
		}
	}
	tr := newTracer()
	var httpSame, svcAll []float64
	deadline := time.Now().Add(replayBudget)
	for i, r := range reqs {
		if time.Now().After(deadline) {
			break
		}
		root := tr.begin("op", -1, i)
		s := tr.begin("service."+r.endpoint, root, i)
		_, err := r.call(ctx, svc)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", r.path(), err)
		}
		svcAll = append(svcAll, float64(tr.spans[s].End-tr.spans[s].Start)/1e6)
		viewCalls(tr, snap, r, root, i)
		tr.end(root)
		httpSame = append(httpSame, httpLat[i])
	}
	for _, ep := range endpoints {
		replayed := tr.durationsMS("service." + ep)
		set("serve.service_us."+ep, 1000*percentile(sorted(replayed), 50))
		// Cross-check the replay against the live server's own mean
		// service time over the timed phase. AvgMicros is truncated to
		// whole microseconds, so the live mean is good to about 1 us.
		a, b := vars0[ep], vars1[ep]
		if n := b.Requests - a.Requests; n > 0 && len(replayed) > 0 {
			live := float64(b.AvgMicros*b.Requests-a.AvgMicros*a.Requests) / float64(n)
			mean := 1000 * sum(replayed) / float64(len(replayed))
			rc.logf("%-9s replayed mean %9.1f us, live server mean %9.1f us, ratio %.2f", ep, mean, live, mean/live)
		}
	}
	set("http.overhead_us", 1000*(percentile(sorted(httpSame), 50)-percentile(sorted(svcAll), 50)))
	for _, v := range []string{"concepts", "instances", "explain", "drift_depth", "top_drifted"} {
		set("view."+v+"_us", 1000*percentile(sorted(tr.durationsMS("view."+v)), 50))
	}
	rc.logf("replayed %d of %d requests in-process", len(httpSame), len(reqs))
	return rc.writeTrace(tr)
}

// viewCalls times the snapshot view methods behind one request.
func viewCalls(tr *tracer, snap *snapshot.Snapshot, r request, parent, op int) {
	timed := func(name string, f func()) {
		s := tr.begin(name, parent, op)
		f()
		tr.end(s)
	}
	switch r.endpoint {
	case "concepts":
		timed("view.concepts", func() { _ = snap.Concepts() })
	case "instances":
		timed("view.instances", func() { _ = snap.Instances(r.concept) })
	case "explain":
		timed("view.explain", func() { _, _ = snap.Explain(r.concept, r.instance, r.n) })
	case "drifted":
		concepts := []string{r.concept}
		if r.concept == "" {
			concepts = snap.Concepts()
		}
		for _, c := range concepts {
			timed("view.drift_depth", func() { _ = snap.DriftDepth(c) })
		}
		if r.concept != "" {
			timed("view.top_drifted", func() { _ = snap.TopDrifted(r.concept, r.n) })
		}
	}
}
