package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"driftclean/internal/serve"
)

// TestBenchmarkJSON keeps the repository root's BENCHMARK.json equal to
// the workload and metric tables the benchmark runs from.
func TestBenchmarkJSON(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	want, err := json.Marshal(map[string]any{
		"command":     []string{"bash", "perfbench/run.sh"},
		"paths":       []string{"perfbench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("BENCHMARK.json differs from the benchmark's tables; want\n%s", want)
	}
}

// TestClient drives the benchmark's synchronous keep-alive client against
// a server that answers with a length, chunked, or closes the connection.
func TestClient(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/big": // larger than the write buffer, so sent chunked
			fmt.Fprintf(w, "%q", big)
		case "/close":
			w.Header().Set("Connection", "close")
			fmt.Fprint(w, `"bye"`)
		case "/echo":
			b, _ := io.ReadAll(r.Body)
			w.Write(b)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	s := &server{addr: strings.TrimPrefix(ts.URL, "http://")}
	defer s.closeConn()
	for i := 0; i < 3; i++ {
		for _, tc := range []struct {
			method, path, body string
			status             int
			want               string
		}{
			{"GET", "/big", "", 200, fmt.Sprintf("%q", big)},
			{"GET", "/close", "", 200, `"bye"`},
			{"POST", "/echo", `{"a":1}`, 200, `{"a":1}`},
			{"GET", "/missing", "", 404, "404 page not found\n"},
		} {
			var body []byte
			if tc.body != "" {
				body = []byte(tc.body)
			}
			status, got, err := s.do(tc.method, tc.path, body)
			if err != nil || status != tc.status || string(got) != tc.want {
				t.Fatalf("%s %s = %d, %.40q, %v; want %d, %.40q", tc.method, tc.path, status, got, err, tc.status, tc.want)
			}
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {39, 50}, {15, 50},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if got > 50 && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond(tc.n, got), got)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0: 1, 50: 5, 90: 9, 99: 10, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestProcReaders(t *testing.T) {
	cpu, err := parseStatCPU([]byte("1234 (odd) (name) S 1 1234 1234 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 100 1000 10"))
	if err != nil || cpu != 3*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 3s", cpu, err)
	}
	hwm, err := parseVmHWM([]byte("Name:\tx\nVmPeak:\t    4096 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n"))
	if err != nil || hwm != 2 {
		t.Errorf("parseVmHWM = %v, %v; want 2 MiB", hwm, err)
	}
	st, err := parseProcStat([]byte("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	if err != nil || st != (cpuTimes{total: 1000, steal: 35}) {
		t.Errorf("parseProcStat = %+v, %v; want total 1000 steal 35", st, err)
	}
	if got := stealShare(cpuTimes{1000, 35}, cpuTimes{2000, 135}); got != 0.1 {
		t.Errorf("stealShare = %g, want 0.1", got)
	}
	if got := stealShare(cpuTimes{1000, 35}, cpuTimes{1000, 35}); got != 0 {
		t.Errorf("stealShare over no time = %g, want 0", got)
	}
	for name, err := range map[string]error{
		"stat":   func() error { _, err := parseStatCPU([]byte("1234 (x) S 1")); return err }(),
		"status": func() error { _, err := parseVmHWM([]byte("VmRSS:\t1 kB\n")); return err }(),
		"proc":   func() error { _, err := parseProcStat([]byte("intr 1 2\n")); return err }(),
	} {
		if err == nil {
			t.Errorf("%s: malformed input accepted", name)
		}
	}

	// The live readers agree with this process.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if mb, err := peakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB = %v, %v", mb, err)
	}
	if c, err := hostCPU(); err != nil || c.total == 0 {
		t.Errorf("hostCPU = %+v, %v", c, err)
	}
	if _, err := loadAvg1(); err != nil {
		t.Error(err)
	}
}

// servedKeySpace has the shape of the served 40k-sentence KB: 63
// concepts and 13,603 pairs.
func servedKeySpace() *keySpace {
	ks := &keySpace{}
	for c := 0; c < 63; c++ {
		concept := fmt.Sprintf("concept%02d", c)
		ks.concepts = append(ks.concepts, concept)
		for e := 0; e < 216 && len(ks.pairs) < 13603; e++ {
			ks.pairs = append(ks.pairs, pair{concept, fmt.Sprintf("instance%d", e)})
		}
	}
	return ks
}

func TestHotKeysFitTheCache(t *testing.T) {
	m := newHotMix(servedKeySpace(), 1)
	keys := map[string]bool{}
	for _, r := range m.keys() {
		keys[r.path()] = true
	}
	if len(keys) > serve.DefaultCacheSize {
		t.Fatalf("hot popular set has %d keys, cache holds %d", len(keys), serve.DefaultCacheSize)
	}
	for i := 0; i < 20000; i++ {
		if r := m.next(); !keys[r.path()] {
			t.Fatalf("draw %d (%s) is outside the popular set", i, r.path())
		}
	}
}

func TestColdKeysOutgrowTheCache(t *testing.T) {
	m := &coldMix{rng: newRand(1), ks: servedKeySpace()}
	explain, drifted := m.keyCounts()
	if min(explain, drifted) < 100*serve.DefaultCacheSize {
		t.Fatalf("cold key spaces %d explain, %d drift-ranking: want at least 100x the %d-entry cache",
			explain, drifted, serve.DefaultCacheSize)
	}
	seen := map[string]int{}
	draws := 0
	for i := 0; i < 20000; i++ {
		r := m.next()
		if r.endpoint == "explain" || r.endpoint == "drifted" {
			seen[r.path()]++
			draws++
		}
	}
	if repeats := draws - len(seen); float64(repeats) > 0.02*float64(draws) {
		t.Errorf("%d of %d explain and drift-ranking draws repeat a key", repeats, draws)
	}
}

func TestMixesFollowTheSeed(t *testing.T) {
	ks := servedKeySpace()
	seq := func(m mix) (out []string) {
		for i := 0; i < 50; i++ {
			out = append(out, m.next().path())
		}
		return out
	}
	for name, mk := range map[string]func(int64) mix{
		"hot":  func(s int64) mix { return newHotMix(ks, s) },
		"cold": func(s int64) mix { return &coldMix{rng: newRand(s), ks: ks} },
	} {
		a, b, c := seq(mk(1)), seq(mk(1)), seq(mk(2))
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: equal seeds drew different requests", name)
		}
		if fmt.Sprint(a) == fmt.Sprint(c) {
			t.Errorf("%s: seeds 1 and 2 drew the same requests", name)
		}
	}
}

// TestSmokeWorkloads runs every workload at toy size for a few seconds,
// untraced and traced, against freshly built binaries.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/",
		"driftclean/cmd/driftserve", "driftclean/cmd/driftclean", "driftclean/cmd/kbsnap")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binaries: %v\n%s", err, out)
	}
	toy := map[string]int{"batch-12k": 1500, "ingest-6k": 1500, "serve-hot": 3000, "serve-cold": 3000}
	for _, w := range workloads {
		w.sentences = toy[w.name]
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				rc := &runCtx{w: w, seed: 3, world: 1, seconds: 2 * time.Second, trace: trace, bin: bin,
					logf: func(format string, args ...any) { t.Logf(format, args...) }}
				out, err := execute(rc, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("result %+v, problems %v", out, rc.problems)
				}
				if !trace {
					for _, m := range endToEnd {
						if out.Metrics[m.Name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m.Name, out.Metrics[m.Name].Value)
						}
					}
					return
				}
				if len(out.Metrics) != len(perLayer) {
					t.Errorf("traced run printed %d metrics, want %d", len(out.Metrics), len(perLayer))
				}
				checkRationale(t, w.name, out.Metrics)
			})
		}
	}
}

// checkRationale asserts the per-layer numbers each workload was chosen
// for.
func checkRationale(t *testing.T, name string, m map[string]metricValue) {
	t.Helper()
	v := func(k string) float64 { return m[k].Value }
	switch name {
	case "batch-12k":
		if v("analyze.ms_per_op") <= 0 || v("kpca.fits_per_op") <= 0 {
			t.Errorf("batch trace shows no analysis: %v", m)
		}
	case "ingest-6k":
		if v("core.task_reuse_ratio") <= 0 || v("snapshot.freeze_ms_per_op") <= 0 {
			t.Errorf("ingest trace shows no task reuse or freeze: %v", m)
		}
	case "serve-hot":
		for _, ep := range endpoints {
			if r := v("serve.cache_hit_ratio." + ep); r < 0.9 {
				t.Errorf("serve-hot %s hit ratio %g, want >= 0.9", ep, r)
			}
		}
	case "serve-cold":
		for _, ep := range []string{"explain", "drifted"} {
			if r := v("serve.cache_hit_ratio." + ep); r > 0.05 {
				t.Errorf("serve-cold %s hit ratio %g, want <= 0.05", ep, r)
			}
		}
	}
}
