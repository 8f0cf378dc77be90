// Command perfbench is driftclean's benchmark. It runs one of four
// workloads against the program as shipped — the public driftclean API
// in-process for batch jobs, and the real driftserve binary over
// loopback HTTP for checkpoints and reads — checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	perfbench -bin DIR -work DIR -workload NAME -seed N -seconds S -trace 0|1
//
// run.sh builds the binaries into DIR and calls it. The repository
// root's BENCHMARK.json declares the same workloads and metrics; a test
// keeps the two in step.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named input set and the code that drives it.
type workload struct {
	name string
	why  string
	// sentences is the corpus size the workload's KB is built from.
	sentences int
	// tail is the workload's fixed tail percentile: the highest with at
	// least minBeyond samples above it at the declared run length.
	tail float64
	// setups is how often a run sets the workload up; setup_s is the
	// median. A serve set-up takes about 0.2 s, so serve runs afford
	// enough of them to span a second or two of the host's speed.
	setups int
	run    func(rc *runCtx) error
}

var workloads = []workload{
	{
		name:      "batch-12k",
		why:       "one-shot Session over 12,000 sentences per job with cold caches: extraction, analysis, KPCA and cleaning changes show here, serve changes must not",
		sentences: 12000,
		tail:      50,
		setups:    5,
		run:       runBatch,
	},
	{
		name:      "ingest-6k",
		why:       "one-sentence POST /v1/ingest checkpoints on a 6,000-sentence driftserve session: the delta path (replay, reuse caches, clean, Freeze and Swap)",
		sentences: 6000,
		tail:      75,
		setups:    5,
		run:       runIngest,
	},
	{
		name:      "serve-hot",
		why:       "driftserve -kb on the cleaned 40k-sentence KB with Zipf keys from a set that fits the cache: HTTP routing, cache lookup and JSON encoding",
		sentences: 40000,
		tail:      90,
		setups:    15,
		run:       runServeHot,
	},
	{
		name:      "serve-cold",
		why:       "same server and endpoint mix with uniform keys over 100x the cache capacity: binsnap traversal and encoding of freshly computed results",
		sentences: 40000,
		// p90 falls between the fleet-wide rankings (a tenth of the
		// mix, tens of ms) and everything else; p95 lies inside them.
		tail:   95,
		setups: 15,
		run:    runServeCold,
	},
}

// runCtx carries one invocation's parameters and collects its outcome.
type runCtx struct {
	w       workload
	seed    int64
	world   int64
	seconds time.Duration
	trace   bool
	bin     string // directory holding driftserve, driftclean and kbsnap
	work    string // keeps traces and the run log
	dir     string // this run's scratch directory, removed at the end
	logf    func(format string, args ...any)

	attempted, failed int
	// problems lists failed checks, each also counted in failed.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	host     hostContext
}

// fail records a failed check.
func (rc *runCtx) fail(format string, args ...any) {
	rc.failed++
	msg := fmt.Sprintf(format, args...)
	if len(rc.problems) < 20 {
		rc.problems = append(rc.problems, msg)
	}
}

// hostContext describes the host during the timed phase, so an unsteady
// run can be traced to it.
type hostContext struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"`
	LoadStart  float64 `json:"loadavg_1m_start"`
	LoadEnd    float64 `json:"loadavg_1m_end"`
	Unix       int64   `json:"unix"`
}

// hostProbe brackets a timed phase.
type hostProbe struct {
	cpu  cpuTimes
	load float64
}

func startHostProbe() hostProbe {
	var p hostProbe
	p.cpu, _ = hostCPU()   // zero readings only blank the context line
	p.load, _ = loadAvg1() // and never drop or fail a run
	return p
}

func (p hostProbe) finish(rc *runCtx) {
	cpu, _ := hostCPU()
	load, _ := loadAvg1()
	rc.host.StealShare = stealShare(p.cpu, cpu)
	rc.host.LoadStart = p.load
	rc.host.LoadEnd = load
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed: drives arrival order and request keys")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		world   = flag.Int64("world", 1, "world, as driftclean -seed takes it (expected outputs are recorded for 1; ingest-6k runs on 1 only)")
		bin     = flag.String("bin", "", "directory with the driftserve, driftclean and kbsnap binaries")
		work    = flag.String("work", ".bench_build", "directory for scratch files, traces and the run log")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload NAME -seed N -seconds S -trace 0|1 (workloads: %v)\n", workloadNames())
		os.Exit(2)
	}
	rc := &runCtx{
		w: w, seed: *seed, world: *world, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, bin: *bin,
		logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	out, err := execute(rc, *work)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// execute runs the workload in a fresh scratch directory under work and
// assembles the result line. An error means the run could not measure
// at all; failed checks are reported through the result instead.
func execute(rc *runCtx, work string) (*output, error) {
	if rc.bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		rc.bin = filepath.Dir(exe)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rc.work, rc.dir = work, dir
	rc.e2e, rc.layers = map[string]float64{}, map[string]float64{}
	rc.host = hostContext{
		Workload: rc.w.name, Seed: rc.seed, Trace: rc.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Unix: time.Now().Unix(),
	}
	if err := rc.w.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", rc.w.name, err)
	}
	if rc.attempted < 1 {
		return nil, errors.New("no op was attempted in the timed phase")
	}
	for _, p := range rc.problems {
		rc.logf("FAILED: %s", p)
	}
	hb, err := json.Marshal(rc.host)
	if err != nil {
		return nil, err
	}
	rc.logf("host %s", hb)
	if err := appendLine(filepath.Join(work, "perfbench-runs.jsonl"), hb); err != nil {
		return nil, err
	}

	out := &output{Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]metricValue{}}
	if rc.trace {
		for _, m := range perLayer {
			// A layer this workload's path does not reach reads 0.
			out.Metrics[m.Name] = metricValue{Value: rc.layers[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{Value: rc.e2e[m.Name], Unit: m.Unit}
		}
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rc.logf("%-34s %14.4f %s", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	return out, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
