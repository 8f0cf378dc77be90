package main

import "time"

// runSeconds is the declared length of one run's timed phase.
const runSeconds = 20

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. An op is a batch job, an ingest acknowledgement
// or a query.
//
// The time bounds are the widest allowed because a 2-vCPU host's speed
// drifts with its neighbours' load: over two ten-run sets of identical
// code, the spread (q3 - q1) / median of serve-cold's CPU per request
// was 0.28 in the set during which the host sped up and 0.08 in the
// next, and serve-hot's time metrics spread 0.15-0.21 in both.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the traced run's metrics. A workload whose path does not
// reach a layer reports 0 for it.
var perLayer = []layerMetric{
	{"prepare.ms_per_op", "ms", "lower"},
	{"extract.ms_per_op", "ms", "lower"},
	{"analyze.ms_per_op", "ms", "lower"},
	{"analyze.passes_per_op", "count", "lower"},
	{"detect.ms_per_op", "ms", "lower"},
	{"clean.rollback_ms_per_op", "ms", "lower"},
	{"clean.rounds_per_op", "count", "lower"},
	{"clean.pairs_removed_per_op", "count", "higher"},
	{"kpca.fits_per_op", "count", "lower"},
	{"core.task_reuse_ratio", "ratio", "higher"},
	{"rank.walk_reuse_per_op", "count", "higher"},
	{"eval.ms_per_op", "ms", "lower"},
	{"snapshot.freeze_ms_per_op", "ms", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"go.gc_cycles_per_op", "count", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"kbio.open_ms", "ms", "lower"},
	{"serve.cache_hit_ratio.concepts", "ratio", "higher"},
	{"serve.cache_hit_ratio.instances", "ratio", "higher"},
	{"serve.cache_hit_ratio.explain", "ratio", "higher"},
	{"serve.cache_hit_ratio.drifted", "ratio", "higher"},
	{"serve.coalesced_per_op", "count", "higher"},
	{"serve.service_us.concepts", "us", "lower"},
	{"serve.service_us.instances", "us", "lower"},
	{"serve.service_us.explain", "us", "lower"},
	{"serve.service_us.drifted", "us", "lower"},
	{"view.concepts_us", "us", "lower"},
	{"view.instances_us", "us", "lower"},
	{"view.explain_us", "us", "lower"},
	{"view.drift_depth_us", "us", "lower"},
	{"view.top_drifted_us", "us", "lower"},
	{"http.overhead_us", "us", "lower"},
	{"http.response_bytes", "bytes", "lower"},
	{"trace.latency_p50_ms", "ms", "lower"},
}

// timing is what an untraced run measured.
type timing struct {
	setups []float64 // seconds, one per set-up
	lat    []float64 // milliseconds, one per completed timed op
	wall   time.Duration
	cpu    time.Duration // CPU of the process under test over the timed phase
	rssMB  float64
}

// report turns a timing into the end-to-end metrics.
func (rc *runCtx) report(t timing) {
	s := sorted(t.lat)
	if n := len(s); tailPercentile(n) < rc.w.tail {
		rc.logf("note: only %d of %d samples lie beyond p%g", beyond(n, rc.w.tail), n, rc.w.tail)
	}
	rc.logf("timed ops %d in %.2fs; tail is p%g; p50/75/90/95/99 %.3f %.3f %.3f %.3f %.3f ms",
		len(s), t.wall.Seconds(), rc.w.tail,
		percentile(s, 50), percentile(s, 75), percentile(s, 90), percentile(s, 95), percentile(s, 99))
	rc.e2e["setup_s"] = median(t.setups)
	rc.e2e["latency_p50_ms"] = percentile(s, 50)
	rc.e2e["latency_tail_ms"] = percentile(s, rc.w.tail)
	if t.wall > 0 {
		rc.e2e["ops_per_s"] = float64(len(s)) / t.wall.Seconds()
	}
	if len(s) > 0 {
		rc.e2e["cpu_ms_per_op"] = float64(t.cpu) / 1e6 / float64(len(s))
	}
	rc.e2e["peak_rss_mb"] = t.rssMB
}
