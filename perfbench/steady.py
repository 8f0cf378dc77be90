#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs every workload once per seed (alternating the workload order from
one seed to the next), then reports for each end-to-end metric the
median, the quartiles as statistics.quantiles(n=4) gives them, and the
spread (q3 - q1) / median next to the metric's bound. It exits 1 if any
spread, setup_s's included, exceeds its bound; a spread above a third
of its bound is marked "wide" but passes. Run it from the repository
root:

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--out FILE]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({p.returncode}):\n{p.stdout}\n{p.stderr}")
    result = json.loads(lines[-1])
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    return result, host, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--out", default="", help="write the summary as JSON")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    lo, hi = (int(x) for x in a.seeds.split("-"))
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in names}
    runs = []
    for i, seed in enumerate(range(lo, hi + 1)):
        for w in (names if i % 2 == 0 else names[::-1]):
            result, host, wall = run(bench["command"], w, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for m, v in result["metrics"].items():
                values[w].setdefault(m, []).append(v["value"])
            runs.append({"workload": w, "seed": seed, "attempted": result["attempted"],
                         "wall_s": round(wall, 2),
                         "metrics": {m: v["value"] for m, v in result["metrics"].items()},
                         "host": host})
            print(f"{w:11s} seed {seed:3d} wall {wall:5.1f}s steal {host.get('steal_share', 0):.3f} "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in sorted(result["metrics"].items())),
                  flush=True)

    summary = {}
    steady = True
    for w in names:
        summary[w] = {}
        for m, vs in sorted(values[w].items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / statistics.median(vs)
            ok = spread <= bounds[m]
            steady &= ok
            mark = "ok" if spread < bounds[m] / 3 else "wide" if ok else "OVER BOUND"
            summary[w][m] = {"median": statistics.median(vs), "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[m]}
            print(f"{w:11s} {m:16s} median {statistics.median(vs):12.4f} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {spread:6.3f} bound {bounds[m]:.2f} {mark}")
    mean_wall = statistics.mean(r["wall_s"] for r in runs)
    print(f"mean wall per run {mean_wall:.1f}s; {4 + 22 * len(names)} runs "
          f"(4 + 22 per workload) take about {mean_wall * (4 + 22 * len(names)):.0f}s")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"run_seconds": bench["run_seconds"], "seeds": [lo, hi],
                       "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
