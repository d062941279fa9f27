"""Record a baseline: two series of ten seeds per workload, plus traced runs.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs perfbench/run.py once per (series, workload, seed) in a child process,
one at a time, from the repository root: series 1 uses seeds 1-10 and
series 2 seeds 11-20, each series over every workload of BENCHMARK.json.
Then one traced run per workload.  For each series and end-to-end metric it
keeps the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the spread (q3 - q1) / median; for each metric, by how much the
second series' median is worse than the first's.  It records the wall time
of every run and of the whole set.  The file is rewritten after each run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SERIES = (range(1, 11), range(11, 21))


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return result, report, time.perf_counter() - t0


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def summarize(spec, runs):
    summary = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"]}
    return summary


def worse_by(spec, first, second):
    """Per metric, the share by which the second median is worse than the first."""
    out = {}
    for m in spec["end_to_end"]:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        out[m["name"]] = (b - a) / a if m["better"] == "lower" else (a - b) / a
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    doc = {
        "produced_by": "python3 perfbench/baseline.py --out perfbench/baseline.json",
        "git_head": git("rev-parse", "HEAD"),
        "library_tree": git("rev-parse", "HEAD:src"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "run_seconds": seconds,
        "series_seeds": [list(s) for s in SERIES],
        "runs_made": 0,
        "total_wall_s": 0.0,
        "workloads": {w: {"series": []} for w in names},
    }
    start = time.perf_counter()

    def save():
        doc["total_wall_s"] = round(time.perf_counter() - start, 1)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for seeds in SERIES:
        for workload in names:
            runs = []
            for seed in seeds:
                result, report, wall = run_once(workload, seed, seconds, 0)
                runs.append({
                    "seed": seed, "wall_s": round(wall, 1), "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "fail_ratio": report["fail_ratio"],
                    "tail_percentile": report["tail_percentile"],
                    "samples": report["samples"],
                    "input_size": report["input_size"],
                    "input_digest": report["input_digest"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                })
                doc["runs_made"] += 1
                print(f"{workload} seed {seed}: {wall:.0f} s", file=sys.stderr, flush=True)
            series = doc["workloads"][workload]["series"]
            series.append({"end_to_end": summarize(spec, runs), "runs": runs})
            if len(series) == 2:
                doc["workloads"][workload]["second_median_worse_by"] = worse_by(
                    spec, series[0]["end_to_end"], series[1]["end_to_end"])
            save()
    for workload in names:
        seed = SERIES[0][0]
        result, report, wall = run_once(workload, seed, seconds, 1)
        doc["runs_made"] += 1
        doc["workloads"][workload]["traced"] = {
            "seed": seed, "wall_s": round(wall, 1), "failed": result["failed"],
            "attempted": result["attempted"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        save()


if __name__ == "__main__":
    main()
