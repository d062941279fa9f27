"""sepmonoid benchmark: one workload, one closed-loop caller, one op at a time.

    python3 perfbench/run.py --workload oracle-mix --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.

With --trace 0 the run starts PASSES fresh processes, one after another.
Each imports the library, generates the inputs from --seed, and runs every
op once.  The end-to-end metrics pool the passes, with every time scaled by
host speed (see REF_S).  With --trace 1 one process runs the ops traced and
reports the per-layer metrics.  The last stdout line is the JSON result;
the lines before it print the same figures for people, with fail_ratio, the
tail percentile, the host speed, the unscaled times and the input identity.  A report (and,
traced, the spans) is written to perfbench/results/.  Without a library
under ./src the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# The reference machine is a shared VM: another tenant slows it by up to
# 2.4x, flipping within milliseconds, with the slow share drifting from
# second to second.  Every timing is therefore taken next to a fixed
# pure-Python reference loop and scaled by how long the loop took there:
# scaled time = measured time * REF_S / reference time.  REF_S is the loop's
# time on the reference machine when uncontended, so scaled times are what
# that machine gives when it runs alone.
REF_N = 500
REF_S = 27e-6
# Reference time after an op: as long as the op up to REF_MATCH_S, then
# REF_SHARE of it.  Contention flips within milliseconds, so a block much
# shorter than the op misjudges the share of slow time the op saw.
REF_MATCH_S = 0.05
REF_SHARE = 0.2
SETUP_REF_S = 0.01      # reference time before, within and after set-up
PASSES = 3
RUN_LIMIT_S = 170
PASSES_LIMIT_S = 160    # the passes end first, so that no process outlives a run
TAIL_PERMILLE = (999, 990, 900)
TAIL_MIN_BEYOND = 10
PROBE_REPEATS = 3


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_library():
    """Import sepmonoid from ./src; return the import time in seconds."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import sepmonoid
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import sepmonoid from {ROOT / 'src'}: {exc}")
    dt = time.perf_counter() - t0
    if ROOT / "src" not in Path(sepmonoid.__file__).resolve().parents:
        sys.exit(f"perfbench: sepmonoid was imported from {sepmonoid.__file__}, not ./src")
    return dt


def tail(latencies):
    """Highest of p99.9/p99/p90 with at least ten ops beyond it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND:
            return permille / 10, xs[rank - 1]
    # fewer than 100 ops: p90 has fewer than ten beyond it; the report shows n
    return TAIL_PERMILLE[-1] / 10, xs[-(-TAIL_PERMILLE[-1] * n // 1000) - 1]


def reference(seconds):
    """Run the reference loop for about `seconds`, at least once; its times."""
    times, total = [], 0.0
    while not times or total < seconds:
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(REF_N))
        times.append(time.perf_counter() - t0)
        total += times[-1]
    return times


def make_inputs(wl, args):
    """Generate the inputs and get the process ready to time ops on them."""
    t0 = time.perf_counter()
    inputs = wl.make_inputs(args.seed, args.seconds)
    inputs_s = time.perf_counter() - t0
    # fill the normal-form caches of the shared graphs before timing
    from sepmonoid.rewrite import FreeElement, eq_exact
    for _, g in inputs.graphs:
        eq_exact(g, FreeElement(), FreeElement())
    # keep the collector from walking the input pool on every full
    # collection: the ops should pay for their own objects only
    gc.collect()
    gc.freeze()
    return inputs, inputs_s


def run_ops(tracer, wl, items, scale=False):
    """Closed loop over items: (latencies, outcomes, host speeds).

    With `scale`, the reference loop runs before the first op and after
    each op; an op's host speed is the mean reference time before and after
    it, over REF_S.
    """
    from workloads import WRONG, Outcome
    latencies, outcomes, speeds = [], [], []
    before = reference(0) if scale else None
    for i, item in enumerate(items):
        tracer.op = i
        t0 = time.perf_counter()
        try:
            out = tracer.call("op", wl.op, tracer, item)
        except Exception as exc:       # an op that raises is a failed op
            out = Outcome((WRONG, f"raised {type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - t0)
        outcomes.append(out)
        if scale:
            t = latencies[-1]
            after = reference(max(min(t, REF_MATCH_S), t * REF_SHARE))
            speeds.append(statistics.fmean(before + after) / REF_S)
            before = after
    return latencies, outcomes, speeds


def one_pass(wl, args, import_s, refs):
    """Body of a pass process: set up, run every op once, describe it.

    `refs` holds reference times from before and after the import.
    """
    from tracing import NullTracer
    inputs, inputs_s = make_inputs(wl, args)
    refs = refs + reference(SETUP_REF_S)
    latencies, outcomes, speeds = run_ops(NullTracer(), wl, inputs.items, scale=True)
    return {
        "setup_s": import_s + inputs_s,
        "setup_speed": statistics.fmean(refs) / REF_S,
        "input_size": len(inputs.items), "input_digest": inputs.digest(),
        "latencies": latencies, "speeds": speeds,
        "failures": [o.failure for o in outcomes],
        "searches": sum(o.searches for o in outcomes),
        "decided": sum(o.decided for o in outcomes),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def passes(args):
    """Run PASSES pass processes one after another; their descriptions."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--one-pass"]
    start, out = time.perf_counter(), []
    for k in range(PASSES):
        left = PASSES_LIMIT_S - (time.perf_counter() - start)
        # String hashing orders the sets and dicts the library walks, and
        # with it the work of a search: one realize-roundtrip op took
        # 450-800 ms under three hash seeds.  Every run uses the same three.
        env = dict(os.environ, PYTHONHASHSEED=str(k + 1))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: pass {k + 1} did not end within {PASSES_LIMIT_S} s")
        if proc.returncode != 0:
            sys.exit(f"perfbench: pass {k + 1} failed:\n{proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    # the passes are pooled as repeats of the same ops
    if len({p["input_digest"] for p in out}) != 1:
        sys.exit("perfbench: the same seed generated different inputs in two processes")
    return out


def end_to_end(runs):
    """End-to-end metrics of the pass descriptions, and report extras.

    Times are scaled by host speed (see REF_S).  Set-up is the median over
    the pass processes, an op's latency the median over its passes, and
    ops_per_s all ops of all passes over their total scaled time.  The
    unscaled figures go to the report.
    """
    raw = [p["latencies"] for p in runs]
    scaled = [[t / v for t, v in zip(p["latencies"], p["speeds"])] for p in runs]
    per_op = [statistics.median(ts) for ts in zip(*scaled)]
    setups = [p["setup_s"] / p["setup_speed"] for p in runs]
    attempted = sum(map(len, raw))
    failed = sum(f is not None for p in runs for f in p["failures"])
    searches = sum(p["searches"] for p in runs)
    pct, tail_s = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(map(sum, scaled)),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_ratio": 1 - failed / attempted,
        "decided_ratio": sum(p["decided"] for p in runs) / searches if searches else 1.0,
        "peak_rss_mb": max(p["rss_mb"] for p in runs),
    }
    raw_op = [statistics.median(ts) for ts in zip(*raw)]
    extra = {"fail_ratio": failed / attempted, "tail_percentile": pct,
             "samples": len(per_op), "searches": searches, "passes": len(runs),
             "host_speed": statistics.fmean(v for p in runs for v in p["speeds"]),
             "unscaled": {"setup_s": statistics.median(p["setup_s"] for p in runs),
                          "ops_per_s": attempted / sum(map(sum, raw)),
                          "op_p50_ms": statistics.median(raw_op) * 1e3,
                          "op_tail_ms": tail(raw_op)[1] * 1e3}}
    return metrics, extra


def snf_probe(tracer, inputs):
    """Replay smith_normal_form on the relation matrices of the workload's groups."""
    from sepmonoid.abelian import smith_normal_form
    from sepmonoid.isystem import ISystem, extract_isystem
    matrices = {}
    for obj in [g for _, g in inputs.graphs] + tracer.kept:
        sysm = obj if isinstance(obj, ISystem) else extract_isystem(obj)
        for p in sysm.poset:
            rel = sysm.group[p].relations
            if rel:
                matrices.setdefault(tuple(map(tuple, rel)), None)
    tracer.op = -1
    for mat in matrices:
        dim = max(len(mat), len(mat[0]))
        for _ in range(PROBE_REPEATS):
            u, s, v = tracer.call("abelian.smith_normal_form", smith_normal_form,
                                  [list(r) for r in mat])
            bits = max(abs(x).bit_length() for m in (mat, u, s, v) for r in m for x in r)
            tracer.tag(dim=dim, bits=bits)


def traced(wl, args, import_s):
    """Per-layer metrics: an untraced warm-up pass, the ops traced, then the
    ops untraced again, which gives the tracing cost (in scaled time) at
    equally warm caches."""
    from tracing import LAYERS, NullTracer, Tracer, layer_metrics, self_times, snf_metrics
    inputs, inputs_s = make_inputs(wl, args)
    run_ops(NullTracer(), wl, inputs.items)
    tracer = Tracer()
    lat, outcomes, speeds = run_ops(tracer, wl, inputs.items, scale=True)
    lat_u, _, speeds_u = run_ops(NullTracer(), wl, inputs.items, scale=True)
    ops_spans = len(tracer.spans)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_ratio"] = (sum(t / v for t, v in zip(lat, speeds))
                                       / sum(t / v for t, v in zip(lat_u, speeds_u)))
    snf_probe(tracer, inputs)
    metrics.update(snf_metrics(tracer.spans[ops_spans:]))
    selfs = self_times(tracer.spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    metrics["setup.import_ms"] = import_s * 1e3
    metrics["setup.inputs_s"] = inputs_s
    report = {"input_size": len(inputs.items), "input_digest": inputs.digest(),
              "self_s": selfs, "wait_s": {layer: 0.0 for layer in LAYERS},
              "spans": tracer.spans}
    return metrics, [o.failure for o in outcomes], report


def measure(wl, args, import_s):
    from workloads import WRONG
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0]}
    if args.trace == 0:
        runs = passes(args)
        metrics, extra = end_to_end(runs)
        report.update(extra, input_size=runs[0]["input_size"],
                      input_digest=runs[0]["input_digest"])
        failures = [f for p in runs for f in p["failures"]]
    else:
        metrics, failures, more = traced(wl, args, import_s)
        report.update(more)
    attempted, failures = len(failures), [f for f in failures if f]
    units = declared_units()
    report.update({
        "attempted": attempted,
        "failed": len(failures),
        "correct": not any(kind == WRONG for kind, _ in failures),
        "failure_examples": sorted({f"{k}: {r}"[:200] for k, r in failures})[:10],
        "metrics": {k: (v, units[k]) for k, v in metrics.items()},
    })
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not args.one_pass and os.environ.get("PYTHONHASHSEED") != "1":
        # the traced run, like the passes, walks sets in one fixed order
        try:
            proc = subprocess.run([sys.executable, *sys.argv], timeout=RUN_LIMIT_S,
                                  env=dict(os.environ, PYTHONHASHSEED="1"))
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: the run did not end within {RUN_LIMIT_S} s")
        sys.exit(proc.returncode)

    # a pass process scales its set-up by the host speed around it
    refs = reference(SETUP_REF_S) if args.one_pass else []
    import_s = import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.one_pass:
        refs += reference(SETUP_REF_S)
        print(json.dumps(one_pass(wl, args, import_s, refs)))
        return
    print(f"perfbench: {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)
    report = measure(wl, args, import_s)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans", None)
    if spans is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, default=str) + "\n")
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str),
                                          encoding="utf-8")
    for name, (value, unit) in sorted(report["metrics"].items()):
        print(f"  {name:48s} {value:14.6g} {unit}")
    for key in ("fail_ratio", "tail_percentile", "samples", "passes", "host_speed",
                "unscaled", "input_size", "input_digest"):
        if key in report:
            print(f"  {key:48s} {report[key]}")
    for reason in report["failure_examples"]:
        print(f"  failure: {reason}")
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
