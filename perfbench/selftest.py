"""Smoke self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each run
gives exactly the metrics BENCHMARK.json declares for it; an untraced run
also checks that its pass processes generated identical inputs.  Then feeds
each op checker a wrong answer, and runs each op with one library call
replaced by a wrong one, to check that the benchmark counts it as a failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def metrics_appear(workloads, spec):
    for name, wl in workloads.WORKLOADS.items():
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = argparse.Namespace(workload=name, seed=1, seconds=1, trace=trace)
            report = run.measure(wl, args, 0.0)
            got, want = set(report["metrics"]), {m["name"] for m in declared}
            check(got == want, f"{name} trace={trace}: missing {sorted(want - got)}, "
                               f"undeclared {sorted(got - want)}")
            check(report["attempted"] >= 1, f"{name}: no ops ran")
            check(report["correct"], f"{name}: {report['failure_examples']}")
        print(f"selftest: {name}: exactly the declared metrics")


def checkers_reject_wrong_answers(w):
    text = "prime p free\ngroup p : Z/2\nmap p <- q : unit -> g1\n"
    cases = [
        (w.check_oracle("equal", False), w.WRONG),
        (w.check_grid([True, False, True, True]), w.WRONG),
        (w.check_roundtrip("FailedAt"), w.WRONG),
        (w.check_roundtrip("InconclusiveWithinBound"), w.NO_ANSWER),
        (w.check_session(False, text, text, [True], "yes"), w.WRONG),
        (w.check_session(True, text, text.replace("Z/2", "Z/4"), [True], "yes"), w.WRONG),
        (w.check_session(True, text, text.replace("g1", "-g1"), [True], "yes"),
         w.NOT_CANONICAL),
        (w.check_session(True, text, text, [True, False], "yes"), w.WRONG),
        (w.check_session(True, text, text, [True], "no"), w.WRONG),
    ]
    for i, (verdict, kind) in enumerate(cases):
        check(verdict is not None and verdict[0] == kind, f"checker case {i}: got {verdict}")
    for verdict in (w.check_oracle("equal", True), w.check_oracle("unknown", False),
                    w.check_grid([True] * 4), w.check_roundtrip("Verified"),
                    w.check_session(True, text, text, [True, True], "unknown")):
        check(verdict is None, f"a right answer was rejected: {verdict}")
    print("selftest: every checker rejects its wrong answers")


def ops_count_wrong_answers(w):
    from sepmonoid.realize import RoundtripReport
    from sepmonoid.rewrite import ConfluenceResult, LeResult
    wrong = {
        "oracle-mix": {"confluence_equal": lambda *a: ConfluenceResult("equal"),
                       "eq_exact": lambda g, x, y: False},
        "refine-equal": {"eq_exact": lambda g, x, y: False},
        "realize-roundtrip": {"roundtrip_check": lambda s, g: RoundtripReport("FailedAt")},
        "fresh-graphs": {"le_semidecide": lambda g, x, y, **kw: LeResult("no")},
    }
    args = argparse.Namespace(seed=1, seconds=1)
    for name, wl in w.WORKLOADS.items():
        real = {attr: getattr(w, attr) for attr in wrong[name]}
        for attr, fake in wrong[name].items():
            setattr(w, attr, fake)
        try:
            desc = run.one_pass(wl, args, 0.0, run.reference(0))
        finally:
            for attr, fn in real.items():
                setattr(w, attr, fn)
        metrics, extra = run.end_to_end([desc])
        kinds = [f and f[0] for f in desc["failures"]]
        check(kinds and all(k == w.WRONG for k in kinds),
              f"{name}: wrong {sorted(wrong[name])} gave {kinds}")
        check(extra["fail_ratio"] == 1 and metrics["ok_ratio"] == 0, f"{name}: not counted")
    print("selftest: a wrong library answer fails every op of every workload")


def tail_rule():
    for n, pct in ((50, 90.0), (100, 90.0), (1000, 99.0), (10_000, 99.9)):
        got, _ = run.tail([i / n for i in range(n)])
        check(got == pct, f"tail of {n} samples used p{got}, want p{pct}")


def main():
    run.import_library()
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tail_rule()
    checkers_reject_wrong_answers(workloads)
    ops_count_wrong_answers(workloads)
    metrics_appear(workloads, spec)
    print("selftest ok")


if __name__ == "__main__":
    sys.exit(main())
