"""Spans around the benchmark's calls into sepmonoid, and what they add up to.

A span is [name, start, end, parent, op, info]: `name` is
"<layer>.<function>" (or "op" for a whole op), `parent` the index of the
enclosing span (-1 at top level), `op` the op index (-1 in the SNF probe),
and `info` a dict of tags the op attached after the call.  Spans stay in
memory and are written out when the run ends.

There is one caller and one op in flight, so no layer ever waits for
another: waiting time is zero by construction, not unmeasured.
"""

from __future__ import annotations

import re
import statistics
from time import perf_counter

LAYERS = ("rewrite", "graph", "isystem", "realize", "abelian")

# SNF probe buckets, by max(rows, cols) of the relation matrix
SNF_BUCKETS = (("small", 0, 3), ("medium", 4, 6), ("large", 7, 10 ** 9))

_ATTEMPT = re.compile(r"attempt (\d+)$")


class NullTracer:
    """Untraced run: calls go straight through."""
    last = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def tag(self, **info):
        pass

    def tag_span(self, index, **info):
        pass

    def keep(self, made):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.last = -1
        self.kept = []          # systems or graphs the ops made
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self.last = index

    def tag(self, **info):
        """Attach tags to the span that closed last."""
        self.tag_span(self.last, **info)

    def tag_span(self, index, **info):
        span = self.spans[index]
        if span[5] is None:
            span[5] = {}
        span[5].update(info)

    def keep(self, made):
        self.kept.append(made)


# ------------------------------------------------------------- aggregation


def _p50(xs, scale):
    return statistics.median(xs) * scale if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Seconds per layer spent in spans of that layer, minus child spans."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _op, _info in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _p, _op, _info) in enumerate(spans):
        layer = name.split(".")[0] if "." in name else "bench"
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[i]
    return out


def realize_strategies(logs):
    """Strategy counts and the largest attempt number from RealizeResult.log."""
    counts = {"pinned": 0, "kernel_search": 0, "randomized": 0}
    max_attempts = 0
    for line in logs:
        if "pinned connector" in line:
            counts["pinned"] += 1
        elif "direct kernel row search" in line:
            counts["kernel_search"] += 1
        elif "randomized attempt" in line:
            counts["randomized"] += 1
        else:
            continue
        m = _ATTEMPT.search(line)
        if m:
            max_attempts = max(max_attempts, int(m.group(1)))
    return counts, max_attempts


def layer_metrics(spans):
    """Per-layer metrics of the ops phase; names as in BENCHMARK.json."""
    by = {}
    for span in spans:
        by.setdefault(span[0], []).append((span[2] - span[1], span[5] or {}))

    def durs(name, pred=None):
        return [d for d, info in by.get(name, ()) if pred is None or pred(info)]

    m = {}
    ce = by.get("rewrite.confluence_equal", [])
    ce_total = sum(d for d, _ in ce)
    explored = sum(info["explored"] for _, info in ce)
    exhausted = [info for _, info in ce if info["status"] == "exhausted"]
    m["rewrite.confluence_equal.calls"] = len(ce)
    m["rewrite.confluence_equal.total_s"] = ce_total
    m["rewrite.confluence_equal.p50_us"] = _p50([d for d, _ in ce], 1e6)
    m["rewrite.confluence_equal.explored"] = explored
    m["rewrite.confluence_equal.us_per_node"] = _ratio(ce_total * 1e6, explored)
    m["rewrite.confluence_equal.equal_ratio"] = _ratio(
        sum(info["status"] == "equal" for _, info in ce), len(ce))
    m["rewrite.confluence_equal.exhausted"] = len(exhausted)
    m["rewrite.confluence_equal.unknown"] = sum(info["status"] == "unknown" for _, info in ce)
    m["rewrite.confluence_equal.budget_overshoot_max"] = max(
        (info["explored"] - info["budget"] for info in exhausted), default=0)
    m["rewrite.confluence_equal.exact_unequal_share"] = _ratio(
        sum(d for d, info in ce if info.get("exact") is False), ce_total)

    rw = by.get("rewrite.refinement_witness", [])
    m["rewrite.refinement_witness.calls"] = len(rw)
    m["rewrite.refinement_witness.p50_us"] = _p50([d for d, _ in rw], 1e6)
    m["rewrite.refinement_witness.total_s"] = sum(d for d, _ in rw)
    m["rewrite.refinement_witness.ok_ratio"] = _ratio(
        sum(info["status"] == "ok" for _, info in rw), len(rw))

    eq = by.get("rewrite.eq_exact", [])
    m["rewrite.eq_exact.calls"] = len(eq)
    m["rewrite.eq_exact.total_s"] = sum(d for d, _ in eq)
    m["rewrite.eq_exact.warm_p50_us"] = _p50(
        durs("rewrite.eq_exact", lambda i: not i.get("cold")), 1e6)
    m["rewrite.eq_exact.cold_p50_us"] = _p50(
        durs("rewrite.eq_exact", lambda i: i.get("cold")), 1e6)
    m["rewrite.monoid_nf.p50_us"] = _p50(durs("rewrite.monoid_nf"), 1e6)
    le = by.get("rewrite.le_semidecide", [])
    m["rewrite.le_semidecide.p50_us"] = _p50([d for d, _ in le], 1e6)
    m["rewrite.le_semidecide.decided_ratio"] = _ratio(
        sum(info["status"] != "unknown" for _, info in le), len(le))

    m["graph.parse_graph.p50_us"] = _p50(durs("graph.parse_graph"), 1e6)
    m["graph.check_adaptable.p50_us"] = _p50(durs("graph.check_adaptable"), 1e6)
    m["isystem.extract_isystem.p50_us"] = _p50(durs("isystem.extract_isystem"), 1e6)
    m["isystem.extract_isystem.total_s"] = sum(durs("isystem.extract_isystem"))
    # the fresh-graphs check reserializes too; only the op's own call counts
    m["isystem.serialize_isystem.p50_us"] = _p50(
        durs("isystem.serialize_isystem", lambda i: not i.get("check")), 1e6)

    rz = by.get("realize.realize", [])
    rz_total = sum(d for d, _ in rz)
    m["realize.realize.p50_ms"] = _p50([d for d, _ in rz], 1e3)
    m["realize.realize.total_s"] = rz_total
    m["realize.realize.ms_per_prime"] = _ratio(rz_total * 1e3, sum(i["primes"] for _, i in rz))
    counts, max_attempts = realize_strategies(
        line for _, info in rz for line in info.get("log", ()))
    for k, v in counts.items():
        m[f"realize.strategy.{k}"] = v
    m["realize.attempts_per_prime.max"] = max_attempts
    rt = by.get("realize.roundtrip_check", [])
    m["realize.roundtrip_check.p50_ms"] = _p50([d for d, _ in rt], 1e3)
    m["realize.roundtrip_check.total_s"] = sum(d for d, _ in rt)
    m["realize.roundtrip_check.max_ms"] = max((d for d, _ in rt), default=0.0) * 1e3
    m["realize.roundtrip_check.verified_ratio"] = _ratio(
        sum(info["status"] == "Verified" for _, info in rt), len(rt))
    return m


def snf_metrics(spans):
    snf = [(s[2] - s[1], s[5]) for s in spans if s[0] == "abelian.smith_normal_form"]
    m = {"abelian.smith_normal_form.calls": len(snf)}
    for label, lo, hi in SNF_BUCKETS:
        m[f"abelian.smith_normal_form.p50_us.{label}"] = _p50(
            [d for d, info in snf if lo <= info["dim"] <= hi], 1e6)
    m["abelian.smith_normal_form.max_entry_bits"] = max(
        (info["bits"] for _, info in snf), default=0)
    return m
