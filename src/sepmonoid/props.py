"""Randomized property suites for the monoid of an adaptable graph.

Each suite draws instances with a caller-supplied RNG, exercises one
algebraic law, and reports counts plus any concrete counterexamples.
Failures carry serialized elements so a run can be replayed by hand.
"""

from __future__ import annotations

import random

from .graph import SepGraph
from .isystem import COUNTEREXAMPLE, extract_isystem, validate_isystem
from .randgen import random_element, random_trace, random_walk
from .records import Record
from .rewrite import (FreeElement, RewriteError, _wrap, antisym_le, confluence_equal,
                      eq_exact, refinement_witness,
                      serialize_element, split_trace)


class SuiteResult(Record):
    def __init__(self, name: str, samples: int = 0, checked: int = 0,
                 skipped: int = 0, failures: list | None = None,
                 notes: dict | None = None, log: list | None = None):
        self.name = name
        self.samples = samples
        self.checked = checked        # instances where the law actually bit
        self.skipped = skipped        # vacuous instances
        self.failures = [] if failures is None else failures
        self.notes = {} if notes is None else notes
        self.log = [] if log is None else log

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        state = "ok" if self.ok else f"FAIL({len(self.failures)})"
        extra = "".join(f" {k}={v}" for k, v in sorted(self.notes.items()))
        return (f"{self.name}: {state} samples={self.samples} "
                f"checked={self.checked} skipped={self.skipped}{extra}")


def split_random(rng: random.Random, x: FreeElement):
    """Split a multiset into two parts summing to it."""
    da, db = {}, {}
    for v, n in x.items():
        k = rng.randint(0, n)
        if k:
            da[v] = k
        if n - k:
            db[v] = n - k
    return _wrap(da), _wrap(db)


def refinement_suite(g: SepGraph, rng: random.Random, instances: int = 200,
                     depth: int = 12) -> SuiteResult:
    """a+b and c+d rewritten from a common seed must refine into a 2x2 grid.

    The seed has total 1 to 5, and each side walks 0 to 4 rewriting steps.
    """
    res = SuiteResult("refinement")
    for _ in range(instances):
        seed = random_element(rng, g, 5)
        x = random_walk(rng, g, seed, rng.randint(0, 4))
        y = random_walk(rng, g, seed, rng.randint(0, 4))
        a, b = split_random(rng, x)
        c, d = split_random(rng, y)
        res.samples += 1
        w = refinement_witness(g, a, b, c, d, depth=depth)
        if w.status != "ok":
            res.failures.append((w.status,) + tuple(
                serialize_element(e) for e in (a, b, c, d)))
            continue
        (x11, x12), (x21, x22) = w.pieces
        subs = ((a, x11 + x12), (b, x21 + x22), (c, x11 + x21), (d, x12 + x22))
        if all(eq_exact(g, lhs, rhs) for lhs, rhs in subs):
            res.checked += 1
        else:
            res.failures.append(("sub-equality",) + tuple(
                serialize_element(e) for e in (a, b, c, d)))
    return res


def oracle_agreement_suite(g: SepGraph, rng: random.Random, pairs: int = 1000,
                           depth: int = 12, node_budget: int = 4000) -> SuiteResult:
    """Confluence search vs the exact normal-form decision, both ways.

    With probability 1/2 a pair is two walks of 0 to 4 rewriting steps from
    a common seed of total 1 to 4, else two elements of total 0 to 4.
    Search-equal with exact-false is a failure outright, and so is a
    certified search-unequal with exact-true.  Exact-true pairs the search
    cannot confirm are logged, not failed; the caller applies whatever
    confirmation ratio it needs from the notes.
    """
    res = SuiteResult("oracle-agreement")
    eq_true = confirmed = search_equal = search_unequal = 0
    for _ in range(pairs):
        if rng.random() < 0.5:
            seed = random_element(rng, g, 4)
            x = random_walk(rng, g, seed, rng.randint(0, 4))
            y = random_walk(rng, g, seed, rng.randint(0, 4))
        else:
            x = random_element(rng, g, 4, nonzero=False)
            y = random_element(rng, g, 4, nonzero=False)
        res.samples += 1
        found = confluence_equal(g, x, y, depth, node_budget)
        eq = eq_exact(g, x, y)
        if found.status == "equal":
            search_equal += 1
            if not eq:
                res.failures.append(("search-equal-exact-false",
                                     serialize_element(x), serialize_element(y)))
                continue
        elif found.status == "unequal":
            search_unequal += 1
            if eq:
                res.failures.append(("search-unequal-exact-true", found.invariant,
                                     serialize_element(x), serialize_element(y)))
                continue
        res.checked += 1
        if eq:
            eq_true += 1
            if found.status == "equal":
                confirmed += 1
            else:
                res.log.append((found.status,
                                serialize_element(x), serialize_element(y)))
    res.notes = {"search_equal": search_equal, "search_unequal": search_unequal,
                 "eq_true": eq_true, "confirmed": confirmed,
                 "unconfirmed": eq_true - confirmed}
    return res


def primeness_suite(g: SepGraph, rng: random.Random, samples: int = 500) -> SuiteResult:
    """Every generator class is prime for the antisymmetrized order, tried
    against two elements of total 0 to 4."""
    res = SuiteResult("primeness")
    verts = list(g.vertices)
    for _ in range(samples):
        v = FreeElement({rng.choice(verts): 1})
        a1 = random_element(rng, g, 4, nonzero=False)
        a2 = random_element(rng, g, 4, nonzero=False)
        res.samples += 1
        if not antisym_le(g, v, a1 + a2):
            res.skipped += 1
            continue
        if antisym_le(g, v, a1) or antisym_le(g, v, a2):
            res.checked += 1
        else:
            res.failures.append((serialize_element(v),
                                 serialize_element(a1), serialize_element(a2)))
    return res


def conicality_suite(g: SepGraph, rng: random.Random, samples: int = 500) -> SuiteResult:
    """x + y == 0 forces x == y == 0, for x and y of total 0 to 3."""
    res = SuiteResult("conicality")
    for _ in range(samples):
        x = random_element(rng, g, 3, nonzero=False)
        y = random_element(rng, g, 3, nonzero=False)
        res.samples += 1
        s = x + y
        if s.is_zero():
            res.skipped += 1
            continue
        if eq_exact(g, s, FreeElement()):
            res.failures.append((serialize_element(x), serialize_element(y)))
        else:
            res.checked += 1
    return res


def separativity_suite(g: SepGraph, rng: random.Random, samples: int = 500) -> SuiteResult:
    """2x == x+y == 2y forces x == y.

    x has total 0 to 4; y is x after 0 to 3 rewriting steps or, half the
    time, another element of total 0 to 4.
    """
    res = SuiteResult("separativity")
    for _ in range(samples):
        x = random_element(rng, g, 4, nonzero=False)
        if rng.random() < 0.5:
            y = random_walk(rng, g, x, rng.randint(0, 3))
        else:
            y = random_element(rng, g, 4, nonzero=False)
        res.samples += 1
        s = x + y
        if not (eq_exact(g, x.scale(2), s) and eq_exact(g, s, y.scale(2))):
            res.skipped += 1
            continue
        if eq_exact(g, x, y):
            res.checked += 1
        else:
            res.failures.append((serialize_element(x), serialize_element(y)))
    return res


def division_suite(g: SepGraph, rng: random.Random, samples: int = 500) -> SuiteResult:
    """Any split of the source survives along a rewriting trace.

    The source is the sum of two parts of total 0 to 3, and the trace has
    0 to 4 steps.
    """
    res = SuiteResult("division")
    for _ in range(samples):
        a1 = random_element(rng, g, 3, nonzero=False)
        a2 = random_element(rng, g, 3, nonzero=False)
        alpha = a1 + a2
        res.samples += 1
        if alpha.is_zero():
            res.skipped += 1
            continue
        beta, trace = random_trace(rng, g, alpha, rng.randint(0, 4))
        ser = (serialize_element(a1), serialize_element(a2),
               serialize_element(beta))
        try:
            b1, b2 = split_trace(g, a1, a2, trace)
        except RewriteError as exc:
            res.failures.append(("split-failed", str(exc)) + ser)
            continue
        if b1 + b2 == beta and eq_exact(g, a1, b1) and eq_exact(g, a2, b2):
            res.checked += 1
        else:
            res.failures.append(("bad-split",) + ser)
    return res


def extraction_validity_suite(g: SepGraph) -> SuiteResult:
    """The system extracted from an adaptable graph must pass validation."""
    res = SuiteResult("extraction-validity")
    res.samples = 1
    rep = validate_isystem(extract_isystem(g))
    res.notes["status"] = rep.status
    if rep.status == COUNTEREXAMPLE:
        res.failures.extend((f.axiom, f.detail) for f in rep.failures)
    else:
        res.checked = 1
    return res


def run_suites(g: SepGraph, seed: int = 0, samples: int = 200,
               pairs: int = 500, depth: int = 12):
    """The full battery with one shared RNG; returns a list of SuiteResult."""
    rng = random.Random(seed)
    return [
        refinement_suite(g, rng, instances=samples, depth=depth),
        oracle_agreement_suite(g, rng, pairs=pairs, depth=depth),
        primeness_suite(g, rng, samples=samples),
        conicality_suite(g, rng, samples=samples),
        separativity_suite(g, rng, samples=samples),
        division_suite(g, rng, samples=samples),
        extraction_validity_suite(g),
    ]
