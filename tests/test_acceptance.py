"""Acceptance gate: eight criteria, one pass/fail line each.

Each test appends its line to the terminal summary and fails loudly if the
criterion is not met.  Tolerances and limits are pinned in the constants
right below.
"""

import random
import time
import zlib

import pytest

from conftest import ACCEPTANCE_LINES
from test_abelian import check_snf_contract
from test_graph import MUTATIONS

from sepmonoid.abelian import snf_diagonal
from sepmonoid.fixtures import fixture_graph, fixture_system, graph_names
from sepmonoid.graph import check_adaptable, condensation, require_adaptable
from sepmonoid.isystem import extract_isystem
from sepmonoid.props import (conicality_suite, oracle_agreement_suite,
                             primeness_suite, refinement_suite,
                             separativity_suite)
from sepmonoid.randgen import corpus_systems, random_adaptable
from sepmonoid.realize import realize, roundtrip_check
from sepmonoid.rewrite import grothendieck_of_restriction

CORPUS_SEED = 20260819
RANDOM_GRAPHS = 20          # graphs next to the five fixtures
MAX_CLASSES = 6
REFINEMENT_INSTANCES = 200
REFINEMENT_LIMIT_S = 300.0
ORACLE_PAIRS = 1000
ORACLE_DEPTH = 12
ORACLE_NODE_BUDGET = 2000
CONFIRM_RATE = 0.99
REALIZE_SYSTEMS = 30
REALIZE_LIMIT_S = 600.0
LAW_SAMPLES = 500
SNF_MATRICES = 200
SNF_MAX_DIM = 8
SNF_ENTRY_BOUND = 100
SNF_LIMIT_S = 10.0
ADAPT_LIMIT_S = 1.0


def report(ok: bool, text: str):
    line = f"{'PASS' if ok else 'FAIL'}: {text}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_graphs():
    graphs = [(name, fixture_graph(name)) for name in graph_names()]
    rng = random.Random(CORPUS_SEED)
    for i in range(RANDOM_GRAPHS):
        graphs.append((f"rand-{i + 1}", random_adaptable(rng, max_classes=MAX_CLASSES)))
    return graphs


def test_criterion_1_adaptability():
    t0 = time.monotonic()
    for name in graph_names():
        rep = check_adaptable(fixture_graph(name))
        assert rep.ok, f"fixture {name} should be adaptable"
    mismatches = []
    for label, build, expected in MUTATIONS:
        rep = check_adaptable(build())
        got = set(rep.violation_clauses()) if not rep.ok else set()
        if got != expected:
            mismatches.append((label, got, expected))
    dt = time.monotonic() - t0
    ok = not mismatches and dt < ADAPT_LIMIT_S
    report(ok, f"criterion 1: 5 fixtures adaptable, {len(MUTATIONS)} mutations "
               f"with exact clause sets, {dt:.2f}s < {ADAPT_LIMIT_S:.0f}s"
               + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_2_refinement(corpus_graphs):
    t0 = time.monotonic()
    bad = []
    for name, g in corpus_graphs:
        rng = random.Random(CORPUS_SEED ^ zlib.crc32(name.encode()))
        res = refinement_suite(g, rng, instances=REFINEMENT_INSTANCES, depth=12)
        if not res.ok:
            bad.append((name, res.failures[:2]))
    dt = time.monotonic() - t0
    ok = not bad and dt < REFINEMENT_LIMIT_S
    report(ok, f"criterion 2: refinement on {len(corpus_graphs)} graphs x "
               f"{REFINEMENT_INSTANCES} instances, {dt:.1f}s < {REFINEMENT_LIMIT_S:.0f}s"
               + (f"; failures: {bad}" if bad else ""))


def test_criterion_3_oracle_agreement(corpus_graphs):
    t0 = time.monotonic()
    hard = []
    eq_true = confirmed = 0
    misses = []
    for name, g in corpus_graphs:
        rng = random.Random(CORPUS_SEED ^ zlib.crc32(name.encode()))
        res = oracle_agreement_suite(g, rng, pairs=ORACLE_PAIRS,
                                     depth=ORACLE_DEPTH,
                                     node_budget=ORACLE_NODE_BUDGET)
        if res.failures:
            hard.append((name, res.failures[:2]))
        eq_true += res.notes.get("eq_true", 0)
        confirmed += res.notes.get("confirmed", 0)
        for item in res.log:
            misses.append((name, item))
    rate = confirmed / eq_true if eq_true else 1.0
    for name, item in misses:
        print(f"  unconfirmed on {name}: {item}")
    dt = time.monotonic() - t0
    ok = not hard and rate >= CONFIRM_RATE
    report(ok, f"criterion 3: {len(corpus_graphs)}x{ORACLE_PAIRS} pairs, "
               f"0 search/exact contradictions required (got {len(hard)}), "
               f"confirmation {confirmed}/{eq_true} = {rate:.4f} >= {CONFIRM_RATE}, "
               f"{len(misses)} unconfirmed logged, {dt:.1f}s")


def test_criterion_4_realization_corpus():
    t0 = time.monotonic()
    systems = corpus_systems(CORPUS_SEED, count=REALIZE_SYSTEMS)
    bad = []
    for i, (sysm, _witness) in enumerate(systems):
        try:
            res = realize(sysm, budget=200)
            rep = roundtrip_check(sysm, res.graph)
            status = rep.status
        except Exception as exc:
            status = f"{type(exc).__name__}: {exc}"
        if status != "Verified":
            bad.append((i, status))
    dt = time.monotonic() - t0
    ok = not bad and dt < REALIZE_LIMIT_S
    report(ok, f"criterion 4: {REALIZE_SYSTEMS} extracted systems realized and "
               f"round-trip Verified, {dt:.1f}s < {REALIZE_LIMIT_S:.0f}s"
               + (f"; failures: {bad}" if bad else ""))


def test_criterion_5_s1_realization():
    s = fixture_system("s1")
    res = realize(s)
    ext = extract_isystem(res.graph)
    name = ext.group["p"].canonical_name()
    unit = ext.map_for("p", "q").unit
    ok = name == "Z/2" and not unit.is_zero() and (unit + unit).is_zero()
    report(ok, f"criterion 5: S1 realizes with G_p = {name} (want Z/2) and the "
               f"counting unit lands on the order-2 element "
               f"(zero: {unit.is_zero()})")


def test_criterion_6_regular_group_crosscheck(corpus_graphs):
    checked = 0
    bad = []
    for name, g in corpus_graphs:
        rep = require_adaptable(g)
        cond = rep.condensation
        for p in cond.poset:
            if rep.kinds[p] != "regular":
                continue
            # assemble the relation matrix right here from raw graph data
            classes = [c for c in cond.poset.elements if cond.poset.le(c, p)]
            verts = sorted(v for c in classes for v in cond.members[c])
            index = {v: i for i, v in enumerate(verts)}
            rows = []
            for v in verts:
                if rep.kinds[cond.class_of[v]] == "regular":
                    row = [0] * len(verts)
                    row[index[v]] += 1
                    for _e, (src, dst) in g.edges.items():
                        if src == v:
                            row[index[dst]] -= 1
                    rows.append(row)
                else:
                    for blk in g.blocks_of[v]:
                        row = [0] * len(verts)
                        for e in blk:
                            dst = g.edges[e][1]
                            if dst != v:
                                row[index[dst]] += 1
                        rows.append(row)
            mine = tuple(d for d in snf_diagonal(rows) if d > 1)
            sysm = extract_isystem(g)
            extracted = sysm.group[p].invariant_factors
            _verts, grp = grothendieck_of_restriction(g, p)
            if not (mine == extracted == grp.invariant_factors):
                bad.append((name, p, mine, extracted, grp.invariant_factors))
            checked += 1
    ok = checked > 0 and not bad
    report(ok, f"criterion 6: invariant factors cross-checked on {checked} "
               f"regular primes via independently assembled matrices"
               + (f"; disagreements: {bad}" if bad else ""))


def test_criterion_7_algebraic_laws(corpus_graphs):
    bad = []
    for name, g in corpus_graphs:
        rng = random.Random(CORPUS_SEED ^ zlib.crc32(name.encode()))
        for suite in (primeness_suite, conicality_suite, separativity_suite):
            res = suite(g, rng, LAW_SAMPLES)
            if not res.ok:
                bad.append((name, res.name, res.failures[:2]))
    ok = not bad
    report(ok, f"criterion 7: primeness/conicality/separativity at "
               f"{LAW_SAMPLES} samples each on {len(corpus_graphs)} graphs, "
               f"{len(bad)} failing suites"
               + (f": {bad}" if bad else ""))


def test_criterion_8_snf():
    rng = random.Random(CORPUS_SEED)
    t0 = time.monotonic()
    for _ in range(SNF_MATRICES):
        m = rng.randint(1, SNF_MAX_DIM)
        n = rng.randint(1, SNF_MAX_DIM)
        a = [[rng.randint(-SNF_ENTRY_BOUND, SNF_ENTRY_BOUND) for _ in range(n)]
             for _ in range(m)]
        check_snf_contract(a)
    dt = time.monotonic() - t0
    ok = dt < SNF_LIMIT_S
    report(ok, f"criterion 8: {SNF_MATRICES} random matrices up to "
               f"{SNF_MAX_DIM}x{SNF_MAX_DIM}, entries within "
               f"{SNF_ENTRY_BOUND}, exact factorization and unimodularity, "
               f"{dt:.2f}s < {SNF_LIMIT_S:.0f}s")
