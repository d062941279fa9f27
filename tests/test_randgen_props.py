import hashlib
import random

import pytest

from sepmonoid.cli import main
from sepmonoid.fixtures import fixture_graph
from sepmonoid.graph import check_adaptable, serialize_graph
from sepmonoid.isystem import serialize_isystem, validate_isystem
from sepmonoid.props import (conicality_suite, division_suite,
                             oracle_agreement_suite, primeness_suite,
                             refinement_suite, run_suites, separativity_suite,
                             split_random)
from sepmonoid.randgen import (DEFAULT_GROUPS, corpus_systems,
                               random_adaptable, random_element, random_trace,
                               random_walk)
from sepmonoid.rewrite import FreeElement, RewriteError, eq_exact

from packed_reference import step_targets


def test_random_adaptable_always_is():
    rng = random.Random(0)
    for _ in range(1000):
        g = random_adaptable(rng, max_classes=4)
        assert check_adaptable(g).ok


def test_random_adaptable_deterministic():
    a = serialize_graph(random_adaptable(random.Random(12), max_classes=4))
    b = serialize_graph(random_adaptable(random.Random(12), max_classes=4))
    assert a == b


def test_random_adaptable_hits_both_kinds():
    rng = random.Random(5)
    kinds = set()
    for _ in range(60):
        rep = check_adaptable(random_adaptable(rng, max_classes=4))
        kinds |= set(rep.kinds.values())
    assert kinds == {"free", "regular"}


def test_random_element_respects_bounds():
    rng = random.Random(1)
    g = fixture_graph("g5")
    for _ in range(100):
        x = random_element(rng, g, max_total=6)
        assert 1 <= x.total() <= 6


def test_random_walk_stays_equal():
    rng = random.Random(2)
    g = fixture_graph("g3")
    x = random_element(rng, g, max_total=4)
    y = random_walk(rng, g, x, steps=5)
    assert eq_exact(g, x, y)


def test_split_random_parts_sum_back():
    rng = random.Random(4)
    x = FreeElement({"a": 3, "b": 2})
    a, b = split_random(rng, x)
    assert a + b == x


def test_corpus_systems_profile():
    systems = corpus_systems(31, count=12)
    seen = set()
    for s, witness in systems:
        text = serialize_isystem(s)
        assert text not in seen
        seen.add(text)
        assert len(s.poset) <= 4
        for p in s.poset:
            assert s.group[p].canonical_name() in DEFAULT_GROUPS
            assert s.group[p].free_rank <= 1
        assert validate_isystem(s).status == "Verified"
        assert check_adaptable(witness).ok


def test_corpus_systems_deterministic():
    a = [serialize_isystem(s) for s, _ in corpus_systems(8, count=6)]
    b = [serialize_isystem(s) for s, _ in corpus_systems(8, count=6)]
    assert a == b


def test_suites_pass_on_fixture():
    g = fixture_graph("g5")
    for res in run_suites(g, seed=13, samples=60, pairs=60, depth=10):
        assert res.ok, res.line()


def test_suites_pass_on_random_graph():
    g = random_adaptable(random.Random(21), max_classes=4)
    rng = random.Random(22)
    for suite in (refinement_suite, primeness_suite, conicality_suite,
                  separativity_suite, division_suite):
        res = suite(g, rng, 40)
        assert res.ok, res.line()
    res = oracle_agreement_suite(g, rng, pairs=60, depth=10, node_budget=1500)
    assert res.ok, res.line()


def test_suite_line_format():
    g = fixture_graph("g2")
    res = refinement_suite(g, random.Random(0), instances=10)
    line = res.line()
    assert line.startswith("refinement:")
    assert "samples=10" in line


def _listing_random_trace(rng, g, x, steps):
    """random_trace drawing from the list of every one-step rewrite."""
    trace = []
    for _ in range(steps):
        opts = step_targets(g, x)
        if not opts:
            break
        v, bi, x = rng.choice(opts)
        trace.append((v, bi))
    return x, tuple(trace)


def test_random_trace_draws_as_the_listing_of_every_step():
    rng = random.Random(6)
    graphs = [fixture_graph(n) for n in ("g1", "g2", "g3", "g4", "g5")]
    graphs += [random_adaptable(rng, max_classes=5) for _ in range(15)]
    for n in range(600):
        g = graphs[n % len(graphs)]
        x = random_element(rng, g, 5, nonzero=n % 7 != 0)
        steps, seed = rng.randint(0, 8), rng.random()
        a, b = random.Random(seed), random.Random(seed)
        y, trace = random_trace(a, g, x, steps)
        want, want_trace = _listing_random_trace(b, g, x, steps)
        assert (y, trace) == (want, want_trace) and a.random() == b.random()


def test_random_trace_rejects_vertices_outside_the_graph():
    g = fixture_graph("g5")
    x = FreeElement({"a": 1, "zz": 1, "yy": 2})
    with pytest.raises(RewriteError, match="unknown vertex 'yy'"):
        random_trace(random.Random(0), g, x, 1)
    with pytest.raises(RewriteError, match="unknown vertex 'yy'"):
        step_targets(g, x)


def test_random_trace_of_no_steps_returns_its_argument():
    g = fixture_graph("g5")
    x = FreeElement({"a": 1, "zz": 1})
    rng = random.Random(0)
    y, trace = random_trace(rng, g, x, 0)
    assert y is x and trace == ()
    assert rng.random() == random.Random(0).random()
    zero = FreeElement()
    assert random_trace(rng, g, zero, 3) == (zero, ()) and random_trace(rng, g, zero, 3)[0] is zero


def _sha256(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


# The fixed draw ranges of random_adaptable, corpus_systems and the props
# suites, pinned by what they produce.  These digests were taken when the
# ranges were still parameters, at their defaults.

def test_random_adaptable_output_is_pinned():
    texts = (serialize_graph(random_adaptable(random.Random(s))) for s in range(200))
    assert _sha256(texts) == "bd90ec6270225cba2bec2776eec9eb99d1767752a6059ed7d9dbd94854795758"


def test_corpus_systems_output_is_pinned():
    texts = (serialize_isystem(s) + serialize_graph(g) for s, g in corpus_systems(1))
    assert _sha256(texts) == "db842c601566b581661fa808eb198cc9d9f47396cc0d6c6aec0b6b7ce22516bf"


def test_props_lines_are_pinned(capsys):
    assert main(["props", "--seed", "1", "--samples", "20", "--format", "lines"]) == 0
    out = capsys.readouterr().out
    assert _sha256([out]) == "1ff4469f362030573ea9eb7c585e5f56c32009fa178fcb9087a9d1ff6dda6a42"
