import pickle
import random
import zlib
from operator import ge, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmonoid import graph as graph_mod
from sepmonoid import isystem as isystem_mod
from sepmonoid import rewrite as rewrite_mod
from sepmonoid.abelian import (FGAbelianGroup, GroupHom, element_order,
                               solve_left)
from sepmonoid.fixtures import fixture_graph, fixture_text, graph_names
from sepmonoid.graph import (NotAdaptableError, check_adaptable, condensation,
                             parse_graph, require_adaptable)
from sepmonoid.isystem import (canonicalized, extract_isystem,
                               serialize_isystem, validate_isystem)
from sepmonoid.realize import realize, roundtrip_check
from sepmonoid.randgen import (random_adaptable, random_element, random_trace,
                               random_walk)
from sepmonoid.props import antisym_le as props_antisym_le
from sepmonoid.rewrite import (FreeElement, MonoidNF, NFEntry, RewriteError,
                               antisym_le, antisym_nf, apply_step, apply_trace,
                               confluence_equal, confluence_search, eq_exact,
                               grothendieck_of_restriction,
                               le_semidecide, monoid_nf, nf_add, nf_equal,
                               parse_element, refinement_witness,
                               serialize_element, split_trace)

import packed_reference as packed
from packed_reference import pack, step_targets, unpack


def fe(g, text):
    return parse_element(text, g)


def meet(x, y):
    """The multiset meet: each vertex of x at the lesser of its two counts."""
    return FreeElement({v: min(n, y.get(v)) for v, n in x.counts.items()})


def test_element_algebra():
    g = fixture_graph("g5")
    x = fe(g, "a + 2*b")
    y = fe(g, "b")
    assert (x + y).get("b") == 3
    assert x.contains(y)
    assert not y.contains(x)
    assert x.minus(y).get("b") == 1
    assert meet(x, y).get("b") == 1
    assert x.scale(2).total() == 6
    assert parse_element(serialize_element(x), g) == x
    with pytest.raises(RewriteError):
        fe(g, "a + q")


def test_parse_element_rejects_negative():
    g = fixture_graph("g1")
    with pytest.raises(RewriteError):
        fe(g, "-1*a")


def test_step_targets_follow_blocks():
    g = fixture_graph("g1")
    steps = step_targets(g, fe(g, "a"))
    assert len(steps) == 1
    v, bi, res = steps[0]
    assert (v, bi) == ("a", 0)
    # firing a's block replaces a by loop target + connector target = a + b
    assert res == fe(g, "a + b")
    assert apply_step(g, fe(g, "a"), "a", 0) == fe(g, "a + b")


def test_apply_step_needs_support():
    g = fixture_graph("g1")
    with pytest.raises(RewriteError):
        apply_step(g, fe(g, "b"), "a", 0)
    # a block index counts from 0: -1 is no alias of the last block
    for bi in (-1, -2, 1):
        with pytest.raises(RewriteError, match=f"has no block {bi}"):
            apply_step(g, fe(g, "a"), "a", bi)
        with pytest.raises(RewriteError, match=f"has no block {bi}"):
            split_trace(g, fe(g, "a"), fe(g, "b"), [("a", bi)])


# frozen small-case oracles, worked out from the block structure by hand


def test_g2_equalities():
    g = fixture_graph("g2")
    # w -> 3w, so w ~ w + 2k*w and the class value lives in Z/2
    assert eq_exact(g, fe(g, "w"), fe(g, "3*w"))
    assert eq_exact(g, fe(g, "2*w"), fe(g, "4*w"))
    assert not eq_exact(g, fe(g, "w"), fe(g, "2*w"))
    assert not eq_exact(g, fe(g, "w"), fe(g, "0"))


def test_g2_confluence_finds_common_reduct():
    g = fixture_graph("g2")
    res = confluence_equal(g, fe(g, "w"), fe(g, "3*w"), depth=6, node_budget=1000)
    assert res.status == "equal"
    assert res.gamma == fe(g, "3*w")
    assert apply_trace(g, fe(g, "w"), res.trace_x) == res.gamma
    assert apply_trace(g, fe(g, "3*w"), res.trace_y) == res.gamma


def test_g2_confluence_unequal_is_not_equal():
    g = fixture_graph("g2")
    res = confluence_equal(g, fe(g, "w"), fe(g, "2*w"), depth=5, node_budget=2000)
    assert (res.status, res.invariant, res.explored) == ("unequal", "group", 0)
    res = confluence_search(g, fe(g, "w"), fe(g, "2*w"), depth=5, node_budget=2000)
    assert res.status in ("exhausted", "unknown")


def test_support_certificate_needs_adaptable_graph():
    # v's only block is the single edge v -> w: not adaptable, and the step
    # v -> w drops v's class from the support, so only "group" may fire
    g = parse_graph("vertex v\nvertex w\nedge e v w\nblock e\n")
    res = confluence_equal(g, fe(g, "v"), fe(g, "w"), depth=4, node_budget=100)
    assert (res.status, res.gamma, res.trace_x) == ("equal", fe(g, "w"), (("v", 0),))


def test_g1_absorption():
    g = fixture_graph("g1")
    # a -> a + b absorbs the sink generator
    assert eq_exact(g, fe(g, "a"), fe(g, "a + b"))
    assert eq_exact(g, fe(g, "a"), fe(g, "a + 7*b"))
    assert not eq_exact(g, fe(g, "b"), fe(g, "2*b"))
    assert not eq_exact(g, fe(g, "a"), fe(g, "b"))


def test_g5_ambiguity_identification():
    g = fixture_graph("g5")
    # payload coefficients differing by one b unit on each side agree
    assert eq_exact(g, fe(g, "a + a' + b"), fe(g, "a + a' + 2*b"))
    # but the pure-b part below a alone does not collapse
    assert not eq_exact(g, fe(g, "a + b"), fe(g, "a + 2*b"))
    assert eq_exact(g, fe(g, "a + 2*b"), fe(g, "a + 4*b"))
    assert not eq_exact(g, fe(g, "a' + b"), fe(g, "a' + 2*b"))
    assert eq_exact(g, fe(g, "a' + b"), fe(g, "a' + 4*b"))


def test_g5_confluence_witness_replays():
    g = fixture_graph("g5")
    x = fe(g, "a + a' + b")
    y = fe(g, "a + a' + 2*b")
    res = confluence_equal(g, x, y, depth=8, node_budget=4000)
    assert res.status == "equal"
    assert apply_trace(g, x, res.trace_x) == res.gamma
    assert apply_trace(g, y, res.trace_y) == res.gamma


def test_g4_unit_flows_backward():
    g = fixture_graph("g4")
    # w's block sends w -> 2w + b, so b-credit accumulates mod nothing: Z
    assert eq_exact(g, fe(g, "w"), fe(g, "2*w + b"))
    assert not eq_exact(g, fe(g, "w"), fe(g, "w + b"))


def test_le_semidecide():
    g = fixture_graph("g5")
    res = le_semidecide(g, fe(g, "b"), fe(g, "a + a' + b"), depth=8)
    assert res.status == "yes"
    assert eq_exact(g, fe(g, "b") + res.z, fe(g, "a + a' + b"))
    res2 = le_semidecide(g, fe(g, "a"), fe(g, "b"), depth=6)
    assert res2.status in ("no", "unknown")
    # reflexivity gives z = 0
    res3 = le_semidecide(g, fe(g, "a"), fe(g, "a"), depth=4)
    assert res3.status == "yes"
    assert res3.z.is_zero()


def test_refinement_witness_g2():
    g = fixture_graph("g2")
    a, b = fe(g, "w"), fe(g, "2*w")
    c, d = fe(g, "3*w"), fe(g, "0")
    res = refinement_witness(g, a, b, c, d, depth=8)
    assert res.status == "ok"
    (x11, x12), (x21, x22) = res.pieces
    assert eq_exact(g, x11 + x12, a)
    assert eq_exact(g, x21 + x22, b)
    assert eq_exact(g, x11 + x21, c)
    assert eq_exact(g, x12 + x22, d)


def test_split_trace_divides_history():
    g = fixture_graph("g5")
    rng = random.Random(3)
    a1 = fe(g, "a + b")
    a2 = fe(g, "a' + 2*b")
    alpha = a1 + a2
    trace = []
    cur = alpha
    for _ in range(4):
        steps = step_targets(g, cur)
        v, bi, cur = steps[rng.randrange(len(steps))]
        trace.append((v, bi))
    beta = cur
    b1, b2 = split_trace(g, a1, a2, trace)
    assert b1 + b2 == beta
    assert eq_exact(g, a1, b1)
    assert eq_exact(g, a2, b2)


# two random adaptable graphs: r1 has a free vertex with two blocks over a
# sink next to a regular vertex, r2 a chain of three regular classes
REFINE_GRAPHS = {
    "r1": "vertex v1\nvertex v2\nvertex v3\n"
          "edge e1 v2 v2\nedge e2 v2 v2\nedge e3 v3 v3\nedge e4 v3 v1\n"
          "edge e5 v3 v3\nedge e6 v3 v1\n"
          "block e1 e2\nblock e3 e4\nblock e5 e6\n",
    "r2": "vertex v1\nvertex v2\nvertex v3\nvertex v4\n"
          "edge e1 v1 v1\nedge e2 v1 v1\nedge e3 v1 v1\n"
          "edge e4 v2 v2\nedge e5 v2 v2\nedge e6 v2 v3\nedge e7 v2 v1\n"
          "edge e8 v3 v3\nedge e9 v3 v3\nedge e10 v3 v2\nedge e11 v3 v1\n"
          "edge e12 v3 v1\n"
          "block e1 e2 e3\nblock e4 e5 e6 e7\nblock e8 e9 e10 e11 e12\n",
}

# (graph, (a, b, c, d), (x11, x12, x21, x22), gamma) of refinement_witness at
# depth 12, on criterion-2 instances: a + b and c + d split from two random
# walks of one seed
GOLDEN_REFINE = [
    ("g1", ("2*b", "2*a+2*b", "a+2*b", "a"), ("2*b", "0", "a+2*b", "a"), "2*a+4*b"),
    ("g1", ("a", "5*b", "a+2*b", "2*b"), ("a", "0", "3*b", "2*b"), "a+5*b"),
    ("g1", ("2*b", "3*a+b", "2*a", "a+5*b"), ("0", "2*b", "2*a", "a+3*b"), "3*a+5*b"),
    ("g2", ("5*w", "3*w", "2*w", "4*w"), ("4*w", "w", "0", "3*w"), "8*w"),
    ("g2", ("6*w", "w", "w", "10*w"), ("w", "9*w", "0", "w"), "11*w"),
    ("g5", ("2*a'+2*b", "9*b", "2*a'+7*b", "b"), ("2*a'+2*b", "0", "8*b", "b"),
     "2*a'+11*b"),
    ("g5", ("a+6*b", "3*b", "a+2*b", "5*b"), ("a+4*b", "2*b", "0", "3*b"), "a+9*b"),
    ("g5", ("a+a'+4*b", "a'+2*b", "a+2*a'", "11*b"), ("a+a'", "9*b", "a'", "2*b"),
     "a+2*a'+11*b"),
    ("r1", ("2*v2", "v1+v2+3*v3", "v1+2*v3", "v1+3*v2+v3"),
     ("0", "2*v2", "v1+2*v3", "v1+v2+v3"), "2*v1+3*v2+3*v3"),
    ("r1", ("3*v1+v3", "2*v2", "2*v1+v2+v3", "v1"), ("2*v1+v3", "v1", "2*v2", "0"),
     "3*v1+2*v2+v3"),
    ("r2", ("3*v1+v2", "4*v1+3*v3+v4", "3*v1+3*v3+v4", "v2"),
     ("3*v1", "v2", "4*v1+3*v3+v4", "0"), "7*v1+v2+3*v3+v4"),
    ("r2", ("3*v2+2*v3", "5*v1+v2+v3", "2*v1+4*v2+v3", "3*v1+2*v3"),
     ("3*v2+v3", "v3", "2*v1+v2", "3*v1+v3"), "5*v1+4*v2+3*v3"),
]


def _refine_graph(name):
    text = REFINE_GRAPHS.get(name)
    return parse_graph(text) if text else fixture_graph(name)


@pytest.mark.parametrize("case", GOLDEN_REFINE, ids=lambda c: f"{c[0]}:{'|'.join(c[1])}")
def test_refinement_witness_golden(case):
    name, abcd, pieces, gamma = case
    g = _refine_graph(name)
    w = refinement_witness(g, *(fe(g, t) for t in abcd), depth=12)
    assert w.status == "ok"
    (x11, x12), (x21, x22) = w.pieces
    assert tuple(serialize_element(e) for e in (x11, x12, x21, x22)) == pieces
    assert serialize_element(w.gamma) == gamma


def _count_searches(monkeypatch):
    # every search, from confluence_search or confluence_equal, runs here
    calls = []
    real = rewrite_mod._search

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rewrite_mod, "_search", counting)
    return calls


@pytest.mark.parametrize("case", GOLDEN_REFINE, ids=lambda c: f"{c[0]}:{'|'.join(c[1])}")
def test_refinement_traces_replay_to_the_grid(case, monkeypatch):
    name, abcd, _, _ = case
    g = _refine_graph(name)
    a, b, c, d = (fe(g, t) for t in abcd)
    searches = _count_searches(monkeypatch)
    w = refinement_witness(g, a, b, c, d, depth=12)
    assert w.status == "ok"
    assert len(searches) == 1                  # the main search and no other
    (x11, x12), (x21, x22) = w.pieces
    ta, tb, tc, td = w.traces
    assert apply_trace(g, a, ta) == x11 + x12
    assert apply_trace(g, b, tb) == x21 + x22
    assert apply_trace(g, c, tc) == x11 + x21
    assert apply_trace(g, d, td) == x12 + x22
    # the sub-traces divide the main search's two traces between the parts
    assert apply_trace(g, a + b, ta + tb) == apply_trace(g, c + d, tc + td) == w.gamma


def _altered(g, part, trace):
    """trace with its first step moved to another vertex of part."""
    (v, _), rest = trace[0], trace[1:]
    u = next(u for u in part.support() if u != v and g.blocks_of[u])
    return ((u, 0),) + rest


@pytest.mark.parametrize("mutation", ["drop", "alter"])
def test_refinement_replay_rejects_a_mutated_sub_trace(mutation, monkeypatch):
    g = _refine_graph("r1")
    abcd = [fe(g, t) for t in ("2*v2", "v1+v2+3*v3", "v1+2*v3", "v1+3*v2+v3")]
    w = refinement_witness(g, *abcd, depth=12)
    k = next(k for k, t in enumerate(w.traces) if t)
    (x11, x12), (x21, x22) = w.pieces
    sums = (x11 + x12, x21 + x22, x11 + x21, x12 + x22)
    if mutation == "drop":
        bad = w.traces[k][1:]
    else:
        bad = _altered(g, abcd[k], w.traces[k])
    assert bad != w.traces[k]
    assert apply_trace(g, abcd[k], bad) != sums[k]
    # the same mutation inside refinement_witness fails its replay check
    real = rewrite_mod._split
    splits = []

    def split_then_mutate(g, a, b, trace):
        # the first split gives (ta, tb), the second (tc, td)
        out = list(real(g, a, b, trace))
        if len(splits) == k // 2:
            assert out[2 + k % 2] == w.traces[k]
            out[2 + k % 2] = bad
        splits.append(trace)
        return tuple(out)

    monkeypatch.setattr(rewrite_mod, "_split", split_then_mutate)
    with pytest.raises(RewriteError, match="replay"):
        refinement_witness(g, *abcd, depth=12)
    assert len(splits) == 2


def _reference_apply_step(g, x, v, bi):
    # the FreeElement route that apply_step took before it updated one dict
    if x.get(v) < 1:
        raise RewriteError(f"no occurrence of '{v}' to rewrite")
    blocks = g.blocks_of[v]
    if bi >= len(blocks):
        raise RewriteError(f"vertex '{v}' has no block {bi}")
    targets = FreeElement.from_vertices(g.edges[e][1] for e in blocks[bi])
    return x.minus(FreeElement({v: 1})) + targets


def _reference_split_trace(g, part_a, part_b, trace):
    # split_trace as it was on FreeElement
    pa, pb = part_a, part_b
    for v, bi in trace:
        if pa.get(v) > 0:
            pa = _reference_apply_step(g, pa, v, bi)
        elif pb.get(v) > 0:
            pb = _reference_apply_step(g, pb, v, bi)
        else:
            raise RewriteError(f"trace step rewrites absent vertex '{v}'")
    return pa, pb


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RewriteError as exc:
        return ("RewriteError", str(exc))


def test_split_trace_matches_the_free_element_route():
    rng = random.Random(12)
    graphs = [g for _, g in CORPUS[:10]] + [_refine_graph("r1"), _refine_graph("r2")]
    errors = set()
    for n in range(600):
        g = graphs[n % len(graphs)]
        a1 = random_element(rng, g, 3, nonzero=False)
        a2 = random_element(rng, g, 3, nonzero=False)
        _, trace = random_trace(rng, g, a1 + a2, rng.randint(0, 6))
        if trace and n % 3 == 0:
            # a step on a vertex neither part holds, or on a missing block
            k = rng.randrange(len(trace) + 1)
            v = rng.choice(sorted(g.vertices))
            bad = (v, len(g.blocks_of[v])) if n % 2 else ("zz", 0)
            trace = trace[:k] + (bad,) + trace[k:]
        want = _outcome(_reference_split_trace, g, a1, a2, trace)
        assert _outcome(split_trace, g, a1, a2, trace) == want
        if want[0] == "RewriteError":
            errors.add(want[1].split("'")[0])
            continue
        # the sub-traces carry each part to its descendant
        _, _, sa, sb = rewrite_mod._split(g, a1.counts, a2.counts, trace)
        assert apply_trace(g, a1, sa) == want[0]
        assert apply_trace(g, a2, sb) == want[1]
        assert len(sa) + len(sb) == len(trace)
    assert errors == {"trace step rewrites absent vertex ", "vertex "}


def test_apply_step_matches_the_free_element_route():
    rng = random.Random(13)
    for _, g in CORPUS[:10]:
        for _ in range(40):
            x = random_element(rng, g, 4, nonzero=False)
            v = rng.choice(sorted(g.vertices))
            bi = rng.randrange(len(g.blocks_of[v]) + 1)
            want = _outcome(_reference_apply_step, g, x, v, bi)
            got = _outcome(apply_step, g, x, v, bi)
            assert got == want
            if isinstance(got, FreeElement):
                assert got.counts == want.counts and got.items() == want.items()


def test_antisym_nf_maximal_support():
    g = fixture_graph("g5")
    nf = antisym_nf(g, fe(g, "a + a' + 5*b"))
    assert [(e[0], e[1]) for e in nf.entries] == [("a", "free"), ("a'", "free")]
    nf2 = antisym_nf(g, fe(g, "3*b"))
    assert [(e[0], e[1], e[2]) for e in nf2.entries] == [("b", "free", 3)]


def test_monoid_nf_equal_matches_eq():
    g = fixture_graph("g5")
    pairs = [("a + a' + b", "a + a' + 2*b", True),
             ("a + b", "a + 2*b", False),
             ("a + 2*b", "a + 4*b", True)]
    for lt, rt, want in pairs:
        n1 = monoid_nf(g, fe(g, lt))
        n2 = monoid_nf(g, fe(g, rt))
        assert nf_equal(g, n1, n2) is want


# (graph, element, entries as (cls, kind, n, gcoeffs))
GOLDEN_NF = [
    ("g1", "0", []),
    ("g1", "3*b", [("b", "free", 3, ())]),
    ("g1", "a", [("a", "free", 1, (0,))]),
    ("g1", "2*a+5*b", [("a", "free", 2, (5,))]),
    ("g2", "w", [("w", "regular", 1, (1,))]),
    ("g2", "5*w", [("w", "regular", 1, (5,))]),
    ("g5", "b", [("b", "free", 1, ())]),
    ("g5", "a+2*b", [("a", "free", 1, (2,))]),
    ("g5", "a'+b", [("a'", "free", 1, (1,))]),
    # b lies below both a and a': the least class id, a, absorbs it
    ("g5", "a+a'+b", [("a", "free", 1, (1,)), ("a'", "free", 1, (0,))]),
    ("g5", "2*a+a'+3*b", [("a", "free", 2, (3,)), ("a'", "free", 1, (0,))]),
]


@pytest.mark.parametrize("case", GOLDEN_NF, ids=lambda c: f"{c[0]}:{c[1]}")
def test_monoid_nf_golden(case):
    name, text, entries = case
    g = fixture_graph(name)
    nf = monoid_nf(g, fe(g, text))
    assert [(e.cls, e.kind, e.n, e.gcoeffs) for e in nf.entries] == entries
    assert nf == _reference_monoid_nf(g, fe(g, text))


def test_nf_add_consistent_with_sum():
    g = fixture_graph("g5")
    x, y = fe(g, "a + 2*b"), fe(g, "a' + b")
    lhs = nf_add(g, monoid_nf(g, x), monoid_nf(g, y))
    rhs = monoid_nf(g, x + y)
    assert nf_equal(g, lhs, rhs)


def test_grothendieck_of_restriction():
    g = fixture_graph("g2")
    verts, grp = grothendieck_of_restriction(g, "w")
    assert verts == ["w"]
    assert grp.canonical_name() == "Z/2"
    # a free class keeps its own counting direction in the restriction
    g5 = fixture_graph("g5")
    _, grp5 = grothendieck_of_restriction(g5, "a")
    assert grp5.canonical_name() == "Z + Z/2"


# golden search results: confluence_search's tie-break fixes gamma, the
# traces and the explored count, and random walks fix benchmark inputs

# rand-11 and rand-13 of the acceptance corpus (CORPUS_SEED 20260819)
RAND_11 = """\
vertex v1
vertex v2
vertex v3
vertex v4
vertex v5
vertex v6
vertex v7
edge e1 v1 v1
edge e2 v1 v1
edge e3 v2 v2
edge e4 v2 v2
edge e5 v2 v2
edge e6 v3 v3
edge e7 v3 v1
edge e8 v4 v4
edge e9 v4 v4
edge e10 v4 v5
edge e11 v4 v2
edge e12 v4 v2
edge e13 v5 v5
edge e14 v5 v5
edge e15 v5 v4
edge e16 v5 v2
edge e17 v6 v6
edge e18 v6 v2
edge e19 v6 v6
edge e20 v6 v1
edge e21 v6 v2
edge e22 v7 v7
edge e23 v7 v5
edge e24 v7 v3
block e1 e2
block e3 e4 e5
block e6 e7
block e10 e11 e12 e8 e9
block e13 e14 e15 e16
block e17 e18
block e19 e20 e21
block e22 e23 e24
"""

RAND_13 = """\
vertex v1
vertex v2
vertex v3
vertex v4
vertex v5
vertex v6
vertex v7
edge e1 v1 v1
edge e2 v1 v1
edge e3 v2 v2
edge e4 v2 v2
edge e5 v2 v2
edge e6 v2 v2
edge e7 v2 v2
edge e8 v2 v1
edge e9 v3 v3
edge e10 v3 v3
edge e11 v3 v4
edge e12 v4 v4
edge e13 v4 v4
edge e14 v4 v3
edge e15 v4 v2
edge e16 v4 v2
edge e17 v5 v5
edge e18 v5 v5
edge e19 v5 v5
edge e20 v6 v6
edge e21 v6 v3
edge e22 v7 v7
edge e23 v7 v7
edge e24 v7 v7
edge e25 v7 v7
edge e26 v7 v7
block e1 e2
block e3 e4 e5 e6 e7 e8
block e10 e11 e9
block e12 e13 e14 e15 e16
block e17 e18 e19
block e20 e21
block e22 e23 e24 e25 e26
"""

GOLDEN_GRAPHS = {"g5": fixture_graph("g5"), "rand-11": parse_graph(RAND_11),
                 "rand-13": parse_graph(RAND_13)}

# (graph, x, y, depth, budget, status, explored, gamma, trace_x, trace_y)
GOLDEN_SEARCHES = [
    ("g5", "a'", "a'+6*b", 12, 300, "equal", 5, "a'+6*b",
     (("a'", 0), ("a'", 0)), ()),
    ("g5", "a+a'", "a+a'+2*b", 12, 300, "equal", 4, "a+a'+2*b",
     (("a", 0),), ()),
    ("g5", "a+a'+b", "a", 6, 2000, "unknown", 25, None, (), ()),
    ("g5", "a+2*a'", "b", 4, 5000, "unknown", 13, None, (), ()),
    ("g5", "a+a'+b", "a", 12, 10, "exhausted", 11, None, (), ()),
    ("rand-11", "v1+7*v2+v4+v6", "3*v2+2*v4+v5+v6", 12, 2000, "equal", 170,
     "v1+9*v2+2*v4+v5+v6",
     (("v4", 0),), (("v6", 0), ("v2", 0), ("v2", 0), ("v6", 1))),
    ("rand-11", "v2+v3+v5+v7", "7*v2+v7", 12, 2000, "equal", 49, "7*v2+v3+v5+v7",
     (("v2", 0), ("v2", 0), ("v2", 0)), (("v7", 0),)),
    ("rand-11", "v5", "v3", 12, 300, "unknown", 213, None, (), ()),
    ("rand-11", "v2", "v4+v5+v6", 12, 300, "exhausted", 301, None, (), ()),
    ("rand-13", "v1+v6+9*v7", "2*v1+2*v2+3*v3+2*v4+v6+v7", 12, 2000, "equal", 140,
     "2*v1+2*v2+3*v3+2*v4+v6+9*v7",
     (("v1", 0), ("v6", 0), ("v3", 0), ("v4", 0)), (("v7", 0), ("v7", 0))),
    ("rand-13", "v2+3*v3+2*v4+v6", "7*v2+3*v3+4*v4+v6", 12, 2000, "equal", 82,
     "7*v2+6*v3+5*v4+v6",
     (("v4", 0), ("v4", 0), ("v4", 0)), (("v6", 0), ("v6", 0), ("v3", 0))),
    ("rand-13", "v3+v6", "v7", 4, 5000, "unknown", 36, None, (), ()),
    ("rand-13", "3*v2+v3", "v4+v6+v7", 12, 300, "exhausted", 301, None, (), ()),
]


def _pins(res):
    gamma = serialize_element(res.gamma) if res.gamma is not None else None
    return (res.status, res.explored, gamma, res.trace_x, res.trace_y)


@pytest.mark.parametrize("case", GOLDEN_SEARCHES, ids=lambda c: f"{c[0]}:{c[1]}~{c[2]}")
def test_confluence_golden(case):
    name, xs, ys, depth, budget, status, explored, gamma, tx, ty = case
    g = GOLDEN_GRAPHS[name]
    x, y = fe(g, xs), fe(g, ys)
    pins = (status, explored, gamma, tx, ty)
    assert _pins(confluence_search(g, x, y, depth, budget)) == pins
    res = confluence_equal(g, x, y, depth, budget)
    if status == "equal":
        assert (_pins(res), res.invariant) == (pins, None)
    else:
        assert (res.status, res.invariant, res.explored) == ("unequal", "group", 0)


# rand-6 of the same corpus
RAND_6 = """\
vertex v1
vertex v2
vertex v3
vertex v4
edge e1 v1 v1
edge e2 v1 v1
edge e3 v1 v2
edge e4 v2 v2
edge e5 v2 v2
edge e6 v2 v1
edge e7 v4 v4
edge e8 v4 v2
edge e9 v4 v1
edge e10 v4 v4
edge e11 v4 v1
edge e12 v4 v1
block e1 e2 e3
block e4 e5 e6
block e10 e11 e12
block e7 e8 e9
"""

# exact-unequal pairs no invariant separates, so confluence_equal searches
UNCERTIFIED_SEARCHES = [
    ("g1", fixture_graph("g1"), "b", "2*b", 12, 2000, "unknown", 2),
    ("rand-6", parse_graph(RAND_6), "2*v1+v3", "v1+v2+v3", 12, 2000, "unknown", 26),
]


@pytest.mark.parametrize("case", UNCERTIFIED_SEARCHES, ids=lambda c: f"{c[0]}:{c[2]}~{c[3]}")
def test_confluence_uncertified_golden(case):
    _, g, xs, ys, depth, budget, status, explored = case
    x, y = fe(g, xs), fe(g, ys)
    assert not eq_exact(g, x, y)
    res = confluence_equal(g, x, y, depth, budget)
    assert (_pins(res), res.invariant) == ((status, explored, None, (), ()), None)


def test_support_certificate_on_adaptable_graph():
    # v1 and v2 are regular classes, both 0 in the Grothendieck group, and
    # neither lies below the other
    g = GOLDEN_GRAPHS["rand-11"]
    x, y = fe(g, "v1"), fe(g, "v2")
    assert not eq_exact(g, x, y)
    res = confluence_equal(g, x, y, 12, 300)
    assert (res.status, res.invariant, res.explored) == ("unequal", "support", 0)


# (graph, x, y, depth, status, z) of le_semidecide at the default budget
GOLDEN_ORDER = [
    ("g5", "b", "a+a'+b", 8, "yes", "a+a'"),      # y contains x
    ("g5", "a", "b", 6, "no", None),               # support precheck
    ("g5", "2*a", "a", 8, "no", None),             # free multiplicity precheck
    ("g5", "b", "a", 1, "yes", "a+b"),
    ("g3", "2*u", "w", 1, "unknown", None),
    ("g3", "2*u", "w", 2, "yes", "3*w"),
    ("g1", "3*b", "2*a", 2, "yes", "2*a"),          # eq_exact fallback
    ("g3", "3*u", "u", 1, "yes", "2*w"),            # eq_exact fallback
    ("g4", "3*w", "b+2*w", 5, "yes", "2*b"),
    ("rand-11", "v1", "v7", 1, "yes", "v7"),        # eq_exact fallback
    ("rand-11", "v1", "v7", 2, "yes", "v3+v5+v7"),
    ("rand-11", "2*v1", "v7", 2, "yes", "v7"),      # eq_exact fallback
    ("rand-11", "v5+v7", "v6+v7", 1, "yes", "v3+v6"),
    ("rand-13", "v1", "v4", 2, "yes", "6*v2+v3+2*v4"),
    ("rand-13", "v1", "v3", 3, "yes", "6*v2+3*v3+2*v4"),
    ("rand-13", "v1", "v5+v6", 3, "unknown", None),
    ("rand-13", "v1", "v5+v6", 8, "yes", "6*v2+3*v3+2*v4+v5+v6"),
    ("rand-13", "2*v7", "v6+v7", 8, "yes", "v6+3*v7"),
]


@pytest.mark.parametrize("case", GOLDEN_ORDER, ids=lambda c: f"{c[0]}:{c[1]}<={c[2]}@{c[3]}")
def test_le_semidecide_golden(case):
    name, xs, ys, depth, status, z = case
    g = GOLDEN_GRAPHS[name] if name in GOLDEN_GRAPHS else fixture_graph(name)
    x, y = fe(g, xs), fe(g, ys)
    res = le_semidecide(g, x, y, depth)
    found = serialize_element(res.z) if res.z is not None else None
    assert (res.status, found) == (status, z)
    if status == "yes":
        assert eq_exact(g, x + res.z, y)


# rand-16 of the same corpus
RAND_16 = """\
vertex v1
vertex v2
vertex v3
vertex v4
vertex v5
vertex v6
edge e1 v1 v1
edge e10 v5 v5
edge e11 v5 v2
edge e2 v1 v1
edge e3 v3 v3
edge e4 v3 v3
edge e5 v3 v1
edge e6 v3 v1
edge e7 v4 v4
edge e8 v4 v4
edge e9 v4 v4
block e1 e2
block e3 e4 e5 e6
block e7 e8 e9
block e10 e11
"""


def test_le_meet_computes_each_sort_key_once(monkeypatch):
    g = dict(CORPUS)["rand-8"]
    x, y = fe(g, "4*v2+8*v3+v4+v5+3*v6"), fe(g, "v1+2*v2+v3+v4+v5+v6")
    seen = []
    real = rewrite_mod._Kernel.sort_key
    monkeypatch.setattr(rewrite_mod._Kernel, "sort_key",
                        lambda self, e: seen.append(e) or real(self, e))
    res = le_semidecide(g, x, y, depth=10, node_budget=20000)
    assert res.status == "yes" and serialize_element(res.z) == "v1+v3+v4"
    # re-sorting both sides on every layer made 921 calls here
    assert seen and len(seen) == len(set(seen))


def _identity(e):
    return e


def _decoder(cg, kern):
    """The packed tuple of a node of kern."""
    return lambda e: pack(cg, kern.decode(e))


def _full_scan_meet(cg, decode=_identity):
    """le_semidecide's meet without the total slices: every new node
    against every reached node, both in sort_key order.  The nodes are
    compared as the packed tuples that decode gives."""
    def key(e):
        return packed.sort_key(cg, decode(e))

    def meet(added, from_x, other):
        reached = sorted(other, key=key)
        for a in sorted(added, key=key):
            for b in reached:
                x2, w = (a, b) if from_x else (b, a)
                if all(map(ge, decode(w), decode(x2))):
                    return x2, w
    return meet


def test_le_meet_finds_the_pair_of_the_full_scan():
    # u -> 2w and w -> 2u: from u, the x side's first layer holds 2w, the
    # y root itself, a pair of equal totals
    swap = graph_mod.SepGraph(["u", "w"], [("a", "u", "w"), ("a2", "u", "w"),
                                           ("b", "w", "u"), ("b2", "w", "u")],
                              [("a", "a2"), ("b", "b2")])
    assert le_semidecide(swap, fe(swap, "u"), fe(swap, "2*w")).z == FreeElement()
    rng = random.Random(31)
    met = 0
    for name, g in CORPUS + [("swap", swap)]:
        if not check_adaptable(g).ok:
            continue
        cg = g.derived(rewrite_mod._CompiledGraph)
        for _ in range(80):
            x = random_element(rng, g, 4)
            if rng.random() < 0.7:
                y = random_walk(rng, g, x + random_element(rng, g, 2, nonzero=False),
                                rng.randint(0, 4))
            else:
                y = random_element(rng, g, 5)
            if x == y or y.contains(x):
                continue
            depth = rng.randint(1, 6)
            kern = cg.kernel(depth, x.total(), y.total())
            decode = _decoder(cg, kern)
            status, _, hit = rewrite_mod._two_sided(
                kern, kern.encode(x.counts), kern.encode(y.counts), depth, 2000,
                _full_scan_meet(cg, decode), kern.sort_key)
            res = le_semidecide(g, x, y, depth, node_budget=2000)
            if hit:
                (x2, _), (w, _) = hit
                met += 1
                z = tuple(map(sub, decode(w), decode(x2)))
                assert res.status == "yes" and res.z == unpack(cg, z)
            elif status == "exhausted":
                assert res.status in ("no", "unknown")
    assert met > 100


def test_le_semidecide_stops_at_the_first_node_past_the_budget():
    # the witness lies in a layer that crosses 50 nodes: a search that
    # finished the layer before checking the budget would answer yes
    g = parse_graph(RAND_16)
    x, y = fe(g, "5*v1+3*v3+3*v4"), fe(g, "v2+v3+2*v4")
    assert le_semidecide(g, x, y, 8, node_budget=50).status == "unknown"
    res = le_semidecide(g, x, y, 8, node_budget=60)
    assert (res.status, serialize_element(res.z)) == ("yes", "v2+v4")


def test_random_walk_golden():
    g = GOLDEN_GRAPHS["rand-13"]
    x = fe(g, "v1+v4+v7")
    y, trace = random_trace(random.Random(3), g, x, 8)
    assert serialize_element(y) == "3*v1+4*v2+2*v3+3*v4+17*v7"
    assert trace == (("v1", 0), ("v7", 0), ("v7", 0), ("v1", 0),
                     ("v4", 0), ("v7", 0), ("v4", 0), ("v7", 0))
    assert random_walk(random.Random(3), g, x, 8) == y


def test_normal_forms_reject_unknown_vertices():
    g = fixture_graph("g5")
    bad, good = FreeElement({"zz": 1}), fe(g, "2*a")
    calls = [lambda: eq_exact(g, bad, good), lambda: eq_exact(g, good, bad),
             lambda: monoid_nf(g, bad), lambda: antisym_nf(g, bad),
             lambda: confluence_equal(g, bad, good),
             lambda: le_semidecide(g, bad, good)]
    for call in calls:
        with pytest.raises(RewriteError, match="unknown vertex 'zz'"):
            call()


def test_searches_reject_unknown_vertices():
    g = fixture_graph("g5")
    bad = FreeElement({"a": 1, "zz": 1})
    good = fe(g, "2*a")
    for x, y in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(RewriteError):
            confluence_equal(g, x, y)
        with pytest.raises(RewriteError):
            le_semidecide(g, x, y)


# law tests over a couple of fixed graphs, with random elements


def elements(g, max_total=5):
    verts = st.lists(st.sampled_from(sorted(g.vertices)),
                     min_size=0, max_size=max_total)
    return verts.map(FreeElement.from_vertices)


G5 = fixture_graph("g5")
G3 = fixture_graph("g3")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5))
def test_steps_keep_support_classes_on_adaptable_graphs(seed, nsteps):
    # the argument behind the "support" certificate: a step on v keeps the
    # class of v in the support, so no class ever leaves it
    rng = random.Random(seed)
    g = random_adaptable(rng, max_classes=5)
    class_of = condensation(g).class_of
    cur = random_element(rng, g, 4)
    for _ in range(nsteps):
        before = {class_of[v] for v in cur.support()}
        steps = step_targets(g, cur)
        if not steps:
            break
        for _, _, r in steps:
            assert before <= {class_of[v] for v in r.support()}
        cur = steps[rng.randrange(len(steps))][2]


@settings(max_examples=60, deadline=None)
@given(elements(G5), elements(G5))
def test_eq_exact_is_congruent_to_addition(x, y):
    if eq_exact(G5, x, y):
        z = parse_element("a + b", G5)
        assert eq_exact(G5, x + z, y + z)


@settings(max_examples=40, deadline=None)
@given(elements(G3), st.integers(0, 4))
def test_rewriting_preserves_eq(x, nsteps):
    rng = random.Random(11)
    cur = x
    for _ in range(nsteps):
        steps = step_targets(G3, cur)
        if not steps:
            break
        cur = steps[rng.randrange(len(steps))][2]
    assert eq_exact(G3, x, cur)


@settings(max_examples=60, deadline=None)
@given(elements(G5))
def test_eq_exact_reflexive(x):
    assert eq_exact(G5, x, x)


@settings(max_examples=40, deadline=None)
@given(elements(G5), elements(G5))
def test_eq_exact_symmetric(x, y):
    assert eq_exact(G5, x, y) == eq_exact(G5, y, x)


# ------------------------------------- the normal-form kernel against the
# route it replaced: maximal classes and per-class assignment for monoid_nf,
# and GroupElement deltas with subgroup membership in the direct sum for
# nf_equal, restated here with the helpers that route used


def _maximals(poset, subset):
    pool = set(subset)
    return sorted(p for p in pool if not any(poset.lt(p, q) for q in pool))


def subgroup_membership(gens, x):
    """Is x in the subgroup generated by gens (all in x's group)?"""
    rows = [list(e.coeffs) for e in gens] + [list(r) for r in x.group.relations]
    if not rows:
        return x.is_zero()
    return solve_left(rows, list(x.coeffs)) is not None


def direct_sum(groups):
    """Direct sum with embeddings: (sum group, [embedding homs])."""
    ngens = sum(g.ngens for g in groups)
    relations, offsets, offset = [], [], 0
    for g in groups:
        offsets.append(offset)
        for r in g.relations:
            row = [0] * ngens
            row[offset:offset + g.ngens] = list(r)
            relations.append(row)
        offset += g.ngens
    total = FGAbelianGroup(ngens, relations)
    embeds = [GroupHom(g, total, [[int(j == off + i) for j in range(ngens)]
                                  for i in range(g.ngens)])
              for g, off in zip(groups, offsets)]
    return total, embeds


def test_direct_sum():
    z2 = FGAbelianGroup(1, [[2]])
    z = FGAbelianGroup(1, [])
    g, incs = direct_sum([z2, z])
    assert g.canonical_name() == "Z + Z/2"
    x = incs[0](z2.gen(0))
    assert element_order(x) == 2


def _reference_monoid_nf(g, x):
    report = require_adaptable(g)
    cond, kinds = report.condensation, report.kinds
    sysm = extract_isystem(g)
    classes = sorted({cond.class_of[v] for v in x.support()})
    top = _maximals(cond.poset, classes)
    entries = []
    for p in top:
        index = {w: i for i, w in enumerate(sysm.generator_labels[p])}
        coeffs = [0] * len(index)
        n = 0
        for q in classes:
            owner = q if q in top else min(r for r in top if cond.poset.lt(q, r))
            if owner != p:
                continue
            for w in cond.members[q]:
                if q == p and kinds[p] == "free":
                    n += x.get(w)
                elif x.get(w):
                    coeffs[index[w]] += x.get(w)
        entries.append(NFEntry(p, kinds[p], 1 if kinds[p] == "regular" else n,
                               tuple(coeffs)))
    return MonoidNF(tuple(entries))


def _reference_nf_equal(g, nf1, nf2):
    """(answer, how): how is "membership" when the per-class deltas were
    not all zero and the ambiguity subgroup had generators."""
    if nf1.antichain() != nf2.antichain():
        return False, "antichain"
    sysm = extract_isystem(g)
    deltas = []
    for e1, e2 in zip(nf1.entries, nf2.entries):
        if e1.kind != e2.kind or e1.n != e2.n:
            return False, "multiplicity"
        grp = sysm.group[e1.cls]
        deltas.append(grp.element(e1.gcoeffs) - grp.element(e2.gcoeffs))
    if all(d.is_zero() for d in deltas):
        return True, "zero"
    antichain = nf1.antichain()
    total, embeds = direct_sum([sysm.group[p] for p in antichain])
    delta = total.zero()
    for emb, d in zip(embeds, deltas):
        delta = delta + emb(d)
    cond = require_adaptable(g).condensation
    gens = []
    for q in sorted(cond.members):
        above = [i for i, p in enumerate(antichain) if sysm.poset.lt(q, p)]
        for i1 in above[1:]:
            for w in cond.members[q]:
                x0, x1 = (sysm.group[antichain[i]].gen(
                    sysm.generator_labels[antichain[i]].index(w)) for i in (above[0], i1))
                gens.append(embeds[above[0]](x0) - embeds[i1](x1))
    if not gens:
        return delta.is_zero(), "no generators"
    return subgroup_membership(gens, delta), "membership"


CORPUS = [(name, fixture_graph(name)) for name in graph_names()]
_corpus_rng = random.Random(20260819)       # the acceptance corpus
CORPUS += [(f"rand-{i + 1}", random_adaptable(_corpus_rng, max_classes=6))
           for i in range(20)]


def _lower_content_pair(rng, g):
    """x, and x plus a few vertices, rewritten half the time: the two often
    share an antichain and multiplicities but not their coefficients."""
    x = random_element(rng, g, 4)
    y = x
    for _ in range(rng.randint(1, 3)):
        y = y + FreeElement({rng.choice(g.vertices): rng.randint(1, 3)})
    if rng.random() < 0.5:
        y = random_walk(rng, g, y, rng.randint(0, 3))
    return x, y


def _check_against_reference(g, x, y):
    nx, ny = monoid_nf(g, x), monoid_nf(g, y)
    assert nx == _reference_monoid_nf(g, x) and ny == _reference_monoid_nf(g, y)
    want, how = _reference_nf_equal(g, nx, ny)
    assert eq_exact(g, x, y) is want
    assert nf_equal(g, nx, ny) is want
    return want, how


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CORPUS), st.integers(0, 2**32))
def test_normal_form_kernel_matches_reference(named, seed):
    _, g = named
    x, y = _lower_content_pair(random.Random(seed), g)
    _check_against_reference(g, x, y)


def test_normal_form_kernel_reaches_the_ambiguity_subgroup():
    # the same pairs, drawn with fixed seeds: the kernel agrees with the
    # reference on pairs that the ambiguity subgroup decides both ways
    seen = set()
    for name, g in CORPUS:
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(40):
            want, how = _check_against_reference(g, *_lower_content_pair(rng, g))
            seen.add((how, want))
    assert {("membership", True), ("membership", False), ("zero", True),
            ("no generators", False), ("multiplicity", False)} <= seen


# the order and the sum against the routes they replaced: antisym_nf plus
# Poset.le for antisym_le, and Poset.le / Poset.lt over the support classes
# of y for le_semidecide's two "no" prechecks, restated here


def _reference_antisym_le(g, x, y):
    if x.is_zero():
        return True
    if y.is_zero():
        return False
    pos = require_adaptable(g).condensation.poset
    cy = antisym_nf(g, y).entries
    return all(any(pos.le(cx, cls) for cls, _, _ in cy)
               for cx, _, _ in antisym_nf(g, x).entries)


def _reference_le_no(g, x, y):
    report = require_adaptable(g)
    class_of, poset = report.condensation.class_of, report.condensation.poset
    ycls = {class_of[v] for v in y.support()}
    for v in x.support():
        q = class_of[v]
        if not any(poset.le(q, p) for p in ycls):
            return True
        if (report.kinds[q] == "free" and not any(poset.lt(q, p) for p in ycls)
                and x.get(v) > y.get(v)):
            return True
    return False


def _order_pairs(g, rng, count):
    for k in range(count):
        x = random_element(rng, g, 4, nonzero=False)
        if k % 2:
            y = random_element(rng, g, 4, nonzero=False)
        else:
            w = random_element(rng, g, 3, nonzero=False)
            y = random_walk(rng, g, x + w, rng.randint(0, 4))
        yield x, y


def test_nf_add_is_the_normal_form_of_the_sum():
    # exact, not only nf_equal: the sum unfolds both normal forms onto their
    # vertices and folds them into the layout of the union antichain
    for name, g in CORPUS:
        rng = random.Random(zlib.crc32(name.encode()))
        pairs = list(_order_pairs(g, rng, 60))
        pairs += [_lower_content_pair(rng, g) for _ in range(20)]
        for x, y in pairs:
            assert nf_add(g, monoid_nf(g, x), monoid_nf(g, y)) == monoid_nf(g, x + y), \
                (name, serialize_element(x), serialize_element(y))


def test_order_matches_the_poset_route():
    assert props_antisym_le is antisym_le
    seen = set()
    for name, g in CORPUS:
        rng = random.Random(zlib.crc32(name.encode()) + 1)
        for x, y in _order_pairs(g, rng, 60):
            want = _reference_antisym_le(g, x, y)
            assert antisym_le(g, x, y) is want
            # at depth 0 every "no" is a precheck's
            no = le_semidecide(g, x, y, depth=0, node_budget=0).status == "no"
            assert no is (x != y and not x.is_zero() and _reference_le_no(g, x, y))
            seen.add((want, no))
    assert {(True, False), (False, True), (True, True)} <= seen


def test_antisym_le_zero_answers_come_before_the_adaptability_check():
    g = parse_graph("vertex v\nvertex w\nedge e v w\nblock e\n")
    assert not check_adaptable(g).ok
    assert antisym_le(g, FreeElement(), fe(g, "v"))
    assert antisym_le(g, FreeElement(), FreeElement())
    assert not antisym_le(g, fe(g, "w"), FreeElement())
    with pytest.raises(NotAdaptableError):
        antisym_le(g, fe(g, "w"), fe(g, "v"))


# ------------------------------------------------- one analysis per graph


def _count_builds(monkeypatch):
    """Counters of condensations (one per adaptability report) and of
    presented groups (one per prime of an extracted system)."""
    built = {"report": 0, "group": 0}
    cond, present = graph_mod.condensation, isystem_mod.presented_group

    def counting_cond(g):
        built["report"] += 1
        return cond(g)

    def counting_present(*args, **kwargs):
        built["group"] += 1
        return present(*args, **kwargs)

    monkeypatch.setattr(graph_mod, "condensation", counting_cond)
    monkeypatch.setattr(isystem_mod, "presented_group", counting_present)
    return built


def test_one_analysis_per_graph(monkeypatch):
    built = _count_builds(monkeypatch)
    g = parse_graph(fixture_text("g5.sg"))
    x, y = fe(g, "a + a' + b"), fe(g, "a + a' + 2*b")
    assert check_adaptable(g).ok
    require_adaptable(g)
    sysm = extract_isystem(g)
    serialize_isystem(sysm)
    assert eq_exact(g, x, y)
    assert not eq_exact(g, fe(g, "a"), fe(g, "a'"))
    monoid_nf(g, y)
    assert le_semidecide(g, fe(g, "a + b"), y).status == "yes"
    assert confluence_equal(g, x, y, depth=6).status == "equal"
    assert refinement_witness(g, fe(g, "a"), fe(g, "a' + b"),
                              fe(g, "a + a'"), fe(g, "b")).status == "ok"
    assert built["report"] == 1
    assert built["group"] == len(sysm.poset)     # one extraction


def _snapshot(sysm):
    """Everything a caller could mutate in a system, as plain data."""
    return (serialize_isystem(sysm), sysm.poset.elements, sorted(sysm.kind.items()),
            sorted((p, grp.ngens, grp.relations) for p, grp in sysm.group.items()),
            sorted(sysm.generator_labels.items()),
            sorted((k, cm.hom.matrix, cm.unit and cm.unit.coeffs)
                   for k, cm in sysm.maps.items()))


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
def test_shared_analysis_is_not_mutated_by_callers(name):
    g = fixture_graph(name)
    report = check_adaptable(g)
    assert require_adaptable(g) is report and check_adaptable(g) is report
    sysm = extract_isystem(g)
    assert extract_isystem(g) is sysm
    before = _snapshot(sysm)
    kinds, classes = dict(report.kinds), dict(report.condensation.class_of)
    canonicalized(sysm)
    assert validate_isystem(sysm).ok
    res = realize(sysm)
    assert roundtrip_check(sysm, res.graph).status == "Verified"
    rng = random.Random(name)
    for _ in range(10):
        x, y = random_element(rng, g, 4), random_element(rng, g, 4)
        nf_add(g, monoid_nf(g, x), monoid_nf(g, y))
        antisym_nf(g, x)
        eq_exact(g, x, y)
        le_semidecide(g, x, y, depth=3, node_budget=500)
    assert _snapshot(sysm) == before
    assert report.kinds == kinds and report.condensation.class_of == classes
    # an unpickled graph is a new object and builds its own analysis
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert check_adaptable(copy) is not report
    assert check_adaptable(copy).kinds == report.kinds
    assert extract_isystem(copy) is not sysm
    assert _snapshot(extract_isystem(copy)) == before


# the search sweeps its frontiers unsorted on the kernel's ints and
# recomputes the discoverers on the returned path by key; against the
# search that sorted every layer of packed tuples


class _SortedSide:
    """_Side as a search on packed tuples that sweeps every frontier in key
    order and records the first discoverer of each node."""

    def __init__(self, cg, root):
        self.cg = cg
        self.parent = {root: None}
        self.frontier = [root]

    def expand(self, limit):
        new = []
        for e in sorted(self.frontier, key=lambda t: packed.sort_key(self.cg, t)):
            for step, r in packed.steps(self.cg, e):
                if r not in self.parent:
                    self.parent[r] = (e, step)
                    new.append(r)
                    if len(new) == limit:
                        self.frontier = new
                        return new
        self.frontier = new
        return new

    def trace_to(self, elem):
        steps = []
        while self.parent[elem] is not None:
            elem, step = self.parent[elem]
            steps.append(step)
        return tuple(reversed(steps))


def _sorted_two_sided(cg, root_x, root_y, depth, node_budget, meet):
    sx, sy = _SortedSide(cg, root_x), _SortedSide(cg, root_y)
    explored = 2
    for _ in range(depth):
        progressed = False
        for side, other, from_x in ((sx, sy, True), (sy, sx, False)):
            added = side.expand(max(1, node_budget + 1 - explored))
            explored += len(added)
            progressed = progressed or bool(added)
            pair = meet(added, from_x, other.parent)
            if pair:
                ex, ey = pair
                return "met", explored, ((ex, sx.trace_to(ex)), (ey, sy.trace_to(ey)))
            if explored > node_budget:
                return "exhausted", explored, None
        if not progressed:
            break
    return "unknown", explored, None


def _common_meet(cg, decode=_identity):
    """confluence_search's meet: the least common node by sort_key."""
    def meet(added, from_x, other):
        common = [e for e in added if e in other]
        return (min(common, key=lambda e: packed.sort_key(cg, decode(e))),) * 2 if common else None
    return meet


def _check_two_sided(cg, tx, ty, depth, budget):
    """_two_sided on the kernel's ints against _sorted_two_sided on packed
    tuples, with both meets: status, explored, and the decoded hit nodes
    and their traces agree.  Returns the reference's statuses."""
    kern = cg.kernel(depth, sum(tx), sum(ty))
    decode = _decoder(cg, kern)
    statuses = []
    for make in (_common_meet, _full_scan_meet):
        want = _sorted_two_sided(cg, tx, ty, depth, budget, make(cg))
        status, explored, hit = rewrite_mod._two_sided(
            kern, kern.encode(unpack(cg, tx).counts), kern.encode(unpack(cg, ty).counts),
            depth, budget, make(cg, decode), kern.sort_key)
        if hit:
            hit = tuple((decode(e), trace) for e, trace in hit)
        assert (status, explored, hit) == want
        statuses.append(want[0])
    return statuses


def test_two_sided_matches_the_sorted_sweep(monkeypatch):
    expands, sweeps = [], []
    real_expand, real_sweep = rewrite_mod._Side.expand, rewrite_mod._Side._sweep

    def expand(self, limit):
        before = len(sweeps)
        out = real_expand(self, limit)
        expands.append(len(sweeps) - before)
        return out

    def sweep(self, frontier, limit, d):
        sweeps.append(limit)
        return real_sweep(self, frontier, limit, d)

    monkeypatch.setattr(rewrite_mod._Side, "expand", expand)
    monkeypatch.setattr(rewrite_mod._Side, "_sweep", sweep)
    rng = random.Random(41)
    met = 0
    for n in range(1000):
        _, g = CORPUS[n % len(CORPUS)]
        cg = g.derived(rewrite_mod._CompiledGraph)
        s = random_element(rng, g, 4)
        x = random_walk(rng, g, s, rng.randint(0, 4))
        if n % 5 == 4:
            y = random_element(rng, g, 4)
        else:
            y = random_walk(rng, g, s, rng.randint(0, 4))
        depth = 1 + n % 10
        for budget in (20, 200, 20000):
            statuses = _check_two_sided(cg, pack(cg, x), pack(cg, y), depth, budget)
            met += statuses.count("met")
    assert met > 4000
    # layers the budget cut, swept again in key order
    assert expands.count(2) >= 50 and set(expands) == {1, 2}


def _growth(cg):
    return max((c for mine in cg.moves for _, delta in mine for c in delta), default=0)


def test_kernel_fields_hold_every_count_of_the_search():
    rng = random.Random(47)
    checked = 0
    for n in range(200):
        _, g = CORPUS[n % len(CORPUS)]
        cg = g.derived(rewrite_mod._CompiledGraph)
        roots = [pack(cg, random_element(rng, g, 6, nonzero=False)) for _ in range(2)]
        depth = rng.randint(0, 12)
        kern = cg.kernel(depth, *map(sum, roots))
        assert cg.kernel(depth, *map(sum, roots)) is kern
        # the largest count a search of depth layers can reach, and the
        # largest that the field holds below its guard bit
        reach = max(map(sum, roots)) + depth * _growth(cg)
        top = (1 << kern.width - 1) - 1
        assert reach <= top
        ts = []
        for _ in range(12):
            t = [rng.choice((0, 0, 1, rng.randint(0, reach), reach, top))
                 for _ in cg.vertices]
            ts.append(tuple(t))
        ts.append(tuple(map(min, ts[0], ts[1])))
        ts.append((0,) * len(cg.vertices))
        es = [kern.encode(unpack(cg, t).counts) for t in ts]
        for t, e in zip(ts, es):
            assert kern.decode(e) == unpack(cg, t) and pack(cg, kern.decode(e)) == t
            assert kern.sort_key(e) == packed.sort_key(cg, t)
            checked += 1
        for t, e in zip(ts, es):
            for u, f in zip(ts, es):
                assert kern.ge(e, f) == all(map(ge, t, u))
    assert checked >= 2000


WIDE = """\
vertex u
vertex v
vertex w
vertex a
edge l u u
edge e u w * 40
edge f u v * 2
edge g u a
edge h v w * 3
edge k v a
edge m w a
edge n w a
block l e
block f g
block h
block k
block m
block n
"""


def test_search_on_wide_counts_matches_the_sorted_sweep():
    # u's first block adds 40 copies of w and keeps u: at depth 12 a count
    # of w reaches 480, above half of the bound that sizes the fields
    g = parse_graph(WIDE)
    cg = g.derived(rewrite_mod._CompiledGraph)
    pairs = [("u", "u+40*w"), ("u", "2*v+a"), ("2*u", "u+v+w"), ("u+v", "u+3*w+a"),
             ("u", "u+400*w"), ("u+w", "u+a+200*w"), ("u", "v+a+3*w")]
    seen = set()
    for xs, ys in pairs:
        tx, ty = pack(cg, fe(g, xs)), pack(cg, fe(g, ys))
        for budget in (30, 400, 20000):
            seen.update(_check_two_sided(cg, tx, ty, 12, budget))
            seen.update(_check_two_sided(cg, ty, tx, 12, budget))
    assert seen == {"met", "exhausted", "unknown"}


def test_trace_reads_discoverers_of_the_layer_before_only():
    # r -> z -> t and r -> s -> b -> t: t and b share layer 2, and b < z
    # by key, but only z, from layer 1, discovers t
    g = graph_mod.SepGraph(["r", "z", "s", "b", "t"],
                           [("rz", "r", "z"), ("rs", "r", "s"), ("sb", "s", "b"),
                            ("zt", "z", "t"), ("bt", "b", "t")])
    res = confluence_search(g, fe(g, "r"), fe(g, "t"), depth=3)
    assert (res.status, res.explored) == ("equal", 6)
    assert res.trace_x == (("r", 1), ("z", 0)) and res.trace_y == ()
    cg = g.derived(rewrite_mod._CompiledGraph)
    assert _check_two_sided(cg, pack(cg, fe(g, "r")), pack(cg, fe(g, "t")), 3, 100) == ["met"] * 2


def test_confluence_search_keys_only_the_returned_path(monkeypatch):
    g = dict(CORPUS)["rand-8"]
    x, y = fe(g, "2*v1+v2+v3+3*v4+5*v6"), fe(g, "3*v1+v2+4*v3+v6")
    seen, swept = [], []
    real = rewrite_mod._Kernel.sort_key
    monkeypatch.setattr(rewrite_mod._Kernel, "sort_key",
                        lambda self, e: seen.append(e) or real(self, e))
    real_sweep = rewrite_mod._Side._sweep
    monkeypatch.setattr(rewrite_mod._Side, "_sweep", lambda self, frontier, limit, d:
                        swept.extend(frontier) or real_sweep(self, frontier, limit, d))
    res = confluence_search(g, x, y, depth=10, node_budget=20000)
    assert (res.status, res.explored) == ("equal", 86)
    assert serialize_element(res.gamma) == "4*v1+2*v2+4*v3+3*v4+5*v6"
    assert res.trace_x == (("v2", 0), ("v3", 0))
    assert res.trace_y == (("v6", 0), ("v6", 0), ("v4", 0))
    # sorting every frontier keyed each expanded node: 36 calls here
    assert len(seen) < len(swept) < res.explored


def test_free_element_sorts_on_first_read():
    x = FreeElement({"b": 2, "a": 1, "c": 3})
    y = FreeElement({"c": 3, "a": 1, "b": 2})
    assert x._items is None and list(x.counts) != list(y.counts)
    assert x == y and x._items is None
    assert x != FreeElement({"a": 1, "b": 2}) and x != FreeElement({"a": 1, "b": 2, "c": 4})
    assert hash(x) == hash(y)
    items = x.items()
    assert items == (("a", 1), ("b", 2), ("c", 3)) and x.items() is items
    assert hash(x) == hash(tuple(sorted(x.counts.items())))
    assert hash(x + y) == hash((("a", 2), ("b", 4), ("c", 6)))
    assert {x: 1}[y] == 1
    # str hashes differ between processes: an unpickled element hashes anew
    copy = pickle.loads(pickle.dumps(x))
    assert copy == x and copy._hash is None


def _stepwise_apply_trace(g, x, trace):
    for v, bi in trace:
        x = _reference_apply_step(g, x, v, bi)
    return x


def test_apply_trace_matches_the_stepwise_replay():
    rng = random.Random(43)
    errors = set()
    for n in range(800):
        _, g = CORPUS[n % len(CORPUS)]
        x = random_element(rng, g, 4, nonzero=False)
        _, trace = random_trace(rng, g, x, rng.randint(0, 6))
        if n % 2:
            # a step on an absent vertex, a missing block, or an unknown vertex
            v = rng.choice(sorted(g.vertices))
            bad = rng.choice([(v, len(g.blocks_of[v])), (v, 0), ("zz", 0)])
            k = rng.randrange(len(trace) + 1)
            trace = trace[:k] + (bad,) + trace[k:]
        before = dict(x.counts)
        want = _outcome(_stepwise_apply_trace, g, x, trace)
        got = _outcome(apply_trace, g, x, trace)
        assert got == want and x.counts == before
        if isinstance(got, FreeElement):
            assert got.items() == want.items()
        else:
            errors.add(want[1].split("'")[0])
        if len(trace) == 1:
            assert _outcome(apply_step, g, x, *trace[0]) == want
    assert errors == {"no occurrence of ", "vertex "}
    g = fixture_graph("g5")
    x = fe(g, "a + 2*b")
    assert apply_trace(g, x, ()) is x and apply_trace(g, x, []) is x


def test_eq_exact_identity_keeps_the_checks():
    g = parse_graph("vertex u\nvertex w\nedge e u w\nblock e\n")
    u = fe(g, "u")
    with pytest.raises(NotAdaptableError):
        eq_exact(g, u, u)
    g = fixture_graph("g5")
    bad = FreeElement({"a": 1, "zz": 2})
    with pytest.raises(RewriteError, match="unknown vertex 'zz'"):
        eq_exact(g, bad, bad)
    # the least unknown vertex, whatever order the dict holds them in
    for counts in ({"zz": 1, "a": 1, "yy": 1}, {"yy": 1, "a": 1, "zz": 1}):
        with pytest.raises(RewriteError, match="unknown vertex 'yy'"):
            eq_exact(g, FreeElement(counts), FreeElement(counts))
    x = fe(g, "a + a' + b")
    assert eq_exact(g, x, fe(g, "b + a' + a"))


# outside the search, the library reads FreeElement counts; against the
# packed-tuple routines it replaced (tests/packed_reference.py)


def test_counts_routines_match_the_packed_reference():
    rng = random.Random(53)
    checked = set()
    errors = set()
    for n in range(2500):
        name, g = CORPUS[n % len(CORPUS)]
        cg, cert = g.derived(rewrite_mod._CompiledGraph), g.derived(rewrite_mod._Certificates)
        x = random_element(rng, g, 5, nonzero=n % 9 != 0)
        if n % 3:
            y = random_walk(rng, g, x, rng.randint(0, 4))
        else:
            y = random_element(rng, g, 5, nonzero=False)
        tx, ty = pack(cg, x), pack(cg, y)
        assert cert.spread(x.counts) == packed.spread(cert, tx)
        assert cert.top_classes(y.counts) == packed.top_classes(cert, ty)
        assert cert.separating(x.counts, y.counts) == packed.separating(cert, tx, ty)
        if cert.adaptable:
            assert eq_exact(g, x, y) == packed.eq_exact(g, x, y)
        # a split where both parts often hold the rewritten vertex
        a, b = x, random_element(rng, g, 3, nonzero=False) + meet(x, y)
        _, trace = random_trace(rng, g, a + b, rng.randint(0, 6))
        if trace and n % 4 == 0:
            v = rng.choice(sorted(g.vertices))
            trace += ((v, len(g.blocks_of[v])),) if n % 8 else (("zz", 0),)
        want = _outcome(packed.split, cg, pack(cg, a), pack(cg, b), trace)
        before = dict(a.counts), dict(b.counts)
        got = _outcome(rewrite_mod._split, g, a.counts, b.counts, trace)
        assert (a.counts, b.counts) == before
        if want[0] == "RewriteError":
            assert got == want
            errors.add(want[1].split("'")[0])
        else:
            ga, gb, sa, sb = got
            assert (pack(cg, FreeElement._of(ga)), pack(cg, FreeElement._of(gb)), sa, sb) == want
            assert ga == apply_trace(g, a, sa).counts and gb == apply_trace(g, b, sb).counts
        checked.add(name)
    assert len(checked) == 25
    assert errors == {"trace step rewrites absent vertex ", "vertex "}


def _unknown_vertex_calls(g, x, y):
    """Every entry point that checks the vertices of x and then of y."""
    return {
        "confluence_equal": lambda: confluence_equal(g, x, y),
        "confluence_search": lambda: confluence_search(g, x, y),
        "eq_exact": lambda: eq_exact(g, x, y),
        "antisym_le": lambda: antisym_le(g, x, y),
        "le_semidecide": lambda: le_semidecide(g, x, y),
        "split_trace": lambda: split_trace(g, x, y, ()),
        "refinement_witness": lambda: refinement_witness(g, x, FreeElement(), y,
                                                         FreeElement()),
    }


def test_unknown_vertices_name_the_least_and_check_x_first():
    g = fixture_graph("g5")
    # dict order puts the least unknown vertex last
    x = FreeElement({"zz": 1, "a": 1, "yx": 2})
    y = FreeElement({"yy": 1, "b": 1, "ya": 1})
    good = fe(g, "a + b")
    # (x, y), (good, y), and (y, y), whose identity exits come after the checks
    for first, second, least in ((x, y, "yx"), (good, y, "ya"), (y, y, "ya")):
        for name, call in _unknown_vertex_calls(g, first, second).items():
            with pytest.raises(RewriteError, match=rf"^unknown vertex '{least}' in element$"):
                call()
    for fn in (monoid_nf, antisym_nf):
        with pytest.raises(RewriteError, match=r"^unknown vertex 'ya' in element$"):
            fn(g, y)


@pytest.mark.parametrize("fault", ["negative", "sum"])
def test_refinement_grid_rejects_parts_that_do_not_add_up(fault, monkeypatch):
    g = fixture_graph("g5")
    abcd = [fe(g, t) for t in ("2*a'+2*b", "9*b", "2*a'+7*b", "b")]
    w = refinement_witness(g, *abcd, depth=12)
    assert w.status == "ok"
    absent = next(v for v in sorted(g.vertices) if not w.gamma.get(v))
    real, splits = rewrite_mod._split, []

    def split(g, a, b, trace):
        out = list(real(g, a, b, trace))
        if splits and fault == "negative":
            # the second split moves one copy of a vertex gamma lacks from
            # d's part to c's: the sums still agree, but a corner is negative
            out[0], out[1] = {**out[0], absent: 1}, {**out[1], absent: -1}
        elif splits:
            # d's part gains a copy: the corners stay nonnegative, the sums differ
            out[1] = {**out[1], absent: 1}
        splits.append(trace)
        return tuple(out)

    monkeypatch.setattr(rewrite_mod, "_split", split)
    with pytest.raises(RewriteError, match="do not add up"):
        refinement_witness(g, *abcd, depth=12)
    assert len(splits) == 2
