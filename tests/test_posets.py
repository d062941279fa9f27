import random

import pytest

from sepmonoid.posets import Poset, PosetError


def test_closure_and_le():
    p = Poset("abcd", [("a", "b"), ("b", "c")])
    assert p.le("a", "c")
    assert p.le("a", "a")
    assert not p.le("c", "a")


def test_cycle_rejected():
    with pytest.raises(PosetError):
        Poset("ab", [("a", "b"), ("b", "a")])


def test_unknown_element_rejected():
    with pytest.raises(PosetError):
        Poset("ab", [("a", "z")])


def test_covers_skip_transitive_pairs():
    p = Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers() == [("a", "b"), ("b", "c")]
    assert p.lower_covers("c") == ["b"]


def test_covers_match_the_pairwise_definition():
    rng = random.Random(5)
    for _ in range(200):
        elems = [f"p{i}" for i in range(rng.randint(1, 8))]
        rel = [(a, b) for a in elems for b in elems if a < b and rng.random() < 0.3]
        p = Poset(elems, rel)
        want = [(a, b) for a in p.elements for b in p.elements if p.lt(a, b)
                and not any(p.lt(a, c) and p.lt(c, b) for c in p.elements)]
        assert p.covers() == want


def test_covers_are_built_once(monkeypatch):
    rng = random.Random(6)
    elems = [f"p{i}" for i in range(7)]
    p = Poset(elems, [(a, b) for a in elems for b in elems if a < b and rng.random() < 0.3])
    want = {q: sorted(a for a, b in p.covers() if b == q) for q in elems}
    first = p.covers()
    # later reads take the stored pairs: closure sets that fail now go unread
    monkeypatch.setattr(p, "_up", None)
    monkeypatch.setattr(p, "_down", None)
    assert {q: p.lower_covers(q) for q in elems} == want
    again = p.covers()
    assert again == first and again is not first
    again.append(("x", "y"))
    assert p.covers() == first


def test_up_down_sets():
    p = Poset(["bot", "x", "y", "top"],
              [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")])
    assert p.downset("top") == {"bot", "x", "y", "top"}
    assert p.strict_down("x") == {"bot"}
    assert p.upset("bot") == {"bot", "x", "y", "top"}
    assert p.upset("top") == {"top"}


def test_strict_downsets_are_built_once_on_both_paths():
    rng = random.Random(8)
    elems = [f"p{i}" for i in range(6)]
    p = Poset(elems, [(a, b) for a in elems for b in elems if a < b and rng.random() < 0.4])
    q = Poset._closed({x: p.downset(x) for x in reversed(elems)})
    for poset in (p, q):
        for x in elems:
            assert poset.strict_down(x) == p.downset(x) - {x}
            assert poset.strict_down(x) is poset.strict_down(x)
            assert poset.upset(x) == p.upset(x)
    assert q.elements == p.elements and q.covers() == p.covers()


def test_cycle_error_names_the_least_pair():
    with pytest.raises(PosetError, match="'p' and 'q' lie on a cycle"):
        Poset("spqr", [("s", "r"), ("r", "p"), ("p", "q"), ("q", "r")])


def test_linear_extension_is_deterministic_and_valid():
    p = Poset(["q", "p", "r"], [("q", "p"), ("q", "r")])
    ext = p.linear_extension()
    assert ext == ["q", "p", "r"]
    seen = set()
    for x in ext:
        assert p.strict_down(x) <= seen
        seen.add(x)


def test_isomorphisms_respect_colors():
    p = Poset("ab", [("a", "b")])
    q = Poset("xy", [("x", "y")])
    isos = list(p.isomorphisms(q))
    assert isos == [{"a": "x", "b": "y"}]
    # color mismatch kills the only candidate
    isos = list(p.isomorphisms(q, color=lambda v: "red",
                               other_color=lambda v: "blue"))
    assert isos == []


def test_isomorphisms_count_on_antichain():
    p = Poset("abc")
    q = Poset("xyz")
    assert len(list(p.isomorphisms(q))) == 6


def test_closure_and_cycle_pair_agree_with_networkx():
    # an independent oracle on arbitrary relations: cycles, self-pairs and
    # repeated pairs included
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    cyclic = 0
    for _ in range(400):
        elems = [f"p{i}" for i in range(rng.randint(1, 8))]
        rel = [(rng.choice(elems), rng.choice(elems)) for _ in range(rng.randint(0, 12))]
        rel += rng.sample(rel, min(len(rel), 2))
        d = nx.DiGraph()
        d.add_nodes_from(elems)
        d.add_edges_from(rel)
        comps = sorted(sorted(c) for c in nx.strongly_connected_components(d) if len(c) > 1)
        if comps:
            cyclic += 1
            a, b = comps[0][:2]
            with pytest.raises(PosetError, match=f"'{a}' and '{b}' lie on a cycle"):
                Poset(elems, rel)
            continue
        p = Poset(elems, rel)
        closure = nx.transitive_closure(d, reflexive=True)
        for x in elems:
            assert p.upset(x) == set(closure.successors(x)), (rel, x)
            assert p.downset(x) == set(closure.predecessors(x)), (rel, x)
    assert 50 < cyclic < 350
