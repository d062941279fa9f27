import hashlib
import importlib
import random
import re
from dataclasses import replace
from math import comb

import pytest

from sepmonoid.abelian import FGAbelianGroup, GroupHom, left_kernel, mat_mul
from sepmonoid.fixtures import (fixture_graph, fixture_system, graph_names,
                                system_names)
from sepmonoid.graph import check_adaptable, parse_graph, serialize_graph
from sepmonoid.isystem import (VERIFIED, canonicalized, extract_isystem,
                               parse_isystem, serialize_isystem, validate_isystem)
from sepmonoid.randgen import random_adaptable, relabel_system
from sepmonoid.realize import (ConstructionFailed, ConstructionInfeasible,
                               _completion_test, _hnf_insert, _kernel_rows, _row_hnf,
                               _small_kernel_rows, _witness,
                               _witness_theta, check_roundtrip_certificate, realize,
                               roundtrip_check)
from sepmonoid.rewrite import eq_exact, parse_element

# the module, which the package's `realize` function shadows as an attribute
realize_mod = importlib.import_module("sepmonoid.realize")


def test_s1_gives_the_minimal_shape():
    s = fixture_system("s1")
    res = realize(s)
    g = res.graph
    assert set(g.vertices) == {"p", "q"}
    assert g.is_sink("q")
    blocks = g.blocks_of["p"]
    assert len(blocks) == 1
    targets = sorted(g.edges[e][1] for e in blocks[0])
    assert targets == ["p", "q", "q"]   # one loop, two connectors
    assert check_adaptable(g).ok


def test_s1_reextraction_lands_on_z2_with_nonzero_unit():
    s = fixture_system("s1")
    res = realize(s)
    ext = extract_isystem(res.graph)
    assert ext.group["p"].canonical_name() == "Z/2"
    unit = ext.map_for("p", "q").unit
    assert not unit.is_zero()
    assert (unit + unit).is_zero()
    assert roundtrip_check(s, res.graph).status == "Verified"


def test_s1_monoid_behavior():
    s = fixture_system("s1")
    g = realize(s).graph
    # one firing of p's block gives p + 2q; q-credit is worth 2 per loop pass
    assert eq_exact(g, parse_element("p", g), parse_element("p + 2*q", g))
    assert not eq_exact(g, parse_element("p", g), parse_element("p + q", g))


def test_fixture_systems_roundtrip():
    for name in graph_names():
        s = extract_isystem(fixture_graph(name))
        res = realize(s)
        rep = roundtrip_check(s, res.graph)
        assert rep.status == "Verified", (name, rep.detail)


def test_single_regular_z2_is_a_torsion_gadget():
    s = parse_isystem("prime p reg\ngroup p : Z/2\n")
    g = realize(s).graph
    assert len(g.vertices) == 1
    v = g.vertices[0]
    assert len(g.blocks_of[v]) == 1
    assert len(g.blocks_of[v][0]) == 3   # three loops present d+1 = 3
    assert roundtrip_check(s, g).status == "Verified"


def test_single_regular_z_needs_two_vertices():
    s = parse_isystem("prime p reg\ngroup p : Z\n")
    g = realize(s).graph
    assert len(g.vertices) == 2
    assert roundtrip_check(s, g).status == "Verified"


def test_free_prime_with_two_minimal_covers():
    txt = ("prime p free\nprime q1 free\nprime q2 free\n"
           "cover q1 < p\ncover q2 < p\n"
           "group p : 0\ngroup q1 : 0\ngroup q2 : 0\n"
           "map p <- q1 : unit -> 0\nmap p <- q2 : unit -> 0\n")
    s = parse_isystem(txt)
    res = realize(s)
    g = res.graph
    # the whole ambient group dies, so every cover needs its own block
    assert len(g.blocks_of["p"]) == 2
    hit = {g.edges[e][1] for blk in g.blocks_of["p"] for e in blk}
    assert hit == {"p", "q1", "q2"}
    assert roundtrip_check(s, g).status == "Verified"


def test_free_prime_mixing_torsion_and_trivial_lowers():
    txt = ("prime p free\nprime q free\nprime r free\n"
           "cover q < p\ncover r < p\n"
           "group p : Z/2\ngroup q : 0\ngroup r : 0\n"
           "map p <- q : unit -> g1\nmap p <- r : unit -> 0\n")
    s = parse_isystem(txt)
    res = realize(s)
    assert roundtrip_check(s, res.graph).status == "Verified"


def test_rank_obstruction_is_infeasible():
    # two independent counting directions below, finite group above:
    # provably no graph can present it
    txt = ("prime p reg\nprime q1 free\nprime q2 free\n"
           "cover q1 < p\ncover q2 < p\n"
           "group p : Z/2\ngroup q1 : 0\ngroup q2 : 0\n"
           "map p <- q1 : unit -> 0\nmap p <- q2 : unit -> 0\n")
    s = parse_isystem(txt)
    with pytest.raises(ConstructionInfeasible):
        realize(s)


@pytest.mark.parametrize("kind", ["reg", "free"])
def test_incoherent_lower_evaluation_fails_at_its_prime(kind):
    # Z/2 below maps g1 to g1 in Z/3: twice the generator is 0 below but
    # not above, so no homomorphism exists
    s = parse_isystem(f"prime p1 reg\nprime p2 {kind}\ncover p1 < p2\n"
                      "group p1 : Z/2\ngroup p2 : Z/3\nmap p2 <- p1 : g1 -> g1\n")
    prime = "regular" if kind == "reg" else "free"
    with pytest.raises(ConstructionFailed, match=f"^{prime} prime p2: lower evaluation is "
                       "not a homomorphism, connecting data incoherent$"):
        realize(s, validate=False)


def test_rank_obstruction_names_the_lower_free_rank():
    s = parse_isystem("prime p1 reg\nprime p2 reg\ncover p1 < p2\n"
                      "group p1 : Z\ngroup p2 : Z/3\nmap p2 <- p1 : g1 -> g1\n")
    with pytest.raises(ConstructionInfeasible, match="^regular prime p2: the built lower "
                       "part has free rank 1, but the target group only has free rank 0"):
        realize(s, validate=False)


def test_generator_arriving_from_below():
    # regression: the target generator comes entirely from the lower
    # class, so the gadget vertex itself carries no new value
    txt = ("prime p1 reg\nprime p2 reg\nprime p3 free\n"
           "cover p1 < p2\ncover p2 < p3\n"
           "group p1 : Z/2\ngroup p2 : Z/2\ngroup p3 : 0\n"
           "map p2 <- p1 : g1 -> g1\n"
           "map p3 <- p1 : g1 -> 0\nmap p3 <- p2 : g1 -> 0\n")
    s = parse_isystem(txt)
    res = realize(s)
    assert roundtrip_check(s, res.graph).status == "Verified"


def test_realize_rejects_invalid_system():
    txt = ("prime p free\nprime q free\ncover q < p\n"
           "group p : Z/2\ngroup q : 0\nmap p <- q : unit -> 0\n")
    s = parse_isystem(txt)
    assert validate_isystem(s).status == "CounterexampleFound"
    with pytest.raises(ValueError):
        realize(s)


def test_roundtrip_rejects_mismatched_pair():
    s = fixture_system("s1")
    g1 = fixture_graph("g1")
    rep = roundtrip_check(s, g1)
    assert rep.status == "FailedAt" and rep.theta is None


def test_roundtrip_rejects_wrong_group():
    s = parse_isystem("prime p reg\ngroup p : Z/3\n")
    g2 = fixture_graph("g2")    # extracts to Z/2
    rep = roundtrip_check(s, g2)
    assert rep.status == "FailedAt"


# a Z prime over a trivial free prime, with the unit image left open
UNIT_SYSTEM = """\
prime p1 free
prime p2 reg
prime p3 reg
cover p1 < p2
group p1 : 0
group p2 : Z
group p3 : 0
map p2 <- p1 : unit -> {}
"""


def test_roundtrip_certifies_a_doubled_free_unit(monkeypatch):
    s = parse_isystem(UNIT_SYSTEM.format("-g1"))
    g = realize(s).graph
    assert roundtrip_check(s, g).status == "Verified"
    # the extracted unit has free content 1; an isomorphism keeps the gcd
    # of the free coordinates, so no theta sends it to a multiple of 2 or 3
    for unit in ("2*g1", "-2*g1", "3*g1"):
        rep = roundtrip_check(parse_isystem(UNIT_SYSTEM.format(unit)), g)
        assert (rep.status, rep.detail) == (
            "FailedAt", "no compatible family of group isomorphisms"), unit
    # an empty box lists no free image at all
    monkeypatch.setattr(realize_mod, "ROUNDTRIP_BOX", 0)
    for unit in ("2*g1", "-2*g1", "3*g1"):
        assert roundtrip_check(parse_isystem(UNIT_SYSTEM.format(unit)), g).status == "FailedAt"
    # with the contents equal, an empty box is still only a bound for the
    # search, which runs on a copy that carries no witness
    assert roundtrip_check(s, _reparsed(g)).status == "InconclusiveWithinBound"


def _reparsed(g):
    """A copy of g that realize did not build, so it carries no witness."""
    return parse_graph(serialize_graph(g))


def _roundtrip_both_routes(s, g):
    """The round trips that miss their route, as (wanted by, status, by):
    g should be Verified by its witness, a reparsed copy by the search."""
    bad = []
    for graph, by in ((g, "witness"), (_reparsed(g), "search")):
        rep = roundtrip_check(s, graph)
        if (rep.status, rep.by) != ("Verified", by):
            bad.append((by, rep.status, rep.by))
    return bad


def test_realize_is_deterministic():
    s = extract_isystem(fixture_graph("g5"))
    g_a = realize(s).graph
    g_b = realize(s).graph
    assert serialize_graph(g_a) == serialize_graph(g_b)


def test_realize_reports_steps():
    s = extract_isystem(fixture_graph("g4"))
    res = realize(s)
    assert res.log
    assert any("regular" in line for line in res.log)
    assert set(res.class_map) == {"b", "w"}


# Systems extracted from random witness graphs whose regular primes need
# connector rows beyond the core-plus-pinning shape: seed 1 #24 needs the
# row 3*w + 2*u of total 5.  Named by generator seed and position in the
# stress corpus below.
HARD_SYSTEMS = {
    "seed1-24": """\
prime p1 reg
prime p2 free
prime p3 reg
prime p4 reg
prime p5 reg
cover p1 < p2
cover p1 < p5
cover p2 < p4
group p1 : Z/3
group p2 : 0
group p3 : Z/2
group p4 : Z + Z/2
group p5 : Z/9
map p2 <- p1 : g1 -> 0
map p4 <- p1 : g1 -> 0
map p4 <- p2 : unit -> -2*g1 + g2
map p5 <- p1 : g1 -> 3*g1
""",
    "seed1-98": """\
prime p1 reg
prime p2 reg
prime p3 reg
prime p4 reg
cover p1 < p2
cover p1 < p3
cover p2 < p4
group p1 : Z/3
group p2 : Z/3
group p3 : Z/12
group p4 : Z
map p2 <- p1 : g1 -> 2*g1
map p3 <- p1 : g1 -> 8*g1
map p4 <- p1 : g1 -> 0
map p4 <- p2 : g1 -> 0
""",
    "seed1-227": """\
prime p1 reg
prime p2 reg
prime p3 reg
prime p4 reg
prime p5 free
cover p1 < p3
cover p2 < p3
cover p2 < p5
cover p3 < p4
group p1 : Z/4
group p2 : 0
group p3 : Z/12
group p4 : Z/48
group p5 : 0
map p3 <- p1 : g1 -> 9*g1
map p4 <- p1 : g1 -> 12*g1
map p4 <- p3 : g1 -> 44*g1
""",
    "seed2-181": """\
prime p1 reg
prime p2 reg
prime p3 reg
prime p4 reg
prime p5 reg
prime p6 free
cover p1 < p2
cover p2 < p3
cover p3 < p6
group p1 : Z/3
group p2 : Z/3
group p3 : Z/9
group p4 : 0
group p5 : 0
group p6 : 0
map p2 <- p1 : g1 -> g1
map p3 <- p1 : g1 -> 3*g1
map p3 <- p2 : g1 -> 3*g1
map p6 <- p1 : g1 -> 0
map p6 <- p2 : g1 -> 0
map p6 <- p3 : g1 -> 0
""",
    "seed3-191": """\
prime p1 free
prime p2 reg
prime p3 free
prime p4 reg
prime p5 free
cover p1 < p3
cover p2 < p4
cover p3 < p5
cover p4 < p5
group p1 : 0
group p2 : Z/4
group p3 : Z/2
group p4 : Z/12
group p5 : Z/2 + Z/2
map p3 <- p1 : unit -> g1
map p4 <- p2 : g1 -> 3*g1
map p5 <- p1 : unit -> g2
map p5 <- p2 : g1 -> g1
map p5 <- p3 : unit -> 0 ; g1 -> g2
map p5 <- p4 : g1 -> g1
""",
    "seed3-237": """\
prime p1 reg
prime p2 free
prime p3 reg
prime p4 reg
prime p5 reg
prime p6 reg
cover p1 < p2
cover p1 < p3
cover p3 < p5
cover p3 < p6
group p1 : Z/4
group p2 : 0
group p3 : Z/4
group p4 : 0
group p5 : Z/2 + Z/4
group p6 : Z/16
map p2 <- p1 : g1 -> 0
map p3 <- p1 : g1 -> 3*g1
map p5 <- p1 : g1 -> g1 + g2
map p5 <- p3 : g1 -> g1 + 3*g2
map p6 <- p1 : g1 -> 4*g1
map p6 <- p3 : g1 -> 12*g1
""",
}


@pytest.mark.parametrize("name", sorted(HARD_SYSTEMS))
def test_hard_systems_realize_and_verify(name):
    s = parse_isystem(HARD_SYSTEMS[name])
    res = realize(s)
    assert roundtrip_check(s, res.graph).status == "Verified"


def test_free_blocks_impose_only_the_kernel_rows():
    # The four hard systems with a free prime above another prime.  A free
    # block that repeated a lower block's relation would show here as an
    # extra block and its edges.
    want = {"seed1-24": (["free p2: vertex p2, 1 block(s)"], 36),
            "seed2-181": (["free p6: vertex p6, 3 block(s)"], 24),
            "seed3-191": (["free p3: vertex p3, 1 block(s)",
                           "free p5: vertex p5, 4 block(s)"], 26),
            "seed3-237": (["free p2: vertex p2, 1 block(s)"], 35)}
    for name, (free_lines, edges) in want.items():
        s = parse_isystem(HARD_SYSTEMS[name])
        res = realize(s)
        assert [ln for ln in res.log if ln.startswith("free")] == free_lines, name
        assert len(res.graph.edges) == edges, name
        assert not _roundtrip_both_routes(s, res.graph), name


def _stress_corpus(seed, count=300, max_classes=6, free_rank=2):
    """The first `count` distinct systems extracted from random adaptable
    graphs with at most max_classes classes and free rank <= free_rank,
    with no group-type filter.  Each has its source graph as a witness."""
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        sysm = extract_isystem(random_adaptable(rng, max_classes))
        primes = list(sysm.poset)
        if len(primes) > max_classes or any(sysm.group[p].free_rank > free_rank
                                            for p in primes):
            continue
        canon = relabel_system(canonicalized(sysm))
        key = serialize_isystem(canon)
        if key not in seen:
            seen.add(key)
            out.append(canon)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_realize_stress_corpus(seed):
    # every system realizes and round-trips
    bad = []
    for i, s in enumerate(_stress_corpus(seed)):
        try:
            g = realize(s).graph
        except (ConstructionFailed, ConstructionInfeasible) as exc:
            bad.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        bad.extend((i, b) for b in _roundtrip_both_routes(s, g))
    assert not bad


def test_free_rank_two_stress_systems_roundtrip():
    # positions of systems with a Z^2 prime
    corpus = _stress_corpus(1)
    for i in (1, 25, 30, 43, 54):
        s = corpus[i]
        assert max(s.group[p].free_rank for p in s.poset) == 2
        assert not _roundtrip_both_routes(s, realize(s).graph), i


def test_verified_roundtrip_carries_a_replayable_certificate():
    systems = [fixture_system(n) for n in system_names()]
    systems += [extract_isystem(fixture_graph(n)) for n in graph_names()]
    systems += [parse_isystem(HARD_SYSTEMS[n]) for n in sorted(HARD_SYSTEMS)]
    for s in systems:
        g = realize(s).graph
        for graph, by in ((g, "witness"), (_reparsed(g), "search")):
            rep = roundtrip_check(s, graph)
            assert (rep.status, rep.by) == ("Verified", by)
            assert check_roundtrip_certificate(s, graph, rep.poset_map, rep.theta) is None
    # a copy that doubles theta on a Z prime fails the replay
    s = fixture_system("s2")
    g = realize(s).graph
    rep = roundtrip_check(s, g)
    p = next(p for p in s.poset if s.group[p].canonical_name() == "Z")
    f = rep.theta[p]
    doubled = GroupHom(f.domain, f.codomain, [[2 * x for x in row] for row in f.matrix])
    bad = replace(rep, theta={**rep.theta, p: doubled})
    assert check_roundtrip_certificate(s, g, rep.poset_map, rep.theta) is None
    assert check_roundtrip_certificate(s, g, bad.poset_map, bad.theta) == (
        f"theta at {p} is no isomorphism onto its group")


def test_a_mutated_witness_falls_back_to_the_search():
    s = fixture_system("s2")
    g = realize(s).graph
    wit = g.derived(_witness)
    p = next(p for p in s.poset if s.group[p].canonical_name() == "Z")
    v = next(v for v in sorted(wit.images[p]) if not wit.images[p][v].is_zero())
    wit.images[p][v] = 2 * wit.images[p][v]
    theta = _witness_theta(s, extract_isystem(g), wit)
    assert check_roundtrip_certificate(s, g, wit.poset_map, theta) is not None
    rep = roundtrip_check(s, g)
    assert (rep.status, rep.by) == ("Verified", "search")
    assert check_roundtrip_certificate(s, g, rep.poset_map, rep.theta) is None


def test_a_witness_for_another_system_object_is_ignored():
    s = parse_isystem(UNIT_SYSTEM.format("-g1"))
    g = realize(s).graph
    assert g.derived(_witness).system is s
    assert roundtrip_check(parse_isystem(UNIT_SYSTEM.format("-g1")), g).by == "search"
    for unit in ("2*g1", "-2*g1", "3*g1"):
        rep = roundtrip_check(parse_isystem(UNIT_SYSTEM.format(unit)), g)
        assert (rep.status, rep.detail, rep.by) == (
            "FailedAt", "no compatible family of group isomorphisms", "search"), unit


# (Z/16)^4 as a free prime over four trivial free primes, one unit each
Z16_4_SYSTEM = "".join(
    ["prime p free\n"]
    + [f"prime q{i} free\ncover q{i} < p\ngroup q{i} : 0\n" for i in range(1, 5)]
    + ["group p : Z/16 + Z/16 + Z/16 + Z/16\n"]
    + [f"map p <- q{i} : unit -> g{i}\n" for i in range(1, 5)])


def test_large_finite_system_roundtrips_by_its_witness(monkeypatch):
    calls = []
    real = realize_mod.iter_isomorphisms

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(realize_mod, "iter_isomorphisms", counting)
    s = parse_isystem(Z16_4_SYSTEM)
    assert validate_isystem(s).status == VERIFIED
    g = realize(s).graph
    rep = roundtrip_check(s, g)
    assert (rep.status, rep.by) == ("Verified", "witness")
    assert check_roundtrip_certificate(s, g, rep.poset_map, rep.theta) is None
    assert calls == []


def test_realize_ignores_seed():
    # this system once needed a randomized fallback whose result hung on
    # a seed; the search has no seed, and three calls build one graph
    s = parse_isystem("prime p1 reg\nprime p2 free\nprime p3 free\nprime p4 reg\n"
                      "prime p5 reg\ncover p1 < p5\ncover p2 < p3\ncover p4 < p5\n"
                      "group p1 : Z/3\ngroup p2 : 0\ngroup p3 : 0\ngroup p4 : Z\n"
                      "group p5 : Z + Z/3\nmap p3 <- p2 : unit -> 0\n"
                      "map p5 <- p1 : g1 -> 2*g2\nmap p5 <- p4 : g1 -> -4*g1 + g2\n")
    results = [realize(s) for _ in range(3)]
    assert len({serialize_graph(r.graph) for r in results}) == 1
    assert roundtrip_check(s, results[0].graph).status == "Verified"
    regular = [line for line in results[0].log if line.startswith("regular")]
    assert len(regular) == 3
    assert all(re.search(r"attempt \d+$", line) for line in regular)


def test_row_hnf_agrees_with_sympy():
    # an independent oracle: sympy puts the column span of a matrix in
    # Hermite form with pivots from the last row up, so reversing the
    # coordinates and transposing gives _row_hnf's row convention
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form
    rng = random.Random(2)
    for _ in range(200):
        rows, mid, cols = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 5)
        a = mat_mul([[rng.randint(-4, 4) for _ in range(mid)] for _ in range(rows)],
                    [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(mid)])
        h = hermite_normal_form(sympy.Matrix([r[::-1] for r in a]).T).T
        theirs = [tuple(int(x) for x in h.row(i))[::-1] for i in range(h.rows)]
        assert _row_hnf(a) == tuple(r for r in reversed(theirs) if any(r)), a


def _eliminated_hnf(rows):
    """An HNF by repeated elimination of whole columns, the routine that
    realize used before its one-row insertion, kept as the reference."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    pr = 0
    for col in range(ncols):
        if pr >= len(mat):
            break
        while True:
            nz = [j for j in range(pr, len(mat)) if mat[j][col]]
            if not nz:
                break
            j = min(nz, key=lambda k: abs(mat[k][col]))
            if j != pr:
                mat[pr], mat[j] = mat[j], mat[pr]
            if mat[pr][col] < 0:
                mat[pr] = [-x for x in mat[pr]]
            done = True
            for k in range(pr + 1, len(mat)):
                if mat[k][col]:
                    q = mat[k][col] // mat[pr][col]
                    mat[k] = [x - q * y for x, y in zip(mat[k], mat[pr])]
                    if mat[k][col]:
                        done = False
            if done:
                break
        if pr < len(mat) and mat[pr][col]:
            for j in range(pr):
                q = mat[j][col] // mat[pr][col]
                if q:
                    mat[j] = [x - q * y for x, y in zip(mat[j], mat[pr])]
            pr += 1
    return tuple(tuple(r) for r in mat[:pr] if any(r))


def test_hnf_insert_matches_elimination():
    rng = random.Random(16)
    for _ in range(20000):
        width = rng.randint(1, 8)
        span = _eliminated_hnf([[rng.randint(-4, 4) for _ in range(width)]
                                for _ in range(rng.randint(0, 5))])
        row = tuple(rng.randint(-4, 4) for _ in range(width))
        assert _hnf_insert(span, row) == _eliminated_hnf(list(span) + [row]), (span, row)
    for _ in range(500):
        width = rng.randint(1, 8)
        rows = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rng.randint(0, 9))]
        assert _row_hnf(rows) == _eliminated_hnf(rows), rows


def _sorted_small_kernel_rows(coords, mods, nW, limit=500):
    """Every small kernel row at once, sorted: the list realize built before
    it read the rows lazily."""
    n = len(coords)
    cap = 4 if n <= 10 else 3
    while comb(n + cap + 1, n) < limit:
        cap += 1
    out, row = [], [0] * n

    def walk(i, left, acc):
        if i == n:
            if any(row[:nW]) and all(a % m == 0 if m else a == 0 for a, m in zip(acc, mods)):
                out.append(tuple(row))
            return
        for c in range(left + 1):
            row[i] = c
            walk(i + 1, left - c, [a + c * x for a, x in zip(acc, coords[i])])
        row[i] = 0

    walk(0, cap, [0] * len(mods))
    return sorted(out, key=lambda r: (sum(r), r))


def test_lazy_small_kernel_rows_match_the_sorted_list():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 12)
        mods = [rng.choice([0, 0, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
        coords = [[rng.randint(-3, 3) for _ in mods] for _ in range(n)]
        nW = rng.randint(1, n)
        want = _sorted_small_kernel_rows(coords, mods, nW)
        assert list(_small_kernel_rows(coords, mods, nW)) == want, (coords, mods, nW)


def _kernel_hnf(coords, mods):
    """HNF of the lattice of integer rows r with sum(r[i] * coords[i]) == 0,
    coordinate k taken modulo mods[k] (0 for a free coordinate): the same
    lattice stated over canonical coordinates instead of a presentation."""
    killers = [[m if j == k else 0 for j in range(len(mods))] for k, m in enumerate(mods) if m]
    return _row_hnf([r[:len(coords)] for r in left_kernel(coords + killers)])


def _scrambled_group(rng, free_rank, factors):
    """Z^free_rank plus the given torsion, presented on mixed generators:
    the diagonal relations times a random unimodular change of basis, plus
    a redundant combination of them half the time."""
    n = free_rank + len(factors)
    rels = [[d if j == free_rank + k else 0 for j in range(n)] for k, d in enumerate(factors)]
    for _ in range(2 * n):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2])
            for r in rels:
                r[j] += c * r[i]
    if rels and rng.random() < 0.5:
        rels.append([sum(rng.randint(-2, 2) * r[j] for r in rels) for j in range(n)])
    return FGAbelianGroup(n, rels)


def test_kernel_rows_span_the_canonical_coordinate_lattice():
    rng = random.Random(21)
    shapes = {"trivial": 0, "torsion": 0, "Z^2 + torsion": 0, "zero values": 0}
    for _ in range(600):
        shape = rng.choice(sorted(shapes))
        if shape == "trivial":
            G = rng.choice([FGAbelianGroup(0), FGAbelianGroup(2, [[1, 1], [0, 1]]),
                            _scrambled_group(rng, 0, [1, 1])])
        elif shape == "torsion":
            G = _scrambled_group(rng, 0, rng.choice([[2], [3], [2, 4], [3, 6], [2, 2, 4]]))
        else:
            G = _scrambled_group(rng, 2, rng.choice([[], [2], [4], [2, 6]]))
        n = rng.randint(1, 6)
        values = [G.element([0 if shape == "zero values" else rng.randint(-4, 4)
                             for _ in range(G.ngens)]) for _ in range(n)]
        shapes[shape] += 1
        rows = _kernel_rows(values, G)
        for r in rows:
            assert len(r) == n and any(r)
            total = G.zero()
            for c, v in zip(r, values):
                total = total + c * v
            assert total.is_zero()
        coords = [list(v.canonical()[0]) + list(v.canonical()[1]) for v in values]
        mods = [0] * G.free_rank + list(G.invariant_factors)
        assert _row_hnf(rows) == _kernel_hnf(coords, mods), (values, G.relations)
    assert min(shapes.values()) > 100


# The slowest system of the realize-roundtrip corpus: p4's search makes 417
# visits.  At a node with one row left, the first two candidates are added
# to the span; once both fail, the node's completion test decides the
# others in target / span, each still one visit.
DEEP_SYSTEM = """\
prime p1 free
prime p2 reg
prime p3 reg
prime p4 reg
prime p5 free
cover p2 < p3
cover p2 < p5
cover p3 < p4
group p1 : 0
group p2 : Z
group p3 : Z + Z/3
group p4 : Z + Z/3
group p5 : Z
map p3 <- p2 : g1 -> g1
map p4 <- p2 : g1 -> g1
map p4 <- p3 : g1 -> g1 ; g2 -> g2
map p5 <- p2 : g1 -> g1
"""


def test_deep_system_golden_realization():
    s = parse_isystem(DEEP_SYSTEM)
    res = realize(s)
    assert res.log == ["regular p2: vertices p2.1, p2.2, attempt 3",
                       "regular p3: vertices p3.1, p3.2, p3.3, attempt 5",
                       "regular p4: vertices p4.1, p4.2, p4.3, attempt 417",
                       "free p5: vertex p5, 1 block(s)"]
    text = serialize_graph(res.graph)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ec2e16b191851e206ec341e98062847c8a4c7946ac040c59aa8c1fe02852bfdc"
    assert roundtrip_check(s, res.graph).status == "Verified"


def test_search_stops_at_exactly_100_times_budget_visits():
    # positions 141 and 677 of the systems extracted from successive
    # random_adaptable(rng, 6) graphs; each level once kept walking its
    # candidates past the bound, to 319 and 652 visits at budget=1
    rng = random.Random(99)
    systems = [extract_isystem(random_adaptable(rng, 6)) for _ in range(678)]
    for i, prime in ((141, "v7"), (677, "v8")):
        with pytest.raises(ConstructionFailed) as exc:
            realize(systems[i], budget=1)
        assert str(exc.value) == (f"regular prime {prime}: no row set matched "
                                  f"the kernel lattice after 100 visits"), i
    # 141 needs 129 visits, so a 200-visit bound finds what it found before
    log = realize(systems[141], budget=2).log
    assert log[-1] == "regular v7: vertices v7.1, v7.2, v7.3, v7.4, v7.5, attempt 129"
    with pytest.raises(ConstructionFailed, match="after 200 visits$"):
        realize(systems[677], budget=2)


def test_budget_below_one_is_rejected():
    s = fixture_system("s1")
    for budget in (0, -1):
        with pytest.raises(ValueError) as exc:
            realize(s, budget=budget)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"realize: budget must be at least 1, got {budget}"


def test_stress_corpus_realizations_are_pinned():
    # SHA-256 of every realized graph and its log, or the exception text,
    # over the 900 stress systems: any change of bytes or visit counts
    # shows here
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        for s in _stress_corpus(seed):
            try:
                res = realize(s)
                text = serialize_graph(res.graph) + "\n".join(res.log) + "\n"
            except (ConstructionFailed, ConstructionInfeasible) as exc:
                text = f"{type(exc).__name__}: {exc}\n"
            h.update(text.encode())
    assert h.hexdigest() == "84f4b6cc6a4940f145d4c3868e6a599a25917a9a4b794133b6155277a59ef93b"


_TORSION_CHAINS = [[], [2], [3], [4], [2, 2], [2, 4], [3, 6]]


def _free_over_trivial(position):
    """Text of the system at `position` of a seeded family: one free prime
    over k trivial free primes, G_p = Z^r (r from 1, 1, 2) plus a torsion
    chain, and k = r + 1 .. r + 3 units with coefficients in [-3, 3]."""
    rng = random.Random(7)
    for _ in range(position + 1):
        r = rng.choice([1, 1, 2])
        chain = rng.choice(_TORSION_CHAINS)
        k = rng.randint(r + 1, r + 3)
        units = [[rng.randint(-3, 3) for _ in range(r + len(chain))] for _ in range(k)]
    group = " + ".join(["Z" if r == 1 else f"Z^{r}"] + [f"Z/{d}" for d in chain])
    lines = ["prime p free", f"group p : {group}"]
    for i, u in enumerate(units, 1):
        unit = " + ".join(f"{c}*g{j}" for j, c in enumerate(u, 1) if c) or "0"
        lines += [f"prime q{i} free", f"cover q{i} < p", f"group q{i} : 0",
                  f"map p <- q{i} : unit -> {unit}"]
    return "\n".join(lines) + "\n"


def _preimage_totals(monkeypatch):
    """The totals of the preimages realize finds from now on."""
    totals = []
    real = realize_mod._nonneg_preimage

    def spy(group, target, gens):
        found = real(group, target, gens)
        if found is not None:
            totals.append(sum(found.values()))
        return found

    monkeypatch.setattr(realize_mod, "_nonneg_preimage", spy)
    return totals


def test_a_preimage_of_total_twelve_realizes(monkeypatch):
    # position 65: G_p = Z + Z/3 + Z/6 over three units; one kernel
    # generator needs a preimage of 12 units, and the walk that finds it
    # sees more than 300 elements
    s = parse_isystem(_free_over_trivial(65))
    assert s.group["p"].canonical_name() == "Z + Z/3 + Z/6"
    assert validate_isystem(s).status == VERIFIED
    totals = _preimage_totals(monkeypatch)
    res = realize(s)
    assert max(totals) == 12
    assert not _roundtrip_both_routes(s, res.graph)
    # the bounds it needs: a total of 12, and more than 300 states
    monkeypatch.setattr(realize_mod, "_PREIMAGE_MAX_TOTAL", 11)
    with pytest.raises(ConstructionFailed, match="^free prime p: no nonnegative preimage"):
        realize(s)
    monkeypatch.undo()
    monkeypatch.setattr(realize_mod, "_PREIMAGE_STATE_CAP", 300)
    with pytest.raises(ConstructionFailed, match="^free prime p: no nonnegative preimage"):
        realize(s)


def test_the_search_route_needs_a_box_of_four(monkeypatch):
    # position 642: G_p = Z^2 over three units; on a reparsed copy of its
    # graph, the search lists free images up to coordinate 4 before one
    # commutes with the units
    s = parse_isystem(_free_over_trivial(642))
    assert s.group["p"].canonical_name() == "Z^2"
    g = _reparsed(realize(s).graph)
    rep = roundtrip_check(s, g)
    assert (rep.status, rep.by) == ("Verified", "search")
    monkeypatch.setattr(realize_mod, "ROUNDTRIP_BOX", 3)
    assert roundtrip_check(s, g).status == "InconclusiveWithinBound"


def _lattice_pair(rng, shape):
    """(target, span, kind of Q): target a random lattice, span the rows of
    M times target's rows, so that Q = target / span = Z^k / rows of M."""
    n = rng.randint(2, 6)
    while True:
        target = _row_hnf([[rng.randint(-3, 3) for _ in range(n)]
                           for _ in range(rng.randint(1, n + 1))])
        if len(target) >= (2 if shape == "non-cyclic" else 1):
            break
    k = len(target)
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    if shape == "trivial":
        m = eye
    elif shape == "Z":
        m = eye[1:]
    elif shape == "cyclic":
        m = eye[1:] + [[rng.choice([2, 3, 4, 6]) if j == 0 else 0 for j in range(k)]]
    else:
        # Z^2, Z + Z/2 or Z/2 + Z/2
        m = eye[2:] + [[2 * eye[i][j] for j in range(k)] for i in range(rng.randint(0, 2))]
    # scramble M by unimodular row operations and a redundant row
    for _ in range(2 * k):
        if len(m) > 1:
            i, j = rng.sample(range(len(m)), 2)
            m[j] = [a + rng.choice([-1, 1]) * b for a, b in zip(m[j], m[i])]
    if m and rng.random() < 0.5:
        m = m + [[sum(rng.randint(-1, 1) * r[c] for r in m) for c in range(k)]]
    span = _row_hnf([[sum(c * t[j] for c, t in zip(r, target)) for j in range(n)] for r in m])
    q = FGAbelianGroup(k, m)
    gens = q.free_rank + len(q.invariant_factors)
    kind = ["trivial", "Z" if q.free_rank else "cyclic"][gens] if gens < 2 else "non-cyclic"
    return target, span, kind


def test_completion_test_agrees_with_insertion():
    rng = random.Random(25)
    seen = {}
    for _ in range(600):
        shape = rng.choice(["trivial", "Z", "cyclic", "non-cyclic"])
        target, span, kind = _lattice_pair(rng, shape)
        n = len(target[0])
        inside = FGAbelianGroup(n, [list(t) for t in target]).coordinate_columns()
        completes = _completion_test(target, span, inside)
        rows = list(target)
        rows += [tuple(sum(rng.randint(-2, 2) * t[j] for t in target) for j in range(n))
                 for _ in range(6)]
        rows += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]
        for row in rows:
            want = _hnf_insert(span, row) == target
            assert completes(row) == want, (target, span, row)
            inside_target = _hnf_insert(target, row) == target
            key = (kind, "in" if inside_target else "out", want)
            seen[key] = seen.get(key, 0) + 1
    # each quotient kind with rows of target that complete and that do not,
    # and rows outside target; none complete outside target or when Q is
    # not cyclic
    for q in ("trivial", "Z", "cyclic"):
        assert seen.get((q, "in", True), 0) > 20, seen
    for q in ("Z", "cyclic", "non-cyclic"):
        assert seen.get((q, "in", False), 0) > 20, seen
    for q in ("trivial", "Z", "cyclic", "non-cyclic"):
        assert seen.get((q, "out", False), 0) > 20, seen
    assert not any(want for (q, where, want) in seen if where == "out" or q == "non-cyclic")


def test_completion_test_is_built_only_after_two_failed_last_rows(monkeypatch):
    built = []
    real = realize_mod._completion_test

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(realize_mod, "_completion_test", counting)
    # every regular prime here takes its first candidate at each level:
    # the root and one visit per gadget vertex
    for text in ("prime p reg\ngroup p : Z/2\n", "prime p reg\ngroup p : Z\n",
                 "prime p reg\ngroup p : Z + Z/3\n"):
        res = realize(parse_isystem(text))
        nW = len(res.class_map["p"])
        assert res.log == [f"regular p: vertices {', '.join(res.class_map['p'])}, "
                           f"attempt {nW + 1}"]
    # p3 of the deep system's lower part: its last row's first candidate
    # fails and the second completes, still by insertion
    res = realize(parse_isystem("prime p2 reg\nprime p3 reg\ncover p2 < p3\ngroup p2 : Z\n"
                                "group p3 : Z + Z/3\nmap p3 <- p2 : g1 -> g1\n"))
    assert res.log[-1] == "regular p3: vertices p3.1, p3.2, p3.3, attempt 5"
    assert built == []
    # the deep system's p4 builds one at each last-level node whose first
    # two candidates fail, and the log is the golden one
    res = realize(parse_isystem(DEEP_SYSTEM))
    assert res.log[2] == "regular p4: vertices p4.1, p4.2, p4.3, attempt 417"
    assert len(built) > 1
