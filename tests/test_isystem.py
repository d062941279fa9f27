import ast
import hashlib
import random
import re
from collections import Counter

import pytest

import allpairs_reference
from sepmonoid import isystem
from sepmonoid.abelian import (FGAbelianGroup, GroupHom, identity, mat_mul,
                               vec_mat, zero_hom)
from sepmonoid.cli import main
from sepmonoid.fixtures import (fixture_graph, fixture_system, fixture_text, graph_names,
                                system_names)
from sepmonoid.graph import (check_adaptable, condensation, remove_edge,
                             restrict_lower)
from sepmonoid.isystem import (COUNTEREXAMPLE, VERIFIED, ConnectingMap,
                               ISystem, ISystemError, ISystemParseError,
                               canonicalized, extract_isystem, parse_group_name,
                               parse_group_presentation, parse_isystem,
                               serialize_isystem, validate_isystem)
from sepmonoid.posets import Poset
from sepmonoid.randgen import corpus_systems, random_adaptable
from sepmonoid.rewrite import grothendieck_of_restriction
from test_graph import MUTATIONS
from test_realize import _stress_corpus


def test_extract_groups_match_hand_calc():
    expected = {
        "g1": {"a": "0", "b": "0"},
        "g2": {"w": "Z/2"},
        "g3": {"u": "Z"},
        "g4": {"b": "0", "w": "Z"},
        "g5": {"a": "Z/2", "a'": "Z/3", "b": "0"},
    }
    for name in graph_names():
        sysm = extract_isystem(fixture_graph(name))
        got = {p: sysm.group[p].canonical_name() for p in sysm.poset}
        assert got == expected[name], name


def test_extract_g4_unit_is_negative_generator():
    sysm = extract_isystem(fixture_graph("g4"))
    cm = sysm.map_for("w", "b")
    gw = sysm.group["w"]
    # b's counting unit lands on minus the generator of Z
    fr, _ = cm.unit.canonical()
    assert gw.canonical_name() == "Z"
    assert abs(fr[0]) == 1
    # and w itself maps to the other sign
    wv = gw.element([int(lbl == "w") for lbl in sysm.generator_labels["w"]])
    assert abs(wv.canonical()[0][0]) == 1
    assert wv.canonical()[0][0] == -fr[0]


def test_extract_g5_units():
    sysm = extract_isystem(fixture_graph("g5"))
    cm_a = sysm.map_for("a", "b")
    assert not cm_a.unit.is_zero()         # order 2 in Z/2
    assert (cm_a.unit + cm_a.unit).is_zero()
    cm_a2 = sysm.map_for("a'", "b")
    assert not (cm_a2.unit + cm_a2.unit).is_zero()
    assert (cm_a2.unit + cm_a2.unit + cm_a2.unit).is_zero()


def test_extracted_systems_validate():
    for name in graph_names():
        rep = validate_isystem(extract_isystem(fixture_graph(name)))
        assert rep.status == VERIFIED, (name, rep.failures)


def test_s1_fixture_validates():
    rep = validate_isystem(fixture_system("s1"))
    assert rep.status == VERIFIED


def test_serialize_parse_roundtrip():
    systems = [extract_isystem(fixture_graph(n)) for n in graph_names()] + _stress_corpus(1)
    systems += [fixture_system(n) for n in system_names()]
    systems += [s for s, _ in corpus_systems(4, count=20)]
    for sysm in systems:
        text = serialize_isystem(sysm)
        back = parse_isystem(text)
        assert serialize_isystem(back) == text


def test_parse_reg_and_colon_forms():
    txt = ("prime p reg\n"
           "group p : Z + Z/3\n")
    s = parse_isystem(txt)
    assert s.kind["p"] == "regular"
    assert s.group["p"].canonical_name() == "Z + Z/3"
    # long spelling allowed too
    s2 = parse_isystem("prime p regular\ngroup p : 0\n")
    assert s2.kind["p"] == "regular"


def test_parse_group_presentation_form():
    txt = ("prime p reg\n"
           "group p gens g1 g2 rels 2*g1 ; 3*g2\n")
    s = parse_isystem(txt)
    assert s.group["p"].canonical_name() == "Z/6"


def test_parse_group_name_forms():
    assert parse_group_name("0").is_trivial()
    assert parse_group_name("Z^2").free_rank == 2
    assert parse_group_name("Z/2 + Z/2").invariant_factors == (2, 2)
    with pytest.raises(ISystemError):
        parse_group_name("Z/1")
    with pytest.raises(ISystemError):
        parse_group_name("Z/2 + Z/3")    # not a divisor chain
    with pytest.raises(ISystemError):
        parse_group_name("Q")


@pytest.mark.parametrize("name, term, why", [
    ("Z/10001", "Z/10001", "torsion order above 10000"),
    ("Z^257", "Z^257", "more than 256 generators"),
    ("Z^100000", "Z^100000", "more than 256 generators"),
    ("Z^200 + Z^56 + Z/2", "Z/2", "more than 256 generators"),
])
def test_parse_group_name_caps(name, term, why):
    # parse-only: the check comes before any group is built
    with pytest.raises(ISystemError, match=re.escape(f"group term '{term}': {why}")):
        parse_group_name(name)
    with pytest.raises(ISystemParseError, match="line 2"):
        parse_isystem(f"prime p reg\ngroup p : {name}\n")


def test_parse_group_name_at_the_caps():
    assert parse_group_name("Z/10000").invariant_factors == (10000,)
    assert parse_group_name("Z^255 + Z/2").ngens == 256


@pytest.mark.parametrize("pres, why", [
    ("g1 rels 10001*g1", "invariant factor 10001 above 10000"),
    ("g1 g2 rels 2*g1 ; 5001*g2", "invariant factor 10002 above 10000"),
    (" ".join(f"g{i + 1}" for i in range(257)), "more than 256 generators"),
    # relations are element text, which refuses an empty term
    ("g1 g2 rels + ; 2*g1 ++ g2", "empty term in '+'"),
    ("g1 g2 rels 2*g1 ++ g2", "empty term in '2*g1 ++ g2'"),
    ("g1 g2 rels 2*g1 ; g2 -", "empty term in 'g2 -'"),
    # and a relation between semicolons may not be empty either
    ("g1 g2 rels ; 2*g1 ; ; g2 ;", "empty relation in '; 2*g1 ; ; g2 ;'"),
    ("g1 g2 rels 2*g1 ;", "empty relation in '2*g1 ;'"),
    ("g1 rels ;", "empty relation in ';'"),
])
def test_parse_group_presentation_caps(pres, why):
    with pytest.raises(ISystemError, match=re.escape(why)):
        parse_group_presentation(pres)
    with pytest.raises(ISystemParseError, match="line 2"):
        parse_isystem(f"prime p reg\ngroup p gens {pres}\n")


def test_presentation_generator_cap_comes_before_any_group(monkeypatch):
    built = []
    monkeypatch.setattr(isystem, "FGAbelianGroup",
                        lambda *a: built.append(a) or FGAbelianGroup(*a))
    with pytest.raises(ISystemError, match="more than 256 generators"):
        parse_group_presentation(" ".join(f"g{i + 1}" for i in range(257)))
    assert built == []
    parse_group_presentation("g1 rels 2*g1")
    assert built                    # the counter does see a group being built


def test_a_presentation_without_relation_text_has_no_relations():
    for pres in ("g1 g2", "g1 g2 rels"):
        g = parse_group_presentation(pres)
        assert (g.ngens, g.relations) == (2, [])


def test_parse_group_presentation_at_the_caps():
    assert parse_group_presentation("g1 rels 10000*g1").invariant_factors == (10000,)
    assert parse_group_presentation("g1 g2 rels 16*g1 ; 625*g2").invariant_factors == (10000,)
    names = " ".join(f"g{i + 1}" for i in range(256))
    assert parse_group_presentation(names).free_rank == 256


def test_parse_group_name_rejects_negative_free_rank():
    with pytest.raises(ISystemError):
        parse_group_name("Z^-1")
    with pytest.raises(ISystemParseError) as exc:
        parse_isystem("prime p reg\ngroup p : Z^-1\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("term", ["Z/1_0", "Z/\u0663", "Z^ 2"])
def test_group_terms_read_ascii_decimal_integers(term):
    with pytest.raises(ISystemError, match=f"^bad group term '{re.escape(term)}'$"):
        parse_group_name(term)


def test_parse_group_presentation_requires_ordered_names():
    with pytest.raises(ISystemError):
        parse_group_presentation("g2 g1")
    g = parse_group_presentation("g1 g2 rels 2*g1 + g2")
    assert g.canonical_name() == "Z"


# p over a free q and a regular r, and a regular s beside them; the map
# line under test is line 11
_MAP_HEAD = ("prime p reg\nprime q free\nprime r reg\nprime s reg\ncover q < p\n"
             "cover r < p\ngroup p : Z/2\ngroup q : 0\ngroup r : Z/2\ngroup s : Z/2\n")


@pytest.mark.parametrize("map_line, message", [
    ("map p q : unit -> g1", "map line needs: map <hi> <- <lo> : <clauses>"),
    ("map p <- s : g1 -> g1", "map for pair without s < p"),
    ("map p <- r : unit -> 0 ; g1 -> g1", "unit clause for regular prime 'r'"),
    ("map p <- q : unit -> 0 ; unit -> g1", "duplicate unit clause"),
    ("map p <- q : unit -> g1 ; h1 -> g1", "bad clause lhs 'h1'"),
    ("map p <- r : gx -> g1", "bad clause lhs 'gx'"),
    ("map p <- r : g2 -> g1", "generator 'g2' out of range"),
    ("map p <- r : g1", "bad clause 'g1'"),
    ("map p <- r : g1 -> g1 ; g1 -> 0", "duplicate clause for 'g1'"),
    ("map p <- q :", "free prime 'q' needs a unit clause"),
    ("map p <- r :", "missing clause(s) for g1"),
    ("map p <- q : unit -> x*g1", "bad coefficient 'x'"),
    ("map p <- q : unit -> h1", "bad generator 'h1'"),
    ("map p <- q : unit -> gx", "bad generator 'gx'"),
    ("map p <- q : unit -> g2", "generator 'g2' out of range (group has 1)"),
    ("map p <- q : unit -> 1_0*g1", "bad coefficient '1_0'"),
    ("map p <- q : unit -> g\u0661", "bad generator 'g\u0661'"),
    ("map p <- r : g 1 -> g1", "bad clause lhs 'g 1'"),
    # an empty term is refused, as .sg element text refuses it
    ("map p <- r : g1 -> +", "empty term in '+'"),
    ("map p <- r : g1 -> g1 ++ g1", "empty term in 'g1 ++ g1'"),
    ("map p <- r : g1 -> g1 +", "empty term in 'g1 +'"),
    ("map p <- r : g1 -> +g1", "empty term in '+g1'"),
    ("map p <- r : g1 -> g1 -", "empty term in 'g1 -'"),
    ("map p <- r : g1 -> -", "empty term in '-'"),
    ("map p <- r : g1 -> - -g1", "empty term in '- -g1'"),
    # so is an empty clause, though an empty body is no clauses
    ("map p <- r : ; g1 -> g1 ;;", "empty clause in '; g1 -> g1 ;;'"),
    ("map p <- r : g1 -> g1 ;", "empty clause in 'g1 -> g1 ;'"),
    ("map p <- q : unit -> g1 ; ; ", "empty clause in 'unit -> g1 ; ;'"),
    ("map p <- r : ;", "empty clause in ';'"),
])
def test_map_line_errors_name_their_line_and_exit_2(tmp_path, capsys, map_line, message):
    text = _MAP_HEAD + map_line + "\n"
    with pytest.raises(ISystemParseError) as exc:
        parse_isystem(text)
    assert (exc.value.line_no, str(exc.value)) == (11, f"line 11: {message}")
    path = tmp_path / "bad.is"
    path.write_text(text)
    assert main(["realize", str(path)]) == 2
    assert f"line 11: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, row", [
    ("0", [0, 0, 0]),
    ("-g1", [-1, 0, 0]),
    ("- g1", [-1, 0, 0]),
    ("g1 - g2", [1, -1, 0]),
    ("g1 + -2*g3", [1, 0, -2]),
    ("-g1 - 2*g2 + g1 + g3", [0, -2, 1]),
    (" 3*g2 ", [0, 3, 0]),
])
def test_element_text_reads_signed_terms(text, row):
    assert isystem.parse_element_expr(text, 3) == row


def test_a_cover_cycle_is_refused_and_exits_2(tmp_path, capsys):
    # the poset refuses the cycle, and the parser passes its reason on
    text = ("prime p reg\nprime q reg\nprime r reg\ngroup p : 0\ngroup q : 0\ngroup r : 0\n"
            "cover p < q\ncover q < r\ncover r < p\n")
    with pytest.raises(ISystemError, match="antisymmetry fails"):
        parse_isystem(text)
    path = tmp_path / "cycle.is"
    path.write_text(text)
    assert main(["realize", str(path)]) == 2
    assert "antisymmetry fails" in capsys.readouterr().err


def test_parse_errors_carry_line_numbers():
    bad = "prime p free\ngroup p : Z/2\nmap p <- q : unit -> g1\n"
    with pytest.raises(ISystemParseError) as exc:
        parse_isystem(bad)
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize("tail, want", [
    ("cover x < p\n", "line 3: cover mentions unknown prime 'x'"),
    ("cover p < y\n", "line 3: cover mentions unknown prime 'y'"),
    ("cover x < y\n", "line 3: cover mentions unknown prime 'x'"),
    ("map x <- p : g1 -> g1\n", "line 3: map mentions unknown prime 'x'"),
    ("map p <- y : g1 -> g1\n", "line 3: map mentions unknown prime 'y'"),
    ("map x <- y : g1 -> g1\n", "line 3: map mentions unknown prime 'x'"),
    ("group zz : Z/1\n", "line 3: group mentions unknown prime 'zz'"),
    ("group zz gens g1\n", "line 3: group mentions unknown prime 'zz'"),
])
def test_parse_names_the_unknown_prime(tail, want):
    # the first unknown of the line's two names
    with pytest.raises(ISystemParseError) as exc:
        parse_isystem("prime p reg\ngroup p : Z/2\n" + tail)
    assert str(exc.value) == want


@pytest.mark.parametrize("name", ["0", "p+q", "2*p"])
def test_parse_rejects_prime_names_the_element_syntax_cannot_address(name):
    # realize names each prime's vertices after the prime
    text = f"prime q free\nprime {name} reg\ngroup q : 0\n"
    with pytest.raises(ISystemParseError, match=r"line 2: prime name '.*' is reserved"):
        parse_isystem(text)


@pytest.mark.parametrize("name", ["a b", "x#y", "a+b", "0", "", 3])
def test_the_constructor_refuses_prime_names_no_text_can_carry(name):
    # neither .is text nor the vertex names realize takes from primes carry these
    triv = FGAbelianGroup(0, [])
    with pytest.raises(ISystemError) as exc:
        ISystem(Poset([name]), {name: "regular"}, {name: triv}, {})
    assert str(exc.value).startswith(f"prime name '{name}' is reserved: ")


def test_parse_requires_unit_exactly_for_free_sources():
    base = ("prime p free\nprime q free\ncover q < p\n"
            "group p : Z/2\ngroup q : 0\n")
    with pytest.raises(ISystemParseError):
        parse_isystem(base + "map p <- q : g1 -> 0\n")   # missing unit
    s = parse_isystem(base + "map p <- q : unit -> g1\n")
    assert s.map_for("p", "q").unit is not None


def test_trivial_regular_source_gets_zero_map():
    txt = ("prime p reg\nprime q reg\ncover q < p\n"
           "group p : Z/2\ngroup q : 0\n")
    s = parse_isystem(txt)
    cm = s.map_for("p", "q")
    assert cm.unit is None
    assert cm.hom == zero_hom(s.group["q"], s.group["p"])
    # built directly, the system gets the same map
    direct = ISystem(s.poset, s.kind, s.group, {})
    assert direct.map_for("p", "q").hom.matrix == []
    assert validate_isystem(direct).status == VERIFIED


@pytest.mark.parametrize("first, second, status, detail", [
    ("g1", "-g1", VERIFIED, []),
    ("g1", "2*g1", COUNTEREXAMPLE, [
        "the negated unit of q1 is not reachable from below: the form (1,) on the free "
        "coordinates of G_p modulo the lower images is >= 0 on every unit and > 0 on that one"]),
    ("7*g1", "-5*g1", VERIFIED, []),
    ("2*g1", "-2*g1", COUNTEREXAMPLE, ["element ((1,), ()) of G_p is not reachable from below"]),
])
def test_validate_cone_in_free_quotient(first, second, status, detail):
    # a free prime with group Z over two trivial free primes
    txt = ("prime p free\nprime q1 free\nprime q2 free\n"
           "cover q1 < p\ncover q2 < p\n"
           "group p : Z\ngroup q1 : 0\ngroup q2 : 0\n"
           f"map p <- q1 : unit -> {first}\nmap p <- q2 : unit -> {second}\n")
    rep = validate_isystem(parse_isystem(txt))
    assert rep.status == status
    assert [f.detail for f in rep.failures] == detail


def _free_over_trivial(group, units):
    """A free prime p with the given group over one trivial free prime per unit."""
    qs = [f"q{i}" for i in range(1, len(units) + 1)]
    return parse_isystem("".join(
        ["prime p free\n", f"group p : {group}\n"]
        + [f"prime {q} free\ncover {q} < p\ngroup {q} : 0\n" for q in qs]
        + [f"map p <- {q} : unit -> {u}\n" for q, u in zip(qs, units)]))


FACET = re.compile(r"the negated unit of (\w+) is not reachable from below: "
                   r"the form (\(.*?\)) on the free coordinates")


def _facet_signs(s, detail):
    """The named prime and y.u for each unit u, u in the free canonical
    coordinates of G_p (every lower prime here is trivial)."""
    q, y = FACET.match(detail).groups()
    g = s.group["p"]
    units = {lo: g.canonical_coords(s.map_for("p", lo).unit.coeffs)[0]
             for lo in s.poset.strict_down("p")}
    return q, {lo: sum(a * b for a, b in zip(ast.literal_eval(y), u)) for lo, u in units.items()}


def test_validate_cone_half_plane():
    # every unit has x + y >= 0, yet every coordinate takes both signs and
    # the units generate Z^2 as a group: -(-g1 + 2*g2) is the gap
    s = _free_over_trivial("Z^2", ["g1 - g2", "-g1 + 2*g2", "g2"])
    rep = validate_isystem(s)
    assert rep.status == COUNTEREXAMPLE
    [failure] = rep.failures
    assert (failure.axiom, failure.primes) == ("cone-coverage", ("p",))
    q, signs = _facet_signs(s, failure.detail)
    assert q == "q2" and signs["q2"] > 0 and min(signs.values()) >= 0


def test_validate_names_the_form_in_the_files_basis():
    # Z^2 + Z/2 as written is its own frame, so the form reads on g1 and g2
    # in the file's order: (0, 1), where Smith's column order gave (1, 0)
    s = _free_over_trivial("Z^2 + Z/2", ["g1", "-g1", "g2", "g3"])
    [failure] = validate_isystem(s).failures
    assert failure.detail.startswith(
        "the negated unit of q3 is not reachable from below: the form (0, 1) on the free ")


def _positive_relation(sympy, simplex, units):
    """Rational c with every c_i >= 1 and sum(c_i * u_i) = 0, or None, by
    sympy's simplex over the rational null space of the units' matrix."""
    basis = sympy.Matrix(units).T.nullspace()
    if not basis:
        return None
    t = sympy.symbols(f"t0:{len(basis)}")
    c = sum((ti * v for ti, v in zip(t, basis)), sympy.zeros(len(units), 1))
    try:
        _, point = simplex.lpmin(sum(c), [ci >= 1 for ci in c])
    except simplex.InfeasibleLPError:
        return None
    return [ci.subs(point) for ci in c]


def test_validate_cone_agrees_with_smith_and_lp_oracles():
    # an independent oracle: the units generate G_p as a monoid exactly
    # when sympy's Smith form says they generate it as a group and its
    # simplex finds c_i >= 1 with sum(c_i * u_i) = 0 on the free coordinates
    sympy = pytest.importorskip("sympy")
    simplex = pytest.importorskip("sympy.solvers.simplex")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(14)
    seen = set()
    for _ in range(200):
        r = rng.randint(0, 3)
        tors = rng.choice([[], [2], [3], [2, 4], [6]] if r else [[2], [3], [2, 4], [6]])
        n = rng.randint(1, 5)
        units = [[rng.randint(-3, 3) for _ in range(r + len(tors))] for _ in range(n)]
        name = " + ".join(["Z"] * r + [f"Z/{d}" for d in tors])
        s = _free_over_trivial(name, [" + ".join(f"{c}*g{i}" for i, c in enumerate(u, 1))
                                      .replace("+ -", "- ") for u in units])
        rels = [[d if j == r + k else 0 for j in range(r + len(tors))]
                for k, d in enumerate(tors)]
        diag = invariant_factors(sympy.Matrix(rels + units), domain=sympy.ZZ)
        ok = len(diag) == r + len(tors) and all(abs(d) == 1 for d in diag)
        if ok and r:
            c = _positive_relation(sympy, simplex, [u[:r] for u in units])
            assert c is None or (min(c) >= 1 and not any(
                sum(ci * u[i] for ci, u in zip(c, units)) for i in range(r)))
            ok = c is not None
        rep = validate_isystem(s)
        assert rep.status == (VERIFIED if ok else COUNTEREXAMPLE), (name, units, rep.failures)
        for failure in rep.failures:
            if failure.detail.startswith("the negated unit"):
                q, signs = _facet_signs(s, failure.detail)
                assert signs[q] > 0 and min(signs.values()) >= 0, (name, units)
        seen.add((rep.status, "negated" in "".join(f.detail for f in rep.failures)))
    assert len(seen) == 3


def test_validate_flags_missing_map():
    # the constructor refuses the system before validation could see it
    poset = Poset(["p", "q"], [("q", "p")])
    z2 = FGAbelianGroup(1, [[2]])
    triv = FGAbelianGroup(0, [])
    with pytest.raises(ISystemError, match="^no connecting map for q < p$"):
        ISystem(poset, {"p": "free", "q": "free"}, {"p": z2, "q": triv}, {})


def test_isystem_needs_a_kind_and_a_group_per_prime():
    poset = Poset(["p"])
    triv = FGAbelianGroup(0, [])
    for kind in ({}, {"p": "reg"}):
        with pytest.raises(ISystemError, match="^prime 'p' needs kind free or regular$"):
            ISystem(poset, kind, {"p": triv}, {})
    with pytest.raises(ISystemError, match="^prime 'p' has no group$"):
        ISystem(poset, {"p": "regular"}, {}, {})


def test_map_for_names_a_missing_map():
    # every strict pair has its map, so only a pair that is not strict misses one
    poset = Poset(["p", "q"], [("q", "p")])
    s = ISystem(poset, {"p": "regular", "q": "regular"},
                {"p": FGAbelianGroup(1, [[2]]), "q": FGAbelianGroup(0, [])}, {})
    with pytest.raises(ISystemError, match="^no connecting map for p < q$"):
        s.map_for("q", "p")


def test_a_cover_without_its_map_line_exits_2(tmp_path, capsys):
    text = "prime p reg\nprime q reg\ncover q < p\ngroup p : Z/2\ngroup q : Z/2\n"
    with pytest.raises(ISystemError, match="^no connecting map for q < p$"):
        parse_isystem(text)
    path = tmp_path / "no-map.is"
    path.write_text(text)
    assert main(["realize", str(path)]) == 2
    assert capsys.readouterr().err == "error: no connecting map for q < p\n"


def test_a_bad_free_rank_term_exits_2(tmp_path, capsys):
    with pytest.raises(ISystemError, match=r"^bad group term 'Z\^x'$"):
        parse_group_name("Z^x")
    path = tmp_path / "bad-rank.is"
    path.write_text("prime p reg\ngroup p : Z^x\n")
    assert main(["realize", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: line 2: bad group term 'Z^x'\n"


def test_validate_flags_ill_defined_hom():
    poset = Poset(["p", "q"], [("q", "p")])
    z2 = FGAbelianGroup(1, [[2]])
    z3 = FGAbelianGroup(1, [[3]])
    bad = ConnectingMap(GroupHom(z3, z2, [[1]]), None)
    s = ISystem(poset, {"p": "regular", "q": "regular"},
                {"p": z2, "q": z3}, {("p", "q"): bad})
    rep = validate_isystem(s)
    assert rep.status == COUNTEREXAMPLE
    assert any(f.axiom == "map-hom" for f in rep.failures)


def test_validate_flags_functoriality_break():
    poset = Poset(["r", "m", "t"], [("r", "m"), ("m", "t")])
    z4 = FGAbelianGroup(1, [[4]])
    s = ISystem(
        poset,
        {"r": "regular", "m": "regular", "t": "regular"},
        {"r": z4, "m": z4, "t": z4},
        {("m", "r"): ConnectingMap(GroupHom(z4, z4, [[1]])),
         ("t", "m"): ConnectingMap(GroupHom(z4, z4, [[1]])),
         ("t", "r"): ConnectingMap(GroupHom(z4, z4, [[3]]))},
    )
    rep = validate_isystem(s)
    assert rep.status == COUNTEREXAMPLE
    assert any(f.axiom == "functoriality" for f in rep.failures)



def test_a_non_hom_at_a_non_cover_pair_fails_functoriality():
    # t <- r sends the Z/2 generator to a generator of Z/4: no hom, and not
    # the composite 2*g1 through m.  map-hom reads covers only, so the
    # report names the chain where the all-pairs check named the pair
    s = parse_isystem("prime r reg\nprime m reg\nprime t reg\ncover r < m\ncover m < t\n"
                      "group r : Z/2\ngroup m : Z/2\ngroup t : Z/4\nmap m <- r : g1 -> g1\n"
                      "map t <- m : g1 -> 2*g1\nmap t <- r : g1 -> g1\n")
    old = allpairs_reference.validate_isystem(s)
    assert [(f.axiom, f.primes) for f in old.failures] == [("map-hom", ("t", "r"))]
    assert [(f.axiom, f.primes, f.detail) for f in validate_isystem(s).failures] == \
        [("functoriality", ("t", "m", "r"), "hom r<t differs from the composite through m")]


def test_functoriality_failures_are_the_whole_report():
    # the torsion triangle off by g2, beside a minimal free prime a with
    # a nontrivial group: the cone check assumes functoriality, so it no
    # longer runs, where the all-pairs check reported both
    s = parse_isystem("prime m reg\nprime t reg\ncover r < m\ncover m < t\n"
                      "group m : Z + Z/2\ngroup t : Z + Z/2\nmap t <- m : g1 -> g1 ; g2 -> g2\n"
                      + TORSION_TRIANGLE["regular"].format(k=1)
                      + "prime a free\ngroup a : Z/2\n")
    old = allpairs_reference.validate_isystem(s)
    assert [(f.axiom, f.primes) for f in old.failures] == \
        [("functoriality", ("t", "m", "r")), ("cone-coverage", ("a",))]
    assert [(f.axiom, f.primes) for f in validate_isystem(s).failures] == \
        [("functoriality", ("t", "m", "r"))]


def _one_entry_mutants(s):
    """(whether (lo, hi) is a cover, s with one entry of its map hi <- lo
    off by 1) per strict pair: the first hom entry, then the last unit
    entry, each where the map has one."""
    covers = set(s.poset.covers())
    for hi in s.poset:
        for lo in sorted(s.poset.strict_down(hi)):
            cm = s.maps[(hi, lo)]
            bad = []
            if cm.hom.matrix and cm.hom.matrix[0]:
                rows = [list(r) for r in cm.hom.matrix]
                rows[0][0] += 1
                bad.append(ConnectingMap(GroupHom(cm.hom.domain, cm.hom.codomain, rows), cm.unit))
            if cm.unit is not None and cm.unit.coeffs:
                unit = list(cm.unit.coeffs)
                unit[-1] += 1
                bad.append(ConnectingMap(cm.hom, s.group[hi].element(unit)))
            for b in bad:
                yield (lo, hi) in covers, ISystem(s.poset, s.kind, s.group, {**s.maps, (hi, lo): b})


def _axioms(report):
    return tuple(sorted({f.axiom for f in report.failures}))


def test_cover_checks_agree_with_the_all_pairs_reference():
    # the same verdict as the all-pairs validation on the stress systems and
    # on each of their one-entry mutants.  Reports of invalid systems may
    # change only as declared: a failure moves to a chain through a lower
    # cover, a non-cover non-hom becomes a functoriality failure, and
    # cone-coverage no longer runs after a functoriality failure; no
    # cone-coverage message changes its basis here
    counts, moved = Counter(), Counter()
    for s in _stress_corpus(1, 150) + _stress_corpus(2, 150):
        assert validate_isystem(s).ok and allpairs_reference.validate_isystem(s).ok
        for cover, t in _one_entry_mutants(s):
            old, new = allpairs_reference.validate_isystem(t), validate_isystem(t)
            assert old.status == new.status
            counts["mutants"] += 1
            counts["invalid"] += not new.ok
            counts["non-cover"] += not cover
            if old.failures != new.failures:
                moved[_axioms(old), _axioms(new)] += 1
    assert counts == {"mutants": 608, "invalid": 402, "non-cover": 181}
    assert moved == {(("functoriality",), ("functoriality",)): 48,
                     (("cone-coverage", "functoriality"), ("functoriality",)): 29,
                     (("map-hom",), ("functoriality",)): 18}


# a triangle r < m < t of Z + Z/2 primes whose direct map t <- r (a hom, or
# the unit of a free r) is the composite through m plus k times the torsion
# generator
TORSION_TRIANGLE = {
    "regular": ("prime r reg\ngroup r : Z + Z/2\nmap m <- r : g1 -> g1 ; g2 -> g2\n"
                "map t <- r : g1 -> g1 + {k}*g2 ; g2 -> g2\n"),
    "free": ("prime r free\ngroup r : 0\nmap m <- r : unit -> g1\n"
             "map t <- r : unit -> g1 + {k}*g2\n"),
}


@pytest.mark.parametrize("kind", ["regular", "free"])
def test_validate_flags_functoriality_off_in_torsion_only(kind):
    text = ("prime m reg\nprime t reg\ncover r < m\ncover m < t\n"
            "group m : Z + Z/2\ngroup t : Z + Z/2\nmap t <- m : g1 -> g1 ; g2 -> g2\n")
    for k in (0, 2, -4):
        assert validate_isystem(parse_isystem(text + TORSION_TRIANGLE[kind].format(k=k))).ok, k
    for k in (1, 3, -1):
        rep = validate_isystem(parse_isystem(text + TORSION_TRIANGLE[kind].format(k=k)))
        assert [(f.axiom, f.primes) for f in rep.failures] == \
            [("functoriality", ("t", "m", "r"))], k
        what = "hom" if kind == "regular" else "unit image of"
        assert rep.failures[0].detail.startswith(what), k


def test_validate_names_each_map_shape_and_unit_failure():
    # the constructor refuses each shape and unit failure, naming its pair
    s = fixture_system("s2")
    assert validate_isystem(s).ok
    z, z2 = s.group["p3"], s.group["p4"]
    cases = [
        (("p4", "p3"), ConnectingMap(GroupHom(z2, z2, identity(2))),
         "map p4 <- p3: hom domain is not the source group"),
        (("p4", "p3"), ConnectingMap(GroupHom(z, z, [[1]])),
         "map p4 <- p3: hom codomain is not the target group"),
        (("p2", "p1"), ConnectingMap(s.maps[("p2", "p1")].hom),
         "free prime p1 needs a unit image under p2"),
        (("p3", "p2"), ConnectingMap(s.maps[("p3", "p2")].hom, z.element([0])),
         "regular prime p2 must not carry a unit image under p3"),
    ]
    for key, cm, detail in cases:
        with pytest.raises(ISystemError, match=f"^{re.escape(detail)}$"):
            ISystem(s.poset, s.kind, s.group, {**s.maps, key: cm})


def _other_presentation(g):
    """g presented on one more generator, which a relation kills."""
    return FGAbelianGroup(g.ngens + 1, [r + [0] for r in g.relations] + [[0] * g.ngens + [1]])


def _broken_maps(s, hi, lo):
    """(change, maps, message) for each way the map hi <- lo of s can break
    the structure the constructor checks."""
    cm, g_lo, g_hi = s.maps[(hi, lo)], s.group[lo], s.group[hi]
    other_lo, other_hi = _other_presentation(g_lo), _other_presentation(g_hi)
    pad = [0] * g_hi.ngens
    cases = [
        ("domain", ConnectingMap(GroupHom(other_lo, g_hi, cm.hom.matrix + [pad]), cm.unit),
         f"map {hi} <- {lo}: hom domain is not the source group"),
        ("codomain", ConnectingMap(GroupHom(g_lo, other_hi, [r + [0] for r in cm.hom.matrix]),
                                   cm.unit),
         f"map {hi} <- {lo}: hom codomain is not the target group"),
    ]
    if s.kind[lo] == "regular":
        cases.append(("unit added", ConnectingMap(cm.hom, g_hi.element(pad)),
                      f"regular prime {lo} must not carry a unit image under {hi}"))
    else:
        cases.append(("unit removed", ConnectingMap(cm.hom),
                      f"free prime {lo} needs a unit image under {hi}"))
        cases.append(("unit moved",
                      ConnectingMap(cm.hom, other_hi.element(list(cm.unit.coeffs) + [0])),
                      f"map {hi} <- {lo}: unit is not an element of the target group"))
    out = [(change, {**s.maps, (hi, lo): bad}, message) for change, bad, message in cases]
    if s.kind[lo] == "free" or not g_lo.is_trivial():
        # a trivial regular lo gets the zero map in place of a missing one
        out.append(("dropped", {k: v for k, v in s.maps.items() if k != (hi, lo)},
                    f"no connecting map for {lo} < {hi}"))
    return out


def test_the_constructor_refuses_each_broken_map():
    # each of the six ways a map can break, at every strict pair of the
    # stress corpus and the fixtures, raises at its pair; the system
    # unchanged still builds and serializes to the same text
    systems = _stress_corpus(1) + [fixture_system(n) for n in system_names()]
    systems += [extract_isystem(fixture_graph(n)) for n in graph_names()]
    broken = set()
    for s in systems:
        again = ISystem(s.poset, s.kind, s.group, s.maps, s.generator_labels)
        assert serialize_isystem(again) == serialize_isystem(s)
        for hi in s.poset:
            for lo in sorted(s.poset.strict_down(hi)):
                for change, maps, message in _broken_maps(s, hi, lo):
                    with pytest.raises(ISystemError, match=f"^{re.escape(message)}$"):
                        ISystem(s.poset, s.kind, s.group, maps)
                    broken.add(change)
    assert len(broken) == 6, broken


@pytest.mark.parametrize("key", [("q", "p"), ("p", "p"), ("p", "x"), "p"],
                         ids=["reversed", "reflexive", "unknown-prime", "no-pair"])
def test_the_constructor_refuses_a_map_at_no_strict_pair(key):
    poset = Poset(["p", "q"], [("q", "p")])
    z2 = FGAbelianGroup(1, [[2]])
    kind, group = {"p": "regular", "q": "regular"}, {"p": z2, "q": z2}
    maps = {("p", "q"): ConnectingMap(GroupHom(z2, z2, [[1]]))}
    assert ISystem(poset, kind, group, maps).maps == maps
    with pytest.raises(ISystemError,
                       match=f"^no strict pair q < p for the map keyed {re.escape(repr(key))}$"):
        ISystem(poset, kind, group, {**maps, key: maps[("p", "q")]})


def test_validate_flags_nontrivial_minimal_free():
    poset = Poset(["p"])
    s = ISystem(poset, {"p": "free"}, {"p": FGAbelianGroup(1, [[2]])}, {})
    rep = validate_isystem(s)
    assert rep.status == COUNTEREXAMPLE
    assert any(f.axiom == "cone-coverage" for f in rep.failures)


def test_validate_flags_unreachable_cone():
    # Z/2 target, but the only unit image is zero: g1 is not reachable
    txt = ("prime p free\nprime q free\ncover q < p\n"
           "group p : Z/2\ngroup q : 0\nmap p <- q : unit -> 0\n")
    rep = validate_isystem(parse_isystem(txt))
    assert rep.status == COUNTEREXAMPLE
    assert any(f.axiom == "cone-coverage" for f in rep.failures)


def test_canonicalized_uses_canonical_groups():
    sysm = extract_isystem(fixture_graph("g5"))
    canon = canonicalized(sysm)
    for p in canon.poset:
        grp = canon.group[p]
        assert grp.ngens == grp.free_rank + len(grp.invariant_factors)
    # maps still coherent
    assert validate_isystem(canon).status == VERIFIED


def test_canonical_text_roundtrips_with_two_free_generators():
    # a group read back from "Z^2 + Z/2" is already canonical; its free
    # generators must keep their order, or the map images get permuted
    txt = ("prime v1 reg\nprime v3 reg\nprime v5 reg\nprime v6 reg\n"
           "cover v1 < v6\ncover v3 < v6\n"
           "group v1 : Z\ngroup v3 : Z\ngroup v5 : Z/3\ngroup v6 : Z^2 + Z/2\n"
           "map v6 <- v1 : g1 -> -g1 + g3\nmap v6 <- v3 : g1 -> g1\n")
    assert serialize_isystem(parse_isystem(txt)) == txt
    g = parse_group_name("Z^2 + Z/2")
    assert canonicalized(parse_isystem(txt)).group["v6"].same_presentation(g)


def test_serialized_form_is_canonical_names():
    sysm = extract_isystem(fixture_graph("g2"))
    text = serialize_isystem(sysm)
    assert "group w : Z/2" in text
    assert "prime w reg" in text


# reference for serialize_isystem and canonicalized: each group is rebuilt
# in canonical diagonal form (a group already in that form keeps its
# generators), every map's matrix becomes back_lo @ hom @ fwd_hi, where back
# holds the canonical generators' rows and fwd each generator's canonical
# coordinates, and the lines are written from that copy with torsion reduced.


def _old_canonicalized(sys):
    canon, fwd, back = {}, {}, {}
    for p in sys.poset:
        g = sys.group[p]
        n = g.free_rank + len(g.invariant_factors)
        c = FGAbelianGroup(n, [[d if j == g.free_rank + k else 0 for j in range(n)]
                               for k, d in enumerate(g.invariant_factors)])
        if g.same_presentation(c):
            fwd[p] = back[p] = identity(n)
        else:
            fwd[p] = [list(fr + tc) for fr, tc in map(g.canonical_coords, identity(g.ngens))]
            back[p] = [list(r) for r in g._canonical_rows()]
        canon[p] = c
    maps = {}
    for (hi, lo), cm in sys.maps.items():
        # n <= ngens, so a product whose inner size is 0 has no rows or
        # rows of width 0, which mat_mul gets right
        hom = GroupHom(canon[lo], canon[hi], mat_mul(mat_mul(back[lo], cm.hom.matrix), fwd[hi]))
        unit = None if cm.unit is None else canon[hi].element(vec_mat(list(cm.unit.coeffs), fwd[hi]))
        maps[(hi, lo)] = ConnectingMap(hom, unit)
    return ISystem(sys.poset, sys.kind, canon, maps)


def _old_element_text(x):
    g, coeffs = x.group, list(x.coeffs)
    for k, d in enumerate(g.invariant_factors):
        coeffs[g.free_rank + k] %= d
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            name = f"g{i + 1}"
            terms.append(name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _old_serialize(sys):
    sys = _old_canonicalized(sys)
    lines = [f"prime {p} {'reg' if sys.kind[p] == 'regular' else 'free'}" for p in sys.poset]
    lines += [f"cover {lo} < {hi}" for lo, hi in sys.poset.covers()]
    lines += [f"group {p} : {sys.group[p].canonical_name()}" for p in sys.poset]
    for hi in sys.poset:
        for lo in sorted(sys.poset.strict_down(hi)):
            cm = sys.maps[(hi, lo)]
            if sys.kind[lo] == "regular" and sys.group[lo].is_trivial():
                continue
            clauses = [] if cm.unit is None else [f"unit -> {_old_element_text(cm.unit)}"]
            for i in range(sys.group[lo].ngens):
                img = sys.group[hi].element(cm.hom.matrix[i])
                clauses.append(f"g{i + 1} -> {_old_element_text(img)}")
            lines.append(f"map {hi} <- {lo} : " + " ; ".join(clauses))
    return "\n".join(lines) + "\n"


def _reference_inputs():
    base = [extract_isystem(fixture_graph(name)) for name in graph_names()]
    base += [fixture_system("s1"), fixture_system("s2")]
    rng = random.Random(20261018)
    base += [extract_isystem(random_adaptable(rng, k)) for k in range(2, 9) for _ in range(25)]
    base += [s for seed in (1, 2, 3) for s, _ in corpus_systems(seed)]
    out = []
    for s in base:
        reparsed = parse_isystem(serialize_isystem(s))
        out += [s, reparsed, canonicalized(reparsed)]
    return out


def _diagonal(g):
    n = g.free_rank + len(g.invariant_factors)
    return g.ngens == n and g.relations == [[d if j == g.free_rank + k else 0 for j in range(n)]
                                            for k, d in enumerate(g.invariant_factors)]


def test_serialize_isystem_matches_the_canonicalized_route():
    systems = _reference_inputs()
    groups = [g for s in systems for g in s.group.values()]
    assert any(g.ngens == 0 for g in groups)
    assert any(g.is_trivial() and g.ngens > 0 for g in groups)
    # canonical Z^k + Z/d as written, with more free generators than torsion
    # factors: Smith's column order would move its generators
    assert any(_diagonal(g) and g.free_rank > len(g.invariant_factors) >= 1 for g in groups)
    assert any(g.invariant_factors and not _diagonal(g) for g in groups)
    for s in systems:
        assert serialize_isystem(s) == _old_serialize(s)
        new, old = canonicalized(s), _old_canonicalized(s)
        for p in s.poset:
            assert new.group[p].same_presentation(old.group[p])
        assert new.maps.keys() == old.maps.keys()
        for k, cm in old.maps.items():
            assert new.maps[k].hom.matrix == cm.hom.matrix
            assert (new.maps[k].unit and new.maps[k].unit.coeffs) == (cm.unit and cm.unit.coeffs)


def test_extracted_reparsed_and_canonicalized_texts_are_pinned():
    # small presentations share one Smith frame and its canonical form, and
    # a group already in canonical form keeps its generators; the texts must
    # not move (digest taken before the frames were shared)
    h = hashlib.sha256()
    for seed in range(300):
        sysm = extract_isystem(random_adaptable(random.Random(seed), 6))
        text = serialize_isystem(sysm)
        for t in (text, serialize_isystem(parse_isystem(text)),
                  serialize_isystem(canonicalized(sysm))):
            h.update(t.encode())
    assert h.hexdigest() == "8b5625c8c6bb6523b148dd4b2ecb69afc53bb1606cc499585aeea1d33d3276ab"


def test_parsed_and_canonical_groups_are_shared():
    for name in ("0", "Z", "Z/2", "Z^2 + Z/2", "Z/2 + Z/4"):
        assert parse_group_name(name) is parse_group_name(name)
    assert parse_group_name("Z^1 + Z/2") is parse_group_name("Z + Z/2") \
        is isystem._diagonal_group(1, (2,))
    text = fixture_text("s1.is")
    a, b = parse_isystem(text), parse_isystem(text)
    assert all(a.group[p] is b.group[p] for p in a.poset)
    canon = canonicalized(extract_isystem(fixture_graph("g5")))
    assert all(canon.group[p] is parse_group_name(canon.group[p].canonical_name())
               for p in canon.poset)


def test_clearing_the_group_caches_changes_no_text():
    # the pin of test_extracted_reparsed_and_canonicalized_texts_are_pinned,
    # with every group built afresh for each seed
    h = hashlib.sha256()
    for seed in range(300):
        parse_group_name.cache_clear()
        isystem._diagonal_group.cache_clear()
        sysm = extract_isystem(random_adaptable(random.Random(seed), 6))
        text = serialize_isystem(sysm)
        for t in (text, serialize_isystem(parse_isystem(text)),
                  serialize_isystem(canonicalized(sysm))):
            h.update(t.encode())
    assert h.hexdigest() == "8b5625c8c6bb6523b148dd4b2ecb69afc53bb1606cc499585aeea1d33d3276ab"


def test_a_cover_of_a_prime_by_itself_is_rejected_at_its_line():
    # read as p <= p it would add nothing, and the system would realize
    with pytest.raises(ISystemParseError, match=r"^line 3: cover p < p is not strict$"):
        parse_isystem("prime p reg\ngroup p : 0\ncover p < p\n")


def test_connecting_maps_compare_their_homs_on_the_codomain():
    # Record equality reaches GroupHom.__eq__, which compares generator
    # images as elements: 1 and 5 are one element of Z/4, 3 another
    z4 = FGAbelianGroup(1, [[4]])
    one, five = ConnectingMap(GroupHom(z4, z4, [[1]])), ConnectingMap(GroupHom(z4, z4, [[5]]))
    three = ConnectingMap(GroupHom(z4, z4, [[3]]))
    assert one == five
    assert one != three and five != three
    # the presentations count too: neither the domain nor the codomain may
    # differ, even where the images' rows agree
    trivial, z2, z3 = FGAbelianGroup(0), FGAbelianGroup(1, [[2]]), FGAbelianGroup(1, [[3]])
    assert GroupHom(trivial, z2, []) != GroupHom(trivial, z3, [])
    assert GroupHom(z2, z2, [[1]]) != GroupHom(z4, z2, [[1]])
    assert ConnectingMap(GroupHom(z2, z2, [[1]])) != ConnectingMap(GroupHom(z4, z2, [[1]]))
    assert hash(GroupHom(trivial, z2, [])) != hash(GroupHom(trivial, z3, []))
    assert hash(GroupHom(z2, z2, [[1]])) != hash(GroupHom(z4, z2, [[1]]))
    # equal homs hash alike, and a copy of a presentation is the same one
    again = FGAbelianGroup(1, [[4]])
    assert GroupHom(again, z4, [[5]]) == GroupHom(z4, again, [[1]])
    assert hash(GroupHom(again, z4, [[5]])) == hash(GroupHom(z4, again, [[1]]))


def _reference_rows(g, kinds_of, verts, extra_free=()):
    """The relation rows of the group on verts, as the per-prime loop of
    presented_group derived them from the graph before extraction derived
    each vertex's rows once; kinds_of(w) is the kind of w's class."""
    index = {w: i for i, w in enumerate(verts)}
    rows = []
    for w in (*verts, *extra_free):
        if kinds_of(w) == "regular":
            row = [0] * len(verts)
            row[index[w]] += 1
            for e in g._out[w]:
                row[index[g.edges[e][1]]] -= 1
            rows.append(row)
        else:
            for blk in g.blocks_of[w]:
                row = [0] * len(verts)
                for e in blk:
                    tgt = g.edges[e][1]
                    if tgt != w:
                        row[index[tgt]] += 1
                rows.append(row)
    return rows


def test_extracted_relations_match_the_per_prime_row_loop():
    rng = random.Random(43)
    graphs = [fixture_graph(name) for name in graph_names()]
    graphs += [random_adaptable(rng, rng.randint(1, 6)) for _ in range(200)]
    primes = 0
    for g in graphs:
        sysm = extract_isystem(g)
        rep = check_adaptable(g)
        for p in sysm.poset:
            extra = (p,) if rep.kinds[p] == "free" and g.blocks_of[p] else ()
            want = _reference_rows(g, lambda w: rep.kinds[rep.condensation.class_of[w]],
                                   sysm.generator_labels[p], extra)
            assert sysm.group[p].relations == want, p
            primes += 1
        sub = restrict_lower(g, g.vertices[-1])
        rep = check_adaptable(sub)
        verts, grp = grothendieck_of_restriction(g, g.vertices[-1])
        assert grp.relations == _reference_rows(
            sub, lambda w: rep.kinds[rep.condensation.class_of[w]], verts)
    assert primes > 400, primes
    # each row shape on any graph, with every vertex read as free and then as
    # regular: a free block of loops only gives a zero row
    others = [build() for _, build, _ in MUTATIONS]
    others += [remove_edge(g, e) for g in graphs[:40] for e in sorted(g.edges)[:3]]
    zero_rows = 0
    for g in graphs[:40] + others:
        cond = condensation(g)
        for kind in ("free", "regular"):
            rows_of = isystem._relation_rows(g, cond, dict.fromkeys(cond.members, kind))
            want = _reference_rows(g, lambda w: kind, g.vertices)
            assert isystem.presented_group(rows_of, g.vertices).relations == want
            zero_rows += kind == "free" and [0] * len(g.vertices) in want
    assert zero_rows > 5, zero_rows
