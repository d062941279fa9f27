import os
import random
import subprocess
import sys

import pytest

import sepmonoid
from sepmonoid.cli import main
from sepmonoid.fixtures import fixture_text, graph_names
from sepmonoid.graph import parse_graph
from sepmonoid.isystem import parse_isystem
from sepmonoid.realize import realize


@pytest.fixture
def g1(tmp_path):
    p = tmp_path / "g1.sg"
    p.write_text(fixture_text("g1.sg"))
    return str(p)


@pytest.fixture
def g2(tmp_path):
    p = tmp_path / "g2.sg"
    p.write_text(fixture_text("g2.sg"))
    return str(p)


@pytest.fixture
def g5(tmp_path):
    p = tmp_path / "g5.sg"
    p.write_text(fixture_text("g5.sg"))
    return str(p)


@pytest.fixture
def s1(tmp_path):
    p = tmp_path / "s1.is"
    p.write_text(fixture_text("s1.is"))
    return str(p)


def test_validate_ok(g1, capsys):
    assert main(["validate", g1]) == 0
    out = capsys.readouterr().out
    assert "adaptable" in out


def test_validate_violations_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.sg"
    p.write_text("vertex a\nvertex b\nedge c a b\nblock c\n")
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "A-free-shape" in out


def test_validate_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.sg"
    p.write_text("vertex a\nedge e a nowhere\n")
    assert main(["validate", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_a_mixed_source_block_exit_2_at_its_line(tmp_path, capsys):
    p = tmp_path / "mixed.sg"
    p.write_text("vertex a\nvertex b\nvertex c\nedge e a b\nedge f c b\nblock e f\n")
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 6: block ['e', 'f'] mixes edges from different vertices" in err
    assert "line 0" not in err


def test_realize_a_self_cover_exit_2(tmp_path, capsys):
    p = tmp_path / "self-cover.is"
    p.write_text("prime p reg\ngroup p : 0\ncover p < p\n")
    assert main(["realize", str(p)]) == 2
    captured = capsys.readouterr()
    assert "line 3: cover p < p is not strict" in captured.err
    assert "Verified" not in captured.out + captured.err


@pytest.mark.parametrize("cmd, suffix, text", [
    ("validate", ".sg", "vertex a+b\n"),
    ("validate", ".sg", "vertex u\nvertex 0\nedge e u 0\n"),
    ("realize", ".is", "prime 0 reg\ngroup 0 : Z/2\n"),
])
def test_reserved_names_exit_2(tmp_path, capsys, cmd, suffix, text):
    p = tmp_path / f"reserved{suffix}"
    p.write_text(text)
    assert main([cmd, str(p)]) == 2
    assert "is reserved" in capsys.readouterr().err


def test_validate_huge_multiplicity_exit_2(tmp_path, capsys):
    p = tmp_path / "huge.sg"
    p.write_text("vertex w\nedge l w w * 10001\nblock l\n")
    assert main(["validate", str(p)]) == 2
    assert "multiplicities add more than 10000 edges" in capsys.readouterr().err


@pytest.mark.parametrize("tail, name", [
    ("cover p < y\n", "cover mentions unknown prime 'y'"),
    ("map x <- y : g1 -> g1\n", "map mentions unknown prime 'x'"),
])
def test_realize_unknown_prime_exit_2(tmp_path, capsys, tail, name):
    p = tmp_path / "unknown.is"
    p.write_text("prime p reg\ngroup p : Z/2\n" + tail)
    assert main(["realize", str(p)]) == 2
    assert f"line 3: {name}" in capsys.readouterr().err


def test_realize_huge_torsion_exit_2(tmp_path, capsys):
    p = tmp_path / "huge.is"
    p.write_text("prime p reg\ngroup p : Z/10001\n")
    assert main(["realize", str(p)]) == 2
    assert "group term 'Z/10001': torsion order above 10000" in capsys.readouterr().err


def test_realize_huge_presented_torsion_exit_2(tmp_path, capsys):
    p = tmp_path / "huge.is"
    p.write_text("prime p reg\ngroup p gens g1 rels 10001*g1\n")
    assert main(["realize", str(p)]) == 2
    assert "invariant factor 10001 above 10000" in capsys.readouterr().err


def test_realize_zero_generator_presentation(tmp_path, capsys):
    # q's one relation is the empty row; its map must still be well defined
    p = tmp_path / "zero.is"
    p.write_text("prime p reg\nprime q reg\ncover q < p\ngroup p : Z/2\n"
                 "group q gens rels 0\nmap p <- q :\n")
    assert main(["realize", str(p)]) == 0
    assert "roundtrip Verified" in capsys.readouterr().err


_READS_A_FILE = {
    "validate": [], "extract": [], "realize": [], "eq": ["a", "a"], "le": ["a", "a"],
    "nf": ["a"], "refine": ["a", "a", "a", "a"], "props": [], "export-dot": [],
}


@pytest.mark.parametrize("kind", ["missing", "not-utf8"])
@pytest.mark.parametrize("cmd", sorted(_READS_A_FILE))
def test_unreadable_file_exit_2(cmd, kind, tmp_path, capsys):
    path = tmp_path / ("s.is" if cmd == "realize" else "g.sg")
    if kind == "not-utf8":
        path.write_bytes(b"vertex a\xff\n")
    assert main([cmd, str(path)] + _READS_A_FILE[cmd]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read")
    assert "Traceback" not in err


def test_eq_equal_exit_0(g1, capsys):
    assert main(["eq", g1, "a", "a + b"]) == 0
    assert "equal" in capsys.readouterr().out


def test_eq_unequal_exit_1(g1, capsys):
    assert main(["eq", g1, "b", "2*b"]) == 1
    assert "not equal" in capsys.readouterr().out


def test_eq_confluence_equal(g2, capsys):
    assert main(["eq", g2, "w", "3*w", "--method", "confluence"]) == 0
    out = capsys.readouterr().out
    assert "gamma=" in out


def test_eq_confluence_exhausts_on_unequal(g1, g2, capsys):
    assert main(["eq", g2, "b := w", "2*w", "--method", "confluence",
                 "--depth", "4", "--budget", "500"]) == 2
    # bad element text is a parse error; retry with a clean one.  On g1 no
    # invariant separates b from 2*b (both are 0 in G = Z), so the search
    # runs out without an answer
    capsys.readouterr()
    assert main(["eq", g1, "b", "2*b", "--method", "confluence",
                 "--depth", "4", "--budget", "500"]) == 3
    assert capsys.readouterr().out == "unknown\n"
    # w and 2*w differ in G = Z/2: a certified disequality exits 1
    assert main(["eq", g2, "w", "2*w", "--method", "confluence",
                 "--depth", "4", "--budget", "500"]) == 1
    assert capsys.readouterr().out == "unequal (group)\n"


def test_eq_unknown_vertex_exit_2(g1, capsys):
    assert main(["eq", g1, "zz", "a"]) == 2


def test_eq_of_an_element_with_itself_keeps_the_checks(tmp_path, g2, capsys):
    p = tmp_path / "bad.sg"
    p.write_text("vertex u\nvertex w\nedge e u w\nblock e\n")
    assert main(["eq", str(p), "u", "u"]) == 1
    assert "not adaptable" in capsys.readouterr().err
    assert main(["eq", g2, "zz", "zz"]) == 2


def test_le_yes_no_unknown(g5, capsys):
    assert main(["le", g5, "b", "a + b"]) == 0
    assert "yes" in capsys.readouterr().out
    assert main(["le", g5, "a", "b", "--depth", "6"]) in (1, 3)


def test_nf_prints_antichain(g5, capsys):
    assert main(["nf", g5, "a + a' + 4*b"]) == 0
    out = capsys.readouterr().out
    assert "antisym" in out
    assert "nf a free" in out


# stdout of `sepmonoid nf`: group= is the canonical coordinates of the
# class's group, torsion reduced (Z/2 on g2, Z on g3 and g4, Z/3 at a')
NF_GOLDEN = [
    ("g1", "2*b", "antisym b:free:2\nnf b free n=2 group=0\n"),
    ("g2", "w", "antisym w:regular:1\nnf w regular n=1 group=g1\n"),
    ("g2", "2*w", "antisym w:regular:1\nnf w regular n=1 group=0\n"),
    ("g3", "u", "antisym u:regular:1\nnf u regular n=1 group=-g1\n"),
    ("g3", "u+3*w", "antisym u:regular:1\nnf u regular n=1 group=2*g1\n"),
    ("g3", "4*u", "antisym u:regular:1\nnf u regular n=1 group=-4*g1\n"),
    ("g4", "b+w", "antisym w:regular:1\nnf w regular n=1 group=0\n"),
    ("g4", "5*w", "antisym w:regular:1\nnf w regular n=1 group=5*g1\n"),
    ("g5", "a+a'+b", "antisym a:free:1 a':free:1\n"
                     "nf a free n=1 group=g1\nnf a' free n=1 group=0\n"),
    ("g5", "a'+2*b", "antisym a':free:1\nnf a' free n=1 group=2*g1\n"),
]


@pytest.mark.parametrize("name,expr,want", NF_GOLDEN)
@pytest.mark.parametrize("fmt", ["human", "lines"])
def test_nf_golden_stdout(name, expr, want, fmt, tmp_path, capsys):
    # nf has one output format: --format, in either value, is a usage error
    path = tmp_path / f"{name}.sg"
    path.write_text(fixture_text(f"{name}.sg"))
    assert main(["nf", str(path), expr]) == 0
    assert capsys.readouterr().out == want
    with pytest.raises(SystemExit) as exc:
        main(["nf", str(path), expr, "--format", fmt])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# le, extract and realize have one output format too, as nf has
FORMATLESS_GOLDEN = [
    (["le", "g5.sg", "b", "a+a'+b"], 0, "yes z=a+a'\n"),
    (["le", "g5.sg", "a", "b"], 1, "no\n"),
    (["extract", "g2.sg"], 0, "prime w reg\ngroup w : Z/2\n"),
    (["realize", "s1.is"], 0, "vertex p\nvertex q\nedge e1 p p\nedge e2 p q\n"
                              "edge e3 p q\nblock e1 e2 e3\n"),
]


@pytest.mark.parametrize("argv,code,want", FORMATLESS_GOLDEN,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
@pytest.mark.parametrize("fmt", ["human", "lines"])
def test_formatless_commands_golden_stdout(argv, code, want, fmt, tmp_path, capsys):
    cmd, name, *rest = argv
    path = tmp_path / name
    path.write_text(fixture_text(name))
    assert main([cmd, str(path)] + rest) == code
    assert capsys.readouterr().out == want
    with pytest.raises(SystemExit) as exc:
        main([cmd, str(path)] + rest + ["--format", fmt])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_eq_human_prints_nf_lines(g5, capsys):
    assert main(["eq", g5, "a+a'+b", "a'+2*b"]) == 1
    assert capsys.readouterr().out == (
        "not equal\n"
        "  left nf a free n=1 group=g1\n  left nf a' free n=1 group=0\n"
        "  right nf a' free n=1 group=2*g1\n")


REFINE_GRID = ("refined gamma=a+2*b\n"
               "  a = a + b\n  b = 0 + b\n  c = a + 0\n  d = b + b\n")


def test_refine_prints_grid(g1, g2, capsys):
    assert main(["refine", g2, "w", "2*w", "3*w", "0"]) == 0
    out = capsys.readouterr().out
    assert "a = " in out and "d = " in out
    # human adds the sub-traces that certify the grid, lines keeps the grid
    assert main(["refine", g1, "a", "b", "a", "2*b"]) == 0
    assert capsys.readouterr().out == REFINE_GRID + (
        "  a trace: a:0\n  b trace: (empty)\n"
        "  c trace: (empty)\n  d trace: (empty)\n")
    assert main(["refine", g1, "a", "b", "a", "2*b", "--format", "lines"]) == 0
    assert capsys.readouterr().out == REFINE_GRID


def test_extract_writes_system(g5, tmp_path, capsys):
    out_path = tmp_path / "g5.is"
    assert main(["extract", g5, "-o", str(out_path)]) == 0
    sysm = parse_isystem(out_path.read_text())
    assert sysm.group["a"].canonical_name() == "Z/2"


def test_extract_to_stdout(g2, capsys):
    assert main(["extract", g2]) == 0
    out = capsys.readouterr().out
    assert "prime w reg" in out
    assert "group w : Z/2" in out


def test_realize_roundtrip_exit_0(s1, tmp_path, capsys):
    out_path = tmp_path / "s1.sg"
    assert main(["realize", s1, "-o", str(out_path)]) == 0
    g = parse_graph(out_path.read_text())
    assert set(g.vertices) == {"p", "q"}
    assert "Verified" in capsys.readouterr().err


def test_realize_z2_chain_roundtrip_exit_0(tmp_path, capsys):
    # s2's round trip searches Z^2 -> Z^2 under a constraint
    src = tmp_path / "s2.is"
    src.write_text(fixture_text("s2.is"))
    out_path = tmp_path / "out.sg"
    assert main(["realize", str(src), "-o", str(out_path)]) == 0
    assert parse_graph(out_path.read_text()).vertices
    assert "roundtrip Verified" in capsys.readouterr().err


def test_realize_invalid_system_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.is"
    p.write_text("prime p free\nprime q free\ncover q < p\n"
                 "group p : Z/2\ngroup q : 0\nmap p <- q : unit -> 0\n")
    assert main(["realize", str(p)]) == 1
    assert "cone-coverage" in capsys.readouterr().err


def test_realize_half_plane_system_exit_1(tmp_path, capsys):
    # every unit has x + y >= 0, so -(-g1 + 2*g2) is not a sum of units
    p = tmp_path / "half-plane.is"
    p.write_text("prime p free\nprime q1 free\nprime q2 free\nprime q3 free\n"
                 "cover q1 < p\ncover q2 < p\ncover q3 < p\n"
                 "group p : Z^2\ngroup q1 : 0\ngroup q2 : 0\ngroup q3 : 0\n"
                 "map p <- q1 : unit -> g1 - g2\nmap p <- q2 : unit -> -g1 + 2*g2\n"
                 "map p <- q3 : unit -> g2\n")
    assert main(["realize", str(p)]) == 1
    err = capsys.readouterr().err
    assert "axiom cone-coverage" in err and "negated unit of q2" in err


# two functoriality triangles t <- b <- a and t <- d <- c that both fail
TWO_BROKEN_TRIANGLES = "".join(
    [f"prime {p} reg\ngroup {p} : Z/4\n" for p in "abcdt"]
    + [f"cover {lo} < {hi}\n" for lo, hi in ("ab", "bt", "cd", "dt")]
    + [f"map {hi} <- {lo} : g1 -> {img}\n"
       for hi, lo, img in (("b", "a", "g1"), ("t", "b", "g1"), ("t", "a", "3*g1"),
                           ("d", "c", "g1"), ("t", "d", "g1"), ("t", "c", "3*g1"))])
THREE_COVERS_NO_MAPS = "".join(
    [f"prime {p} reg\ngroup {p} : Z/2\n" for p in "abct"]
    + [f"cover {lo} < t\n" for lo in "abc"])


@pytest.mark.parametrize("text, first", [
    (TWO_BROKEN_TRIANGLES, "axiom functoriality fails at ('t', 'b', 'a'): "
                           "hom a<t differs from the composite through b"),
    (THREE_COVERS_NO_MAPS, "error: missing map line for a < t"),
], ids=["two-broken-triangles", "three-covers-no-maps"])
def test_realize_errors_do_not_hang_on_the_hash_seed(tmp_path, text, first):
    # the primes below a prime form a frozenset, whose order follows
    # PYTHONHASHSEED; the messages come in sorted order instead
    path = tmp_path / "s.is"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(sepmonoid.__file__))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    errs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-m", "sepmonoid.cli", "realize", str(path)],
                              capture_output=True, env=env)
        assert proc.returncode in (1, 2)
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert errs[0].decode().splitlines()[0] == first


def test_cycle_error_does_not_depend_on_the_hash_seed(tmp_path):
    # the poset used to name the second prime on the cycle in set order
    path = tmp_path / "cycle.is"
    path.write_text("".join(f"prime {p} reg\ngroup {p} : 0\n" for p in "pqr")
                    + "cover p < q\ncover q < r\ncover r < p\n")
    src = os.path.dirname(os.path.dirname(sepmonoid.__file__))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    errs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-m", "sepmonoid.cli", "realize", str(path)],
                              capture_output=True, env=env)
        assert proc.returncode == 2
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert b"antisymmetry fails: 'p' and 'q' lie on a cycle" in errs[0]


def test_realize_infeasible_exit_1(tmp_path, capsys):
    p = tmp_path / "obstructed.is"
    p.write_text("prime p reg\nprime q1 free\nprime q2 free\n"
                 "cover q1 < p\ncover q2 < p\n"
                 "group p : Z/2\ngroup q1 : 0\ngroup q2 : 0\n"
                 "map p <- q1 : unit -> 0\nmap p <- q2 : unit -> 0\n")
    assert main(["realize", str(p)]) == 1
    assert "free rank" in capsys.readouterr().err


def test_realize_negative_free_rank_exit_2(tmp_path, capsys):
    p = tmp_path / "negative.is"
    p.write_text("prime p reg\ngroup p : Z^-1\n")
    assert main(["realize", str(p)]) == 2
    assert "free rank must be nonnegative" in capsys.readouterr().err


def test_props_small_run(g2, capsys):
    assert main(["props", g2, "--samples", "20", "--pairs", "20",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "refinement" in out


def test_props_lines_format(g2, capsys):
    assert main(["props", g2, "--samples", "10", "--pairs", "10",
                 "--seed", "1", "--format", "lines"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("props ") for line in out)


def test_export_dot(g2, capsys):
    assert main(["export-dot", g2]) == 0
    assert "digraph" in capsys.readouterr().out


def test_random_requires_seed(capsys):
    assert main(["random"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_random_generates_adaptable(tmp_path, capsys):
    out_path = tmp_path / "r.sg"
    assert main(["random", "--seed", "5", "-o", str(out_path)]) == 0
    from sepmonoid.graph import check_adaptable
    assert check_adaptable(parse_graph(out_path.read_text())).ok


@pytest.mark.parametrize("argv", [
    ["random", "--seed", "1", "--classes", "0"],
    ["random", "--seed", "1", "--count", "-1"],
    ["props", "--samples", "-5"],
    ["props", "--pairs", "-1"],
    ["props", "--random", "-2", "--seed", "1"],
    ["eq", "g.sg", "a", "a", "--depth", "-1"],
    ["le", "g.sg", "a", "a", "--budget", "-3"],
    ["realize", "s.is", "--budget", "-1"],
    ["realize", "s.is", "--budget", "0"],
])
def test_out_of_range_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err
    assert "Traceback" not in err


def test_realize_budget_goes_to_the_library(s1, tmp_path, monkeypatch):
    import sepmonoid.cli as cli
    seen = []

    def spy(system, **kwargs):
        seen.append(kwargs["budget"])
        return realize(system, **kwargs)

    monkeypatch.setattr(cli, "realize", spy)
    out = str(tmp_path / "s1.sg")
    assert main(["realize", s1, "-o", out]) == 0
    assert main(["realize", s1, "--budget", "7", "-o", out]) == 0
    assert seen == [200, 7]


def test_realize_rejects_seed(s1, tmp_path, capsys):
    # realization is deterministic and has no seed to take
    with pytest.raises(SystemExit) as exc:
        main(["realize", s1, "--seed", "1", "-o", str(tmp_path / "s1.sg")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


# ------------------------------------------------------------------- fuzz

_ODD_TOKENS = ("-1", "0", "-7", "40", "1e9", "x", "zz", "*", "<", ":", "->", ";",
               "Z^-2", "Z/0", "Z/1", "g9")
_HUGE = str(10 ** 30)


def _mutate(rng, text, odd=_ODD_TOKENS):
    """Token deletions, duplications and swaps, line drops and copies, and
    odd tokens (negative or malformed numbers, unknown names)."""
    lines = [line.split() for line in text.splitlines() if line.split()]
    for _ in range(rng.randint(1, 3)):
        tokens = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        if not tokens:
            break
        i, j = rng.choice(tokens)
        kind = rng.randrange(6)
        if kind == 0:
            del lines[i][j]
        elif kind == 1:
            lines[i].insert(j, lines[i][j])
        elif kind == 2:
            k, m = rng.choice(tokens)
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        elif kind == 3:
            del lines[i]
        elif kind == 4:
            lines.insert(rng.randrange(len(lines) + 1), list(lines[i]))
        else:
            lines[i][j] = rng.choice(odd)
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _element_text(rng, vertices):
    names = list(vertices) + ["zz", "0"]
    terms = []
    for _ in range(rng.randint(1, 3)):
        n = rng.choice(("", "2*", "-1*", "0*", "x*", "123456789012*"))
        terms.append(n + rng.choice(names))
    return rng.choice((" + ", "+", " ++ ")).join(terms)


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    # mutated fixture text and edge-case flags: every run ends in an exit
    # code of the contract, never in an uncaught exception
    rng = random.Random(20261018)
    codes, bad = [], []

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse usage errors
            code = exc.code
        except Exception as exc:            # reported below
            bad.append((argv, repr(exc)))
            return
        err = capsys.readouterr().err
        codes.append(code)
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            bad.append((argv, code, err))

    small = ["--depth", "3", "--budget", "300"]
    for n in range(80):
        name = graph_names()[n % 5]
        text = fixture_text(f"{name}.sg")
        path = tmp_path / f"m{n}.sg"
        path.write_text(_mutate(rng, text, _ODD_TOKENS + (_HUGE,)) if n >= 5 else text)
        verts = parse_graph(text).vertices
        p = str(path)
        x, y = _element_text(rng, verts), _element_text(rng, verts)
        run(["validate", p, "--format", rng.choice(("human", "lines"))])
        run(["extract", p])
        run(["export-dot", p])
        run(["nf", p, x])
        run(["eq", p, x, y])
        run(["eq", p, x, y, "--method", "confluence"] + small)
        run(["le", p, x, y] + small)
        run(["refine", p, x, y, y, x] + small)
    systems = [fixture_text("s1.is")]
    for n in range(5):                      # m0.sg ... m4.sg are the fixtures as they are
        assert main(["extract", str(tmp_path / f"m{n}.sg")]) == 0
        systems.append(capsys.readouterr().out)
    for n in range(80):
        path = tmp_path / f"m{n}.is"
        path.write_text(_mutate(rng, systems[n % len(systems)], _ODD_TOKENS + (_HUGE,)))
        run(["realize", str(path), "--budget", "1"] + (["--no-verify"] if n % 2 else []))
    g1 = str(tmp_path / "m0.sg")
    huge = tmp_path / "huge.sg"
    huge.write_text(fixture_text("g5.sg").replace("* 2", "* " + _HUGE))
    for argv in (
        ["eq", g1, "b", "2*b", "--method", "confluence", "--depth", _HUGE, "--budget", "50"],
        ["eq", g1, "a", "b", "--method", "confluence", "--depth", "2", "--budget", _HUGE],
        ["eq", g1, "a", "b", "--method", "confluence", "--depth", "0", "--budget", "0"],
        ["le", g1, "b", "a", "--depth", "0", "--budget", "0"],
        ["le", g1, "a", "b", "--depth", _HUGE, "--budget", "20"],
        ["refine", g1, "a", "b", "b", "a", "--depth", "0"],
        ["props", g1, "--samples", "0", "--pairs", "0", "--seed", "1"],
        ["props", g1, "--samples", "1", "--seed", _HUGE, "--format", "lines"],
        ["random", "--seed", "-3", "--count", "0"],
        ["random", "--seed", "1", "--classes", "1", "--count", "2"],
        ["random", "--seed", "1", "--count", "2", "-o", str(tmp_path / "r.sg")],
        ["eq", g1, "a", "a", "--depth", "1.5"],
        ["eq", g1, "a", "a", "--method", "magic"],
        ["nf", g1],
        ["nf", str(tmp_path / "missing.sg"), "a"],
        ["extract", g1, "-o", str(tmp_path / "no-such-dir" / "out.is")],
        ["realize", str(tmp_path / "m1.is"), "--seed", "x"],
        ["validate", str(tmp_path)],
        ["validate", str(huge)],
        [],
        ["frobnicate"],
    ):
        run(argv)
    assert not bad, bad[:5]
    assert len(codes) == 741 and {0, 1, 2, 3} <= set(codes)
