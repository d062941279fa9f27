import hashlib
import os
import pickle
import random
import re
import subprocess
import sys

import pytest

import sepmonoid
from sepmonoid.cli import main
from sepmonoid.fixtures import fixture_graph, fixture_text, graph_names
from sepmonoid.graph import (MAX_EXPANDED_EDGES, GraphError, GraphParseError,
                             NotAdaptableError,
                             SepGraph, check_adaptable, condensation,
                             export_dot, parse_graph, remove_edge,
                             require_adaptable, restrict_lower,
                             serialize_graph, split_block)
from sepmonoid.posets import _closure, components_of
from sepmonoid.randgen import corpus_systems, random_adaptable
from sepmonoid.realize import realize
from test_realize import _stress_corpus


def clause_set(g):
    rep = check_adaptable(g)
    assert not rep.ok
    return set(rep.violation_clauses())


def test_parse_roundtrip_fixtures():
    for name in graph_names():
        g = fixture_graph(name)
        assert parse_graph(serialize_graph(g)) == g


def test_parse_multiplicity_sugar():
    g = parse_graph("vertex w\nedge l w w * 3\nblock l\n")
    assert sorted(g.edges) == ["l.1", "l.2", "l.3"]
    assert g.blocks_of["w"] == (("l.1", "l.2", "l.3"),)


def test_parse_caps_multiplicity_edges():
    head = "vertex w\nedge l w w * 3\n"
    assert len(parse_graph(f"vertex v\nedge e v v * {MAX_EXPANDED_EDGES}\n").edges) \
        == MAX_EXPANDED_EDGES
    with pytest.raises(GraphParseError, match="line 3: multiplicities add more"):
        parse_graph(head + "edge e w w * 10001\n")
    # the cap counts the edges of all lines together
    with pytest.raises(GraphParseError, match="line 4: multiplicities add more"):
        parse_graph(head + "edge e w w * 6000\nedge f w w * 6000\n")


def test_parse_errors():
    with pytest.raises(GraphParseError):
        parse_graph("edge e a b\n")          # vertices never declared
    with pytest.raises(GraphParseError):
        parse_graph("vertex a\nblock nope\n")
    with pytest.raises(GraphError):
        SepGraph("aa", [])                   # duplicate vertex
    with pytest.raises(GraphError):
        SepGraph("ab", [("e", "a", "a"), ("f", "b", "b")], [("e", "f")])


@pytest.mark.parametrize("tail, line, message", [
    ("edge e a b * 0\n", 3, "multiplicity must be positive, got 0"),
    ("edge e a b * 1_0\n", 3, "bad multiplicity '1_0'"),
    ("edge e a b * 2\nedge e a b\n", 4, "duplicate edge 'e'"),
    ("edge e a b\nedge e a b * 2\n", 4, "duplicate edge 'e'"),
    ("edge e a b * 2\nedge e.2 b a\n", 4, "duplicate edge 'e.2'"),
    ("edge e a b\nblock\n", 4, "block line needs at least one edge"),
])
def test_parse_errors_name_their_line_and_exit_2(tmp_path, capsys, tail, line, message):
    text = "vertex a\nvertex b\n" + tail
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert (exc.value.line_no, str(exc.value)) == (line, f"line {line}: {message}")
    path = tmp_path / "bad.sg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert f"line {line}: {message}" in capsys.readouterr().err


_ONE_TOKEN = "a name is one token: a nonempty str without whitespace"


@pytest.mark.parametrize("vertices, edges, blocks, message", [
    ("aba", [], [], "duplicate vertex 'a'"),
    ("ab", [("e", "a", "b"), ("e", "b", "a")], [], "duplicate edge 'e'"),
    ("ab", [("e", "x", "b")], [], "edge 'e' has unknown source vertex 'x'"),
    ("ab", [("e", "a", "x")], [], "edge 'e' has unknown target vertex 'x'"),
    ("ab", [("e", "a", "b")], [()], "empty block"),
    ("ab", [("e", "a", "b")], [("f",)], "block mentions unknown edge 'f'"),
    ("ab", [("e", "a", "b")], [("e",), ("e",)], "edge 'e' is in two blocks"),
    ("ab", [("e", "a", "a"), ("f", "b", "b")], [("e", "f")],
     "block ['e', 'f'] mixes edges from different vertices"),
    ("a", [("e", "a")], [], "edge entry ('e', 'a') is not (id, source, target)"),
    ("a", [("e", "a", "a", "x")], [],
     "edge entry ('e', 'a', 'a', 'x') is not (id, source, target)"),
    ("a", {"e": ("a",)}, [], "edge entry ('e', 'a') is not (id, source, target)"),
    # names that would serialize to .sg text parse_graph refuses or misreads
    (["u", "a b"], [], [], f"vertex name 'a b' is reserved: {_ONE_TOKEN}"),
    (["u", "x#y"], [], [], "vertex name 'x#y' is reserved: '#' starts a comment"),
    (["u", ""], [], [], f"vertex name '' is reserved: {_ONE_TOKEN}"),
    (["u", 3], [], [], f"vertex name '3' is reserved: {_ONE_TOKEN}"),
    (["u", "a+b"], [], [],
     "vertex name 'a+b' is reserved: '+' and '*' separate the terms of an element"),
    (["u", "0"], [], [], "vertex name '0' is reserved: '0' is the zero element"),
    ("u", [("e 1", "u", "u")], [], f"edge id 'e 1' is reserved: {_ONE_TOKEN}"),
    ("u", [("e#2", "u", "u")], [], "edge id 'e#2' is reserved: '#' starts a comment"),
])
def test_constructor_errors_name_what_is_wrong(vertices, edges, blocks, message):
    with pytest.raises(GraphError) as exc:
        SepGraph(vertices, edges, blocks)
    assert type(exc.value) is GraphError and str(exc.value) == message


def _edited(g):
    """Copies of g cut down by restrict_lower and remove_edge, or split by split_block."""
    out = [restrict_lower(g, v) for v in g.vertices[:2]]
    out += [remove_edge(g, e) for e in list(g.edges)[:2]]
    return out + [split_block(g, v) for v in g.vertices
                  if g.blocks_of[v] and len(g.blocks_of[v][0]) > 1]


def test_every_built_graph_writes_text_that_parses_back():
    rng = random.Random(45)
    graphs = [fixture_graph(name) for name in graph_names()]
    graphs += [random_adaptable(rng, k) for k in range(6, 65)]
    graphs += [realize(s).graph for s in _stress_corpus(1)]
    graphs += [h for g in graphs for h in _edited(g)]
    assert len(graphs) > 1500, len(graphs)
    for g in graphs:
        assert parse_graph(serialize_graph(g)) == g, serialize_graph(g)


@pytest.mark.parametrize("name", ["0", "a+b", "+", "2*a", "*", "a+"])
def test_parse_rejects_names_the_element_syntax_cannot_address(name):
    with pytest.raises(GraphParseError, match=f"line 2: vertex name '{re.escape(name)}'"):
        parse_graph(f"vertex u\nvertex {name}\nedge e u u\n")


def test_generated_and_realized_vertex_names_are_addressable():
    names = set()
    for name in graph_names():
        names |= set(fixture_graph(name).vertices)
    rng = random.Random(9)
    for _ in range(40):
        names |= set(random_adaptable(rng, max_classes=5).vertices)
    for sysm, _ in corpus_systems(seed=4, count=8):
        g = realize(sysm).graph
        assert parse_graph(serialize_graph(g)) == g
        names |= set(g.vertices)
    assert names and not any(n == "0" or "+" in n or "*" in n for n in names)
    assert "0a" in parse_graph("vertex 0a\nvertex a0\n").vertices


def test_unlisted_edges_become_singleton_blocks():
    g = parse_graph("vertex a\nvertex b\nedge e a a\nedge c a b\n")
    assert g.blocks_of["a"] == (("c",), ("e",))


def test_condensation_classes():
    g = fixture_graph("g3")
    cond = condensation(g)
    assert cond.class_of["u"] == cond.class_of["w"]
    g5 = fixture_graph("g5")
    cond5 = condensation(g5)
    assert len({cond5.class_of[v] for v in g5.vertices}) == 3
    # poset orientation: lower classes lie below
    assert cond5.poset.lt(cond5.class_of["b"], cond5.class_of["a"])


def test_fixtures_adaptable_with_expected_kinds():
    expected = {
        "g1": {"a": "free", "b": "free"},
        "g2": {"w": "regular"},
        "g3": {"u": "regular"},
        "g4": {"b": "free", "w": "regular"},
        "g5": {"a": "free", "a'": "free", "b": "free"},
    }
    for name in graph_names():
        rep = check_adaptable(fixture_graph(name))
        assert rep.ok, name
        got = {cond_class: kind for cond_class, kind in rep.kinds.items()}
        assert got == expected[name], name


@pytest.mark.parametrize("edit, message", [
    (lambda g: restrict_lower(g, "zz"), "unknown vertex or class 'zz'"),
    (lambda g: remove_edge(g, "zz"), "unknown edge 'zz'"),
    (lambda g: split_block(g, "zz"), "block 0 of 'zz' cannot be split"),
    (lambda g: split_block(g, "a", 1), "block 1 of 'a' cannot be split"),
    (lambda g: split_block(g, "a", -1), "block -1 of 'a' cannot be split"),
    (lambda g: split_block(g, "b"), "block 0 of 'b' cannot be split"),
    (lambda g: split_block(remove_edge(g, "c"), "a"), "block 0 of 'a' cannot be split"),
], ids=["restrict-unknown", "remove-unknown", "split-unknown", "split-no-such-block",
        "split-negative-index", "split-a-sink", "split-one-edge"])
def test_graph_edits_name_what_they_cannot_find(edit, message):
    # g1: vertex a with one block {l, c}, over the sink b
    with pytest.raises(GraphError) as exc:
        edit(fixture_graph("g1"))
    assert str(exc.value) == message


def test_require_adaptable_raises():
    g = remove_edge(fixture_graph("g1"), "l")
    with pytest.raises(NotAdaptableError):
        require_adaptable(g)


# one mutation per row: fixture, edit, exact clause set
def _g(name):
    return fixture_graph(name)


MUTATIONS = [
    ("g1 without its loop",
     lambda: remove_edge(_g("g1"), "l"),
     {"A-free-shape", "A-regular-degree"}),
    ("g1 without its connector",
     lambda: remove_edge(_g("g1"), "c"),
     {"A-free-shape", "A-free-minimal", "A-regular-degree"}),
    ("g2 cut down to one loop",
     lambda: remove_edge(remove_edge(_g("g2"), "l.1"), "l.2"),
     {"A-free-shape", "A-free-minimal", "A-regular-degree"}),
    ("g2 with its block split 1+2",
     lambda: split_block(_g("g2"), "w", 0),
     {"A-free-shape", "A-free-minimal", "A-regular-Cw"}),
    ("g3 with u's block split",
     lambda: split_block(_g("g3"), "u", 0),
     {"A-partition", "A-regular-Cw"}),
    ("g3 without u's loops",
     lambda: remove_edge(remove_edge(_g("g3"), "lu.1"), "lu.2"),
     {"A-regular-degree"}),
    ("g4 without w's loops",
     lambda: remove_edge(remove_edge(_g("g4"), "l.1"), "l.2"),
     {"A-free-shape", "A-regular-degree"}),
    ("g5 with a's block split",
     lambda: split_block(_g("g5"), "a", 0),
     {"A-free-shape", "A-regular-Cw", "A-regular-degree"}),
    ("g5 without a''s loop",
     lambda: remove_edge(_g("g5"), "lb"),
     {"A-free-shape", "A-regular-degree"}),
]


@pytest.mark.parametrize("label,build,expected",
                         MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_mutation_clauses(label, build, expected):
    assert clause_set(build()) == expected


def test_mutations_cover_every_clause():
    seen = set()
    for _, _, expected in MUTATIONS:
        seen |= expected
    assert seen == {"A-free-shape", "A-free-minimal", "A-regular-Cw",
                    "A-regular-degree", "A-partition"}


def test_violations_carry_details():
    rep = check_adaptable(remove_edge(fixture_graph("g1"), "l"))
    for v in rep.violations:
        assert v.clause
        assert v.detail


def test_restrict_lower():
    g = fixture_graph("g5")
    sub = restrict_lower(g, "b")
    assert sub.vertices == ("b",)
    sub2 = restrict_lower(g, "a")
    assert set(sub2.vertices) == {"a", "b"}


def test_export_dot_mentions_blocks():
    g = fixture_graph("g3")
    dot = export_dot(g)
    assert "digraph" in dot
    for e in g.edges:
        assert e in dot


_DOT_QUOTED = r'"(?:[^"\\]|\\.)*"'


def test_export_dot_escapes_quotes_and_backslashes():
    # parse_graph takes any token as a name; in DOT each is one quoted id
    g = parse_graph('vertex a"b\nvertex c\\\nedge e" a"b c\\\nedge \\"f c\\ c\\\n')
    vertex_line = re.compile(rf'  ({_DOT_QUOTED}) \[style=filled, fillcolor="\w+"\];')
    edge_line = re.compile(rf'  ({_DOT_QUOTED}) -> ({_DOT_QUOTED}) '
                           rf'\[color="#[0-9a-f]{{6}}", label=({_DOT_QUOTED})\];')
    lines = export_dot(g).splitlines()
    assert lines[:2] == ["digraph sepgraph {", "  rankdir=LR;"] and lines[-1] == "}"
    vertices, edges = [], []
    for line in lines[2:-1]:
        m = vertex_line.fullmatch(line) or edge_line.fullmatch(line)
        assert m, line
        names = [re.sub(r"\\(.)", r"\1", q[1:-1]) for q in m.groups()]
        (vertices if len(names) == 1 else edges).append(names)
    assert vertices == [[v] for v in g.vertices] == [['a"b'], ["c\\"]]
    assert sorted(edges) == sorted([s, d, e] for e, (s, d) in g.edges.items())


def test_graph_unpickles_with_this_process_hash():
    # SepGraph stores its hash, and string hashes differ between processes
    code = ("import pickle, sys; from sepmonoid.fixtures import fixture_graph; "
            "sys.stdout.buffer.write(pickle.dumps(fixture_graph('g5')))")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(sepmonoid.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    data = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          env=env).stdout
    g = pickle.loads(data)
    assert g == fixture_graph("g5")
    assert hash(g) == hash(fixture_graph("g5"))


def test_scc_agrees_with_networkx():
    # an independent oracle, on random adaptable graphs and on copies with
    # one edge removed, which can split a class
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(100):
        g = random_adaptable(rng, 6)
        cut = [remove_edge(g, rng.choice(sorted(g.edges)))] if g.edges else []
        for h in [g] + cut:
            d = nx.MultiDiGraph()
            d.add_nodes_from(h.vertices)
            d.add_edges_from(h.edges.values())
            theirs = {frozenset(c) for c in nx.strongly_connected_components(d)}
            ours = list(condensation(h).members.values())
            assert {frozenset(c) for c in ours} == theirs
            assert len(ours) == len(theirs)


def _one_edge_cuts(rng, count, max_classes=6):
    """The graphs of test_scc_agrees_with_networkx: random adaptable ones,
    each followed by a copy with one edge removed."""
    for _ in range(count):
        g = random_adaptable(rng, max_classes)
        yield g
        if g.edges:
            yield remove_edge(g, rng.choice(sorted(g.edges)))


def test_condensation_order_agrees_with_networkx():
    # the removed edge can split a class and leave a non-adaptable graph
    nx = pytest.importorskip("networkx")
    for h in _one_edge_cuts(random.Random(5), 100):
        d = nx.DiGraph()
        d.add_nodes_from(h.vertices)
        d.add_edges_from(h.edges.values())
        dag = nx.condensation(d)
        node = dag.graph["mapping"]
        cond = condensation(h)
        assert sorted(cond.poset) == sorted(cond.members)
        for a in cond.poset:
            for b in cond.poset:
                assert cond.poset.le(a, b) == nx.has_path(dag, node[b], node[a])


def test_condensation_output_is_pinned():
    # taken before condensation closed its order in Tarjan order
    h = hashlib.sha256()
    for s in range(200):
        g = random_adaptable(random.Random(s))
        for k in [g] + [remove_edge(g, e) for e in g.edges]:
            rep = check_adaptable(k)
            cond = rep.condensation
            for part in (rep, list(cond.members.items()), list(cond.class_of.items()),
                         cond.poset.elements, cond.poset.covers()):
                h.update(repr(part).encode())
                h.update(b"\0")
    assert h.hexdigest() == "66ffe2abdfa2d51076724dd546245335a547fd7972b02b82bd75a8d498a88e12"


def test_out_edges_index_matches_the_edge_scan():
    # the index g._out lists each vertex's out-edges, sorted by id, as an
    # edge scan does, and has no other keys
    graphs = [fixture_graph(name) for name in graph_names()]
    rng = random.Random(20260819)       # the acceptance corpus
    graphs += [random_adaptable(rng, max_classes=6) for _ in range(20)]
    graphs += [realize(sysm).graph for sysm, _ in corpus_systems(5, count=50)]
    for g in graphs:
        assert list(g._out) == list(g.vertices)
        for v in g.vertices:
            assert g._out[v] == [e for e, (s, _) in g.edges.items() if s == v]


def test_a_mixed_source_block_is_reported_at_its_line():
    text = "vertex a\nvertex b\nvertex c\nedge e a b\nedge f c b\nblock e f\n"
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert exc.value.line_no == 6
    assert str(exc.value) == "line 6: block ['e', 'f'] mixes edges from different vertices"


def _fuzzed_sg_texts(rng, count):
    """Mutated serializations of random adaptable graphs, and token soup:
    lines of directives, names, edge ids, '*', counts and comments."""
    names = ["a", "b", "c", "e", "e.1", "e.2", "f", "u", "0", "a+b", "2*a", "*", "-1", "0", "2",
             "3", "x", "#", "vertex", "edge", "block"]
    for i in range(count):
        if i % 4 == 3:
            lines = [" ".join(rng.choice(names) for _ in range(rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 8))]
            yield "\n".join(lines) + "\n"
            continue
        lines = serialize_graph(random_adaptable(rng, 3)).splitlines()
        tokens = sorted({t for ln in lines for t in ln.split()}) + names
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(len(lines))
            op = rng.choice(["drop", "repeat", "swap", "token", "insert", "multiply"])
            if op == "drop":
                del lines[j]
            elif op == "repeat":
                lines.insert(rng.randrange(len(lines) + 1), lines[j])
            elif op == "swap":
                k = rng.randrange(len(lines))
                lines[j], lines[k] = lines[k], lines[j]
            else:
                words = lines[j].split()
                if op == "token":
                    words[rng.randrange(len(words))] = rng.choice(tokens)
                elif op == "insert":
                    words.insert(rng.randint(0, len(words)), rng.choice(tokens))
                else:
                    words += ["*", rng.choice(["0", "1", "2", "3", "x"])]
                lines[j] = " ".join(words)
            if not lines:
                break
        yield "\n".join(lines) + "\n"


def test_fuzzed_texts_fail_at_a_line_or_build():
    # parse_graph reports every error the SepGraph constructor could raise
    # at its own line: no error names line 0, and every accepted text builds
    outcomes = {"error": 0, "built": 0}
    messages = set()
    for text in _fuzzed_sg_texts(random.Random(38), 2000):
        try:
            g = parse_graph(text)
        except GraphParseError as exc:
            assert exc.line_no >= 1, (text, str(exc))
            outcomes["error"] += 1
            messages.add(re.sub("'[^']*'|\\[.*\\]|-?\\d+", "_", str(exc).split(": ", 1)[1]))
            continue
        assert type(g) is SepGraph and parse_graph(serialize_graph(g)) == g, text
        outcomes["built"] += 1
    assert outcomes["error"] > 1500 and outcomes["built"] > 150, outcomes
    assert len(messages) >= 12, sorted(messages)


# ------------------------------------------- one round of checks per graph


def _reference_build(vertices, ends, blocks):
    """What a graph built from checked input (ends: id -> (src, dst)) holds,
    as the constructor computed it before it was split into checks and one
    building routine: (vertices, edge items, blocks_of, _out)."""
    vs = tuple(sorted(vertices))
    emap = dict(sorted(ends.items()))
    declared, placed = {}, set()
    for ids in blocks:
        placed |= set(ids)
        declared.setdefault(emap[ids[0]][0], []).append(tuple(sorted(ids)))
    out = {v: [e for e, (s, _) in emap.items() if s == v] for v in vs}
    for e, (s, _) in emap.items():
        if e not in placed:
            declared.setdefault(s, []).append((e,))
    return vs, list(emap.items()), {v: tuple(sorted(declared.get(v, ()))) for v in vs}, out


def _parsed_texts():
    """.sg texts: the fixtures, 300 random graphs with and without their
    one-edge block lines, realized graphs and the fuzz test's texts."""
    texts = [fixture_text(f"{name}.sg") for name in graph_names()]
    rng = random.Random(40)
    for _ in range(300):
        text = serialize_graph(random_adaptable(rng, rng.randint(1, 6)))
        texts.append(text)
        texts.append("".join(ln for ln in text.splitlines(True)
                             if not (ln.startswith("block ") and len(ln.split()) == 2)))
    texts += [serialize_graph(realize(sysm).graph) for sysm, _ in corpus_systems(5, count=20)]
    return texts + list(_fuzzed_sg_texts(random.Random(38), 2000))


def test_parsed_graphs_equal_the_checked_constructors_graphs():
    # parse_graph and the constructor feed one gate and build with one
    # routine: on every accepted text the parsed graph is the constructor's
    # graph on its own parts, and what the reference build computes
    built = 0
    for text in _parsed_texts():
        try:
            g = parse_graph(text)
        except GraphParseError:
            continue
        blocks = [blk for v in g.vertices for blk in g.blocks_of[v]]
        checked = SepGraph(g.vertices, g.edges, blocks)
        want = _reference_build(g.vertices, g.edges, blocks)
        for h in (g, checked):
            assert (h.vertices, list(h.edges.items()), h.blocks_of, h._out) == want, text
        assert g._equality_key() == checked._equality_key() and g == checked
        built += 1
    assert built > 800, built


def _reference_report(g):
    """(ok, kinds, violations as triples) as the eager defect build gave
    them: both defect lists formatted for every class."""
    cond = condensation(g)
    kinds, violations = {}, []
    for cid, members in sorted(cond.members.items()):
        mset = set(members)
        rdef = []
        for w in members:
            if len(g.blocks_of[w]) != 1:
                rdef.append(("A-regular-Cw", cid, f"{w} has {len(g.blocks_of[w])} blocks, "
                                                  "a regular vertex needs exactly one"))
            internal = sum(1 for e in g._out[w] if g.edges[e][1] in mset)
            if internal < 2:
                rdef.append(("A-regular-degree", cid,
                             f"{w} has internal out-degree {internal}, needs at least 2"))
        fdef = []
        if len(members) == 1:
            v = members[0]
            conns_total = 0
            for blk in g.blocks_of[v]:
                loops = [e for e in blk if g.edges[e][1] == v]
                conns = [e for e in blk if g.edges[e][1] != v]
                conns_total += len(conns)
                if len(loops) != 1 or not conns:
                    fdef.append(("A-free-shape", cid,
                                 f"block ({' '.join(blk)}) at {v} has {len(loops)} loop(s) "
                                 f"and {len(conns)} connector(s)"))
            if g.blocks_of[v] and not conns_total:
                fdef.append(("A-free-minimal", cid, f"{v} has out-edges but no connectors, "
                                                    "so it cannot be a minimal free vertex"))
            if not fdef:
                kinds[cid] = "free"
                continue
        if not rdef:
            kinds[cid] = "regular"
            continue
        violations += fdef + rdef
        if len(members) > 1 and any(c == "A-regular-Cw" for c, _, _ in rdef):
            violations.append(("A-partition", cid, f"class {cid} has more than one vertex, "
                                                   "so its block structure admits no free "
                                                   "refinement"))
    return not violations, kinds, violations


def test_decided_kinds_and_violations_match_the_full_defect_build():
    rng = random.Random(41)
    graphs = [build() for _, build, _ in MUTATIONS]
    for _ in range(200):
        g = random_adaptable(rng, rng.randint(1, 6))
        graphs += [g] + [remove_edge(g, e) for e in g.edges]
    seen = {"free": 0, "regular": 0, "violated": 0}
    for g in graphs:
        rep = check_adaptable(g)
        ok, kinds, violations = _reference_report(g)
        assert (rep.ok, rep.kinds) == (ok, kinds)
        assert [(v.clause, v.class_id, v.detail) for v in rep.violations] == violations
        for kind in kinds.values():
            seen[kind] += 1
        seen["violated"] += len({cid for _, cid, _ in violations})
    assert min(seen.values()) > 300, seen


def test_components_come_out_in_order_on_parallel_edges():
    # the successor lists name each target once; Tarjan's emission order is
    # the order over the lists with one entry per parallel edge
    rng = random.Random(42)
    for _ in range(200):
        g = random_adaptable(rng, rng.randint(1, 6))
        if g.edges:
            g = remove_edge(g, rng.choice(sorted(g.edges)))
        adj = {v: sorted(g.edges[e][1] for e in g._out[v]) for v in g.vertices}
        reach, class_of = _closure(adj, components_of(adj))
        cond = condensation(g)
        assert list(cond.members.values()) == list(map(tuple, components_of(adj)))
        assert cond.class_of == class_of
        assert {c: cond.poset.downset(c) for c in reach} == reach
