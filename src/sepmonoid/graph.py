"""Separated graphs: directed multigraphs with partitioned out-edges.

A separated graph carries, for every non-sink vertex, a partition of its
out-edges into blocks.  The text format (.sg) is line oriented:

    # comment
    vertex a
    edge e1 a a
    edge e2 a b * 3        # three parallel copies named e2.1 e2.2 e2.3
    block e1 e2.1

Out-edges not mentioned in any block line end up in singleton blocks.
"""

from __future__ import annotations

from .posets import Poset, _closure, components_of
from .records import FrozenRecord, Record


# edges that "* N" multiplicities may add to one .sg text, all lines together
MAX_EXPANDED_EDGES = 10_000


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NotAdaptableError(GraphError):
    pass


def _reserved(name, addressed=True) -> str | None:
    """Why no .sg or .is token can carry `name`, or, if it is `addressed`,
    why the element syntax (`2*a+b`, `0`) cannot name it; None if neither."""
    if not isinstance(name, str) or name.split() != [name]:
        return "a name is one token: a nonempty str without whitespace"
    if "#" in name:
        return "'#' starts a comment"
    if addressed and name == "0":
        return "'0' is the zero element"
    if addressed and ("+" in name or "*" in name):
        return "'+' and '*' separate the terms of an element"


def _refuse_reserved(names: list, what: str, error=GraphError, addressed=True):
    """Raise `error` for the first of `names` that `_reserved` rejects; the
    names are looked at one by one only if their join shows such a name."""
    try:
        joined = " ".join(names)
    except TypeError:   # a name that is not a str: look at each one
        joined = "#"
    if joined.split() != names or "#" in joined or addressed and (
            "+" in joined or "*" in joined or "0" in names):
        for name in names:
            if why := _reserved(name, addressed):
                raise error(f"{what} '{name}' is reserved: {why}")


def _decimal(text: str) -> int:
    """int(text) for ASCII -?[0-9]+ only: int() also reads '1_0', ' 1', '+1' and other digits."""
    if not (digits := text.removeprefix("-")).isascii() or not digits.isdigit():
        raise ValueError(text)
    return int(text)


class _Gate:
    """The one check of a graph's structure: fed vertex names, then edges,
    then blocks, in any number of calls, it checks and records each item
    for `SepGraph._build`, and raises a GraphError that names a fault."""

    def __init__(self):
        self.vertices, self.vset, self.ends, self.blocks, self.placed = [], set(), {}, [], set()

    def add_vertices(self, names: list):
        vs, vset = self.vertices, self.vset
        vs += names
        vset.update(names)
        if len(vset) != len(vs):
            dup = sorted(v for v in vset if vs.count(v) > 1)[0]
            raise GraphError(f"duplicate vertex '{dup}'")
        if "0" in vset or "+" in (joined := "".join(names)) or "*" in joined:
            _refuse_reserved(names, "vertex name")

    def add_edges(self, entries):
        vset, ends = self.vset, self.ends
        for x in entries:
            try:
                e, s, d = x
            except ValueError:
                raise GraphError(f"edge entry {x!r} is not (id, source, target)") from None
            if e in ends:
                raise GraphError(f"duplicate edge '{e}'")
            if s not in vset:
                raise GraphError(f"edge '{e}' has unknown source vertex '{s}'")
            if d not in vset:
                raise GraphError(f"edge '{e}' has unknown target vertex '{d}'")
            ends[e] = (s, d)

    def add_blocks(self, blocks):
        ends, placed = self.ends, self.placed
        for blk in blocks:
            ids = tuple(blk)
            if not ids:
                raise GraphError("empty block")
            srcs = set()
            for e in ids:
                if e not in ends:
                    raise GraphError(f"block mentions unknown edge '{e}'")
                if e in placed:
                    raise GraphError(f"edge '{e}' is in two blocks")
                placed.add(e)
                srcs.add(ends[e][0])
            if len(srcs) != 1:
                raise GraphError(f"block {sorted(ids)} mixes edges from different vertices")
            self.blocks.append(ids)


class SepGraph:
    """Immutable separated graph.

    vertices: iterable of names.
    edges: mapping id -> (src, dst) or iterable of (id, src, dst).
    blocks: iterable of edge-id collections; unlisted edges become singletons.
    Every name must be one that .sg text can carry (`_reserved`); the
    other checks are `_Gate`'s, which `parse_graph` feeds too.
    """

    def __init__(self, vertices, edges, blocks=()):
        gate = _Gate()
        vs = list(vertices)
        _refuse_reserved(vs, "vertex name", addressed=False)
        gate.add_vertices(vs)
        gate.add_edges([(e, *t) for e, t in edges.items()] if hasattr(edges, "items") else edges)
        _refuse_reserved(list(gate.ends), "edge id", addressed=False)
        gate.add_blocks(blocks)
        self._build(gate)

    def _build(self, gate: _Gate):
        """Fill in this graph from the input that `gate` checked; returns it."""
        self.vertices = tuple(sorted(gate.vertices))
        self.edges = emap = dict(sorted(gate.ends.items()))
        declared = {}
        for ids in gate.blocks:
            declared.setdefault(emap[ids[0]][0], []).append(tuple(sorted(ids)))
        # out-edge index: self.edges is sorted by id, so each list is too
        self._out = out = {v: [] for v in self.vertices}
        for e, (s, _) in emap.items():
            out[s].append(e)
            if e not in gate.placed:
                declared.setdefault(s, []).append((e,))
        self.blocks_of = {v: tuple(sorted(declared.get(v, ()))) for v in self.vertices}
        self._key = None                # built on the first __eq__ or __hash__
        self._derived = {}
        return self

    def derived(self, build):
        """build(self), built once per graph object and shared: do not mutate it."""
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    def is_sink(self, v) -> bool:
        return not self.blocks_of[v]

    def _equality_key(self):
        if self._key is None:
            self._key = (self.vertices, tuple(self.edges.items()),
                         tuple((v, self.blocks_of[v]) for v in self.vertices))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, SepGraph):
            return NotImplemented
        return self._equality_key() == other._equality_key()

    def __hash__(self):
        return hash(self._equality_key())

    def __reduce__(self):
        # rebuild on unpickling, which starts an empty memo of derived results
        blocks = [blk for v in self.vertices for blk in self.blocks_of[v]]
        return type(self), (self.vertices, self.edges, blocks)

    def __repr__(self):
        return f"SepGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


# ---------------------------------------------------------------- text form


def parse_graph(text: str) -> SepGraph:
    """The graph of a .sg text.  The parser reads only syntax and feeds each
    line to the `_Gate` that `SepGraph(...)` feeds, so every fault is a
    GraphParseError at its line, in the constructor's words."""
    gate = _Gate()
    multi = {}  # base id -> expanded ids
    expanded = 0
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            kind, args = tokens[0], tokens[1:]
            if kind == "vertex":
                if len(args) != 1:
                    raise GraphError("vertex line needs exactly one name")
                gate.add_vertices(args)
            elif kind == "edge":
                if len(args) == 5 and args[3] == "*":
                    try:
                        count = _decimal(args[4])
                    except ValueError:
                        raise GraphError(f"bad multiplicity '{args[4]}'") from None
                    if count < 1:
                        raise GraphError(f"multiplicity must be positive, got {count}")
                    expanded += count
                    if expanded > MAX_EXPANDED_EDGES:
                        raise GraphError(
                            f"multiplicities add more than {MAX_EXPANDED_EDGES} edges")
                elif len(args) == 3:
                    count = 1
                else:
                    raise GraphError("edge line needs: edge <id> <src> <dst> [* <n>]")
                eid, src, dst = edge = args[:3]
                if eid in multi or (count > 1 and eid in gate.ends):
                    raise GraphError(f"duplicate edge '{eid}'")
                if count > 1:
                    multi[eid] = ids = [f"{eid}.{i}" for i in range(1, count + 1)]
                gate.add_edges([(nid, src, dst) for nid in ids] if count > 1 else (edge,))
            elif kind == "block":
                if not args:
                    raise GraphError("block line needs at least one edge")
                ids = []
                for tok in args:
                    if tok not in multi and tok not in gate.ends:
                        raise GraphError(f"unknown edge '{tok}'")
                    ids += multi.get(tok, (tok,))
                gate.add_blocks((ids,))
            else:
                raise GraphError(f"unknown directive '{kind}'")
    except GraphError as exc:
        raise GraphParseError(line_no, str(exc)) from None
    return SepGraph.__new__(SepGraph)._build(gate)


def serialize_graph(g: SepGraph) -> str:
    lines = []
    for v in g.vertices:
        lines.append(f"vertex {v}")
    for e, (s, d) in g.edges.items():          # sorted by id
        lines.append(f"edge {e} {s} {d}")
    for v in g.vertices:
        for blk in g.blocks_of[v]:
            lines.append("block " + " ".join(blk))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- condensation


class Condensation(Record):
    def __init__(self, class_of: dict, members: dict, poset: Poset):
        self.class_of = class_of    # vertex -> class id
        self.members = members      # class id -> tuple of vertices
        self.poset = poset          # class ids; le(a, b) means b reaches a


def condensation(g: SepGraph) -> Condensation:
    edges = g.edges
    adj = {v: sorted({edges[e][1] for e in out}) for v, out in g._out.items()}
    comps = components_of(adj)
    down, class_of = _closure(adj, comps)
    members = {comp[0]: tuple(comp) for comp in comps}
    return Condensation(class_of, members, Poset._closed(down))


# -------------------------------------------------------------- adaptability


class Violation(FrozenRecord):
    def __init__(self, clause: str, class_id: str, detail: str):
        d = self.__dict__
        d["clause"], d["class_id"], d["detail"] = clause, class_id, detail


class AdaptabilityReport(Record):
    _hidden = ("condensation",)

    def __init__(self, ok: bool, kinds: dict, violations: list,
                 condensation: Condensation = None):
        self.ok = ok
        self.kinds = kinds                # class id -> "free" | "regular"
        self.violations = violations
        self.condensation = condensation

    def violation_clauses(self):
        return sorted({v.clause for v in self.violations})


def _free_defects(g, v):
    """The A-free clauses that v breaks as a free vertex, lazily, each as
    (clause, detail template, its arguments): a class's kind is decided
    on its first defect, and details are formatted only when reported."""
    edges = g.edges
    total_connectors = 0
    for blk in g.blocks_of[v]:
        loops = 0
        for e in blk:
            loops += edges[e][1] == v
        conns = len(blk) - loops
        total_connectors += conns
        if loops != 1 or not conns:
            yield ("A-free-shape", "block ({}) at {} has {} loop(s) and {} connector(s)",
                   (" ".join(blk), v, loops, conns))
    if g.blocks_of[v] and total_connectors == 0:
        yield ("A-free-minimal",
               "{} has out-edges but no connectors, so it cannot be a minimal free vertex", (v,))


def _regular_defects(g, members):
    """The A-regular clauses that the class members break, as _free_defects."""
    edges = g.edges
    mset = set(members)
    for w in members:
        nblocks = len(g.blocks_of[w])
        if nblocks != 1:
            yield ("A-regular-Cw", "{} has {} blocks, a regular vertex needs exactly one",
                   (w, nblocks))
        internal = 0
        for e in g._out[w]:
            internal += edges[e][1] in mset
        if internal < 2:
            yield ("A-regular-degree", "{} has internal out-degree {}, needs at least 2",
                   (w, internal))


def check_adaptable(g: SepGraph) -> AdaptabilityReport:
    """The report of g, built once per graph object and shared: callers
    must not mutate it or its condensation."""
    return g.derived(_adaptability_report)


def _adaptability_report(g: SepGraph) -> AdaptabilityReport:
    cond = condensation(g)
    kinds = {}
    violations = []
    for cid, members in sorted(cond.members.items()):
        single = len(members) == 1
        if single and next(_free_defects(g, members[0]), None) is None:
            kinds[cid] = "free"
        elif next(_regular_defects(g, members), None) is None:
            kinds[cid] = "regular"
        else:
            rdef = list(_regular_defects(g, members))
            defects = list(_free_defects(g, members[0])) + rdef if single else rdef
            if not single and any(clause == "A-regular-Cw" for clause, _, _ in rdef):
                defects.append((
                    "A-partition", "class {} has more than one vertex, so its block "
                    "structure admits no free refinement", (cid,)))
            violations += [Violation(clause, cid, detail.format(*args))
                           for clause, detail, args in defects]
    return AdaptabilityReport(not violations, kinds, violations, cond)


def require_adaptable(g: SepGraph) -> AdaptabilityReport:
    report = check_adaptable(g)
    if not report.ok:
        clauses = ", ".join(report.violation_clauses())
        raise NotAdaptableError(f"graph is not adaptable: {clauses}")
    return report


# ------------------------------------------------------------------- tools


def restrict_lower(g: SepGraph, at) -> SepGraph:
    """Induced subgraph on everything reachable from the class of `at`."""
    cond = check_adaptable(g).condensation
    if at in cond.members:
        cid = at
    elif at in cond.class_of:
        cid = cond.class_of[at]
    else:
        raise GraphError(f"unknown vertex or class '{at}'")
    keep_classes = cond.poset.downset(cid)
    keep = {v for c in keep_classes for v in cond.members[c]}
    edges = [(e, s, d) for e, (s, d) in g.edges.items() if s in keep]
    blocks = [blk for v in sorted(keep) for blk in g.blocks_of[v]]
    return SepGraph(sorted(keep), edges, blocks)


def remove_edge(g: SepGraph, eid: str) -> SepGraph:
    """Copy of g without one edge (its block shrinks, empty blocks vanish)."""
    if eid not in g.edges:
        raise GraphError(f"unknown edge '{eid}'")
    edges = [(e, s, d) for e, (s, d) in g.edges.items() if e != eid]
    blocks = []
    for v in g.vertices:
        for blk in g.blocks_of[v]:
            rest = tuple(e for e in blk if e != eid)
            if rest:
                blocks.append(rest)
    return SepGraph(g.vertices, edges, blocks)


def split_block(g: SepGraph, vertex: str, index: int = 0) -> SepGraph:
    """Copy of g with one block of `vertex` split: first edge vs the rest."""
    blks = g.blocks_of.get(vertex, ())
    if not 0 <= index < len(blks) or len(blks[index]) < 2:
        raise GraphError(f"block {index} of '{vertex}' cannot be split")
    blocks = []
    for v in g.vertices:
        for i, blk in enumerate(g.blocks_of[v]):
            if v == vertex and i == index:
                blocks.append((blk[0],))
                blocks.append(tuple(blk[1:]))
            else:
                blocks.append(blk)
    return SepGraph(g.vertices, [(e, s, d) for e, (s, d) in g.edges.items()], blocks)


_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)


def export_dot(g: SepGraph) -> str:
    def quoted(name):   # a DOT quoted string: backslash and double quote escaped
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    report = check_adaptable(g)
    cond = report.condensation
    lines = ["digraph sepgraph {", "  rankdir=LR;"]
    for v in g.vertices:
        kind = report.kinds.get(cond.class_of[v])
        fill = {"free": "lightblue", "regular": "lightsalmon"}.get(kind, "lightgray")
        lines.append(f'  {quoted(v)} [style=filled, fillcolor="{fill}"];')
    # colours go by sorted (vertex, block) pairs, the order of this list
    blocks = [blk for v in g.vertices for blk in g.blocks_of[v]]
    for i, blk in enumerate(blocks):
        col = _PALETTE[i % len(_PALETTE)]
        for e in blk:
            s, d = g.edges[e]
            lines.append(f'  {quoted(s)} -> {quoted(d)} [color="{col}", label={quoted(e)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
