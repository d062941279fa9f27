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


def _unaddressable(name: str) -> str | None:
    """Why the element syntax (`2*a+b`, `0`) cannot name `name`, or None."""
    if name == "0":
        return "'0' is the zero element"
    if "+" in name or "*" in name:
        return "'+' and '*' separate the terms of an element"
    return None


class SepGraph:
    """Immutable separated graph.

    vertices: iterable of names.
    edges: mapping id -> (src, dst) or iterable of (id, src, dst).
    blocks: iterable of edge-id collections; unlisted edges become singletons.
    """

    def __init__(self, vertices, edges, blocks=()):
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            dup = sorted(v for v in set(vs) if vs.count(v) > 1)[0]
            raise GraphError(f"duplicate vertex '{dup}'")
        self.vertices = tuple(sorted(vs))
        vset = set(self.vertices)
        if hasattr(edges, "items"):
            items = [(e, s, d) for e, (s, d) in edges.items()]
        else:
            items = [tuple(x) for x in edges]
        emap = {}
        for e, s, d in items:
            if e in emap:
                raise GraphError(f"duplicate edge '{e}'")
            if s not in vset:
                raise GraphError(f"edge '{e}' has unknown source vertex '{s}'")
            if d not in vset:
                raise GraphError(f"edge '{e}' has unknown target vertex '{d}'")
            emap[e] = (s, d)
        self.edges = dict(sorted(emap.items()))
        placed = {}
        declared = {}
        for blk in blocks:
            ids = tuple(blk)
            if not ids:
                raise GraphError("empty block")
            srcs = set()
            for e in ids:
                if e not in self.edges:
                    raise GraphError(f"block mentions unknown edge '{e}'")
                if e in placed:
                    raise GraphError(f"edge '{e}' is in two blocks")
                placed[e] = True
                srcs.add(self.edges[e][0])
            if len(srcs) != 1:
                raise GraphError(f"block {sorted(ids)} mixes edges from different vertices")
            declared.setdefault(srcs.pop(), []).append(tuple(sorted(ids)))
        # out-edge index: self.edges is sorted by id, so each list is too
        self._out = {v: [] for v in self.vertices}
        for e, (s, _) in self.edges.items():
            self._out[s].append(e)
            if e not in placed:
                declared.setdefault(s, []).append((e,))
        self.blocks_of = {v: tuple(sorted(declared.get(v, ()))) for v in self.vertices}
        self._key = None                # built on the first __eq__ or __hash__
        self._derived = {}

    def derived(self, build):
        """build(self), built once per graph object and shared: do not mutate it."""
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    def out_edges(self, v):
        return list(self._out.get(v, ()))

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
    vertices = []
    edges = []
    blocks = []
    multi = {}  # base id -> expanded ids
    expanded = 0
    seen_v = set()
    source = {}  # edge id -> its source vertex
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise GraphParseError(line_no, "vertex line needs exactly one name")
            if args[0] in seen_v:
                raise GraphParseError(line_no, f"duplicate vertex '{args[0]}'")
            why = _unaddressable(args[0])
            if why:
                raise GraphParseError(line_no, f"vertex name '{args[0]}' is reserved: {why}")
            seen_v.add(args[0])
            vertices.append(args[0])
        elif kind == "edge":
            if len(args) == 5 and args[3] == "*":
                eid, src, dst = args[0], args[1], args[2]
                try:
                    count = int(args[4])
                except ValueError:
                    raise GraphParseError(line_no, f"bad multiplicity '{args[4]}'") from None
                if count < 1:
                    raise GraphParseError(line_no, f"multiplicity must be positive, got {count}")
                expanded += count
                if expanded > MAX_EXPANDED_EDGES:
                    raise GraphParseError(
                        line_no, f"multiplicities add more than {MAX_EXPANDED_EDGES} edges")
            elif len(args) == 3:
                eid, src, dst = args
                count = 1
            else:
                raise GraphParseError(line_no, "edge line needs: edge <id> <src> <dst> [* <n>]")
            if src not in seen_v:
                raise GraphParseError(line_no, f"unknown vertex '{src}'")
            if dst not in seen_v:
                raise GraphParseError(line_no, f"unknown vertex '{dst}'")
            if eid in multi or (count > 1 and eid in source):
                raise GraphParseError(line_no, f"duplicate edge '{eid}'")
            new_ids = [eid] if count == 1 else [f"{eid}.{i}" for i in range(1, count + 1)]
            if count > 1:
                multi[eid] = list(new_ids)
            for nid in new_ids:
                if nid in source:
                    raise GraphParseError(line_no, f"duplicate edge '{nid}'")
                source[nid] = src
                edges.append((nid, src, dst))
        elif kind == "block":
            if not args:
                raise GraphParseError(line_no, "block line needs at least one edge")
            ids = []
            for tok in args:
                if tok in multi:
                    ids.extend(multi[tok])
                elif tok in source:
                    ids.append(tok)
                else:
                    raise GraphParseError(line_no, f"unknown edge '{tok}'")
            blocks.append((line_no, tuple(ids)))
        else:
            raise GraphParseError(line_no, f"unknown directive '{kind}'")
    placed = set()
    for line_no, ids in blocks:
        first = source[ids[0]]
        for e in ids:
            if e in placed:
                raise GraphParseError(line_no, f"edge '{e}' is in two blocks")
            if source[e] != first:
                raise GraphParseError(
                    line_no, f"block {sorted(ids)} mixes edges from different vertices")
            placed.add(e)
    return SepGraph(vertices, edges, [ids for _, ids in blocks])


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


def _successors(g: SepGraph):
    edges = g.edges
    return {v: sorted([edges[e][1] for e in out]) for v, out in g._out.items()}


def strongly_connected_components(g: SepGraph):
    return components_of(_successors(g))


def condensation(g: SepGraph) -> Condensation:
    adj = _successors(g)
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


def _free_defects(g, cid, v):
    defects = []
    total_connectors = 0
    for blk in g.blocks_of[v]:
        loops = [e for e in blk if g.edges[e][1] == v]
        conns = [e for e in blk if g.edges[e][1] != v]
        total_connectors += len(conns)
        if len(loops) != 1 or not conns:
            defects.append(Violation(
                "A-free-shape", cid,
                f"block ({' '.join(blk)}) at {v} has {len(loops)} loop(s) and {len(conns)} connector(s)"))
    if g.blocks_of[v] and total_connectors == 0:
        defects.append(Violation(
            "A-free-minimal", cid,
            f"{v} has out-edges but no connectors, so it cannot be a minimal free vertex"))
    return defects


def _regular_defects(g, cid, members):
    defects = []
    mset = set(members)
    for w in members:
        nblocks = len(g.blocks_of[w])
        if nblocks != 1:
            defects.append(Violation(
                "A-regular-Cw", cid,
                f"{w} has {nblocks} blocks, a regular vertex needs exactly one"))
        internal = sum(1 for e in g._out[w] if g.edges[e][1] in mset)
        if internal < 2:
            defects.append(Violation(
                "A-regular-degree", cid,
                f"{w} has internal out-degree {internal}, needs at least 2"))
    return defects


def check_adaptable(g: SepGraph) -> AdaptabilityReport:
    """The report of g, built once per graph object and shared: callers
    must not mutate it or its condensation."""
    return g.derived(_adaptability_report)


def _adaptability_report(g: SepGraph) -> AdaptabilityReport:
    cond = condensation(g)
    kinds = {}
    violations = []
    for cid, members in sorted(cond.members.items()):
        if len(members) == 1:
            v = members[0]
            fdef = _free_defects(g, cid, v)
            if not fdef:
                kinds[cid] = "free"
                continue
            rdef = _regular_defects(g, cid, members)
            if not rdef:
                kinds[cid] = "regular"
                continue
            violations.extend(fdef)
            violations.extend(rdef)
        else:
            rdef = _regular_defects(g, cid, members)
            if not rdef:
                kinds[cid] = "regular"
                continue
            violations.extend(rdef)
            if any(d.clause == "A-regular-Cw" for d in rdef):
                violations.append(Violation(
                    "A-partition", cid,
                    f"class {cid} has more than one vertex, so its block structure admits no free refinement"))
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
    blks = g.blocks_of[vertex]
    if index >= len(blks) or len(blks[index]) < 2:
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
    report = check_adaptable(g)
    cond = report.condensation
    fill = {}
    for v in g.vertices:
        kind = report.kinds.get(cond.class_of[v])
        fill[v] = {"free": "lightblue", "regular": "lightsalmon"}.get(kind, "lightgray")
    all_blocks = []
    for v in g.vertices:
        for blk in g.blocks_of[v]:
            all_blocks.append((v, blk))
    color_of_block = {}
    for i, (v, blk) in enumerate(sorted(all_blocks)):
        color_of_block[blk] = _PALETTE[i % len(_PALETTE)]
    lines = ["digraph sepgraph {", "  rankdir=LR;"]
    for v in g.vertices:
        lines.append(f'  "{v}" [style=filled, fillcolor="{fill[v]}"];')
    for v in g.vertices:
        for blk in g.blocks_of[v]:
            col = color_of_block[blk]
            for e in blk:
                s, d = g.edges[e]
                lines.append(f'  "{s}" -> "{d}" [color="{col}", label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
