"""The graph monoid: elements, rewriting, confluence search, normal forms.

Monoid elements are finite multisets of vertices.  A rewrite step picks
one occurrence of a vertex v and one block of v, and replaces the
occurrence by the multiset of that block's edge targets.  On adaptable
graphs any two equivalent elements have a common rewriting descendant,
which gives the search-based equality oracle `confluence_equal`.  Two
invariants that no rewrite step changes let it answer "unequal" on most
pairs without searching.

The exact decision procedure `eq_exact` goes through normal forms: the
support is pushed to an antichain of maximal classes, residual content
is folded into the extracted groups, and the remaining ambiguity (which
maximal class absorbs shared lower content) is a subgroup membership
test in the direct sum of the component groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, ge, mul, sub

from .abelian import FGAbelianGroup, direct_sum, subgroup_membership
from .graph import SepGraph, check_adaptable, require_adaptable
from .isystem import extract_isystem


class RewriteError(ValueError):
    pass


# ------------------------------------------------------------- elements


class FreeElement:
    """Multiset of vertices; the positive cone the monoid is built on."""

    __slots__ = ("counts", "_items")

    def __init__(self, counts=None):
        d = {}
        for v, n in dict(counts or {}).items():
            n = int(n)
            if n < 0:
                raise RewriteError(f"negative multiplicity for '{v}'")
            if n:
                d[v] = n
        self.counts = d
        self._items = tuple(sorted(d.items()))

    @classmethod
    def from_vertices(cls, seq):
        d = {}
        for v in seq:
            d[v] = d.get(v, 0) + 1
        return cls(d)

    def items(self):
        return self._items

    def support(self):
        return [v for v, _ in self._items]

    def get(self, v) -> int:
        return self.counts.get(v, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def is_zero(self) -> bool:
        return not self.counts

    def __add__(self, other):
        d = dict(self.counts)
        for v, n in other.counts.items():
            d[v] = d.get(v, 0) + n
        return FreeElement(d)

    def scale(self, n: int) -> "FreeElement":
        if n < 0:
            raise RewriteError("negative scale")
        return FreeElement({v: c * n for v, c in self.counts.items()})

    def contains(self, other) -> bool:
        return all(self.get(v) >= n for v, n in other.counts.items())

    def minus(self, other) -> "FreeElement":
        if not self.contains(other):
            raise RewriteError("multiset difference would be negative")
        return FreeElement({v: self.get(v) - other.get(v) for v in self.counts})

    def meet(self, other) -> "FreeElement":
        return FreeElement({v: min(n, other.get(v)) for v, n in self.counts.items()})

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return f"FreeElement({serialize_element(self)!r})"


def parse_element(text: str, g: SepGraph | None = None) -> FreeElement:
    text = text.strip()
    if text == "0":
        return FreeElement()
    d = {}
    for term in (t.strip() for t in text.split("+")):
        if not term:
            raise RewriteError(f"empty term in '{text}'")
        if "*" in term:
            cq, v = (x.strip() for x in term.split("*", 1))
            try:
                c = int(cq)
            except ValueError:
                raise RewriteError(f"bad multiplicity '{cq}'") from None
            if c < 1:
                raise RewriteError(f"multiplicity must be positive, got {c}")
        else:
            c, v = 1, term
        if g is not None and v not in g.blocks_of:
            raise RewriteError(f"unknown vertex '{v}'")
        d[v] = d.get(v, 0) + c
    return FreeElement(d)


def serialize_element(x: FreeElement) -> str:
    if x.is_zero():
        return "0"
    terms = []
    for v, n in x.items():
        terms.append(v if n == 1 else f"{n}*{v}")
    return "+".join(terms)


# ------------------------------------------------------------- rewriting


def block_targets(g: SepGraph, block) -> FreeElement:
    return FreeElement.from_vertices(g.edges[e][1] for e in block)


def step_targets(g: SepGraph, x: FreeElement):
    """All one-step rewrites of x as (vertex, block index, result)."""
    cg = g.derived(_CompiledGraph)
    return [(v, bi, cg.unpack(r)) for (v, bi), r in cg.steps(cg.pack(x))]


def apply_step(g: SepGraph, x: FreeElement, v: str, bi: int) -> FreeElement:
    if x.get(v) < 1:
        raise RewriteError(f"no occurrence of '{v}' to rewrite")
    blocks = g.blocks_of[v]
    if bi >= len(blocks):
        raise RewriteError(f"vertex '{v}' has no block {bi}")
    return x.minus(FreeElement({v: 1})) + block_targets(g, blocks[bi])


def apply_trace(g: SepGraph, x: FreeElement, trace) -> FreeElement:
    for v, bi in trace:
        x = apply_step(g, x, v, bi)
    return x


class _CompiledGraph:
    """The rewrite steps of a graph on dense int tuples indexed like `vertices`.

    moves[i] holds one ((v, bi), delta) pair per block bi of the i-th vertex
    v; delta is -1 at v plus one for each edge target of the block, so a
    step is one tuple addition.  The search runs on these tuples, and
    FreeElement appears only at its boundary.
    """

    __slots__ = ("vertices", "index", "moves")

    def __init__(self, g: SepGraph):
        self.vertices = g.vertices
        self.index = {v: i for i, v in enumerate(self.vertices)}
        moves = []
        for i, v in enumerate(self.vertices):
            mine = []
            for bi, blk in enumerate(g.blocks_of[v]):
                delta = [0] * len(self.vertices)
                delta[i] -= 1
                for e in blk:
                    delta[self.index[g.edges[e][1]]] += 1
                mine.append(((v, bi), tuple(delta)))
            moves.append(tuple(mine))
        self.moves = tuple(moves)

    def pack(self, x: FreeElement) -> tuple:
        t = [0] * len(self.vertices)
        for v, n in x.items():
            i = self.index.get(v)
            if i is None:
                raise RewriteError(f"unknown vertex '{v}' in element")
            t[i] = n
        return tuple(t)

    def unpack(self, t) -> FreeElement:
        return FreeElement({v: n for v, n in zip(self.vertices, t) if n})

    def steps(self, t):
        """All ((v, bi), result) one-step rewrites of t, in step_targets order."""
        return [(step, tuple(map(add, t, delta)))
                for i, n in enumerate(t) if n for step, delta in self.moves[i]]

    def sort_key(self, t):
        """(total, serialize_element) of unpack(t): the search's tie-break."""
        terms = [v if n == 1 else f"{n}*{v}" for v, n in zip(self.vertices, t) if n]
        return (sum(t), "+".join(terms) or "0")


class _Side:
    def __init__(self, cg: _CompiledGraph, root: tuple):
        self.cg = cg
        self.parent = {root: None}
        self.frontier = [root]

    def expand(self, limit=None):
        """Add the next layer and return its new nodes, at most `limit` of them."""
        new = []
        parent = self.parent
        for e in sorted(self.frontier, key=self.cg.sort_key):
            for step, r in self.cg.steps(e):
                if r not in parent:
                    parent[r] = (e, step)
                    new.append(r)
                    if len(new) == limit:
                        self.frontier = new
                        return new
        self.frontier = new
        return new

    def trace_to(self, elem):
        steps = []
        cur = elem
        while self.parent[cur] is not None:
            prev, step = self.parent[cur]
            steps.append(step)
            cur = prev
        steps.reverse()
        return tuple(steps)


class _Certificates:
    """Two images of a packed element that no rewrite step changes.

    group: the image in the Grothendieck group Z^V / <v - r(X)>, one
    relation per block.  A step adds a block's delta, which is a relation,
    so the image holds on any graph.

    support: the set of maximal condensation classes of the support, as a
    bitmask.  It holds only on adaptable graphs: there every free block has
    exactly one loop (`graph._free_defects`), and a regular vertex's only
    block has internal out-degree >= 2 (`graph._regular_defects`), so a
    step on v keeps the class of v in the support and adds only classes
    below it.  On a graph that is not adaptable, a step v -> w can drop the
    class of v, so `adaptable` switches this invariant off.

    Elements that differ in either image are unequal in the monoid.
    """

    __slots__ = ("columns", "adaptable", "class_bits", "below")

    def __init__(self, g: SepGraph):
        cg = g.derived(_CompiledGraph)
        grp = FGAbelianGroup(len(cg.vertices),
                             [delta for mine in cg.moves for _, delta in mine])
        self.columns = grp.coordinate_columns()
        report = check_adaptable(g)
        self.adaptable = report.ok
        cond = report.condensation
        bit = {c: 1 << k for k, c in enumerate(sorted(cond.members))}
        below = {c: sum(bit[q] for q in cond.poset.strict_down(c)) for c in bit}
        self.class_bits = tuple(bit[cond.class_of[v]] for v in cg.vertices)
        self.below = tuple(below[cond.class_of[v]] for v in cg.vertices)

    def top_classes(self, t):
        support = lower = 0
        for n, bit, below in zip(t, self.class_bits, self.below):
            if n:
                support |= bit
                lower |= below
        return support & ~lower

    def separating(self, tx, ty):
        """The name of an invariant on which tx and ty differ, or None."""
        diff = tuple(map(sub, tx, ty))
        for col, m in self.columns:            # canonical coordinates of tx - ty
            c = sum(map(mul, diff, col))
            if c and (not m or c % m):
                return "group"
        if self.adaptable and self.top_classes(tx) != self.top_classes(ty):
            return "support"
        return None


@dataclass
class ConfluenceResult:
    status: str                    # "equal" | "unequal" | "unknown" | "exhausted"
    gamma: FreeElement | None = None
    trace_x: tuple = ()
    trace_y: tuple = ()
    explored: int = 0
    invariant: str | None = None   # "group" | "support" when unequal


def confluence_equal(g: SepGraph, x: FreeElement, y: FreeElement,
                     depth: int = 10, node_budget: int = 100000) -> ConfluenceResult:
    """Decide x == y by a rewriting invariant, else search for a common descendant.

    "unequal" means x and y differ in an invariant that every rewrite step
    preserves; `invariant` names it and nothing is explored.  Otherwise the
    answer is that of `confluence_search`.
    """
    cg = g.derived(_CompiledGraph)
    if x != y:
        invariant = g.derived(_Certificates).separating(cg.pack(x), cg.pack(y))
        if invariant:
            return ConfluenceResult("unequal", invariant=invariant)
    return confluence_search(g, x, y, depth, node_budget)


def confluence_search(g: SepGraph, x: FreeElement, y: FreeElement,
                      depth: int = 10, node_budget: int = 100000) -> ConfluenceResult:
    """Search for a common rewriting descendant of x and y.

    "equal" comes with a replay-checked pair of traces; "unknown" means the
    depth ran out, "exhausted" that more than node_budget nodes were
    explored.  The search stops at the first node past the budget.
    """
    cg = g.derived(_CompiledGraph)
    root_x, root_y = cg.pack(x), cg.pack(y)      # rejects vertices outside g
    if x == y:
        return ConfluenceResult("equal", x, (), (), explored=1)
    sx, sy = _Side(cg, root_x), _Side(cg, root_y)
    explored = 2

    def meet_from(added, other):
        common = [e for e in added if e in other.parent]
        if not common:
            return None
        gamma = min(common, key=cg.sort_key)
        tx = sx.trace_to(gamma)
        ty = sy.trace_to(gamma)
        # replayed on FreeElement, independently of the compiled graph
        gamma = cg.unpack(gamma)
        if apply_trace(g, x, tx) != gamma or apply_trace(g, y, ty) != gamma:
            raise RewriteError("trace replay failed, search bookkeeping is broken")
        return ConfluenceResult("equal", gamma, tx, ty, explored)

    for _ in range(depth):
        progressed = False
        for side, other in ((sx, sy), (sy, sx)):
            added = side.expand(max(1, node_budget + 1 - explored))
            explored += len(added)
            if added:
                progressed = True
            hit = meet_from(added, other)
            if hit:
                hit.explored = explored
                return hit
            if explored > node_budget:
                return ConfluenceResult("exhausted", explored=explored)
        if not progressed:
            break
    return ConfluenceResult("unknown", explored=explored)


def split_trace(g: SepGraph, part_a: FreeElement, part_b: FreeElement, trace):
    """Attribute each step of a trace on part_a + part_b to one of the parts.

    When both parts hold the rewritten vertex, part_a consumes it.  Returns
    the two descendant parts, which sum to the trace's final element.
    """
    pa, pb = part_a, part_b
    for v, bi in trace:
        if pa.get(v) > 0:
            pa = apply_step(g, pa, v, bi)
        elif pb.get(v) > 0:
            pb = apply_step(g, pb, v, bi)
        else:
            raise RewriteError(f"trace step rewrites absent vertex '{v}'")
    return pa, pb


@dataclass
class RefinementWitness:
    status: str                      # "ok" | "unequal" | "unknown" | "exhausted"
    pieces: tuple = ()               # ((x11, x12), (x21, x22)) when ok
    gamma: FreeElement | None = None


def refinement_witness(g: SepGraph, a, b, c, d,
                       depth: int = 12, node_budget: int = 200000) -> RefinementWitness:
    """Given a + b == c + d in the monoid, produce a refinement grid.

    The grid (x11, x12 / x21, x22) satisfies a == x11+x12, b == x21+x22,
    c == x11+x21, d == x12+x22, all checked by replayed traces.
    """
    res = confluence_equal(g, a + b, c + d, depth, node_budget)
    if res.status != "equal":
        return RefinementWitness(res.status)
    ga, gb = split_trace(g, a, b, res.trace_x)
    gc, gd = split_trace(g, c, d, res.trace_y)
    w = ga.meet(gc)
    x11 = w
    x12 = ga.minus(w)
    x21 = gc.minus(w)
    x22 = gb.minus(x21)
    # row/column sums are exact multiset identities with the split parts
    assert x11 + x12 == ga and x11 + x21 == gc
    assert x21 + x22 == gb and x12 + x22 == gd
    vdepth = max(len(res.trace_x), len(res.trace_y)) + 1
    for orig, split in ((a, ga), (b, gb), (c, gc), (d, gd)):
        # equal by construction, so no disequality certificate is tried
        check = confluence_search(g, orig, split, vdepth, node_budget)
        if check.status != "equal":
            raise RewriteError("refinement split failed its replay check")
    return RefinementWitness("ok", ((x11, x12), (x21, x22)), res.gamma)


# ---------------------------------------------------- normal form machinery


@dataclass(frozen=True)
class NFEntry:
    cls: str
    kind: str
    n: int               # multiplicity for free classes, presence flag for regular
    gcoeffs: tuple       # coefficients in the extracted group of cls


@dataclass(frozen=True)
class AntisymNF:
    entries: tuple       # of (cls, kind, n)


@dataclass(frozen=True)
class MonoidNF:
    entries: tuple       # of NFEntry

    def antichain(self):
        return tuple(e.cls for e in self.entries)


def antisym_nf(g: SepGraph, x: FreeElement) -> AntisymNF:
    """Normal form in the order-antisymmetrized monoid."""
    report = require_adaptable(g)
    cond = report.condensation
    top = cond.poset.maximals({cond.class_of[v] for v in x.support()})
    entries = []
    for p in sorted(top):
        if report.kinds[p] == "free":
            entries.append((p, "free", x.get(p)))
        else:
            entries.append((p, "regular", 1))
    return AntisymNF(tuple(entries))


def monoid_nf(g: SepGraph, x: FreeElement) -> MonoidNF:
    report = require_adaptable(g)
    cond, kinds = report.condensation, report.kinds
    sysm = extract_isystem(g)
    classes = sorted({cond.class_of[v] for v in x.support()})
    top = cond.poset.maximals(classes)
    assign = {}
    for q in classes:
        assign[q] = q if q in top else min(p for p in top if cond.poset.lt(q, p))
    entries = []
    for p in sorted(top):
        labels = sysm.generator_labels[p]
        index = {w: i for i, w in enumerate(labels)}
        coeffs = [0] * len(labels)
        n = 0
        for q in classes:
            if assign[q] != p:
                continue
            for w in cond.members[q]:
                c = x.get(w)
                if not c:
                    continue
                if q == p and kinds[p] == "free":
                    n += c
                else:
                    coeffs[index[w]] += c
        if kinds[p] == "regular":
            n = 1
        entries.append(NFEntry(p, kinds[p], n, tuple(coeffs)))
    return MonoidNF(tuple(entries))


def nf_add(g: SepGraph, nf1: MonoidNF, nf2: MonoidNF) -> MonoidNF:
    """Sum of two normal forms, renormalized."""
    sysm = extract_isystem(g)
    poset = sysm.poset
    all_classes = sorted({e.cls for e in nf1.entries} | {e.cls for e in nf2.entries})
    top = poset.maximals(all_classes)
    out = {}
    for p in sorted(top):
        out[p] = [sysm.kind[p], 0, sysm.group[p].zero()]
    for nf in (nf1, nf2):
        for e in nf.entries:
            p = e.cls if e.cls in top else min(q for q in top if poset.lt(e.cls, q))
            src = sysm.group[e.cls].element(e.gcoeffs)
            if e.cls == p:
                if e.kind == "free":
                    out[p][1] += e.n
                out[p][2] = out[p][2] + src
            else:
                n = e.n if e.kind == "free" else 0
                out[p][2] = out[p][2] + sysm.hat_apply(p, e.cls, n, src)
    entries = []
    for p in sorted(top):
        kind, n, gval = out[p]
        if kind == "regular":
            n = 1
        entries.append(NFEntry(p, kind, n, tuple(gval.coeffs)))
    return MonoidNF(tuple(entries))


def _ambiguity_tables(g: SepGraph) -> dict:
    return {}     # antichain -> _ambiguity_subgroup(g, antichain)


def _ambiguity_subgroup(g: SepGraph, antichain: tuple):
    """(direct sum group, embeddings, generators of the ambiguity subgroup),
    built once per antichain and graph object."""
    table = g.derived(_ambiguity_tables)
    if antichain in table:
        return table[antichain]
    cond = require_adaptable(g).condensation
    sysm = extract_isystem(g)
    poset = cond.poset
    groups = [sysm.group[p] for p in antichain]
    total, embeds = direct_sum(groups)
    pos = {p: i for i, p in enumerate(antichain)}
    gens = []
    for q in sorted(cond.members):
        above = [p for p in antichain if poset.lt(q, p)]
        if len(above) < 2:
            continue
        p0 = min(above)
        for p1 in above:
            if p1 == p0:
                continue
            for w in cond.members[q]:
                x0 = _vertex_gen(sysm, p0, w)
                x1 = _vertex_gen(sysm, p1, w)
                gens.append(embeds[pos[p0]](x0) - embeds[pos[p1]](x1))
    table[antichain] = found = (total, embeds, tuple(gens))
    return found


def _vertex_gen(sysm, p, w):
    labels = sysm.generator_labels[p]
    idx = labels.index(w)
    return sysm.group[p].gen(idx)


def nf_equal(g: SepGraph, nf1: MonoidNF, nf2: MonoidNF) -> bool:
    if nf1.antichain() != nf2.antichain():
        return False
    sysm = extract_isystem(g)
    deltas = []
    for e1, e2 in zip(nf1.entries, nf2.entries):
        if e1.kind != e2.kind or e1.n != e2.n:
            return False
        grp = sysm.group[e1.cls]
        deltas.append(grp.element(e1.gcoeffs) - grp.element(e2.gcoeffs))
    if all(d.is_zero() for d in deltas):
        return True
    total, embeds, gens = _ambiguity_subgroup(g, nf1.antichain())
    delta = total.zero()
    for emb, d in zip(embeds, deltas):
        delta = delta + emb(d)
    if not gens:
        return delta.is_zero()
    return subgroup_membership(list(gens), delta)


def eq_exact(g: SepGraph, x: FreeElement, y: FreeElement) -> bool:
    """Total equality decision for monoid elements of an adaptable graph."""
    return nf_equal(g, monoid_nf(g, x), monoid_nf(g, y))


# ----------------------------------------------------------- order relation


@dataclass
class LeResult:
    status: str                    # "yes" | "no" | "unknown"
    z: FreeElement | None = None


def le_semidecide(g: SepGraph, x: FreeElement, y: FreeElement,
                  depth: int = 8, node_budget: int = 50000) -> LeResult:
    """Semi-decision of the algebraic order: is there z with x + z == y?"""
    cg = g.derived(_CompiledGraph)
    root_x, root_y = cg.pack(x), cg.pack(y)      # rejects vertices outside g
    if x == y:
        return LeResult("yes", FreeElement())
    if x.is_zero():
        return LeResult("yes", y)
    report = require_adaptable(g)
    class_of, poset = report.condensation.class_of, report.condensation.poset
    ycls = {class_of[v] for v in y.support()}
    for v in x.support():
        q = class_of[v]
        if not any(poset.le(q, p) for p in ycls):
            return LeResult("no")
    # free multiplicity bound: a free class nothing in y can feed from above
    for v in x.support():
        q = class_of[v]
        if report.kinds[q] != "free":
            continue
        if any(poset.lt(q, p) for p in ycls):
            continue
        if x.get(v) > y.get(v):
            return LeResult("no")
    if y.contains(x):
        return LeResult("yes", y.minus(x))
    sx, sy = _Side(cg, root_x), _Side(cg, root_y)
    seen = 2

    def witness(x2, w):
        z = cg.unpack(tuple(map(sub, w, x2)))
        lhs = apply_trace(g, x + z, sx.trace_to(x2))
        rhs = apply_trace(g, y, sy.trace_to(w))
        if lhs != rhs:
            raise RewriteError("order witness replay failed")
        return LeResult("yes", z)

    for _ in range(depth):
        new_x = sx.expand()
        new_y = sy.expand()
        seen += len(new_x) + len(new_y)
        reached_x = sorted(sx.parent, key=cg.sort_key)
        for w in sorted(new_y, key=cg.sort_key):
            for x2 in reached_x:
                if all(map(ge, w, x2)):
                    return witness(x2, w)
        fresh = set(new_y)
        old_y = sorted((w for w in sy.parent if w not in fresh), key=cg.sort_key)
        for x2 in sorted(new_x, key=cg.sort_key):
            for w in old_y:
                if all(map(ge, w, x2)):
                    return witness(x2, w)
        if seen > node_budget:
            return LeResult("unknown")
    for v in sorted(set(g.vertices)):
        for n in (1, 2):
            z = FreeElement({v: n})
            if eq_exact(g, x + z, y):
                return LeResult("yes", z)
    return LeResult("unknown")


# ------------------------------------------------------------- diagnostics


def grothendieck_of_restriction(g: SepGraph, at):
    """Presented group of the monoid restricted below the class of `at`.

    Generators are all vertices of the restriction; a free vertex also
    counts as a generator here, which adds its counting direction.
    """
    from .graph import restrict_lower
    from .isystem import presented_group

    sub = restrict_lower(g, at)
    report = require_adaptable(sub)
    cond = report.condensation
    verts = sorted(sub.vertices)
    return verts, presented_group(sub, cond, report.kinds, verts)
