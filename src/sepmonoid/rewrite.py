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

from bisect import bisect_left, bisect_right
from functools import cache, cached_property
from operator import index, lshift, sub

from .abelian import FGAbelianGroup, vanishes
from .graph import SepGraph, _decimal, check_adaptable, require_adaptable
from .isystem import extract_isystem
from .records import FrozenRecord, Record


class RewriteError(ValueError):
    pass


# ------------------------------------------------------------- elements


class FreeElement:
    """Multiset of vertices; the positive cone the monoid is built on.

    counts maps each vertex of the support to its positive multiplicity.
    The sorted items() are built on first read, and the hash, which is
    that of items(), on first use; equality compares counts.  Elements are
    immutable values, so a result may be an operand: a sum with zero
    returns the other operand.
    """

    __slots__ = ("counts", "_items", "_hash")

    def __init__(self, counts=None):
        d = {}
        for v, n in dict(counts or {}).items():
            try:
                n = index(n)
            except TypeError:
                raise RewriteError(f"multiplicity for '{v}' is not an integer: {n!r}") from None
            if n < 0:
                raise RewriteError(f"negative multiplicity for '{v}'")
            if n:
                d[v] = n
        self.counts = d
        self._items = self._hash = None

    def __reduce__(self):
        # the cached hash of str items is only valid in this process
        return FreeElement, (self.counts,)

    @classmethod
    def from_vertices(cls, seq):
        d = {}
        for v in seq:
            d[v] = d.get(v, 0) + 1
        return _wrap(d)

    def items(self):
        if self._items is None:
            self._items = tuple(sorted(self.counts.items()))
        return self._items

    def get(self, v) -> int:
        return self.counts.get(v, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def is_zero(self) -> bool:
        return not self.counts

    def __add__(self, other):
        if not other.counts:
            return self
        if not self.counts:
            return other
        d = self.counts.copy()
        for v, n in other.counts.items():
            d[v] = d.get(v, 0) + n
        return _wrap(d)

    def scale(self, n: int) -> "FreeElement":
        try:
            n = index(n)
        except TypeError:
            raise RewriteError(f"scale is not an integer: {n!r}") from None
        if n < 0:
            raise RewriteError("negative scale")
        if not n:
            return _wrap({})
        return _wrap({v: c * n for v, c in self.counts.items()})

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.items())
        return self._hash

    def __repr__(self):
        return f"FreeElement({serialize_element(self)!r})"


def _wrap(d) -> FreeElement:
    """Wrap d, a dict of positive multiplicities, without copying it."""
    x = object.__new__(FreeElement)
    x.counts = d
    x._items = x._hash = None
    return x


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
                c = _decimal(cq)
            except ValueError:
                raise RewriteError(f"bad multiplicity '{cq}'") from None
            if c < 1:
                raise RewriteError(f"multiplicity must be positive, got {c}")
        else:
            c, v = 1, term
        if g is not None and v not in g.blocks_of:
            raise RewriteError(f"unknown vertex '{v}'")
        d[v] = d.get(v, 0) + c
    return _wrap(d)                 # every count is a positive int


def serialize_element(x: FreeElement) -> str:
    if x.is_zero():
        return "0"
    terms = []
    for v, n in x.items():
        terms.append(v if n == 1 else f"{n}*{v}")
    return "+".join(terms)


# ------------------------------------------------------------- rewriting


def apply_trace(g: SepGraph, x: FreeElement, trace) -> FreeElement:
    """Rewrite x along trace, a sequence of (vertex, block index) steps.

    The steps update one copy of x's counts; an empty trace returns x.
    """
    if not trace:
        return x
    d = dict(x.counts)
    for v, bi in trace:
        if d.get(v, 0) < 1:
            raise RewriteError(f"no occurrence of '{v}' to rewrite")
        _fire(g, d, v, bi)
    return _wrap(d)


def _fire(g: SepGraph, d: dict, v: str, bi: int):
    """Rewrite one occurrence of v, which d holds, along v's block bi."""
    blocks = g.blocks_of[v]
    if not 0 <= bi < len(blocks):
        raise RewriteError(f"vertex '{v}' has no block {bi}")
    d[v] -= 1
    if not d[v]:
        del d[v]
    for e in blocks[bi]:
        w = g.edges[e][1]
        d[w] = d.get(w, 0) + 1


class _CompiledGraph:
    """The rewrite steps of a graph as dense int tuples indexed like `vertices`.

    moves[i] holds one ((v, bi), delta) pair per block bi of the i-th vertex
    v; delta is -1 at v plus one for each edge target of the block.  The
    deltas build the steps of a `_Kernel` and the relations of
    `_Certificates`.  Elements are never packed: routines read FreeElement
    counts, and the search encodes its roots into kernel ints.
    """

    __slots__ = ("vertices", "index", "known", "moves", "_growth", "_kernels")

    def __init__(self, g: SepGraph):
        self.vertices = g.vertices
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.known = frozenset(self.vertices)
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
        self._growth = None             # set by the first search: most graphs never search
        self._kernels = {}

    def check(self, *elements):
        """Reject the first element with vertices outside g, naming the least."""
        known = self.known
        for x in elements:
            if not known.issuperset(x.counts):
                v = min(x.counts.keys() - known)
                raise RewriteError(f"unknown vertex '{v}' in element")

    def kernel(self, depth: int, *totals) -> "_Kernel":
        """The kernel whose fields hold every count of a search of `depth`
        layers from roots of these totals: a step adds at most `growth`, the
        largest entry of any block delta, to a count."""
        if self._growth is None:
            self._growth = max((max(delta) for mine in self.moves for _, delta in mine),
                               default=0)
        width = (max(totals) + depth * self._growth).bit_length() + 1
        kern = self._kernels.get(width)
        if kern is None:
            kern = self._kernels[width] = _Kernel(self, width)
        return kern


class _Kernel:
    """The search's nodes as ints, one `width`-bit field per vertex.

    Field i, bits shift[v] = i * width upward, holds the count of
    v = vertices[i].  Its top bit is a guard: `_CompiledGraph.kernel` sizes
    width so that every count of the search stays below 2 ** (width - 1),
    so no field carries into the next, a node has no guard bit set, and a
    step is one int addition of a block's delta.  table holds, for each
    vertex i with blocks, the mask of its field and its (step, delta) pairs
    in `_CompiledGraph.moves` order.  ge(w, x) is the componentwise w >= x:
    each field of (w | guards) - x keeps its guard bit exactly when w's
    count is at least x's.  sort_key is the search's canonical order,
    (total, serialize_element) of the node.
    """

    __slots__ = ("vertices", "width", "mask", "shift", "guards", "table")

    def __init__(self, cg: _CompiledGraph, width: int):
        self.vertices = cg.vertices
        self.width = width
        self.mask = mask = (1 << width) - 1
        shifts = range(0, len(cg.vertices) * width, width)
        self.shift = dict(zip(cg.vertices, shifts))
        self.guards = sum(1 << s for s in shifts) << width - 1
        # a negative delta entry borrows from the fields above
        self.table = tuple((mask << shifts[i], tuple((step, sum(map(lshift, delta, shifts)))
                                                     for step, delta in mine))
                           for i, mine in enumerate(cg.moves) if mine)

    def encode(self, counts) -> int:
        """The node of the counts dict of an element."""
        return sum(map(lshift, counts.values(), map(self.shift.__getitem__, counts)))

    def decode(self, e) -> FreeElement:
        mask = self.mask
        return _wrap({v: n for v, s in self.shift.items() if (n := e >> s & mask)})

    def sort_key(self, e):
        """(total, serialize_element) of the node e, read off its fields."""
        width, mask = self.width, self.mask
        total, terms = 0, []
        for v in self.vertices:
            if not e:
                break
            n = e & mask
            if n:
                total += n
                terms.append(v if n == 1 else f"{n}*{v}")
            e >>= width
        return (total, "+".join(terms) or "0")

    def ge(self, w, x) -> bool:
        guards = self.guards
        return (w | guards) - x & guards == guards


class _Side:
    """One side of the two-sided search: the layer of each of its nodes.

    depth maps each node to the layer that found it, and nothing else is
    stored.  The frontier, the last layer, is not sorted, except for a
    layer whose new nodes would pass the limit: that layer's nodes are
    dropped and the sweep runs again in key order, since there the order
    decides which nodes the layer keeps.  trace_to recomputes the
    discoverers of each node of the returned path from the layer before
    it, and keeps the one of least key, the first step on a tie: the
    parent that a sweep in key order records.
    """

    def __init__(self, kern: _Kernel, root: int, key):
        self.kern = kern
        self.key = key
        self.depth = {root: 0}
        self.frontier = [root]
        self.layers = 0

    def _sweep(self, frontier, limit, d):
        """The nodes new to this side from frontier, entered at depth d in
        the order of frontier, stopping at `limit` of them."""
        depth, table, new = self.depth, self.kern.table, []
        for e in frontier:
            for field, pairs in table:
                if e & field:
                    for _, delta in pairs:
                        r = e + delta
                        if r not in depth:
                            depth[r] = d
                            new.append(r)
                            if len(new) == limit:
                                return new
        return new

    def expand(self, limit):
        """Add the next layer and return its new nodes, at most `limit` of them."""
        self.layers = d = self.layers + 1
        new = self._sweep(self.frontier, limit + 1, d)
        if len(new) > limit:
            # the limit cuts this layer: keep the nodes of a sweep in key order
            for r in new:
                del self.depth[r]
            new = self._sweep(sorted(self.frontier, key=self.key), limit, d)
        self.frontier = new
        return new

    def trace_to(self, elem):
        """The steps from the root to elem, through least-key discoverers.

        A discoverer of cur, at depth d, is a node prev = cur - delta at
        depth d - 1 whose field at the stepped vertex is nonzero.  When
        cur - delta is not a node, the subtraction leaves some field out of
        [0, 2 ** (width - 1)), since a count moves by at most `growth` <
        2 ** (width - 1) down and by 1 up.  Then the int is negative, or
        the lowest such field reads as its value modulo 2 ** width, which
        has the guard bit set.  No node has either form, so membership in
        depth is a sound test.
        """
        depth, key, table = self.depth, self.key, self.kern.table
        steps = []
        cur = elem
        for d in range(depth[elem] - 1, -1, -1):
            best = best_key = None
            for field, pairs in table:
                for step, delta in pairs:
                    prev = cur - delta
                    if depth.get(prev) != d or not prev & field or prev == best:
                        continue
                    if best is None:
                        best, best_step = prev, step
                        continue
                    # a second discoverer: keys are read only now
                    if best_key is None:
                        best_key = key(best)
                    k = key(prev)
                    if k < best_key:
                        best, best_step, best_key = prev, step, k
            cur = best
            steps.append(best_step)
        steps.reverse()
        return tuple(steps)


class _Certificates:
    """Two images of an element's counts that no rewrite step changes.

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

    Elements that differ in either image are unequal in the monoid.  Bit k
    of a class mask stands for classes[k], the k-th class id in sorted order,
    and `free` is the mask of the free classes.  By vertex, class_bits and
    below hold the bit of its class and the mask of the classes below it.
    """

    def __init__(self, g: SepGraph):
        self._cg = cg = g.derived(_CompiledGraph)
        report = check_adaptable(g)
        self.adaptable = report.ok
        cond = report.condensation
        self.classes = tuple(sorted(cond.members))
        bit = {c: 1 << k for k, c in enumerate(self.classes)}
        self.free = sum(bit[c] for c, kind in report.kinds.items() if kind == "free")
        below = {c: sum(bit[q] for q in cond.poset.strict_down(c)) for c in bit}
        self.class_bits = {v: bit[cond.class_of[v]] for v in cg.vertices}
        self.below = {v: below[cond.class_of[v]] for v in cg.vertices}

    @cached_property
    def columns(self):
        # built on the first group test: the normal forms only need the masks
        cg = self._cg
        grp = FGAbelianGroup(len(cg.vertices),
                             [delta for mine in cg.moves for _, delta in mine])
        return grp.coordinate_columns()

    def spread(self, counts):
        """(support, lower): the mask of the classes of the support of the
        counts dict, and that of the classes strictly below one of them."""
        support = lower = 0
        class_bits, below = self.class_bits, self.below
        for v in counts:
            support |= class_bits[v]
            lower |= below[v]
        return support, lower

    def top_classes(self, counts):
        """The mask of the maximal classes of the support, an antichain."""
        support, lower = self.spread(counts)
        return support & ~lower

    def dominated(self, cx, cy) -> bool:
        """Is every class of cx's support at or below a class of cy's?"""
        support_y, lower_y = self.spread(cy)
        return not self.spread(cx)[0] & ~(support_y | lower_y)

    def separating(self, cx, cy):
        """The name of an invariant on which counts cx and cy differ, or None."""
        if not vanishes([cx.get(v, 0) - cy.get(v, 0) for v in self._cg.vertices],
                        self.columns):
            return "group"
        if self.adaptable and self.top_classes(cx) != self.top_classes(cy):
            return "support"
        return None


def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ConfluenceResult(Record):
    def __init__(self, status: str, gamma: FreeElement | None = None,
                 trace_x: tuple = (), trace_y: tuple = (), explored: int = 0,
                 invariant: str | None = None):
        self.status = status          # "equal" | "unequal" | "unknown" | "exhausted"
        self.gamma = gamma
        self.trace_x = trace_x
        self.trace_y = trace_y
        self.explored = explored
        self.invariant = invariant    # "group" | "support" when unequal


def confluence_equal(g: SepGraph, x: FreeElement, y: FreeElement,
                     depth: int = 10, node_budget: int = 100000) -> ConfluenceResult:
    """Decide x == y by a rewriting invariant, else search for a common descendant.

    "unequal" means x and y differ in an invariant that every rewrite step
    preserves; `invariant` names it and nothing is explored.  Otherwise the
    answer is that of `confluence_search`.
    """
    cg = g.derived(_CompiledGraph)
    cg.check(x, y)
    if x != y:
        invariant = g.derived(_Certificates).separating(x.counts, y.counts)
        if invariant:
            return ConfluenceResult("unequal", invariant=invariant)
    return _search(g, cg, x, y, depth, node_budget)


def confluence_search(g: SepGraph, x: FreeElement, y: FreeElement,
                      depth: int = 10, node_budget: int = 100000) -> ConfluenceResult:
    """Search for a common rewriting descendant of x and y.

    "equal" comes with a replay-checked pair of traces; "unknown" means the
    depth ran out, "exhausted" that more than node_budget nodes were
    explored.  The search stops at the first node past the budget.
    """
    cg = g.derived(_CompiledGraph)
    cg.check(x, y)
    return _search(g, cg, x, y, depth, node_budget)


def _search(g, cg, x, y, depth, node_budget):
    """confluence_search from x and y, whose vertices cg has checked."""
    if x == y:
        return ConfluenceResult("equal", x, (), (), explored=1)
    kern = cg.kernel(depth, x.total(), y.total())

    def meet(added, from_x, other):
        common = [e for e in added if e in other]
        if len(common) > 1:
            return (min(common, key=kern.sort_key),) * 2
        return (common[0],) * 2 if common else None

    status, explored, hit = _two_sided(kern, kern.encode(x.counts), kern.encode(y.counts),
                                       depth, node_budget, meet, kern.sort_key)
    if not hit:
        return ConfluenceResult(status, explored=explored)
    (gamma, tx), (_, ty) = hit
    # replayed on FreeElement, independently of the compiled graph
    gamma = kern.decode(gamma)
    if apply_trace(g, x, tx) != gamma or apply_trace(g, y, ty) != gamma:
        raise RewriteError("trace replay failed, search bookkeeping is broken")
    return ConfluenceResult("equal", gamma, tx, ty, explored)


def _two_sided(kern: _Kernel, root_x, root_y, depth, node_budget, meet, key):
    """Grow a rewriting search from each root, one side's layer at a time.

    The nodes are the ints of kern, and the frontiers are swept in the
    order their nodes were found; key orders only the discoverers of the
    nodes on the returned traces, recomputed there, and the sweep of a
    layer that crosses the budget (see _Side).  After each side grows,
    meet(added, from_x, other) sees its new nodes and the other side's
    depth dict, and returns the (x-side, y-side) pair of nodes that ends
    the search, or None.  Returns (status, explored, hit): status "met"
    with hit = ((node_x, trace_x), (node_y, trace_y)), "unknown" when the
    depth ran out, "exhausted" at the first node past node_budget.
    """
    sx, sy = _Side(kern, root_x, key), _Side(kern, root_y, key)
    explored = 2
    for _ in range(depth):
        progressed = False
        for side, other, from_x in ((sx, sy, True), (sy, sx, False)):
            added = side.expand(max(1, node_budget + 1 - explored))
            explored += len(added)
            progressed = progressed or bool(added)
            pair = meet(added, from_x, other.depth)
            if pair:
                ex, ey = pair
                return "met", explored, ((ex, sx.trace_to(ex)), (ey, sy.trace_to(ey)))
            if explored > node_budget:
                return "exhausted", explored, None
        if not progressed:
            break
    return "unknown", explored, None


def split_trace(g: SepGraph, part_a: FreeElement, part_b: FreeElement, trace):
    """Attribute each step of a trace on part_a + part_b to one of the parts.

    When both parts hold the rewritten vertex, part_a consumes it.  Returns
    the two descendant parts, which sum to the trace's final element.
    """
    cg = g.derived(_CompiledGraph)
    cg.check(part_a, part_b)
    a, b, _, _ = _split(g, part_a.counts, part_b.counts, trace)
    return _wrap(a), _wrap(b)


def _split(g: SepGraph, a: dict, b: dict, trace):
    """split_trace on counts dicts a and b, neither of which it changes:
    (a', b', trace_a, trace_b), where trace_a holds the steps a consumed,
    in order, so that a rewrites to a' along trace_a, and likewise for b."""
    parts, subs = (dict(a), dict(b)), ([], [])
    for step in trace:
        v, bi = step
        k = 0 if v in parts[0] else 1
        if v not in parts[k]:
            raise RewriteError(f"trace step rewrites absent vertex '{v}'")
        _fire(g, parts[k], v, bi)
        subs[k].append(step)
    return parts[0], parts[1], tuple(subs[0]), tuple(subs[1])


def _minus(p: dict, q: dict) -> dict:
    """p - q on counts dicts, without zeros; negative where q exceeds p.
    p's keys keep their order, and q's keys new to p follow in q's order."""
    d = p.copy()
    for v, n in q.items():
        n = d.get(v, 0) - n
        if n:
            d[v] = n
        else:
            del d[v]
    return d


class RefinementWitness(Record):
    def __init__(self, status: str, pieces: tuple = (),
                 gamma: FreeElement | None = None, traces: tuple = ()):
        self.status = status          # "ok" | "unequal" | "unknown" | "exhausted"
        self.pieces = pieces          # ((x11, x12), (x21, x22)) when ok
        self.gamma = gamma
        self.traces = traces          # (ta, tb, tc, td) when ok


def refinement_witness(g: SepGraph, a, b, c, d,
                       depth: int = 12, node_budget: int = 200000) -> RefinementWitness:
    """Given a + b == c + d in the monoid, produce a refinement grid.

    The grid (x11, x12 / x21, x22) satisfies a == x11+x12, b == x21+x22,
    c == x11+x21, d == x12+x22.  One search finds a common descendant gamma
    of a + b and c + d; splitting its two traces between the parts gives
    each of a, b, c, d a sub-trace, and `traces` = (ta, tb, tc, td) holds
    them.  They certify the grid: apply_trace rewrites a along ta to
    x11 + x12, b along tb to x21 + x22, c along tc to x11 + x21 and d along
    td to x12 + x22.  Each is replayed on FreeElement before the answer is
    returned, so that no further search runs.
    """
    res = confluence_equal(g, a + b, c + d, depth, node_budget)
    if res.status != "equal":
        return RefinementWitness(res.status)
    ga, gb, ta, tb = _split(g, a.counts, b.counts, res.trace_x)
    gc, gd, tc, td = _split(g, c.counts, d.counts, res.trace_y)
    x11 = {v: min(n, gc[v]) for v, n in ga.items() if v in gc}
    x12, x21 = _minus(ga, x11), _minus(gc, x11)
    x22 = _minus(gb, x21)
    # x11 + x12 == ga and x11 + x21 == gc by construction
    if min(x22.values(), default=0) < 0 or _minus(gd, x22) != x12:
        raise RewriteError("refinement grid rows and columns do not add up")
    e11, e12, e21, e22 = map(_wrap, (x11, x12, x21, x22))
    # replayed on FreeElement, independently of the compiled graph
    for part, trace, want in ((a, ta, e11 + e12), (b, tb, e21 + e22),
                              (c, tc, e11 + e21), (d, td, e12 + e22)):
        if apply_trace(g, part, trace) != want:
            raise RewriteError("refinement sub-trace failed its replay check")
    return RefinementWitness("ok", ((e11, e12), (e21, e22)), res.gamma,
                             (ta, tb, tc, td))


# ---------------------------------------------------- normal form machinery


class NFEntry(FrozenRecord):
    # n: multiplicity for free classes, presence flag for regular;
    # gcoeffs: coefficients in the extracted group of cls
    def __init__(self, cls: str, kind: str, n: int, gcoeffs: tuple):
        d = self.__dict__
        d["cls"], d["kind"], d["n"], d["gcoeffs"] = cls, kind, n, gcoeffs


class AntisymNF(FrozenRecord):
    def __init__(self, entries: tuple):
        self.__dict__["entries"] = entries    # of (cls, kind, n)


class MonoidNF(FrozenRecord):
    def __init__(self, entries: tuple):
        self.__dict__["entries"] = entries    # of NFEntry

    def antichain(self):
        return tuple(e.cls for e in self.entries)


class _NormalForms:
    """The normal-form kernel of an adaptable graph, on FreeElement counts.

    The normal form of x has one entry per class of its antichain of
    maximal support classes, `_Certificates.top_classes`.  Each vertex w of
    the support is folded into one entry: its own class's if that class is
    in the antichain, else that of the least (by class id) antichain class
    above it.  A free entry counts its own vertex in its multiplicity n;
    any other w adds its count at w's label among the generators of the
    entry's extracted group.

    Tables, by vertex and by class bit as in `_Certificates`: cls[w] is
    the class bit of vertex w, up[w] the mask of the classes strictly above
    it, and label[w][k] its generator index in the group of class k (None
    where it is no generator); gens[k] lists the vertex of each generator
    label of class k, so label[gens[k][j]][k] is j.
    """

    def __init__(self, g: SepGraph):
        sysm = extract_isystem(g)             # NotAdaptableError if g is not
        self.cg = cg = g.derived(_CompiledGraph)
        self.cert = cert = g.derived(_Certificates)
        classes = cert.classes
        self.bit = {p: k for k, p in enumerate(classes)}
        self.kinds = tuple(sysm.kind[p] for p in classes)
        self.groups = tuple(sysm.group[p] for p in classes)
        self.columns = tuple(grp.coordinate_columns() for grp in self.groups)
        self.cls = {w: b.bit_length() - 1 for w, b in cert.class_bits.items()}
        strict_up = [0] * len(classes)
        for w, below in cert.below.items():
            for q in _bits(below):
                strict_up[q] |= 1 << self.cls[w]
        self.up = {w: strict_up[k] for w, k in self.cls.items()}
        self.gens = tuple(tuple(sysm.generator_labels[p]) for p in classes)
        self.label = {w: [None] * len(classes) for w in cg.vertices}
        for k, gens in enumerate(self.gens):
            for j, w in enumerate(gens):
                self.label[w][k] = j
        self._layouts = {}

    def layout(self, top) -> "_Layout":
        """The layout of the normal forms with antichain mask top, built once."""
        found = self._layouts.get(top)
        if found is None:
            found = self._layouts[top] = _Layout(self, top)
        return found


class _Layout:
    """One integer vector per element whose antichain mask is top.

    Each antichain class k owns a block of the vector: its coefficients,
    then, if k is free, its multiplicity n, a Z summand of its own.  The
    blocks sit side by side as in the direct sum of their groups, and
    slot[w] is the place of vertex w.  Two elements with this antichain are
    equal in the monoid exactly when the delta of their vectors lies in the
    ambiguity subgroup of that sum: a vertex below two antichain classes
    p0 < p1 (by class id) is folded into p0 but would count the same in p1,
    so the subgroup is generated by the differences of the two placements.
    """

    def __init__(self, nf: _NormalForms, top: int):
        self.entries = []              # (class bit, offset, ngens, free)
        offset, size = {}, 0
        for k in _bits(top):
            free, ngens = nf.kinds[k] == "free", nf.groups[k].ngens
            self.entries.append((k, size, ngens, free))
            offset[k], size = size, size + ngens + free
        self.size = size
        self.slot = {}                 # none for a vertex below no antichain class
        self._gens = []
        for w, q in nf.cls.items():
            label = nf.label[w]
            if top >> q & 1:
                own = nf.groups[q].ngens if nf.kinds[q] == "free" else label[q]
                self.slot[w] = offset[q] + own
                continue
            above = list(_bits(top & nf.up[w]))
            if not above:
                continue
            p0 = above[0]
            self.slot[w] = offset[p0] + label[p0]
            for p1 in above[1:]:
                row = [0] * size
                row[offset[p0] + label[p0]] = 1
                row[offset[p1] + label[p1]] = -1
                self._gens.append(row)
        self.columns = []              # the direct sum's coordinate columns
        for k, off, ngens, free in self.entries:
            self.columns += [(self._embed(col, off), m) for col, m in nf.columns[k]]
            if free:
                self.columns.append((self._embed((1,), off + ngens), 0))
        self._relations = [self._embed(r, off) for k, off, _, _ in self.entries
                           for r in nf.groups[k].relations]

    def _embed(self, row, off):
        return (0,) * off + tuple(row) + (0,) * (self.size - off - len(row))

    @cached_property
    def _ambiguity_columns(self):
        # the direct sum modulo the ambiguity subgroup, one Smith form
        return FGAbelianGroup(self.size, self._relations + self._gens).coordinate_columns()

    def fold(self, counts) -> list:
        """The vector of a counts dict whose antichain mask is this one's."""
        v = [0] * self.size
        slot = self.slot
        for w, c in counts.items():
            v[slot[w]] += c
        return v

    def is_zero(self, delta) -> bool:
        """Is this difference of two vectors zero in the monoid?"""
        if vanishes(delta, self.columns):
            return True
        return bool(self._gens) and vanishes(delta, self._ambiguity_columns)


def antisym_nf(g: SepGraph, x: FreeElement) -> AntisymNF:
    """Normal form in the order-antisymmetrized monoid."""
    report = require_adaptable(g)
    cert = g.derived(_Certificates)
    g.derived(_CompiledGraph).check(x)
    entries = []
    for p in (cert.classes[k] for k in _bits(cert.top_classes(x.counts))):
        if report.kinds[p] == "free":
            entries.append((p, "free", x.get(p)))
        else:
            entries.append((p, "regular", 1))
    return AntisymNF(tuple(entries))


def antisym_le(g: SepGraph, x: FreeElement, y: FreeElement) -> bool:
    """Order of the antisymmetrized monoid, decided on archimedean classes:
    is every class of x's support at or below a class of y's?"""
    g.derived(_CompiledGraph).check(x, y)
    if x.is_zero():
        return True
    if y.is_zero():
        return False
    require_adaptable(g)
    return g.derived(_Certificates).dominated(x.counts, y.counts)


def _nf(nf: _NormalForms, layout: _Layout, counts) -> MonoidNF:
    """The normal form of a counts dict on the vertices that layout folds."""
    v = layout.fold(counts)
    return MonoidNF(tuple(
        NFEntry(nf.cert.classes[k], nf.kinds[k], v[off + n] if free else 1,
                tuple(v[off:off + n]))
        for k, off, n, free in layout.entries))


def monoid_nf(g: SepGraph, x: FreeElement) -> MonoidNF:
    nf = g.derived(_NormalForms)
    nf.cg.check(x)
    return _nf(nf, nf.layout(nf.cert.top_classes(x.counts)), x.counts)


def nf_add(g: SepGraph, nf1: MonoidNF, nf2: MonoidNF) -> MonoidNF:
    """Sum of two normal forms, renormalized.

    Each entry unfolds onto the vertices it counts: its coefficients onto
    the generator vertices of its class, a free multiplicity onto the
    class's own vertex.  The sum of the unfolded counts is folded into the
    layout of the union antichain, so on the normal forms of x and y the
    result is monoid_nf(g, x + y).
    """
    nf = g.derived(_NormalForms)
    counts = {}
    support = lower = 0
    for e in nf1.entries + nf2.entries:
        k = nf.bit[e.cls]                       # a class id is one of its vertices
        for w, c in zip(nf.gens[k], e.gcoeffs):
            counts[w] = counts.get(w, 0) + c
        if nf.kinds[k] == "free":
            counts[e.cls] = counts.get(e.cls, 0) + e.n
        support |= 1 << k
        lower |= nf.cert.below[e.cls]
    return _nf(nf, nf.layout(support & ~lower), counts)


def nf_equal(g: SepGraph, nf1: MonoidNF, nf2: MonoidNF) -> bool:
    if nf1.antichain() != nf2.antichain():
        return False
    nf = g.derived(_NormalForms)
    layout = nf.layout(sum(1 << nf.bit[e.cls] for e in nf1.entries))
    delta = []
    for e1, e2, (_, _, _, free) in zip(nf1.entries, nf2.entries, layout.entries):
        delta += map(sub, e1.gcoeffs, e2.gcoeffs)
        if free:
            delta.append(e1.n - e2.n)
    return layout.is_zero(delta)


def eq_exact(g: SepGraph, x: FreeElement, y: FreeElement) -> bool:
    """Total equality decision for monoid elements of an adaptable graph:
    nf_equal of their normal forms, folded from their counts without
    building them.  Equal counts answer at once, after the adaptability
    and vertex checks."""
    nf = g.derived(_NormalForms)
    nf.cg.check(x, y)
    cx, cy = x.counts, y.counts
    if cx == cy:
        return True
    top = nf.cert.top_classes(cx)
    if top != nf.cert.top_classes(cy):
        return False
    layout = nf.layout(top)
    delta, slot = layout.fold(cx), layout.slot
    for w, c in cy.items():
        delta[slot[w]] -= c
    return layout.is_zero(delta)


# ----------------------------------------------------------- order relation


class LeResult(Record):
    def __init__(self, status: str, z: FreeElement | None = None):
        self.status = status          # "yes" | "no" | "unknown"
        self.z = z


def le_semidecide(g: SepGraph, x: FreeElement, y: FreeElement,
                  depth: int = 8, node_budget: int = 50000) -> LeResult:
    """Semi-decision of the algebraic order: is there z with x + z == y?"""
    cg = g.derived(_CompiledGraph)
    cg.check(x, y)
    if x == y:
        return LeResult("yes", FreeElement())
    if x.is_zero():
        return LeResult("yes", y)
    require_adaptable(g)
    cert = g.derived(_Certificates)
    support_y, lower_y = cert.spread(y.counts)
    # "no" for a class of x at or below no class of y (x is not dominated),
    # and for a free class of x with more copies than y that no class of y
    # lies above: nothing in y can feed it from above
    for v, n in x.counts.items():
        bit = cert.class_bits[v]
        if (not bit & (support_y | lower_y)
                or bit & cert.free and not bit & lower_y and n > y.get(v)):
            return LeResult("no")
    rest = _minus(y.counts, x.counts)
    if min(rest.values(), default=0) >= 0:
        return LeResult("yes", _wrap(rest))

    kern = cg.kernel(depth, x.total(), y.total())
    key, ge = cache(kern.sort_key), kern.ge     # key: once per node of this search

    def meet(added, from_x, other):
        # w >= x2 needs total(w) >= total(x2), and key sorts by total first:
        # scan only the slice of the other side whose totals can work
        reached = sorted(other, key=key)
        totals = [key(b)[0] for b in reached]
        for a in sorted(added, key=key):
            total = key(a)[0]
            if from_x:
                part = reached[bisect_left(totals, total):]
            else:
                part = reached[:bisect_right(totals, total)]
            for b in part:
                x2, w = (a, b) if from_x else (b, a)
                if ge(w, x2):
                    return x2, w

    status, _, hit = _two_sided(kern, kern.encode(x.counts), kern.encode(y.counts),
                                depth, node_budget, meet, key)
    if hit:
        (x2, tx), (w, ty) = hit
        z = kern.decode(w - x2)
        if apply_trace(g, x + z, tx) != apply_trace(g, y, ty):
            raise RewriteError("order witness replay failed")
        return LeResult("yes", z)
    if status == "exhausted":
        return LeResult("unknown")
    for v in g.vertices:
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
    from .isystem import _relation_rows, presented_group

    sub = restrict_lower(g, at)
    report = require_adaptable(sub)
    verts = sorted(sub.vertices)
    return verts, presented_group(_relation_rows(sub, report.condensation, report.kinds), verts)
