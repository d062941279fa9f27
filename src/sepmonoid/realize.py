"""Build an adaptable separated graph realizing a given invariant system.

The construction walks a linear extension of the prime poset.  Both
prime kinds read one kernel routine, `_kernel_rows`: integer rows
generating the relations among the values that the prime's group
requires of its vertices.  A free prime becomes a single vertex whose
blocks (one loop plus connectors) impose exactly the kernel rows of the
evaluation map from the already-built lower part onto the target group.
The lower vertices impose their own block relations already, so the
free blocks do not repeat them.  A regular prime becomes a small
strongly connected gadget: one vertex per torsion factor, a mutually
looped pair per free generator.  One deterministic depth-first search
chooses the gadget rows so that, together with the lower rows, they span
exactly the kernel of the value assignment, the HNF of its kernel rows.
Every prime is verified on the spot by presenting the extracted group
and checking the induced evaluation map is an isomorphism pinning the
lower generators.

The built graph carries the isomorphism the construction followed (a
`RealizeWitness`), so that `roundtrip_check` can check it instead of
searching for one.

Not every valid system is realizable.  A provable rank obstruction
raises ConstructionInfeasible; an exhausted search raises
ConstructionFailed.  Both carry the offending prime in the message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import tee
from math import comb, gcd, prod
from operator import add, mul

from .abelian import (
    FGAbelianGroup, GroupHom, _xgcd, iter_isomorphisms, left_kernel, vanishes, vec_mat,
)
from .graph import SepGraph, check_adaptable, components_of
from .isystem import ISystem, extract_isystem, validate_isystem


class ConstructionInfeasible(ValueError):
    """The system provably has no realization."""


class ConstructionFailed(ValueError):
    """No realization was found within the search budget."""


@dataclass
class RealizeResult:
    graph: SepGraph
    class_map: dict          # prime -> tuple of vertices realizing it
    values: dict             # vertex of a regular class -> element of its prime's group
    log: list = field(default_factory=list)


@dataclass
class RealizeWitness:
    """The isomorphism `realize` built its graph along, kept on that graph."""
    system: ISystem          # the very object realize was given
    poset_map: dict          # prime -> class of the built graph
    images: dict             # prime -> {vertex of its scope: element of the prime's group}


def _witness(graph: SepGraph):
    """The memo key of realize's witness: realize stores its RealizeWitness
    under it, so graph.derived(_witness) is None on any other graph."""
    return None


# ----------------------------------------------------------------- builder


class _Builder:
    def __init__(self, sysm: ISystem):
        self.sysm = sysm
        self.used_names = set()
        self.class_vertices = {}
        self.prime_of = {}
        self.out_blocks = {}      # vertex -> list of {target: mult}, loops included
        self.val = {}             # vertex in a regular class -> element of G_prime
        self.images = {}          # prime -> {vertex of its scope: image in G_prime}

    def name(self, base):
        cand = base
        while cand in self.used_names:
            cand = cand + "_"
        self.used_names.add(cand)
        return cand

    def lower(self, p):
        """The built vertices strictly below p, sorted, and one row per block
        on them: its targets minus its source, summing to 0."""
        L = sorted(u for q in self.sysm.poset.strict_down(p) for u in self.class_vertices[q])
        index = {u: i for i, u in enumerate(L)}
        return L, [_block_row(index, out, u) for u in L for out in self.out_blocks[u]]

    def required(self, p, L, rows):
        """The image in G_p that the connecting maps require of each vertex
        of L, once checked to send every row to zero."""
        sysm = self.sysm
        images = []
        for u in L:
            q = self.prime_of[u]
            cm = sysm.map_for(p, q)
            images.append(cm.unit if sysm.kind[q] == "free" else cm.hom(self.val[u]))
        if not _sends_to_zero(rows, images, sysm.group[p]):
            raise ConstructionFailed(f"{sysm.kind[p]} prime {p}: lower evaluation is not "
                                     "a homomorphism, connecting data incoherent")
        return images

    def add_free(self, p, blocks, images):
        v = self.name(p)
        self.add_class(p, {v: [_merge({v: 1}, b) for b in blocks]}, images)
        return v

    def add_class(self, p, out_blocks, images, values=()):
        """Record the class of p: its vertices in order, each with its blocks,
        and the evaluation map its construction verified (the generator
        images of theta_p in the extraction, whose scope at p is the class
        when regular and every vertex strictly below)."""
        self.class_vertices[p] = tuple(out_blocks)
        self.images[p] = images
        for v, outs in out_blocks.items():
            self.prime_of[v] = p
            self.out_blocks[v] = outs
        self.val.update(values)

    def to_graph(self) -> SepGraph:
        """Edges numbered in vertex order; a free block lists its loop first."""
        verts = sorted(self.prime_of)
        edges = []
        blocks = []
        for v in verts:
            free = self.sysm.kind[self.prime_of[v]] == "free"
            for out in self.out_blocks[v]:
                ids = []
                for t in sorted(out, key=lambda t: (not free or t != v, t)):
                    for _ in range(out[t]):
                        ids.append(f"e{len(edges) + 1}")
                        edges.append((ids[-1], v, t))
                blocks.append(tuple(ids))
        return SepGraph(verts, edges, blocks)


# ----------------------------------------------------------- shared pieces


def _hnf_insert(span, row):
    """The canonical HNF of the span of a canonical HNF `span` plus `row`.

    The row is cleared against each pivot in turn by the 2x2 extended-gcd
    combination, a leftover leading entry becomes a new pivot row, and the
    entries above each pivot are reduced into [0, pivot) again.  The basis
    is unique per lattice, so this is _row_hnf of the span's rows and row.
    """
    mat = list(span)
    # leading columns: a first nonzero value occurs first at its own column
    piv = [r.index(next(filter(None, r))) for r in mat]
    i = 0
    while any(row):
        c = row.index(next(filter(None, row)))
        while i < len(mat) and piv[i] < c:
            i += 1
        if i == len(mat) or piv[i] > c:
            mat.insert(i, tuple(-x for x in row) if row[c] < 0 else row)
            piv.insert(i, c)
            break
        a, b = mat[i][c], row[c]
        if b % a:
            g, x, y = _xgcd(a, b)
            mat[i], row = ([x * u + y * v for u, v in zip(mat[i], row)],
                           [a // g * v - b // g * u for u, v in zip(mat[i], row)])
        else:
            row = [v - b // a * u for u, v in zip(mat[i], row)]
        i += 1
    for j, c in enumerate(piv):
        for k in range(j):
            q = mat[k][c] // mat[j][c]
            if q:
                mat[k] = [u - q * v for u, v in zip(mat[k], mat[j])]
    return tuple(map(tuple, mat))


def _row_hnf(rows):
    """Canonical Hermite-style basis of the integer row span, the fold of
    _hnf_insert from the empty basis.

    Unique per lattice (positive pivots, entries above a pivot reduced into
    [0, pivot)), so tuples compare equal exactly when the spans agree.
    """
    return reduce(_hnf_insert, rows, ())


def _completion_test(target, span, inside):
    """The predicate `_hnf_insert(span, row) == target` on rows, decided in
    the quotient Q = target / span instead of by one insertion per row.

    Both are canonical HNFs and span lies in target; inside holds the
    (column, modulus) pairs, as `coordinate_columns()` gives them, on which
    exactly the rows of target vanish.  Span's rows are written over
    target's rows by exact back-substitution on target's pivot columns, and
    one Smith form of those coordinate rows gives Q's canonical
    coordinates.  If Q needs two or more generators, no row completes; if Q
    is trivial, every row of target does; if Q is cyclic, a row of target
    does when its one coordinate y in Q has gcd(y, d) == 1 (|y| == 1 when
    Q is Z).  A row outside target never completes.
    """
    piv = [r.index(next(filter(None, r))) for r in target]

    def coords(row):
        out = []
        for t, c in zip(target, piv):
            q, rem = divmod(row[c], t[c])
            if rem:
                return None
            out.append(q)
            if q:
                row = [a - q * b for a, b in zip(row, t)]
        return None if any(row) else out

    # a row of span that is row j of target has coordinates e_j: it kills
    # generator j of Q, so Q is presented on the other generators alone
    index = {t: j for j, t in enumerate(target)}
    live = sorted(set(range(len(target))) - {index[r] for r in span if r in index})
    rels = [[y[j] for j in live] for y in (coords(r) for r in span if r not in index)]
    cols = FGAbelianGroup(len(live), rels).coordinate_columns()
    if len(cols) > 1:
        return lambda row: False
    if not cols:
        return lambda row: vanishes(row, inside)
    (live_col, d), = cols
    col = [0] * len(target)
    for j, x in zip(live, live_col):
        col[j] = x
    # y is a linear form on the rows of target: det * y == form . row, where
    # form solves the triangular system that target's pivot columns make
    det = prod(t[c] for t, c in zip(target, piv))
    form = [0] * len(target[0])
    for i in reversed(range(len(target))):
        t, c = target[i], piv[i]
        form[c] = (col[i] * det - sum(map(mul, t, form))) // t[c]
    return lambda row: vanishes(row, inside) and gcd(sum(map(mul, row, form)) // det, d) == 1


def _kernel_rows(values, G):
    """Nonzero integer rows r generating the lattice of sum(r[i] * values[i])
    == 0 in G: one left kernel of the values' coefficient rows stacked on
    G's relations, cut to the values' columns."""
    n = len(values)
    ker = left_kernel([list(v.coeffs) for v in values] + G.relations)
    return [r[:n] for r in ker if any(r[:n])]


_PREIMAGE_MAX_TOTAL = 16
_PREIMAGE_STATE_CAP = 40000


def _nonneg_preimage(group, target, gens):
    """Multiset over gen keys whose images sum to target, or None.

    gens: list of (key, GroupElement); breadth-first, so the result is a
    smallest such multiset and deterministic for a fixed gens order.  The
    walk visits each element once, in layers of growing total, and gives
    up past layer _PREIMAGE_MAX_TOTAL (16) or after _PREIMAGE_STATE_CAP
    (40,000) elements.
    """
    goal = target.canonical()
    zero = group.zero()
    if zero.canonical() == goal:
        return {}
    seen = {zero.canonical()}
    frontier, n = [(zero, {})], 0
    for _ in range(_PREIMAGE_MAX_TOTAL):
        nxt = []
        for x, ms in frontier:
            for key, gv in gens:
                y = x + gv
                c = y.canonical()
                if c in seen:
                    continue
                seen.add(c)
                n += 1
                nms = dict(ms)
                nms[key] = nms.get(key, 0) + 1
                if c == goal:
                    return nms
                if n >= _PREIMAGE_STATE_CAP:
                    return None
                nxt.append((y, nms))
        frontier = nxt
    return None


def _block_row(index, out, source=None):
    """One row over the columns of index: a block's target counts, minus
    its source when given."""
    row = [0] * len(index)
    for t, c in out.items():
        row[index[t]] += c
    if source is not None:
        row[index[source]] -= 1
    return row


def _sends_to_zero(rows, images, G):
    """Does the evaluation at images, one element of G per column, kill every row?"""
    coeffs, cols = [x.coeffs for x in images], G.coordinate_columns()
    return all(vanishes(vec_mat(row, coeffs), cols) for row in rows)


def _presents(G, rows, values):
    """Is the group presented by rows, one column per value, isomorphic to
    G by sending each generator to its value?"""
    return GroupHom(FGAbelianGroup(len(values), rows), G,
                    [v.coeffs for v in values]).is_isomorphism()


def _reached(builder, targets):
    """Primes at or below the class of some built vertex among targets."""
    hit = set()
    for t in targets:
        if t in builder.prime_of:
            hit |= set(builder.sysm.poset.downset(builder.prime_of[t]))
    return hit


def _merge(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


# -------------------------------------------------------------- free primes


def _realize_free(builder: _Builder, p, log):
    sysm = builder.sysm
    G = sysm.group[p]
    lows = sorted(sysm.poset.strict_down(p))
    if not lows:
        # minimal free prime: a sink (its group is trivial by validation)
        builder.add_free(p, [], {})
        return
    L, rows = builder.lower(p)
    required = builder.required(p, L, rows)
    index = {u: i for i, u in enumerate(L)}
    cone = list(zip(L, required))
    blocks = []
    seen = set()

    def push(ms):
        ms = {u: m for u, m in ms.items() if m}
        if not ms:
            return
        key = tuple(sorted(ms.items()))
        if key not in seen:
            seen.add(key)
            blocks.append(ms)

    for coeffs in _kernel_rows(required, G):
        pos = {L[i]: c for i, c in enumerate(coeffs) if c > 0}
        neg = {L[i]: -c for i, c in enumerate(coeffs) if c < 0}
        pos_val = sum((c * required[i] for i, c in enumerate(coeffs) if c > 0), G.zero())
        z = _nonneg_preimage(G, -pos_val, cone)
        if z is None:
            raise ConstructionFailed(
                f"free prime {p}: no nonnegative preimage for a kernel generator within bounds")
        push(_merge(pos, z))
        push(_merge(neg, z))
    # make sure the new vertex sees every lower cover class
    for q in sysm.poset.lower_covers(p):
        if q in _reached(builder, [u for b in blocks for u in b]):
            continue
        u = builder.class_vertices[q][0]
        z = _nonneg_preimage(G, -required[index[u]], cone)
        if z is None:
            raise ConstructionFailed(
                f"free prime {p}: no nonnegative preimage for coverage of {q} within bounds")
        push(_merge({u: 1}, z))
    v = builder.add_free(p, blocks, dict(cone))
    # verify: lower rows plus the block rows present exactly G
    if not _presents(G, rows + [_block_row(index, b) for b in blocks], required):
        raise ConstructionFailed(f"free prime {p}: verification of the presented group failed")
    log.append(f"free {p}: vertex {v}, {len(blocks)} block(s)")


# ----------------------------------------------------------- regular primes


_SMALL_ROWS_LIMIT = 500


def _small_kernel_rows(coords, mods, nW):
    """Nonnegative kernel rows of small total, smallest first, generated
    lazily in (sum(r), r) order.

    Each row has a gadget coordinate (one of the first nW), which keeps the
    internal out-degree of its vertex at 2 or more.  The total bound starts
    at 4 (3 on more than 10 coordinates) and grows while the number of rows
    within it stays below _SMALL_ROWS_LIMIT (500).  One loop steps through
    each total's rows in order and keeps their value as one packed int.
    """
    n = len(coords)
    cap = 4 if n <= 10 else 3
    while comb(n + cap + 1, n) < _SMALL_ROWS_LIMIT:
        cap += 1
    # a row's value packed into one int: coordinate j sits in bits
    # [w * j, w * j + w) plus the offset 2**(w - 1), wide enough for every
    # row within the cap, so that adding a row's packs adds its values
    w = (cap * max((abs(x) for c in coords for x in c), default=0)).bit_length() + 2
    half, mask = 1 << (w - 1), (1 << w) - 1
    codes = [sum(x << w * j for j, x in enumerate(c)) for c in coords]
    zero = sum(half << w * j for j in range(len(mods)))
    free = sum(mask << w * j for j, m in enumerate(mods) if not m)
    tors = [(w * j, m, half % m) for j, m in enumerate(mods) if m]
    for total in range(1, cap + 1):
        # the rows of one total in lexicographic order, from the first with
        # a gadget coordinate, (0, ..., 0, 1, 0, ..., total - 1) with the 1
        # at coordinate nW - 1; every later row has one too
        row = [0] * n
        row[nW - 1] += 1
        row[-1] += total - 1
        key = zero + codes[nW - 1] + (total - 1) * codes[-1]
        while True:
            if key & free == zero & free and all((key >> s & mask) % m == h for s, m, h in tors):
                yield tuple(row)
            # the next row: one unit moves from the last nonzero entry p > 0
            # to entry p - 1, and the rest of entry p moves to the end
            p = n - 1
            while not row[p]:
                p -= 1
            if not p:
                break
            c = row[p]
            row[p] = 0
            row[p - 1] += 1
            row[-1] += c - 1
            key += codes[p - 1] - c * codes[p] + (c - 1) * codes[-1]


# Candidates a node with one row left adds to its span before it builds its
# completion test.  A build costs about five insertions, and where the
# first candidate fails the second often completes, which makes a build
# after one failure a loss on most such nodes of the stress corpus.
_LAST_ROW_INSERTIONS = 2


def _realize_regular(builder: _Builder, p, budget, log):
    """Gadget rows (out-maps minus one loop) by one depth-first search.

    The gadget vertices carry the canonical generators of G_p (g and -g on
    the pair of a free generator), so together they generate G_p whatever
    arrives from below.  Each vertex draws its row from one ordered pool:
      1. core plus ring, with the coverage pinning vectors on the first row;
      2. that row plus one or two pinning vectors;
      3. small nonnegative kernel rows, enumerated lazily, only as far as
         the search reads, and shared by every level.
    Each level reads its pool once, as int tuples, and every later node at
    that level replays it.  Rows that cannot raise the span to the lattice
    rank are pruned, and one visit counter stops the whole search when it
    reaches 100 * budget.  At a node with one row left, the first
    _LAST_ROW_INSERTIONS (2) candidates are added to the span as at every
    other level; once they fail, `_completion_test` decides the node's
    other candidates in the quotient target / span, with no insertion.
    Each of them still counts as one visit, after the same budget check,
    so the visits, the log and the graph are those of the search that
    inserts every row.
    """
    sysm = builder.sysm
    G = sysm.group[p]
    f = G.free_rank
    L, ambient = builder.lower(p)
    lower_span = _row_hnf(ambient)
    if len(L) - len(lower_span) > f:
        raise ConstructionInfeasible(
            f"regular prime {p}: the built lower part has free rank {len(L) - len(lower_span)}, "
            f"but the target group only has free rank {f}; no row set can cancel the difference")
    required = builder.required(p, L, ambient)
    cg = G.canonical_generators()
    facs = G.invariant_factors
    # gadget vertices: pairs for free generators, one vertex per torsion factor,
    # a doubly looped vertex if the group is trivial
    pairs = [(builder.name(f"{p}.{2 * i + 1}"), builder.name(f"{p}.{2 * i + 2}"))
             for i in range(f)]
    tors = [builder.name(f"{p}.{2 * f + k + 1}") for k in range(len(facs))]
    W = [v for pair in pairs for v in pair] + tors or [builder.name(f"{p}.1")]
    # the relation each row always carries, and a ring through the pieces'
    # first vertices for strong connectivity
    core = {w: {w: 1} for w in W}
    core.update({w: {w: d} for w, d in zip(tors, facs)})
    core.update({v: {a: 1, b: 1} for a, b in pairs for v in (a, b)})
    heads = [a for a, _ in pairs] + tors or W
    ring = {w: {} for w in W}
    if len(heads) > 1:
        ring.update(zip(heads, (core[h] for h in heads[1:] + heads[:1])))
    spare = [b for _, b in pairs]
    row_order = spare + [w for w in W if w not in spare]
    order = W + L
    nW = len(W)

    R_L = [[0] * nW + row for row in ambient]
    mods = [0] * f + list(facs)
    covers = sysm.poset.lower_covers(p)
    visits = 0
    # gadget values: the canonical generators, g and -g on a free pair
    tval = dict(zip(W, [v for gen in cg[:f] for v in (gen, -gen)] + cg[f:] or [G.zero()]))
    values = list(tval.values()) + required

    def accept(rows):
        out_maps = {w: _merge({order[k]: c for k, c in enumerate(row) if c}, {w: 1})
                    for w, row in zip(row_order, rows)}
        hit = _reached(builder, [t for om in out_maps.values() for t in om])
        if any(q not in hit for q in covers):
            return None
        wset = set(W)
        if len(components_of({w: [v for v in out_maps[w] if v in wset] for w in W})) > 1:
            return None
        if not _presents(G, R_L + list(rows), values):
            return None
        return out_maps

    target = _row_hnf(_kernel_rows(values, G))
    # pinning vectors: a lower vertex plus gadget vertices cancelling its value
    tcone = list(tval.items())
    pre = {u: _nonneg_preimage(G, -val, tcone) for u, val in zip(L, required)}
    pin = {u: _merge({u: 1}, m) for u, m in pre.items() if m is not None}
    cover_pins = [pin[u] for u in (builder.class_vertices[q][0] for q in covers) if u in pin]
    coords = [list(v.canonical()[0]) + list(v.canonical()[1]) for v in values]
    # target is the kernel lattice: the rows on which these vanish
    inside = list(zip(zip(*coords), mods))
    # each pool is a tee object over one lazy generator: a copy of it
    # (__copy__, no dispatch through copy.copy) replays what was read so
    # far from the start, then reads on demand
    small_rows = tee(_small_kernel_rows(coords, mods, nW), 1)[0]

    def vec(ms):
        return tuple(ms.get(v, 0) for v in order)

    def extra_vecs():
        # nothing, each pinning vector, then each pair of them
        yield (0,) * len(order)
        singles = [vec(m) for m in pin.values()]
        yield from singles
        for i, z in enumerate(singles):
            for y in singles[i:]:
                yield tuple(map(add, z, y))

    extras = tee(extra_vecs(), 1)[0]

    def level(j):
        w = row_order[j]
        fixed = vec(reduce(_merge, [core[w], ring[w]] + (cover_pins if j == 0 else [])))
        seen = set()
        for extra in extras.__copy__():
            row = tuple(map(add, fixed, extra))
            if row not in seen:
                seen.add(row)
                yield row
        yield from (row for row in small_rows.__copy__() if row not in seen)

    candidates = [tee(level(j), 1)[0] for j in range(nW)]

    def rec(rows, span):
        nonlocal visits
        visits += 1
        if len(target) - len(span) > nW - len(rows):
            return None
        if len(rows) == nW:
            return accept(rows) if span == target else None
        completes = None
        for k, row in enumerate(candidates[len(rows)].__copy__(), 1):
            if visits >= 100 * budget:
                return None
            if completes is not None:
                # the one visit that rec would count for the last row
                visits += 1
                got = accept(rows + (row,)) if completes(row) else None
            else:
                got = rec(rows + (row,), _hnf_insert(span, row))
                if got is None and len(rows) == nW - 1 and k == _LAST_ROW_INSERTIONS:
                    completes = _completion_test(target, span, inside)
            if got is not None:
                return got
        return None

    out_maps = rec((), tuple((0,) * nW + tuple(r) for r in lower_span))
    if out_maps is None:
        raise ConstructionFailed(
            f"regular prime {p}: no row set matched the kernel lattice after {visits} visits")
    builder.add_class(p, {w: [out_maps[w]] for w in W}, dict(zip(order, values)), tval)
    log.append(f"regular {p}: vertices {', '.join(W)}, attempt {visits}")


# --------------------------------------------------------------------- api


def realize(system: ISystem, *, budget: int = 200,
            validate: bool = True) -> RealizeResult:
    """Construct a graph whose extracted system is isomorphic to `system`.

    The search is deterministic.  Each regular prime's search makes at most
    100 * budget visits, and budget must be at least 1 (ValueError
    otherwise).  The graph carries the isomorphism of
    the construction: each prime's class, and the image of every vertex of
    the prime's scope in its group.  `roundtrip_check(system, graph)`
    checks it in place of a search.
    """
    if budget < 1:
        raise ValueError(f"realize: budget must be at least 1, got {budget}")
    log = []
    if validate:
        rep = validate_isystem(system)
        if not rep.ok:
            msgs = "; ".join(fl.detail for fl in rep.failures[:3])
            raise ValueError(f"system fails validation: {msgs}")
    builder = _Builder(system)
    for p in system.poset.linear_extension():
        if system.kind[p] == "free":
            _realize_free(builder, p, log)
        else:
            _realize_regular(builder, p, budget, log)
    graph = builder.to_graph()
    report = check_adaptable(graph)
    if not report.ok:
        raise ConstructionFailed(
            "built graph is not adaptable: " + "; ".join(sorted(report.violation_clauses())))
    psi = {}
    for p, verts in builder.class_vertices.items():
        classes = {report.condensation.class_of[v] for v in verts}
        if len(classes) != 1:
            raise ConstructionFailed(f"vertices of prime {p} split into several classes")
        cid = classes.pop()
        if set(report.condensation.members[cid]) != set(verts):
            raise ConstructionFailed(f"class of prime {p} absorbed foreign vertices")
        if report.kinds[cid] != system.kind[p]:
            raise ConstructionFailed(
                f"prime {p} realized as {report.kinds[cid]}, wanted {system.kind[p]}")
        psi[p] = cid
    graph._derived[_witness] = RealizeWitness(system, psi, builder.images)
    return RealizeResult(graph, dict(builder.class_vertices), dict(builder.val), log)


@dataclass
class RoundtripReport:
    status: str               # Verified | FailedAt | InconclusiveWithinBound
    poset_map: dict | None = None
    detail: str = ""
    theta: dict | None = None      # Verified: prime -> iso ext group -> system group
    by: str = "search"             # "witness" when realize's own isomorphism certified it


def check_roundtrip_certificate(system: ISystem, graph: SepGraph, poset_map: dict,
                                theta: dict) -> str | None:
    """Check a round-trip certificate without any search.

    None when poset_map (prime -> class of the extraction of graph) is a
    kind-preserving poset isomorphism, and each theta[p] is an isomorphism
    from the extracted group at poset_map[p] onto the system's group at p
    that commutes with every connecting map on generators and sends each
    unit of the extraction to the system's.  Otherwise the first failure.
    """
    ext = extract_isystem(graph)
    psi = poset_map
    primes = list(system.poset)
    if sorted(psi) != sorted(primes) or sorted(psi.values()) != sorted(ext.poset):
        return "the poset map is no bijection onto the extracted classes"
    if set(theta) != set(psi):
        return "theta does not have one isomorphism per prime"
    for p in primes:
        if system.kind[p] != ext.kind[psi[p]]:
            return f"prime {p} is {system.kind[p]}, its class {psi[p]} is {ext.kind[psi[p]]}"
        for q in primes:
            if system.poset.le(p, q) != ext.poset.le(psi[p], psi[q]):
                return f"the poset map does not keep the order of {p} and {q}"
    for p in primes:
        f = theta[p]
        if not (f.domain.same_presentation(ext.group[psi[p]])
                and f.codomain.same_presentation(system.group[p]) and f.is_isomorphism()):
            return f"theta at {p} is no isomorphism onto its group"
    for p in primes:
        f = theta[p]
        for q in sorted(system.poset.strict_down(p)):
            cm_e, cm_o = ext.map_for(psi[p], psi[q]), system.map_for(p, q)
            for e_row, t_row in zip(cm_e.hom.matrix, theta[q].matrix):
                if f(e_row) != cm_o.hom(t_row):
                    return f"theta does not commute with the map {p} <- {q}"
            if (cm_e.unit is None) != (cm_o.unit is None):
                return f"the map {p} <- {q} has a unit on one side only"
            if cm_e.unit is not None and f(cm_e.unit) != cm_o.unit:
                return f"theta at {p} does not send the unit of {q} to the system's"
    return None


def _witness_theta(system: ISystem, ext: ISystem, wit: RealizeWitness):
    """theta from the witness's vertex images, or None where they do not
    name the extracted generators."""
    theta = {}
    for p, c in wit.poset_map.items():
        labels, img = ext.generator_labels[c], wit.images[p]
        if set(labels) != set(img):
            return None
        theta[p] = GroupHom(ext.group[c], system.group[p], [img[w] for w in labels])
    return theta


def _content(x) -> int:
    """The gcd of the free canonical coordinates of x.  Every isomorphism
    keeps it, so f(a) == b fails for all f when a and b differ in it."""
    return gcd(*x.canonical()[0])


ROUNDTRIP_BOX = 4         # the search lists free images with coordinates in [-4, 4]
ROUNDTRIP_BRANCH = 64     # and tries at most 64 isomorphisms per prime


def roundtrip_check(system: ISystem, graph: SepGraph) -> RoundtripReport:
    """Compare a system against the extraction of a (realized) graph.

    A Verified report carries `poset_map` (prime -> class of the
    extraction) and `theta` (prime p -> GroupHom from the extracted group
    at poset_map[p] onto the system's group at p), and `by` says where
    they came from.  When `realize` built the graph from this very system
    object, its witness gives both, and `check_roundtrip_certificate`
    checks them (`by="witness"`).  Otherwise, or if that check fails, a
    bounded search looks for a kind-preserving poset isomorphism together
    with a family of group isomorphisms commuting with all connecting maps
    (`by="search"`).  Only that search is bounded, by ROUNDTRIP_BOX and
    ROUNDTRIP_BRANCH, read at each call.
    """
    ext = extract_isystem(graph)
    wit = graph.derived(_witness)
    if wit is not None and wit.system is system:
        theta = _witness_theta(system, ext, wit)
        if (theta is not None
                and check_roundtrip_certificate(system, graph, wit.poset_map, theta) is None):
            return RoundtripReport("Verified", dict(wit.poset_map), theta=theta, by="witness")

    def sig_o(p):
        return (system.kind[p], system.group[p].invariant_factors, system.group[p].free_rank)

    def sig_e(c):
        return (ext.kind[c], ext.group[c].invariant_factors, ext.group[c].free_rank)

    saw_any_psi = False
    saw_inconclusive = False
    order = system.poset.linear_extension()
    for psi in system.poset.isomorphisms(ext.poset, sig_o, sig_e):
        saw_any_psi = True
        theta = {}

        def assign(i):
            nonlocal saw_inconclusive
            if i == len(order):
                return True
            p = order[i]
            constraints = []
            for q in sorted(system.poset.strict_down(p)):
                cm_e = ext.map_for(psi[p], psi[q])
                cm_o = system.map_for(p, q)
                gq = ext.group[psi[q]]
                for gi in range(gq.ngens):
                    lhs = ext.group[psi[p]].element(cm_e.hom.matrix[gi])
                    rhs = cm_o.hom(theta[q](gq.gen(gi)))
                    constraints.append((lhs, rhs))
                if (cm_e.unit is None) != (cm_o.unit is None):
                    return False
                if cm_e.unit is not None:
                    constraints.append((cm_e.unit, cm_o.unit))
            tried = 0
            for fiso in iter_isomorphisms(ext.group[psi[p]], system.group[p], constraints,
                                          ROUNDTRIP_BOX):
                theta[p] = fiso
                if assign(i + 1):
                    return True
                tried += 1
                if tried >= ROUNDTRIP_BRANCH:
                    break
            theta.pop(p, None)
            if (tried == 0 and system.group[p].free_rank > 0
                    and all(_content(a) == _content(b) for a, b in constraints)):
                saw_inconclusive = True
            return False

        if assign(0):
            return RoundtripReport("Verified", psi, theta=dict(theta))
    if not saw_any_psi:
        return RoundtripReport("FailedAt", None,
                               "no kind- and group-compatible poset isomorphism")
    if saw_inconclusive:
        return RoundtripReport("InconclusiveWithinBound", None,
                               "free parts exhausted the bounded isomorphism search")
    return RoundtripReport("FailedAt", None,
                           "no compatible family of group isomorphisms")
