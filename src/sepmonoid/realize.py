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
The lattice algebra it reads (Hermite forms, the completion test, Smith
forms and kernels) lives in `abelian`.  Every prime is verified on the
spot by presenting the extracted group and checking the induced
evaluation map is an isomorphism pinning the lower generators.

The built graph carries the isomorphism the construction followed (a
`RealizeWitness`), so that `roundtrip_check` can check it instead of
searching for one.

Not every valid system is realizable.  A provable rank obstruction
raises ConstructionInfeasible; an exhausted search raises
ConstructionFailed.  Both carry the offending prime in the message.
"""

from __future__ import annotations

from functools import reduce
from itertools import tee
from math import comb, gcd
from operator import add, mod, neg

from .abelian import (
    GroupHom, _completion_test, _hnf_insert, _row_hnf, images_agree, isomorphism_test,
    iter_isomorphisms, left_kernel, snf_diagonal, vec_mat,
)
from .graph import SepGraph, check_adaptable
from .isystem import ISystem, extract_isystem, validate_isystem
from .posets import components_of
from .records import Record


class InvalidSystem(ValueError):
    """The system fails validation; `report` is its ValidationReport."""

    def __init__(self, report):
        super().__init__("system fails validation: "
                         + "; ".join(fl.detail for fl in report.failures[:3]))
        self.report = report


class ConstructionInfeasible(ValueError):
    """The system provably has no realization."""


class ConstructionFailed(ValueError):
    """No realization was found within the search budget."""


class RealizeResult(Record):
    def __init__(self, graph: SepGraph, class_map: dict, log: list | None = None):
        self.graph = graph
        self.class_map = class_map    # prime -> tuple of vertices realizing it
        self.log = [] if log is None else log


class RealizeWitness(Record):
    """The isomorphism `realize` built its graph along, kept on that graph."""

    def __init__(self, system: ISystem, poset_map: dict, images: dict):
        self.system = system          # the very object realize was given
        self.poset_map = poset_map    # prime -> class of the built graph
        self.images = images          # prime -> {vertex of its scope: row in the prime's group}


def _witness(graph: SepGraph):
    """The memo key of realize's witness: realize stores its RealizeWitness
    under it, so graph.derived(_witness) is None on any other graph."""
    return None


# ----------------------------------------------------------------- builder


class _Builder:
    """The graph under construction.  Each vertex value is kept once, as a
    coefficient row in images; a free vertex's value is its prime's unit."""

    def __init__(self, sysm: ISystem):
        self.sysm = sysm
        self.used_names = set()
        self.class_vertices = {}
        self.prime_of = {}
        self.out_blocks = {}      # vertex -> list of {target: mult}, loops included
        self.images = {}          # prime -> {vertex of its scope: coefficient row in G_prime}

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

    def required(self, p, L):
        """The image in G_p, as a coefficient row, that the connecting maps
        require of each vertex of L; on a valid system they kill every block row."""
        sysm = self.sysm
        images = []
        for u in L:
            q = self.prime_of[u]
            cm = sysm.map_for(p, q)
            images.append(cm.unit.coeffs if sysm.kind[q] == "free"
                          else _image(self.images[q][u], cm.hom))
        return images

    def add_free(self, p, blocks, images):
        v = self.name(p)
        self.add_class(p, {v: [_merge({v: 1}, b) for b in blocks]}, images)
        return v

    def add_class(self, p, out_blocks, images):
        """Record the class of p: its vertices in order, each with its blocks,
        and the evaluation map its construction verified (the generator
        images of theta_p in the extraction, whose scope at p is the class
        when regular and every vertex strictly below)."""
        self.class_vertices[p] = tuple(out_blocks)
        self.images[p] = images
        for v, outs in out_blocks.items():
            self.prime_of[v] = p
            self.out_blocks[v] = outs

    def to_graph(self) -> SepGraph:
        """Edges numbered in vertex order; a free block lists its loop first."""
        verts = sorted(self.prime_of)
        edges = []
        blocks = []
        for v in verts:
            free = self.sysm.kind[self.prime_of[v]] == "free"
            for out in self.out_blocks[v]:
                ids = []
                targets = sorted(out)
                if free and v in out:
                    targets.remove(v)
                    targets.insert(0, v)
                for t in targets:
                    for _ in range(out[t]):
                        ids.append(f"e{len(edges) + 1}")
                        edges.append((ids[-1], v, t))
                blocks.append(tuple(ids))
        return SepGraph(verts, edges, blocks)


# ----------------------------------------------------------- shared pieces


def _image(row, hom):
    """The coefficient row of hom(row), also when hom has no rows."""
    return tuple(vec_mat(row, hom.matrix)) if hom.matrix else (0,) * hom.codomain.ngens


def _kernel_rows(values, G):
    """Nonzero integer rows r generating the lattice of sum(r[i] * values[i])
    == 0 in G, values given as coefficient rows: one left kernel of them
    stacked on G's relations, cut to the values' columns."""
    n = len(values)
    ker = left_kernel([list(v) for v in values] + G.relations)
    return [r[:n] for r in ker if any(r[:n])]


_PREIMAGE_MAX_TOTAL = 16
_PREIMAGE_STATE_CAP = 40000


def _nonneg_preimage(group, target, gens):
    """Multiset over gen keys whose images sum to target, or None.

    gens: list of (key, coefficient row), and target a row too;
    breadth-first, so the result is a smallest such multiset and
    deterministic for a fixed gens order.  The walk visits each element
    once, in layers of growing total, and gives up past layer
    _PREIMAGE_MAX_TOTAL (16) or after _PREIMAGE_STATE_CAP (40,000)
    elements.  It runs on canonical coordinate tuples (`canonical_coords`):
    free coordinates add, and torsion coordinates add modulo their factor.
    Its one caller is a free prime's top-ups; a regular pin is read off
    canonical coordinates (`_gadget_pin`).
    """
    k, mods = group.free_rank, group.invariant_factors
    goal = sum(group.canonical_coords(target), ())
    zero = (0,) * (k + len(mods))
    if zero == goal:
        return {}
    steps = [(key, sum(group.canonical_coords(row), ())) for key, row in gens]
    seen = {zero}
    frontier, n = [(zero, {})], 0
    for _ in range(_PREIMAGE_MAX_TOTAL):
        nxt = []
        for x, ms in frontier:
            for key, g in steps:
                c = (*map(add, x[:k], g[:k]), *map(mod, map(add, x[k:], g[k:]), mods))
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
                nxt.append((c, nms))
        frontier = nxt
    return None


def _gadget_pin(group, u, value, gens):
    """The pinning vector of u: u once plus the gadget vertices of least
    total cancelling value, or None when that total passes the walk's
    layer bound.

    gens are a regular gadget's vertices with their values: g_i and then
    -g_i per free canonical generator, then one per torsion generator (or
    one vertex of value 0 on a trivial group).  With c the canonical
    coordinates of -value, the cancelling multiset of least total
    D = sum(|c_free|) + sum(c_tors) is unique: |c_i| copies of the pair
    vertex of c_i's sign and c_k copies of torsion vertex k.  Past
    D = _PREIMAGE_MAX_TOTAL (read at each call) there is no pin, as the
    walk stops at that layer.
    """
    f, mods = group.free_rank, group.invariant_factors
    free, tors = group.canonical_coords(value)
    tors = [-t % d for t, d in zip(tors, mods)]
    total = sum(map(abs, free)) + sum(tors)
    if total > _PREIMAGE_MAX_TOTAL:
        return None
    pin = {u: 1}
    for i, c in enumerate(free):
        if c:
            # -value has coordinate -c: vertex g_i when c < 0, -g_i when c > 0
            pin[gens[2 * i + (c > 0)][0]] = abs(c)
    for k, t in enumerate(tors, 2 * f):
        if t:
            pin[gens[k][0]] = t
    return pin


def _block_row(index, out, source=None):
    """One row over the columns of index: a block's target counts, minus
    its source when given."""
    row = [0] * len(index)
    for t, c in out.items():
        row[index[t]] += c
    if source is not None:
        row[index[source]] -= 1
    return row


def _presents(G, rows, values):
    """Is the group presented by rows, one column per value (a coefficient
    row of G), isomorphic to G by sending each generator to its value?
    `isomorphism_test` on the rows' Smith diagonal, with no group built.
    The answer depends only on the rows' span, so a regular prime passes
    the HNF of its lower block rows."""
    return isomorphism_test(snf_diagonal(rows), rows, values, G)


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
    """One vertex for the free prime p: per kernel row of the lower
    evaluation, one block for each sign, topped up by one nonnegative
    preimage so that it sums to zero in G_p.

    On a valid system, the only kind `realize` builds, every lower vertex
    lies on some kernel row (a regular gadget vertex on d*e_u, e_a + e_b or
    e_u, a free vertex on the row the cone axiom gives it at the least free
    prime above it), so the blocks reach every lower cover.  A cover they
    miss is a fault of the construction, and raises ConstructionFailed
    rather than leave p a sink that does not reach it.
    """
    sysm = builder.sysm
    G = sysm.group[p]
    lows = sorted(sysm.poset.strict_down(p))
    if not lows:
        # minimal free prime: a sink (its group is trivial by validation)
        builder.add_free(p, [], {})
        return
    L, rows = builder.lower(p)
    required = builder.required(p, L)
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
        # the top-up cancels the positive side: -sum(c * required[i], c > 0)
        z = _nonneg_preimage(G, vec_mat([-max(c, 0) for c in coeffs], required), cone)
        if z is None:
            raise ConstructionFailed(
                f"free prime {p}: no nonnegative preimage for a kernel generator within bounds")
        push(_merge(pos, z))
        push(_merge(neg, z))
    reached = _reached(builder, [u for b in blocks for u in b])
    for q in sysm.poset.lower_covers(p):
        if q not in reached:
            raise ConstructionFailed(f"free prime {p}: lower cover {q} is on no kernel row")
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


def _realize_regular(builder: _Builder, p, budget, log):
    """Gadget rows (out-maps minus one loop) by one depth-first search.

    The gadget vertices carry the canonical generators of G_p (g and -g on
    the pair of a free generator), so together they generate G_p whatever
    arrives from below.  A pinning vector (a lower vertex plus gadget
    vertices cancelling its value) is read off the value's canonical
    coordinates by `_gadget_pin`, with no search.  Each vertex draws its row
    from one ordered pool:
      1. core plus ring, with the coverage pinning vectors on the first row;
      2. that row plus one or two pinning vectors;
      3. small nonnegative kernel rows, enumerated lazily, only as far as
         the search reads, and shared by every level.
    Each level reads its pool once, as int tuples, and every later node at
    that level replays it.  Rows that cannot raise the span to the lattice
    rank are pruned, and one visit counter stops the whole search when it
    reaches 100 * budget.  A node with one row left builds one
    `_completion_test` and decides every candidate in the quotient
    target / span, with no insertion; each counts as one visit, after the
    same budget check, and goes to `accept` when it raises the span to
    target.  The test is exact on rows of target, and every pool row is
    one: core, ring, pins and small rows are all kernel rows of the values.

    Before any of that is built, `accept` checks the first descent (the
    first candidate at every level), which the search reaches after
    nW + 1 visits.  Every candidate and lower row lies in the values'
    kernel lattice, target, and `_presents` holds exactly when their span
    equals it (the values map onto G_p).  So if it accepts, the last row
    completes target and no level is pruned (a row raises the rank by at
    most 1): the search returns the same.  The check before level j's row
    sees j + 1 visits, so both finish that descent when nW < 100 * budget.
    `accept` presents the lower part by lower_span, the HNF of its block
    rows: one lattice, so `_presents` answers the same on fewer rows.
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
    required = builder.required(p, L)
    cg = G._canonical_rows()
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

    R_L = [(0,) * nW + row for row in lower_span]
    mods = [0] * f + list(facs)
    covers = sysm.poset.lower_covers(p)
    visits = 0
    # gadget values: the canonical generators, g and -g on a free pair
    tval = dict(zip(W, [v for gen in cg[:f] for v in (gen, tuple(map(neg, gen)))] + cg[f:]
                    or [(0,) * G.ngens]))
    values = list(tval.values()) + required

    def accept(rows):
        out_maps = {w: _merge({order[k]: c for k, c in enumerate(row) if c}, {w: 1})
                    for w, row in zip(row_order, rows)}
        hit = _reached(builder, [t for om in out_maps.values() for t in om])
        if any(q not in hit for q in covers):
            return None
        wset = set(W)
        if nW > 1 and len(components_of({w: [v for v in out_maps[w] if v in wset]
                                         for w in W})) > 1:
            return None
        if not _presents(G, R_L + list(rows), values):
            return None
        return out_maps

    # pinning vectors: a lower vertex plus gadget vertices cancelling its value
    image = dict(zip(order, values))
    gens = list(tval.items())

    def pin_of(u):
        return _gadget_pin(G, u, image[u], gens)

    cover_pin = {u: pin_of(u) for u in (builder.class_vertices[q][0] for q in covers)}
    cover_pins = [z for z in cover_pin.values() if z is not None]

    def vec(ms):
        return tuple(ms.get(v, 0) for v in order)

    def first(j):
        # the first candidate of level j: core plus ring, the cover pins on row 0
        w = row_order[j]
        return vec(reduce(_merge, [core[w], ring[w]] + (cover_pins if j == 0 else [])))

    out_maps = accept(tuple(map(first, range(nW)))) if nW < 100 * budget else None
    if out_maps is not None:
        builder.add_class(p, {w: [out_maps[w]] for w in W}, image)
        log.append(f"regular {p}: vertices {', '.join(W)}, attempt {nW + 1}")
        return

    target = _row_hnf(_kernel_rows(values, G))
    pins = [cover_pin[u] if u in cover_pin else pin_of(u) for u in L]
    coords = [[*free, *tors] for free, tors in map(G.canonical_coords, values)]
    # each pool is a tee object over one lazy generator: a copy of it
    # (__copy__, no dispatch through copy.copy) replays what was read so
    # far from the start, then reads on demand
    small_rows = tee(_small_kernel_rows(coords, mods, nW), 1)[0]

    def extra_vecs():
        # nothing, each pinning vector, then each pair of them
        yield (0,) * len(order)
        singles = [vec(m) for m in pins if m is not None]
        yield from singles
        for i, z in enumerate(singles):
            for y in singles[i:]:
                yield tuple(map(add, z, y))

    extras = tee(extra_vecs(), 1)[0]

    def level(j):
        fixed = first(j)
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
        last = len(rows) == nW - 1
        completes = _completion_test(target, span) if last else None
        for row in candidates[len(rows)].__copy__():
            if visits >= 100 * budget:
                return None
            if last:
                # one visit per candidate, as a node one level down counts
                visits += 1
                got = accept(rows + (row,)) if completes(row) else None
            else:
                got = rec(rows + (row,), _hnf_insert(span, row))
            if got is not None:
                return got
        return None

    out_maps = rec((), tuple(R_L))
    # rec reaches itself through its closure: unbind it, so that reference
    # counting frees the search's closures, generators and tee buffers
    del rec
    if out_maps is None:
        raise ConstructionFailed(
            f"regular prime {p}: no row set matched the kernel lattice after {visits} visits")
    builder.add_class(p, {w: [out_maps[w]] for w in W}, image)
    log.append(f"regular {p}: vertices {', '.join(W)}, attempt {visits}")


# --------------------------------------------------------------------- api


def realize(system: ISystem, *, budget: int = 200) -> RealizeResult:
    """Construct a graph whose extracted system is isomorphic to `system`.

    `validate_isystem` runs first: a failing system raises InvalidSystem,
    carrying the report.  The search is deterministic: each regular prime
    makes at most 100 * budget visits, and budget must be at least 1
    (ValueError otherwise).  The graph carries the construction's
    isomorphism (each prime's class, each scope vertex's image in the
    prime's group), which `roundtrip_check(system, graph)` checks with no search.
    """
    if budget < 1:
        raise ValueError(f"realize: budget must be at least 1, got {budget}")
    rep = validate_isystem(system)
    if not rep.ok:
        raise InvalidSystem(rep)
    log = []
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
    return RealizeResult(graph, dict(builder.class_vertices), log)


class RoundtripReport(Record):
    def __init__(self, status: str, poset_map: dict | None = None, detail: str = "",
                 theta: dict | None = None, by: str = "search"):
        self.status = status          # Verified | FailedAt | InconclusiveWithinBound
        self.poset_map = poset_map
        self.detail = detail
        self.theta = theta            # Verified: prime -> iso ext group -> system group
        self.by = by                  # "witness" when realize's own isomorphism certified it


def _constraints(system: ISystem, ext: ISystem, psi: dict, theta: dict, p):
    """The (a, b, failure text) that theta[p] must meet, given theta below
    p: theta[p] sends a, a row of the extracted G_p, to b, a row of the
    system's.  Per lower cover q of p in sorted order, one per generator of
    the extracted G_q (its image, and the system's image of theta[q] of it),
    then the units when q is free: both routes match kinds first.  Covers
    suffice for functorial systems, an extraction and a valid system: for
    q < m covered by p, theta f_pq = theta f_pm f_mq = f'_pm f'_mq theta = f'_pq theta."""
    for q in system.poset.lower_covers(p):
        cm_e, cm_o = ext.maps[(psi[p], psi[q])], system.maps[(p, q)]
        for a, t in zip(cm_e.hom.matrix, theta[q].matrix):
            yield a, _image(t, cm_o.hom), f"theta does not commute with the map {p} <- {q}"
        if cm_e.unit is not None:
            yield (cm_e.unit.coeffs, cm_o.unit.coeffs,
                   f"theta at {p} does not send the unit of {q} to the system's")


def _invalid(system: ISystem) -> str | None:
    """The first `validate_isystem` failure of system, or None."""
    for f in validate_isystem(system).failures:
        return f"the system is invalid: axiom {f.axiom} fails at {f.primes}: {f.detail}"


def check_roundtrip_certificate(system: ISystem, graph: SepGraph, poset_map: dict,
                                theta: dict) -> str | None:
    """Check a round-trip certificate without any search.

    None when system is valid (otherwise its first `validate_isystem`
    failure), poset_map (prime -> class of the extraction of graph) is a
    kind-preserving poset isomorphism, and each theta[p] is an isomorphism
    from the extracted group at poset_map[p] onto the system's group at p
    that sends a to b for every (a, b) of `_constraints`, the list the
    search reads too, each by one `images_agree` on coefficient rows.
    Otherwise the first failure.
    """
    return _invalid(system) or _certificate_gap(system, extract_isystem(graph), poset_map, theta)


def _certificate_gap(system: ISystem, ext: ISystem, psi: dict, theta: dict) -> str | None:
    """`check_roundtrip_certificate` on the extraction ext, for a valid system."""
    primes = list(system.poset)
    if sorted(psi) != sorted(primes) or sorted(psi.values()) != sorted(ext.poset):
        return "the poset map is no bijection onto the extracted classes"
    if set(theta) != set(psi):
        return "theta does not have one isomorphism per prime"
    for p in primes:
        if system.kind[p] != ext.kind[psi[p]]:
            return f"prime {p} is {system.kind[p]}, its class {psi[p]} is {ext.kind[psi[p]]}"
        # psi is a bijection: it keeps the order at p when it maps p's upset
        # onto psi[p]'s, and the pairwise loop only names the first q it fails
        if {psi[q] for q in system.poset.upset(p)} != ext.poset.upset(psi[p]):
            for q in primes:
                if system.poset.le(p, q) != ext.poset.le(psi[p], psi[q]):
                    return f"the poset map does not keep the order of {p} and {q}"
    for p in primes:
        f = theta[p]
        if not (f.domain.same_presentation(ext.group[psi[p]])
                and f.codomain.same_presentation(system.group[p]) and f.is_isomorphism()):
            return f"theta at {p} is no isomorphism onto its group"
    for p in primes:
        for a, b, failure in _constraints(system, ext, psi, theta, p):
            if not images_agree(a, theta[p].matrix, (1,), [b], system.group[p]):
                return failure
    return None


def _witness_theta(system: ISystem, ext: ISystem, wit: RealizeWitness):
    """theta from the witness's vertex images, whose coefficient rows are
    its matrix rows, or None where they do not name the extracted
    generators."""
    theta = {}
    for p, c in wit.poset_map.items():
        labels, img = ext.generator_labels[c], wit.images[p]
        if set(labels) != set(img):
            return None
        theta[p] = GroupHom(ext.group[c], system.group[p], [img[w] for w in labels])
    return theta


def _content(group, row) -> int:
    """The gcd of row's free canonical coordinates in group.  Every isomorphism
    keeps it, so f(a) == b fails for all f when a and b differ in it."""
    return gcd(*group.canonical_coords(row)[0])


ROUNDTRIP_BOX = 4         # the search lists free images with coordinates in [-4, 4]
ROUNDTRIP_BRANCH = 64     # and tries at most 64 isomorphisms per prime


def roundtrip_check(system: ISystem, graph: SepGraph) -> RoundtripReport:
    """Compare a system against the extraction of a (realized) graph.

    A Verified report carries `poset_map` (prime -> class of the
    extraction) and `theta` (prime p -> GroupHom from the extracted group
    at poset_map[p] onto the system's group at p), and `by` says where
    they came from.  When `realize` built the graph from this very system
    object, which it validated, its witness gives both, checked as by
    `check_roundtrip_certificate` with no second validation (`by="witness"`).
    Otherwise, or if that check fails, an invalid system is FailedAt its
    first `validate_isystem` failure, and a valid one goes to a bounded
    search for a kind-preserving poset isomorphism together with a family
    of group isomorphisms commuting with all connecting maps (`by="search"`).
    Only that search is bounded, by ROUNDTRIP_BOX and ROUNDTRIP_BRANCH, read at each call.
    """
    ext = extract_isystem(graph)
    wit = graph.derived(_witness)
    if wit is not None and wit.system is system:
        theta = _witness_theta(system, ext, wit)
        if theta is not None and _certificate_gap(system, ext, wit.poset_map, theta) is None:
            return RoundtripReport("Verified", dict(wit.poset_map), theta=theta, by="witness")
    if (failure := _invalid(system)) is not None:
        return RoundtripReport("FailedAt", None, failure)

    def sig(s):
        return lambda p: (s.kind[p], s.group[p].invariant_factors, s.group[p].free_rank)

    saw_any_psi = False
    saw_inconclusive = False
    order = system.poset.linear_extension()
    for psi in system.poset.isomorphisms(ext.poset, sig(system), sig(ext)):
        saw_any_psi = True
        theta = {}

        def assign(i):
            nonlocal saw_inconclusive
            if i == len(order):
                return True
            p = order[i]
            gp, G = ext.group[psi[p]], system.group[p]
            constraints = [(a, b) for a, b, _ in _constraints(system, ext, psi, theta, p)]
            tried = 0
            for fiso in iter_isomorphisms(gp, G, constraints, ROUNDTRIP_BOX):
                theta[p] = fiso
                if assign(i + 1):
                    return True
                tried += 1
                if tried >= ROUNDTRIP_BRANCH:
                    break
            theta.pop(p, None)
            if (tried == 0 and G.free_rank > 0
                    and all(_content(gp, a) == _content(G, b) for a, b in constraints)):
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
