"""Build an adaptable separated graph realizing a given invariant system.

The construction walks a linear extension of the prime poset.  A free
prime becomes a single vertex whose blocks (one loop plus connectors)
impose exactly the kernel of the evaluation map from the already-built
lower part onto the target group.  A regular prime becomes a small
strongly connected gadget: one vertex per torsion factor, a mutually
looped pair per free generator.  One deterministic depth-first search
chooses the gadget rows so that, together with the lower rows, they span
exactly the kernel of the value assignment.  Every prime is verified on
the spot by presenting the extracted group and checking the induced
evaluation map is an isomorphism pinning the lower generators.

Not every valid system is realizable.  A provable rank obstruction
raises ConstructionInfeasible; an exhausted search raises
ConstructionFailed.  Both carry the offending prime in the message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .abelian import (
    FGAbelianGroup, GroupHom, cone_walk, kernel_generators, left_kernel,
    iter_isomorphisms,
)
from .graph import SepGraph, check_adaptable
from .isystem import (ISystem, extract_isystem, validate_isystem,
                      COUNTEREXAMPLE, INCONCLUSIVE)


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


# ----------------------------------------------------------------- builder


class _Builder:
    def __init__(self, sysm: ISystem):
        self.sysm = sysm
        self.used_names = set()
        self.class_vertices = {}
        self.prime_of = {}
        self.out_blocks = {}      # vertex -> list of {target: mult}, loops included
        self.val = {}             # vertex in a regular class -> element of G_prime

    def name(self, base):
        cand = base
        while cand in self.used_names:
            cand = cand + "_"
        self.used_names.add(cand)
        return cand

    def lower_verts(self, p):
        out = []
        for q in sorted(self.sysm.poset.strict_down(p)):
            out.extend(self.class_vertices[q])
        return sorted(out)

    def required_image(self, p, u):
        q = self.prime_of[u]
        cm = self.sysm.map_for(p, q)
        if self.sysm.kind[q] == "free":
            return cm.unit
        return cm.hom(self.val[u])

    def ambient_rows(self, L):
        """One row per block below: its targets minus its source, summing to 0."""
        index = {u: i for i, u in enumerate(L)}
        rows = []
        for u in L:
            for out in self.out_blocks[u]:
                row = [0] * len(L)
                for t, c in out.items():
                    row[index[t]] += c
                row[index[u]] -= 1
                rows.append(row)
        return rows

    def add_free(self, p, blocks):
        v = self.name(p)
        self.add_class(p, {v: [_merge({v: 1}, b) for b in blocks]})
        return v

    def add_class(self, p, out_blocks, values=()):
        """Record the class of p: its vertices in order, each with its blocks."""
        self.class_vertices[p] = tuple(out_blocks)
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


def _row_hnf(rows):
    """Canonical Hermite-style basis of the integer row span.

    Unique per lattice (positive pivots, entries above a pivot reduced into
    [0, pivot)), so tuples compare equal exactly when the spans agree.
    """
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


def _strongly_connected(W, out_maps):
    if len(W) <= 1:
        return True
    wset = set(W)
    fwd = {w: [v for v in out_maps[w] if v in wset and v != w] for w in W}
    back = {w: [] for w in W}
    for w, outs in fwd.items():
        for v in outs:
            back[v].append(w)
    for adj in (fwd, back):
        seen = {W[0]}
        stack = [W[0]]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(W):
            return False
    return True


def _nonneg_preimage(group, target, gens, max_total=16, state_cap=40000):
    """Multiset over gen keys whose images sum to target, or None.

    gens: list of (key, GroupElement); breadth-first, so the result is a
    smallest such multiset and deterministic for a fixed gens order.
    """
    for n, (layer, x, _, ms) in enumerate(cone_walk(group, gens)):
        if layer > max_total:
            return None
        if x == target:
            return ms
        if n >= state_cap:
            return None
    return None


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
        builder.add_free(p, [])
        return
    L = builder.lower_verts(p)
    amb = FGAbelianGroup(len(L), builder.ambient_rows(L))
    required = [builder.required_image(p, u) for u in L]
    eps = GroupHom(amb, G, [r.coeffs for r in required])
    if not eps.is_well_defined():
        raise ConstructionFailed(
            f"free prime {p}: lower evaluation is not a homomorphism, connecting data incoherent")
    cone = [(u, required[i]) for i, u in enumerate(L)]
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

    for k in kernel_generators(eps):
        coeffs = list(k.coeffs)
        if not any(coeffs):
            continue
        pos = {L[i]: c for i, c in enumerate(coeffs) if c > 0}
        neg = {L[i]: -c for i, c in enumerate(coeffs) if c < 0}
        pos_val = G.zero()
        for u, m in pos.items():
            pos_val = pos_val + m * required[L.index(u)]
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
        z = _nonneg_preimage(G, -required[L.index(u)], cone)
        if z is None:
            raise ConstructionFailed(
                f"free prime {p}: no nonnegative preimage for coverage of {q} within bounds")
        push(_merge({u: 1}, z))
    v = builder.add_free(p, blocks)
    # verify: lower rows plus the block rows present exactly G
    index = {u: i for i, u in enumerate(L)}
    rows = builder.ambient_rows(L)
    for b in blocks:
        row = [0] * len(L)
        for u, m in b.items():
            row[index[u]] += m
        rows.append(row)
    G2 = FGAbelianGroup(len(L), rows)
    if not GroupHom(G2, G, [r.coeffs for r in required]).is_isomorphism():
        raise ConstructionFailed(f"free prime {p}: verification of the presented group failed")
    log.append(f"free {p}: vertex {v}, {len(blocks)} block(s)")


# ----------------------------------------------------------- regular primes


def _kernel_hnf(coords, mods):
    """HNF of the lattice of integer rows r with sum(r[i] * coords[i]) == 0,
    coordinate k taken modulo mods[k] (0 for a free coordinate)."""
    killers = [[m if j == k else 0 for j in range(len(mods))] for k, m in enumerate(mods) if m]
    return _row_hnf([r[:len(coords)] for r in left_kernel(coords + killers)])


def _small_kernel_rows(coords, mods, nW, limit=500):
    """Nonnegative kernel rows of small total, smallest first.

    Each row has a gadget coordinate (one of the first nW), which keeps the
    internal out-degree of its vertex at 2 or more.  The total bound starts
    at 4 (3 on more than 10 coordinates) and grows while the number of rows
    within it stays below `limit`.
    """
    n = len(coords)
    cap = 4 if n <= 10 else 3
    while comb(n + cap + 1, n) < limit:
        cap += 1
    out = []
    row = [0] * n

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


def _realize_regular(builder: _Builder, p, budget, log):
    """Gadget rows (out-maps minus one loop) by a depth-first search.

    The search runs once per torsion mask; a set bit means that torsion
    generator arrives from below, so its gadget vertex carries zero.  Each
    vertex draws its row from one ordered pool:
      1. core plus ring, with the coverage pinning vectors on the first row;
      2. that row plus one or two pinning vectors;
      3. small nonnegative kernel rows, enumerated only when reached.
    Rows that cannot raise the span to the lattice rank are pruned, and
    one visit counter bounds the whole search at 100 * budget.
    """
    sysm = builder.sysm
    G = sysm.group[p]
    f = G.free_rank
    L = builder.lower_verts(p)
    amb = FGAbelianGroup(len(L), builder.ambient_rows(L))
    if amb.free_rank > f:
        raise ConstructionInfeasible(
            f"regular prime {p}: the built lower part has free rank {amb.free_rank}, "
            f"but the target group only has free rank {f}; no row set can cancel the difference")
    required = [builder.required_image(p, u) for u in L]
    if not GroupHom(amb, G, [r.coeffs for r in required]).is_well_defined():
        raise ConstructionFailed(
            f"regular prime {p}: lower evaluation is not a homomorphism, connecting data incoherent")
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

    def vec(*dicts):
        total = {}
        for ms in dicts:
            total = _merge(total, ms)
        return tuple(total.get(v, 0) for v in order)

    R_L = [[0] * nW + row for row in builder.ambient_rows(L)]
    mods = [0] * f + list(facs)
    covers = sysm.poset.lower_covers(p)
    visits = 0

    def accept(rows, values):
        out_maps = {w: _merge({order[k]: c for k, c in enumerate(row) if c}, {w: 1})
                    for w, row in zip(row_order, rows)}
        hit = _reached(builder, [t for om in out_maps.values() for t in om])
        if any(q not in hit for q in covers) or not _strongly_connected(W, out_maps):
            return None
        G2 = FGAbelianGroup(len(order), R_L + [list(r) for r in rows])
        if not GroupHom(G2, G, [v.coeffs for v in values]).is_isomorphism():
            return None
        return out_maps

    for mask in range(1 << len(tors)):
        # gadget values; a masked torsion vertex carries zero
        tval = {w: G.zero() for w in W}
        for i, (a, b) in enumerate(pairs):
            tval[a], tval[b] = cg[i], -cg[i]
        tval.update((w, cg[f + k]) for k, w in enumerate(tors) if not mask >> k & 1)
        if mask and not G.generated_by([v.coeffs for v in required + [tval[w] for w in W]]):
            continue
        values = [tval[w] for w in W] + required
        coords = [list(v.canonical()[0]) + list(v.canonical()[1]) for v in values]
        target = _kernel_hnf(coords, mods)
        # pinning vectors: a lower vertex plus gadget vertices cancelling its value
        tcone = [(w, tval[w]) for w in W]
        pre = {u: _nonneg_preimage(G, -val, tcone) for u, val in zip(L, required)}
        pin = {u: _merge({u: 1}, m) for u, m in pre.items() if m is not None}
        cover_pins = [pin[u] for u in (builder.class_vertices[q][0] for q in covers) if u in pin]
        singles = list(pin.values())
        extras = [{}] + singles + [_merge(z, y) for i, z in enumerate(singles) for y in singles[i:]]
        small = None

        def candidates(j):
            nonlocal small
            w = row_order[j]
            fixed = [core[w], ring[w]] + (cover_pins if j == 0 else [])
            seen = set()
            for extra in extras:
                row = vec(*fixed, extra)
                if row not in seen:
                    seen.add(row)
                    yield row
            if small is None:
                small = _small_kernel_rows(coords, mods, nW)
            yield from (row for row in small if row not in seen)

        def rec(rows, span):
            nonlocal visits
            visits += 1
            if visits > 100 * budget or len(target) - len(span) > nW - len(rows):
                return None
            if len(rows) == nW:
                return accept(rows, values) if span == target else None
            for row in candidates(len(rows)):
                got = rec(rows + (row,), _row_hnf(list(span) + [list(row)]))
                if got is not None:
                    return got
            return None

        out_maps = rec((), _row_hnf(R_L))
        if out_maps is not None:
            builder.add_class(p, {w: [out_maps[w]] for w in W}, tval)
            log.append(f"regular {p}: vertices {', '.join(W)}, attempt {visits}")
            return
    raise ConstructionFailed(
        f"regular prime {p}: no row set matched the kernel lattice after {visits} visits")


# --------------------------------------------------------------------- api


def realize(system: ISystem, *, seed: int = 0, budget: int = 200,
            validate: bool = True) -> RealizeResult:
    """Construct a graph whose extracted system is isomorphic to `system`.

    The search is deterministic: `seed` is accepted for compatibility and
    ignored.  `budget` bounds each regular prime's search at 100 * budget
    visits.
    """
    log = []
    if validate:
        rep = validate_isystem(system)
        if rep.status == COUNTEREXAMPLE:
            msgs = "; ".join(fl.detail for fl in rep.failures[:3])
            raise ValueError(f"system fails validation: {msgs}")
        if rep.status == INCONCLUSIVE:
            log.append("warning: validation inconclusive within bounds, proceeding")
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
    return RealizeResult(graph, dict(builder.class_vertices), dict(builder.val), log)


@dataclass
class RoundtripReport:
    status: str               # Verified | FailedAt | InconclusiveWithinBound
    poset_map: dict | None = None
    detail: str = ""


def roundtrip_check(system: ISystem, graph: SepGraph, box: int = 4,
                    branch: int = 64) -> RoundtripReport:
    """Compare a system against the extraction of a (realized) graph.

    Searches for a kind-preserving poset isomorphism together with a
    family of group isomorphisms commuting with all connecting maps.
    """
    ext = extract_isystem(graph)

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
            for fiso in iter_isomorphisms(ext.group[psi[p]], system.group[p], constraints, box):
                theta[p] = fiso
                if assign(i + 1):
                    return True
                tried += 1
                if tried >= branch:
                    break
            theta.pop(p, None)
            if tried == 0 and system.group[p].free_rank > 0:
                saw_inconclusive = True
            return False

        if assign(0):
            return RoundtripReport("Verified", psi)
    if not saw_any_psi:
        return RoundtripReport("FailedAt", None,
                               "no kind- and group-compatible poset isomorphism")
    if saw_inconclusive:
        return RoundtripReport("InconclusiveWithinBound", None,
                               "free parts exhausted the bounded isomorphism search")
    return RoundtripReport("FailedAt", None,
                           "no compatible family of group isomorphisms")
