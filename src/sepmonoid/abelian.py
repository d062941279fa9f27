"""Finitely generated abelian groups over exact integer arithmetic.

All matrices are lists of rows of python ints, so nothing here can
overflow.  Group elements are row vectors of generator coefficients;
homomorphisms act on the right (x maps to x @ M).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product


class AbelianError(ValueError):
    pass


# ---------------------------------------------------------------- matrices


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise AbelianError("matrix shape mismatch")
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    cols = len(b[0])
    inner = len(b)
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


def vec_mat(x, a):
    if len(x) != len(a):
        raise AbelianError("vector/matrix shape mismatch")
    if not a:
        return []
    cols = len(a[0])
    return [sum(x[i] * a[i][j] for i in range(len(x))) for j in range(cols)]


def _swap_rows(s, u, i, j):
    s[i], s[j] = s[j], s[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(s, v, i, j):
    for row in s:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(s, u, dst, src, c):
    # row_dst += c * row_src
    s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
    u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]


def _add_col(s, v, dst, src, c):
    for row in s:
        row[dst] += c * row[src]
    for row in v:
        row[dst] += c * row[src]


def _negate_row(s, u, i):
    s[i] = [-x for x in s[i]]
    u[i] = [-x for x in u[i]]


def _xgcd(a, b):
    """(g, x, y) with g = a*x + b*y and g = gcd(a, b) > 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _row_combine(s, u, r1, r2, x, y, p, q):
    # (row_r1, row_r2) <- (x*row_r1 + y*row_r2, p*row_r1 + q*row_r2)
    for mat in (s, u):
        a_row, b_row = mat[r1], mat[r2]
        mat[r1] = [x * ai + y * bi for ai, bi in zip(a_row, b_row)]
        mat[r2] = [p * ai + q * bi for ai, bi in zip(a_row, b_row)]


def _col_combine(s, v, c1, c2, x, y, p, q):
    # (col_c1, col_c2) <- (x*col_c1 + y*col_c2, p*col_c1 + q*col_c2)
    for mat in (s, v):
        for row in mat:
            ai, bi = row[c1], row[c2]
            row[c1] = x * ai + y * bi
            row[c2] = p * ai + q * bi


def smith_normal_form(a):
    """Smith normal form with transforms.

    Returns (u, s, v) with s == u @ a @ v, u and v unimodular, s diagonal
    with nonnegative entries d_1 | d_2 | ...  The pivot rule is fixed
    (smallest nonzero absolute value, row-major tie break) so results are
    reproducible.  Elimination uses 2x2 unimodular gcd transforms, which
    keeps intermediate entries far smaller than repeated remainder swaps.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise AbelianError("ragged matrix")
    s = [list(row) for row in a]
    u = identity(m)
    v = identity(n)
    t = 0
    while t < m and t < n:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            _swap_rows(s, u, i, t)
        if j != t:
            _swap_cols(s, v, j, t)
        # alternate clearing column t and row t; every non-divisible step
        # replaces the pivot by a strictly smaller gcd, so this terminates
        while True:
            for i in range(t + 1, m):
                b0 = s[i][t]
                if not b0:
                    continue
                a0 = s[t][t]
                if b0 % a0 == 0:
                    _add_row(s, u, i, t, -(b0 // a0))
                else:
                    g, x, y = _xgcd(a0, b0)
                    _row_combine(s, u, t, i, x, y, -(b0 // g), a0 // g)
            refill = False
            for j in range(t + 1, n):
                b0 = s[t][j]
                if not b0:
                    continue
                a0 = s[t][t]
                if b0 % a0 == 0:
                    _add_col(s, v, j, t, -(b0 // a0))
                else:
                    # mixing column t back in can refill it below the pivot
                    g, x, y = _xgcd(a0, b0)
                    _col_combine(s, v, t, j, x, y, -(b0 // g), a0 // g)
                    refill = True
            if not refill and all(s[i][t] == 0 for i in range(t + 1, m)):
                break
        if s[t][t] < 0:
            _negate_row(s, u, t)
        t += 1
    # pairwise divisibility fix: diag(a, b) -> diag(gcd, lcm)
    for i in range(t):
        for j in range(i + 1, t):
            a0, b0 = s[i][i], s[j][j]
            if b0 % a0 == 0:
                continue
            _add_col(s, v, i, j, 1)
            g, x, y = _xgcd(a0, b0)
            _row_combine(s, u, i, j, x, y, -(b0 // g), a0 // g)
            _add_col(s, v, j, i, -(s[i][j] // g))
    return u, s, v


def snf_diagonal(a):
    _, s, _ = smith_normal_form(a)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def solve_left(a, b):
    """One integer solution x of x @ a == b, or None."""
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != n:
        raise AbelianError("rhs length mismatch")
    if m == 0:
        return [] if all(x == 0 for x in b) else None
    u, s, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(m, n)) if s[i][i])
    c = vec_mat(list(b), v)
    z = [0] * m
    for i in range(n):
        if i < rank:
            d = s[i][i]
            if c[i] % d:
                return None
            z[i] = c[i] // d
        elif c[i]:
            return None
    return vec_mat(z, u)


def left_kernel(a):
    """Rows generating {x : x @ a == 0}."""
    m = len(a)
    if m == 0:
        return []
    n = len(a[0])
    u, s, _ = smith_normal_form(a)
    rank = sum(1 for i in range(min(m, n)) if s[i][i])
    return [list(u[i]) for i in range(rank, m)]


def unimodular_inverse(m):
    n = len(m)
    u, s, v = smith_normal_form(m)
    if any(s[i][i] != 1 for i in range(n)) or (m and len(m[0]) != n):
        raise AbelianError("matrix is not unimodular")
    return mat_mul(v, u)


# ------------------------------------------------------------------ groups


class FGAbelianGroup:
    """Abelian group presented by ngens generators and integer relations.

    Relations are coefficient rows: the row (2, -1) says 2*g0 - g1 == 0.
    """

    def __init__(self, ngens: int, relations=()):
        self.ngens = ngens
        self.relations = [list(r) for r in relations]
        for r in self.relations:
            if len(r) != ngens:
                raise AbelianError(f"relation length {len(r)} != ngens {ngens}")
        if self.relations:
            _, s, v = smith_normal_form(self.relations)
            self._v = v
            k = min(len(self.relations), ngens)
            self._diag = [s[i][i] for i in range(k) if s[i][i]]
        else:
            # no relations: the identity is its own inverse, no Smith form needed
            self._v = self._vinv = identity(ngens)
            self._diag = []
        self.rank = len(self._diag)
        self.free_rank = ngens - self.rank
        self.invariant_factors = tuple(d for d in self._diag if d > 1)
        self._free_idx = list(range(self.rank, ngens))
        self._tors_idx = [i for i, d in enumerate(self._diag) if d > 1]

    @cached_property
    def _vinv(self):
        # the inverse transform, built on first use by from_canonical or
        # canonical_generators; a relation-free group sets it in __init__
        return unimodular_inverse(self._v)

    # -- structure

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def canonical_name(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def canonical_coords(self, coeffs):
        """(free coords, torsion coords) of an element given by coeffs."""
        c = vec_mat(list(coeffs), self._v)
        free = tuple(c[i] for i in self._free_idx)
        tors = tuple(c[i] % self._diag[i] for i in self._tors_idx)
        return free, tors

    def coordinate_columns(self):
        """(column, modulus) per canonical coordinate, free ones first.

        The dot product of coeffs with a column, reduced mod its modulus
        when that is nonzero, is one entry of canonical_coords(coeffs).
        """
        cols = [(i, 0) for i in self._free_idx] + [(i, self._diag[i]) for i in self._tors_idx]
        return [(tuple(row[i] for row in self._v), m) for i, m in cols]

    def from_canonical(self, free, tors) -> "GroupElement":
        c = [0] * self.ngens
        for k, i in enumerate(self._free_idx):
            c[i] = free[k]
        for k, i in enumerate(self._tors_idx):
            c[i] = tors[k]
        return self.element(vec_mat(c, self._vinv))

    def canonical_generators(self):
        """Elements mapping to the canonical basis: free gens, then torsion gens."""
        return [self.element(self._vinv[i]) for i in self._free_idx + self._tors_idx]

    def generator_coords(self):
        """Canonical coordinates of each generator, free then torsion, as rows."""
        return [list(free) + list(tors)
                for free, tors in map(self.canonical_coords, identity(self.ngens))]

    def torsion_orders(self):
        return tuple(self._diag[i] for i in self._tors_idx)

    # -- elements

    def element(self, coeffs) -> "GroupElement":
        return GroupElement(self, tuple(coeffs))

    def zero(self) -> "GroupElement":
        return self.element([0] * self.ngens)

    def gen(self, i) -> "GroupElement":
        return self.element([1 if j == i else 0 for j in range(self.ngens)])

    def eq(self, x, y) -> bool:
        cx = x.coeffs if isinstance(x, GroupElement) else tuple(x)
        cy = y.coeffs if isinstance(y, GroupElement) else tuple(y)
        return self.canonical_coords(cx) == self.canonical_coords(cy)

    def all_elements(self):
        """Every element; only for finite groups."""
        if self.free_rank:
            raise AbelianError("group is infinite")
        orders = self.torsion_orders()
        for tors in product(*[range(d) for d in orders]):
            yield self.from_canonical((), tors)

    def order(self):
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def generated_by(self, rows) -> bool:
        """Do these coefficient rows generate the group?  Exactly when,
        stacked on the relations, their Smith form is all ones."""
        diag = snf_diagonal([list(r) for r in rows] + self.relations)
        return len(diag) == self.ngens and all(d == 1 for d in diag)

    def same_presentation(self, other) -> bool:
        return self.ngens == other.ngens and self.relations == other.relations

    def __repr__(self):
        return f"FGAbelianGroup({self.canonical_name()}, ngens={self.ngens})"


class GroupElement:
    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        if len(coeffs) != group.ngens:
            raise AbelianError("coefficient length mismatch")
        self.group = group
        self.coeffs = tuple(int(c) for c in coeffs)

    def __add__(self, other):
        self._check(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return GroupElement(self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return GroupElement(self.group, tuple(-a for a in self.coeffs))

    def __rmul__(self, n):
        return GroupElement(self.group, tuple(n * a for a in self.coeffs))

    def _check(self, other):
        if self.group is not other.group and not self.group.same_presentation(other.group):
            raise AbelianError("elements of different groups")

    def is_zero(self) -> bool:
        free, tors = self.group.canonical_coords(self.coeffs)
        return not any(free) and not any(tors)

    def canonical(self):
        return self.group.canonical_coords(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group is not other.group and not self.group.same_presentation(other.group):
            return False
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.group.ngens, self.canonical()))

    def __repr__(self):
        return f"GroupElement({list(self.coeffs)!r})"


def element_order(x: GroupElement):
    """Order of x, or None if infinite."""
    free, tors = x.canonical()
    if any(free):
        return None
    n = 1
    orders = x.group.torsion_orders()
    for t, d in zip(tors, orders):
        if t:
            g = _gcd(t, d)
            n = _lcm(n, d // g)
    return n


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def _lcm(a, b):
    return abs(a * b) // _gcd(a, b) if a and b else 0


# -------------------------------------------------------------------- homs


class GroupHom:
    """Homomorphism given by generator images: gen i of domain maps to matrix[i]."""

    def __init__(self, domain: FGAbelianGroup, codomain: FGAbelianGroup, matrix):
        self.domain = domain
        self.codomain = codomain
        rows = []
        for row in matrix:
            if isinstance(row, GroupElement):
                row = row.coeffs
            row = list(row)
            if len(row) != codomain.ngens:
                raise AbelianError("hom image length mismatch")
            rows.append(row)
        if len(rows) != domain.ngens:
            raise AbelianError("hom needs one image per domain generator")
        self.matrix = rows

    def __call__(self, x) -> GroupElement:
        coeffs = x.coeffs if isinstance(x, GroupElement) else list(x)
        if len(coeffs) != self.domain.ngens:
            raise AbelianError("element does not fit hom domain")
        if not self.matrix:
            # vec_mat cannot infer the codomain width from zero rows
            return self.codomain.zero()
        return self.codomain.element(vec_mat(list(coeffs), self.matrix))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if other.codomain.ngens != self.domain.ngens:
            raise AbelianError("hom composition mismatch")
        if self.domain.ngens == 0:
            # mat_mul cannot recover the codomain width through a 0-gen middle
            mat = [[0] * self.codomain.ngens for _ in range(other.domain.ngens)]
        else:
            mat = mat_mul(other.matrix, self.matrix)
        return GroupHom(other.domain, self.codomain, mat)

    def is_well_defined(self) -> bool:
        for rel in self.domain.relations:
            img = self.codomain.element(vec_mat(list(rel), self.matrix))
            if not img.is_zero():
                return False
        return True

    def is_isomorphism(self) -> bool:
        """Same invariants, well defined and onto.

        Onto is enough: a finitely generated abelian group is Hopfian, so
        an onto map between isomorphic ones is injective.
        """
        dom, cod = self.domain, self.codomain
        if dom.invariant_factors != cod.invariant_factors or dom.free_rank != cod.free_rank:
            return False
        return self.is_well_defined() and cod.generated_by(self.matrix)

    def __eq__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        if self.domain.ngens != other.domain.ngens:
            return False
        for i in range(self.domain.ngens):
            if self.codomain.element(self.matrix[i]) != other.codomain.element(other.matrix[i]):
                return False
        return True

    def __hash__(self):
        return hash((self.domain.ngens, self.codomain.ngens))

    def __repr__(self):
        return f"GroupHom({self.domain.canonical_name()} -> {self.codomain.canonical_name()})"


def identity_hom(g: FGAbelianGroup) -> GroupHom:
    return GroupHom(g, g, identity(g.ngens))


def zero_hom(domain: FGAbelianGroup, codomain: FGAbelianGroup) -> GroupHom:
    return GroupHom(domain, codomain, [[0] * codomain.ngens for _ in range(domain.ngens)])


def kernel_generators(f: GroupHom):
    """Domain elements generating ker f (includes domain relations, harmless)."""
    dom, cod = f.domain, f.codomain
    stacked = [list(row) for row in f.matrix]
    stacked_rows = dom.ngens
    rel = cod.relations
    if rel:
        stacked = stacked + [list(r) for r in rel]
    ker = left_kernel(stacked)
    out = []
    for row in ker:
        x = row[:stacked_rows]
        if any(x):
            out.append(dom.element(x))
    # domain relations map to zero but may not appear above; they are kernel
    # members by definition
    for r in dom.relations:
        if any(r):
            out.append(dom.element(r))
    return out


def subgroup_membership(gens, x: GroupElement) -> bool:
    """Is x in the subgroup generated by gens (all in x's group)?"""
    g = x.group
    rows = [list(e.coeffs) for e in gens] + [list(r) for r in g.relations]
    if not rows:
        return x.is_zero()
    return solve_left(rows, list(x.coeffs)) is not None


def cone_walk(group: FGAbelianGroup, gens, prune=None):
    """Breadth-first walk over the sums of gens, a list of (key, GroupElement).

    Yields (layer, element, canonical coords, multiset) once per element,
    starting with zero at layer 0.  The multiset over the keys is a
    smallest one summing to the element, the first found in gens order.
    An element whose canonical coords satisfy prune is neither yielded nor
    extended.  The walk ends when a layer adds nothing; callers that need a
    bound stop it themselves.
    """
    zero = group.zero()
    seen = {zero.canonical()}
    yield 0, zero, zero.canonical(), {}
    frontier, layer = [(zero, {})], 0
    while frontier:
        layer += 1
        nxt = []
        for x, ms in frontier:
            for key, gv in gens:
                y = x + gv
                c = y.canonical()
                if c in seen or (prune is not None and prune(c)):
                    continue
                seen.add(c)
                nms = dict(ms)
                nms[key] = nms.get(key, 0) + 1
                yield layer, y, c, nms
                nxt.append((y, nms))
        frontier = nxt


# --------------------------------------------------------- direct sums, iso


def direct_sum(groups):
    """Direct sum with embeddings.  Returns (sum group, [embedding homs])."""
    ngens = sum(g.ngens for g in groups)
    relations = []
    offset = 0
    offsets = []
    for g in groups:
        offsets.append(offset)
        for r in g.relations:
            row = [0] * ngens
            row[offset:offset + g.ngens] = list(r)
            relations.append(row)
        offset += g.ngens
    total = FGAbelianGroup(ngens, relations)
    embeds = []
    for g, off in zip(groups, offsets):
        rows = []
        for i in range(g.ngens):
            row = [0] * ngens
            row[off + i] = 1
            rows.append(row)
        embeds.append(GroupHom(g, total, rows))
    return total, embeds


@dataclass
class IsoResult:
    status: str              # "found" | "impossible" | "inconclusive"
    hom: GroupHom | None = None


def _torsion_candidates(h: FGAbelianGroup, d: int):
    """Coefficients of the elements of h of order exactly d."""
    orders = h.torsion_orders()
    out = []
    for tors in product(*[range(o) for o in orders]):
        x = h.from_canonical((0,) * h.free_rank, tors)
        if element_order(x) == d:
            out.append(x.coeffs)
    return out


def _free_candidates(h: FGAbelianGroup, box: int):
    """Coefficients of the elements of h of infinite order within the box."""
    orders = h.torsion_orders()
    out = []
    for free in product(*[range(-box, box + 1) for _ in range(h.free_rank)]):
        if any(free):
            for tors in product(*[range(o) for o in orders]):
                out.append(h.from_canonical(free, tors).coeffs)
    return out


def iter_isomorphisms(g: FGAbelianGroup, h: FGAbelianGroup, constraints=(), box=4):
    """Yield isos g -> h with f(a) == b for each (a, b) in constraints.

    The free part of the search is restricted to canonical coordinates in
    [-box, box]; torsion is searched exhaustively.
    """
    if g.invariant_factors != h.invariant_factors or g.free_rank != h.free_rank:
        return
    cand = [_free_candidates(h, box)] * g.free_rank
    cand += [_torsion_candidates(h, d) for d in g.torsion_orders()]
    # a candidate's matrix is these canonical coordinates of the domain
    # generators times the images of the canonical generators
    coords = g.generator_coords()
    for images in product(*cand):
        f = GroupHom(g, h, mat_mul(coords, images)) if images else zero_hom(g, h)
        if all(f(a) == b for a, b in constraints) and f.is_isomorphism():
            yield f


def find_isomorphism(g: FGAbelianGroup, h: FGAbelianGroup, constraints=(), box=4) -> IsoResult:
    """Search for an isomorphism g -> h honoring the constraints.

    "impossible" is only claimed when the search space was exhausted
    completely, which happens exactly when both groups are finite.
    """
    if g.invariant_factors != h.invariant_factors or g.free_rank != h.free_rank:
        return IsoResult("impossible")
    for f in iter_isomorphisms(g, h, constraints, box):
        return IsoResult("found", f)
    if g.free_rank == 0:
        return IsoResult("impossible")
    return IsoResult("inconclusive")
