"""Finitely generated abelian groups over exact integer arithmetic.

All matrices are lists of rows of python ints, so nothing here can
overflow.  Group elements are row vectors of generator coefficients;
homomorphisms act on the right (x maps to x @ M).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import gcd, lcm, prod
from operator import add, floordiv, index, mod, mul, neg


class AbelianError(ValueError):
    pass


# ---------------------------------------------------------------- matrices


def identity(n):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise AbelianError("matrix shape mismatch")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def vec_mat(x, a):
    """x @ a, the sum of c * a[i] over the nonzero entries c = x[i]; an
    all-zero x gives the zero row of a's width, and [] gives []."""
    if len(x) != len(a):
        raise AbelianError("vector/matrix shape mismatch")
    out = None
    for c, row in zip(x, a):
        if c:
            out = [c * r for r in row] if out is None else [o + c * r for o, r in zip(out, row)]
    if out is None:
        return [0] * len(a[0]) if a else []
    return out


def _swap_rows(s, u, i, j):
    s[i], s[j] = s[j], s[i]
    if u is not None:
        u[i], u[j] = u[j], u[i]


def _swap_cols(s, v, i, j, lo=0):
    # the column helpers update s from row lo down, v in full
    for row in s[lo:]:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(s, u, dst, src, c):
    # row_dst += c * row_src
    s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
    if u is not None:
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]


def _add_col(s, v, dst, src, c, lo=0):
    for row in s[lo:]:
        row[dst] += c * row[src]
    for row in v:
        row[dst] += c * row[src]


def _negate_row(s, u, i):
    s[i] = [-x for x in s[i]]
    if u is not None:
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
    for mat in (s, u) if u is not None else (s,):
        a_row, b_row = mat[r1], mat[r2]
        mat[r1] = [x * ai + y * bi for ai, bi in zip(a_row, b_row)]
        mat[r2] = [p * ai + q * bi for ai, bi in zip(a_row, b_row)]


def _col_combine(s, v, c1, c2, x, y, p, q, lo=0):
    # (col_c1, col_c2) <- (x*col_c1 + y*col_c2, p*col_c1 + q*col_c2)
    for mat in (s[lo:], v):
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
    It is _smith(a, True); callers that never read u call _smith(a, False),
    and left_kernel, which never reads v, calls _smith(a, True, False).
    """
    return _smith(a, True)


def _smith(a, left, right=True):
    """The one Smith elimination: (u, s, v) as in smith_normal_form when
    left is true.  With left false, u is None, the row helpers skip it, and
    s and v are the same.  With right false, v is [], which the column
    helpers skip, and s is the same.

    At step t of the main loop the rows above t are zero in every column
    from t on, so its column operations update s from row t down only; the
    divisibility fix works on all rows.  Clearing column t and row t ends
    at the first sweep whose column step does not refill column t: its row
    step zeroed that column below the pivot, so no rescan is needed."""
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise AbelianError("ragged matrix")
    s = [list(row) for row in a]
    u = identity(m) if left else None
    v = identity(n) if right else []
    t = 0
    while t < m and t < n:
        piv, best = None, 0
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, piv = x, (i, j)
            if best == 1:
                break               # no pivot is smaller, and ties keep the first
        if piv is None:
            break
        i, j = piv
        if i != t:
            _swap_rows(s, u, i, t)
        if j != t:
            _swap_cols(s, v, j, t, t)
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
                    _add_col(s, v, j, t, -(b0 // a0), t)
                else:
                    # mixing column t back in can refill it below the pivot
                    g, x, y = _xgcd(a0, b0)
                    _col_combine(s, v, t, j, x, y, -(b0 // g), a0 // g, t)
                    refill = True
            if not refill:
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
    """The Smith diagonal of a, zeros included: s alone, with neither
    transform tracked."""
    _, s, _ = _smith(a, False, False)
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
    """Rows generating {x : x @ a == 0}: rows of u, with v not tracked."""
    m = len(a)
    if m == 0:
        return []
    n = len(a[0])
    u, s, _ = _smith(a, True, False)
    rank = sum(1 for i in range(min(m, n)) if s[i][i])
    return [list(u[i]) for i in range(rank, m)]


def unimodular_inverse(m):
    n = len(m)
    u, s, v = smith_normal_form(m)
    if any(s[i][i] != 1 for i in range(n)) or (m and len(m[0]) != n):
        raise AbelianError("matrix is not unimodular")
    return mat_mul(v, u)


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


def _completion_test(target, span):
    """The predicate `_hnf_insert(span, row) == target` on the rows of
    target, decided in the quotient Q = target / span instead of by one
    insertion per row.

    Both are canonical HNFs and span lies in target.  Span's rows are
    written over target's rows by exact back-substitution on target's pivot
    columns, and the Smith frame of those coordinate rows (`_frame_of`, with
    no group built) gives Q's canonical coordinates.  If Q needs two or more
    generators, no row completes; if Q is trivial, every row does; if Q is
    cyclic, a row does when its one coordinate y in Q has gcd(y, d) == 1
    (|y| == 1 when Q is Z).  A row outside target is not in the predicate's
    domain.
    """
    piv = [r.index(next(filter(None, r))) for r in target]

    def coords(row):
        out = []
        for t, c in zip(target, piv):
            q = row[c] // t[c]
            out.append(q)
            if q:
                row = [a - q * b for a, b in zip(row, t)]
        return out

    # a row of span that is row j of target has coordinates e_j: it kills
    # generator j of Q, so Q is presented on the other generators alone
    index = {t: j for j, t in enumerate(target)}
    live = sorted(set(range(len(target))) - {index[r] for r in span if r in index})
    rels = [[y[j] for j in live] for y in (coords(r) for r in span if r not in index)]
    cols = _frame_of(len(live), rels).columns
    if len(cols) > 1:
        return lambda row: False
    if not cols:
        return lambda row: True
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
    return lambda row: gcd(sum(map(mul, row, form)) // det, d) == 1


# ------------------------------------------------------------------ groups


class _Frame:
    """One presentation's Smith data as int tuples: v, the nonzero diagonal,
    the invariant factors, and the free and torsion indices.  The
    coordinate columns and vinv (the inverse of v, whose rows
    FGAbelianGroup._canonical_rows reads) are filled on first use.

    A presentation already in canonical diagonal form is its own frame:
    f free generators, then relation k is d_k at column f + k, every
    d_k > 1 and d_1 | d_2 | ... (no relations is the case k = 0).  Its v
    only moves the torsion columns first, as the Smith diagonal comes
    first, and v's inverse is its transpose, so the group's canonical
    generators are its own and no Smith form is built.  Such a frame is
    `sliced`: the canonical coordinates of x are x[:f] and x[f:] reduced
    mod the d_k, read without a dot product."""
    __slots__ = ("v", "diag", "invariant_factors", "free_idx", "tors_idx", "columns", "vinv",
                 "sliced")

    def __init__(self, ngens, relations):
        self.vinv = None
        f = ngens - len(relations)
        diag = tuple(r[f + k] for k, r in enumerate(relations)) if f >= 0 else ()
        # a row whose absolute values sum to its diagonal entry d > 1 is zero elsewhere
        self.sliced = f >= 0 and all(d > 1 and not d % c and sum(map(abs, r)) == d
                                     for c, d, r in zip((1,) + diag, diag, relations))
        if self.sliced:
            unit = identity(ngens)
            self.vinv = vinv = tuple(map(tuple, unit[f:] + unit[:f]))
            self.v = tuple(zip(*vinv))
        else:
            _, s, v = _smith(relations, False)
            self.v = tuple(map(tuple, v))
            diag = tuple(s[i][i] for i in range(min(len(s), ngens)) if s[i][i])
        self.diag = diag
        self.invariant_factors = tuple(d for d in diag if d > 1)
        self.free_idx = tuple(range(len(diag), ngens))
        self.tors_idx = tuple(i for i, d in enumerate(diag) if d > 1)

    def __getattr__(self, name):
        # runs only while the columns slot is unset: (column of v, modulus)
        # per canonical coordinate, free ones first; the columns of
        # invariant factor 1 are never read
        if name != "columns":
            raise AttributeError(name)
        vt = tuple(zip(*self.v))
        self.columns = columns = tuple(
            [(vt[i], 0) for i in self.free_idx] + [(vt[i], self.diag[i]) for i in self.tors_idx])
        return columns

    def inverse(self):
        # built on first use by _canonical_rows
        if self.vinv is None:
            self.vinv = tuple(map(tuple, unimodular_inverse(self.v)))
        return self.vinv


# frames of small presentations; larger ones repeat too rarely to pay for an
# entry that keeps their frames alive for the collector
_frame = lru_cache(maxsize=256)(_Frame)


def _frame_of(ngens, relations):
    """The _Frame of a presentation: from the `_frame` cache when it has at
    most 2 relations on at most 2 generators, else built afresh."""
    if len(relations) <= 2 and ngens <= 2:
        return _frame(ngens, tuple(map(tuple, relations)))
    return _Frame(ngens, relations)


class FGAbelianGroup:
    """Abelian group presented by ngens generators and integer relations.

    Relations are coefficient rows: the row (2, -1) says 2*g0 - g1 == 0.
    The Smith data lives in a _Frame from `_frame_of`, which small
    presentations share through the 256-entry LRU cache `_frame`.  No result
    depends on the cache, and relations is each group's own list; but the
    groups that `isystem.parse_group_name` and `isystem._diagonal_group`
    return are shared values, which callers must not mutate.
    """

    def __init__(self, ngens: int, relations=()):
        try:
            self.ngens = ngens = index(ngens)
        except TypeError:
            raise AbelianError(f"generator count must be an integer, got {ngens!r}") from None
        if ngens < 0:
            raise AbelianError(f"generator count must be nonnegative, got {ngens}")
        self.relations = rels = [list(map(index, r)) for r in relations]
        for r in rels:
            if len(r) != ngens:
                raise AbelianError(f"relation length {len(r)} != ngens {ngens}")
        self._frame = f = _frame_of(ngens, rels)
        self.rank = len(f.diag)
        self.free_rank = ngens - self.rank
        self.invariant_factors = f.invariant_factors
        self._name = None

    # -- structure

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def canonical_name(self) -> str:
        """The name, such as 'Z^2 + Z/2' or '0', built on first use."""
        if self._name is not None:
            return self._name
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        self._name = name = " + ".join(parts) if parts else "0"
        return name

    def canonical_coords(self, coeffs):
        """(free coords, torsion coords) of an element given by coeffs: dot
        products with the frame's columns, or slices of coeffs when the
        presentation is in canonical form (a `sliced` frame)."""
        if len(coeffs) != self.ngens:
            raise AbelianError("vector/matrix shape mismatch")
        f, k = self._frame, self.free_rank
        if f.sliced:
            return tuple(coeffs[:k]), tuple(map(mod, coeffs[k:], f.diag))
        cols = f.columns
        free = tuple(sum(map(mul, coeffs, col)) for col, _ in cols[:k])
        tors = tuple(sum(map(mul, coeffs, col)) % m for col, m in cols[k:])
        return free, tors

    def coordinate_columns(self):
        """(column, modulus) per canonical coordinate, free ones first.

        The dot product of coeffs with a column, reduced mod its modulus
        when that is nonzero, is one entry of canonical_coords(coeffs).
        """
        return list(self._frame.columns)

    def _canonical_rows(self):
        """The coefficient rows mapping to the canonical basis, free
        generators then torsion generators, as int tuples."""
        f = self._frame
        # a group with no canonical generators (the trivial group) needs no inverse
        return [f.inverse()[i] for i in f.free_idx + f.tors_idx]

    def generator_coords(self):
        """Canonical coordinates of each generator, free then torsion, as rows."""
        cols = self._frame.columns
        return [[col[j] % m if m else col[j] for col, m in cols] for j in range(self.ngens)]

    # -- elements

    def element(self, coeffs) -> "GroupElement":
        return GroupElement(self, tuple(coeffs))

    def generated_by(self, rows) -> bool:
        """Do these coefficient rows generate the group?  A trivial group:
        always.  A cyclic one, Z or Z/m with its one canonical coordinate:
        exactly when gcd(m, the rows' coordinates) == 1 (m = 0 for Z).
        Otherwise exactly when, stacked on the relations, their Smith form
        is all ones."""
        cols = self._frame.columns
        if not cols:
            return True
        if len(cols) == 1:
            (col, m), = cols
            return gcd(m, *(sum(map(mul, r, col)) for r in rows)) == 1
        diag = snf_diagonal([list(r) for r in rows] + self.relations)
        return len(diag) == self.ngens and all(d == 1 for d in diag)

    def same_presentation(self, other) -> bool:
        return self is other or (self.ngens == other.ngens and self.relations == other.relations)

    def __repr__(self):
        return f"FGAbelianGroup({self.canonical_name()}, ngens={self.ngens})"


class GroupElement:
    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        if len(coeffs) != group.ngens:
            raise AbelianError("coefficient length mismatch")
        self.group, self.coeffs = group, tuple(map(index, coeffs))

    def __add__(self, other):
        if not self.group.same_presentation(other.group):
            raise AbelianError("elements of different groups")
        # a sum of int tuples of one length is an int tuple of that length,
        # so it is wrapped without __init__'s checks
        x = object.__new__(GroupElement)
        x.group, x.coeffs = self.group, tuple(map(add, self.coeffs, other.coeffs))
        return x

    def is_zero(self) -> bool:
        return vanishes(self.coeffs, self.group._frame.columns)

    def canonical(self):
        return self.group.canonical_coords(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if not self.group.same_presentation(other.group):
            return False
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.group.ngens, self.canonical()))

    def __repr__(self):
        return f"GroupElement({list(self.coeffs)!r})"


def vanishes(v, columns) -> bool:
    """Is v zero in the group with these `coordinate_columns()`?  Each
    column's dot product with v is one canonical coordinate of v."""
    for col, m in columns:
        c = sum(map(mul, v, col))
        if c and (not m or c % m):
            return False
    return True


def images_agree(x, a, y, b, group) -> bool:
    """Is x @ a == y @ b in group, whose elements are the rows of a and b?

    One `vanishes` of the difference, the row (x, -y) times a stacked on b,
    which keeps the width when one of a and b has no rows (and when both
    have none, both sides are zero).  Callers check the presentations.
    """
    return vanishes(vec_mat([*x, *map(neg, y)], [*a, *b]), group._frame.columns)


def isomorphism_test(diag, relations, images, codomain) -> bool:
    """Is the map sending generator i of the group presented by relations
    on len(images) generators to images[i] an isomorphism onto codomain?

    diag is the Smith diagonal of relations (zeros allowed), which gives
    the domain's invariants without building it.  The test is the same
    three checks as always: the same invariants, well defined (every
    relation goes to zero) and onto.  Onto is enough: a finitely generated
    abelian group is Hopfian, so an onto map between isomorphic ones is
    injective.
    """
    rank = sum(1 for d in diag if d)
    if (len(images) - rank != codomain.free_rank
            or tuple(d for d in diag if d > 1) != codomain.invariant_factors):
        return False
    return well_defined(relations, images, codomain) and codomain.generated_by(images)


def well_defined(relations, images, codomain) -> bool:
    """Does sending generator i to images[i] kill every relation in codomain?
    Each coordinate column (col, m) is composed with the images once, into
    w = (img . col for img in images); a relation r (of len(images) entries,
    else AbelianError) vanishes when each r . w is 0, or 0 mod a nonzero m."""
    forms = [([sum(map(mul, img, col)) for img in images], m)
             for col, m in codomain._frame.columns]
    for rel in relations:
        if len(rel) != len(images):
            raise AbelianError("vector/matrix shape mismatch")
        if not vanishes(rel, forms):
            return False
    return True


# -------------------------------------------------------------------- homs


class GroupHom:
    """Homomorphism given by generator images: gen i of domain maps to matrix[i]."""

    def __init__(self, domain: FGAbelianGroup, codomain: FGAbelianGroup, matrix):
        self.domain = domain
        self.codomain = codomain
        rows = []
        for row in matrix:
            row = list(map(index, row))
            if len(row) != codomain.ngens:
                raise AbelianError("hom image length mismatch")
            rows.append(row)
        if len(rows) != domain.ngens:
            raise AbelianError("hom needs one image per domain generator")
        self.matrix = rows

    def is_well_defined(self) -> bool:
        return well_defined(self.domain.relations, self.matrix, self.codomain)

    def is_isomorphism(self) -> bool:
        """Same invariants, well defined and onto: `isomorphism_test` on
        the domain's Smith diagonal, kept in its frame."""
        dom = self.domain
        return isomorphism_test(dom._frame.diag, dom.relations, self.matrix, self.codomain)

    def __eq__(self, other):
        """Equal when both presentations agree and every generator image
        has the same canonical coordinates in the codomain."""
        if not isinstance(other, GroupHom):
            return NotImplemented
        cod = self.codomain
        if not (self.domain.same_presentation(other.domain)
                and cod.same_presentation(other.codomain)):
            return False
        return all(cod.canonical_coords(a) == cod.canonical_coords(b)
                   for a, b in zip(self.matrix, other.matrix))

    def __hash__(self):
        return hash((self.domain.ngens, self.domain.invariant_factors,
                     self.codomain.ngens, self.codomain.invariant_factors))

    def __repr__(self):
        return f"GroupHom({self.domain.canonical_name()} -> {self.codomain.canonical_name()})"


def zero_hom(domain: FGAbelianGroup, codomain: FGAbelianGroup) -> GroupHom:
    return GroupHom(domain, codomain, [[0] * codomain.ngens for _ in range(domain.ngens)])


# ------------------------------------------------------------ isomorphisms


def _holds(terms, target, vecs, mods):
    """Is sum(c * vecs[k] for k, c in terms) == target in canonical coords?"""
    for i, (t, m) in enumerate(zip(target, mods)):
        x = sum(c * vecs[k][i] for k, c in terms)
        if (x % m if m else x) != t:
            return False
    return True


def iter_isomorphisms(g: FGAbelianGroup, h: FGAbelianGroup, constraints, box):
    """Yield isos g -> h with f(a) == b for each (a, b) in constraints.

    a and b are coefficient rows of g and h.  A candidate image is a
    canonical coordinate tuple of h.  Every free image shares one list:
    each free part in [-box, box] that is not all zero, times every torsion
    tuple.  Torsion is searched exhaustively: the torsion tuples are grouped
    by order in one pass, and the image of a torsion generator of order d
    lists those of order d.  The images of g's canonical generators are
    assigned depth first, in the order of itertools.product over their
    candidate lists, and each constraint is checked on coordinates as soon
    as the last image it depends on is assigned.  A complete assignment
    becomes a matrix through the coefficient rows of h's canonical generators.
    """
    if g.invariant_factors != h.invariant_factors or g.free_rank != h.free_rank:
        return
    orders, zero = h.invariant_factors, (0,) * h.free_rank
    torsion = list(product(*map(range, orders)))
    by_order = {}
    for t in torsion:
        d = lcm(*map(floordiv, orders, map(gcd, t, orders)))
        by_order.setdefault(d, []).append(zero + t)
    boxed = product(*[range(-box, box + 1)] * h.free_rank)
    cand = [[free + t for free in boxed if any(free) for t in torsion]] * g.free_rank
    cand += [by_order.get(d, []) for d in g.invariant_factors]
    # a candidate's matrix is these canonical coordinates of the domain
    # generators times the images of the canonical generators, so f(a) is
    # the sum of c_k * image_k with c = a @ coords
    coords = g.generator_coords()
    mods = zero + orders
    checks = [[] for _ in cand]     # per image: the constraints decided there
    for a, b in constraints:
        c = vec_mat(a, coords)
        terms = [(k, ck) for k, ck in enumerate(c) if ck]
        free, tors = h.canonical_coords(b)
        if terms:
            checks[terms[-1][0]].append((terms, free + tors))
        elif any(free) or any(tors):
            return                  # f(a) == 0 for every f
    gens = h._canonical_rows()
    vecs = [None] * len(cand)

    def walk(k):
        if k == len(cand):
            f = GroupHom(g, h, mat_mul(coords, mat_mul(vecs, gens))) if vecs else zero_hom(g, h)
            if f.is_isomorphism():
                yield f
            return
        for vec in cand[k]:
            vecs[k] = vec
            if all(_holds(terms, target, vecs, mods) for terms, target in checks[k]):
                yield from walk(k + 1)

    yield from walk(0)
