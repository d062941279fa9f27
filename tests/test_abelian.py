import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmonoid import abelian, isystem
from sepmonoid.abelian import (FGAbelianGroup, GroupElement, GroupHom,
                               _completion_test, _row_hnf, identity,
                               images_agree, iter_isomorphisms, left_kernel,
                               mat_mul, smith_normal_form, snf_diagonal,
                               solve_left, vec_mat, zero_hom)
from sepmonoid.isystem import parse_group_name


def group_eq(g, x, y):
    """Do the elements x and y have the same canonical coordinates in g?"""
    return g.canonical_coords(x.coeffs) == g.canonical_coords(y.coeffs)


def unit_row(n, i):
    """Generator i of a group on n generators, as a coefficient row."""
    return tuple(int(j == i) for j in range(n))


def from_canonical(g, free, tors):
    """A coefficient row of g with these canonical coordinates: the
    combination of g's canonical generator rows."""
    rows = g._canonical_rows()
    return tuple(vec_mat(list(free + tors), rows)) if rows else (0,) * g.ngens


def element_order(g, coeffs):
    """The order in g of the element with these coefficients, or None when
    it is infinite: the lcm over its torsion coordinates t of d / gcd(t, d)."""
    free, tors = g.canonical_coords(coeffs)
    if any(free):
        return None
    return lcm(*(d // gcd(t, d) for t, d in zip(tors, g.invariant_factors)))


def group_order(g):
    """The order of g, or None when it is infinite."""
    if g.free_rank:
        return None
    n = 1
    for d in g.invariant_factors:
        n *= d
    return n


def det_bareiss(a):
    """Fraction-free determinant, written independently of the SNF code."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minors_gcd(a, k):
    """gcd of all k x k minors, via Fraction-free determinants. Slow but safe."""
    from itertools import combinations
    from math import gcd

    rows = range(len(a))
    cols = range(len(a[0]) if a else 0)
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = [[a[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(det_bareiss(sub)))
    return g


def random_matrix(rng, rows, cols, lo=-100, hi=100):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def check_snf_contract(a):
    u, s, v = smith_normal_form(a)
    m, n = len(a), len(a[0]) if a else 0
    assert mat_mul(mat_mul(u, a), v) == s
    # diagonal, nonnegative, divisibility chain
    for i in range(len(s)):
        for j in range(len(s[0]) if s else 0):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for d1, d2 in zip(diag, diag[1:]):
        if d1 == 0:
            assert d2 == 0
        else:
            assert d2 % d1 == 0
    # u, v unimodular
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    return diag


def test_snf_small_known():
    diag = check_snf_contract([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == [2, 2, 156]


def test_snf_zero_and_empty():
    assert check_snf_contract([[0, 0], [0, 0]]) == [0, 0]
    u, s, v = smith_normal_form([])
    assert s == []


def test_snf_matches_minor_gcds():
    # d1*...*dk equals the gcd of k x k minors; checked on small matrices
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n, -9, 9)
        diag = check_snf_contract(a)
        prod = 1
        for k in range(1, min(m, n) + 1):
            if diag[k - 1] == 0:
                assert minors_gcd(a, k) == 0
                break
            prod *= diag[k - 1]
            assert minors_gcd(a, k) == prod


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_contract_hypothesis(a):
    check_snf_contract(a)


def test_solve_left():
    a = [[2, 0], [0, 3]]
    assert solve_left(a, [4, 3]) == [2, 1]
    assert solve_left(a, [1, 0]) is None
    assert solve_left([], []) == []


def test_left_kernel():
    a = [[1, 1], [2, 2], [0, 3]]
    kern = left_kernel(a)
    for row in kern:
        assert all(sum(row[i] * a[i][j] for i in range(3)) == 0 for j in range(2))
    # (2, -1, 0) lies in the kernel and must be expressible
    assert solve_left(kern, [2, -1, 0]) is not None


def _left_kernel_with_both_transforms(a):
    """left_kernel as it read before v was dropped: the rows of u past the
    rank, from the full smith_normal_form."""
    if not a:
        return []
    u, s, _ = smith_normal_form(a)
    rank = sum(1 for i in range(min(len(a), len(a[0]))) if s[i][i])
    return [list(u[i]) for i in range(rank, len(a))]


def test_left_kernel_matches_the_two_sided_smith_form():
    rng = random.Random(53)
    cases = [[], [[]], [[], []]]
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
                      for _ in range(m)])
    for a in cases:
        assert left_kernel(a) == _left_kernel_with_both_transforms(a), a
    # the shapes _cone_gap and _kernel_rows pass when there is nothing to span
    assert left_kernel([]) == [] and left_kernel([[]]) == [[1]]


def test_group_invariants():
    g = FGAbelianGroup(2, [[2, 0], [0, 3]])
    assert g.canonical_name() == "Z/6"
    assert g.invariant_factors == (6,)
    h = FGAbelianGroup(3, [[2, 0, 0]])
    assert h.canonical_name() == "Z^2 + Z/2"
    assert h.free_rank == 2
    assert FGAbelianGroup(1, [[1]]).is_trivial()


def test_group_element_identities():
    g = FGAbelianGroup(2, [[4, 0]])
    x = g.element(unit_row(2, 0))
    assert (x + x + x + x).is_zero()
    assert not (x + x).is_zero()
    assert element_order(g, x.coeffs) == 4
    assert element_order(g, unit_row(2, 1)) is None
    assert group_eq(g, x + x + x, g.element([-1, 0]))
    assert x + g.element([-1, 0]) == g.element([0, 0])


def test_canonical_coords_roundtrip():
    g = FGAbelianGroup(3, [[2, 2, 0], [0, 4, 0]])
    cols = g.coordinate_columns()
    for coeffs in ([1, 0, 0], [0, 1, 2], [5, -3, 7]):
        x = g.element(coeffs)
        free, tors = x.canonical()
        assert group_eq(g, x, g.element(from_canonical(g, free, tors)))
        dots = [sum(c * k for c, k in zip(coeffs, col)) for col, _ in cols]
        assert tuple(d % m if m else d for d, (_, m) in zip(dots, cols)) == free + tors
    assert g.generator_coords() == [list(sum(g.canonical_coords(unit_row(3, i)), ()))
                                    for i in range(3)]


def test_relation_free_group_needs_no_smith_form(monkeypatch):
    abelian._frame.cache_clear()    # the counts below start from a cold cache
    calls = []
    real = abelian._smith
    monkeypatch.setattr(abelian, "_smith",
                        lambda a, left: calls.append(len(a)) or real(a, left))
    g = FGAbelianGroup(200)
    assert g.canonical_name() == "Z^200"
    assert g.canonical_coords([1] * 200) == ((1,) * 200, ())
    assert calls == []
    FGAbelianGroup(2, [[2, 0]])
    assert calls                    # the counter does see a presented group
    seen = len(calls)
    FGAbelianGroup(2, [[2, 0]])
    assert len(calls) == seen       # the same small presentation shares its frame


def test_inverse_transform_is_built_on_first_use(monkeypatch):
    abelian._frame.cache_clear()    # the counts below start from a cold cache
    calls = []
    real = abelian._smith
    monkeypatch.setattr(abelian, "_smith",
                        lambda a, left: calls.append(len(a)) or real(a, left))
    g = FGAbelianGroup(2, [[2, 4]])
    free, tors = g.canonical_coords([1, 1])
    assert len(calls) == 1          # the presentation's Smith form only
    assert g.canonical_name() == "Z + Z/2" and tors == (1,)
    x = from_canonical(g, free, tors)
    assert len(calls) == 2          # the inverse transform, once
    assert g.canonical_coords(x) == g.canonical_coords([1, 1])
    g._canonical_rows()
    assert len(calls) == 2
    h = FGAbelianGroup(2, [[2, 4]])
    assert h.canonical_coords(from_canonical(h, free, tors)) == h.canonical_coords([1, 1])
    h._canonical_rows()
    assert len(calls) == 2          # a second group reuses the frame and its inverse


def _small_and_larger_presentations(rng):
    """(ngens, relations): every 0 x n, 1 x 1, 1 x 2 and 2 x 1 presentation
    with entries within 3, 300 drawn 2 x 2 ones with entries within 3, then
    seeded presentations up to 6 x 6 with entries within 20.  Presentations
    that differ only by a swap or a sign are many, so a frame shared where
    it should not be shows."""
    out = [(n, []) for n in range(3)]
    for m, n in ((1, 1), (1, 2), (2, 1)):
        for flat in product(range(-3, 4), repeat=m * n):
            out.append((n, [list(flat[i * n:(i + 1) * n]) for i in range(m)]))
    for _ in range(300):
        out.append((2, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]))
    for _ in range(120):
        n = rng.randint(1, 6)
        out.append((n, _seeded_matrix(rng, rng.randint(0, 6), n, 20)))
    return out


def _group_answers(g, elements):
    return (g.invariant_factors, g.free_rank, g.coordinate_columns(),
            g._canonical_rows(),
            [g.canonical_coords(c) for c in elements])


def test_groups_do_not_depend_on_the_frame_cache():
    rng = random.Random(41)
    cases = _small_and_larger_presentations(rng)
    for n, rels in cases:
        FGAbelianGroup(n, rels)                                 # fills the cache
    warm = [FGAbelianGroup(n, rels) for n, rels in cases]
    for (n, rels), w in zip(cases, warm):
        elements = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(5)]
        abelian._frame.cache_clear()
        cold = FGAbelianGroup(n, rels)
        again = FGAbelianGroup(n, rels)                         # a cache hit when small
        expect = _group_answers(cold, elements)
        assert _group_answers(w, elements) == expect
        assert _group_answers(again, elements) == expect
        assert cold.relations == again.relations == [list(r) for r in rels]
        assert cold.relations is not again.relations
    # 2.0 == 2 hash alike: a float presentation is refused before it could
    # lend its frame to the int one
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        FGAbelianGroup(1, [[2.0]])
    assert FGAbelianGroup(1, [[2]]).canonical_name() == "Z/2"


@pytest.mark.parametrize("build", [
    lambda g: FGAbelianGroup(1, [[2.5]]),
    lambda g: GroupHom(g, g, [[1.5]]),
    lambda g: g.element([2.5]),
], ids=["relation", "hom", "element"])
def test_non_integral_entries_are_refused(build):
    # each entry is read once with operator.index: Z/2.5 is no group, and
    # an element is not truncated to (2,)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        build(FGAbelianGroup(1))


def test_true_reads_as_one():
    g = FGAbelianGroup(2, [[True, 0], [0, 4]])
    f = GroupHom(g, g, [[True, False], [0, 1]])
    x = g.element([True, True])
    assert g.canonical_name() == "Z/4" and f.matrix == [[1, 0], [0, 1]] and x.coeffs == (1, 1)
    for entries in (*g.relations, *f.matrix, x.coeffs):
        assert all(type(c) is int for c in entries)


def test_small_presentations_share_one_frame():
    a = FGAbelianGroup(2, [[2, 4], [0, 6]])
    b = FGAbelianGroup(2, ((2, 4), (0, 6)))
    assert a._frame is b._frame
    assert a.relations is not b.relations
    a.relations[0][0] = 3           # each group's relations are its own list
    assert b.relations == [[2, 4], [0, 6]]
    assert FGAbelianGroup(3, [[2, 4, 0]])._frame is not FGAbelianGroup(3, [[2, 4, 0]])._frame


def test_canonical_frame_keeps_a_canonical_group_and_is_shared():
    # Z + Z/2, presented in canonical form and with the factors swapped: the
    # first is its own frame, whose v puts the torsion column first
    g = FGAbelianGroup(2, [[0, 2]])
    assert g._frame.v == g._frame.vinv == ((0, 1), (1, 0)) and g._frame.diag == (2,)
    assert g.generator_coords() == identity(2) and g._canonical_rows() == [(1, 0), (0, 1)]
    swapped = FGAbelianGroup(2, [[2, 0]])
    assert swapped.generator_coords() == [[0, 1], [1, 0]]
    assert FGAbelianGroup(2, [[0, 2]])._frame is g._frame
    assert FGAbelianGroup(2, [[2, 0]])._frame is swapped._frame
    big = FGAbelianGroup(3, [[0, 0, 2]])
    assert big._frame is not FGAbelianGroup(3, [[0, 0, 2]])._frame
    assert big.generator_coords() == identity(3)


_CANONICAL_NAMES = [" + ".join([f"Z^{f}"] * (f > 0) + [f"Z/{d}" for d in tors])
                    for f in range(4)
                    for tors in [(2,), (3,), (6,), (2, 2), (2, 4), (2, 6), (3, 6)]]


@pytest.mark.parametrize("name", _CANONICAL_NAMES)
def test_a_canonical_presentation_is_its_own_frame(name, monkeypatch):
    # its canonical generators are its generators, in their order, and no
    # Smith form is built for them
    calls, smith = [], abelian._smith

    def spy(*args):
        calls.append(args)
        return smith(*args)

    monkeypatch.setattr(abelian, "_smith", spy)
    abelian._frame.cache_clear()
    parse_group_name.cache_clear()
    isystem._diagonal_group.cache_clear()
    g = parse_group_name(name)
    n = g.ngens
    assert n == g.free_rank + len(g.invariant_factors)
    for row in identity(n):
        free, tors = g.canonical_coords(row)
        assert free + tors == tuple(row)
    assert g._canonical_rows() == [tuple(r) for r in identity(n)]
    assert g.generator_coords() == identity(n)
    assert calls == []


@pytest.mark.parametrize("name", _CANONICAL_NAMES)
def test_a_sliced_frame_reads_what_the_columns_give(name):
    # a canonical presentation's coordinates are slices, x[:f] and x[f:]
    # reduced mod the invariant factors: the dot products with its
    # coordinate columns, on random rows with negative entries
    g = parse_group_name(name)
    assert g._frame.sliced
    cols, k = g.coordinate_columns(), g.free_rank
    rng = random.Random(name)
    for _ in range(50):
        x = [rng.randint(-40, 40) for _ in range(g.ngens)]
        dots = [sum(a * b for a, b in zip(x, col)) for col, _ in cols]
        want = (tuple(dots[:k]), tuple(c % m for c, (_, m) in zip(dots[k:], cols[k:])))
        assert g.canonical_coords(x) == g.canonical_coords(tuple(x)) == want
    assert not FGAbelianGroup(2, [[2, 0]])._frame.sliced


@pytest.mark.parametrize("ngens", [-1, -3, 1.0, "2", None])
def test_a_generator_count_is_a_nonnegative_integer(ngens):
    # -1 once gave free rank -1, the name 0 and is_trivial() False
    with pytest.raises(abelian.AbelianError, match="^generator count must be"):
        FGAbelianGroup(ngens)


def test_a_group_builds_its_name_once():
    g = FGAbelianGroup(3, [[0, 0, 4], [0, 2, 0]])
    assert g.canonical_name() == "Z + Z/2 + Z/4"
    assert g.canonical_name() is g.canonical_name()
    assert FGAbelianGroup(0).canonical_name() == "0" and FGAbelianGroup(0).is_trivial()


def test_frame_cache_is_bounded():
    rng = random.Random(43)
    for _ in range(1000):
        n = rng.randint(0, 2)
        FGAbelianGroup(n, [[rng.randint(-50, 50) for _ in range(n)]
                           for _ in range(rng.randint(0, 2))])
        assert abelian._frame.cache_info().currsize <= 256
    assert abelian._frame.cache_info().currsize == 256


def test_larger_presentations_stay_out_of_the_frame_cache():
    rng = random.Random(47)
    FGAbelianGroup(1, [[5]])
    before = abelian._frame.cache_info()
    seen = set()
    while len(seen) < 1000:
        n = rng.choice((3, 4))
        rels = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if rels not in seen:
            seen.add(rels)
            FGAbelianGroup(n, rels)
    after = abelian._frame.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_completion_test_frames_do_not_depend_on_the_cache(monkeypatch):
    # _completion_test reads the quotient target / span from _frame_of: a
    # presentation of at most 2 relations on at most 2 generators shares the
    # cached frame, a larger one builds its own, and either way the frame
    # and the predicate are those of an uncached build
    rng = random.Random(59)
    real, cache = abelian._frame_of, abelian._frame
    frames = []

    def spy(ngens, relations):
        frames.append((ngens, relations, real(ngens, relations)))
        return frames[-1][2]

    monkeypatch.setattr(abelian, "_frame_of", spy)
    kinds = set()
    for _ in range(400):
        n = rng.randint(2, 6)
        target = _row_hnf([[rng.randint(-3, 3) for _ in range(n)]
                           for _ in range(rng.randint(1, n + 1))])
        if not target:
            continue
        span = _row_hnf([[sum(rng.randint(-2, 2) * t[j] for t in target) for j in range(n)]
                         for _ in range(rng.randint(0, len(target) + 1))])
        rows = list(target) + [tuple(sum(rng.randint(-2, 2) * t[j] for t in target)
                                     for j in range(n)) for _ in range(6)]
        frames.clear()
        completes = _completion_test(target, span)
        (ngens, rels, f), = frames
        own = abelian._Frame(ngens, rels)
        assert (f.diag, f.columns) == (own.diag, own.columns)
        small = ngens <= 2 and len(rels) <= 2
        assert (f is real(ngens, rels)) == small
        kinds.add(small)
        monkeypatch.setattr(abelian, "_frame", abelian._Frame)
        uncached = _completion_test(target, span)
        monkeypatch.setattr(abelian, "_frame", cache)
        assert [completes(r) for r in rows] == [uncached(r) for r in rows], (target, span)
    assert kinds == {True, False}


def _seeded_matrix(rng, m, n, bound):
    """An m x n matrix with entries in [-bound, bound], some rows and
    columns zeroed."""
    a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        if rng.random() < 0.15:
            a[i] = [0] * n
    for j in range(n):
        if rng.random() < 0.15:
            for row in a:
                row[j] = 0
    return a


def test_smith_without_left_transform_matches_smith_normal_form():
    rng = random.Random(17)
    shapes = [(m, n) for m in range(7) for n in range(7)]
    for k in range(2100):
        m, n = shapes[k % len(shapes)]
        if m == 0:
            n = 0                   # a matrix with no rows has no columns
        a = _seeded_matrix(rng, m, n, rng.choice((1, 3, 9)))
        u, s, v = smith_normal_form(a)
        assert abelian._smith(a, False) == (None, s, v)
        assert abelian._smith(a, True) == (u, s, v)


def _all_row_smith(a, left):
    """_smith with every column operation of the main loop over all rows."""
    def swap_cols(s, v, i, j):
        for row in s + v:
            row[i], row[j] = row[j], row[i]

    def add_col(s, v, dst, src, c):
        for row in s + v:
            row[dst] += c * row[src]

    def col_combine(s, v, c1, c2, x, y, p, q):
        for row in s + v:
            ai, bi = row[c1], row[c2]
            row[c1], row[c2] = x * ai + y * bi, p * ai + q * bi

    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(row) for row in a]
    u = abelian.identity(m) if left else None
    v = abelian.identity(n)
    t = 0
    while t < m and t < n:
        piv, best = None, 0
        for i in range(t, m):
            for j in range(t, n):
                x = abs(s[i][j])
                if x and (not best or x < best):
                    best, piv = x, (i, j)
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            abelian._swap_rows(s, u, i, t)
        if j != t:
            swap_cols(s, v, j, t)
        while True:
            for i in range(t + 1, m):
                b0, a0 = s[i][t], s[t][t]
                if not b0:
                    continue
                if b0 % a0 == 0:
                    abelian._add_row(s, u, i, t, -(b0 // a0))
                else:
                    g, x, y = abelian._xgcd(a0, b0)
                    abelian._row_combine(s, u, t, i, x, y, -(b0 // g), a0 // g)
            refill = False
            for j in range(t + 1, n):
                b0, a0 = s[t][j], s[t][t]
                if not b0:
                    continue
                if b0 % a0 == 0:
                    add_col(s, v, j, t, -(b0 // a0))
                else:
                    g, x, y = abelian._xgcd(a0, b0)
                    col_combine(s, v, t, j, x, y, -(b0 // g), a0 // g)
                    refill = True
            if not refill and all(s[i][t] == 0 for i in range(t + 1, m)):
                break
        if s[t][t] < 0:
            abelian._negate_row(s, u, t)
        t += 1
    for i in range(t):
        for j in range(i + 1, t):
            a0, b0 = s[i][i], s[j][j]
            if b0 % a0 == 0:
                continue
            add_col(s, v, i, j, 1)
            g, x, y = abelian._xgcd(a0, b0)
            abelian._row_combine(s, u, i, j, x, y, -(b0 // g), a0 // g)
            add_col(s, v, j, i, -(s[i][j] // g))
    return u, s, v


def test_smith_column_updates_skip_the_cleared_rows():
    # the main loop's column operations leave rows above t alone; u, s and
    # v are those of the elimination that updates every row
    rng = random.Random(23)
    shapes = [(m, n) for m in range(9) for n in range(9)]
    for k in range(2430):
        m, n = shapes[k % len(shapes)]
        if m == 0:
            n = 0
        a = _seeded_matrix(rng, m, n, rng.choice((1, 3, 9, 50)))
        for left in (True, False):
            assert abelian._smith(a, left) == _all_row_smith(a, left)


def _vec_mat_scan(x, a):
    """x @ a as a full product, as coordinates were computed before the
    cached columns."""
    if not a:
        return []
    return [sum(x[i] * a[i][j] for i in range(len(x))) for j in range(len(a[0]))]


def _full_product_coords(g, coeffs):
    f = g._frame
    c = _vec_mat_scan(list(coeffs), f.v)
    return (tuple(c[i] for i in f.free_idx),
            tuple(c[i] % f.diag[i] for i in f.tors_idx))


def _full_product_is_zero(g, coeffs):
    free, tors = _full_product_coords(g, coeffs)
    return not any(free) and not any(tors)


def _full_product_well_defined(f):
    return all(_full_product_is_zero(f.codomain, _vec_mat_scan(list(rel), f.matrix))
               for rel in f.domain.relations)


def _seeded_group(rng):
    n = rng.randint(1, 5)
    return FGAbelianGroup(n, _seeded_matrix(rng, rng.randint(0, 4), n, 6))


def test_coordinates_and_zero_test_match_the_full_product():
    rng = random.Random(23)
    zeros = 0
    for _ in range(400):
        g = _seeded_group(rng)
        orders = [d for d in g.invariant_factors]
        for _ in range(10):
            c = [rng.randint(-20, 20) for _ in range(g.ngens)]
            if orders and rng.random() < 0.3:
                # a relation combination: zero in g
                c = [0] * g.ngens
                for r in g.relations:
                    k = rng.randint(-3, 3)
                    c = [a + k * b for a, b in zip(c, r)]
            assert g.canonical_coords(c) == _full_product_coords(g, c)
            assert g.element(c).is_zero() == _full_product_is_zero(g, c)
            zeros += g.element(c).is_zero()
    assert zeros > 100


def test_well_defined_matches_the_full_product():
    rng = random.Random(29)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        h = _seeded_group(rng)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(h.ngens)] for _ in range(n)]
        if rng.random() < 0.5:
            # relations from the kernel: a well-defined hom on the quotient
            ker = [r[:n] for r in left_kernel(mat + h.relations) if any(r[:n])]
            rels = [r for r in ker if rng.random() < 0.7]
        else:
            rels = _seeded_matrix(rng, rng.randint(0, 3), n, 4)
        f = GroupHom(FGAbelianGroup(n, rels), h, mat)
        assert f.is_well_defined() == _full_product_well_defined(f)
        outcomes[f.is_well_defined()] += 1
    assert min(outcomes.values()) > 100


def test_vec_mat_adds_the_selected_rows_as_the_full_product():
    # vec_mat sums c * a[i] over the nonzero c = x[i]; it must equal the
    # full product on sparse, dense and all-zero vectors, 0-row and
    # 0-width matrices, and raise on a length mismatch
    rng = random.Random(31)
    kinds = {"sparse": 0, "dense": 0, "zero": 0}
    for _ in range(1500):
        m, n = rng.randint(0, 7), rng.randint(0, 6)
        a = _seeded_matrix(rng, m, n, rng.choice((1, 4, 30)))
        kind = rng.choice(sorted(kinds))
        if kind == "zero":
            x = [0] * m
        else:
            share = 0.3 if kind == "sparse" else 1.0
            x = [rng.randint(-9, 9) if rng.random() < share else 0 for _ in range(m)]
        kinds[kind] += 1
        assert abelian.vec_mat(x, a) == _vec_mat_scan(x, a), (x, a)
        assert abelian.vec_mat(tuple(x), tuple(map(tuple, a))) == _vec_mat_scan(x, a)
    assert min(kinds.values()) > 400, kinds
    assert abelian.vec_mat([], []) == []
    assert abelian.vec_mat([0, 0], [[1, 2, 3], [4, 5, 6]]) == [0, 0, 0]
    assert abelian.vec_mat([3, 0], [[], []]) == []
    assert abelian.vec_mat([0, 1, 2], [[1, 0], [2, 5], [-1, 7]]) == [0, 19]
    for x, a in (([1], []), ([], [[1]]), ([1, 2], [[1, 2]]), ([1], [[1], [2]])):
        with pytest.raises(abelian.AbelianError):
            abelian.vec_mat(x, a)


def test_well_defined_reads_column_forms_as_the_full_product():
    # well_defined composes the images with the codomain's columns once;
    # it must answer as the full product, on homs out of 0-generator
    # domains, with no relations, and into torsion whose relations map to
    # nonzero multiples of a modulus, and raise on a relation of the wrong
    # length
    rng = random.Random(37)
    outcomes = {True: 0, False: 0}
    multiples = 0
    for _ in range(800):
        h = _seeded_group(rng)
        n = rng.choice((0, 0, 1, 2, 3))
        mat = [[rng.randint(-4, 4) for _ in range(h.ngens)] for _ in range(n)]
        shape = rng.choice(("none", "kernel", "kernel", "random"))
        if shape == "none" or n == 0:
            rels = [[0] * n for _ in range(rng.randint(0, 2))] if shape == "random" else []
        elif shape == "kernel":
            # kernel rows: each maps to a sum of h's relations, zero in h
            ker = [r[:n] for r in left_kernel(mat + h.relations) if any(r[:n])]
            rels = [[rng.randint(-2, 2) * x for x in r] for r in ker]
        else:
            rels = _seeded_matrix(rng, rng.randint(1, 3), n, 4)
        f = GroupHom(FGAbelianGroup(n, rels), h, mat)
        want = _full_product_well_defined(f)
        assert abelian.well_defined(rels, mat, h) == want, (rels, mat, h.relations)
        assert f.is_well_defined() == want
        outcomes[want] += 1
        if want and h.invariant_factors:
            multiples += any(any(abelian.vec_mat(r, mat)) for r in rels)
    assert min(outcomes.values()) > 100, outcomes
    assert multiples > 25, multiples
    z6 = FGAbelianGroup(1, [[6]])
    assert abelian.well_defined([[3]], [[2]], z6)
    assert not abelian.well_defined([[3]], [[1]], z6)
    assert abelian.well_defined([], [], z6)
    assert abelian.well_defined([[]], [], FGAbelianGroup(0))
    assert not abelian.well_defined([[1]], [[1]], FGAbelianGroup(1))
    for rels, images in (([[1, 2]], [[1]]), ([[0]], []), ([[0], [1, 0]], [[6]])):
        with pytest.raises(abelian.AbelianError):
            abelian.well_defined(rels, images, z6)


def test_generated_by():
    z = FGAbelianGroup(1)
    assert z.generated_by([[1]])
    assert z.generated_by([[2], [3]])
    assert not z.generated_by([[2], [4]])
    assert not z.generated_by([])
    z6 = FGAbelianGroup(1, [[6]])
    assert z6.generated_by([[5]])
    assert not z6.generated_by([[2]])
    assert z6.generated_by([[2], [3]])
    g = FGAbelianGroup(2, [[2, 0]])          # Z/2 + Z
    assert g.generated_by([[1, 0], [0, 1]])
    assert g.generated_by([[1, 1], [0, 1]])
    assert not g.generated_by([[0, 1]])
    assert not g.generated_by([[1, 0], [0, 2]])
    assert FGAbelianGroup(0).generated_by([])
    assert FGAbelianGroup(2, [[1, 0], [0, 1]]).generated_by([])
    # agrees with one membership test per canonical generator
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 3)
        grp = FGAbelianGroup(n, [[rng.randint(-4, 4) for _ in range(n)]
                                 for _ in range(rng.randint(0, 2))])
        elems = [grp.element([rng.randint(-3, 3) for _ in range(n)])
                 for _ in range(rng.randint(0, 3))]
        rows = [list(e.coeffs) for e in elems] + grp.relations
        want = all(solve_left(rows, list(c)) is not None if rows else not any(c)
                   for c in grp._canonical_rows())
        assert grp.generated_by([e.coeffs for e in elems]) == want


def test_generated_by_matches_the_smith_diagonal_rule():
    # a trivial or cyclic group answers by one gcd of the rows' canonical
    # coordinate and its modulus; every group must answer as the Smith form
    # of the rows stacked on the relations does
    rng = random.Random(41)
    seen = {}
    for _ in range(3000):
        n = rng.randint(0, 3)
        grp = FGAbelianGroup(n, [[rng.randint(-6, 6) for _ in range(n)]
                                 for _ in range(rng.randint(0, 3))])
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        diag = snf_diagonal(rows + grp.relations)
        want = len(diag) == n and all(d == 1 for d in diag)
        assert grp.generated_by(rows) == want, (grp.relations, rows)
        gens = len(grp.coordinate_columns())
        kind = ("trivial", "cyclic")[gens] if gens < 2 else "non-cyclic"
        seen[kind, want] = seen.get((kind, want), 0) + 1
    # a trivial group is generated by anything, even no rows
    assert ("trivial", False) not in seen
    for key in (("trivial", True), ("cyclic", True), ("cyclic", False),
                ("non-cyclic", True), ("non-cyclic", False)):
        assert seen.get(key, 0) > 30, seen


def test_canonical_generators_are_a_basis():
    g = FGAbelianGroup(3, [[2, 2, 0], [0, 4, 0]])
    gens = g._canonical_rows()
    assert len(gens) == g.free_rank + len(g.invariant_factors)
    # they map to the canonical basis
    assert [sum(g.canonical_coords(r), ()) for r in gens] == [unit_row(3, i) for i in range(3)]
    # every generator of the presentation lies in their span
    rows = [list(r) for r in gens] + g.relations
    for i in range(g.ngens):
        assert solve_left(rows, list(unit_row(3, i))) is not None


def test_order_finite():
    g = FGAbelianGroup(2, [[2, 0], [0, 3]])
    assert group_order(g) == 6
    # the canonical coordinates tell exactly that many elements apart
    assert len({g.canonical_coords(c) for c in product(range(6), repeat=2)}) == 6
    assert group_order(FGAbelianGroup(1, [])) is None


def test_hom_composition_and_kernel():
    z = FGAbelianGroup(1, [])
    z2 = FGAbelianGroup(1, [[2]])
    f = GroupHom(z, z2, [[1]])
    assert f.is_well_defined()
    # kernel of Z -> Z/2 is 2Z: the rows of one left kernel of the image
    # stacked on Z/2's relations, cut to Z's one column
    kern = [r[:1] for r in left_kernel(f.matrix + z2.relations)]
    assert kern in ([[2]], [[-2]])
    # composites are products of the image matrices, identities drop out
    assert GroupHom(z, z2, mat_mul(identity(z.ngens), f.matrix)) == f
    assert GroupHom(z, z2, mat_mul([[3]], f.matrix)) == f


def test_hom_rejects_ill_defined():
    z2 = FGAbelianGroup(1, [[2]])
    z3 = FGAbelianGroup(1, [[3]])
    f = GroupHom(z2, z3, [[1]])
    assert not f.is_well_defined()


def test_zero_hom_from_trivial_group():
    t = FGAbelianGroup(0, [])
    z2 = FGAbelianGroup(1, [[2]])
    f = zero_hom(t, z2)
    assert f.matrix == [] and f.is_well_defined()
    assert f == GroupHom(t, z2, [])


def test_is_isomorphism_cases():
    z = FGAbelianGroup(1, [])
    z2 = FGAbelianGroup(1, [[2]])
    # doubling on Z: well defined, same invariants, but not onto
    double = GroupHom(z, z, [[2]])
    assert double.is_well_defined() and not double.is_isomorphism()
    assert GroupHom(z, z, [[-1]]).is_isomorphism()
    # Z/2 -> Z with g -> 1 is ill defined
    assert not GroupHom(z2, z, [[1]]).is_isomorphism()
    # Z/6 presented as Z/2 + Z/3, onto a cyclic Z/6
    z2z3 = FGAbelianGroup(2, [[2, 0], [0, 3]])
    z6 = FGAbelianGroup(1, [[6]])
    assert GroupHom(z2z3, z6, [[3], [2]]).is_isomorphism()
    assert not GroupHom(z2z3, z6, [[3], [0]]).is_isomorphism()
    assert not GroupHom(z2z3, z, [[0], [0]]).is_isomorphism()
    # the 0-generator groups
    triv = FGAbelianGroup(0, [])
    assert GroupHom(triv, triv, []).is_isomorphism()
    assert zero_hom(triv, FGAbelianGroup(1, [[1]])).is_isomorphism()


def test_iter_isomorphisms_constraint():
    z4 = FGAbelianGroup(1, [[4]])
    # force the generator to map to itself
    isos = list(iter_isomorphisms(z4, z4, [((1,), (1,))], 4))
    assert len(isos) == 1
    # force it onto an element of wrong order: nothing comes back
    isos = list(iter_isomorphisms(z4, z4, [((1,), (2,))], 4))
    assert isos == []


def test_iter_isomorphisms_golden_order():
    # the full yield sequences of the product-then-filter search, which the
    # pruned walk must keep: roundtrip_check takes the first ROUNDTRIP_BRANCH
    # of them.  Constraints are coefficient rows; a right side in another
    # presentation never reaches the search (test_realize.py has that case)
    G = FGAbelianGroup
    cases = [
        # Z^2 -> Z^2, f(g0 + g1) = h0: decided only at the second image
        (G(2), G(2), [((1, 1), (1, 0))], 2,
         [[[-1, -1], [2, 1]], [[-1, 1], [2, -1]], [[0, -1], [1, 1]], [[0, 1], [1, -1]],
          [[1, -1], [0, 1]], [[1, 1], [0, -1]], [[2, -1], [-1, 1]], [[2, 1], [-1, -1]]]),
        # Z + Z/2 onto another presentation of it
        (G(2, [[0, 2]]), G(2, [[2, 2]]), [], 2,
         [[[0, -1], [1, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 1]], [[1, 2], [1, 1]]]),
        (G(2, [[2, 0], [0, 2]]), G(2, [[2, 0], [0, 2]]), [], 4,
         [[[0, 1], [1, 0]], [[0, 1], [1, 1]], [[1, 0], [0, 1]], [[1, 0], [1, 1]],
          [[1, 1], [0, 1]], [[1, 1], [1, 0]]]),
        (G(1, [[6]]), G(2, [[2, 0], [0, 3]]), [], 4, [[[-1, 1]], [[-5, 5]]]),
        # c(a) = 0 but b != 0: decided before the walk
        (G(1), G(1), [((0,), (1,))], 4, []),
    ]
    for g, h, constraints, box, want in cases:
        got = [f.matrix for f in iter_isomorphisms(g, h, constraints, box)]
        assert got == want, (g, h)


def _reference_isomorphisms(g, h, constraints, box):
    """The product-then-filter search, restated: every complete candidate
    hom is built, then tested against the constraints and for being an
    isomorphism."""
    if g.invariant_factors != h.invariant_factors or g.free_rank != h.free_rank:
        return []
    tors_ranges = [range(o) for o in h.invariant_factors]
    free_cand = [from_canonical(h, free, tors)
                 for free in product(range(-box, box + 1), repeat=h.free_rank) if any(free)
                 for tors in product(*tors_ranges)]
    zero = (0,) * h.free_rank
    finite = [from_canonical(h, zero, tors) for tors in product(*tors_ranges)]
    cand = [free_cand] * g.free_rank
    cand += [[x for x in finite if element_order(h, x) == d] for d in g.invariant_factors]
    coords = g.generator_coords()
    out = []
    for images in product(*cand):
        f = GroupHom(g, h, mat_mul(coords, images)) if images else zero_hom(g, h)
        if (all(images_agree(a, f.matrix, b, identity(h.ngens), h) for a, b in constraints)
                and f.is_isomorphism()):
            out.append(f.matrix)
    return out


def test_iter_isomorphisms_lists_coordinates_not_elements(monkeypatch):
    # the candidates are canonical coordinate tuples: the search builds no
    # element from them and asks no element for its order, and still yields
    # what the product-then-filter reference yields
    G = FGAbelianGroup
    z16 = G(2, [[16, 0], [0, 16]])
    cases = [
        (G(2), G(2), lambda g, h: [((1, 1), (1, 0))], 2),
        (G(2, [[0, 2]]), G(2, [[2, 2]]), lambda g, h: [], 2),
        # f(g0) = h0 leaves the image of g1: a + b * h1 with b a unit mod 16
        (z16, z16, lambda g, h: [((1, 0), (1, 0))], 4),
        (G(1, [[6]]), G(2, [[2, 0], [0, 3]]), lambda g, h: [], 4),
        # (1, 2) in Z/2 + Z/6 has order 6, the lcm of its coordinates' orders
        (G(2, [[2, 0], [0, 6]]), G(2, [[2, 2], [0, 6]]), lambda g, h: [], 4),
    ]
    want = [_reference_isomorphisms(g, h, c(g, h), box) for g, h, c, box in cases]
    assert [len(x) for x in want] == [8, 4, 128, 2, 12]

    def refuse(*args):
        raise AssertionError("the search built a group element")

    monkeypatch.setattr(FGAbelianGroup, "element", refuse)
    monkeypatch.setattr(GroupElement, "__init__", refuse)
    got = [[f.matrix for f in iter_isomorphisms(g, h, c(g, h), box)]
           for g, h, c, box in cases]
    assert got == want


def _presented(rng, free_rank, torsion):
    """Z^free_rank + the torsion, on a random presentation: the diagonal
    relations under a random unimodular change of generators, sometimes
    with one redundant generator more."""
    n = free_rank + len(torsion)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1, 2])
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    # Z^n / (R U) is Z^n / R through x -> x U, and row k of R U is t_k * u[k]
    rels = [[t * x for x in u[k]] for k, t in enumerate(torsion)]
    if rng.random() < 0.5:
        # g_n = x . (g_0, ..., g_{n-1})
        x = [rng.randint(-1, 1) for _ in range(n)]
        rels = [r + [0] for r in rels] + [x + [-1]]
        n += 1
    return FGAbelianGroup(n, rels)


SMALL_TORSION = [(), (2,), (3,), (2, 2)]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_iter_isomorphisms_matches_reference(rng):
    free_rank = rng.randint(0, 2)
    # with Z^2 the reference builds (24 * |T|)^2 candidates: 576 without torsion
    torsion = rng.choice(SMALL_TORSION) if free_rank < 2 else ()
    g = _presented(rng, free_rank, torsion)
    if rng.random() < 0.8:
        h = _presented(rng, free_rank, torsion)
    else:
        h = _presented(rng, rng.randint(0, 2), rng.choice(SMALL_TORSION))
    # constraints read off a random hom: half the time an isomorphism that
    # sends g's canonical generators to h's, up to sign on the free ones, so
    # that some are satisfiable; else any matrix
    same = g.invariant_factors == h.invariant_factors and g.free_rank == h.free_rank
    if same and rng.random() < 0.5:
        signs = [rng.choice([-1, 1]) for _ in range(h.free_rank)] + [1] * len(torsion)
        images = [[s * c for c in x] for s, x in zip(signs, h._canonical_rows())]
        f0 = GroupHom(g, h, mat_mul(g.generator_coords(), images)) if images else zero_hom(g, h)
        assert f0.is_isomorphism()
    else:
        f0 = GroupHom(g, h, [[rng.randint(-2, 2) for _ in range(h.ngens)]
                             for _ in range(g.ngens)])
    constraints = []
    for _ in range(rng.randint(0, 2)):
        a = [rng.randint(-2, 2) for _ in range(g.ngens)]
        constraints.append((a, vec_mat(a, f0.matrix) if f0.matrix else [0] * h.ngens))
    want = _reference_isomorphisms(g, h, constraints, 2)
    assert [f.matrix for f in iter_isomorphisms(g, h, constraints, box=2)] == want


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12))
def test_cyclic_sum_invariants(a, b):
    from math import gcd
    g = FGAbelianGroup(2, [[a, 0], [0, b]])
    d = gcd(a, b)
    if d == 1:
        assert g.invariant_factors == (a * b,)
    else:
        assert g.invariant_factors == (d, a * b // d)


def test_snf_agrees_with_sympy_invariant_factors():
    # an independent oracle; products through a narrow middle give rank
    # deficient matrices and nontrivial factors
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(11)
    for _ in range(200):
        rows, mid, cols = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 6)
        a = mat_mul(random_matrix(rng, rows, mid, -4, 4), random_matrix(rng, mid, cols, -4, 4))
        theirs = [abs(int(d)) for d in invariant_factors(sympy.Matrix(a))]
        assert snf_diagonal(a) == theirs, a


def test_frame_columns_are_built_on_first_read():
    # a frame builds no coordinate columns until one is read; then they are
    # (column of v, modulus) per free index and per torsion index, kept
    rng = random.Random(40)
    unset = abelian._Frame.columns      # the slot, read without building it
    for _ in range(300):
        n = rng.randint(0, 4)
        rels = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        f = abelian._Frame(n, rels)
        with pytest.raises(AttributeError):
            unset.__get__(f)
        want = tuple((tuple(row[i] for row in f.v), 0) for i in f.free_idx) + tuple(
            (tuple(row[i] for row in f.v), f.diag[i]) for i in f.tors_idx)
        assert f.columns == want and f.columns is f.columns
        assert unset.__get__(f) is f.columns
        g = FGAbelianGroup(n, rels)
        for _ in range(3):
            x = [rng.randint(-6, 6) for _ in range(n)]
            free, tors = g.canonical_coords(x)
            assert g.element(x).is_zero() == (not any(free) and not any(tors))
    with pytest.raises(AttributeError):
        abelian._Frame(1, [[2]]).no_such_slot
