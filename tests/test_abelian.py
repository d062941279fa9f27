import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmonoid import abelian
from sepmonoid.abelian import (AbelianError, FGAbelianGroup, GroupHom,
                               direct_sum, element_order, find_isomorphism,
                               identity_hom, iter_isomorphisms,
                               kernel_generators, left_kernel, mat_mul,
                               smith_normal_form, snf_diagonal, solve_left,
                               subgroup_membership, zero_hom)


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
    x = g.gen(0)
    assert (x + x + x + x).is_zero()
    assert not (x + x).is_zero()
    assert element_order(x) == 4
    assert element_order(g.gen(1)) is None
    assert (x - x).is_zero()
    assert g.eq(3 * x, -x)


def test_canonical_coords_roundtrip():
    g = FGAbelianGroup(3, [[2, 2, 0], [0, 4, 0]])
    cols = g.coordinate_columns()
    for coeffs in ([1, 0, 0], [0, 1, 2], [5, -3, 7]):
        x = g.element(coeffs)
        free, tors = x.canonical()
        assert g.eq(x, g.from_canonical(free, tors))
        dots = [sum(c * k for c, k in zip(coeffs, col)) for col, _ in cols]
        assert tuple(d % m if m else d for d, (_, m) in zip(dots, cols)) == free + tors


def test_relation_free_group_needs_no_smith_form(monkeypatch):
    calls = []
    real = abelian.smith_normal_form
    monkeypatch.setattr(abelian, "smith_normal_form",
                        lambda a: calls.append(len(a)) or real(a))
    g = FGAbelianGroup(200)
    assert g.canonical_name() == "Z^200"
    assert g.canonical_coords([1] * 200) == ((1,) * 200, ())
    assert calls == []
    FGAbelianGroup(2, [[2, 0]])
    assert calls                    # the counter does see a presented group


def test_inverse_transform_is_built_on_first_use(monkeypatch):
    calls = []
    real = abelian.smith_normal_form
    monkeypatch.setattr(abelian, "smith_normal_form",
                        lambda a: calls.append(len(a)) or real(a))
    g = FGAbelianGroup(2, [[2, 4]])
    free, tors = g.canonical_coords([1, 1])
    assert len(calls) == 1          # the presentation's Smith form only
    assert g.canonical_name() == "Z + Z/2" and tors == (1,)
    x = g.from_canonical(free, tors)
    assert len(calls) == 2          # the inverse transform, once
    assert g.eq(x, g.element([1, 1]))
    g.canonical_generators()
    assert len(calls) == 2


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
        want = all(subgroup_membership(elems, c) for c in grp.canonical_generators())
        assert grp.generated_by([e.coeffs for e in elems]) == want


def test_canonical_generators_are_a_basis():
    g = FGAbelianGroup(3, [[2, 2, 0], [0, 4, 0]])
    gens = g.canonical_generators()
    assert len(gens) == g.free_rank + len(g.invariant_factors)
    # every generator of the presentation lies in their span
    for i in range(g.ngens):
        assert subgroup_membership(gens, g.gen(i))


def test_all_elements_finite():
    g = FGAbelianGroup(2, [[2, 0], [0, 3]])
    elems = list(g.all_elements())
    assert len(elems) == 6
    assert g.order() == 6
    with pytest.raises(AbelianError):
        list(FGAbelianGroup(1, []).all_elements())


def test_hom_composition_and_kernel():
    z = FGAbelianGroup(1, [])
    z2 = FGAbelianGroup(1, [[2]])
    f = GroupHom(z, z2, [[1]])
    assert f.is_well_defined()
    kern = kernel_generators(f)
    # kernel of Z -> Z/2 is 2Z
    assert any(g.coeffs == (2,) or g.coeffs == (-2,) for g in kern)
    idem = f.compose(identity_hom(z))
    assert idem == f


def test_hom_rejects_ill_defined():
    z2 = FGAbelianGroup(1, [[2]])
    z3 = FGAbelianGroup(1, [[3]])
    f = GroupHom(z2, z3, [[1]])
    assert not f.is_well_defined()


def test_zero_hom_from_trivial_group():
    t = FGAbelianGroup(0, [])
    z2 = FGAbelianGroup(1, [[2]])
    f = zero_hom(t, z2)
    assert f(t.zero()).is_zero()


def test_direct_sum():
    z2 = FGAbelianGroup(1, [[2]])
    z = FGAbelianGroup(1, [])
    g, incs = direct_sum([z2, z])
    assert g.canonical_name() == "Z + Z/2"
    x = incs[0](z2.gen(0))
    assert element_order(x) == 2


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


def test_find_isomorphism():
    g = FGAbelianGroup(2, [[2, 0], [0, 3]])
    h = FGAbelianGroup(1, [[6]])
    res = find_isomorphism(g, h)
    assert res.status == "found"
    assert res.hom.is_well_defined()
    # an iso must carry generators to a generating set
    imgs = [res.hom(g.gen(i)) for i in range(g.ngens)]
    for j in range(h.ngens):
        assert subgroup_membership(imgs, h.gen(j))


def test_find_isomorphism_distinguishes():
    z4 = FGAbelianGroup(1, [[4]])
    z22 = FGAbelianGroup(2, [[2, 0], [0, 2]])
    assert find_isomorphism(z4, z22).status == "impossible"


def test_iter_isomorphisms_constraint():
    z4 = FGAbelianGroup(1, [[4]])
    # force the generator to map to itself
    isos = list(iter_isomorphisms(z4, z4, constraints=[(z4.gen(0), z4.gen(0))]))
    assert len(isos) == 1
    # force it onto an element of wrong order: nothing comes back
    isos = list(iter_isomorphisms(z4, z4, constraints=[(z4.gen(0), 2 * z4.gen(0))]))
    assert isos == []


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
