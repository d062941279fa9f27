"""The all-pairs validation, kept as a reference for the tests.

`validate_isystem` checks a system on its covers.  This module keeps the
form it replaced, which checks `map-hom` on every strict pair q < p and
`functoriality` on every chain lo < mid < hi, and reads every q < p of a
free prime for `cone-coverage`.  The two give the same verdict on every
system the constructor accepts.
"""

from sepmonoid.abelian import FGAbelianGroup, images_agree
from sepmonoid.isystem import (COUNTEREXAMPLE, VERIFIED, ISystem, ValidationFailure,
                               ValidationReport, _cone_gap)


def validate_isystem(sys: ISystem) -> ValidationReport:
    """Check the axioms: the maps are homs (`map-hom`; its failures are the
    whole report), they compose (`functoriality`) and cover free primes (`cone-coverage`)."""
    failures = []
    poset = sys.poset
    for hi in poset:
        for lo in sorted(poset.strict_down(hi)):
            if not sys.maps[(hi, lo)].hom.is_well_defined():
                failures.append(ValidationFailure(
                    "map-hom", (hi, lo), "generator images do not respect the source relations"))
    if failures:
        return ValidationReport(COUNTEREXAMPLE, failures)
    # functoriality over chains lo < mid < hi
    for hi in poset:
        for mid in sorted(poset.strict_down(hi)):
            for lo in sorted(poset.strict_down(mid)):
                a = sys.maps[(hi, lo)]
                b = sys.maps[(hi, mid)]
                c = sys.maps[(mid, lo)]
                # on each generator of lo (and its unit): the image through
                # mid minus the direct one vanishes in G_hi, whose
                # presentation both homs' codomains have (the constructor checks it)
                g = b.hom.codomain
                if not all(images_agree(c_row, b.hom.matrix, (1,), [a_row], g)
                           for c_row, a_row in zip(c.hom.matrix, a.hom.matrix)):
                    failures.append(ValidationFailure(
                        "functoriality", (hi, mid, lo),
                        f"hom {lo}<{hi} differs from the composite through {mid}"))
                if a.unit is not None and not images_agree(
                        c.unit.coeffs, b.hom.matrix, (1,), [a.unit.coeffs], g):
                    failures.append(ValidationFailure(
                        "functoriality", (hi, mid, lo),
                        f"unit image of {lo} under {hi} differs from the composite through {mid}"))
    # free primes: minimality and cone coverage
    for p in poset:
        if sys.kind[p] != "free":
            continue
        g_p = sys.group[p]
        lowers = poset.strict_down(p)
        if not lowers:
            if not g_p.is_trivial():
                failures.append(ValidationFailure(
                    "cone-coverage", (p,),
                    f"minimal free prime {p} must carry the trivial group, has {g_p.canonical_name()}"))
            continue
        units = []
        hom_rows = []
        for q in sorted(lowers):
            cm = sys.maps[(p, q)]
            if cm.unit is not None:
                units.append((q, cm.unit.coeffs))
            hom_rows += map(list, cm.hom.matrix)
        quotient = FGAbelianGroup(g_p.ngens, list(g_p.relations) + hom_rows)
        gap = _cone_gap(p, quotient, units)
        if gap is not None:
            failures.append(ValidationFailure("cone-coverage", (p,), gap))
    if failures:
        return ValidationReport(COUNTEREXAMPLE, failures)
    return ValidationReport(VERIFIED)
