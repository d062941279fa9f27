"""Poset-indexed systems of abelian groups with connecting maps.

A system consists of a finite poset of primes, a kind (free or regular)
for each prime, an abelian group per prime, and for every strict pair
q < p a connecting map into G_p: a homomorphism G_q -> G_p, plus the
image of the counting generator when q is free.

Systems can be extracted from adaptable separated graphs, validated
against the axioms, and round-tripped through a text format (.is).
"""

from __future__ import annotations

from itertools import combinations

from .abelian import (FGAbelianGroup, GroupElement, GroupHom, images_agree,
                      left_kernel, vec_mat, zero_hom)
from .graph import (MAX_EXPANDED_EDGES, SepGraph, _unaddressable,
                    require_adaptable)
from .posets import Poset
from .records import FrozenRecord, Record

VERIFIED = "Verified"
COUNTEREXAMPLE = "CounterexampleFound"
MAX_GROUP_GENERATORS = 256      # per group name in a .is file


class ISystemError(ValueError):
    pass


class ISystemParseError(ISystemError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConnectingMap(Record):
    def __init__(self, hom: GroupHom, unit: GroupElement | None = None):
        self.hom = hom
        self.unit = unit    # image of the counting generator, free source only


class ISystem:
    def __init__(self, poset: Poset, kind: dict, group: dict, maps: dict,
                 generator_labels: dict | None = None):
        self.poset = poset
        self.kind = dict(kind)
        self.group = dict(group)
        self.maps = dict(maps)
        self.generator_labels = dict(generator_labels or {})
        for p in poset:
            if self.kind.get(p) not in ("free", "regular"):
                raise ISystemError(f"prime '{p}' needs kind free or regular")
            if p not in self.group:
                raise ISystemError(f"prime '{p}' has no group")
        # the only map out of a trivial regular source is the zero map
        for hi in poset:
            for lo in poset.strict_down(hi):
                if ((hi, lo) not in self.maps and self.kind[lo] == "regular"
                        and self.group[lo].is_trivial()):
                    self.maps[(hi, lo)] = ConnectingMap(zero_hom(self.group[lo], self.group[hi]))

    def primes(self):
        return list(self.poset.elements)

    def map_for(self, hi, lo) -> ConnectingMap:
        try:
            return self.maps[(hi, lo)]
        except KeyError:
            raise ISystemError(f"no connecting map for {lo} < {hi}") from None

    def __repr__(self):
        ks = ", ".join(f"{p}:{self.kind[p]}/{self.group[p].canonical_name()}"
                       for p in self.poset)
        return f"ISystem({ks})"


# -------------------------------------------------------------- validation


class ValidationFailure(FrozenRecord):
    def __init__(self, axiom: str, primes: tuple, detail: str):
        d = self.__dict__
        d["axiom"], d["primes"], d["detail"] = axiom, primes, detail


class ValidationReport(Record):
    def __init__(self, status: str, failures: list | None = None):
        self.status = status
        self.failures = [] if failures is None else failures

    @property
    def ok(self):
        return self.status == VERIFIED


def _cone_gap(p, quotient: FGAbelianGroup, units) -> str | None:
    """Why the units, a list of (prime, coefficient row in quotient), fail to
    generate quotient = G_p mod the lower images as a monoid, or None.

    They generate it as a monoid exactly when (a) they generate it as a
    group and (b) no nonzero linear form y on its r free coordinates has
    one sign on every unit.  Given both, Stiemke's theorem gives a
    rational relation sum(c_i * u_i) = 0 on the free coordinates with
    every c_i > 0; scaled by a common denominator and by the torsion
    exponent it is an integer relation in quotient with every c_i >= 1,
    so -u_j = (c_j - 1) * u_j + sum(c_i * u_i, i != j) is a sum of units,
    and the monoid is the group.  Conversely a form as in (b) that is
    nonzero on some u_q leaves -u_q outside even the real cone.

    (a) is one Smith form of the relations plus the unit rows: a nonzero
    group rest names a canonical generator that no unit sum reaches.
    For (b), once (a) holds the units span R^r, so if their real cone is
    not all of R^r it has a facet, spanned by r - 1 independent units;
    its normal is the one row of the left kernel of their r x (r - 1)
    coordinate matrix.  Checking every (r - 1)-subset costs
    C(n, r - 1) kernels of r x (r - 1) matrices for n units; the corpora
    have r <= 2 and n <= 5.
    """
    rest = FGAbelianGroup(quotient.ngens, quotient.relations + [list(u) for _, u in units])
    if not rest.is_trivial():
        missing = quotient.canonical_coords(rest._canonical_rows()[0])
        return f"element {missing} of G_{p} is not reachable from below"
    r = quotient.free_rank
    if not r:
        return None
    free = [quotient.canonical_coords(u)[0] for _, u in units]
    for subset in combinations(free, r - 1):
        # r = 1 has one subset, the empty one, whose 1 x 0 matrix has kernel (1)
        normals = left_kernel([list(col) for col in zip(*subset)] or [[]])
        if len(normals) != 1:
            continue
        y = normals[0]
        signs = [sum(a * b for a, b in zip(y, u)) for u in free]
        if all(x <= 0 for x in signs):
            y, signs = [-a for a in y], [-x for x in signs]
        if all(x >= 0 for x in signs):
            q = units[next(i for i, x in enumerate(signs) if x)][0]
            return (f"the negated unit of {q} is not reachable from below: the form {tuple(y)} "
                    f"on the free coordinates of G_{p} modulo the lower images is >= 0 on "
                    f"every unit and > 0 on that one")
    return None


def validate_isystem(sys: ISystem) -> ValidationReport:
    failures = []
    poset = sys.poset
    # map presence and shape
    for hi in poset:
        for lo in sorted(poset.strict_down(hi)):
            if (hi, lo) not in sys.maps:
                failures.append(ValidationFailure(
                    "map-presence", (hi, lo), f"no connecting map for {lo} < {hi}"))
                continue
            cm = sys.maps[(hi, lo)]
            if not cm.hom.domain.same_presentation(sys.group[lo]):
                failures.append(ValidationFailure(
                    "map-shape", (hi, lo), "hom domain is not the source group"))
                continue
            if not cm.hom.codomain.same_presentation(sys.group[hi]):
                failures.append(ValidationFailure(
                    "map-shape", (hi, lo), "hom codomain is not the target group"))
                continue
            if not cm.hom.is_well_defined():
                failures.append(ValidationFailure(
                    "map-hom", (hi, lo), "generator images do not respect the source relations"))
            if sys.kind[lo] == "free" and cm.unit is None:
                failures.append(ValidationFailure(
                    "map-unit", (hi, lo), f"free prime {lo} needs a unit image under {hi}"))
            if sys.kind[lo] == "regular" and cm.unit is not None:
                failures.append(ValidationFailure(
                    "map-unit", (hi, lo), f"regular prime {lo} must not carry a unit image"))
    if failures:
        return ValidationReport(COUNTEREXAMPLE, failures)
    # functoriality over chains lo < mid < hi
    for hi in poset:
        for mid in sorted(poset.strict_down(hi)):
            for lo in sorted(poset.strict_down(mid)):
                a = sys.map_for(hi, lo)
                b = sys.map_for(hi, mid)
                c = sys.map_for(mid, lo)
                # on each generator of lo (and its unit): the image through
                # mid minus the direct one vanishes in G_hi, whose
                # presentation both homs' codomains have (map-shape)
                g = b.hom.codomain
                if not all(images_agree(c_row, b.hom.matrix, (1,), [a_row], g)
                           for c_row, a_row in zip(c.hom.matrix, a.hom.matrix)):
                    failures.append(ValidationFailure(
                        "functoriality", (hi, mid, lo),
                        f"hom {lo}<{hi} differs from the composite through {mid}"))
                if sys.kind[lo] == "free":
                    if not (a.unit.group.same_presentation(g) and images_agree(
                            c.unit.coeffs, b.hom.matrix, (1,), [a.unit.coeffs], g)):
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
            cm = sys.map_for(p, q)
            if sys.kind[q] == "free" and cm.unit is not None:
                units.append((q, cm.unit.coeffs))
            for i in range(sys.group[q].ngens):
                hom_rows.append(list(cm.hom.matrix[i]))
        quotient = FGAbelianGroup(g_p.ngens, list(g_p.relations) + hom_rows)
        gap = _cone_gap(p, quotient, units)
        if gap is not None:
            failures.append(ValidationFailure("cone-coverage", (p,), gap))
    if failures:
        return ValidationReport(COUNTEREXAMPLE, failures)
    return ValidationReport(VERIFIED)


# -------------------------------------------------------------- extraction


def scope_vertices(g: SepGraph, cond, kinds, p):
    """Generator scope of prime p: weakly below for regular, strictly below for free."""
    if kinds[p] == "regular":
        classes = cond.poset.downset(p)
    else:
        classes = cond.poset.strict_down(p)
    return sorted(v for c in classes for v in cond.members[c])


def presented_group(g: SepGraph, cond, kinds, verts, extra_free=()):
    """Group presented on x_w for w in verts, with the graph relations.

    Regular vertices contribute their out-edge row, free vertices their
    per-block connector rows.  extra_free lists free vertices outside
    verts whose block rows should still be imposed (the prime itself).
    """
    index = {w: i for i, w in enumerate(verts)}
    rows = []
    for w in (*verts, *extra_free):
        if kinds[cond.class_of[w]] == "regular":
            row = [0] * len(verts)
            row[index[w]] += 1
            for e in g._out[w]:
                row[index[g.edges[e][1]]] -= 1
            rows.append(row)
        else:
            for blk in g.blocks_of[w]:
                row = [0] * len(verts)
                for e in blk:
                    tgt = g.edges[e][1]
                    if tgt != w:
                        row[index[tgt]] += 1
                rows.append(row)
    return FGAbelianGroup(len(verts), rows)


def extract_isystem(g: SepGraph) -> ISystem:
    """The system of adaptable g, built once per graph object and shared:
    callers must not mutate it.  NotAdaptableError when g is not adaptable."""
    return g.derived(_extract)


def _extract(g: SepGraph) -> ISystem:
    report = require_adaptable(g)
    cond = report.condensation
    kinds = report.kinds
    poset = cond.poset
    group = {}
    labels = {}
    for p in poset:
        verts = scope_vertices(g, cond, kinds, p)
        extra = (p,) if kinds[p] == "free" and not g.is_sink(p) else ()
        group[p] = presented_group(g, cond, kinds, verts, extra)
        labels[p] = tuple(verts)
    maps = {}
    for hi in poset:
        hi_index = {w: i for i, w in enumerate(labels[hi])}
        for lo in poset.strict_down(hi):
            rows = []
            for w in labels[lo]:
                row = [0] * len(labels[hi])
                row[hi_index[w]] = 1
                rows.append(row)
            hom = GroupHom(group[lo], group[hi], rows)
            unit = None
            if kinds[lo] == "free":
                row = [0] * len(labels[hi])
                row[hi_index[lo]] = 1   # class id of a free class is its vertex
                unit = group[hi].element(row)
            maps[(hi, lo)] = ConnectingMap(hom, unit)
    return ISystem(poset, kinds, group, maps, labels)


# ------------------------------------------------------------ text format


def parse_group_name(s: str) -> FGAbelianGroup:
    """Read a name like 'Z^2 + Z/2 + Z/4'.  A torsion order may be at most
    MAX_EXPANDED_EDGES (realize writes that many parallel edges), and the
    group at most MAX_GROUP_GENERATORS generators."""
    s = s.strip()
    if s == "0":
        return FGAbelianGroup(0, [])
    free = 0
    factors = []
    for part in (x.strip() for x in s.split("+")):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            try:
                n = int(part[2:])
            except ValueError:
                raise ISystemError(f"bad group term '{part}'") from None
            if n < 0:
                raise ISystemError(f"free rank must be nonnegative, got {n}")
            free += n
        elif part.startswith("Z/"):
            try:
                d = int(part[2:])
            except ValueError:
                raise ISystemError(f"bad group term '{part}'") from None
            if d < 2:
                raise ISystemError(f"torsion order must be at least 2, got {d}")
            if d > MAX_EXPANDED_EDGES:
                raise ISystemError(f"group term '{part}': torsion order above "
                                   f"{MAX_EXPANDED_EDGES}")
            factors.append(d)
        else:
            raise ISystemError(f"bad group term '{part}'")
        if free + len(factors) > MAX_GROUP_GENERATORS:
            raise ISystemError(f"group term '{part}': more than "
                               f"{MAX_GROUP_GENERATORS} generators in the group")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise ISystemError(f"torsion orders must divide in sequence: {a}, {b}")
    ngens = free + len(factors)
    rows = []
    for k, d in enumerate(factors):
        row = [0] * ngens
        row[free + k] = d
        rows.append(row)
    return FGAbelianGroup(ngens, rows)


def parse_group_presentation(s: str) -> FGAbelianGroup:
    """Parse 'g1 g2 ... [rels <expr> ; <expr> ...]' into a presented group
    under the caps of parse_group_name, its invariant factors as torsion orders."""
    parts = s.split()
    if "rels" in parts:
        cut = parts.index("rels")
        gen_names, rel_text = parts[:cut], " ".join(parts[cut + 1:])
    else:
        gen_names, rel_text = parts, ""
    if len(gen_names) > MAX_GROUP_GENERATORS:
        raise ISystemError(f"more than {MAX_GROUP_GENERATORS} generators in the group")
    if gen_names != [f"g{i + 1}" for i in range(len(gen_names))]:
        raise ISystemError(f"generators must be named g1, g2, ... in order, got {gen_names}")
    free = FGAbelianGroup(len(gen_names), [])
    rows = []
    for chunk in (c.strip() for c in rel_text.split(";")):
        if not chunk:
            continue
        rows.append(list(parse_element_expr(chunk, free).coeffs))
    group = FGAbelianGroup(len(gen_names), rows)
    top = max(group.invariant_factors, default=0)
    if top > MAX_EXPANDED_EDGES:
        raise ISystemError(f"invariant factor {top} above {MAX_EXPANDED_EDGES}")
    return group


def parse_element_expr(s: str, group: FGAbelianGroup) -> GroupElement:
    s = s.strip()
    coeffs = [0] * group.ngens
    if s == "0":
        return group.element(coeffs)
    text = s.replace("-", "+-")
    for term in (t.strip() for t in text.split("+")):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:].strip()
        if "*" in term:
            cq, gname = (x.strip() for x in term.split("*", 1))
            try:
                c = int(cq)
            except ValueError:
                raise ISystemError(f"bad coefficient '{cq}'") from None
        else:
            c, gname = 1, term
        if not gname.startswith("g"):
            raise ISystemError(f"bad generator '{gname}'")
        try:
            idx = int(gname[1:]) - 1
        except ValueError:
            raise ISystemError(f"bad generator '{gname}'") from None
        if not 0 <= idx < group.ngens:
            raise ISystemError(f"generator '{gname}' out of range (group has {group.ngens})")
        coeffs[idx] += sign * c
    return group.element(coeffs)


def serialize_coords(coords) -> str:
    """`.is` text of a coefficient row, such as g1 - 2*g3, or 0."""
    out = ""
    for i, c in enumerate(coords, 1):
        if not c:
            continue
        term = f"g{i}" if abs(c) == 1 else f"{abs(c)}*g{i}"
        if out:
            out += f" + {term}" if c > 0 else f" - {term}"
        else:
            out = term if c > 0 else f"-{term}"
    return out or "0"


def _torsion_reduced(row, g: FGAbelianGroup):
    """row with each entry at a torsion position of g's canonical form reduced."""
    out = list(row)
    for k, d in enumerate(g.invariant_factors, g.free_rank):
        out[k] %= d
    return out


def _source_images(matrix, g: FGAbelianGroup):
    """Rows of matrix, a hom out of g, taken at g's canonical generators."""
    if g.canonical_frame()[1] is None:
        return matrix
    return [vec_mat(row, matrix) for row in g._canonical_rows()]


def _target_coords(row, g: FGAbelianGroup):
    """row, coefficients in g, in g's canonical coordinates (row itself
    when g is in canonical form)."""
    coords = g.canonical_frame()[1]
    return row if coords is None else vec_mat(row, coords)


def canonicalized(sys: ISystem) -> ISystem:
    """Equivalent system whose groups are in canonical diagonal form."""
    canon = {}
    for p in sys.poset:
        g = sys.group[p]
        canon[p] = FGAbelianGroup(g.free_rank + len(g.invariant_factors), g.canonical_frame()[0])
    maps = {}
    for (hi, lo), cm in sys.maps.items():
        g = sys.group[hi]
        rows = [_target_coords(row, g) for row in _source_images(cm.hom.matrix, sys.group[lo])]
        unit = None if cm.unit is None else canon[hi].element(_target_coords(cm.unit.coeffs, g))
        maps[(hi, lo)] = ConnectingMap(GroupHom(canon[lo], canon[hi], rows), unit)
    return ISystem(sys.poset, sys.kind, canon, maps)


def serialize_isystem(sys: ISystem) -> str:
    """`.is` text of sys in canonical form: each map clause gives the
    canonical coordinates in G_hi of the unit image or of the image of one
    of G_lo's canonical generators, with torsion reduced."""
    lines = []
    for p in sys.poset:
        lines.append(f"prime {p} {'reg' if sys.kind[p] == 'regular' else 'free'}")
    for lo, hi in sys.poset.covers():
        lines.append(f"cover {lo} < {hi}")
    for p in sys.poset:
        lines.append(f"group {p} : {sys.group[p].canonical_name()}")
    for hi in sys.poset:
        g = sys.group[hi]
        for lo in sorted(sys.poset.strict_down(hi)):
            cm = sys.maps[(hi, lo)]
            if sys.kind[lo] == "regular" and sys.group[lo].is_trivial():
                continue
            images = [] if cm.unit is None else [("unit", cm.unit.coeffs)]
            images += [(f"g{i}", row) for i, row in
                       enumerate(_source_images(cm.hom.matrix, sys.group[lo]), 1)]
            clauses = (f"{lhs} -> " + serialize_coords(
                _torsion_reduced(_target_coords(row, g), g)) for lhs, row in images)
            lines.append(f"map {hi} <- {lo} : " + " ; ".join(clauses))
    return "\n".join(lines) + "\n"


def parse_isystem(text: str) -> ISystem:
    kind = {}
    covers = []
    group_names = {}
    map_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "prime":
            if len(tokens) != 3 or tokens[2] not in ("free", "reg", "regular"):
                raise ISystemParseError(line_no, "prime line needs: prime <name> free|reg")
            if tokens[1] in kind:
                raise ISystemParseError(line_no, f"duplicate prime '{tokens[1]}'")
            why = _unaddressable(tokens[1])
            if why:
                # realize names vertices after their primes
                raise ISystemParseError(line_no, f"prime name '{tokens[1]}' is reserved: {why}")
            kind[tokens[1]] = "free" if tokens[2] == "free" else "regular"
        elif tokens[0] == "cover":
            if len(tokens) != 4 or tokens[2] != "<":
                raise ISystemParseError(line_no, "cover line needs: cover <lo> < <hi>")
            if tokens[1] == tokens[3]:
                raise ISystemParseError(line_no, f"cover {tokens[1]} < {tokens[3]} is not strict")
            covers.append((line_no, tokens[1], tokens[3]))
        elif tokens[0] == "group":
            if len(tokens) >= 4 and tokens[2] == ":":
                payload = ("name", " ".join(tokens[3:]))
            elif len(tokens) >= 4 and tokens[2] == "gens":
                payload = ("pres", " ".join(tokens[3:]))
            else:
                raise ISystemParseError(
                    line_no, "group line needs: group <prime> : <name>  "
                             "or: group <prime> gens g1 ... [rels <expr> ; ...]")
            if tokens[1] in group_names:
                raise ISystemParseError(line_no, f"duplicate group for '{tokens[1]}'")
            group_names[tokens[1]] = (line_no, payload)
        elif tokens[0] == "map":
            map_lines.append((line_no, line))
        else:
            raise ISystemParseError(line_no, f"unknown directive '{tokens[0]}'")
    for line_no, lo, hi in covers:
        if lo not in kind or hi not in kind:
            raise ISystemParseError(
                line_no, f"cover mentions unknown prime '{lo if lo not in kind else hi}'")
    try:
        poset = Poset(kind.keys(), [(lo, hi) for _, lo, hi in covers])
    except ValueError as exc:
        raise ISystemError(str(exc)) from None
    group = {}
    for p in kind:
        if p not in group_names:
            raise ISystemError(f"prime '{p}' has no group line")
        line_no, (mode, expr) = group_names[p]
        try:
            group[p] = parse_group_name(expr) if mode == "name" \
                else parse_group_presentation(expr)
        except ISystemError as exc:
            raise ISystemParseError(line_no, str(exc)) from None
    maps = {}
    for line_no, line in map_lines:
        head, _, body = line.partition(":")
        tokens = head.split()
        if len(tokens) != 4 or tokens[2] != "<-":
            raise ISystemParseError(line_no, "map line needs: map <hi> <- <lo> : <clauses>")
        hi, lo = tokens[1], tokens[3]
        if hi not in kind or lo not in kind:
            raise ISystemParseError(
                line_no, f"map mentions unknown prime '{hi if hi not in kind else lo}'")
        if not poset.lt(lo, hi):
            raise ISystemParseError(line_no, f"map for pair without {lo} < {hi}")
        if (hi, lo) in maps:
            raise ISystemParseError(line_no, f"duplicate map for {lo} < {hi}")
        unit = None
        rows = [None] * group[lo].ngens
        for clause in (c.strip() for c in body.split(";")):
            if not clause:
                continue
            lhs, _, rhs = clause.partition("->")
            lhs = lhs.strip()
            if not rhs:
                raise ISystemParseError(line_no, f"bad clause '{clause}'")
            try:
                img = parse_element_expr(rhs, group[hi])
            except ISystemError as exc:
                raise ISystemParseError(line_no, str(exc)) from None
            if lhs == "unit":
                if kind[lo] != "free":
                    raise ISystemParseError(line_no, f"unit clause for regular prime '{lo}'")
                if unit is not None:
                    raise ISystemParseError(line_no, "duplicate unit clause")
                unit = img
            elif lhs.startswith("g"):
                try:
                    idx = int(lhs[1:]) - 1
                except ValueError:
                    raise ISystemParseError(line_no, f"bad clause lhs '{lhs}'") from None
                if not 0 <= idx < group[lo].ngens:
                    raise ISystemParseError(line_no, f"generator '{lhs}' out of range")
                if rows[idx] is not None:
                    raise ISystemParseError(line_no, f"duplicate clause for '{lhs}'")
                rows[idx] = list(img.coeffs)
            else:
                raise ISystemParseError(line_no, f"bad clause lhs '{lhs}'")
        if kind[lo] == "free" and unit is None:
            raise ISystemParseError(line_no, f"free prime '{lo}' needs a unit clause")
        missing = [f"g{i + 1}" for i, r in enumerate(rows) if r is None]
        if missing:
            raise ISystemParseError(line_no, f"missing clause(s) for {', '.join(missing)}")
        maps[(hi, lo)] = ConnectingMap(GroupHom(group[lo], group[hi], rows), unit)
    for hi in poset:
        for lo in sorted(poset.strict_down(hi)):
            if (hi, lo) not in maps and not (kind[lo] == "regular" and group[lo].is_trivial()):
                raise ISystemError(f"missing map line for {lo} < {hi}")
    return ISystem(poset, kind, group, maps)
