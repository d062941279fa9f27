"""Poset-indexed systems of abelian groups with connecting maps.

A system consists of a finite poset of primes, a kind (free or regular)
for each prime, an abelian group per prime, and for every strict pair
q < p a connecting map into G_p: a homomorphism G_q -> G_p, plus the
image of the counting generator when q is free.

Systems can be extracted from adaptable separated graphs, validated
against the axioms, and round-tripped through a text format (.is).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .abelian import (
    FGAbelianGroup, GroupElement, GroupHom, cone_walk, identity, zero_hom,
)
from .graph import SepGraph, require_adaptable
from .posets import Poset

VERIFIED = "Verified"
COUNTEREXAMPLE = "CounterexampleFound"
INCONCLUSIVE = "InconclusiveWithinBound"


class ISystemError(ValueError):
    pass


class ISystemParseError(ISystemError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ConnectingMap:
    hom: GroupHom
    unit: GroupElement | None = None   # image of the counting generator, free source only


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

    def hat_apply(self, hi, lo, n: int, g: GroupElement) -> GroupElement:
        """Image of (n, g) from the hatted source at lo into G_hi."""
        cm = self.map_for(hi, lo)
        out = cm.hom(g)
        if n:
            if cm.unit is None:
                raise ISystemError(f"map {lo} < {hi} has no unit image but n={n}")
            out = out + n * cm.unit
        return out

    def __repr__(self):
        ks = ", ".join(f"{p}:{self.kind[p]}/{self.group[p].canonical_name()}"
                       for p in self.poset)
        return f"ISystem({ks})"


# -------------------------------------------------------------- validation


@dataclass(frozen=True)
class ValidationFailure:
    axiom: str
    primes: tuple
    detail: str


@dataclass
class ValidationReport:
    status: str
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return self.status == VERIFIED


def _cone_covers_finite(q_group: FGAbelianGroup, units) -> GroupElement | None:
    """Walk the additive closure of the unit classes inside a finite group.

    Returns a missing element if the closure is proper, else None.
    """
    seen = {c for _, _, c, _ in cone_walk(q_group, list(enumerate(units)))}
    for g in q_group.all_elements():
        if g.canonical() not in seen:
            return g
    return None


def _cone_covers_infinite(q_group: FGAbelianGroup, units, box=3, cap=20000):
    """(status, detail) for the cone condition in an infinite quotient."""
    r = q_group.free_rank
    unit_coords = [u.canonical() for u in units]
    for i in range(r):
        vals = [c[0][i] for c in unit_coords]
        if all(v >= 0 for v in vals):
            return COUNTEREXAMPLE, f"no generator has a negative coordinate {i}"
        if all(v <= 0 for v in vals):
            return COUNTEREXAMPLE, f"no generator has a positive coordinate {i}"
    targets = set()
    for i in range(r):
        for sgn in (1, -1):
            free = tuple(sgn if j == i else 0 for j in range(r))
            targets.add((free, tuple([0] * len(q_group.torsion_orders()))))
    orders = q_group.torsion_orders()
    for j in range(len(orders)):
        tors = tuple(1 if k == j else 0 for k in range(len(orders)))
        targets.add((tuple([0] * r), tors))
    # the step cap is checked only when a layer is complete
    seen, last = set(), 0
    for layer, _, c, _ in cone_walk(q_group, list(enumerate(units)),
                                    lambda c: any(abs(x) > box for x in c[0])):
        if layer != last and len(seen) > cap:
            break
        seen.add(c)
        last = layer
    missing = targets - seen
    if not missing:
        return VERIFIED, ""
    return INCONCLUSIVE, f"{len(missing)} basis targets not reached within box {box}"


def validate_isystem(sys: ISystem, box=3) -> ValidationReport:
    failures = []
    inconclusive = []
    poset = sys.poset
    # map presence and shape
    for hi in poset:
        for lo in poset.strict_down(hi):
            if (hi, lo) not in sys.maps:
                failures.append(ValidationFailure(
                    "map-presence", (hi, lo), f"no connecting map for {lo} < {hi}"))
                continue
            cm = sys.maps[(hi, lo)]
            if cm.hom.domain is not sys.group[lo] and not cm.hom.domain.same_presentation(sys.group[lo]):
                failures.append(ValidationFailure(
                    "map-shape", (hi, lo), "hom domain is not the source group"))
                continue
            if cm.hom.codomain is not sys.group[hi] and not cm.hom.codomain.same_presentation(sys.group[hi]):
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
        for mid in poset.strict_down(hi):
            for lo in poset.strict_down(mid):
                a = sys.map_for(hi, lo)
                b = sys.map_for(hi, mid)
                c = sys.map_for(mid, lo)
                if not b.hom.compose(c.hom) == a.hom:
                    failures.append(ValidationFailure(
                        "functoriality", (hi, mid, lo),
                        f"hom {lo}<{hi} differs from the composite through {mid}"))
                if sys.kind[lo] == "free":
                    if b.hom(c.unit) != a.unit:
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
        for q in lowers:
            cm = sys.map_for(p, q)
            if sys.kind[q] == "free" and cm.unit is not None:
                units.append(cm.unit)
            for i in range(sys.group[q].ngens):
                hom_rows.append(list(cm.hom.matrix[i]))
        quotient = FGAbelianGroup(g_p.ngens, list(g_p.relations) + hom_rows)
        unit_classes = [quotient.element(u.coeffs) for u in units]
        if quotient.free_rank == 0:
            missing = _cone_covers_finite(quotient, unit_classes)
            if missing is not None:
                failures.append(ValidationFailure(
                    "cone-coverage", (p,),
                    f"element {missing.canonical()} of G_{p} is not reachable from below"))
        else:
            status, detail = _cone_covers_infinite(quotient, unit_classes, box=box)
            if status == COUNTEREXAMPLE:
                failures.append(ValidationFailure("cone-coverage", (p,), detail))
            elif status == INCONCLUSIVE:
                inconclusive.append(ValidationFailure("cone-coverage", (p,), detail))
    if failures:
        return ValidationReport(COUNTEREXAMPLE, failures)
    if inconclusive:
        return ValidationReport(INCONCLUSIVE, inconclusive)
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
            for e in g.out_edges(w):
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
            factors.append(d)
        else:
            raise ISystemError(f"bad group term '{part}'")
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
    """Parse 'g1 g2 ... [rels <expr> ; <expr> ...]' into a presented group."""
    parts = s.split()
    if "rels" in parts:
        cut = parts.index("rels")
        gen_names, rel_text = parts[:cut], " ".join(parts[cut + 1:])
    else:
        gen_names, rel_text = parts, ""
    if gen_names != [f"g{i + 1}" for i in range(len(gen_names))]:
        raise ISystemError(f"generators must be named g1, g2, ... in order, got {gen_names}")
    free = FGAbelianGroup(len(gen_names), [])
    rows = []
    for chunk in (c.strip() for c in rel_text.split(";")):
        if not chunk:
            continue
        rows.append(list(parse_element_expr(chunk, free).coeffs))
    return FGAbelianGroup(len(gen_names), rows)


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


def serialize_element_expr(x: GroupElement) -> str:
    g = x.group
    coeffs = list(x.coeffs)
    free = g.free_rank
    for k, d in enumerate(g.invariant_factors):
        coeffs[free + k] %= d
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        name = f"g{i + 1}"
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{c}*{name}"
        terms.append(term)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def canonicalized(sys: ISystem) -> ISystem:
    """Equivalent system whose groups are in canonical diagonal form.

    A group already in that form keeps its generators, so canonicalizing
    a canonical system changes nothing.
    """
    canon = {}
    fwd = {}
    back = {}
    for p in sys.poset:
        g = sys.group[p]
        c = FGAbelianGroup(g.free_rank + len(g.invariant_factors), [
            [d if j == g.free_rank + k else 0
             for j in range(g.free_rank + len(g.invariant_factors))]
            for k, d in enumerate(g.invariant_factors)
        ])
        if g.same_presentation(c):
            eye = identity(g.ngens)
            fwd[p], back[p], canon[p] = GroupHom(g, c, eye), GroupHom(c, g, eye), c
            continue
        fwd[p] = GroupHom(g, c, g.generator_coords())
        back[p] = GroupHom(c, g, [e.coeffs for e in g.canonical_generators()])
        canon[p] = c
    maps = {}
    for (hi, lo), cm in sys.maps.items():
        hom = fwd[hi].compose(cm.hom.compose(back[lo]))
        unit = fwd[hi](cm.unit) if cm.unit is not None else None
        maps[(hi, lo)] = ConnectingMap(hom, unit)
    return ISystem(sys.poset, sys.kind, canon, maps)


def serialize_isystem(sys: ISystem) -> str:
    sys = canonicalized(sys)
    lines = []
    for p in sys.poset:
        lines.append(f"prime {p} {'reg' if sys.kind[p] == 'regular' else 'free'}")
    for lo, hi in sys.poset.covers():
        lines.append(f"cover {lo} < {hi}")
    for p in sys.poset:
        lines.append(f"group {p} : {sys.group[p].canonical_name()}")
    for hi in sys.poset:
        for lo in sorted(sys.poset.strict_down(hi)):
            cm = sys.maps[(hi, lo)]
            if sys.kind[lo] == "regular" and sys.group[lo].is_trivial():
                continue
            clauses = []
            if cm.unit is not None:
                clauses.append(f"unit -> {serialize_element_expr(cm.unit)}")
            for i in range(sys.group[lo].ngens):
                img = sys.group[hi].element(cm.hom.matrix[i])
                clauses.append(f"g{i + 1} -> {serialize_element_expr(img)}")
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
            kind[tokens[1]] = "free" if tokens[2] == "free" else "regular"
        elif tokens[0] == "cover":
            if len(tokens) != 4 or tokens[2] != "<":
                raise ISystemParseError(line_no, "cover line needs: cover <lo> < <hi>")
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
            raise ISystemParseError(line_no, f"cover mentions unknown prime")
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
            raise ISystemParseError(line_no, "map mentions unknown prime")
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
        for lo in poset.strict_down(hi):
            if (hi, lo) not in maps and not (kind[lo] == "regular" and group[lo].is_trivial()):
                raise ISystemError(f"missing map line for {lo} < {hi}")
    return ISystem(poset, kind, group, maps)
