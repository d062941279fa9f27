"""Poset-indexed systems of abelian groups with connecting maps.

A system consists of a finite poset of primes, a kind (free or regular)
for each prime, an abelian group per prime, and for every strict pair
q < p a connecting map into G_p: a homomorphism G_q -> G_p, plus the
image of the counting generator when q is free.

Systems can be extracted from adaptable separated graphs, validated
against the axioms, and round-tripped through a text format (.is).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .abelian import (FGAbelianGroup, GroupElement, GroupHom, images_agree,
                      left_kernel, vec_mat, zero_hom)
from .graph import (MAX_EXPANDED_EDGES, SepGraph, _decimal, _refuse_reserved,
                    _reserved, require_adaptable)
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
    """Primes in a poset, named as `graph._reserved` allows since `realize`
    names vertices after them, each with a kind ("free" or "regular") and
    a group, and per strict pair q < p a `ConnectingMap` keyed (p, q): a
    hom from G_q's presentation to G_p's, with a unit in G_p's exactly when
    q is free (a trivial regular q without one gets the zero map).  The
    constructor checks this, p in poset order and q sorted, and raises
    ISystemError at the first failure; `validate_isystem` checks the axioms.

    Each pair is checked in one pass over its map.  The groups are held,
    not copied: a parsed or canonical system shares its groups with every
    other one of the same name (`parse_group_name`), so callers must not
    mutate them."""

    def __init__(self, poset: Poset, kind: dict, group: dict, maps: dict,
                 generator_labels: dict | None = None):
        self.poset = poset
        self.kind = kind = dict(kind)
        self.group = group = dict(group)
        self.generator_labels = dict(generator_labels or {})
        _refuse_reserved(list(poset), "prime name", ISystemError)
        for p in poset:
            if kind.get(p) not in ("free", "regular"):
                raise ISystemError(f"prime '{p}' needs kind free or regular")
            if p not in group:
                raise ISystemError(f"prime '{p}' has no group")
        given = dict(maps)
        self.maps = checked = {}
        for hi in poset:
            g_hi = group[hi]
            for lo in sorted(poset.strict_down(hi)):
                cm, g_lo, free = given.pop((hi, lo), None), group[lo], kind[lo] == "free"
                if cm is None:
                    if free or not g_lo.is_trivial():
                        raise ISystemError(f"no connecting map for {lo} < {hi}")
                    cm = ConnectingMap(zero_hom(g_lo, g_hi))
                elif not cm.hom.domain.same_presentation(g_lo):
                    raise ISystemError(f"map {hi} <- {lo}: hom domain is not the source group")
                elif not cm.hom.codomain.same_presentation(g_hi):
                    raise ISystemError(f"map {hi} <- {lo}: hom codomain is not the target group")
                elif not free:
                    if cm.unit is not None:
                        raise ISystemError(
                            f"regular prime {lo} must not carry a unit image under {hi}")
                elif cm.unit is None:
                    raise ISystemError(f"free prime {lo} needs a unit image under {hi}")
                elif not cm.unit.group.same_presentation(g_hi):
                    raise ISystemError(
                        f"map {hi} <- {lo}: unit is not an element of the target group")
                checked[(hi, lo)] = cm
        if given:
            raise ISystemError(f"no strict pair q < p for the map keyed {next(iter(given))!r}")

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

    (a) is `quotient.generated_by` the unit rows.  When it fails, the
    group rest, quotient modulo the units, is nonzero, and its first
    canonical generator names an element that no unit sum reaches.
    For (b), once (a) holds the units span R^r, so if their real cone is
    not all of R^r it has a facet, spanned by r - 1 independent units;
    its normal is the one row of the left kernel of their r x (r - 1)
    coordinate matrix.  Checking every (r - 1)-subset costs
    C(n, r - 1) kernels of r x (r - 1) matrices for n units; the corpora
    have r <= 2 and n <= 5.
    """
    rows = [list(u) for _, u in units]
    if not quotient.generated_by(rows):
        rest = FGAbelianGroup(quotient.ngens, quotient.relations + rows)
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
    """Check the axioms on covers, each assuming the ones before it, and
    report the failures of the first that fails: the cover maps are homs
    (`map-hom`), each map into hi is its composite through each lower cover
    of hi (`functoriality`), and a free prime's lower covers reach its group
    as a monoid (`cone-coverage`).  That checks every pair: if f_hl = f_hm
    f_ml for all l < m covered by h, then for l < m < m' covered by h,
    f_hm f_ml = f_hm' f_m'm f_ml = f_hm' f_m'l = f_hl by the cover case,
    induction on [m, m'] and the cover case.  So each map agrees on
    generators with a composite of cover homs, and is a hom; units follow
    alike.  A non-cover q < m covered by p has f_pq's image inside f_pm's,
    and its unit, f_pm of m's, is zero in the cover quotient."""
    poset, maps = sys.poset, sys.maps
    failures = [ValidationFailure("map-hom", (hi, lo),
                                  "generator images do not respect the source relations")
                for lo, hi in poset.covers() if not maps[(hi, lo)].hom.is_well_defined()]
    if failures:
        return ValidationReport(COUNTEREXAMPLE, failures)
    for hi in poset:
        for mid in poset.lower_covers(hi):
            b = maps[(hi, mid)].hom
            for lo in sorted(poset.strict_down(mid)):
                # on each generator of lo (and its unit): the image through mid minus
                # the direct one vanishes in G_hi, b's codomain (the constructor checks it)
                a, c = maps[(hi, lo)], maps[(mid, lo)]
                if not all(images_agree(c_row, b.matrix, (1,), [a_row], b.codomain)
                           for c_row, a_row in zip(c.hom.matrix, a.hom.matrix)):
                    failures.append(ValidationFailure(
                        "functoriality", (hi, mid, lo),
                        f"hom {lo}<{hi} differs from the composite through {mid}"))
                if a.unit is not None and not images_agree(
                        c.unit.coeffs, b.matrix, (1,), [a.unit.coeffs], b.codomain):
                    failures.append(ValidationFailure(
                        "functoriality", (hi, mid, lo),
                        f"unit image of {lo} under {hi} differs from the composite through {mid}"))
    if failures:
        return ValidationReport(COUNTEREXAMPLE, failures)
    for p in poset:
        if sys.kind[p] != "free":
            continue
        g_p, lowers = sys.group[p], poset.lower_covers(p)
        if not lowers:
            if not g_p.is_trivial():
                failures.append(ValidationFailure(
                    "cone-coverage", (p,),
                    f"minimal free prime {p} must carry the trivial group, has {g_p.canonical_name()}"))
            continue
        units = [(q, maps[(p, q)].unit.coeffs) for q in lowers if sys.kind[q] == "free"]
        rows = list(g_p.relations) + [list(r) for q in lowers for r in maps[(p, q)].hom.matrix]
        gap = _cone_gap(p, FGAbelianGroup(g_p.ngens, rows), units)
        if gap is not None:
            failures.append(ValidationFailure("cone-coverage", (p,), gap))
    return ValidationReport(COUNTEREXAMPLE if failures else VERIFIED, failures)


# -------------------------------------------------------------- extraction


def scope_vertices(g: SepGraph, cond, kinds, p):
    """Generator scope of prime p: weakly below for regular, strictly below for free."""
    if kinds[p] == "regular":
        classes = cond.poset.downset(p)
    else:
        classes = cond.poset.strict_down(p)
    return sorted(v for c in classes for v in cond.members[c])


def _relation_rows(g: SepGraph, cond, kinds):
    """Each vertex's relation rows, as {target: coefficient}: a regular
    vertex's out-edge row, a free vertex's connector row per block."""
    edges, class_of = g.edges, cond.class_of
    rows_of = {}
    for w, out in g._out.items():
        if kinds[class_of[w]] == "regular":
            row = {w: 1}
            for e in out:
                t = edges[e][1]
                row[t] = row.get(t, 0) - 1
            rows_of[w] = (row,)
        else:
            rows_of[w] = rows = []
            for blk in g.blocks_of[w]:
                row = {}
                for e in blk:
                    t = edges[e][1]
                    if t != w:
                        row[t] = row.get(t, 0) + 1
                rows.append(row)
    return rows_of


def presented_group(rows_of, verts, extra_free=()):
    """Group presented on x_w for w in verts, with their rows of rows_of
    (`_relation_rows`) laid out over verts.  extra_free lists free vertices
    outside verts whose block rows should still be imposed (the prime itself).
    """
    zeros = (0,) * len(verts)
    rows = []
    for w in (*verts, *extra_free):
        for r in rows_of[w]:
            rows.append(list(map(r.get, verts, zeros)))
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
    rows_of = _relation_rows(g, cond, kinds)
    group = {}
    labels = {}
    for p in poset:
        verts = scope_vertices(g, cond, kinds, p)
        extra = (p,) if kinds[p] == "free" and not g.is_sink(p) else ()
        group[p] = presented_group(rows_of, verts, extra)
        labels[p] = tuple(verts)
    maps = {}
    for hi in poset:
        # the unit row of each generator of G_hi, built once: GroupHom copies its rows
        unit_row = {}
        for i, w in enumerate(labels[hi]):
            unit_row[w] = row = [0] * len(labels[hi])
            row[i] = 1
        for lo in poset.strict_down(hi):
            hom = GroupHom(group[lo], group[hi], map(unit_row.__getitem__, labels[lo]))
            # the class id of a free class is its vertex
            unit = group[hi].element(unit_row[lo]) if kinds[lo] == "free" else None
            maps[(hi, lo)] = ConnectingMap(hom, unit)
    return ISystem(poset, kinds, group, maps, labels)


# ------------------------------------------------------------ text format


@lru_cache(maxsize=256)
def parse_group_name(s: str) -> FGAbelianGroup:
    """Read a name like 'Z^2 + Z/2 + Z/4'.  A torsion order may be at most
    MAX_EXPANDED_EDGES (realize writes that many parallel edges), and the
    group at most MAX_GROUP_GENERATORS generators.

    The group is `_diagonal_group`'s, and each name read is kept in a
    256-entry LRU cache, so one name gives one shared group: callers must
    not mutate it.  No result depends on the cache."""
    s = s.strip()
    if s == "0":
        return _diagonal_group(0, ())
    free = 0
    factors = []
    for part in (x.strip() for x in s.split("+")):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            try:
                n = _decimal(part[2:])
            except ValueError:
                raise ISystemError(f"bad group term '{part}'") from None
            if n < 0:
                raise ISystemError(f"free rank must be nonnegative, got {n}")
            free += n
        elif part.startswith("Z/"):
            try:
                d = _decimal(part[2:])
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
    return _diagonal_group(free, tuple(factors))


@lru_cache(maxsize=256)
def _diagonal_group(free, factors):
    """Z^free + Z/d for each d of the tuple factors in canonical diagonal
    form: the free generators, then one relation d * g at each torsion
    generator g.  A presentation in this form is its own (`sliced`) frame.

    Each (free, factors) is kept in a 256-entry LRU cache, so it gives one
    shared group, which callers must not mutate; no result depends on the
    cache."""
    n = free + len(factors)
    return FGAbelianGroup(n, [[d if j == free + k else 0 for j in range(n)]
                              for k, d in enumerate(factors)])


def parse_group_presentation(s: str) -> FGAbelianGroup:
    """Parse 'g1 g2 ... [rels <expr> ; <expr> ...]' into a presented group
    under the caps of parse_group_name, its invariant factors as torsion orders.
    No relation text is no relation; an empty relation between `;`s is an error."""
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
    rows = []
    for chunk in rel_text.split(";") if rel_text else ():
        if not chunk.strip():
            raise ISystemError(f"empty relation in '{rel_text}'")
        rows.append(parse_element_expr(chunk, len(gen_names)))
    group = FGAbelianGroup(len(gen_names), rows)
    top = max(group.invariant_factors, default=0)
    if top > MAX_EXPANDED_EDGES:
        raise ISystemError(f"invariant factor {top} above {MAX_EXPANDED_EDGES}")
    return group


def parse_element_expr(s: str, ngens: int) -> list:
    """The coefficient row over ngens generators of `.is` element text: 0,
    or terms such as g1 or 2*g3 joined by + and -, where a - may also stand
    first or after a +.  As in `.sg` element text, an empty term is an error."""
    s = s.strip()
    coeffs = [0] * ngens
    if s == "0":
        return coeffs
    for plus in s.split("+"):
        minus = plus.split("-")
        for k, term in enumerate(minus):
            term = term.strip()
            if not term:
                if k == 0 and len(minus) > 1:
                    continue            # a leading -, which negates the next term
                raise ISystemError(f"empty term in '{s}'")
            sign = -1 if k else 1
            if "*" in term:
                cq, gname = (x.strip() for x in term.split("*", 1))
                try:
                    c = _decimal(cq)
                except ValueError:
                    raise ISystemError(f"bad coefficient '{cq}'") from None
            else:
                c, gname = 1, term
            if not gname.startswith("g"):
                raise ISystemError(f"bad generator '{gname}'")
            try:
                idx = _decimal(gname[1:]) - 1
            except ValueError:
                raise ISystemError(f"bad generator '{gname}'") from None
            if not 0 <= idx < ngens:
                raise ISystemError(f"generator '{gname}' out of range (group has {ngens})")
            coeffs[idx] += sign * c
    return coeffs


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


def canonicalized(sys: ISystem) -> ISystem:
    """Equivalent system whose groups are in canonical diagonal form: each
    map's images of G_lo's canonical generators, and each unit, written in
    G_hi's canonical coordinates by `generator_coords()` (torsion not
    reduced).  A group already in that form is its own frame, so it and
    its rows come back as they were."""
    canon, coords = {}, {}
    for p in sys.poset:
        g = sys.group[p]
        canon[p] = _diagonal_group(g.free_rank, g.invariant_factors)
        coords[p] = g.generator_coords()
    maps = {}
    for (hi, lo), cm in sys.maps.items():
        c = coords[hi]
        rows = [vec_mat(vec_mat(r, cm.hom.matrix), c) for r in sys.group[lo]._canonical_rows()]
        unit = None if cm.unit is None else canon[hi].element(vec_mat(cm.unit.coeffs, c))
        maps[(hi, lo)] = ConnectingMap(GroupHom(canon[lo], canon[hi], rows), unit)
    return ISystem(sys.poset, sys.kind, canon, maps)


def serialize_isystem(sys: ISystem) -> str:
    """`.is` text of sys in canonical form: each map clause gives the
    `canonical_coords` in G_hi of the unit image or of the image of one of
    G_lo's canonical generators.  A group already in canonical form is its
    own frame, so a parsed system writes back its own clauses."""
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
            cm, g_lo = sys.maps[(hi, lo)], sys.group[lo]
            if sys.kind[lo] == "regular" and g_lo.is_trivial():
                continue
            images = [] if cm.unit is None else [("unit", cm.unit.coeffs)]
            # a sliced G_lo's canonical generators are its generators
            rows = cm.hom.matrix if g_lo._frame.sliced else \
                [vec_mat(r, cm.hom.matrix) for r in g_lo._canonical_rows()]
            images += [(f"g{i}", row) for i, row in enumerate(rows, 1)]
            clauses = (f"{lhs} -> " + serialize_coords(sum(g.canonical_coords(row), ()))
                       for lhs, row in images)
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
        if line.split(None, 1)[0] == "map":
            map_lines.append((line_no, line))   # split once, at its own pass
            continue
        tokens = line.split()
        if tokens[0] == "prime":
            if len(tokens) != 3 or tokens[2] not in ("free", "reg", "regular"):
                raise ISystemParseError(line_no, "prime line needs: prime <name> free|reg")
            if tokens[1] in kind:
                raise ISystemParseError(line_no, f"duplicate prime '{tokens[1]}'")
            if why := _reserved(tokens[1]):
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
        else:
            raise ISystemParseError(line_no, f"unknown directive '{tokens[0]}'")
    for line_no, lo, hi in covers:
        if lo not in kind or hi not in kind:
            raise ISystemParseError(
                line_no, f"cover mentions unknown prime '{lo if lo not in kind else hi}'")
    for p, (line_no, _) in group_names.items():
        if p not in kind:
            raise ISystemParseError(line_no, f"group mentions unknown prime '{p}'")
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
        # one pass over the clauses; the generators without a clause are
        # listed only when the count of generator clauses falls short
        g_lo, g_hi, free = group[lo], group[hi], kind[lo] == "free"
        unit, rows, filled = None, [None] * g_lo.ngens, 0
        body = body.strip()
        for clause in (c.strip() for c in body.split(";")) if body else ():
            if not clause:
                raise ISystemParseError(line_no, f"empty clause in '{body}'")
            lhs, _, rhs = clause.partition("->")
            lhs = lhs.strip()
            if not rhs:
                raise ISystemParseError(line_no, f"bad clause '{clause}'")
            try:
                img = parse_element_expr(rhs, g_hi.ngens)
            except ISystemError as exc:
                raise ISystemParseError(line_no, str(exc)) from None
            if lhs == "unit":
                if not free:
                    raise ISystemParseError(line_no, f"unit clause for regular prime '{lo}'")
                if unit is not None:
                    raise ISystemParseError(line_no, "duplicate unit clause")
                unit = g_hi.element(img)
            elif lhs.startswith("g"):
                try:
                    idx = _decimal(lhs[1:]) - 1
                except ValueError:
                    raise ISystemParseError(line_no, f"bad clause lhs '{lhs}'") from None
                if not 0 <= idx < g_lo.ngens:
                    raise ISystemParseError(line_no, f"generator '{lhs}' out of range")
                if rows[idx] is not None:
                    raise ISystemParseError(line_no, f"duplicate clause for '{lhs}'")
                rows[idx] = img
                filled += 1
            else:
                raise ISystemParseError(line_no, f"bad clause lhs '{lhs}'")
        if free and unit is None:
            raise ISystemParseError(line_no, f"free prime '{lo}' needs a unit clause")
        if filled < len(rows):
            missing = [f"g{i + 1}" for i, r in enumerate(rows) if r is None]
            raise ISystemParseError(line_no, f"missing clause(s) for {', '.join(missing)}")
        maps[(hi, lo)] = ConnectingMap(GroupHom(g_lo, g_hi, rows), unit)
    return ISystem(poset, kind, group, maps)
