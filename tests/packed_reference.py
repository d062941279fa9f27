"""The packed-tuple element form, kept as a reference for the tests.

The library reads FreeElement counts outside its search, and nodes are
`_Kernel` ints inside it.  This module keeps the form both replaced: an
element packed into a tuple of counts indexed like `_CompiledGraph.vertices`,
with the step listing, the certificates, the refinement split and the
normal-form equality written on such tuples.
"""

from operator import add, sub

from sepmonoid.abelian import vanishes
from sepmonoid.rewrite import (FreeElement, RewriteError, _Certificates,
                               _CompiledGraph, _NormalForms)


def pack(cg, x):
    t = [0] * len(cg.vertices)
    for v, n in x.counts.items():
        i = cg.index.get(v)
        if i is None:
            v = min(w for w in x.counts if w not in cg.index)
            raise RewriteError(f"unknown vertex '{v}' in element")
        t[i] = n
    return tuple(t)


def unpack(cg, t):
    return FreeElement({v: n for v, n in zip(cg.vertices, t) if n})


def steps(cg, t):
    """All ((v, bi), result) one-step rewrites of t, in step_targets order."""
    return [(step, tuple(map(add, t, delta)))
            for i, n in enumerate(t) if n for step, delta in cg.moves[i]]


def step_targets(g, x):
    """All one-step rewrites of x as (vertex, block index, result): support
    vertices in the graph's order, which is sorted, and blocks in order."""
    cg = g.derived(_CompiledGraph)
    return [(v, bi, unpack(cg, r)) for (v, bi), r in steps(cg, pack(cg, x))]


def sort_key(cg, t):
    """The search's canonical order: (total, serialize_element) of unpack(t)."""
    terms = [v if n == 1 else f"{n}*{v}" for v, n in zip(cg.vertices, t) if n]
    return (sum(t), "+".join(terms) or "0")


def spread(cert, t):
    support = lower = 0
    for n, v in zip(t, cert._cg.vertices):
        if n:
            support |= cert.class_bits[v]
            lower |= cert.below[v]
    return support, lower


def top_classes(cert, t):
    support, lower = spread(cert, t)
    return support & ~lower


def separating(cert, tx, ty):
    if not vanishes(tuple(map(sub, tx, ty)), cert.columns):
        return "group"
    if cert.adaptable and top_classes(cert, tx) != top_classes(cert, ty):
        return "support"
    return None


def split(cg, ta, tb, trace):
    """(ta', tb', trace_a, trace_b) as the library split packed parts."""
    parts, subs = [ta, tb], ([], [])
    for step in trace:
        v, bi = step
        i = cg.index.get(v)
        k = 0 if i is not None and parts[0][i] else 1
        if i is None or not parts[k][i]:
            raise RewriteError(f"trace step rewrites absent vertex '{v}'")
        mine = cg.moves[i]
        if not 0 <= bi < len(mine):
            raise RewriteError(f"vertex '{v}' has no block {bi}")
        parts[k] = tuple(map(add, parts[k], mine[bi][1]))
        subs[k].append(step)
    return parts[0], parts[1], tuple(subs[0]), tuple(subs[1])


def eq_exact(g, x, y):
    """eq_exact on packs: equal packs, then the antichains, then the folds."""
    nf = g.derived(_NormalForms)
    cg, cert = nf.cg, g.derived(_Certificates)
    tx, ty = pack(cg, x), pack(cg, y)
    if tx == ty:
        return True
    top = top_classes(cert, tx)
    if top != top_classes(cert, ty):
        return False
    layout = nf.layout(top)

    def fold(t):
        vec = [0] * layout.size
        for v, c in zip(cg.vertices, t):
            if c:
                vec[layout.slot[v]] += c
        return vec
    return layout.is_zero(list(map(sub, fold(tx), fold(ty))))
