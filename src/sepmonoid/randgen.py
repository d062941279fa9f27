"""Random adaptable graphs, random monoid elements, and a system corpus.

Graphs are assembled bottom-up from a small gadget vocabulary (sinks,
looped free vertices, torsion loops, mutually fed pairs), so they are
adaptable by construction.  The corpus generator extracts systems from
random graphs and keeps the ones inside fixed parameter ranges;
every emitted system therefore has a realization by construction.
"""

from __future__ import annotations

import random

from .graph import SepGraph, check_adaptable
from .isystem import ISystem, extract_isystem, canonicalized, serialize_isystem
from .posets import Poset
from .rewrite import FreeElement, RewriteError, _fire, _wrap


DEFAULT_GROUPS = ("0", "Z", "Z/2", "Z/3", "Z/4", "Z/2 + Z/2", "Z + Z/3")


def random_adaptable(rng: random.Random, max_classes: int = 4) -> SepGraph:
    """Random adaptable graph with at most max_classes condensation classes.

    A regular block carries 0 to 2 extra edges into the classes below it.
    """
    n = rng.randint(1, max_classes)
    vertices = []
    edges = []
    blocks = []
    classes = []        # list of vertex lists, one per built class
    vc = 0
    ec = 0

    def new_vertex():
        nonlocal vc
        vc += 1
        v = f"v{vc}"
        vertices.append(v)
        return v

    def add_edge(s, d):
        nonlocal ec
        ec += 1
        edges.append((f"e{ec}", s, d))
        return f"e{ec}"

    for _ in range(n):
        lower = [v for vs in classes if rng.random() < 0.5 for v in vs]
        if rng.random() < 0.5:
            # free class: sink when minimal, else blocks of loop+connectors
            v = new_vertex()
            if lower:
                for _ in range(rng.randint(1, 2)):
                    ids = [add_edge(v, v)]
                    for _ in range(rng.randint(1, 2)):
                        ids.append(add_edge(v, rng.choice(lower)))
                    blocks.append(tuple(ids))
            classes.append([v])
        else:
            shape = rng.choice(["tors", "pair", "triv"])
            if shape == "pair":
                a, b = new_vertex(), new_vertex()
                for u, w in ((a, b), (b, a)):
                    ids = [add_edge(u, u), add_edge(u, u), add_edge(u, w)]
                    for _ in range(rng.randint(0, 2) if lower else 0):
                        ids.append(add_edge(u, rng.choice(lower)))
                    blocks.append(tuple(ids))
                classes.append([a, b])
            else:
                v = new_vertex()
                nloops = rng.randint(2, 5) if shape == "tors" else 2
                ids = [add_edge(v, v) for _ in range(nloops)]
                for _ in range(rng.randint(0, 2) if lower else 0):
                    ids.append(add_edge(v, rng.choice(lower)))
                blocks.append(tuple(ids))
                classes.append([v])
    g = SepGraph(vertices, edges, blocks)
    rep = check_adaptable(g)
    if not rep.ok:
        raise RuntimeError(f"generator produced a non-adaptable graph: {rep.violations}")
    return g


def random_element(rng: random.Random, g: SepGraph, max_total: int = 6,
                   nonzero: bool = True) -> FreeElement:
    verts = list(g.vertices)
    total = rng.randint(1 if nonzero else 0, max_total)
    return FreeElement.from_vertices(rng.choice(verts) for _ in range(total))


def random_trace(rng: random.Random, g: SepGraph, x: FreeElement, steps: int):
    """Apply up to `steps` random rewrites; returns (result, trace).

    Each step is drawn uniformly from the list of the (vertex, block index)
    pairs of x, support vertices sorted and each vertex's blocks in order,
    by one rng.choice over that list's indices.  Only the drawn step fires,
    on one copy of x's counts; when none fires, x itself comes back.
    """
    if steps < 1:
        return x, ()
    blocks_of = g.blocks_of
    unknown = [v for v in x.counts if v not in blocks_of]
    if unknown:
        raise RewriteError(f"unknown vertex '{min(unknown)}' in element")
    d = dict(x.counts)
    trace = []
    for _ in range(steps):
        support = sorted(d)
        n = sum(len(blocks_of[v]) for v in support)
        if not n:
            break
        k = rng.choice(range(n))        # one _randbelow(n), as a choice over the list
        for v in support:
            if k < len(blocks_of[v]):
                break
            k -= len(blocks_of[v])
        trace.append((v, k))
        _fire(g, d, v, k)
    return (_wrap(d) if trace else x), tuple(trace)


def random_walk(rng: random.Random, g: SepGraph, x: FreeElement,
                steps: int) -> FreeElement:
    return random_trace(rng, g, x, steps)[0]


def relabel_system(sysm: ISystem) -> ISystem:
    """Copy with primes renamed p1, p2, ... along a linear extension."""
    order = sysm.poset.linear_extension()
    names = {p: f"p{i + 1}" for i, p in enumerate(order)}
    poset = Poset([names[p] for p in order],
                  [(names[a], names[b]) for a, b in sysm.poset.covers()])
    kind = {names[p]: sysm.kind[p] for p in order}
    group = {names[p]: sysm.group[p] for p in order}
    maps = {(names[hi], names[lo]): cm for (hi, lo), cm in sysm.maps.items()}
    labels = {names[p]: lab for p, lab in sysm.generator_labels.items()}
    return ISystem(poset, kind, group, maps, labels)


def corpus_systems(seed: int, count: int = 30):
    """Distinct extracted systems with witnesses, drawn from 20,000 random
    graphs at most: at most 4 primes, each group one of DEFAULT_GROUPS
    (so of free rank at most 1).

    Returns a list of (system, witness_graph) pairs.  Systems are
    canonicalized, relabeled, and deduplicated by their serialization.
    """
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(20000):
        if len(out) >= count:
            break
        g = random_adaptable(rng, 4)
        sysm = extract_isystem(g)
        if len(list(sysm.poset)) > 4:
            continue
        if any(sysm.group[p].canonical_name() not in DEFAULT_GROUPS for p in sysm.poset):
            continue
        canon = relabel_system(canonicalized(sysm))
        key = serialize_isystem(canon)
        if key in seen:
            continue
        seen.add(key)
        out.append((canon, g))
    if len(out) < count:
        raise RuntimeError(f"only found {len(out)} distinct systems in 20000 tries")
    return out
