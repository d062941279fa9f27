"""Small finite posets.

Everything in this package works with posets that have a handful of
elements, so the code below favors clarity over asymptotic cleverness.
Elements can be any hashable, mutually orderable values (we use strings).
"""

from __future__ import annotations


class PosetError(ValueError):
    pass


def components_of(adj):
    """Strongly connected components of the digraph adj (vertex -> targets,
    all of them keys of adj), each sorted, by Tarjan's algorithm.  A component
    comes after every component that it reaches."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(adj[root]))]     # the DFS path, each with its unread targets
        while work:
            v, targets = work[-1]
            for w in targets:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v] and stack[-1] == v:     # a singleton: no slice or sort
                    onstack.discard(stack.pop())
                    comps.append([v])
                elif low[v] == index[v]:
                    comp = stack[stack.index(v):]
                    del stack[-len(comp):]
                    onstack.difference_update(comp)
                    comps.append(sorted(comp))
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comps


def _closure(adj, comps):
    """(reach, class_of) of the digraph adj with comps = components_of(adj).
    class_of maps each vertex to the least one of its component, and reach
    maps that class to the classes it reaches, itself included.  Each class
    it reaches came out before it with its reach closed, so one pass does."""
    class_of = {}
    reach = {}
    for comp in comps:
        cid = comp[0]
        for v in comp:
            class_of[v] = cid
        r = {cid}
        for v in comp:
            for w in adj[v]:
                c = class_of[w]
                if c not in r:
                    r |= reach[c]
        reach[cid] = r
    return reach, class_of


def _transpose(sets, elements):
    """b -> {a : b in sets[a]}, over elements."""
    out = {p: set() for p in elements}
    for a in elements:
        for b in sets[a]:
            out[b].add(a)
    return out


class Poset:
    """Finite poset built from a set of elements and a generating relation.

    The generating pairs (a, b) are read as a <= b; pairs (a, a) and repeats
    add nothing.  A strongly connected component of the pairs with two or
    more elements breaks antisymmetry: the least such one is rejected, by
    its two least elements.  Otherwise each element's upset is closed in
    the order `components_of` emits them (`_closure`).
    """

    def __init__(self, elements, relations=()):
        self.elements = tuple(sorted(set(elements)))
        adj = {p: [] for p in self.elements}
        for a, b in relations:
            if a not in adj or b not in adj:
                raise PosetError(f"relation ({a!r}, {b!r}) mentions an unknown element")
            adj[a].append(b)
        comps = components_of(adj)
        cycles = [comp for comp in comps if len(comp) > 1]
        if cycles:
            a, b = min(cycles)[:2]
            raise PosetError(f"antisymmetry fails: {a!r} and {b!r} lie on a cycle")
        up, _ = _closure(adj, comps)
        self._close(up, _transpose(up, self.elements))

    @classmethod
    def _closed(cls, down):
        """Poset whose downsets are down[p], each holding p: closed and acyclic."""
        self = cls.__new__(cls)
        self.elements = tuple(sorted(down))
        self._close(_transpose(down, self.elements), down)
        return self

    def _close(self, up, down):
        self._up = {p: frozenset(up[p]) for p in self.elements}
        self._down = down = {p: frozenset(down[p]) for p in self.elements}
        self._strict_down = {p: down[p] - {p} for p in self.elements}
        self._covers = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        return p in self._up

    def le(self, a, b) -> bool:
        return b in self._up[a]

    def lt(self, a, b) -> bool:
        return a != b and b in self._up[a]

    def upset(self, p) -> frozenset:
        """All q with p <= q, including p."""
        return self._up[p]

    def downset(self, p) -> frozenset:
        """All q with q <= p, including p."""
        return self._down[p]

    def strict_down(self, p) -> frozenset:
        return self._strict_down[p]

    def covers(self) -> list:
        """All cover pairs (a, b): a < b with nothing strictly between."""
        if self._covers is None:            # built once, on first use
            self._covers = tuple((a, b) for a in self.elements for b in sorted(self._up[a] - {a})
                                 if self._up[a] & self._down[b] == {a, b})
        return list(self._covers)

    def lower_covers(self, p) -> list:
        return sorted(a for a, b in self.covers() if b == p)

    def linear_extension(self) -> list:
        """Deterministic linear extension: always emit the least ready element."""
        emitted = set()
        out = []
        remaining = set(self.elements)
        while remaining:
            ready = sorted(p for p in remaining if self.strict_down(p) <= emitted)
            p = ready[0]
            out.append(p)
            emitted.add(p)
            remaining.discard(p)
        return out

    def isomorphisms(self, other, color=None, other_color=None):
        """Yield all order isomorphisms onto `other` as dicts.

        color/other_color assign an arbitrary label to each element; matched
        elements must carry equal labels.  Pass both or neither.
        """
        if len(self.elements) != len(other.elements):
            return
        cs = color or (lambda p: None)
        co = other_color or (lambda p: None)

        def sig(poset, cf, p):
            return (len(poset.downset(p)), len(poset.upset(p)), cf(p))

        mine = list(self.elements)
        theirs = list(other.elements)
        sig_mine = {p: sig(self, cs, p) for p in mine}
        sig_theirs = {q: sig(other, co, q) for q in theirs}
        assignment = {}
        used = set()

        def extend(i):
            if i == len(mine):
                yield dict(assignment)
                return
            p = mine[i]
            for q in theirs:
                if q in used or sig_theirs[q] != sig_mine[p]:
                    continue
                ok = True
                for p2, q2 in assignment.items():
                    if self.le(p, p2) != other.le(q, q2) or self.le(p2, p) != other.le(q2, q):
                        ok = False
                        break
                if ok:
                    assignment[p] = q
                    used.add(q)
                    yield from extend(i + 1)
                    del assignment[p]
                    used.discard(q)

        yield from extend(0)

    def __repr__(self):
        return f"Poset({list(self.elements)!r}, covers={self.covers()!r})"
