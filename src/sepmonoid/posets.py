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
    comes after every component that it reaches; one with no targets is
    emitted where Tarjan's algorithm would, without the stack."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    for root in adj:
        if root in index:
            continue
        if not adj[root]:
            index[root] = len(index)
            comps.append([root])
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(adj[root]))]     # the DFS path, each with its unread targets
        while work:
            v, targets = work[-1]
            for w in targets:
                if w not in index:
                    if not adj[w]:
                        index[w] = len(index)
                        comps.append([w])
                        continue
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


class Poset:
    """Finite poset built from a set of elements and a generating relation.

    The generating pairs (a, b) are read as a <= b; pairs (a, a) and repeats
    add nothing.  A strongly connected component of the pairs with two or
    more elements breaks antisymmetry: the least such one is rejected, by
    its two least elements.  Otherwise each element's downset is closed in
    the order `components_of` emits them (`_closure`), on the pairs read
    from b down to a.
    """

    def __init__(self, elements, relations=()):
        self.elements = tuple(sorted(set(elements)))
        lower = {p: [] for p in self.elements}
        for a, b in relations:
            if a not in lower or b not in lower:
                raise PosetError(f"relation ({a!r}, {b!r}) mentions an unknown element")
            lower[b].append(a)
        comps = components_of(lower)
        cycles = [comp for comp in comps if len(comp) > 1]
        if cycles:
            a, b = min(cycles)[:2]
            raise PosetError(f"antisymmetry fails: {a!r} and {b!r} lie on a cycle")
        self._fill(_closure(lower, comps)[0])

    @classmethod
    def _closed(cls, down):
        """Poset whose downsets are down[p], each holding p: closed and acyclic."""
        self = cls.__new__(cls)
        self.elements = tuple(sorted(down))
        self._fill(down)
        return self

    def _fill(self, down):
        """The down and strict down sets from down, one frozenset each; a
        minimal element's strict down set is the empty frozenset, with no
        set built to subtract it.  Up sets, covers and lower covers are read
        off on first use, so a poset that never asks for them builds none."""
        self._down, self._strict_down = downs, stricts = {}, {}
        empty = frozenset()
        for p in self.elements:
            downs[p] = d = frozenset(down[p])
            stricts[p] = d - {p} if len(d) > 1 else empty
        self._up = self._covers = self._lower = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        return p in self._down

    def le(self, a, b) -> bool:
        return a in self._down[b]

    def lt(self, a, b) -> bool:
        return a in self._strict_down[b]

    def upset(self, p) -> frozenset:
        """All q with p <= q, including p."""
        if self._up is None:                # built once, on first use
            up = {q: [] for q in self.elements}
            for q, d in self._down.items():
                for r in d:
                    up[r].append(q)
            self._up = {q: frozenset(u) for q, u in up.items()}
        return self._up[p]

    def downset(self, p) -> frozenset:
        """All q with q <= p, including p."""
        return self._down[p]

    def strict_down(self, p) -> frozenset:
        return self._strict_down[p]

    def covers(self) -> list:
        """All cover pairs (a, b), sorted: a < b with nothing strictly between."""
        if self._covers is None:            # built once, on first use
            stricts = self._strict_down
            covers = []
            for b in self.elements:
                # a < b is a cover when a lies below no other element below b
                below = stricts[b]
                for a in below:
                    for c in below:
                        if a in stricts[c]:
                            break
                    else:
                        covers.append((a, b))
            covers.sort()
            self._covers = tuple(covers)
        return list(self._covers)

    def lower_covers(self, p) -> list:
        if self._lower is None:             # an index of covers(), built once
            self._lower = lower = {b: [] for b in self.elements}
            for a, b in self.covers():     # sorted, so each list comes out sorted
                lower[b].append(a)
        return list(self._lower[p])

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
        elements must carry equal labels.  Pass both or neither: one alone
        raises PosetError.
        """
        if (color is None) != (other_color is None):
            raise PosetError("isomorphisms needs both colorings or neither")
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
