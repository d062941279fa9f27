"""Small finite posets.

Everything in this package works with posets that have a handful of
elements, so the code below favors clarity over asymptotic cleverness.
Elements can be any hashable, mutually orderable values (we use strings).
"""

from __future__ import annotations


class PosetError(ValueError):
    pass


def _transpose(sets, elements):
    """b -> {a : b in sets[a]}, over elements."""
    out = {p: set() for p in elements}
    for a in elements:
        for b in sets[a]:
            out[b].add(a)
    return out


class Poset:
    """Finite poset built from a set of elements and a generating relation.

    The generating pairs (a, b) are read as a <= b.  The constructor takes
    the reflexive-transitive closure and rejects cycles through distinct
    elements (antisymmetry would fail).
    """

    def __init__(self, elements, relations=()):
        self.elements = tuple(sorted(set(elements)))
        known = set(self.elements)
        adj = {p: set() for p in self.elements}
        for a, b in relations:
            if a not in known or b not in known:
                raise PosetError(f"relation ({a!r}, {b!r}) mentions an unknown element")
            adj[a].add(b)
        reach = {}
        for p in self.elements:
            seen = set()
            stack = [p]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(adj[x])
            reach[p] = seen
        for a in self.elements:
            for b in reach[a]:
                if a != b and a in reach[b]:
                    # name the least pair, whatever the set order
                    b = min(c for c in reach[a] if c != a and a in reach[c])
                    raise PosetError(f"antisymmetry fails: {a!r} and {b!r} lie on a cycle")
        self._close(reach, _transpose(reach, self.elements))

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
