"""Finite quasi-orders: tuple enumeration, cofinality, restriction.

A ``QuasiOrder`` stores the reflexive-transitive closure of user-supplied
pairs; antisymmetry is never required, so distinct equivalent elements
(x <= y <= x) are legal throughout. Index tuples are plain Python tuples of
element labels, weakly increasing under leq; ``face(t, i)`` deletes entry i.

Enumeration order matters: ``chains_upto`` lists tuples lexicographically
by the position of elements in the user-supplied element list, and that order
fixes the row/column layout of every differential matrix downstream. It builds
every degree up to the one asked for in one pass, each from the one below;
``chains`` is its top degree.

``QuasiOrder.restrict`` reads the induced relation off the stored one: the
restriction of a reflexive-transitive relation is reflexive and transitive
already, so no closure is recomputed.
"""

from __future__ import annotations

from types import MappingProxyType


class QuasiOrder:
    """Finite quasi-order over hashable labels.

    ``elements`` keeps the user order (it drives all enumerations); ``leq``
    is the reflexive-transitive closure of the given pairs, stored as each
    element's up-set: the sorted tuple of the positions above it, itself
    included. Equality and the hash read the elements and the closure only.
    """

    __slots__ = ("elements", "_pos", "_up", "_up_sets")

    def __init__(self, elements, pairs=()):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate index labels")
        pos = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        up = [set([i]) for i in range(n)]
        for a, b in pairs:
            if a not in pos or b not in pos:
                raise ValueError(f"pair ({a!r}, {b!r}) mentions an unknown label")
            up[pos[a]].add(pos[b])
        # Transitive closure by fixpoint iteration.
        changed = True
        while changed:
            changed = False
            for i in range(n):
                grown = set(up[i])
                for j in up[i]:
                    grown |= up[j]
                if len(grown) != len(up[i]):
                    up[i] = grown
                    changed = True
        self._set(elements, pos, tuple(tuple(sorted(s)) for s in up))

    def _set(self, elements: tuple, pos: dict, up: tuple) -> None:
        at = elements.__getitem__
        up_sets = {e: tuple(map(at, s)) for e, s in zip(elements, up)}
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_up_sets", MappingProxyType(up_sets))

    def __setattr__(self, *_):
        raise AttributeError("QuasiOrder is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e) -> bool:
        return e in self._pos

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuasiOrder)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self) -> int:
        return hash((self.elements, self._up))

    def __repr__(self) -> str:
        rels = [
            (self.elements[i], self.elements[j])
            for i in range(len(self.elements))
            for j in self._up[i]
            if i != j
        ]
        return f"QuasiOrder({list(self.elements)!r}, {rels!r})"

    def position(self, e) -> int:
        return self._pos[e]

    def leq(self, a, b) -> bool:
        return self._pos[b] in self._up[self._pos[a]]

    def equivalent(self, a, b) -> bool:
        return self.leq(a, b) and self.leq(b, a)

    def related_pairs(self, include_diagonal: bool = False):
        """Ordered pairs (a, b) with a <= b, in lexicographic position order."""
        return [
            (a, b)
            for a, up in self.up_sets().items()
            for b in up
            if include_diagonal or a != b
        ]

    def is_directed(self) -> bool:
        for i in range(len(self.elements)):
            above = set(self._up[i])
            for j in range(i + 1, len(self.elements)):
                if above.isdisjoint(self._up[j]):
                    return False
        return True

    def maximum(self):
        """First element (in user order) above everything, or None."""
        n = len(self.elements)
        for j in range(n):
            if all(j in self._up[i] for i in range(n)):
                return self.elements[j]
        return None

    def is_partial(self) -> bool:
        n = len(self.elements)
        for i in range(n):
            for j in self._up[i]:
                if j != i and i in self._up[j]:
                    return False
        return True

    def is_cofinal(self, subset) -> bool:
        idx = [self._pos[c] for c in subset]
        return all(any(j in self._up[i] for j in idx) for i in range(len(self.elements)))

    def restrict(self, subset) -> "QuasiOrder":
        """The induced suborder on the elements of ``subset``, in this
        order's element order; labels it does not know are ignored."""
        wanted = set(subset)
        kept = [i for i, e in enumerate(self.elements) if e in wanted]
        new = {i: k for k, i in enumerate(kept)}
        elements = tuple(self.elements[i] for i in kept)
        out = object.__new__(QuasiOrder)
        out._set(
            elements,
            {e: k for k, e in enumerate(elements)},
            tuple(tuple(new[j] for j in self._up[i] if j in new) for i in kept),
        )
        return out

    def up_sets(self) -> MappingProxyType:
        """Each element's up-set {b : e <= b}, e included, in position order:
        a read-only mapping of tuples, built once with the order."""
        return self._up_sets

    def equivalence_classes(self):
        """Classes of mutually related elements, each in user order.

        Classes are listed by their first member's position; the first
        members form a canonical choice of representatives whose induced
        suborder is a partial order.
        """
        seen = set()
        out = []
        for i, e in enumerate(self.elements):
            if i in seen:
                continue
            cls = [j for j in self._up[i] if i in self._up[j]]
            seen.update(cls)
            out.append([self.elements[j] for j in cls])
        return out


def chains_upto(q: QuasiOrder, n_max: int, strict: bool = False) -> list:
    """All weakly increasing tuples of lengths 1..n_max+1: entry n lists the
    (n+1)-tuples, lexicographic by position.

    Degree n extends each degree-(n-1) tuple by the successors of its last
    entry in position order, so the order of degree n-1 carries over. With
    ``strict`` (partial orders only), consecutive entries must be strictly
    increasing, which excludes every degenerate tuple.
    """
    if n_max < 0:
        raise ValueError(f"degree must be >= 0, got {n_max}")
    if strict and not q.is_partial():
        raise ValueError("strict tuple enumeration requires a partial order")
    succ = q.up_sets()
    if strict:
        succ = {e: tuple(b for b in up if b != e) for e, up in succ.items()}
    out = [[(e,) for e in q.elements]]
    for _ in range(n_max):
        out.append([t + (b,) for t in out[-1] for b in succ[t[-1]]])
    return out


def chains(q: QuasiOrder, n: int, strict: bool = False) -> list:
    """All weakly (with ``strict``, strictly) increasing (n+1)-tuples of q,
    lexicographic by position: degree n of ``chains_upto``."""
    return chains_upto(q, n, strict)[n]


def face(t: tuple, i: int) -> tuple:
    """Delete entry i; weak increase is preserved by transitivity."""
    if not 0 <= i < len(t):
        raise IndexError(f"face index {i} out of range for tuple of length {len(t)}")
    return t[:i] + t[i + 1 :]

