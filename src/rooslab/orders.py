"""Finite quasi-orders: tuple enumeration, cofinality, restriction.

A ``QuasiOrder`` stores the reflexive-transitive closure of user-supplied
pairs; antisymmetry is never required, so distinct equivalent elements
(x <= y <= x) are legal throughout. Index tuples are plain Python tuples of
element labels, weakly increasing under leq; ``face(t, i)`` deletes entry i.

The closure is kept as one int bitmask per element, its up-set: bit j of
the mask at position i is set exactly when element i <= element j. The
closure is Warshall's row-OR algorithm on those masks (Warshall, "A theorem
on Boolean matrices", J. ACM 9, 1962): n steps, each ORing row k into every
row that reaches k. ``leq`` is one bit test, and the order's other
questions (maximum, partiality, directedness, cofinality, classes) are
ANDs and ORs of masks.

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
    element's up-set: an int bitmask over positions, the element's own bit
    included (``up_masks``). ``up_sets`` lists the same sets as label tuples
    in position order, built once with the order. Equality and the hash read
    the elements and the closure only.
    """

    __slots__ = ("elements", "_pos", "_up", "_up_sets")

    def __init__(self, elements, pairs=()):
        elements = tuple(elements)
        pos = {e: i for i, e in enumerate(elements)}
        if len(pos) != len(elements):
            raise ValueError("duplicate index labels")
        up = [1 << i for i in range(len(elements))]
        for a, b in pairs:
            if a not in pos or b not in pos:
                raise ValueError(f"pair ({a!r}, {b!r}) mentions an unknown label")
            up[pos[a]] |= 1 << pos[b]
        # Warshall: after step k, every row that reaches k reaches all of k's
        # row, so the rows are closed under paths through 0..k. A row that
        # holds k alone adds nothing.
        for k in range(len(up)):
            row = up[k]
            if row != 1 << k:
                up = [u | row if u >> k & 1 else u for u in up]
        self._set(elements, pos, tuple(up))

    def _set(self, elements: tuple, pos: dict, up: tuple) -> None:
        span = range(len(elements))
        up_sets = {
            e: tuple([elements[j] for j in span if m >> j & 1]) for e, m in zip(elements, up)
        }
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
        rels = [(a, b) for a, up in self._up_sets.items() for b in up if a != b]
        return f"QuasiOrder({list(self.elements)!r}, {rels!r})"

    def position(self, e) -> int:
        return self._pos[e]

    def leq(self, a, b) -> bool:
        pos = self._pos
        return self._up[pos[a]] >> pos[b] & 1 == 1

    def equivalent(self, a, b) -> bool:
        return self.leq(a, b) and self.leq(b, a)

    def related_pairs(self, include_diagonal: bool = False):
        """Ordered pairs (a, b) with a <= b, in lexicographic position order."""
        return [
            (a, b)
            for a, up in self._up_sets.items()
            for b in up
            if include_diagonal or a != b
        ]

    def is_directed(self) -> bool:
        up = self._up
        return all(up[i] & up[j] for i in range(len(up)) for j in range(i + 1, len(up)))

    def maximum(self):
        """First element (in user order) above everything, or None."""
        common = (1 << len(self._up)) - 1
        for m in self._up:
            common &= m
        return self.elements[(common & -common).bit_length() - 1] if common else None

    def is_partial(self) -> bool:
        up = self._up
        n = len(up)
        return not any(
            up[i] >> j & 1 and up[j] >> i & 1 for i in range(n) for j in range(i + 1, n)
        )

    def is_cofinal(self, subset) -> bool:
        wanted = 0
        for c in subset:
            wanted |= 1 << self._pos[c]
        return all(m & wanted for m in self._up)

    def restrict(self, subset) -> "QuasiOrder":
        """The induced suborder on the elements of ``subset``, in this
        order's element order; labels it does not know are ignored."""
        wanted = set(subset)
        kept = [i for i, e in enumerate(self.elements) if e in wanted]
        elements = tuple(self.elements[i] for i in kept)
        up = []
        for i in kept:
            m, row = self._up[i], 0
            for k, j in enumerate(kept):
                if m >> j & 1:
                    row |= 1 << k
            up.append(row)
        out = object.__new__(QuasiOrder)
        out._set(elements, {e: k for k, e in enumerate(elements)}, tuple(up))
        return out

    def up_masks(self) -> tuple:
        """Each element's up-set as an int bitmask over positions (bit j set
        when the element is <= element j), in position order."""
        return self._up

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
        up = self._up
        n = len(up)
        seen = 0
        out = []
        for i, m in enumerate(up):
            if seen >> i & 1:
                continue
            # A member before i would have put i in its class already.
            cls = [j for j in range(i, n) if m >> j & 1 and up[j] >> i & 1]
            for j in cls:
                seen |= 1 << j
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

