"""Test-side cochains of a built complex and the contraction operator.

No production route evaluates a cochain: every derived limit is read off the
differentials of ``rooslab.complexes.RoosComplex``. The tests use this
layer to check the coboundary-contraction identity that the induction on
trivializations runs on (acceptance guarantee 07) on the degenerate-tuple
complex of a system whose index has a maximum. ``Cochain`` stores one flat
vector per degree and reads its blocks through ``block_position``;
``delta`` applies a differential to it, and ``contract`` lowers its degree.
"""

from __future__ import annotations

from rooslab.linalg import _integral


class IndexNotDominatingError(ValueError):
    """Contraction requires every index element to lie below the chosen one."""


def block_positions(cx, n: int) -> dict:
    """{label: (offset, rank)} of every block of degree n of the complex."""
    return {
        label: (off, r) for label, off, r in zip(cx.blocks[n], cx.offsets[n], cx.block_ranks[n])
    }


def block_position(cx, n: int, label):
    """(offset, rank) of the block labeled ``label`` in degree n."""
    try:
        return block_positions(cx, n)[label]
    except KeyError:
        raise ValueError(f"no block {label!r} in degree {n}") from None


class Cochain:
    """A degree-n element of a built complex, stored as one flat vector."""

    __slots__ = ("complex", "degree", "vector")

    def __init__(self, complex, degree: int, vector):
        if not 0 <= degree <= complex.n_max:
            raise ValueError(f"degree {degree} outside built range 0..{complex.n_max}")
        norm = complex.ring.norm
        vector = tuple(norm(x if type(x) is int else _integral(x)) for x in vector)
        if len(vector) != complex.dimension(degree):
            raise ValueError(
                f"vector length {len(vector)} != degree-{degree} dimension "
                f"{complex.dimension(degree)}"
            )
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "vector", vector)

    def __setattr__(self, *_):
        raise AttributeError("Cochain is immutable")

    @classmethod
    def zero(cls, cx, degree: int) -> "Cochain":
        return cls(cx, degree, [0] * cx.dimension(degree))

    @classmethod
    def from_values(cls, cx, degree: int, values: dict) -> "Cochain":
        vec = [0] * cx.dimension(degree)
        for label, block in values.items():
            off, r = block_position(cx, degree, label)
            block = list(block)
            if len(block) != r:
                raise ValueError(f"block at {label!r} has length {len(block)}, rank is {r}")
            vec[off : off + r] = block
        return cls(cx, degree, vec)

    def value(self, label) -> tuple:
        off, r = block_position(self.complex, self.degree, label)
        return self.vector[off : off + r]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.complex is other.complex
            and self.vector == other.vector
        )

    def __add__(self, other: "Cochain") -> "Cochain":
        self._match(other)
        return Cochain(
            self.complex, self.degree, [a + b for a, b in zip(self.vector, other.vector)]
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._match(other)
        return Cochain(
            self.complex, self.degree, [a - b for a, b in zip(self.vector, other.vector)]
        )

    def scale(self, c: int) -> "Cochain":
        return Cochain(self.complex, self.degree, [c * a for a in self.vector])

    def _match(self, other: "Cochain") -> None:
        if self.complex is not other.complex or self.degree != other.degree:
            raise ValueError("cochains live in different complexes or degrees")

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.vector)


def random_cochain(rng, cx, degree: int, lo: int = -4, hi: int = 4) -> Cochain:
    return Cochain(cx, degree, [rng.randint(lo, hi) for _ in range(cx.dimension(degree))])


def delta(u: Cochain) -> Cochain:
    """Apply the coboundary; needs the complex built one degree further."""
    cx = u.complex
    if u.degree + 1 > cx.n_max:
        raise ValueError("complex not built deep enough to apply the coboundary")
    v = u.vector
    rows = cx.diffs[u.degree + 1]
    return Cochain(cx, u.degree + 1, [sum(x * v[j] for j, x in row.items()) for row in rows])


def contract(u: Cochain, f, system) -> Cochain:
    """Evaluate u on tuples extended by f, an element of ``system``'s index
    that dominates every other; u lives on the degenerate-tuple complex of
    ``system`` (``build_complex`` with ``strict=False``), which holds every
    extended tuple: on a strict complex the lookup of (f, f) fails.

    The result v has degree one less, with v at h equal to u at (h, f).
    Satisfies delta(contract(u, f)) = contract(delta(u), f) - sign * u with
    sign = (-1) ** (u.degree + 1), which is the identity the induction on
    trivializations runs on (tested entrywise, not assumed).
    """
    if u.degree < 1:
        raise ValueError("contraction lowers degree; need degree >= 1")
    index = system.index
    for e in index.elements:
        if not index.leq(e, f):
            raise IndexNotDominatingError(f"index element {e!r} is not below {f!r}")
    cx = u.complex
    where = block_positions(cx, u.degree)
    vec = []
    for t in cx.blocks[u.degree - 1]:
        try:
            off, r = where[t + (f,)]
        except KeyError:
            raise ValueError(f"no block {t + (f,)!r} in degree {u.degree}") from None
        vec.extend(u.vector[off : off + r])
    return Cochain(cx, u.degree - 1, vec)
