"""The cochain complex of an inverse system and its cohomology.

Degree n of the complex is the product of one copy of G_{first entry} for
every weakly increasing (n+1)-tuple of the index order. The coboundary sends
a degree-(n-1) cochain x to the degree-n cochain whose entry at t is

    bond(t0, t1) applied to x at the 0th face of t,
    plus sum over i = 1..n of (-1)^i times x at the i-th face of t,

where the i-th face deletes entry i. ``RoosComplex`` assembles every
differential of this shape from its blocks and a ``faces`` callable (the
leading action and the face labels of one block); ``build_complex`` and
``category.nerve_complex`` only enumerate blocks and name their faces.

``limit_complex`` is the route every derived-limit computation takes. It
validates the system it is given and restricts it to the homotopy-final
core of the index (``systems.core_elements``): each equivalence class is
collapsed to one representative, every element being isomorphic to its
representative, and then up beat points, elements whose strict up-set has
a least element, are removed, which leaves lim^n unchanged in every degree.
An index with a maximum shrinks to one point. On that partial order it
builds the normalized complex: strictly increasing tuples only, the
non-degenerate simplices of the nerve. Normalized cochains have the same
cohomology as all cochains (Roos; C. U. Jensen, LNM 254, 1972), and the
normalized complex is far smaller. ``build_complex`` with its default
``strict=False`` keeps the degenerate tuples (repeated entries) on any
quasi-order; on the system as given it is the independent oracle route the
tests compare against.

A call pays for what the core holds. The restriction copies ranks and
bonds without checking them again, ``build_complex`` enumerates the tuples
of every degree in one pass (``orders.chains_upto``), and a degree of
dimension zero costs no product in the identity check and no reduction in
``subquotient``. On a one-point core every degree above 0 is zero.

Each differential is assembled and kept in the one sparse form of
``linalg``, rows of {column: value}, from the forms ``linalg.sparse`` keeps
on the face-0 matrices. Over Z, ``RoosComplex.cohomology`` reads H^n from
the invariant factors of d_n and d_{n+1}, which the complex computes once
per differential and keeps, so reading several degrees reduces each
differential once. Over Z/m it goes through ``linalg.subquotient``, the
sparse core of the public oracle ``cohomology_at``.

Degree -1 is the zero module, so the degree-0 differential has empty rows,
and cohomology in degree 0 is the kernel of the degree-1 differential —
which is exactly the inverse limit; ``limit_direct`` computes the same
kernel from the equalizer description as an independent route.
"""

from __future__ import annotations

from .linalg import GroupInvariants, Ring, invariant_factors, product, sparse, subquotient
from .orders import QuasiOrder, chains_upto, face
from .systems import InvalidSystemError  # noqa: F401  (importable from here too)
from .systems import InverseSystem, core_elements, require_functorial


class RoosComplex:
    """A bounded cochain complex with labeled block structure.

    ``blocks[n]`` lists the basis blocks of degree n (index tuples for system
    complexes, morphism chains for nerve complexes), of ranks
    ``block_ranks[n]``. The differentials are assembled at construction: for
    a block t of degree n >= 1, ``faces(t)`` returns the matrix acting from
    face 0 and the labels of faces 0..n; the rows of t get that matrix at
    face 0 and identity blocks of alternating sign, starting with -1, at
    faces 1..n, accumulating where faces coincide. ``diffs[n]`` is the
    differential from degree n-1 into degree n, ``total_ranks[n-1]`` wide,
    in the sparse form of ``linalg``, assembled from the form each face-0
    matrix keeps. The complex identity (consecutive differentials compose to
    zero over the ring) is verified at construction, by a product wherever
    the three degrees it spans are all nonzero; any other composite is zero
    by its shape.
    Over Z, the invariant factors of each differential are computed on the
    first ``cohomology`` call that needs them and kept (``_factors``).
    """

    __slots__ = (
        "ring", "n_max", "blocks", "block_ranks", "offsets", "total_ranks", "diffs", "_factors",
    )

    def __init__(self, ring: Ring, blocks, block_ranks, faces):
        n_max = len(blocks) - 1
        offsets = []
        totals = []
        for n in range(n_max + 1):
            offs = []
            acc = 0
            for r in block_ranks[n]:
                offs.append(acc)
                acc += r
            offsets.append(tuple(offs))
            totals.append(acc)
        diffs = [[{} for _ in range(totals[0])]]
        for n in range(1, n_max + 1):
            below = dict(zip(blocks[n - 1], offsets[n - 1]))
            rows = []
            for t, r0 in zip(blocks[n], block_ranks[n]):
                if r0 == 0:
                    continue
                lead, labels = faces(t)
                col_off = below[labels[0]]
                block = [{col_off + j: x for j, x in row.items()} for row in sparse(lead)]
                sign = 1
                for label in labels[1:]:
                    sign = -sign
                    col = below[label]
                    for target in block:
                        x = target.get(col, 0) + sign
                        if x:
                            target[col] = x
                        else:
                            del target[col]
                        col += 1
                rows += block
            diffs.append(rows)
        for n in range(1, n_max):
            # With C^{n-1}, C^n or C^{n+1} zero the product has an empty side
            # or an empty inner sum: it is zero by its shape.
            if totals[n - 1] and totals[n] and totals[n + 1]:
                if not ring.is_zero(product(diffs[n + 1], diffs[n])):
                    raise ValueError(f"complex identity fails between degrees {n - 1}..{n + 1}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in blocks))
        object.__setattr__(self, "block_ranks", tuple(tuple(r) for r in block_ranks))
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "total_ranks", tuple(totals))
        object.__setattr__(self, "diffs", tuple(diffs))
        object.__setattr__(self, "_factors", [None] * (n_max + 1))

    def __setattr__(self, *_):
        raise AttributeError("RoosComplex is immutable")

    def dimension(self, n: int) -> int:
        return self.total_ranks[n]

    def _invariant_factors(self, n: int) -> list:
        factors = self._factors[n]
        if factors is None:
            factors = self._factors[n] = invariant_factors(self.diffs[n])
        return factors

    def cohomology(self, n: int) -> GroupInvariants:
        """H^n = ker d_{n+1} / im d_n. Over Z this is the formula of
        ``subquotient`` on the kept invariant factors, without its check
        that d_{n+1} d_n vanishes: construction checked that already."""
        if not 0 <= n <= self.n_max - 1:
            raise ValueError(
                f"cohomology in degree {n} needs the complex built to degree {n + 1}"
            )
        if not self.ring.is_integers:
            width = self.total_ranks[n - 1] if n else 0
            return subquotient(self.diffs[n], self.diffs[n + 1], width, self.ring)
        d_in = self._invariant_factors(n)
        rank_out = len(self._invariant_factors(n + 1))
        return GroupInvariants(
            self.total_ranks[n] - rank_out - len(d_in), tuple(d for d in d_in if d >= 2)
        )


def build_complex(
    s: InverseSystem, n_max: int, strict: bool = False, *, blocks=None
) -> RoosComplex:
    """The complex of s over its weakly (or, with ``strict``, strictly)
    increasing tuples, enumerated once for degrees 0..n_max: face 0 of t
    carries bond(t0, t1), face i deletes entry i. A caller building several
    complexes on one order passes its ``chains_upto`` list, of n_max + 1
    degrees or more, as ``blocks``, and each complex takes the prefix.

    Raises :class:`InvalidSystemError` on a non-functorial system; for one
    checked already, or restricted from one that passed, that is a lookup.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    require_functorial(s)
    blocks = chains_upto(s.index, n_max, strict) if blocks is None else blocks[: n_max + 1]
    block_ranks = [[s.rank(t[0]) for t in blocks[n]] for n in range(n_max + 1)]
    faces = lambda t: (s.bond(t[0], t[1]), [face(t, k) for k in range(len(t))])
    return RoosComplex(s.ring, blocks, block_ranks, faces)


def limit_complex(s: InverseSystem, n_max: int, degenerate: bool = False) -> RoosComplex:
    """The complex whose cohomology in degrees 0..n_max-1 is lim^n of s.

    Validates s once, before anything else: the core keeps one element per
    equivalence class and drops up beat points, so it would hide a bad bond
    at an element it leaves out. Then restricts s once to the core of its
    index (``core_elements``) and builds the normalized (strict-tuple)
    complex to n_max there. With ``degenerate`` it builds the
    degenerate-tuple complex of s itself instead, on the whole index: the
    oracle route.
    """
    require_functorial(s)
    if degenerate:
        return build_complex(s, n_max)
    keep = core_elements(s.index)
    if len(keep) < len(s.index):
        s = s.restrict(keep)
    return build_complex(s, n_max, strict=True)


def derived_limit(s: InverseSystem, n: int, degenerate: bool = False) -> GroupInvariants:
    """lim^n of the system: degree-n cohomology of ``limit_complex`` built to n+1."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return limit_complex(s, n + 1, degenerate=degenerate).cohomology(n)


def limit_direct(s: InverseSystem) -> GroupInvariants:
    """The inverse limit as the kernel of the equalizer-style difference map.

    Rows are indexed by related pairs lam <= mu (one block of rank(lam)
    each), columns by the product of all objects; the row block is
    bond(lam, mu) at mu's columns minus the identity at lam's columns.
    """
    q = s.index
    col_off = {}
    acc = 0
    for e in q.elements:
        col_off[e] = acc
        acc += s.rank(e)
    rows = []
    for lam, mu in q.related_pairs(include_diagonal=False):
        lo, hi = col_off[lam], col_off[mu]
        for i, brow in enumerate(sparse(s.bond(lam, mu))):
            row = {hi + j: x for j, x in brow.items()}
            row[lo + i] = -1  # lam's columns and mu's are disjoint
            rows.append(row)
    return subquotient([{} for _ in range(acc)], rows, 0, s.ring)

