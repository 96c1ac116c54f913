"""Inverse systems of free modules over a finite quasi-order.

An ``InverseSystem`` holds a free module of known rank at every index element
and one bonding matrix per related ordered pair (lam <= mu), the matrix
mapping the module at mu to the module at lam. Bonds for pairs the caller did
not declare are derived by composing declared bonds along a shortest path;
functoriality of the result is something ``validate_system`` checks
exhaustively, once per system (later checks are lookups), rather than
something construction assumes; ``require_functorial`` rejects what fails it.

``truncated_A`` builds the finite column-truncation of the direct-sum systems
over families of grid height functions, ordered by everywhere domination,
with coordinate-projection bonds. At a finite truncation the direct sum and
the product coincide, so the same constructor realizes both flavors and the
would-be quotient system degenerates to zero; ``TRUNCATION_NOTE`` records
that fact for reports.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .linalg import IntMatrix, Ring, _integral, cohomology_at, invariant_factors, product, sparse
from .orders import QuasiOrder

TRUNCATION_NOTE = (
    "at a finite truncation the direct sum equals the product, so this system "
    "realizes both the sum-type and product-type constructions and their "
    "quotient degenerates to zero"
)


class BondError(ValueError):
    """A bond is missing, underivable, or has the wrong shape."""


class InvalidSystemError(ValueError):
    """The system failed functoriality validation; carries the violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        first = list(self.violations[:3])
        super().__init__(f"bonds are not functorial; first bad triples: {first}")


class InverseSystem:
    """Free modules and bonds over a finite quasi-order. Immutable (``ranks`` is a
    read-only mapping), which is what lets ``validate_system`` store its verdict
    on it (``_report``, None before)."""

    __slots__ = ("index", "ring", "ranks", "_bonds", "_report")

    def __init__(self, index: QuasiOrder, ring: Ring, ranks: dict, bonds: dict):
        given, ranks = ranks, {}
        for e in index.elements:
            if e not in given:
                raise ValueError(f"no rank for {e!r}")
            r = given[e]
            try:
                r = r if type(r) is int else _integral(r)
            except (TypeError, ValueError):
                r = -1
            if r < 0:
                raise ValueError(f"rank of {e!r} must be a natural number")
            ranks[e] = r
        if len(given) != len(ranks):  # every index label has one: the rest are extra
            extra = [e for e in given if e not in index]
            raise ValueError(f"ranks given for unknown labels {extra}")
        declared = {}
        loops = 0  # declared diagonal bonds
        for (lam, mu), m in bonds.items():
            try:
                related = index.leq(lam, mu)
            except KeyError:
                raise BondError(f"bond ({lam!r}, {mu!r}) mentions an unknown label") from None
            if not related:
                raise BondError(f"bond ({lam!r}, {mu!r}) requires {lam!r} <= {mu!r} in the order")
            if m.nrows != ranks[lam] or m.ncols != ranks[mu]:
                raise BondError(
                    f"bond ({lam!r}, {mu!r}) has shape {m.shape}, "
                    f"expected {(ranks[lam], ranks[mu])}"
                )
            declared[(lam, mu)] = m
            loops += lam == mu
        full = {}
        identities = {}  # one per distinct rank; IntMatrix is immutable
        for e in index.elements:
            r = ranks[e]
            ident = identities.get(r)
            if ident is None:
                ident = identities[r] = IntMatrix.identity(r)
            if (e, e) in declared and not ring.equal(sparse(declared[(e, e)]), sparse(ident)):
                raise BondError(f"diagonal bond at {e!r} is not the identity")
            full[(e, e)] = ident
        pairs = index.related_pairs()
        if len(declared) - loops < len(pairs):
            # Some pair is missing: derive its bond by BFS through declared
            # pairs (deterministic: neighbors visited in element order,
            # shortest path wins).
            neighbors = {}
            for (lam, mu) in declared:
                if lam != mu:
                    neighbors.setdefault(lam, []).append(mu)
            for lam in neighbors:
                neighbors[lam].sort(key=index.position)
        for lam, mu in pairs:
            m = declared.get((lam, mu))
            if m is None:
                path = self._bfs_path(lam, mu, neighbors)
                if path is None:
                    raise BondError(f"bond for ({lam!r}, {mu!r}) neither declared nor derivable")
                m = declared[(path[0], path[1])]
                for a, b in zip(path[1:], path[2:]):
                    m = m @ declared[(a, b)]
            full[(lam, mu)] = m
        self._set(index, ring, ranks, full, None)

    def _set(self, index, ring, ranks, bonds, report) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ranks", MappingProxyType(ranks))
        object.__setattr__(self, "_bonds", bonds)
        object.__setattr__(self, "_report", report)

    @staticmethod
    def _bfs_path(src, dst, neighbors):
        seen = {src: None}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            if cur == dst:
                path = []
                while cur is not None:
                    path.append(cur)
                    cur = seen[cur]
                return path[::-1]
            for nxt in neighbors.get(cur, ()):
                if nxt not in seen:
                    seen[nxt] = cur
                    queue.append(nxt)
        return None

    def __setattr__(self, *_):
        raise AttributeError("InverseSystem is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InverseSystem)
            and self.index == other.index
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self._bonds == other._bonds
        )

    def __repr__(self) -> str:
        return (
            f"InverseSystem(|index|={len(self.index)}, ring={self.ring.render()}, "
            f"ranks={dict(self.ranks)!r})"
        )

    def rank(self, e) -> int:
        return self.ranks[e]

    def bond(self, lam, mu) -> IntMatrix:
        """The matrix of p^mu_lam : G_mu -> G_lam (requires lam <= mu)."""
        try:
            return self._bonds[(lam, mu)]
        except KeyError:
            raise BondError(f"no bond for pair ({lam!r}, {mu!r})") from None

    def bonds(self) -> dict:
        return dict(self._bonds)

    def restrict(self, subset) -> "InverseSystem":
        """The system over the suborder on ``subset`` (labels the index does
        not know are ignored): this system's ranks and the bonds of the kept
        pairs, copied. Nothing is rechecked, since the constructor checked
        every label, rank, shape and diagonal of this system already, and
        the result equals the system the constructor would build from them.
        A passing ``validate_system`` verdict is kept too: every bond and
        triple of the restriction is one of this system's, so a functorial
        system restricts to a functorial one."""
        return self._onto(self.index.restrict(subset))

    def _onto(self, sub: QuasiOrder) -> "InverseSystem":
        """``restrict`` onto ``sub``, an order equal to a restriction of this
        system's index, which several systems on equal indices can share."""
        bonds = {(e, e): self._bonds[(e, e)] for e in sub.elements}
        for pair in sub.related_pairs():
            bonds[pair] = self._bonds[pair]
        report = self._report if self._report is not None and self._report.ok else None
        out = object.__new__(InverseSystem)
        out._set(sub, self.ring, {e: self.ranks[e] for e in sub.elements}, bonds, report)
        return out


@dataclass(frozen=True)
class SystemReport:
    ok: bool
    violations: tuple


def validate_system(s: InverseSystem) -> SystemReport:
    """Exhaustive functoriality check: every composite of two bonds equals
    the bond of its ends. Computed once per system and stored on it."""
    if s._report is not None:
        return s._report
    violations = []
    ring = s.ring
    bonds = s._bonds
    # Up-sets in position order visit the triples lam <= mu <= nu in the
    # order of a loop over all three. The constructor makes every diagonal
    # bond exactly the identity, so a triple with lam == mu or mu == nu
    # composes to the other bond verbatim. Each bond keeps its sparse form
    # (``linalg.sparse``), built the first time a triple needs it.
    up = s.index.up_sets()
    after = {}
    for lam in s.index.elements:
        for mu in up[lam]:
            if mu == lam:
                continue
            rights = after.get(mu)
            if rights is None:
                rights = after[mu] = [(nu, sparse(bonds[mu, nu])) for nu in up[mu] if nu != mu]
            if not rights:
                continue
            left = sparse(bonds[lam, mu])
            for nu, right in rights:
                if not ring.equal(product(left, right), sparse(bonds[lam, nu])):
                    violations.append((lam, mu, nu))
    report = SystemReport(ok=not violations, violations=tuple(violations))
    object.__setattr__(s, "_report", report)
    return report


def require_functorial(s: InverseSystem) -> None:
    """Raise :class:`InvalidSystemError` unless ``validate_system`` passes."""
    report = validate_system(s)
    if not report.ok:
        raise InvalidSystemError(report.violations)


def surjective_bonds(s: InverseSystem) -> dict:
    """Whether each bond (lam, mu), diagonal included, has trivial cokernel.
    One SNF per bond, so only the reports that show it call this."""
    return {
        pair: cohomology_at(m, IntMatrix.zeros(0, m.nrows), s.ring).is_trivial
        for pair, m in s.bonds().items()
    }


def collapse_equivalences(s: InverseSystem) -> InverseSystem:
    """Restrict to the first element of every equivalence class.

    Each element is isomorphic (mutually related, with mutually inverse
    bonds in any valid system) to its representative, so derived limits in
    every degree are unchanged; the tests confirm that on random systems,
    non-directed ones included, instead of taking it on faith. The payoff:
    the result is a partial order, whose tuple counts do not blow up the
    way equivalence-rich quasi-orders do.
    """
    reps = [cls[0] for cls in s.index.equivalence_classes()]
    if len(reps) == len(s.index):
        return s
    return s.restrict(reps)


def core_elements(index: QuasiOrder) -> list:
    """The elements of the homotopy-final core of the index, in element order.

    First each equivalence class is collapsed to its first member. Then,
    while some element p is an up beat point, one whose strict up-set
    {q > p} has a least element, the first such p is removed. Each removal
    is homotopy final: for every x, the elements left that lie above x have
    a least element, x itself when x is not p and the least element of p's
    strict up-set when it is, so the nerve of every comma poset is a cone. Hence
    lim^n of every system is unchanged in every degree (Quillen's Theorem A;
    Jensen, LNM 254, on the cofinality of lim^n). An index with a maximum,
    a chain for one, shrinks to one point. ``limit_complex`` and
    ``les_of_ses`` build their complexes on this core.
    """
    up = index.up_masks()
    keep = [index.position(cls[0]) for cls in index.equivalence_classes()]
    alive = sum(1 << p for p in keep)
    while True:
        for p in keep:
            above = up[p] & alive & ~(1 << p)
            # p is a beat point when some m above it lies below all the rest.
            if any(above & ~up[m] == 0 for m in keep if above >> m & 1):
                keep.remove(p)
                alive ^= 1 << p
                break
        else:
            return [index.elements[p] for p in keep]


@dataclass(frozen=True)
class TruncationSpec:
    columns: int
    family: tuple
    ring: Ring = Ring.integers()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "family", tuple(tuple(map(_integral, f)) for f in self.family)
        )
        if not self.family:
            raise ValueError("family must be nonempty")
        for f in self.family:
            if len(f) != self.columns:
                raise ValueError(f"function {f} does not have {self.columns} columns")
            if any(v < 0 for v in f):
                raise ValueError(f"function {f} has negative heights")


def truncation_label(f) -> str:
    return ",".join(str(v) for v in f)


def grid_cells(f) -> list:
    """Cells (i, j) with j < f(i), in lexicographic order."""
    return [(i, j) for i, v in enumerate(f) for j in range(v)]


def truncated_A(spec: TruncationSpec) -> InverseSystem:
    """Finite truncation of the grid-supported sum/product systems.

    Index = the family under everywhere domination; the object at f is free
    of rank sum(f) with coordinates the grid cells of f in lexicographic
    order; the bond for f <= g projects away the cells of g outside f.
    """
    labels = []
    seen = {}
    for f in spec.family:
        base = truncation_label(f)
        if base in seen:
            seen[base] += 1
            labels.append(f"{base}#{seen[base]}")
        else:
            seen[base] = 0
            labels.append(base)
    funcs = dict(zip(labels, spec.family))
    pairs = [
        (a, b)
        for a in labels
        for b in labels
        if all(x <= y for x, y in zip(funcs[a], funcs[b]))
    ]
    index = QuasiOrder(labels, pairs)
    ranks = {lab: sum(funcs[lab]) for lab in labels}
    bonds = {}
    for a, b in index.related_pairs(include_diagonal=False):
        cells_a = grid_cells(funcs[a])
        col_of = {cell: j for j, cell in enumerate(grid_cells(funcs[b]))}
        rows = []
        for cell in cells_a:
            row = [0] * ranks[b]
            row[col_of[cell]] = 1
            rows.append(row)
        bonds[(a, b)] = IntMatrix(rows, ranks[b])
    return InverseSystem(index, spec.ring, ranks, bonds)


@dataclass(frozen=True)
class SesReport:
    ok: bool
    violations: tuple


@dataclass(frozen=True)
class SystemSES:
    """Levelwise short exact sequence of systems over one index and ring.

    ``inject`` maps the sub system into the middle (one matrix per index,
    rank_mid x rank_sub); ``project`` maps the middle onto the quotient.
    Both are read-only copies. Immutable, which is what lets ``validate_ses``
    store its verdict on the sequence (``_report``).
    """

    sub: InverseSystem
    mid: InverseSystem
    quot: InverseSystem
    inject: Mapping = field(compare=False)
    project: Mapping = field(compare=False)
    _report: SesReport | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inject", MappingProxyType(dict(self.inject)))
        object.__setattr__(self, "project", MappingProxyType(dict(self.project)))


def validate_ses(e: SystemSES) -> SesReport:
    """Exact levelwise verification: one ring and one index, a matrix of
    the right shape at every index label and none elsewhere, injectivity,
    surjectivity, ker = im, and commutation of both maps with every bond.
    Computed once per sequence and stored on it."""
    if e._report is None:
        object.__setattr__(e, "_report", _check_ses(e))
    return e._report


def require_exact(e: SystemSES) -> None:
    """Raise ValueError unless ``validate_ses`` passes."""
    report = validate_ses(e)
    if not report.ok:
        raise ValueError(f"not a short exact sequence: {list(report.violations[:3])}")


def _check_ses(e: SystemSES) -> SesReport:
    violations = []
    ring = e.mid.ring
    if e.sub.ring != ring or e.quot.ring != ring:
        violations.append("the three systems disagree on the ring")
    if e.sub.index != e.mid.index or e.quot.index != e.mid.index:
        violations.append("the three systems disagree on the index order")
    if violations:
        return SesReport(False, tuple(violations))
    for name, sys in (("sub", e.sub), ("mid", e.mid), ("quot", e.quot)):
        rep = validate_system(sys)
        if not rep.ok:
            violations.append(f"{name} system fails functoriality: {rep.violations[:3]}")
    idx = e.mid.index
    tables = (("inject", e.inject, e.mid, e.sub), ("project", e.project, e.quot, e.mid))
    for name, table, *_ in tables:
        extra = [k for k in table if k not in idx]
        if extra:
            violations.append(f"{name}: matrices at unknown labels {extra}")
    shaped = {}  # element -> the sparse forms of its two maps, when both are shaped
    for lam in idx.elements:
        maps = []
        for name, table, target, source in tables:
            m, want = table.get(lam), (target.rank(lam), source.rank(lam))
            if m is None:
                violations.append(f"{name}: no matrix for {lam!r}")
            elif m.shape != want:
                violations.append(f"{name} at {lam!r} has shape {m.shape}, expected {want}")
            else:
                maps.append(m)
        if len(maps) < 2:
            continue
        i_m, p_m = maps
        i_s, p_s = shaped[lam] = sparse(i_m), sparse(p_m)
        if not ring.is_zero(product(p_s, i_s)):
            violations.append(f"project * inject nonzero at {lam!r}")
            continue
        if ring.is_integers:
            # ker i, coker p and ker p / im i, which ``cohomology_at`` would
            # present, vanish exactly when the ranks and unit factors of the
            # two maps say so; each map is reduced once.
            f_i = invariant_factors(i_s)
            f_p = invariant_factors(p_s)
            injective = len(f_i) == i_m.ncols
            surjective = len(f_p) == p_m.nrows and all(d == 1 for d in f_p)
            exact = len(f_i) + len(f_p) == p_m.ncols and all(d == 1 for d in f_i)
        else:
            zero_in = IntMatrix.zeros(e.sub.rank(lam), 0)
            zero_out = IntMatrix.zeros(0, e.quot.rank(lam))
            injective = cohomology_at(zero_in, i_m, ring).is_trivial
            surjective = cohomology_at(p_m, zero_out, ring).is_trivial
            exact = cohomology_at(i_m, p_m, ring).is_trivial
        if not injective:
            violations.append(f"inject not injective at {lam!r}")
        if not surjective:
            violations.append(f"project not surjective at {lam!r}")
        if not exact:
            violations.append(f"not exact at middle for {lam!r}")
    # Both sides of a square have the same shape, so their sparse products
    # are equal over the ring exactly when the dense ones are.
    for lam, mu in idx.related_pairs(include_diagonal=False):
        if lam not in shaped or mu not in shaped:
            continue
        (i_lam, p_lam), (i_mu, p_mu) = shaped[lam], shaped[mu]
        sub, mid, quot = (sparse(s.bond(lam, mu)) for s in (e.sub, e.mid, e.quot))
        if not ring.equal(product(i_lam, sub), product(mid, i_mu)):
            violations.append(f"inject does not commute with bond ({lam!r}, {mu!r})")
        if not ring.equal(product(p_lam, mid), product(quot, p_mu)):
            violations.append(f"project does not commute with bond ({lam!r}, {mu!r})")
    return SesReport(not violations, tuple(violations))
