"""Finite categories, module-valued functors on them, and nerve complexes.

A ``FiniteCategory`` is given explicitly: objects, named morphisms with
source and target, a chosen identity per object, and a full composition
table. Construction checks the category laws exhaustively (identity and
associativity over every composable pair and triple), which is cheap at the
sizes handled here.

``FreeFunctor`` assigns a free module to each object and a matrix to each
morphism, acting contravariantly: a morphism from i to j acts by a matrix
from the module at j into the module at i, exactly the way bonds of an
inverse system point. ``nerve_complex`` then builds the cochain complex
whose degree-k piece is the product, over composable k-chains of morphisms,
of the module at the chain's source; its cohomology computes the derived
limits of the functor. It enumerates the chains and names their faces; the
differentials come from the same assembler as ``build_complex``
(``RoosComplex``). On the thin category of a quasi-order it recovers
``build_complex`` block for block and matrix for matrix, which the tests
use as a cross-check rather than an assumption.

``corepresented_system`` builds, for a base object i and a multiplicity a,
the functor sending j to one rank-a block per morphism from i to j, with
morphisms acting by index shuffling (the block at beta reads the block at
the composite). Its nerve has rank-a cohomology in degree zero and nothing
above — the finite stand-in for cofreeness.
"""

from __future__ import annotations

from types import MappingProxyType

from .linalg import IntMatrix, Ring, _integral, product, sparse
from .orders import QuasiOrder
from .systems import InverseSystem


class CategoryError(ValueError):
    """The data fails to be a category (missing composites, broken laws)."""


class FunctorError(ValueError):
    """The matrices fail functoriality or shape requirements."""


class FiniteCategory:
    __slots__ = ("objects", "morphism_names", "_mor", "identity", "_compose", "_obj_pos", "_mor_pos")

    def __init__(self, objects, morphisms, identities, compose):
        objects = tuple(objects)
        if len(set(objects)) != len(objects):
            raise CategoryError("duplicate object labels")
        mor = dict(morphisms)
        names = tuple(mor)
        obj_set = set(objects)
        for name, (src, tgt) in mor.items():
            if src not in obj_set or tgt not in obj_set:
                raise CategoryError(f"morphism {name!r} has endpoints outside the objects")
        ident = dict(identities)
        extra = [o for o in ident if o not in obj_set]
        if extra:
            raise CategoryError(f"identities chosen for non-objects {extra}")
        for o in objects:
            if o not in ident:
                raise CategoryError(f"no identity chosen for object {o!r}")
            if mor.get(ident[o]) != (o, o):
                raise CategoryError(f"identity of {o!r} is not an endomorphism of it")
        table = dict(compose)
        composable = set()
        for f in names:
            for g in names:
                if mor[f][1] == mor[g][0]:
                    composable.add((g, f))
        missing = composable - set(table)
        if missing:
            raise CategoryError(f"composition table misses pairs {sorted(missing)[:5]}")
        extra = set(table) - composable
        if extra:
            raise CategoryError(f"composition table has non-composable pairs {sorted(extra)[:5]}")
        for (g, f), h in table.items():
            if h not in mor:
                raise CategoryError(f"composite of ({g!r}, {f!r}) is not a morphism")
            if mor[h] != (mor[f][0], mor[g][1]):
                raise CategoryError(f"composite of ({g!r}, {f!r}) has wrong endpoints")
        for f in names:
            src, tgt = mor[f]
            if table[(f, ident[src])] != f or table[(ident[tgt], f)] != f:
                raise CategoryError(f"identity law fails at {f!r}")
        for g, f in composable:
            for h in names:
                if mor[h][0] != mor[g][1]:
                    continue
                if table[(h, table[(g, f)])] != table[(table[(h, g)], f)]:
                    raise CategoryError(f"associativity fails at ({h!r}, {g!r}, {f!r})")
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "morphism_names", names)
        object.__setattr__(self, "_mor", mor)
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "_compose", table)
        object.__setattr__(self, "_obj_pos", {o: i for i, o in enumerate(objects)})
        object.__setattr__(self, "_mor_pos", {m: i for i, m in enumerate(names)})

    def __setattr__(self, *_):
        raise AttributeError("FiniteCategory is immutable")

    def __repr__(self) -> str:
        return f"FiniteCategory({len(self.objects)} objects, {len(self.morphism_names)} morphisms)"

    def src(self, name):
        return self._mor[name][0]

    def tgt(self, name):
        return self._mor[name][1]

    def compose(self, after, before):
        """The composite after-following-before; before's target must be after's source."""
        try:
            return self._compose[(after, before)]
        except KeyError:
            raise CategoryError(f"({after!r}, {before!r}) is not composable") from None

    def hom(self, i, j) -> tuple:
        """Morphisms from i to j, in declaration order."""
        return tuple(m for m in self.morphism_names if self._mor[m] == (i, j))

    def is_identity(self, name) -> bool:
        return self.identity[self._mor[name][0]] == name


def morphism_chains(cat: FiniteCategory, k: int) -> tuple:
    """Composable k-tuples of morphisms, lex by declaration order.

    Degree zero is the tuple of objects themselves — the empty chains, one
    per basepoint.
    """
    if k < 0:
        raise ValueError("chain length must be >= 0")
    if k == 0:
        return cat.objects
    out = []
    stack = [()]
    while stack:
        t = stack.pop()
        if len(t) == k:
            out.append(t)
            continue
        nxt = []
        for m in cat.morphism_names:
            if not t or cat.tgt(t[-1]) == cat.src(m):
                nxt.append(t + (m,))
        stack.extend(reversed(nxt))
    return tuple(out)


class FreeFunctor:
    """Free modules on objects, contravariant matrix actions on morphisms.

    ``action`` maps every non-identity morphism name to its matrix (a
    morphism i -> j acts from the module at j to the module at i); identity
    actions are filled in and, if declared, must be identities over the
    ring. Functoriality — the action of a composite equals the product of
    the actions in source-to-target order — is checked over every
    composable pair.
    """

    __slots__ = ("category", "ring", "ranks", "_action")

    def __init__(self, category: FiniteCategory, ring: Ring, ranks: dict, action: dict):
        given, ranks = ranks, {}
        for o in category.objects:
            if o not in given:
                raise FunctorError(f"no rank for {o!r}")
            r = given[o]
            try:
                r = r if type(r) is int else _integral(r)
            except (TypeError, ValueError):
                r = -1
            if r < 0:
                raise FunctorError(f"rank of {o!r} must be a natural number")
            ranks[o] = r
        if len(given) != len(ranks):  # every object has one: the rest are extra
            extra = [o for o in given if o not in ranks]
            raise FunctorError(f"ranks given for unknown labels {extra}")
        extra = [name for name in action if name not in category._mor]
        if extra:
            raise FunctorError(f"actions given for unknown morphisms {extra}")
        full = {}
        for name in category.morphism_names:
            src, tgt = category.src(name), category.tgt(name)
            want = (ranks[src], ranks[tgt])
            if name in action:
                m = action[name]
                if m.shape != want:
                    raise FunctorError(
                        f"action of {name!r} has shape {m.shape}, expected {want}"
                    )
                if category.is_identity(name) and not ring.equal(
                    sparse(m), sparse(IntMatrix.identity(ranks[src]))
                ):
                    raise FunctorError(f"identity {name!r} does not act as the identity")
                full[name] = m
            elif category.is_identity(name):
                full[name] = IntMatrix.identity(ranks[src])
            else:
                raise FunctorError(f"no action declared for morphism {name!r}")
        # Every action has the shape of its morphism's endpoints, so the kept
        # sparse forms (``linalg.sparse``) compare as the dense matrices would.
        for f in category.morphism_names:
            for g in category.morphism_names:
                if category.tgt(f) != category.src(g):
                    continue
                h = category.compose(g, f)
                if not ring.equal(sparse(full[h]), product(sparse(full[f]), sparse(full[g]))):
                    raise FunctorError(
                        f"functoriality fails: action({h!r}) != action({f!r}) @ action({g!r})"
                    )
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ranks", MappingProxyType(ranks))
        object.__setattr__(self, "_action", full)

    def __setattr__(self, *_):
        raise AttributeError("FreeFunctor is immutable")

    def rank(self, obj) -> int:
        return self.ranks[obj]

    def action(self, name) -> IntMatrix:
        return self._action[name]


def thin_category(q: QuasiOrder) -> FiniteCategory:
    """The category with one morphism (lam, mu) for each related pair."""
    pairs = q.related_pairs(include_diagonal=True)
    morphisms = {(lam, mu): (lam, mu) for lam, mu in pairs}
    identities = {e: (e, e) for e in q.elements}
    compose = {}
    for g in pairs:
        for f in pairs:
            if f[1] == g[0]:
                compose[(g, f)] = (f[0], g[1])
    return FiniteCategory(q.elements, morphisms, identities, compose)


def functor_from_system(s: InverseSystem, cat: FiniteCategory | None = None) -> FreeFunctor:
    """View an inverse system as a functor on the thin category of its index."""
    if cat is None:
        cat = thin_category(s.index)
    action = {
        (lam, mu): s.bond(lam, mu)
        for lam, mu in s.index.related_pairs(include_diagonal=False)
    }
    return FreeFunctor(cat, s.ring, dict(s.ranks), action)


def nerve_complex(cat: FiniteCategory, fun: FreeFunctor, k_max: int):
    """The cochain complex of the nerve, one block per composable chain.

    The differential into degree k evaluates, at a chain (a_1, ..., a_k):
    the action of a_1 on the value at the chain with a_1 dropped, plus the
    alternating sum over inner faces (composing consecutive morphisms) and
    the last face (dropping a_k). It shares ``RoosComplex``'s assembler with
    ``build_complex``, so block coincidences accumulate the same way.
    """
    from .complexes import RoosComplex

    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if fun.category is not cat:
        raise FunctorError("functor was built over a different category")
    blocks = [morphism_chains(cat, k) for k in range(k_max + 1)]
    source = lambda t, k: cat.src(t[0]) if k else t
    block_ranks = [
        [fun.rank(source(t, k)) for t in blocks[k]] for k in range(k_max + 1)
    ]

    def faces(t):
        # A 1-chain's faces are objects: its target, then its source.
        if len(t) == 1:
            return fun.action(t[0]), (cat.tgt(t[0]), cat.src(t[0]))
        inner = [
            t[: j - 1] + (cat.compose(t[j], t[j - 1]),) + t[j + 1 :] for j in range(1, len(t))
        ]
        return fun.action(t[0]), (t[1:], *inner, t[:-1])

    return RoosComplex(fun.ring, blocks, block_ranks, faces)


def corepresented_system(cat: FiniteCategory, base, copies: int = 1) -> FreeFunctor:
    """One rank-``copies`` block per morphism out of ``base``; actions shuffle blocks.

    The value at j is indexed by hom(base, j); a morphism alpha from j to k
    acts by reading, at the block of beta, the block of alpha-after-beta.
    Every action matrix is a 0/1 block projection, and the nerve of the
    result is acyclic except for one rank-``copies`` group in degree zero.
    """
    if base not in cat._obj_pos:
        raise CategoryError(f"unknown base object {base!r}")
    if copies < 0:
        raise ValueError("copies must be >= 0")
    ranks = {j: copies * len(cat.hom(base, j)) for j in cat.objects}
    action = {}
    for name in cat.morphism_names:
        if cat.is_identity(name):
            continue
        j, k = cat.src(name), cat.tgt(name)
        hom_j = cat.hom(base, j)
        pos_k = {g: idx for idx, g in enumerate(cat.hom(base, k))}
        rows = []
        for b in hom_j:
            col_block = pos_k[cat.compose(name, b)]
            for s in range(copies):
                row = [0] * ranks[k]
                row[col_block * copies + s] = 1
                rows.append(row)
        action[name] = IntMatrix(rows, ranks[k])
    return FreeFunctor(cat, Ring.integers(), ranks, action)
