"""Test-side change of basis for short exact sequences of systems.

``gen.random_ses`` draws coordinate maps only (inject = [I; 0], project =
[0 I]). Conjugating the middle system by a unimodular U_e at each index
element gives an isomorphic sequence whose maps are in another basis:
inject <- U inject, project <- project U^-1, and each middle bond
B(lam, mu) <- U_lam B(lam, mu) U_mu^-1.
"""

from rooslab.linalg import IntMatrix
from rooslab.systems import InverseSystem, SystemSES


def unimodular(rng, n):
    """A seeded integer matrix of determinant +-1 and its inverse: a product
    of elementary row additions, row swaps and sign changes."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(3 * n):
        i, k = rng.randrange(n), rng.randrange(n)
        if i != k and rng.random() < 0.7:
            c = rng.choice((-2, -1, 1, 2))
            # u <- E u with E = I + c e_ik; inv <- inv E^-1 (column k -= c column i).
            u[i] = [a + c * b for a, b in zip(u[i], u[k])]
            for row in inv:
                row[k] -= c * row[i]
        elif i != k:
            u[i], u[k] = u[k], u[i]
            for row in inv:
                row[i], row[k] = row[k], row[i]
        else:
            u[i] = [-a for a in u[i]]
            for row in inv:
                row[i] = -row[i]
    return IntMatrix(u, n), IntMatrix(inv, n)


def conjugated_ses(e, rng):
    """``e`` with its middle system in a seeded unimodular basis at each
    index element."""
    idx = e.mid.index
    change = {lam: unimodular(rng, e.mid.rank(lam)) for lam in idx.elements}
    bonds = {
        (lam, mu): change[lam][0] @ e.mid.bond(lam, mu) @ change[mu][1]
        for lam, mu in idx.related_pairs(include_diagonal=False)
    }
    mid = InverseSystem(idx, e.mid.ring, dict(e.mid.ranks), bonds)
    return SystemSES(
        sub=e.sub,
        mid=mid,
        quot=e.quot,
        inject={lam: change[lam][0] @ e.inject[lam] for lam in idx.elements},
        project={lam: e.project[lam] @ change[lam][1] for lam in idx.elements},
    )
