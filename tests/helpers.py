"""Shared randomized generators and independent oracles.

Everything here is deliberately written from scratch against the
definitions, not by calling back into the code under test, so the test
suite has a second opinion on the hard parts (Pell solving, bounded
class enumeration, chamber walls).
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from ihscone import Lattice, is_numerically_exceptional, norm, profiles
from ihscone.lattice import gram_vec
from ihscone.polyhedra import fm_satisfiable, invert_matrix


def rand_unimodular(rng: random.Random, n: int, ops: int | None = None) -> list[list[int]]:
    """Random unimodular matrix built from integer shear operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        if rng.random() < 0.5:
            m[0][0] = -1
        return m
    if ops is None:
        ops = 2 * n + rng.randint(0, 3)
    for _ in range(ops):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            m[j][col] += c * m[i][col]
    return m


def congruate(gram, p):
    """p^T * gram * p as a tuple-of-tuples."""
    n = len(gram)
    gp = [[sum(gram[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(sum(p[k][i] * gp[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def unimodular_inverse(p) -> list[list[int]]:
    inv = invert_matrix([[Fraction(x) for x in row] for row in p])
    out = []
    for row in inv:
        assert all(x.denominator == 1 for x in row)
        out.append([int(x) for x in row])
    return out


def apply_matrix(m, v) -> tuple[int, ...]:
    return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m)))


def transported(rng: random.Random, base: Lattice, vectors):
    """Rewrite (base, vectors) in a random basis.

    The new lattice is p^T G p; a vector v of the old lattice becomes
    p^{-1} v, which preserves all pairings, norms and divisibilities.
    """
    p = rand_unimodular(rng, base.rank)
    pinv = unimodular_inverse(p)
    lat = Lattice(congruate(base.gram, p))
    return lat, [apply_matrix(pinv, v) for v in vectors]


def rand_primitive(rng: random.Random, n: int, span: int = 5) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-span, span) for _ in range(n))
        if any(v) and gcd(*v) == 1:
            return v


# ---------------------------------------------------------------- pell oracles

def brute_force_pell_y(n: int, y_cap: int):
    """Smallest solution by increasing y, or None if y_1 > y_cap."""
    for y in range(1, y_cap + 1):
        x2 = 1 + n * y * y
        x = isqrt(x2)
        if x * x == x2:
            return (x, y)
    return None


def brute_force_pell_x(n: int, x_cap: int):
    """Smallest solution by increasing x, or None if x_1 > x_cap."""
    for x in range(2, x_cap + 1):
        q, r = divmod(x * x - 1, n)
        if r == 0:
            y = isqrt(q)
            if y * y == q:
                return (x, y)
    return None


def chakravala(n: int) -> tuple[int, int]:
    """Fundamental solution of x^2 - n*y^2 = 1 by the cyclic method.

    Completely independent of the continued-fraction route used by the
    implementation; used as the oracle where direct brute force cannot
    reach the answer.
    """
    a0 = isqrt(n)
    if a0 * a0 == n:
        raise ValueError("square parameter")
    p = a0 if abs(a0 * a0 - n) <= abs((a0 + 1) ** 2 - n) else a0 + 1
    q, k = 1, p * p - n
    while k != 1:
        if k == -1:
            # compose (p, q) with itself
            p, q, k = p * p + n * q * q, 2 * p * q, 1
            continue
        cap = abs(k)
        r = (-p * pow(q, -1, cap)) % cap
        j0 = (a0 - r) // cap
        cands = [r + j * cap for j in (j0 - 1, j0, j0 + 1, j0 + 2) if r + j * cap > 0]
        if not cands:
            cands = [r if r > 0 else r + cap]
        m = min(cands, key=lambda t: abs(t * t - n))
        np_, rem1 = divmod(p * m + n * q, cap)
        nq, rem2 = divmod(p + q * m, cap)
        nk, rem3 = divmod(m * m - n, k)
        assert rem1 == 0 and rem2 == 0 and rem3 == 0
        p, q, k = np_, nq, nk
    assert p * p - n * q * q == 1
    return p, q


def nonsquares_up_to(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if isqrt(n) ** 2 != n]


# ------------------------------------------------------- enumeration oracle

def box_oracle(lat: Lattice, dtype, bound_b: int) -> tuple[tuple[int, ...], ...]:
    """Naive box search for profile-matching classes on a diagonal lattice.

    Requires gram = diag(g0, -c1, ..., -ck) with g0 > 0 and uses the
    ample class (1, 0, ..., 0).  Sound coordinate bounds: the pairing
    constraint pins v0 to 1..B//g0, and the norm constraint then caps
    every ci*vi^2 by g0*v0^2 - min(profile squares).
    """
    g = lat.gram
    n = lat.rank
    g0 = g[0][0]
    assert g0 > 0
    for i in range(1, n):
        assert g[i][i] < 0 and all(g[i][j] == 0 for j in range(n) if j != i)
    squares = {pr.square for pr in profiles(dtype)}
    lo = min(squares)
    ample = (1,) + (0,) * (n - 1)
    found = set()

    def rec(i, acc, budget):
        if i == n:
            v = tuple(acc)
            if norm(lat, v) in squares and is_numerically_exceptional(lat, dtype, v, ample):
                found.add(v)
            return
        ci = -g[i][i]
        top = isqrt(budget // ci)
        for x in range(-top, top + 1):
            rec(i + 1, acc + [x], budget - ci * x * x)

    for v0 in range(1, bound_b // g0 + 1):
        rec(1, [v0], g0 * v0 * v0 - lo)
    return tuple(sorted(found))


# ------------------------------------------------------------ cone oracles

def _echelon(rows, n):
    """Row echelon form over Q (list of nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    out, pivots = [], []
    for c in range(n):
        k = next((i for i, r in enumerate(m) if r[c] != 0), None)
        if k is None:
            continue
        piv = m.pop(k)
        m = [[a - r[c] / piv[c] * b for a, b in zip(r, piv)] for r in m]
        out.append(piv)
        pivots.append(c)
    return out, pivots


def _nullspace(rows, n):
    ech, pivots = _echelon(rows, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for r, p in reversed(list(zip(ech, pivots))):
            x[p] = -sum(r[j] * x[j] for j in range(p + 1, n)) / r[p]
        basis.append(x)
    return basis


def _primitive(vals):
    m = lcm(*(Fraction(v).denominator for v in vals))
    ints = [int(v * m) for v in vals]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def brute_force_extreme_rays(rows, n):
    """Extreme rays of {x : a . x >= 0 for each row a} modulo its lineality
    space, each given by its primitive vector of row values (a . x)_a.

    Row values identify a ray modulo the lineality space, which is the
    kernel of the rows, whatever complement a generator lies in.  With r
    the rank of the rows, every extreme ray spans, with the lineality
    space, the kernel of some r - 1 independent rows; try them all.
    """
    r = len(_echelon(rows, n)[0])
    found = set()
    if r == 0:
        return found
    for subset in combinations(rows, r - 1):
        if len(_echelon(subset, n)[0]) != r - 1:
            continue
        for x in _nullspace(subset, n):
            vals = [sum(a * b for a, b in zip(row, x)) for row in rows]
            if any(vals):
                break
        if all(v >= 0 for v in vals):
            found.add(_primitive(vals))
        elif all(v <= 0 for v in vals):
            found.add(_primitive([-v for v in vals]))
    return found



def fm_is_wall(lat: Lattice, roots, candidate, ample) -> bool:
    """Wall test by Fourier-Motzkin elimination on the strict system

        pairing(x, candidate) = 0,
        pairing(x, r) > 0   for every root r not proportional to candidate,
        pairing(x, ample) > 0,

    i.e. candidate-perp meets the chamber in a point off every other wall.
    The equality is solved for one coordinate before eliminating.
    """
    n = lat.rank
    eq = gram_vec(lat, candidate)
    k = next(i for i in range(n) if eq[i] != 0)
    strict = [
        gram_vec(lat, r)
        for r in roots
        if any(r[i] * candidate[j] != r[j] * candidate[i] for i in range(n) for j in range(n))
    ]
    strict.append(gram_vec(lat, ample))
    system = [
        (tuple(Fraction(row[j]) - Fraction(row[k] * eq[j], eq[k]) for j in range(n) if j != k),
         Fraction(0), True)
        for row in strict
    ]
    return fm_satisfiable(system, n - 1)


# ------------------------------------------------------ structured lattices

def rand_diag_gram(rng: random.Random, rank: int, pos_max: int = 4, neg_max: int = 6):
    row = [rng.randint(1, pos_max)] + [-rng.randint(1, neg_max) for _ in range(rank - 1)]
    return tuple(
        tuple(row[i] if i == j else 0 for j in range(rank)) for i in range(rank)
    )


def rand_case_b_pair(rng: random.Random, rank: int):
    """(lattice, D, E) with norm(D) > 0 > norm(E) and pairing(E, D) > 0."""
    base = Lattice(rand_diag_gram(rng, rank))
    d0 = (1,) + (0,) * (rank - 1)
    g0 = base.gram[0][0]
    while True:
        e0 = [rng.randint(1, 2)] + [rng.randint(-3, 3) for _ in range(rank - 1)]
        if norm(base, tuple(e0)) < 0 and g0 * e0[0] > 0:
            break
    lat, (d, e) = transported(rng, base, [d0, tuple(e0)])
    return lat, d, e


def rand_case_a_pair(rng: random.Random, rank: int):
    """(lattice, D, E) with E isotropic of positive pairing against D."""
    assert rank >= 2
    gram = [[0] * rank for _ in range(rank)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, rank):
        gram[i][i] = -rng.randint(1, 6)
    base = Lattice(tuple(tuple(r) for r in gram))
    e0 = (1,) + (0,) * (rank - 1)
    while True:
        d0 = tuple(rng.randint(-3, 3) for _ in range(rank))
        if d0[1] > 0 and norm(base, d0) > 0:
            break
    lat, (d, e) = transported(rng, base, [d0, e0])
    return lat, d, e


def rand_profile_root(rng: random.Random, profile, rank: int):
    """(lattice, root) where root realizes the profile's (square, div)."""
    s, dv = profile.square, profile.div
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 2 * rng.randint(1, 4)
    gram[0][1] = gram[1][0] = dv
    gram[1][1] = s
    for i in range(2, rank):
        gram[i][i] = -rng.randint(1, 6)
    base = Lattice(tuple(tuple(r) for r in gram))
    root0 = (0, 1) + (0,) * (rank - 2)
    lat, (root,) = transported(rng, base, [root0])
    return lat, root
