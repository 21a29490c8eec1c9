"""Exact polyhedral-cone routines at small rank: double description, ray
canonicalization, and Fourier-Motzkin feasibility.

dd_generators is the library's one polyhedral engine, and `engine.analyze`
calls it once per polyhedral analysis.  It runs over the integers: its
one elimination step, _cut, replaces each vector of a lattice basis by a
primitive integer combination.  fm_satisfiable is kept
as the independent oracle the tests check wall detection against; no
library code calls it, and it and _canon_constraint are the only
Fraction code here.  Nothing here knows about lattices or bilinear forms.
Intended scale is rank <= 8 with up to a few hundred constraints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import PreconditionError

FrVec = tuple[Fraction, ...]

# an affine constraint: coeffs . x + const  (> 0 if strict else >= 0)
Constraint = tuple[FrVec, Fraction, bool]


def _canon_constraint(c: Constraint) -> Constraint:
    coeffs, const, strict = c
    nums = [x.numerator for x in coeffs] + [const.numerator]
    dens = [x.denominator for x in coeffs] + [const.denominator]
    scale = Fraction(lcm(*dens), gcd(*nums) or 1)
    return (tuple(x * scale for x in coeffs), const * scale, strict)


def fm_satisfiable(rows: Iterable[Constraint], nvars: int) -> bool:
    """Decide whether a system of affine (in)equalities has a solution.

    Classic Fourier-Motzkin elimination over the rationals; strictness
    propagates through combinations (sum of a strict and a weak
    inequality is strict).
    """
    cur = [(tuple(Fraction(x) for x in co), Fraction(k), bool(s)) for co, k, s in rows]
    for var in range(nvars):
        pos, neg, zero = [], [], []
        for co, k, s in cur:
            c = co[var]
            if c > 0:
                pos.append((co, k, s))
            elif c < 0:
                neg.append((co, k, s))
            else:
                zero.append((co, k, s))
        nxt = list(zero)
        for pco, pk, ps in pos:
            for nco, nk, ns in neg:
                a, b = pco[var], -nco[var]
                co = tuple(b * pco[j] + a * nco[j] for j in range(nvars))
                nxt.append((co, b * pk + a * nk, ps or ns))
        seen = set()
        cur = []
        for c in nxt:
            cc = _canon_constraint(c)
            if cc not in seen:
                seen.add(cc)
                cur.append(cc)
    for co, k, s in cur:
        if k < 0 or (k == 0 and s):
            return False
    return True


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def canonical_ray(v: Sequence[int]) -> tuple[int, ...]:
    """Primitive integer vector on the same ray (direction preserved)."""
    g = gcd(*v)
    if g == 0:
        raise PreconditionError("zero vector spans no ray")
    return tuple(x // g for x in v)


def _move(a: Sequence[int], u: tuple[int, ...], l0: tuple[int, ...], s: int) -> tuple[int, ...]:
    """u moved along l0 onto the hyperplane a . x = 0, for s = a . l0 > 0:
    the primitive vector of s*u - (a . u)*l0."""
    v = dot(a, u)
    return canonical_ray([s * x - v * y for x, y in zip(u, l0)]) if v else u


def _cut(a: Sequence[int], basis: list[tuple[int, ...]]):
    """Split the span of basis by the hyperplane a . x = 0.

    Returns None when a vanishes on every basis vector.  Otherwise the
    first basis vector l0 with a . l0 != 0, oriented so that
    s = a . l0 > 0, is the pivot, and the result is (l0, s, rest): rest is
    the other basis vectors moved onto the hyperplane along l0, a basis of
    the part of the span on it.
    """
    for k, l0 in enumerate(basis):
        s = dot(a, l0)
        if s:
            if s < 0:
                s, l0 = -s, tuple(-x for x in l0)
            return l0, s, basis[:k] + [_move(a, u, l0, s) for u in basis[k + 1:]]
    return None


def dd_generators(rows: Sequence[Sequence[int]], n: int):
    """Generators of the cone {x in R^n : a . x >= 0 for each row a}.

    Returns (lineality_basis, extreme_rays, incidence): primitive integer
    tuples whose lineality combinations plus nonnegative ray combinations
    are the cone, and incidence[i], the bitmask of the rays tight on
    rows[i].  Rows are used as given: a zero row is tight on every ray.

    Motzkin's double description over the integers, started from the
    whole space: no rays, and the unit vectors as lineality basis.  Rays
    are primitive integer vectors, and each ray carries the
    bitmask of the inserted rows it is tight on.  A row a that does not
    vanish on the lineality space cuts it (see _cut): the pivot l0 becomes
    a ray, tight on every earlier row, and each old ray moves along l0
    onto a-perp, which keeps it extreme, keeps its tight set and makes it
    tight on a.  After d cuts the cone modulo its lineality space is
    pointed of dimension d.  Any other row combines a ray on its positive
    side with one on its negative side only when the two are adjacent
    (Fukuda & Prodon 1996): their common tight set has at least d - 2
    members, and no third ray's tight set contains it.  Adjacent pairs
    give exactly the new extreme rays, so nothing needs pruning.
    """
    lin = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list[tuple[int, ...]] = []
    tight: list[int] = []
    for i, a in enumerate(rows):
        cut = _cut(a, lin)
        if cut is not None:
            l0, s, lin = cut
            rays = [_move(a, u, l0, s) for u in rays] + [l0]
            tight = [t | (1 << i) for t in tight] + [(1 << i) - 1]
            continue
        d = n - len(lin)
        vals = [dot(a, u) for u in rays]
        next_rays = [u for u, v in zip(rays, vals) if v >= 0]
        next_tight = [t | (1 << i) if v == 0 else t for t, v in zip(tight, vals) if v >= 0]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vn in enumerate(vals):
                if vn >= 0:
                    continue
                common = tight[p] & tight[q]
                if common.bit_count() < d - 2 or any(
                    t & common == common for k, t in enumerate(tight) if k != p and k != q
                ):
                    continue
                next_rays.append(canonical_ray([vp * x - vn * y for x, y in zip(rays[q], rays[p])]))
                next_tight.append(common | (1 << i))
        rays, tight = next_rays, next_tight
    incidence = [0] * len(rows)
    for k, t in enumerate(tight):
        while t:
            incidence[(t & -t).bit_length() - 1] |= 1 << k
            t &= t - 1
    return lin, rays, incidence
