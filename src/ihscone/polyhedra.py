"""Exact polyhedral-cone routines at small rank: double description,
rref/kernel, ray canonicalization, and Fourier-Motzkin feasibility.

dd_generators is the library's one polyhedral engine; it runs over the
integers.  fm_satisfiable is kept as the independent oracle the tests
check wall detection against; no library code calls it.  Nothing here
knows about lattices or bilinear forms.  Intended scale is rank <= 8
with up to a few hundred constraints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def kernel_basis(rows: Sequence[Sequence[Fraction]], n: int) -> list[FrVec]:
    """Basis of {x in Q^n : row . x = 0 for every row}."""
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def canonical_ray(v: Sequence) -> tuple[int, ...]:
    """Primitive integer vector on the same ray (direction preserved)."""
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        raise ValueError("zero vector spans no ray")
    mult = lcm(*(x.denominator for x in fr))
    ints = [int(x * mult) for x in fr]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def dd_generators(ineq_rows: Sequence[Sequence[Fraction]], n: int):
    """Generators of the cone {x in R^n : a . x >= 0 for each row a}.

    Returns (lineality_basis, extreme_rays), both lists of primitive
    integer tuples; the cone is the set of lineality combinations plus
    nonnegative ray combinations.  The rays lie in the span of the unit
    vectors at the pivot columns of the rows, a complement of the
    lineality space, where the cone is pointed.

    Motzkin's double description over the integers: rows and rays are
    primitive integer vectors, and each ray carries the bitmask of the
    inserted rows it is tight on.  Inserting a row combines a ray on its
    positive side with one on its negative side only when the two are
    adjacent (Fukuda & Prodon 1996): their common tight set has at least
    r - 2 members, r the rank of the rows, and no third ray's tight set
    contains it.  Adjacent pairs give exactly the new extreme rays, so
    nothing needs pruning.
    """
    rows = [canonical_ray(r) for r in ineq_rows if any(x != 0 for x in r)]
    lin = [canonical_ray(b) for b in kernel_basis(rows, n)]
    if not rows:
        return lin, []
    # reduced coordinates: the pivot columns span a complement of lin
    _, pivots = rref(rows)
    r = len(pivots)
    B = [tuple(row[p] for p in pivots) for row in rows]

    # initial simplicial cone: the first r independent reduced rows (the
    # pivot columns of B's transpose); ray j is tight on all of them but j
    _, chosen = rref(list(zip(*B)))
    inv = invert_matrix([B[i] for i in chosen])
    rays = [canonical_ray([inv[i][j] for i in range(r)]) for j in range(r)]
    tight = [sum(1 << i for i in chosen if i != c) for c in chosen]

    for i in (i for i in range(len(B)) if i not in chosen):
        vals = [_dot(B[i], u) for u in rays]
        next_rays = [u for u, v in zip(rays, vals) if v >= 0]
        next_tight = [t | (1 << i) if v == 0 else t for t, v in zip(tight, vals) if v >= 0]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vn in enumerate(vals):
                if vn >= 0:
                    continue
                common = tight[p] & tight[q]
                if common.bit_count() < r - 2 or any(
                    t & common == common for k, t in enumerate(tight) if k != p and k != q
                ):
                    continue
                cand = [vp * x - vn * y for x, y in zip(rays[q], rays[p])]
                g = gcd(*cand)
                next_rays.append(tuple(x // g for x in cand))
                next_tight.append(common | (1 << i))
        rays, tight = next_rays, next_tight
    # lift back to R^n
    lifted = []
    for u in rays:
        x = [0] * n
        for j, p in enumerate(pivots):
            x[p] = u[j]
        lifted.append(tuple(x))
    return lin, lifted


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def invert_matrix(m):
    """Exact inverse of a square matrix over the rationals."""
    n = len(m)
    aug = [list(map(Fraction, m[i])) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, piv = rref(aug)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def same_ray_set(a: Iterable[Sequence[int]], b: Iterable[Sequence[int]]) -> bool:
    return sorted(canonical_ray(v) for v in a) == sorted(canonical_ray(v) for v in b)
