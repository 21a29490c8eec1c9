"""Shared randomized generators and independent oracles.

Everything here is deliberately written from scratch against the
definitions, not by calling back into the code under test, so the test
suite has a second opinion on the hard parts (Pell solving, bounded
class enumeration, chamber walls, rank-2 boundary rays, section geometry
in `Fraction`s, the CLI's argparse parser). Two exceptions call the
library: the Eff/Mov duality round trip runs its double description
twice, as an oracle for the duality that `engine.analyze` proves, and
`_shell_points` is the engine's elimination followed by its walk, the
unscaled lister the frame tests compare against. Three more are the code
that a faster form replaced, kept as its reference: `reference_render_json`,
the report renderer by `json.dumps`, `per_root_weyl_reduce`, chamber
reduction with one Python step per root, and `full_period_pell`, the Pell
solver that walks the whole continued-fraction period.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from ihscone import Lattice, is_numerically_exceptional, norm, profiles
from ihscone.catalog import parse_type
from ihscone.engine import Rank2Report, RayDescriptor, _eliminate, _shell_frame, _walk
from ihscone.errors import BoundExceededError, MixedRationalityError, PreconditionError
from ihscone.lattice import det_int, divisibility, gram_vec, is_primitive, mat_vec, pairing
from ihscone.pell import is_perfect_square
from ihscone.polyhedra import canonical_ray, dd_generators, fm_satisfiable
from ihscone.weyl import ChamberReduction, _reflected, _root_image, reflect


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


def inverse(p) -> list[list]:
    """Exact inverse of a nonsingular integer matrix: its adjugate over
    det_int(p).  The inverse of a unimodular matrix comes back as ints."""
    k = len(p)
    det = det_int(p)
    assert det != 0

    def minor(i, j):
        return [[p[r][c] for c in range(k) if c != j] for r in range(k) if r != i]

    adj = [[(-1) ** (i + j) * det_int(minor(j, i)) for j in range(k)] for i in range(k)]
    if det in (1, -1):
        return [[det * x for x in row] for row in adj]
    return [[Fraction(x, det) for x in row] for row in adj]


def apply_matrix(m, v) -> tuple[int, ...]:
    return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m)))


def transported(rng: random.Random, base: Lattice, vectors, ops: int | None = None):
    """Rewrite (base, vectors) in a random basis.

    The new lattice is p^T G p; a vector v of the old lattice becomes
    p^{-1} v, which preserves all pairings, norms and divisibilities.
    """
    p = rand_unimodular(rng, base.rank, ops)
    pinv = inverse(p)
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


def full_period_pell(n: int) -> tuple[int, int]:
    """Fundamental solution of x^2 - n*y^2 = 1 from one whole period.

    Walks the continued fraction of sqrt(n) until a = 2*a0 closes the
    period, of length P; the last convergent before it has
    p^2 - n*q^2 = (-1)^P, and is squared when P is odd.
    """
    a0 = isqrt(n)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    period = 0
    while True:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        period += 1
        if a == 2 * a0:
            break
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    if period % 2:
        h, k = h * h + n * k * k, 2 * h * k
    return h, k


def cf_period(n: int) -> int:
    """Length of the continued-fraction period of sqrt(n)."""
    a0 = isqrt(n)
    m, d, a = 0, 1, a0
    period = 0
    while a != 2 * a0:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        period += 1
    return period


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


def _shell_points(p, b, c, base, cols) -> list[tuple[int, ...]]:
    """Images base + sum_i z_i cols[i] of the integer z with z^T p z - 2 b.z = c.

    p is a positive definite integer Gram: `_eliminate`, then `_walk` at the
    one level m = 1 with shift 0, whose image of z = 0 is base.
    """
    return _walk(*_eliminate(p, b, c), 0, base, cols, (1,))


def shell_z_points(p, b, c):
    """The integer points z of the shell z^T p z - 2 b.z = c, in lister order:
    `_shell_points` with base 0 and the identity columns, whose images are z."""
    k = len(p)
    identity = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return _shell_points(p, b, c, (0,) * k, identity)


def reference_profile_levels(lat: Lattice, dtype, ample, bound_b: int):
    """Classes of each ample-pairing level, rebuilt class by class.

    The per-class method the frame-based enumeration replaced: for level
    m = p // g (m = 0 first, then every pairing p = g, 2g, ... <= B) the
    translate m*x_unit, its pairings with the kernel and its norm come from
    `pairing` and `norm`, and every shell point is assembled coordinate by
    coordinate and kept when `is_primitive` holds and its `divisibility`
    is a multiple of an allowed profile divisor. It reuses the engine's
    split and shell lister, so it checks the class assembly only. Returns
    {m: [classes in shell order]}.
    """
    frame = _shell_frame(lat, dtype, ample)
    g, x_unit, kernel = frame.g, frame.x_unit, frame.kernel
    p_matrix = [[-pairing(lat, u, w) for w in kernel] for u in kernel]
    table = {}
    for prof in profiles(dtype):
        table.setdefault(prof.square, set()).add(prof.div)
    levels = {}
    for m in range(bound_b // g + 1):
        x_p = tuple(m * x for x in x_unit)
        b = [pairing(lat, x_p, u) for u in kernel]
        c0 = norm(lat, x_p)
        found = []
        for square in sorted(table):
            for z in shell_z_points(p_matrix, b, c0 - square):
                v = tuple(
                    x + sum(zi * u[r] for zi, u in zip(z, kernel))
                    for r, x in enumerate(x_p)
                )
                if is_primitive(lat, v) and any(
                    divisibility(lat, v) % d == 0 for d in table[square]
                ):
                    found.append(v)
        levels[m] = found
    return levels


@dataclass(frozen=True)
class _Surd:
    """a + b*sqrt(delta) with rational a, b; delta a fixed positive integer."""

    a: Fraction
    b: Fraction
    delta: int

    def __add__(self, other):
        return _Surd(self.a + other.a, self.b + other.b, self.delta)

    def __sub__(self, other):
        return _Surd(self.a - other.a, self.b - other.b, self.delta)

    def __mul__(self, other):
        return _Surd(
            self.a * other.a + self.b * other.b * self.delta,
            self.a * other.b + self.b * other.a,
            self.delta,
        )

    def __neg__(self):
        return _Surd(-self.a, -self.b, self.delta)

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, b * b * self.delta
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)


def _surd_cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def reference_rank2_rays(lat: Lattice, ample, bound: int, classes):
    """Rank-2 boundary rays by comparing every candidate with every other.

    The surd sweep the integer side split of `engine._rank2_report`
    replaced: the two isotropic rays and every class become oriented pairs
    of `_Surd`s, and ray1 (ray2) is the candidate with every other
    candidate counterclockwise (clockwise) of it, by surd cross products.
    Returns a `Rank2Report` or raises `MixedRationalityError` with the
    engine's message.
    """
    gm = lat.gram
    a, h, c = gm[0][0], gm[0][1], gm[1][1]
    delta = h * h - a * c
    assert delta > 0
    ga = gram_vec(lat, ample)

    def surd(x):
        return _Surd(Fraction(x), Fraction(0), delta)

    def rational_entry(vec):
        if sum(gi * vi for gi, vi in zip(ga, vec)) < 0:
            vec = tuple(-x for x in vec)
        return (surd(vec[0]), surd(vec[1])), RayDescriptor(rational=True, vector=canonical_ray(vec))

    candidates = []
    root = is_perfect_square(delta)
    if root is not None:
        dirs = [(-h + root, a), (-h - root, a)] if a != 0 else [(1, 0), (-c, 2 * h)]
        for d in sorted({canonical_ray(d) for d in dirs}):
            candidates.append(rational_entry(d))
    else:
        for sgn in (1, -1):
            x = _Surd(Fraction(-h), Fraction(sgn), delta)
            y = surd(a)
            orientation = (surd(ga[0]) * x + surd(ga[1]) * y).sign()
            assert orientation != 0
            if orientation < 0:
                x, y = -x, -y
            num_const, s, den = -h, sgn, a
            if den < 0:
                num_const, s, den = -num_const, -s, -den
            desc = RayDescriptor(rational=False, num_const=num_const, sign=s, delta=delta,
                                 den=den, orientation=orientation)
            candidates.append(((x, y), desc))
    candidates.extend(rational_entry(v) for v in classes)
    ray1 = next(d for u, d in candidates
                if all(_surd_cross(u, w).sign() >= 0 for w, _ in candidates))
    ray2 = next(d for u, d in candidates
                if all(_surd_cross(u, w).sign() <= 0 for w, _ in candidates))
    if ray1.rational != ray2.rational:
        rational, irrational = (ray1, ray2) if ray1.rational else (ray2, ray1)
        raise MixedRationalityError(
            "boundary rays mix rationality status within ample-pairing bound "
            f"{bound}: {rational.display()} is rational while "
            f"{irrational.display()} is irrational; either the bound hides an "
            "exceptional class on the open side or the lattice falls outside "
            "the guaranteed dichotomy"
        )
    return Rank2Report(ray1=ray1, ray2=ray2)


def reference_weyl_reduce(lat: Lattice, roots, v):
    """(representative, word, steps) of chamber reduction by `reflect`.

    The pivot is the root of most negative `pairing` with the current
    vector, lowest index first.
    """
    cur = tuple(v)
    word = []
    while True:
        vals = [pairing(lat, r, cur) for r in roots]
        worst = min(range(len(roots)), key=lambda i: (vals[i], i), default=None)
        if worst is None or vals[worst] >= 0:
            return cur, tuple(word), len(word)
        cur = reflect(lat, roots[worst], cur)
        word.append(tuple(roots[worst]))


def per_root_weyl_reduce(lat: Lattice, roots, v, max_steps: int = 10000):
    """`weyl.weyl_reduce` as it was with one Python step per root: each
    root's check, then each step's pairing, root by root. The reference
    for its errors, their order, the pivot, the word and the representative.
    """
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 0:
        raise PreconditionError(f"max_steps must be a nonnegative integer, got {max_steps!r}")
    rs = [lat.check_vector(r) for r in roots]
    for i, r in enumerate(rs):
        gr, q = _root_image(lat, r)
        if 2 * gcd(*gr) % q:
            raise PreconditionError("root %d does not define an integral reflection" % i)
    cur = lat.check_vector(v)
    if norm(lat, cur) < 0:
        raise PreconditionError(
            "vector to reduce must lie in the closed positive cone, norm is %d"
            % norm(lat, cur)
        )
    word = []
    while True:
        gcur = mat_vec(lat.gram, cur)
        pairings = [sum(a * b for a, b in zip(r, gcur)) for r in rs]
        worst_val = min(pairings, default=0)
        if worst_val >= 0:
            return ChamberReduction(cur, tuple(word), len(word))
        if len(word) >= max_steps:
            raise BoundExceededError(
                "chamber reduction did not terminate within %d steps" % max_steps
            )
        r = rs[pairings.index(worst_val)]
        cur = _reflected(cur, r, 2 * worst_val, norm(lat, r))
        word.append(r)


def near_boundary_vector(rng: random.Random, diag, span: int):
    """A vector of small nonnegative norm on diag(diag) whose tail
    coordinates lie in [-span, span], so that chamber reduction takes steps."""
    tail = [rng.randint(-span, span) for _ in diag[1:]]
    deficit = -sum(d * y * y for d, y in zip(diag[1:], tail))
    x0 = max(1, isqrt(-(-deficit // diag[0])))
    while diag[0] * x0 * x0 < deficit:
        x0 += 1
    return (x0, *tail)


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


def same_ray_set(a, b) -> bool:
    return sorted(canonical_ray(v) for v in a) == sorted(canonical_ray(v) for v in b)


def duality_round_trip(lat: Lattice, walls) -> bool:
    """Check Eff/Mov duality on the walls by two double-description passes.

    The movable candidate's linear part is C' = {x : pairing(x, w) >= 0 for
    each wall w}. Its generators must pair nonnegatively with every wall,
    and its dual under the pairing must be pointed and generated by the
    walls again. `engine.analyze` proves this instead of computing it.
    """
    n = lat.rank
    lineality, generators, _ = dd_generators([gram_vec(lat, w) for w in walls], n)
    for w in walls:
        if any(pairing(lat, w, gen) < 0 for gen in generators):
            return False
        if any(pairing(lat, w, lin) != 0 for lin in lineality):
            return False
    dual_rows = [gram_vec(lat, gen) for gen in generators]
    for lin in lineality:
        row = gram_vec(lat, lin)
        dual_rows.append(row)
        dual_rows.append(tuple(-x for x in row))
    lin2, rays2, _ = dd_generators(dual_rows, n)
    return not lin2 and same_ray_set(rays2, walls)


def rank_is_wall(lineality, rays, row) -> bool:
    """Wall test by rank: row-perp cuts the full-dimensional cone with
    these generators in a facet iff the lineality basis and the rays
    tight on row span a space of dimension n - 1."""
    n = len(row)
    tight = [u for u in rays if sum(a * b for a, b in zip(row, u)) == 0]
    return len(_echelon(list(lineality) + tight, n)[0]) == n - 1


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


# blocks of known signature: (gram, signature, a vector of positive norm or None)
_SIGNATURE_BLOCKS = (
    (((0, 1), (1, 0)), (1, 1), (1, 1)),
    (((0, 3), (3, 0)), (1, 1), (1, 1)),
    (((2, 1), (1, -2)), (1, 1), (1, 0)),
    (((2, -1), (-1, 2)), (2, 0), (1, 0)),
    (((-2, 1), (1, -2)), (0, 2), None),
)


def signature_corpus():
    """(lattice, ample, signature) for seeded nondegenerate Gram matrices of
    every signature (pos, neg) at rank 1-6, each followed by a sheared copy.

    Each Gram is block diagonal, from 1x1 blocks of either sign and 2x2
    blocks of known signature, so its signature is known without computing
    it; a unimodular congruence keeps it (Sylvester's law of inertia). The
    ample class has positive norm whenever pos > 0, and is any nonzero
    vector, of negative norm, when the form is negative definite.
    """
    rng = random.Random(1852)
    for n in range(1, 7):
        for pos in range(n + 1):
            for _ in range(3):
                blocks, have = [], [0, 0]
                while have[0] < pos or have[1] < n - pos:
                    gram, sig, vec = rng.choice(_SIGNATURE_BLOCKS)
                    if have[0] + sig[0] > pos or have[1] + sig[1] > n - pos:
                        sign = 1 if have[0] < pos else -1
                        gram, sig = ((sign * rng.randint(1, 6),),), (int(sign > 0), int(sign < 0))
                        vec = (1,) if sign > 0 else None
                    blocks.append((gram, vec))
                    have = [have[0] + sig[0], have[1] + sig[1]]
                rng.shuffle(blocks)
                rows, positive, at = [], None, 0
                for gram, vec in blocks:
                    k = len(gram)
                    rows += [(0,) * at + row + (0,) * (n - at - k) for row in gram]
                    if vec is not None and positive is None:
                        positive = (0,) * at + vec + (0,) * (n - at - k)
                    at += k
                base = Lattice(tuple(rows))
                ample = positive or rand_primitive(rng, n, 2)
                for _ in range(20):
                    v = tuple(rng.randint(-2, 2) for _ in range(n))
                    if any(v) and norm(base, v) > 0:
                        ample = v
                        break
                yield base, ample, (pos, n - pos)
                lat, (moved,) = transported(rng, base, [ample])
                yield lat, moved, (pos, n - pos)


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


SECTION_TYPES = (
    ("K3", None), ("K3[n]", 2), ("K3[n]", 3), ("Kum[n]", 2), ("OG6", None), ("OG10", None)
)


def rand_sheared_section(rng: random.Random):
    """(type, lattice, ample, bound) for a rank-3 section: a diagonal form
    and a positive vector in a random basis of 6-20 shears, whose kernel
    Gram matrix can be ill-conditioned."""
    tag, n = rng.choice(SECTION_TYPES)
    base = Lattice(rand_diag_gram(rng, 3, pos_max=6, neg_max=8))
    while True:
        a0 = (rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2))
        if norm(base, a0) > 0:
            break
    lat, (ample,) = transported(rng, base, [a0], ops=rng.randint(6, 20))
    return parse_type(tag, n), lat, ample, rng.randint(4, 24)


# ------------------------------------------------------- section geometry
# The chord and marker formulas of `svg` evaluated in `Fraction`s, each
# float taken from an exact rational at the end.

def fraction_wall_chord(p, qa: int, wall, w0: int, w1: int, w2: int):
    """Endpoints of {pairing(x, wall) = 0} on the boundary ellipse.

    In chart coordinates the wall is w0 + s*w1 + t*w2 = 0 with w0 > 0; the
    line always crosses the ellipse interior because the wall hyperplane of a
    negative class meets the positive cone.
    """
    # point on the line nearest the origin in the (s, t) chart, direction along it
    den = w1 * w1 + w2 * w2
    base = (Fraction(-w0 * w1, den), Fraction(-w0 * w2, den))
    direction = (Fraction(-w2), Fraction(w1))
    # quadratic A tau^2 + 2 B tau + C = 0 for base + tau*direction on the ellipse
    def form(x, y):
        return p[0][0] * x[0] * y[0] + p[0][1] * (x[0] * y[1] + x[1] * y[0]) + p[1][1] * x[1] * y[1]

    a2 = form(direction, direction)
    b1 = form(base, direction)
    c0 = form(base, base) - qa
    disc = b1 * b1 - a2 * c0
    if disc <= 0:
        raise PreconditionError(
            f"wall {wall} does not cross the positive-cone section"
        )
    root = math.sqrt(float(disc))
    taus = ((-float(b1) - root) / float(a2), (-float(b1) + root) / float(a2))
    return [
        (float(base[0]) + tau * float(direction[0]), float(base[1]) + tau * float(direction[1]))
        for tau in taus
    ]


def fraction_ray_point(p, qa: int, ray, w0: int, w1: int, w2: int):
    """Chart coordinates (s, t) where the ray meets the section plane.

    The ray meets it at (qa/w0)*ray = ample + s*u1 + t*u2. The kernel
    vectors pair to 0 with the ample class, so pairing both sides with u1
    and u2 gives (qa/w0)*(w1, w2) = -p (s, t).
    """
    if w0 <= 0:
        raise PreconditionError(f"ray {ray} does not meet the ample section")
    lam = Fraction(qa, w0)
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    s = -lam * (p[1][1] * w1 - p[0][1] * w2) / det
    t = -lam * (p[0][0] * w2 - p[1][0] * w1) / det
    return float(s), float(t)


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser as written before the option table: the
    reference for its usage, help and error text."""
    parser = argparse.ArgumentParser(
        prog="ihscone",
        description="Exact cone analysis for hyperbolic Picard-type lattices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("analyze", "enumerate", "reduce", "alpha", "pell", "plot-section", "rank2"):
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True, help="path to the JSON input document")
        sp.add_argument("--output", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "pretty"), default="json")
        if name in ("analyze", "enumerate", "reduce", "rank2", "plot-section"):
            sp.add_argument("--bound", type=int, help="override max_ample_pairing")
        if name == "reduce":
            sp.add_argument("--max-steps", type=int, default=10000)
    return parser


# ------------------------------------------------------------ report text

def _reference_stringify(obj):
    """Integers to decimal strings, recursively, in insertion order;
    booleans stay booleans; an integer over the digit limit raises the
    CLI's BoundExceededError."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError as exc:
            raise BoundExceededError(
                f"a {obj.bit_length()}-bit integer in the report has more than the "
                f"interpreter's limit of {sys.get_int_max_str_digits()} decimal digits; "
                "set PYTHONINTMAXSTRDIGITS to raise the limit (0 removes it)"
            ) from exc
    if isinstance(obj, (list, tuple)):
        return [_reference_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _reference_stringify(v) for k, v in obj.items()}
    return obj


def reference_render_json(report, fmt: str) -> str:
    """A report's text as the CLI wrote it before its one writer: integers
    stringified, then `json.dumps` with sorted keys, compact or indented."""
    payload = _reference_stringify(report)
    if fmt == "pretty":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
