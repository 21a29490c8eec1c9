"""Bounded cone analysis: class enumeration, chamber walls, verdicts, reports.

Everything here is exact. The only concession to computability is the
ample-pairing bound B: all statements about "the" exceptional classes are
truncated to classes v with 0 < pairing(v, ample) <= B, and every report
names that truncation.

Classes of a profile with a fixed ample pairing lie on the shell of an
ellipsoid; `_eliminate` reduces it by fraction-free integer elimination and
`_walk` lists its integer points, so the search uses integers only. Their
output order is fixed because the ample-wall witness printed in reports is
the first class it meets. The integer data a shell point needs to become a
class (each kernel vector with its Gram image, the pairing-g translate, the
profile table) and the elimination itself are built once per analysis in a
`_ShellFrame`: every pairing level and profile square scales the frame's
elimination (k + 1 integers) instead of eliminating again. The walk carries
each point's class and its Gram image down the recursion, so a point costs
one vector step and two gcds; the ample-wall witness and the SVG chart
reuse the frame.

Chamber walls come from the incidence of one double-description pass over
the found classes and the ample class. The `analyze` docstring proves those
walls are already the extremal rays of the pseudo-effective candidate,
dual to the movable half-spaces, so no second pass checks it, and
`ConeAnalysis.chamber_walls` is all three lists. Each result type holds
each fact once; the finiteness and Mori-dream-space reports are computed
on demand by `finiteness_report` and `mds_classify`.

At rank 2 the two boundary rays come from splitting the classes by the
side of the ample class they lie on: each ray is the outermost class on
its side, or that side's isotropic ray when the side has none. Signs of
a + b*sqrt(delta) decide the irrational isotropic rays, in integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .catalog import DeformationType, div_matches, profile_table
from .errors import (
    BoundExceededError,
    ContractViolationError,
    MixedRationalityError,
    PreconditionError,
    SignatureError,
)
from .lattice import (
    Lattice,
    Vec,
    gram_vec,
    norm,
    signature,
    smith_normal_form,
)
from .pell import INDEX_CAP, is_perfect_square
from .polyhedra import canonical_ray, dd_generators, dot
from .weyl import is_chamber_wall

VERDICT_CIRCULAR = "CircularUpToBound"
VERDICT_POLYHEDRAL = "PolyhedralCandidate"


@dataclass(frozen=True)
class EnumerationBound:
    """Truncation knobs for the otherwise-infinite searches."""

    max_ample_pairing: int = 10
    wall_test_limit: int = 8
    pell_index_cap: int = INDEX_CAP

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise PreconditionError(f"{f.name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class RayDescriptor:
    """Exact description of a rank-2 boundary ray.

    Rational rays carry a primitive integer vector. Irrational rays describe
    the direction orientation * ((num_const + sign*sqrt(delta)) / den, 1)
    with den > 0; delta is the (nonsquare) discriminant of the binary form.
    """

    rational: bool
    vector: Optional[Vec] = None
    num_const: Optional[int] = None
    sign: Optional[int] = None
    delta: Optional[int] = None
    den: Optional[int] = None
    orientation: Optional[int] = None

    def display(self) -> str:
        if self.rational:
            return str(tuple(self.vector))
        sgn = "+" if self.sign > 0 else "-"
        core = f"({self.num_const} {sgn} sqrt({self.delta}))/{self.den}"
        prefix = "" if self.orientation > 0 else "-"
        return f"{prefix}({core}, 1)"


@dataclass(frozen=True)
class Rank2Report:
    ray1: RayDescriptor
    ray2: RayDescriptor

    @property
    def both_rational(self) -> bool:
        return self.ray1.rational and self.ray2.rational


@dataclass(frozen=True)
class FinitenessReport:
    eff_rational_polyhedral_up_to_bound: bool
    equivalence_applicable: bool
    caveat: str


@dataclass(frozen=True)
class MDSReport:
    is_mds: bool
    reason: str


@dataclass(frozen=True)
class ConeAnalysis:
    lattice: Lattice
    type: DeformationType
    ample: Vec
    bound: EnumerationBound
    exceptional_found: tuple[Vec, ...]
    chamber_walls: tuple[Vec, ...]
    rank2: Optional[Rank2Report] = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def verdict(self) -> str:
        return VERDICT_POLYHEDRAL if self.exceptional_found else VERDICT_CIRCULAR


# ---------------------------------------------------------------------------
# exact ellipsoid shell enumeration


def _eliminate(p, b, c):
    """Fraction-free (Bareiss) elimination of the shell z^T p z - 2 b.z = c.

    Eliminating z_0, ..., z_{k-1} from the bordered matrix
    [[p, -b], [-b^T, -c]] gives, for Q_0 = z^T p z - 2 b.z - c,

        a_i Q_i = (a_i z_i + L_i)^2 + prev_i Q_{i+1},

    where Q_i and L_i involve only z_i, ..., z_{k-1}, a_i > 0 is the
    leading principal minor of p of size i + 1 and prev_i = a_{i-1}
    (prev_0 = 1); every division is exact by Sylvester's identity.
    Returns (levels, border, rem): levels[i] = (a_i, row_i, prev_i) with
    row_i the p-part of pivot row i (the coefficients of z_{i+1}, ...,
    z_{k-1} in L_i), border[i] the constant term of L_i, and rem = -Q_k,
    the constant left once every z_i is eliminated. A non-positive pivot
    raises `ContractViolationError`: p is not positive definite.
    """
    k = len(p)
    m = [list(row) + [-bi] for row, bi in zip(p, b)] + [[-bi for bi in b] + [-c]]
    levels = []
    border = []
    prev = 1
    for _ in range(k):
        a, row = m[0][0], m[0][1:]
        if a <= 0:
            raise ContractViolationError("quadratic form is not positive definite")
        levels.append((a, tuple(row[:-1]), prev))
        border.append(row[-1])
        m = [
            [(a * x - ri * rj) // prev for x, rj in zip(mrow[1:], row)]
            for mrow, ri in zip(m[1:], row)
        ]
        prev = a
    return tuple(levels), tuple(border), -m[0][0]


def _walk(levels, border, rem, base, cols) -> list[tuple[int, ...]]:
    """Images base + sum_i z_i cols[i] of the shell points of an elimination.

    (levels, border, rem) is what `_eliminate` returns, or a frame's
    elimination scaled to one level and square (`_profile_classes`). On
    the shell Q_0 = 0 each rem_i = -Q_i is a nonnegative integer, so once
    z_{i+1}, ..., z_{k-1} are fixed, (a_i z_i + L_i)^2 <= prev_i rem_{i+1}
    gives z_i an exact integer interval, and at the last level the equality
    (a_0 z_0 + L_0)^2 = rem_1 leaves at most two roots (Fincke & Pohst's
    recursion restricted to the boundary). Points come out in ascending
    (z_{k-1}, ..., z_0) order.

    Setting z_i at level i adds z_i cols[i] to the partial image the next
    level receives, so a point costs one vector step, not one dot product
    per coordinate. Level 0 is solved inside the level-1 loop: a level-1
    child whose rem_1 is not a square costs one isqrt and no vector step.
    With base = 0 and cols the identity the images are the points z.
    """
    k = len(levels)
    if rem < 0:
        return []
    if k == 0:
        return [tuple(base)] if rem == 0 else []
    if k == 1:
        r = math.isqrt(rem)
        if r * r != rem:
            return []
    out: list[tuple[int, ...]] = []
    z = [0] * k
    a0, row0, _ = levels[0]
    col0 = cols[0]

    def leaf(r: int, lin0: int, w) -> None:
        # the roots z_0 of (a_0 z_0 + L_0)^2 = r^2
        for t in ((-r, r) if r else (0,)):
            z0, off = divmod(t - lin0, a0)
            if off == 0:
                out.append(tuple([x + z0 * y for x, y in zip(w, col0)]))

    def rec(i: int, rem: int, w) -> None:
        a, row, prev = levels[i]
        lin = sum(map(mul, row, z[i + 1:])) + border[i]
        top = prev * rem
        s = math.isqrt(top)
        col = cols[i]
        zs = range(-((lin + s) // a), (s - lin) // a + 1)
        if i > 1:
            for zi in zs:
                z[i] = zi
                t = a * zi + lin
                rec(i - 1, (top - t * t) // a, [x + zi * y for x, y in zip(w, col)])
            return
        # L_0 = row0[0] z_1 + (the part fixed above level 1)
        lin0 = sum(map(mul, row0[1:], z[2:])) + border[0]
        for zi in zs:
            t = a * zi + lin
            rem0 = (top - t * t) // a
            r = math.isqrt(rem0)
            if r * r == rem0:
                leaf(r, lin0 + row0[0] * zi, [x + zi * y for x, y in zip(w, col)])

    if k == 1:
        leaf(r, border[0], base)
    else:
        rec(k - 1, rem, base)
    return out


def _shell_points(p, b, c, base, cols) -> list[tuple[int, ...]]:
    """Images base + sum_i z_i cols[i] of the integer z with z^T p z - 2 b.z = c.

    p is a positive definite integer Gram: `_eliminate`, then `_walk`.
    """
    return _walk(*_eliminate(p, b, c), base, cols)


# ---------------------------------------------------------------------------
# enumeration


def _ample_frame(lattice: Lattice, ample: Vec):
    """Split Z^n along the ample functional.

    Returns (g, x_unit, kernel) with g = divisibility of the ample class,
    a.x_unit = g for the functional a = gram_vec(ample), and kernel an
    integer basis of {u : a.u = 0}. Every v with pairing(v, ample) = p
    (necessarily g | p) is (p//g)*x_unit + an integer kernel combination.
    """
    a = gram_vec(lattice, ample)
    diag, u_tr, v_tr = smith_normal_form((a,))
    g = diag[0][0]
    sgn = u_tr[0][0]
    n = lattice.rank
    cols = [tuple(v_tr[r][i] for r in range(n)) for i in range(n)]
    x_unit = tuple(sgn * x for x in cols[0])
    kernel = cols[1:]
    if sum(ai * xi for ai, xi in zip(a, x_unit)) != g:
        raise ContractViolationError("Smith form did not split off the ample functional")
    return g, x_unit, kernel


def _check_analysis_input(lattice: Lattice, ample: Vec) -> None:
    sig = signature(lattice)
    if sig != (1, lattice.rank - 1):
        raise SignatureError(
            f"expected signature (1, {lattice.rank - 1}), got {sig}"
        )
    lattice.check_vector(ample)
    if norm(lattice, ample) <= 0:
        raise PreconditionError(
            f"ample class must have positive norm, got {norm(lattice, ample)}"
        )


@dataclass(frozen=True)
class _ShellFrame:
    """Integer data every shell class of one lattice, type and ample class needs.

    With g, x_unit and the kernel basis K of `_ample_frame` and G the
    Gram matrix: columns[i] = u || G u for the i-th kernel vector u, so
    a class v = m x_unit + K z and its pairing vector G v are the two
    halves of one affine image m (x_unit || G x_unit) + sum_i z_i columns[i];
    p_matrix is the positive definite -K^T G K, x_unit and
    gram_x_unit = G x_unit describe the pairing-g translate, and div_table
    is `profile_table(t)`.

    levels, border_unit and rem_unit are `_eliminate` run once on
    (p_matrix, b_unit, c_unit) with b_unit = K^T G x_unit and
    c_unit = norm(x_unit); `_profile_classes` scales them to every level
    and square instead of eliminating again. Building the frame is
    therefore where a p_matrix that is not positive definite raises.
    """

    g: int
    columns: tuple[Vec, ...]
    p_matrix: tuple[Vec, ...]
    x_unit: Vec
    gram_x_unit: Vec
    levels: tuple[tuple[int, Vec, int], ...]
    border_unit: Vec
    rem_unit: int
    div_table: tuple[tuple[int, tuple[int, ...]], ...]


# the ample-wall witness and the SVG chart reuse the frame enumeration built
@lru_cache(maxsize=1)
def _shell_frame(lattice: Lattice, t: DeformationType, ample: Vec) -> _ShellFrame:
    g, x_unit, kernel = _ample_frame(lattice, ample)
    gram_kernel = [gram_vec(lattice, u) for u in kernel]
    gram_x_unit = gram_vec(lattice, x_unit)
    p_matrix = tuple(tuple(-dot(u, gw) for gw in gram_kernel) for u in kernel)
    levels, border_unit, rem_unit = _eliminate(
        p_matrix,
        [dot(u, gram_x_unit) for u in kernel],
        dot(x_unit, gram_x_unit),
    )
    return _ShellFrame(
        g=g,
        columns=tuple(u + gu for u, gu in zip(kernel, gram_kernel)),
        p_matrix=p_matrix,
        x_unit=x_unit,
        gram_x_unit=gram_x_unit,
        levels=levels,
        border_unit=border_unit,
        rem_unit=rem_unit,
        div_table=profile_table(t),
    )


def _profile_classes(frame: _ShellFrame, m: int):
    """Profile-matching primitive classes of pairing level m, in shell order.

    The classes are v = m x_unit + K z. By bilinearity the level-m translate
    x_p = m x_unit has G x_p = m G x_unit, b = K^T G x_p = m b_unit and
    norm(x_p) = m^2 c_unit exactly, and norm(v) = norm(x_p) + 2 b.z - z^T p z,
    so norm = square is the shell equation z^T p z - 2 b.z = c with
    c = m^2 c_unit - square.

    Its elimination is the frame's, scaled. By Sylvester's identity each
    entry of a pivot row is a minor of the bordered matrix
    [[p, -b], [-b^T, -c]]; the p-part does not involve b or c, and the
    border entry has one column from -b and none from c, so it is linear
    in b: m border_unit. The last corner is the whole determinant,
    -det(p) c - b^T adj(p) b, so with b = m b_unit and c as above

        rem = -(last corner) = m^2 (det(p) c_unit + b_unit^T adj(p) b_unit)
              - det(p) square = m^2 rem_unit - det(p) square,

    where det(p) is the last pivot a_{k-1} (1 when k = 0). A level
    therefore starts from k + 1 integers, and the point order and every
    integer are those of `_shell_points(p, m b_unit, m^2 c_unit - square, ...)`.

    Squares are visited in ascending order. `_walk` carries each point's
    image w = (x_p || G x_p) + sum_i z_i columns[i] down its recursion, so
    w is v followed by G v. gcd(v) is tested first: a non-primitive v is
    dropped whatever its divisibility, which is gcd(G v).
    """
    n = len(frame.x_unit)
    base = [m * x for x in frame.x_unit + frame.gram_x_unit]
    border = [m * x for x in frame.border_unit]
    rem0 = m * m * frame.rem_unit
    det_p = frame.levels[-1][0] if frame.levels else 1
    for square, allowed in frame.div_table:
        for w in _walk(frame.levels, border, rem0 - det_p * square, base, frame.columns):
            v = w[:n]
            if math.gcd(*v) == 1 and div_matches(math.gcd(*w[n:]), allowed):
                yield v


def enumerate_exceptional(
    lattice: Lattice,
    t: DeformationType,
    ample: Vec,
    bound: Optional[EnumerationBound] = None,
) -> tuple[Vec, ...]:
    """All primitive classes matching a profile of t with ample-pairing in (0, B].

    Complete within the bound: for each attainable pairing value p the affine
    set {v : pairing(v, ample) = p} is a translated sublattice on which the
    form is negative definite, so the profile equation norm(v) = square cuts
    out the shell of an ellipsoid. `_walk` lists exactly its integer
    points from a fraction-free integer elimination; no point inside the
    shell is visited. The integer data of the split and its elimination
    (`_ShellFrame`) are built once, and each level m = p // g scales them,
    so a shell point costs one vector step. Output is sorted
    lexicographically; canonical sign (positive ample-pairing) is
    automatic, and no class repeats: [x_unit | K] is unimodular, so
    v = m x_unit + K z is injective, and squares differ.
    """
    bound = bound or EnumerationBound()
    _check_analysis_input(lattice, ample)
    frame = _shell_frame(lattice, t, tuple(ample))
    found: list[Vec] = []
    for p in range(frame.g, bound.max_ample_pairing + 1, frame.g):
        found.extend(_profile_classes(frame, p // frame.g))
    return tuple(sorted(found))


def _ample_wall_witness(
    lattice: Lattice, t: DeformationType, ample: Vec
) -> Optional[Vec]:
    """A profile-matching class orthogonal to the ample class, if one exists.

    The first class in shell order at level m = 0 is returned; reports
    print it, so the order of `_walk` is part of the output.
    """
    return next(_profile_classes(_shell_frame(lattice, t, tuple(ample)), 0), None)


# ---------------------------------------------------------------------------
# rank-2 boundary rays, integer side split


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _surd_sign(p: int, q: int, delta: int) -> int:
    """Sign of p + q*sqrt(delta) for integers p, q and a nonsquare delta > 0.

    With opposite signs the larger of p^2 and q^2*delta wins; they are
    never equal, since delta is not a square.
    """
    sp, sq = _sign(p), _sign(q)
    if sp == sq or sq == 0:
        return sp
    if sp == 0:
        return sq
    return sp if p * p > q * q * delta else sq


def _rank2_report(
    lattice: Lattice,
    ample: Vec,
    bound: EnumerationBound,
    classes: Sequence[Vec],
) -> Rank2Report:
    """Boundary rays clockwise (ray1) and counterclockwise (ray2) of the ample class A.

    A vector v lies clockwise of A when cross(A, v) = A_0 v_1 - A_1 v_0 < 0
    and counterclockwise when it is > 0. Every class pairs positively with
    A and has negative norm, so it is never parallel to A and lies outside
    the positive cone, beyond the isotropic ray on its own side. The
    candidates (both isotropic rays and every class) all lie in the open
    half-plane paired positively with A, where cross orders them by angle.
    So the boundary ray on a side is the outermost class on that side,
    found in one scan, or the side's isotropic ray when no class lies there.

    The isotropic rays are (-h +- sqrt(delta), a) for the form
    a x^2 + 2h xy + c y^2 with delta = h^2 - ac, or (1, 0) and (-c, 2h)
    when a = 0. For a square delta they are integer vectors, and each
    enters its side's scan first, as the ray to beat. Otherwise their
    orientation (sign of the ample pairing) and their side are signs of
    p + q*sqrt(delta), which `_surd_sign` decides in integers.
    """
    gm = lattice.gram
    a, h, c = gm[0][0], gm[0][1], gm[1][1]
    delta = h * h - a * c
    if delta <= 0:
        raise ContractViolationError("hyperbolic plane must have positive discriminant")
    ga = gram_vec(lattice, ample)
    # keyed by side: -1 clockwise, 1 counterclockwise
    rays: dict[int, RayDescriptor] = {}
    outermost: dict[int, Vec] = {}
    root = is_perfect_square(delta)
    if root is not None:
        dirs = [(-h + root, a), (-h - root, a)] if a != 0 else [(1, 0), (-c, 2 * h)]
        for d in dirs:
            d = tuple(_sign(dot(ga, d)) * x for x in d)
            outermost[_sign(_cross(ample, d))] = d
    else:
        for s in (1, -1):
            orientation = _surd_sign(a * ga[1] - h * ga[0], s * ga[0], delta)
            side = orientation * _surd_sign(a * ample[0] + h * ample[1], -s * ample[1], delta)
            num_const, sign, den = (-h, s, a) if a > 0 else (h, -s, -a)
            rays[side] = RayDescriptor(
                rational=False,
                num_const=num_const,
                sign=sign,
                delta=delta,
                den=den,
                orientation=orientation,
            )
    for v in classes:
        side = _sign(_cross(ample, v))
        w = outermost.get(side)
        if w is None or side * _cross(w, v) > 0:
            outermost[side] = v
    for side, v in outermost.items():
        rays[side] = RayDescriptor(rational=True, vector=canonical_ray(v))
    ray1, ray2 = rays[-1], rays[1]
    if ray1.rational != ray2.rational:
        rational, irrational = (ray1, ray2) if ray1.rational else (ray2, ray1)
        raise MixedRationalityError(
            "boundary rays mix rationality status within ample-pairing bound "
            f"{bound.max_ample_pairing}: {rational.display()} is rational while "
            f"{irrational.display()} is irrational; either the bound hides an "
            "exceptional class on the open side or the lattice falls outside "
            "the guaranteed dichotomy"
        )
    return Rank2Report(ray1=ray1, ray2=ray2)


def classify_rank2(
    lattice: Lattice,
    t: DeformationType,
    ample: Vec,
    bound: Optional[EnumerationBound] = None,
) -> Rank2Report:
    """Boundary rays of the rank-2 pseudo-effective candidate, exactly."""
    if lattice.rank != 2:
        raise PreconditionError(f"rank-2 classification needs rank 2, got {lattice.rank}")
    bound = bound or EnumerationBound()
    classes = enumerate_exceptional(lattice, t, ample, bound)
    return _rank2_report(lattice, ample, bound, classes)


# ---------------------------------------------------------------------------
# the pipeline


def analyze(
    lattice: Lattice,
    t: DeformationType,
    ample: Vec,
    bound: Optional[EnumerationBound] = None,
) -> ConeAnalysis:
    """Full bounded cone analysis.

    Enumerate classes; decide the dichotomy verdict; on the polyhedral branch
    compute the chamber's generators with one double-description pass and
    read the walls off its incidence; at rank 2 attach the boundary-ray report.
    `finiteness_report` and `mds_classify` derive the other reports.

    The walls need no second pass to be the extremal rays, because duality
    between them and the movable half-spaces is already proven. Let C be
    the chamber {x : pairing(x, r) >= 0 for every found class r and for the
    ample class} and C' = {x : pairing(x, w) >= 0 for each wall w}. The
    ample class pairs positively with every row of C, so C is
    full-dimensional. Each wall w is a facet of C, and C lies in C', so
    the face of C' on w-perp contains a facet of C: no wall is redundant
    for C'. The walls are distinct primitive classes, so no two are
    positively proportional. C' contains C and is full-dimensional, so by
    Farkas' lemma its dual under the pairing is cone(walls), which is
    pointed, and its extreme rays are exactly the walls. With no walls,
    C' is the whole space and its dual is {0}, the cone of no rays.
    `tests/helpers.duality_round_trip` re-derives this by two more
    double-description passes, as a test oracle.
    """
    bound = bound or EnumerationBound()
    classes = enumerate_exceptional(lattice, t, ample, bound)
    n = lattice.rank
    notes: list[str] = []
    witness = _ample_wall_witness(lattice, t, ample)
    if witness is not None:
        notes.append(
            f"ample class is orthogonal to the profile-matching class "
            f"{witness}; that wall is invisible to the bounded enumeration "
            "(ample-pairing 0) and the chamber is computed relative to the "
            "found classes only"
        )
    if not classes:
        walls: tuple[Vec, ...] = ()
        notes.append(
            "no exceptional classes up to the bound; the pseudo-effective "
            "candidate is the closed positive cone, whose boundary is the "
            "quadric {norm(x) = 0} (reported symbolically, not sampled)"
        )
    else:
        if n > bound.wall_test_limit:
            raise BoundExceededError(
                f"wall testing is capped at rank {bound.wall_test_limit}, "
                f"lattice has rank {n}"
            )
        rows = [gram_vec(lattice, c) for c in classes] + [gram_vec(lattice, ample)]
        _, _, incidence = dd_generators(rows, n)
        walls = tuple(c for i, c in enumerate(classes) if is_chamber_wall(incidence, i))
        if len(walls) < n:
            notes.append(
                f"found {len(walls)} chamber walls, below the rank-{n} "
                f"lower-bound expectation; empirical at bound "
                f"{bound.max_ample_pairing}, increase max_ample_pairing"
            )
    rank2 = _rank2_report(lattice, ample, bound, classes) if n == 2 else None
    return ConeAnalysis(
        lattice=lattice,
        type=t,
        ample=tuple(ample),
        bound=bound,
        exceptional_found=classes,
        chamber_walls=walls,
        rank2=rank2,
        notes=tuple(notes),
    )


def finiteness_report(analysis: ConeAnalysis) -> FinitenessReport:
    """Finiteness equivalences, truncated at the enumeration bound.

    One bit: up to the bound, Eff(X) is rational polyhedral exactly when
    Bir(X) and the quotient are finite. At rank >= 3 a found class decides
    it, as it decides the verdict; at rank 2 rationality of the boundary
    rays; rank 1 is trivially rational.
    """
    n = analysis.lattice.rank
    b = analysis.bound.max_ample_pairing
    if n == 1:
        eff = True
    elif n == 2:
        if analysis.rank2 is None:
            raise PreconditionError("rank-2 analysis is missing its boundary-ray report")
        eff = analysis.rank2.both_rational
    else:
        eff = bool(analysis.exceptional_found)
    applicable = n >= 3 and bool(analysis.exceptional_found)
    return FinitenessReport(
        eff_rational_polyhedral_up_to_bound=eff,
        equivalence_applicable=applicable,
        caveat=f"all statements truncated at ample-pairing bound {b}",
    )


def mds_classify(analysis: ConeAnalysis) -> MDSReport:
    """Mori-dream-space trichotomy from the finiteness data."""
    if analysis.lattice.rank < 3:
        if finiteness_report(analysis).eff_rational_polyhedral_up_to_bound:
            return MDSReport(is_mds=True, reason="rank_below_3_eff_rational")
        return MDSReport(is_mds=False, reason="rank_below_3_eff_irrational")
    if analysis.exceptional_found:
        return MDSReport(is_mds=True, reason="rank_ge_3_neg_nonempty_finite_up_to_bound")
    return MDSReport(is_mds=False, reason="rank_ge_3_neg_empty_up_to_bound")
