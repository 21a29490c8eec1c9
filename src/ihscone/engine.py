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
class (the Smith split along the ample class, the profile table) and the
elimination itself are built once per analysis in a `_ShellFrame`:
every pairing level and profile square scales the frame's elimination
(k + 1 integers) instead of eliminating again, and one walk per profile
square covers every level, so a level without a point costs a comparison
or, at rank 2, one isqrt. The walk carries each point's class down the
recursion, so a point costs one vector step and one gcd; the divisibility
gcd(G v) is computed only for a primitive point of a square whose test
can reject it, which the Gram content decides once per frame. Where the
form splits into orthogonal blocks, as on a diagonal Picard lattice, the
walk lists the points of each lower block once per remaining radius and
level and reuses them for every prefix above it (`_walk`), in the same
order.

Building the frame also decides the signature: q(a) > 0 for the ample
class a splits Q^n = Qa + a^perp orthogonally, so the signature is
(1, n - 1) exactly when every pivot of the frame's elimination is positive
(`_ShellFrame`). Enumeration, the ample-wall witness and the SVG chart
reach the one cached frame through `_analysis_frame`, which checks the
ample class and runs `lattice.signature` only on an input that fails.

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
from collections import namedtuple
from functools import lru_cache
from operator import add, mul
from typing import Optional, Sequence

from .catalog import DeformationType, div_matches, profile_table
from .errors import (
    BoundExceededError, ContractViolationError, IHSConeError, MixedRationalityError,
    PreconditionError, SignatureError,
)
from .lattice import Lattice, Vec, gram_vec, mat_vec, norm, signature, smith_normal_form
from .pell import INDEX_CAP, is_perfect_square
from .polyhedra import canonical_ray, dd_generators, dot
from .weyl import is_chamber_wall

VERDICT_CIRCULAR = "CircularUpToBound"
VERDICT_POLYHEDRAL = "PolyhedralCandidate"


class EnumerationBound(namedtuple(
    "EnumerationBound", "max_ample_pairing wall_test_limit pell_index_cap"
)):
    """Truncation knobs for the otherwise-infinite searches.

    Every field must be a positive integer; `_replace` and `_make` skip
    that check, so a changed bound is built through this constructor.
    """

    __slots__ = ()

    def __new__(
        cls, max_ample_pairing: int = 10, wall_test_limit: int = 8, pell_index_cap: int = INDEX_CAP
    ) -> EnumerationBound:
        self = super().__new__(cls, max_ample_pairing, wall_test_limit, pell_index_cap)
        for name, value in zip(cls._fields, self):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise PreconditionError(f"{name} must be a positive integer, got {value!r}")
        return self


class RayDescriptor(namedtuple(
    "RayDescriptor",
    "rational vector num_const sign delta den orientation",
    defaults=(None,) * 6,
)):
    """Exact description of a rank-2 boundary ray.

    Rational rays carry a primitive integer vector. Irrational rays describe
    the direction orientation * ((num_const + sign*sqrt(delta)) / den, 1)
    with den > 0; delta is the (nonsquare) discriminant of the binary form.
    """

    __slots__ = ()

    def display(self) -> str:
        if self.rational:
            return str(tuple(self.vector))
        sgn = "+" if self.sign > 0 else "-"
        core = f"({self.num_const} {sgn} sqrt({self.delta}))/{self.den}"
        prefix = "" if self.orientation > 0 else "-"
        return f"{prefix}({core}, 1)"


class Rank2Report(namedtuple("Rank2Report", "ray1 ray2")):
    __slots__ = ()

    @property
    def both_rational(self) -> bool:
        return self.ray1.rational and self.ray2.rational


FinitenessReport = namedtuple(
    "FinitenessReport", "eff_rational_polyhedral_up_to_bound equivalence_applicable caveat"
)
MDSReport = namedtuple("MDSReport", "is_mds reason")


class ConeAnalysis(namedtuple(
    "ConeAnalysis",
    "lattice type ample bound exceptional_found chamber_walls rank2 notes",
    defaults=(None, ()),
)):
    __slots__ = ()

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
    raises `ContractViolationError`: p is not positive definite, which for
    a shell frame means a wrong signature (`_ShellFrame`).
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


def _walk(levels, border_unit, rem_unit, shift, unit, cols, ms) -> list[tuple[int, ...]]:
    """Images of one square's shell points at every pairing level in ms: one walk.

    (levels, border_unit, rem_unit) is `_eliminate(p, b_unit, c_unit)` and
    shift = det(p) * square. Level m is that elimination scaled
    (`_profile_classes`): (levels, m border_unit, m^2 rem_unit - shift),
    with images m unit + sum_i z_i cols[i]. The closures are built once and
    the levels are walked in the order of ms. A level whose rem is negative
    has no points and costs one comparison; at k = 1 a level costs one
    isqrt unless it has a root, so only a level with points scales its
    border and base. With ms = (1,) and shift = 0 this is the walk of
    `_eliminate`'s output itself.

    On the shell Q_0 = 0 each rem_i = -Q_i is a nonnegative integer, so once
    z_{i+1}, ..., z_{k-1} are fixed, (a_i z_i + L_i)^2 <= prev_i rem_{i+1}
    gives z_i an exact integer interval, and at the last level the equality
    (a_0 z_0 + L_0)^2 = rem_1 leaves at most two roots (Fincke & Pohst's
    recursion restricted to the boundary). Within a level, points come out
    in ascending (z_{k-1}, ..., z_0) order.

    Setting z_i at level i adds z_i cols[i] to the partial image the next
    level receives, so a point costs one vector step, not one dot product
    per coordinate. Level 0 is solved inside the level-1 loop: a level-1
    child whose rem_1 is not a square costs one isqrt and no vector step.
    With unit = 0 and cols the identity the images are the points z.

    Level i is a split level when no pivot row at or below it involves a
    coordinate above it: row_j[i - j:], the coefficients of z_{i+1}, ...,
    z_{k-1} in L_j, is zero for every j <= i. This is the case at the end of
    each orthogonal block of p, as on a diagonal form. The points of levels
    i, ..., 0 then depend only on the rem entering level i and on the
    level's border, so a child at a split level i >= 1 (level 0 is solved
    inline) looks up (i, rem) in a memo kept for one pairing level m (the
    border scales with m). On a miss it walks its subtree once, from the
    zero image, into a list of partial images sum_{j <= i} z_j cols[j];
    the parent appends its own partial image plus each of them. The
    subtree's list is in ascending (z_i, ..., z_0) order and the parent's
    prefix is fixed, so every point and every integer comes out as an
    unmemoized walk gives them. A basis with no split level below the top
    walks without the memo. The split levels are found in one pass over
    the pivot rows, each read from its last entry down to its last nonzero.
    """
    k = len(levels)
    if k == 0:
        return [tuple([m * x for x in unit]) for m in ms if m * m * rem_unit == shift]
    out: list[tuple[int, ...]] = []
    z = [0] * k
    a0, row0, _ = levels[0]
    col0 = cols[0]
    # reach: the highest coordinate that a pivot row at or below level j involves
    split, reach = [], 0
    for j, (_, row, _) in enumerate(levels):
        for t in range(len(row), 0, -1):
            if row[t - 1]:
                reach = max(reach, j + t)
                break
        split.append(reach <= j)
    zero = [0] * len(unit)
    memo: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def leaf(r: int, lin0: int, w, acc) -> None:
        # the roots z_0 of (a_0 z_0 + L_0)^2 = r^2
        for t in ((-r, r) if r else (0,)):
            z0, off = divmod(t - lin0, a0)
            if off == 0:
                acc.append(tuple([x + z0 * y for x, y in zip(w, col0)]))

    def rec(i: int, rem: int, w, acc) -> None:
        a, row, prev = levels[i]
        lin = sum(map(mul, row, z[i + 1:])) + border[i]
        top = prev * rem
        s = math.isqrt(top)
        col = cols[i]
        zs = range(-((lin + s) // a), (s - lin) // a + 1)
        if i > 1 and split[i - 1]:
            # the subtree below depends on z_i only through its rem
            for zi in zs:
                t = a * zi + lin
                rem_c = (top - t * t) // a
                part = memo.get((i - 1, rem_c))
                if part is None:
                    part = memo[i - 1, rem_c] = []
                    rec(i - 1, rem_c, zero, part)
                if not part:
                    continue
                wi = [x + zi * y for x, y in zip(w, col)]
                acc += [tuple(map(add, wi, q)) for q in part] if any(wi) else part
            return
        if i > 1:
            for zi in zs:
                z[i] = zi
                t = a * zi + lin
                rec(i - 1, (top - t * t) // a, [x + zi * y for x, y in zip(w, col)], acc)
            return
        # L_0 = row0[0] z_1 + (the part fixed above level 1)
        lin0 = sum(map(mul, row0[1:], z[2:])) + border[0]
        for zi in zs:
            t = a * zi + lin
            rem0 = (top - t * t) // a
            r = math.isqrt(rem0)
            if r * r == rem0:
                leaf(r, lin0 + row0[0] * zi, [x + zi * y for x, y in zip(w, col)], acc)

    for m in ms:
        rem = m * m * rem_unit - shift
        if rem < 0:
            continue
        if k == 1:
            r = math.isqrt(rem)
            if r * r == rem:
                leaf(r, m * border_unit[0], [m * x for x in unit], out)
        else:
            border = [m * x for x in border_unit]
            memo.clear()
            rec(k - 1, rem, [m * x for x in unit], out)
    return out


# ---------------------------------------------------------------------------
# enumeration


class _ShellFrame(namedtuple(
    "_ShellFrame",
    "g kernel p_matrix x_unit levels border_unit rem_unit gram div_table",
)):
    """Integer data every shell class of one lattice, type and ample class needs.

    The frame splits Z^n along the ample functional a = G ample, with G the
    Gram matrix gram: g is the divisibility of the ample class, a.x_unit = g,
    and kernel is an integer basis K of {u : a.u = 0}, all read off one
    Smith form of the 1 x n matrix (a). [x_unit | K] is unimodular, so every
    class v with pairing(v, ample) = p (necessarily g | p) is, for level
    m = p // g, v = m x_unit + K z, the affine image m x_unit + sum_i z_i
    kernel[i]; p_matrix is the positive definite -K^T G K.

    div_table is `profile_table(t)` with the divisibility test dropped where
    it cannot reject a class: let c be the Gram content, the gcd of every
    entry of G. c divides every entry of G v, so c | div(v) for every v,
    and a square with an allowed divisibility d | c accepts every class
    (`div_matches`). Such a square is listed as (square, None); every other
    square keeps its allowed divisibilities.

    levels, border_unit and rem_unit are `_eliminate` run once on
    (p_matrix, b_unit, c_unit) with b_unit = K^T G x_unit and
    c_unit = norm(x_unit); `_profile_classes` scales them to every level
    and square instead of eliminating again. Building the frame is
    therefore where the signature is decided: q(a) > 0 for the ample class
    a, so Q^n = Qa + a^perp is an orthogonal split and K spans a^perp; the
    signature is (1, n - 1) exactly when p_matrix is positive definite, i.e.
    (Sylvester) when every pivot, a leading principal minor, is positive.
    """

    __slots__ = ()


# one split and one elimination per document, reached through `_analysis_frame`
@lru_cache(maxsize=1)
def _shell_frame(lattice: Lattice, t: DeformationType, ample: Vec) -> _ShellFrame:
    a = gram_vec(lattice, ample)
    diag, u_tr, v_tr = smith_normal_form((a,))
    g = diag[0][0]
    x_unit, *kernel = zip(*v_tr)
    x_unit = tuple(u_tr[0][0] * x for x in x_unit)
    if dot(a, x_unit) != g:
        raise ContractViolationError("Smith form did not split off the ample functional")
    gram_kernel = [gram_vec(lattice, u) for u in kernel]
    gram_x_unit = gram_vec(lattice, x_unit)
    p_matrix = tuple(tuple(-dot(u, gw) for gw in gram_kernel) for u in kernel)
    levels, border_unit, rem_unit = _eliminate(
        p_matrix,
        [dot(u, gram_x_unit) for u in kernel],
        dot(x_unit, gram_x_unit),
    )
    content = math.gcd(*(x for row in lattice.gram for x in row))
    div_table = tuple(
        (square, None if div_matches(content, allowed) else allowed)
        for square, allowed in profile_table(t)
    )
    return _ShellFrame(g, tuple(kernel), p_matrix, x_unit, levels, border_unit, rem_unit,
                       lattice.gram, div_table)


def _analysis_frame(lattice: Lattice, t: DeformationType, ample) -> _ShellFrame:
    """The shell frame of a checked ample class, which decides the signature.

    Every reader's way into `_shell_frame`, so all name a bad input alike.
    `lattice.signature` runs only when a step fails, so a wrong signature is
    reported first, whatever else is wrong; otherwise the step's error stands.
    """
    try:
        ample = lattice.check_vector(ample)
        q = norm(lattice, ample)
        if q <= 0:
            raise PreconditionError(f"ample class must have positive norm, got {q}")
        return _shell_frame(lattice, t, ample)
    except IHSConeError:
        sig = signature(lattice)
        if sig != (1, lattice.rank - 1):
            msg = f"expected signature (1, {lattice.rank - 1}), got {sig}"
            raise SignatureError(msg) from None
        raise


def _profile_classes(frame: _ShellFrame, ms):
    """Profile-matching primitive classes of the pairing levels ms: one walk per square.

    The classes of level m are v = m x_unit + K z. By bilinearity the
    level-m translate x_p = m x_unit has G x_p = m G x_unit,
    b = K^T G x_p = m b_unit and norm(x_p) = m^2 c_unit exactly, and
    norm(v) = norm(x_p) + 2 b.z - z^T p z, so norm = square is the shell
    equation z^T p z - 2 b.z = c with c = m^2 c_unit - square.

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
    integer are those of a walk after `_eliminate(p, m b_unit, m^2 c_unit - square)`;
    so one `_walk` per square covers every level, in the order of ms.

    Squares are visited in ascending order, each over every level, and
    `_walk` carries each point's class v = m x_unit + K z down its
    recursion. gcd(v) is tested first: a non-primitive v is dropped
    whatever its divisibility. A square the frame lists with allowed
    divisibilities then tests div(v) = gcd(G v) on the primitive points
    alone; one listed with None accepts every divisibility (`_ShellFrame`).
    """
    det_p = frame.levels[-1][0] if frame.levels else 1
    for square, allowed in frame.div_table:
        for v in _walk(frame.levels, frame.border_unit, frame.rem_unit, det_p * square,
                       frame.x_unit, frame.kernel, ms):
            if math.gcd(*v) == 1 and (
                allowed is None or div_matches(math.gcd(*mat_vec(frame.gram, v)), allowed)
            ):
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
    (`_ShellFrame`) are built once, each level m = p // g scales them, and
    one walk per profile square covers every level, so a shell point costs
    one vector step and a level without one costs a comparison or an
    isqrt. Output is sorted lexicographically; canonical sign (positive
    ample-pairing) is automatic, and no class repeats: [x_unit | K] is
    unimodular, so v = m x_unit + K z is injective, and squares differ.
    """
    bound = bound or EnumerationBound()
    frame = _analysis_frame(lattice, t, ample)
    ms = range(1, bound.max_ample_pairing // frame.g + 1)
    return tuple(sorted(_profile_classes(frame, ms)))


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

    The ample-wall witness is the frame's first level-0 class in shell
    order; reports print it, so the order of `_walk` is part of the output.

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
    witness = next(_profile_classes(_analysis_frame(lattice, t, ample), (0,)), None)
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
