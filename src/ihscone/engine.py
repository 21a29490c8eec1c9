"""Bounded cone analysis: class enumeration, chamber walls, verdicts, reports.

Everything here is exact. The only concession to computability is the
ample-pairing bound B: all statements about "the" exceptional classes are
truncated to classes v with 0 < pairing(v, ample) <= B, and every report
names that truncation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import DeformationType, profiles
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
    divisibility,
    gram_vec,
    is_primitive,
    norm,
    pairing,
    signature,
    smith_normal_form,
)
from .pell import is_perfect_square
from .polyhedra import canonical_ray, dd_generators, invert_matrix, same_ray_set
from .weyl import is_chamber_wall

VERDICT_CIRCULAR = "CircularUpToBound"
VERDICT_POLYHEDRAL = "PolyhedralCandidate"


@dataclass(frozen=True)
class EnumerationBound:
    """Truncation knobs for the otherwise-infinite searches."""

    max_ample_pairing: int = 10
    wall_test_limit: int = 8
    pell_index_cap: int = 64

    def __post_init__(self):
        for name in ("max_ample_pairing", "wall_test_limit", "pell_index_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise PreconditionError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class MovCandidate:
    """Half-space presentation of the movable-cone candidate.

    The cone is {x : pairing(x, w) >= 0 for every wall w} intersected with
    the closed positive cone; the quadric part is carried as a flag, not as
    linear inequalities.
    """

    wall_inequalities: tuple[Vec, ...]
    includes_positive_cone: bool = True


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
    both_rational: bool
    bir_finite: bool


@dataclass(frozen=True)
class FinitenessReport:
    eff_rational_polyhedral_up_to_bound: bool
    bir_finite: bool
    quotient_finite: bool
    finitely_many_exceptional_up_to_bound: bool
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
    verdict: str
    extremal_rays: tuple[Vec, ...]
    mov_candidate: MovCandidate
    duality_checked: bool
    rank2: Optional[Rank2Report] = None
    finiteness: Optional[FinitenessReport] = None
    mds: Optional[MDSReport] = None
    notes: tuple[str, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# exact ellipsoid point enumeration


def _floor_sqrt_fraction(f: Fraction) -> int:
    # floor(sqrt(p/q)) = floor(isqrt(p*q)/q) for q >= 1
    if f < 0:
        raise ValueError("negative radicand")
    return math.isqrt(f.numerator * f.denominator) // f.denominator


def _le_sqrt(r: Fraction, rad: Fraction) -> bool:
    # r <= sqrt(rad)
    return r <= 0 or r * r <= rad


def _gt_sqrt(r: Fraction, rad: Fraction) -> bool:
    # r > sqrt(rad)
    return r > 0 and r * r > rad


def _floor_plus_sqrt(c: Fraction, rad: Fraction) -> int:
    """floor(c + sqrt(rad)) exactly, rad >= 0."""
    n = math.floor(c) + _floor_sqrt_fraction(rad)
    while _le_sqrt(Fraction(n + 1) - c, rad):
        n += 1
    while _gt_sqrt(Fraction(n) - c, rad):
        n -= 1
    return n


def _ceil_minus_sqrt(c: Fraction, rad: Fraction) -> int:
    return -_floor_plus_sqrt(-c, rad)


def _ldl(p: Sequence[Sequence[Fraction]]):
    """p = U^T diag(d) U with U unit upper triangular; p must be positive definite."""
    k = len(p)
    d = [Fraction(0)] * k
    u = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        s = p[i][i] - sum(d[m] * u[m][i] * u[m][i] for m in range(i))
        if s <= 0:
            raise PreconditionError("quadratic form is not positive definite")
        d[i] = s
        u[i][i] = Fraction(1)
        for j in range(i + 1, k):
            u[i][j] = (p[i][j] - sum(d[m] * u[m][i] * u[m][j] for m in range(i))) / s
    return d, u


def _ball_points(p, m, radius: Fraction) -> list[tuple[int, ...]]:
    """All integer z with (z - m)^T p (z - m) <= radius, p positive definite.

    Deterministic nested-interval recursion; every bound is an exact floor or
    ceiling of a rational-plus-square-root expression.
    """
    k = len(m)
    if radius < 0:
        return []
    if k == 0:
        return [()]
    d, u = _ldl(p)
    out: list[tuple[int, ...]] = []
    z = [0] * k

    def rec(i: int, budget: Fraction) -> None:
        w = sum((u[i][j] * (z[j] - m[j]) for j in range(i + 1, k)), Fraction(0))
        center = m[i] - w
        rad = budget / d[i]
        lo = _ceil_minus_sqrt(center, rad)
        hi = _floor_plus_sqrt(center, rad)
        for zi in range(lo, hi + 1):
            z[i] = zi
            t = zi - center
            rem = budget - d[i] * t * t
            if i == 0:
                out.append(tuple(z))
            else:
                rec(i - 1, rem)

    rec(k - 1, radius)
    return out


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


def _complement_form(lattice: Lattice, kernel: Sequence[Vec]):
    """Positive definite Gram of the negated pairing on the kernel sublattice."""
    k = len(kernel)
    return [
        [Fraction(-pairing(lattice, kernel[i], kernel[j])) for j in range(k)]
        for i in range(k)
    ]


def _profile_div_table(t: DeformationType) -> dict[int, tuple[int, ...]]:
    table: dict[int, list[int]] = {}
    for prof in profiles(t):
        table.setdefault(prof.square, []).append(prof.div)
    return {s: tuple(sorted(set(ds))) for s, ds in table.items()}


def _div_matches(div_value: int, allowed: tuple[int, ...]) -> bool:
    # Picard-lattice divisibility is a multiple of the ambient one, so a
    # profile divisor is matched whenever it divides the computed value.
    return any(div_value % d == 0 for d in allowed)


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


def enumerate_exceptional(
    lattice: Lattice,
    t: DeformationType,
    ample: Vec,
    bound: Optional[EnumerationBound] = None,
) -> tuple[Vec, ...]:
    """All primitive classes matching a profile of t with ample-pairing in (0, B].

    Complete within the bound: for each attainable pairing value p the affine
    set {v : pairing(v, ample) = p} is a translated sublattice on which the
    form is negative definite, and the profile equation cuts out an ellipsoid
    that is enumerated exactly. Output is sorted lexicographically; canonical
    sign (positive ample-pairing) is automatic.
    """
    bound = bound or EnumerationBound()
    _check_analysis_input(lattice, ample)
    div_table = _profile_div_table(t)
    g, x_unit, kernel = _ample_frame(lattice, ample)
    p_matrix = _complement_form(lattice, kernel)
    k = len(kernel)
    inv = invert_matrix(p_matrix) if k else []
    found: list[Vec] = []
    for p in range(g, bound.max_ample_pairing + 1, g):
        scale = p // g
        x_p = tuple(scale * x for x in x_unit)
        c0 = norm(lattice, x_p)
        b = [Fraction(pairing(lattice, x_p, kernel[i])) for i in range(k)]
        m = [sum(inv[i][j] * b[j] for j in range(k)) for i in range(k)] if k else []
        for square, allowed in div_table.items():
            radius = sum(bi * mi for bi, mi in zip(b, m)) - square + c0
            for z in _ball_points(p_matrix, m, Fraction(radius)):
                v = tuple(
                    x_p[r] + sum(z[i] * kernel[i][r] for i in range(k))
                    for r in range(lattice.rank)
                )
                if norm(lattice, v) != square:
                    continue
                if not is_primitive(lattice, v):
                    continue
                if _div_matches(divisibility(lattice, v), allowed):
                    found.append(v)
    return tuple(sorted(set(found)))


def _ample_wall_witness(
    lattice: Lattice, t: DeformationType, ample: Vec
) -> Optional[Vec]:
    """A profile-matching class orthogonal to the ample class, if one exists."""
    g, x_unit, kernel = _ample_frame(lattice, ample)
    k = len(kernel)
    if k == 0:
        return None
    p_matrix = _complement_form(lattice, kernel)
    zero = [Fraction(0)] * k
    for square, allowed in sorted(_profile_div_table(t).items()):
        for z in _ball_points(p_matrix, zero, Fraction(-square)):
            if all(x == 0 for x in z):
                continue
            v = tuple(
                sum(z[i] * kernel[i][r] for i in range(k))
                for r in range(lattice.rank)
            )
            if norm(lattice, v) != square:
                continue
            if not is_primitive(lattice, v):
                continue
            if _div_matches(divisibility(lattice, v), allowed):
                return v
    return None


# ---------------------------------------------------------------------------
# rank-2 boundary rays, exact surd arithmetic


@dataclass(frozen=True)
class _Surd:
    """a + b*sqrt(delta) with rational a, b; delta a fixed positive integer."""

    a: Fraction
    b: Fraction
    delta: int

    def __add__(self, other: "_Surd") -> "_Surd":
        return _Surd(self.a + other.a, self.b + other.b, self.delta)

    def __sub__(self, other: "_Surd") -> "_Surd":
        return _Surd(self.a - other.a, self.b - other.b, self.delta)

    def __mul__(self, other: "_Surd") -> "_Surd":
        return _Surd(
            self.a * other.a + self.b * other.b * self.delta,
            self.a * other.b + self.b * other.a,
            self.delta,
        )

    def __neg__(self) -> "_Surd":
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


def _cross(u, v) -> "_Surd":
    return u[0] * v[1] - u[1] * v[0]


def _rank2_candidates(lattice: Lattice, ample: Vec, classes: Sequence[Vec]):
    """Oriented ray candidates: the two isotropic rays plus every class."""
    gm = lattice.gram
    a, h, c = gm[0][0], gm[0][1], gm[1][1]
    delta = h * h - a * c
    if delta <= 0:
        raise ContractViolationError("hyperbolic plane must have positive discriminant")
    ga = gram_vec(lattice, ample)
    candidates = []

    def rational_entry(vec: Vec):
        if sum(gi * vi for gi, vi in zip(ga, vec)) < 0:
            vec = tuple(-x for x in vec)
        pair = (
            _Surd(Fraction(vec[0]), Fraction(0), delta),
            _Surd(Fraction(vec[1]), Fraction(0), delta),
        )
        return pair, RayDescriptor(rational=True, vector=canonical_ray(vec))

    root = is_perfect_square(delta)
    if root is not None:
        dirs = [(-h + root, a), (-h - root, a)] if a != 0 else [(1, 0), (-c, 2 * h)]
        iso = {canonical_ray(d) for d in dirs}
        for d in sorted(iso):
            candidates.append(rational_entry(d))
    else:
        for sgn in (1, -1):
            x = _Surd(Fraction(-h), Fraction(sgn), delta)
            y = _Surd(Fraction(a), Fraction(0), delta)
            val = _Surd(Fraction(ga[0]), Fraction(0), delta) * x + _Surd(
                Fraction(ga[1]), Fraction(0), delta
            ) * y
            orientation = val.sign()
            if orientation == 0:
                raise ContractViolationError("isotropic ray cannot be ample-orthogonal")
            if orientation < 0:
                x, y = -x, -y
            num_const, s, den = -h, sgn, a
            if den < 0:
                num_const, s, den = -num_const, -s, -den
            desc = RayDescriptor(
                rational=False,
                num_const=num_const,
                sign=s,
                delta=delta,
                den=den,
                orientation=orientation,
            )
            candidates.append(((x, y), desc))
    for cls in classes:
        candidates.append(rational_entry(cls))
    return candidates


def _rank2_report(
    lattice: Lattice,
    t: DeformationType,
    ample: Vec,
    bound: EnumerationBound,
    classes: Sequence[Vec],
) -> Rank2Report:
    candidates = _rank2_candidates(lattice, ample, classes)
    clockwise = next(
        entry
        for entry in candidates
        if all(_cross(entry[0], other[0]).sign() >= 0 for other in candidates)
    )
    counter = next(
        entry
        for entry in candidates
        if all(_cross(entry[0], other[0]).sign() <= 0 for other in candidates)
    )
    ray1, ray2 = clockwise[1], counter[1]
    if ray1.rational != ray2.rational:
        rational, irrational = (ray1, ray2) if ray1.rational else (ray2, ray1)
        raise MixedRationalityError(
            "boundary rays mix rationality status within ample-pairing bound "
            f"{bound.max_ample_pairing}: {rational.display()} is rational while "
            f"{irrational.display()} is irrational; either the bound hides an "
            "exceptional class on the open side or the lattice falls outside "
            "the guaranteed dichotomy"
        )
    both = ray1.rational
    return Rank2Report(ray1=ray1, ray2=ray2, both_rational=both, bir_finite=both)


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
    return _rank2_report(lattice, t, ample, bound, classes)


# ---------------------------------------------------------------------------
# duality round trip


def _duality_round_trip(lattice: Lattice, walls: Sequence[Vec]) -> bool:
    """Check Eff/Mov duality on the computed generators, exactly.

    The movable candidate's linear part is {x : pairing(x, w) >= 0}; its dual
    under the pairing must be generated by the walls again. Both directions
    run through exact double description.
    """
    n = lattice.rank
    rows = [tuple(Fraction(x) for x in gram_vec(lattice, w)) for w in walls]
    lineality, generators = dd_generators(rows, n)
    for w in walls:
        for gen in generators:
            if pairing(lattice, w, gen) < 0:
                return False
        for lin in lineality:
            if pairing(lattice, w, lin) != 0:
                return False
    dual_rows = [tuple(Fraction(x) for x in gram_vec(lattice, gen)) for gen in generators]
    for lin in lineality:
        row = tuple(Fraction(x) for x in gram_vec(lattice, lin))
        dual_rows.append(row)
        dual_rows.append(tuple(-x for x in row))
    lin2, rays2 = dd_generators(dual_rows, n)
    if lin2:
        return False
    return same_ray_set(rays2, walls)


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
    compute the chamber's generators with one double-description pass, read
    off the walls, build the movable candidate and run the duality round
    trip; attach rank-2, finiteness and Mori-dream-space reports.
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
        verdict = VERDICT_CIRCULAR
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
        lineality, rays = dd_generators(rows, n)
        walls = tuple(c for c in classes if is_chamber_wall(lattice, c, lineality, rays))
        verdict = VERDICT_POLYHEDRAL
        if len(walls) < n:
            notes.append(
                f"found {len(walls)} chamber walls, below the rank-{n} "
                f"lower-bound expectation; empirical at bound "
                f"{bound.max_ample_pairing}, increase max_ample_pairing"
            )
    duality = _duality_round_trip(lattice, walls)
    rank2 = _rank2_report(lattice, t, ample, bound, classes) if n == 2 else None
    analysis = ConeAnalysis(
        lattice=lattice,
        type=t,
        ample=tuple(ample),
        bound=bound,
        exceptional_found=classes,
        chamber_walls=walls,
        verdict=verdict,
        extremal_rays=walls,
        mov_candidate=MovCandidate(wall_inequalities=walls),
        duality_checked=duality,
        rank2=rank2,
        notes=tuple(notes),
    )
    analysis = replace(analysis, finiteness=finiteness_report(analysis))
    analysis = replace(analysis, mds=mds_classify(analysis))
    return analysis


def finiteness_report(analysis: ConeAnalysis) -> FinitenessReport:
    """Finiteness equivalences, truncated at the enumeration bound.

    At rank >= 3 the chain rational-polyhedral <=> finite birational group
    <=> finite quotient is applied to the verdict; at rank 2 rationality of
    the boundary rays decides; rank 1 is trivially rational.
    """
    n = analysis.lattice.rank
    b = analysis.bound.max_ample_pairing
    if n == 1:
        eff = True
        bir = True
    elif n == 2:
        if analysis.rank2 is None:
            raise PreconditionError("rank-2 analysis is missing its boundary-ray report")
        eff = analysis.rank2.both_rational
        bir = analysis.rank2.bir_finite
    else:
        eff = analysis.verdict == VERDICT_POLYHEDRAL
        bir = eff
    applicable = n >= 3 and bool(analysis.exceptional_found)
    return FinitenessReport(
        eff_rational_polyhedral_up_to_bound=eff,
        bir_finite=bir,
        quotient_finite=bir,
        finitely_many_exceptional_up_to_bound=True,
        equivalence_applicable=applicable,
        caveat=f"all statements truncated at ample-pairing bound {b}",
    )


def mds_classify(analysis: ConeAnalysis) -> MDSReport:
    """Mori-dream-space trichotomy from the finiteness data."""
    n = analysis.lattice.rank
    if n < 3:
        rational = True if n == 1 else analysis.rank2.both_rational
        if rational:
            return MDSReport(is_mds=True, reason="rank_below_3_eff_rational")
        return MDSReport(is_mds=False, reason="rank_below_3_eff_irrational")
    if analysis.exceptional_found:
        return MDSReport(is_mds=True, reason="rank_ge_3_neg_nonempty_finite_up_to_bound")
    return MDSReport(is_mds=False, reason="rank_ge_3_neg_empty_up_to_bound")
