"""Pseudo-effective class constructions from a positive class D and an
exceptional candidate E.

Writing d = norm(D), t = divisibility(E), pairing(E, D) = b*t and
norm(E) = t*e, the integer N = t^2*b^2 - t*d*e controls everything:

* norm(E) = 0: alpha = 2*b*t*D - d*E is isotropic (branch "case_a");
* norm(E) < 0 and N a perfect square r^2: alpha = -t*e*r*D - (N - r*t*b)*E
  is isotropic (branch "case_b_square_N");
* norm(E) < 0 and N not a square: a Pell solution (x, y) of
  x^2 - N*y^2 = 1 gives alpha = -t*e*y*D - (x - t*b*y)*E of norm t*e
  (branch "case_b_pell").

alpha_effective runs the Pell branch with the solution index chosen per
deformation type and certifies primitivity, divisibility and the
discriminant-class relation disc(alpha) = -disc(E).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Sequence

from .catalog import DeformationType, expected_disc_group, matches_profile
from .errors import ContractViolationError, PreconditionError
from .lattice import Lattice, Vec, divisibility, disc_class, is_primitive, norm, pairing
from .pell import PellSolution, fundamental_solution, is_perfect_square, second_solution


AlphaContext = namedtuple("AlphaContext", "L D E d t b e N")
# branch is case_a, case_b_square_N or case_b_pell
AlphaResult = namedtuple(
    "AlphaResult",
    "alpha branch pell_solution_used certified_primitive certified_effective div_alpha",
)


def build_context(L: Lattice, D: Sequence[int], E: Sequence[int]) -> AlphaContext:
    """Compute the derived quantities (d, t, b, e, N) for the pair (D, E)."""
    Dv = L.check_vector(D)
    Ev = L.check_vector(E)
    d = norm(L, Dv)
    if d <= 0:
        raise PreconditionError("build_context requires norm(D) > 0, got %d" % d)
    t = divisibility(L, Ev)  # rejects E = 0
    pe = pairing(L, Ev, Dv)
    if pe <= 0:
        raise PreconditionError(
            "build_context requires pairing(E, D) > 0, got %d" % pe
        )
    # divisibility(E) divides every pairing against the lattice
    b = pe // t
    e = norm(L, Ev) // t
    N = t * t * b * b - t * d * e
    return AlphaContext(L, Dv, Ev, d, t, b, e, N)


def _combine(L: Lattice, cd: int, D: Vec, ce: int, E: Vec) -> Vec:
    return tuple(cd * D[i] + ce * E[i] for i in range(L.rank))


def alpha_case_a(ctx: AlphaContext) -> AlphaResult:
    """Isotropic alpha from an isotropic E: alpha = 2*b*t*D - d*E."""
    if ctx.t * ctx.e != 0:
        raise PreconditionError(
            "case_a requires norm(E) = 0, got %d" % (ctx.t * ctx.e)
        )
    alpha = _combine(ctx.L, 2 * ctx.b * ctx.t, ctx.D, -ctx.d, ctx.E)
    if norm(ctx.L, alpha) != 0:
        raise ContractViolationError("case_a alpha is not isotropic")
    if pairing(ctx.L, alpha, ctx.D) != ctx.b * ctx.t * ctx.d:
        raise ContractViolationError("case_a alpha does not pair to b*t*d with D")
    return AlphaResult(
        alpha, "case_a", None, is_primitive(ctx.L, alpha), False, None
    )


def alpha_case_b(ctx: AlphaContext) -> AlphaResult:
    """alpha on the far side of E for norm(E) < 0, square or Pell flavor."""
    te = ctx.t * ctx.e
    if te >= 0:
        raise PreconditionError("case_b requires norm(E) < 0, got %d" % te)
    r = is_perfect_square(ctx.N)
    if r is not None:
        ce = ctx.N - r * ctx.t * ctx.b
        alpha = _combine(ctx.L, -te * r, ctx.D, -ce, ctx.E)
        if not (ce > 0 and -te * r > 0):
            raise ContractViolationError("case_b square-N coefficients are not positive")
        if norm(ctx.L, alpha) != 0:
            raise ContractViolationError("case_b square-N alpha is not isotropic")
        return AlphaResult(
            alpha, "case_b_square_N", None, is_primitive(ctx.L, alpha), False, None
        )
    sol = fundamental_solution(ctx.N)
    alpha = _pell_alpha(ctx, sol)
    return AlphaResult(
        alpha, "case_b_pell", sol, is_primitive(ctx.L, alpha), False, None
    )


def _pell_alpha(ctx: AlphaContext, sol: PellSolution) -> Vec:
    te = ctx.t * ctx.e
    ce = sol.x - ctx.t * ctx.b * sol.y
    if not (ce > 0 and -te * sol.y > 0):
        raise ContractViolationError("Pell alpha coefficients are not positive")
    alpha = _combine(ctx.L, -te * sol.y, ctx.D, -ce, ctx.E)
    # norm identity: q(alpha) = t*e*(x^2 - N*y^2) = t*e
    if norm(ctx.L, alpha) != te:
        raise ContractViolationError("Pell alpha violates the norm identity q(alpha) = t*e")
    return alpha


def alpha_effective(ctx: AlphaContext, t: DeformationType) -> AlphaResult:
    """Certified negative-norm alpha matching E's exceptional profile.

    The Pell solution index depends on the type: the families in n
    (Hilbert scheme, Kummer) need the second solution (x = 1 mod 2N makes
    the discriminant classes work out); the O'Grady types and K3 use the
    fundamental one.  Primitivity and divisibility of the result are
    verified outright and a failure raises a contract violation; the
    discriminant-class relation disc(alpha) = -disc(E) is reported via
    certified_effective.
    """
    te = ctx.t * ctx.e
    if te >= 0:
        raise PreconditionError("alpha_effective requires norm(E) < 0, got %d" % te)
    if not is_primitive(ctx.L, ctx.E):
        raise PreconditionError("alpha_effective requires primitive E")
    if not is_primitive(ctx.L, ctx.D):
        raise PreconditionError("alpha_effective requires primitive D")
    if not matches_profile(ctx.L, t, ctx.E):
        raise PreconditionError(
            "(norm, divisibility) = (%d, %d) matches no %s profile"
            % (te, ctx.t, t.tag)
        )
    if is_perfect_square(ctx.N) is not None:
        raise PreconditionError(
            "N = %d is a perfect square; alpha_case_b handles that branch" % ctx.N
        )
    if t.n is not None:
        sol = second_solution(fundamental_solution(ctx.N))
        # theorem: t | N, so x2 = 1 + 2*N*y1^2 = 1 mod the disc group's order
        (modulus,) = expected_disc_group(t)
        if sol.x % modulus != 1 % modulus:
            raise ContractViolationError(
                "second Pell solution is not 1 mod %d" % modulus
            )
    else:
        sol = fundamental_solution(ctx.N)
    alpha = _pell_alpha(ctx, sol)
    if gcd(*alpha) != 1:
        raise ContractViolationError(
            "constructed alpha %r is not primitive (content %d)"
            % (alpha, gcd(*alpha))
        )
    div_alpha = divisibility(ctx.L, alpha)
    if div_alpha != ctx.t:
        raise ContractViolationError(
            "divisibility(alpha) = %d, expected %d" % (div_alpha, ctx.t)
        )
    certified = disc_class(ctx.L, alpha) == -disc_class(ctx.L, ctx.E)
    return AlphaResult(alpha, "case_b_pell", sol, True, certified, div_alpha)


def alpha_k(
    L: Lattice,
    alpha: Sequence[int],
    alpha_prime: Sequence[int],
    E: Sequence[int],
    k: int,
) -> Vec:
    """The k-th class -2*k^2*q(a')*p^3*alpha - 2*k*p^2*alpha_prime + E,
    where p = pairing(alpha, E).  Has the same norm as E for every k."""
    a = L.check_vector(alpha)
    ap = L.check_vector(alpha_prime)
    Ev = L.check_vector(E)
    if k < 1:
        raise PreconditionError("k must be >= 1, got %d" % k)
    if norm(L, a) != 0:
        raise PreconditionError("alpha must be isotropic, norm is %d" % norm(L, a))
    p = pairing(L, a, Ev)
    if p <= 0:
        raise PreconditionError("pairing(alpha, E) must be positive, got %d" % p)
    if pairing(L, ap, a) != 0:
        raise PreconditionError("alpha_prime must be orthogonal to alpha")
    if pairing(L, ap, Ev) != 0:
        raise PreconditionError("alpha_prime must be orthogonal to E")
    qp = norm(L, ap)
    if qp >= 0:
        raise PreconditionError("alpha_prime must have negative norm, got %d" % qp)
    ca = -2 * k * k * qp * p ** 3
    cp = -2 * k * p * p
    out = tuple(ca * a[i] + cp * ap[i] + Ev[i] for i in range(L.rank))
    if norm(L, out) != norm(L, Ev):
        raise ContractViolationError("alpha_k changed the norm of E")
    return out


def beta_projection(
    L: Lattice, D_prime: Sequence[int], E: Sequence[int]
) -> tuple[Fraction, ...]:
    """Rational projection of D_prime away from E:
    beta = D_prime - (pairing(D_prime, E)/norm(E)) * E."""
    Dv = L.check_vector(D_prime)
    Ev = L.check_vector(E)
    qe = norm(L, Ev)
    if qe == 0:
        raise PreconditionError("beta projection undefined for isotropic E")
    if qe > 0:
        raise PreconditionError("beta projection requires norm(E) < 0, got %d" % qe)
    c = Fraction(pairing(L, Dv, Ev), qe)
    beta = tuple(Fraction(Dv[i]) - c * Ev[i] for i in range(L.rank))
    # beta is orthogonal to E by construction
    if sum(
        beta[i] * L.gram[i][j] * Ev[j] for i in range(L.rank) for j in range(L.rank)
    ) != 0:
        raise ContractViolationError("beta projection is not orthogonal to E")
    return beta
