"""Construction of the boundary classes alpha, alpha_k and the rational
beta projection."""
import random
from fractions import Fraction
from math import gcd

import pytest

from ihscone.alphas import (
    _pell_alpha,
    alpha_case_a,
    alpha_case_b,
    alpha_effective,
    alpha_k,
    beta_projection,
    build_context,
)
from ihscone.catalog import parse_type
from ihscone.errors import PreconditionError
from ihscone.lattice import (
    Lattice,
    disc_class,
    is_primitive,
    norm,
    pairing,
)
from ihscone.pell import (
    PellSolution,
    fundamental_solution,
    is_perfect_square,
    next_solution,
)
from tests.helpers import rand_case_a_pair, rand_case_b_pair

DENSE = Lattice(((2, 1), (1, -2)))


def test_build_context_frozen():
    ctx = build_context(DENSE, (1, 0), (0, 1))
    assert (ctx.d, ctx.t, ctx.b, ctx.e, ctx.N) == (2, 1, 1, -2, 5)
    iso = Lattice(((2, 1), (1, 0)))
    ctx2 = build_context(iso, (1, 0), (0, 1))
    assert (ctx2.d, ctx2.t, ctx2.b, ctx2.e, ctx2.N) == (2, 1, 1, 0, 1)
    nine = Lattice(((4, 1), (1, -2)))
    ctx3 = build_context(nine, (1, 0), (0, 1))
    assert (ctx3.d, ctx3.t, ctx3.b, ctx3.e, ctx3.N) == (4, 1, 1, -2, 9)


def test_build_context_rejects_bad_pairs():
    with pytest.raises(PreconditionError):
        build_context(DENSE, (0, 1), (1, 0))  # norm(D) < 0
    with pytest.raises(PreconditionError):
        build_context(Lattice(((2, 0), (0, -2))), (1, 0), (0, 1))  # pairing 0
    with pytest.raises(PreconditionError):
        build_context(DENSE, (1, 0), (0, 0))  # zero E


def test_case_a_frozen():
    iso = Lattice(((2, 1), (1, 0)))
    res = alpha_case_a(build_context(iso, (1, 0), (0, 1)))
    assert res.alpha == (2, -2)
    assert res.branch == "case_a"
    assert res.pell_solution_used is None
    assert norm(iso, res.alpha) == 0
    assert pairing(iso, res.alpha, (1, 0)) == 2  # = b*t*d
    rank3 = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -2)))
    ctx = build_context(rank3, (1, 1, 0), (0, 1, 0))
    res3 = alpha_case_a(ctx)
    assert res3.alpha == (2, 0, 0)
    assert norm(rank3, res3.alpha) == 0


def test_case_a_rejects_nonisotropic():
    with pytest.raises(PreconditionError):
        alpha_case_a(build_context(DENSE, (1, 0), (0, 1)))


def test_case_b_pell_frozen():
    res = alpha_case_b(build_context(DENSE, (1, 0), (0, 1)))
    assert res.branch == "case_b_pell"
    assert res.alpha == (8, -5)
    assert res.pell_solution_used == PellSolution(9, 4, 5)
    assert norm(DENSE, res.alpha) == -2  # = t*e


def test_case_b_square_frozen():
    nine = Lattice(((4, 1), (1, -2)))
    res = alpha_case_b(build_context(nine, (1, 0), (0, 1)))
    assert res.branch == "case_b_square_N"
    assert res.alpha == (6, -6)
    assert res.pell_solution_used is None
    assert norm(nine, res.alpha) == 0
    assert not res.certified_primitive


def test_case_b_rejects_isotropic():
    iso = Lattice(((2, 1), (1, 0)))
    with pytest.raises(PreconditionError):
        alpha_case_b(build_context(iso, (1, 0), (0, 1)))


def test_alpha_effective_worked_square_of_a_surface():
    t = parse_type("K3[n]", 2)
    ctx = build_context(DENSE, (1, 0), (0, 1))
    res = alpha_effective(ctx, t)
    assert res.alpha == (144, -89)
    assert res.pell_solution_used == PellSolution(161, 72, 5)
    assert res.pell_solution_used.x % (2 * (t.n - 1)) == 1
    assert res.certified_primitive and res.certified_effective
    assert res.div_alpha == 1
    assert norm(DENSE, res.alpha) == -2
    assert disc_class(DENSE, res.alpha) == -disc_class(DENSE, (0, 1))


def test_alpha_effective_worked_og6():
    lat = Lattice(((2, 2), (2, -2)))
    ctx = build_context(lat, (1, 0), (0, 1))
    assert (ctx.d, ctx.t, ctx.b, ctx.e, ctx.N) == (2, 2, 1, -1, 8)
    res = alpha_effective(ctx, parse_type("OG6"))
    assert res.alpha == (2, -1)
    assert res.pell_solution_used == PellSolution(3, 1, 8)
    assert res.certified_primitive and res.certified_effective
    assert res.div_alpha == 2
    assert norm(lat, res.alpha) == -2


def test_alpha_effective_certificate_can_fail_honestly():
    # valid OG10 input whose discriminant classes do not line up: the
    # construction still goes through, the certificate reports False
    lat = Lattice(((4, 3), (3, -6)))
    ctx = build_context(lat, (1, 0), (0, 1))
    assert (ctx.d, ctx.t, ctx.b, ctx.e, ctx.N) == (4, 3, 1, -2, 33)
    res = alpha_effective(ctx, parse_type("OG10"))
    assert res.alpha == (24, -11)
    assert res.pell_solution_used == PellSolution(23, 4, 33)
    assert res.certified_primitive
    assert not res.certified_effective
    assert res.div_alpha == 3


def test_alpha_effective_rejects_profile_mismatch():
    lat = Lattice(((2, 1), (1, -4)))
    ctx = build_context(lat, (1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        alpha_effective(ctx, parse_type("K3"))


def test_alpha_effective_rejects_square_n():
    nine = Lattice(((4, 1), (1, -2)))
    ctx = build_context(nine, (1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        alpha_effective(ctx, parse_type("K3"))


def test_alpha_effective_rejects_imprimitive_inputs():
    big = Lattice(((2, 1), (1, -2)))
    ctx = build_context(big, (2, 0), (0, 1))
    with pytest.raises(PreconditionError):
        alpha_effective(ctx, parse_type("K3"))


def test_randomized_case_a_identities():
    rng = random.Random(2024)
    for _ in range(300):
        rank = rng.randint(2, 5)
        lat, D, E = rand_case_a_pair(rng, rank)
        ctx = build_context(lat, D, E)
        assert ctx.e == 0 and ctx.N == ctx.t ** 2 * ctx.b ** 2
        res = alpha_case_a(ctx)
        assert norm(lat, res.alpha) == 0
        assert pairing(lat, res.alpha, D) == ctx.b * ctx.t * ctx.d


def test_randomized_case_b_identities():
    rng = random.Random(4099)
    seen_pell = seen_square = 0
    for _ in range(300):
        rank = rng.randint(2, 5)
        lat, D, E = rand_case_b_pair(rng, rank)
        ctx = build_context(lat, D, E)
        assert ctx.N == ctx.t ** 2 * ctx.b ** 2 - ctx.t * ctx.d * ctx.e
        assert ctx.N > 0
        res = alpha_case_b(ctx)
        te = ctx.t * ctx.e
        if res.branch == "case_b_pell":
            seen_pell += 1
            assert norm(lat, res.alpha) == te
            x, y = res.pell_solution_used.x, res.pell_solution_used.y
            # positivity of both combination coefficients
            assert x - ctx.t * ctx.b * y > 0
            assert -te * y > 0
        else:
            seen_square += 1
            assert norm(lat, res.alpha) == 0
    assert seen_pell > 50 and seen_square > 5


def test_pell_branch_holds_for_higher_solutions():
    # the norm identity holds for every solution of the same equation,
    # not only the fundamental one
    rng = random.Random(77)
    for _ in range(40):
        lat, D, E = rand_case_b_pair(rng, rng.randint(2, 4))
        ctx = build_context(lat, D, E)
        if is_perfect_square(ctx.N) is not None:
            continue
        sol = fundamental_solution(ctx.N)
        for _ in range(3):
            alpha = _pell_alpha(ctx, sol)
            assert norm(lat, alpha) == ctx.t * ctx.e
            sol = next_solution(fundamental_solution(ctx.N), sol)


ALPHA_K_LAT = Lattice(((0, 1, 0), (1, -2, 0), (0, 0, -2)))


def test_alpha_k_frozen():
    a, ap, E = (1, 0, 0), (0, 0, 1), (0, 1, 0)
    assert alpha_k(ALPHA_K_LAT, a, ap, E, 1) == (4, 1, -2)
    for k in (1, 2, 3, 10):
        out = alpha_k(ALPHA_K_LAT, a, ap, E, k)
        assert out == (4 * k * k, 1, -2 * k)
        assert norm(ALPHA_K_LAT, out) == norm(ALPHA_K_LAT, E)


def test_alpha_k_preconditions():
    a, ap, E = (1, 0, 0), (0, 0, 1), (0, 1, 0)
    with pytest.raises(PreconditionError):
        alpha_k(ALPHA_K_LAT, a, ap, E, 0)
    with pytest.raises(PreconditionError):
        alpha_k(ALPHA_K_LAT, (0, 1, 0), ap, E, 1)  # alpha not isotropic
    with pytest.raises(PreconditionError):
        alpha_k(ALPHA_K_LAT, a, (0, 1, 0), E, 1)  # alpha_prime not orthogonal
    with pytest.raises(PreconditionError):
        alpha_k(ALPHA_K_LAT, a, ap, (0, 0, 1), 1)  # pairing(alpha, E) = 0


def test_alpha_k_norm_equality_random():
    rng = random.Random(55)
    for _ in range(60):
        c = rng.randint(1, 5)
        lat = Lattice(((0, 1, 0), (1, -2 * rng.randint(0, 3), 0), (0, 0, -2 * c)))
        a = (1, 0, 0)
        ap = (0, 0, 1)
        E = (rng.randint(0, 4), rng.randint(1, 4), 0)
        p = pairing(lat, a, E)
        if p <= 0:
            continue
        for k in (1, 2, 7):
            out = alpha_k(lat, a, ap, E, k)
            assert norm(lat, out) == norm(lat, E)
        # coordinates are quadratic in k, so second differences along the
        # sequence are constant and equal twice the quadratic coefficient
        seq = [alpha_k(lat, a, ap, E, k) for k in (1, 2, 3, 4)]
        d1 = [tuple(x - y for x, y in zip(seq[j + 1], seq[j])) for j in range(3)]
        d2 = [tuple(x - y for x, y in zip(d1[j + 1], d1[j])) for j in range(2)]
        assert d2[0] == d2[1]
        ca1 = tuple(-2 * norm(lat, ap) * p ** 3 * x for x in a)
        assert d2[0] == tuple(2 * x for x in ca1)


def test_alpha_k_primitive_when_e_is():
    # any prime dividing alpha_k divides p = pairing(alpha_k, alpha), and
    # p^2, p^3 sit in the other coefficients, so it would divide E too
    rng = random.Random(91)
    for _ in range(60):
        lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -2 * rng.randint(1, 4))))
        E = (rng.randint(0, 3), rng.randint(1, 3), rng.randint(-2, 2))
        if gcd(*E) != 1:
            continue
        if pairing(lat, (1, 0, 0), E) <= 0 or pairing(lat, (0, 0, 1), E) != 0:
            continue
        out = alpha_k(lat, (1, 0, 0), (0, 0, 1), E, rng.randint(1, 20))
        assert is_primitive(lat, out)


def test_beta_projection_frozen():
    beta = beta_projection(DENSE, (1, 0), (0, 1))
    assert beta == (Fraction(1), Fraction(1, 2))
    diag = Lattice(((2, 0), (0, -2)))
    assert beta_projection(diag, (1, 0), (0, 1)) == (Fraction(1), Fraction(0))


def test_beta_projection_errors():
    iso = Lattice(((2, 1), (1, 0)))
    with pytest.raises(PreconditionError):
        beta_projection(iso, (1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        beta_projection(Lattice(((2, 0), (0, 3))), (1, 0), (0, 1))


def test_beta_projection_orthogonality_random():
    rng = random.Random(808)
    for _ in range(100):
        lat, D, E = rand_case_b_pair(rng, rng.randint(2, 4))
        beta = beta_projection(lat, D, E)
        dot = sum(
            beta[i] * lat.gram[i][j] * E[j]
            for i in range(lat.rank)
            for j in range(lat.rank)
        )
        assert dot == 0
        qe = Fraction(norm(lat, E))
        p = Fraction(pairing(lat, D, E))
        qb = sum(
            beta[i] * lat.gram[i][j] * beta[j]
            for i in range(lat.rank)
            for j in range(lat.rank)
        )
        assert qb == Fraction(norm(lat, D)) - p * p / qe
