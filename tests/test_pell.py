"""Pell solver tests: frozen small cases, two independent oracles, and
the identities the class constructions lean on."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihscone.errors import (
    BoundExceededError,
    PellRangeError,
    PellSquareError,
    PreconditionError,
)
from ihscone.pell import (
    PellSolution,
    fundamental_solution,
    is_perfect_square,
    next_solution,
    second_solution,
    solution_with_residue,
)
from tests.helpers import (
    brute_force_pell_x,
    brute_force_pell_y,
    cf_period,
    chakravala,
    full_period_pell,
    nonsquares_up_to,
)


def test_is_perfect_square():
    assert is_perfect_square(9) == 3
    assert is_perfect_square(0) == 0
    assert is_perfect_square(5) is None
    assert is_perfect_square(1) == 1
    with pytest.raises(PreconditionError):
        is_perfect_square(-1)


@given(st.integers(min_value=0, max_value=10 ** 12))
@settings(deadline=None, max_examples=80)
def test_is_perfect_square_matches_isqrt(n):
    import math

    r = math.isqrt(n)
    expected = r if r * r == n else None
    assert is_perfect_square(n) == expected


def test_fundamental_frozen():
    assert (fundamental_solution(2).x, fundamental_solution(2).y) == (3, 2)
    assert (fundamental_solution(3).x, fundamental_solution(3).y) == (2, 1)
    assert (fundamental_solution(5).x, fundamental_solution(5).y) == (9, 4)
    # the classic large one: the solver must not mind 10-digit answers
    s61 = fundamental_solution(61)
    assert (s61.x, s61.y) == (1766319049, 226153980)
    # sqrt(13) = [3; 1, 1, 1, 1, 6] has odd period 5: the last convergent
    # 18/5 solves x^2 - 13*y^2 = -1 and is squared
    assert (fundamental_solution(13).x, fundamental_solution(13).y) == (649, 180)
    # sqrt(46) has even period 12: the last convergent is the solution
    assert (fundamental_solution(46).x, fundamental_solution(46).y) == (24335, 3588)


def test_fundamental_rejects_bad_parameters():
    for n in (1, 0, -7):
        with pytest.raises(PellRangeError):
            fundamental_solution(n)
    for n in (4, 9, 144):
        with pytest.raises(PellSquareError):
            fundamental_solution(n)


def test_fundamental_matches_brute_force_small():
    for n in nonsquares_up_to(80):
        s = fundamental_solution(n)
        got = brute_force_pell_y(n, 100000)
        if got is None:
            # brute force ran out of road; the claimed minimum must be beyond it
            assert s.y > 100000
        else:
            assert got == (s.x, s.y)


def test_fundamental_matches_x_increment_oracle():
    # the textbook oracle walks x directly; feasible for tame parameters
    for n in (2, 3, 5, 6, 7, 8, 10, 11, 12, 15, 20, 24, 35, 48, 63, 99):
        s = fundamental_solution(n)
        assert brute_force_pell_x(n, 10000) == (s.x, s.y)


def test_fundamental_matches_cyclic_method():
    for n in nonsquares_up_to(3000):
        s = fundamental_solution(n)
        assert chakravala(n) == (s.x, s.y)


def test_fundamental_matches_cyclic_method_large():
    # three long even periods (fundamental x of 1034-3873 digits) and ten
    # random N
    rng = random.Random(7)
    params = [999331, 4000189, 6615019]
    while len(params) < 13:
        n = rng.randrange(10 ** 5, 10 ** 7)
        if is_perfect_square(n) is None:
            params.append(n)
    for n in params:
        s = fundamental_solution(n)
        assert chakravala(n) == (s.x, s.y)


def test_half_period_walk_matches_full_period_walk():
    # the walk stops at the centre of the period; the full-period walk it
    # replaced is the oracle, on every small N and on 20 seeded large ones
    for n in nonsquares_up_to(4999):
        assert full_period_pell(n) == fundamental_solution(n)[:2], n
    rng = random.Random(30)
    params = []
    while len(params) < 20:
        n = rng.randrange(10 ** 5, 10 ** 7)
        if is_perfect_square(n) is None:
            params.append(n)
    for n in params:
        assert full_period_pell(n) == fundamental_solution(n)[:2], n


@pytest.mark.parametrize("n, period", [
    (2, 1), (5, 1), (1000001, 1),
    (3, 2), (99, 2),
    (1000861, 2409), (5000389, 5127),
    (999331, 2006), (6615019, 4230),
], ids=lambda v: str(v))
def test_half_period_walk_at_named_periods(n, period):
    # periods 1 and 2 put the centre at the first steps; the long odd
    # periods take the branch that squares a solution of the negative
    # equation, which the random large cases above may not reach
    assert cf_period(n) == period
    s = fundamental_solution(n)
    assert (s.x, s.y) == full_period_pell(n) == chakravala(n)


def test_solution_invariant_enforced():
    with pytest.raises(PreconditionError):
        PellSolution(3, 3, 2)
    s = PellSolution(3, 2, 2)
    assert s.x * s.x - 2 * s.y * s.y == 1


def test_next_solution_frozen():
    f3 = fundamental_solution(3)
    assert (next_solution(f3, f3).x, next_solution(f3, f3).y) == (7, 4)
    f2 = fundamental_solution(2)
    assert (next_solution(f2, f2).x, next_solution(f2, f2).y) == (17, 12)
    f5 = fundamental_solution(5)
    assert (next_solution(f5, f5).x, next_solution(f5, f5).y) == (161, 72)


def test_next_solution_rejects_mismatched_equations():
    with pytest.raises(PreconditionError):
        next_solution(fundamental_solution(2), fundamental_solution(3))


@given(st.integers(min_value=2, max_value=400))
@settings(deadline=None, max_examples=100)
def test_recursion_chain_properties(n):
    if is_perfect_square(n) is not None:
        return
    fund = fundamental_solution(n)
    s = fund
    for _ in range(10):
        t = next_solution(s, fund)
        # PellSolution re-checks the equation on construction
        assert t.x > s.x and t.y > s.y
        s = t


def test_second_solution_frozen():
    assert (
        second_solution(fundamental_solution(3)).x,
        second_solution(fundamental_solution(3)).y,
    ) == (7, 4)
    assert (
        second_solution(fundamental_solution(2)).x,
        second_solution(fundamental_solution(2)).y,
    ) == (17, 12)
    assert (
        second_solution(fundamental_solution(5)).x,
        second_solution(fundamental_solution(5)).y,
    ) == (161, 72)


@given(st.integers(min_value=2, max_value=500))
@settings(deadline=None, max_examples=100)
def test_second_solution_identities(n):
    if is_perfect_square(n) is not None:
        return
    f = fundamental_solution(n)
    s = second_solution(fundamental_solution(n))
    assert s.x - 1 == 2 * n * f.y * f.y
    assert s.y % 2 == 0
    assert s.x % (2 * n) == 1
    chained = next_solution(f, f)
    assert (s.x, s.y) == (chained.x, chained.y)


def test_solution_with_residue_frozen():
    # the chain for 3 runs (2,1), (7,4), (26,15), (97,56): x hits 1 mod 4 at index 4
    s = solution_with_residue(fundamental_solution(3), 4, 1)
    assert (s.x, s.y) == (97, 56)
    assert (
        solution_with_residue(fundamental_solution(2), 2, 1).x,
        solution_with_residue(fundamental_solution(2), 2, 1).y,
    ) == (3, 2)
    # modulus 1 accepts the fundamental solution immediately
    s7 = solution_with_residue(fundamental_solution(7), 1, 0)
    f7 = fundamental_solution(7)
    assert (s7.x, s7.y) == (f7.x, f7.y)


def test_solution_with_residue_cap():
    # x mod 5 cycles through {2, 1} for parameter 3, so residue 3 never shows up
    with pytest.raises(BoundExceededError) as exc:
        solution_with_residue(fundamental_solution(3), 5, 3, index_cap=8)
    assert "8" in str(exc.value)


def test_solution_with_residue_rejects_bad_modulus():
    with pytest.raises(PreconditionError):
        solution_with_residue(fundamental_solution(3), 0, 1)


def test_pell_functions_take_integers_only():
    # unrefused, a float or bool passes the equation check, and a float
    # reaches math.isqrt or range as a TypeError
    for args in ((3.0, 2.0, 2), (3, 2, 2.0), (True, 0, 2), ("3", 2, 2)):
        with pytest.raises(PreconditionError):
            PellSolution(*args)
    for n in (7.0, True, "7"):
        with pytest.raises(PreconditionError):
            fundamental_solution(n)
    f = fundamental_solution(3)
    for modulus, residue, cap in ((5, 2, 2.5), (5, 2, True), (5.0, 2, 4), (5, "2", 4)):
        with pytest.raises(PreconditionError):
            solution_with_residue(f, modulus, residue, index_cap=cap)
    with pytest.raises(PreconditionError):
        solution_with_residue((2, 1, 3), 5, 2)


def test_pell_helpers_take_their_own_types_only():
    # a float or bool square test, and a bare tuple in place of a solution,
    # are refused as the other Pell functions refuse them, not answered or
    # left to fail as TypeError or AttributeError
    for n in (2.0, 4.0, True, False, "4", None):
        with pytest.raises(PreconditionError, match="nonnegative integer"):
            is_perfect_square(n)
    f = fundamental_solution(3)
    for s, fund in (((2, 1, 3), f), (f, (2, 1, 3)), ((3, 2, 2), (3, 2, 2))):
        with pytest.raises(PreconditionError, match="PellSolution"):
            next_solution(s, fund)
    for fund in ((3, 2, 2), [2, 1, 3], None):
        with pytest.raises(PreconditionError, match="PellSolution"):
            second_solution(fund)
    assert next_solution(f, f) == second_solution(f)
