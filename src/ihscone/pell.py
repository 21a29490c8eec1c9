"""Pell equations x^2 - N*y^2 = 1 over positive integers, exactly.

The fundamental solution comes from one period of the continued fraction
of sqrt(N) = [a0; a1, ..., aP], whose last partial quotient aP = 2*a0 ends
the period.  The convergent p/q just before that quotient satisfies
p^2 - N*q^2 = (-1)^P, so it is the fundamental solution when P is even
and squares to it, (p^2 + N*q^2, 2*p*q), when P is odd.  Each step adds a
small multiple of a convergent, so a solve costs O(P*D) for a solution
of D digits; no step squares the growing convergents.  Every further
solution follows from the multiplication rule on the group of units, and
PellSolution re-checks the equation on every solution it holds.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (
    BoundExceededError,
    ContractViolationError,
    PellRangeError,
    PellSquareError,
    PreconditionError,
)

INDEX_CAP = 64  # default for how many solutions a residue search tries


class PellSolution(namedtuple("PellSolution", "x y n_param")):
    __slots__ = ()

    def __new__(cls, x: int, y: int, n_param: int) -> PellSolution:
        if x * x - n_param * y * y != 1:
            raise PreconditionError(
                "(%d, %d) does not solve x^2 - %d*y^2 = 1" % (x, y, n_param)
            )
        return super().__new__(cls, x, y, n_param)


def is_perfect_square(n: int):
    """Exact square root of n if n is a perfect square, else None."""
    if n < 0:
        raise PreconditionError("is_perfect_square expects a nonnegative integer")
    r = math.isqrt(n)
    return r if r * r == n else None


def _check_param(n: int) -> None:
    if n < 2:
        raise PellRangeError("Pell parameter must be at least 2, got %d" % n)
    if is_perfect_square(n) is not None:
        raise PellSquareError("Pell parameter %d is a perfect square" % n)


def fundamental_solution(n: int) -> PellSolution:
    """Smallest positive-integer solution of x^2 - n*y^2 = 1.

    Runs the recurrences m' = d*a - m, d' = (n - m'^2)/d, a' = (a0 + m')//d'
    of the continued fraction of sqrt(n), and the convergents p/q with
    them, until a = 2*a0 closes the first period, of length P.  The last
    convergent before it, p_{P-1}/q_{P-1}, has p^2 - n*q^2 = (-1)^P
    (Lenstra 2002, "Solving the Pell equation").  For even P it is the
    fundamental solution; for odd P it solves the negative equation and
    its square (p^2 + n*q^2, 2*p*q) is the fundamental solution.

    Because the period rule says where the solution is, no convergent is
    tested against the equation along the way: each step only multiplies
    a convergent by a quotient a < 2*sqrt(n), O(D) for D-digit
    convergents, where a per-step test would square them.  PellSolution
    verifies the returned pair exactly.
    """
    _check_param(n)
    a0 = math.isqrt(n)
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
    return PellSolution(h, k, n)


def next_solution(s: PellSolution, fund: PellSolution) -> PellSolution:
    """Compose a solution with the fundamental one (index + 1)."""
    if s.n_param != fund.n_param:
        raise PreconditionError(
            "solutions of different equations: N=%d vs N=%d" % (s.n_param, fund.n_param)
        )
    n = s.n_param
    return PellSolution(fund.x * s.x + n * fund.y * s.y, fund.x * s.y + fund.y * s.x, n)


def second_solution(fund: PellSolution) -> PellSolution:
    """Index-2 solution (x1^2 + N*y1^2, 2*x1*y1) from the fundamental one.

    Its x is 1 mod 2N and its y is even, which is what the effective-class
    construction needs for the discriminant-class congruences.
    """
    s = next_solution(fund, fund)
    if s.x - 1 != 2 * fund.n_param * fund.y * fund.y:
        raise ContractViolationError("second Pell solution violates x2 - 1 = 2*N*y1^2")
    if s.y % 2 != 0:
        raise ContractViolationError("second Pell solution has odd y")
    return s


def solution_with_residue(
    fund: PellSolution, modulus: int, residue_x: int, index_cap: int = INDEX_CAP
) -> PellSolution:
    """First solution (by index, from the fundamental one) whose x is
    residue_x mod modulus."""
    if modulus < 1:
        raise PreconditionError("modulus must be positive")
    s = fund
    for _ in range(index_cap):
        if s.x % modulus == residue_x % modulus:
            return s
        s = next_solution(s, fund)
    raise BoundExceededError(
        "no solution of x^2 - %d*y^2 = 1 with x = %d (mod %d) within index cap %d"
        % (fund.n_param, residue_x, modulus, index_cap)
    )
