"""Pell equations x^2 - N*y^2 = 1 over positive integers, exactly.

The fundamental solution comes from the continued fraction expansion of
sqrt(N); every further solution follows from the multiplication rule on
the group of units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BoundExceededError,
    ContractViolationError,
    PellRangeError,
    PellSquareError,
    PreconditionError,
)


@dataclass(frozen=True)
class PellSolution:
    x: int
    y: int
    n_param: int

    def __post_init__(self):
        if self.x * self.x - self.n_param * self.y * self.y != 1:
            raise PreconditionError(
                "(%d, %d) does not solve x^2 - %d*y^2 = 1" % (self.x, self.y, self.n_param)
            )


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

    Walks the continued fraction convergents of sqrt(n); the first
    convergent satisfying the equation is the fundamental solution.
    """
    _check_param(n)
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - n * k * k != 1:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return PellSolution(h, k, n)


def next_solution(s: PellSolution, fund: PellSolution) -> PellSolution:
    """Compose a solution with the fundamental one (index + 1)."""
    if s.n_param != fund.n_param:
        raise PreconditionError(
            "solutions of different equations: N=%d vs N=%d" % (s.n_param, fund.n_param)
        )
    n = s.n_param
    return PellSolution(fund.x * s.x + n * fund.y * s.y, fund.x * s.y + fund.y * s.x, n)


def second_solution(n: int) -> PellSolution:
    """Index-2 solution (x1^2 + N*y1^2, 2*x1*y1).

    Its x is 1 mod 2N and its y is even, which is what the effective-class
    construction needs for the discriminant-class congruences.
    """
    f = fundamental_solution(n)
    s = PellSolution(f.x * f.x + n * f.y * f.y, 2 * f.x * f.y, n)
    if s.x - 1 != 2 * n * f.y * f.y:
        raise ContractViolationError("second Pell solution violates x2 - 1 = 2*N*y1^2")
    if s.y % 2 != 0:
        raise ContractViolationError("second Pell solution has odd y")
    return s


def solution_with_residue(n: int, modulus: int, residue_x: int, index_cap: int = 64) -> PellSolution:
    """First solution (by index) whose x is residue_x mod modulus."""
    if modulus < 1:
        raise PreconditionError("modulus must be positive")
    fund = fundamental_solution(n)
    s = fund
    for _ in range(index_cap):
        if s.x % modulus == residue_x % modulus:
            return s
        s = next_solution(s, fund)
    raise BoundExceededError(
        "no solution of x^2 - %d*y^2 = 1 with x = %d (mod %d) within index cap %d"
        % (n, residue_x, modulus, index_cap)
    )
