"""Pell equations x^2 - N*y^2 = 1 over positive integers, exactly.

The fundamental solution comes from half a period of the continued
fraction of sqrt(N) = [a0; a1, ..., aP], whose last partial quotient
aP = 2*a0 ends the period.  The quotients a1, ..., a(P-1) read the same
backwards (Jacobson & Williams 2009, "Solving the Pell Equation"), so the
walk stops at the centre of the period and builds the convergent at its
end from the convergents there, with a few products of half-length
numbers.  That convergent p/q satisfies p^2 - N*q^2 = (-1)^P, so it is
the fundamental solution when P is even and squares to it,
(p^2 + N*q^2, 2*p*q), when P is odd.  Every further solution follows
from the multiplication rule on the group of units, and PellSolution
re-checks the equation on every solution it holds.
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
        # one type test each: a residue search builds one solution per index
        if type(x) is not int or type(y) is not int or type(n_param) is not int:
            raise PreconditionError("a Pell solution takes integers, got %r" % ((x, y, n_param),))
        if x * x - n_param * y * y != 1:
            raise PreconditionError(
                "(%d, %d) does not solve x^2 - %d*y^2 = 1" % (x, y, n_param)
            )
        return super().__new__(cls, x, y, n_param)


def is_perfect_square(n: int):
    """Exact square root of n if n is a perfect square, else None."""
    if type(n) is not int or n < 0:
        raise PreconditionError("is_perfect_square expects a nonnegative integer, got %r" % (n,))
    r = math.isqrt(n)
    return r if r * r == n else None


def _check_param(n: int) -> None:
    if type(n) is not int:
        raise PreconditionError("Pell parameter must be an integer, got %r" % (n,))
    if n < 2:
        raise PellRangeError("Pell parameter must be at least 2, got %d" % n)
    if is_perfect_square(n) is not None:
        raise PellSquareError("Pell parameter %d is a perfect square" % n)


def fundamental_solution(n: int) -> PellSolution:
    """Smallest positive-integer solution of x^2 - n*y^2 = 1.

    Runs the recurrences m' = d*a - m, d' = (n - m'^2)/d, a' = (a0 + m')//d'
    of the continued fraction of sqrt(n), and the convergents p_i/q_i with
    them (p_{-1} = 1, q_{-1} = 0, p_{-2} = 0, q_{-2} = 1), up to the centre
    of the first period, of length P.  The period's quotients
    a1, ..., a(P-1) are a palindrome (Jacobson & Williams 2009, "Solving
    the Pell Equation"), and so are the m and d along it, which marks the
    centre: m_k = m_{k+1} means P = 2k, and d_k = d_{k+1} means P = 2k + 1.

    With A_i = [[a_i, 1], [1, 0]], the matrix M = A_0*A_1*...*A_(P-1) is
    [[p_{P-1}, p_{P-2}], [q_{P-1}, q_{P-2}]].  Each A_i is symmetric, so
    the palindrome gives M = A_0*S with S = B*A_k*B^T, B = A_1*...*A_(k-1),
    for an even period and S = B*B^T, B = A_1*...*A_k, for an odd one.
    For B = A_1*...*A_j, A_0*B = [[p_j, p_{j-1}], [q_j, q_{j-1}]] and B's
    first row is (q_j, q_{j-1}), so the first column of M is:

      even P = 2k:     x = p_{k-1}*q_k + p_{k-2}*q_{k-1},
                       y = q_{k-1}*(q_k + q_{k-2}),
      odd P = 2k + 1:  x = p_k*q_k + p_{k-1}*q_{k-1},
                       y = q_k^2 + q_{k-1}^2.

    This is the last convergent before a_P = 2*a0, p_{P-1}/q_{P-1}, with
    p^2 - n*q^2 = (-1)^P (Lenstra 2002, "Solving the Pell equation").  For
    even P it is the fundamental solution; for odd P it solves the
    negative equation and its square (p^2 + n*q^2, 2*p*q) is the
    fundamental solution.

    The walk takes about P/2 steps, half of a full-period walk, and each
    step only multiplies a convergent by a quotient a < 2*sqrt(n), O(D)
    for D-digit convergents; the closing products are of half-length
    numbers.  No convergent is tested against the equation along the way.
    PellSolution verifies the returned pair exactly.
    """
    _check_param(n)
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    p1, p2 = 1, 0  # p_{k-1}, p_{k-2} at step k
    q1, q2 = 0, 1  # q_{k-1}, q_{k-2}
    while True:
        m_next = d * a - m
        if m_next == m:  # even period 2k
            q = a * q1 + q2
            return PellSolution(p1 * q + p2 * q1, q1 * (q + q2), n)
        p, q = a * p1 + p2, a * q1 + q2
        d_next = (n - m_next * m_next) // d
        if d_next == d:  # odd period 2k + 1: x^2 - n*y^2 = -1
            x, y = p * q + p1 * q1, q * q + q1 * q1
            return PellSolution(x * x + n * y * y, 2 * x * y, n)
        m, d = m_next, d_next
        a = (a0 + m) // d
        p1, p2 = p, p1
        q1, q2 = q, q1


def next_solution(s: PellSolution, fund: PellSolution) -> PellSolution:
    """Compose a solution with the fundamental one (index + 1)."""
    if not isinstance(s, PellSolution) or not isinstance(fund, PellSolution):
        raise PreconditionError("expected PellSolutions, got %r and %r" % (s, fund))
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
    if not isinstance(fund, PellSolution):
        raise PreconditionError("expected a PellSolution, got %r" % (fund,))
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
    if not isinstance(fund, PellSolution):
        raise PreconditionError("expected a PellSolution, got %r" % (fund,))
    if type(modulus) is not int or type(residue_x) is not int or type(index_cap) is not int:
        raise PreconditionError("modulus, residue and index cap must be integers")
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
