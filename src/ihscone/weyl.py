"""Reflections in negative-norm classes and the exceptional chamber.

The group generated by reflections in the numerically exceptional
classes acts on the positive cone; weyl_reduce moves a class into the
fundamental chamber (nonnegative pairing with every root) and
is_chamber_wall reads off, from the chamber's double-description
incidence, which root hyperplanes actually support facets of it.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import mul
from typing import Sequence

from .errors import (
    BoundExceededError,
    NonIntegralReflectionError,
    PreconditionError,
)
from .lattice import Lattice, Vec, gram_vec, mat_vec, norm, pairing


class Reflection(namedtuple("Reflection", "root root_norm")):
    __slots__ = ()

    @staticmethod
    def of(L: Lattice, root: Sequence[int]) -> "Reflection":
        r = L.check_vector(root)
        return Reflection(r, _checked_root_norm(norm(L, r)))


def _checked_root_norm(q: int) -> int:
    if q == 0:
        raise PreconditionError("reflection root must not be isotropic")
    if q > 0:
        raise PreconditionError("reflection root must have negative norm, got %d" % q)
    return q


def reflect(L: Lattice, root: Sequence[int], v: Sequence[int]) -> Vec:
    """v - (2*pairing(root, v)/norm(root)) * root, checked integral."""
    ref = Reflection.of(L, root)
    w = L.check_vector(v)
    c = _reflection_coefficient(2 * pairing(L, ref.root, w), ref.root_norm)
    return tuple(w[i] - c * ref.root[i] for i in range(L.rank))


def _reflection_coefficient(num: int, root_norm: int) -> int:
    """num / root_norm for num = 2*pairing(root, v), checked integral."""
    c, off = divmod(num, root_norm)
    if off:
        raise NonIntegralReflectionError(
            "2*pairing(root, v) = %d is not divisible by norm(root) = %d" % (num, root_norm)
        )
    return c


def reflection_is_integral(L: Lattice, root: Sequence[int]) -> bool:
    """True iff the reflection in root maps the whole lattice into itself,
    i.e. norm(root) divides 2*pairing(root, b) for every basis vector b.

    Roots matching a catalog profile always pass (their norm divides
    twice their divisibility).
    """
    ref = Reflection.of(L, root)
    return all(2 * x % ref.root_norm == 0 for x in gram_vec(L, ref.root))


# word holds the roots in the order applied
ChamberReduction = namedtuple("ChamberReduction", "representative word steps")


def weyl_reduce(
    L: Lattice, roots: Sequence[Sequence[int]], v: Sequence[int], max_steps: int = 10000
) -> ChamberReduction:
    """Reflect v until it pairs nonnegatively with every root.

    Pivot rule: the root of most negative pairing, ties broken by lowest
    index.  The recorded word, applied right-to-left to the
    representative, reconstructs the input.

    Each root is checked once, before any step: check_vector, norm(r) < 0
    and the integrality precondition (norm(r) divides every entry of 2 G r,
    i.e. 2 gcd(G r), the test of `reflection_is_integral`). Nothing from
    that pass is kept. A step pairs every root with G cur, one Gram image
    per step instead of one per root, and the reflection computes the
    pivot's norm, as `reflect` would.  max_steps must be a nonnegative
    integer.

    Termination: let every root pair positively with an ample class a and
    reflect integrally, as enumerated classes do, and let v lie on a's
    sheet of the closed positive cone, so pairing(v, a) >= 0.  A step in
    a root r with pairing(v, r) < 0 subtracts c*r with c = 2*pairing(v, r)
    / norm(r) a positive integer, so it lowers the integer pairing(v, a)
    by c*pairing(r, a) >= 1, and reflections keep the sheet.  Reduction
    therefore ends within pairing(v, a) steps.  On the other sheet no
    number of steps reaches the chamber; `cli.run_reduce` refuses such v.
    """
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 0:
        raise PreconditionError(f"max_steps must be a nonnegative integer, got {max_steps!r}")
    rs = [L.check_vector(r) for r in roots]
    for i, r in enumerate(rs):
        gr = mat_vec(L.gram, r)
        q = _checked_root_norm(sum(map(mul, r, gr)))
        if 2 * gcd(*gr) % q:
            raise PreconditionError("root %d does not define an integral reflection" % i)
    cur = L.check_vector(v)
    if norm(L, cur) < 0:
        raise PreconditionError(
            "vector to reduce must lie in the closed positive cone, norm is %d"
            % norm(L, cur)
        )
    word: list[Vec] = []
    steps = 0
    while True:
        gcur = mat_vec(L.gram, cur)
        pairings = [sum(map(mul, r, gcur)) for r in rs]
        worst_val = min(pairings, default=0)
        if worst_val >= 0:
            return ChamberReduction(cur, tuple(word), steps)
        if steps >= max_steps:
            raise BoundExceededError(
                "chamber reduction did not terminate within %d steps" % max_steps
            )
        # list.index takes the lowest index among ties
        r = rs[pairings.index(worst_val)]
        c = _reflection_coefficient(2 * worst_val, norm(L, r))
        cur = tuple(x - c * y for x, y in zip(cur, r))
        word.append(r)
        steps += 1


def is_chamber_wall(incidence: Sequence[int], i: int) -> bool:
    """Does row i support a facet of the chamber
    C = {x : pairing(x, r) >= 0 for every root r, pairing(x, ample) >= 0}?

    incidence[j], from `dd_generators` on C's rows, is the bitmask of the
    extreme rays tight on row j.  Let the rows be nonzero and C
    full-dimensional, as in `engine.analyze`, where the ample class pairs
    positively with every row.  Then row j cuts out a proper face spanned
    by the lineality space and the rays of incidence[j], so faces contain
    each other exactly as their ray sets do.  The facets are the maximal
    proper faces, each cut out by some row (Ziegler 1995, ch. 2), so row i
    is a wall iff no incidence[j] strictly contains incidence[i];
    proportional rows have equal sets and are both walls.  The ample
    inequality is the linear stand-in for membership in the positive cone
    on the ample side: every genuine facet point satisfies it, and at
    rank 2 the two conditions agree outright.
    """
    s = incidence[i]
    return not any(s & t == s != t for t in incidence)
