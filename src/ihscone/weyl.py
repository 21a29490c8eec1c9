"""Reflections in negative-norm classes and the exceptional chamber.

The group generated by reflections in the numerically exceptional
classes acts on the positive cone; weyl_reduce moves a class into the
fundamental chamber (nonnegative pairing with every root) and
is_chamber_wall reads off, from the chamber's double-description
incidence, which root hyperplanes actually support facets of it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import gcd
from operator import add, mod, mul
from typing import Sequence

from .errors import (
    BoundExceededError,
    NonIntegralReflectionError,
    PreconditionError,
)
from .lattice import Lattice, Vec, mat_vec, norm


def _root_image(L: Lattice, r: Vec) -> tuple[Vec, int]:
    """G r and norm(r) for a checked vector r, which must have negative norm."""
    gr = mat_vec(L.gram, r)
    q = sum(map(mul, r, gr))
    if q == 0:
        raise PreconditionError("reflection root must not be isotropic")
    if q > 0:
        raise PreconditionError("reflection root must have negative norm, got %d" % q)
    return gr, q


def _reflected(v: Vec, r: Vec, num: int, q: int) -> Vec:
    """v - c r for c = num / q, num = 2*pairing(r, v) and q = norm(r), checked integral."""
    c, off = divmod(num, q)
    if off:
        raise NonIntegralReflectionError(
            "2*pairing(root, v) = %d is not divisible by norm(root) = %d" % (num, q)
        )
    return tuple([x - c * y for x, y in zip(v, r)])


def reflect(L: Lattice, root: Sequence[int], v: Sequence[int]) -> Vec:
    """v - (2*pairing(root, v)/norm(root)) * root, checked integral."""
    r = L.check_vector(root)
    gr, q = _root_image(L, r)
    w = L.check_vector(v)
    return _reflected(w, r, 2 * sum(map(mul, gr, w)), q)


def reflection_is_integral(L: Lattice, root: Sequence[int]) -> bool:
    """True iff the reflection in root maps the whole lattice into itself,
    i.e. norm(root) divides 2*pairing(root, b) for every basis vector b:
    it divides 2 gcd(G root).

    Roots matching a catalog profile always pass (their norm divides
    twice their divisibility).
    """
    gr, q = _root_image(L, L.check_vector(root))
    return 2 * gcd(*gr) % q == 0


def _column_sum(coeffs: Sequence[int], cols: Sequence[Sequence[int]], size: int) -> list[int]:
    """sum_k coeffs[k] * cols[k] entry by entry, zero coefficients skipped;
    size zeros when every coefficient is 0."""
    acc = None
    for a, col in zip(coeffs, cols):
        if a:
            term = map(mul, repeat(a), col)
            acc = list(term) if acc is None else list(map(add, acc, term))
    return [0] * size if acc is None else acc


# word holds the roots in the order applied
ChamberReduction = namedtuple("ChamberReduction", "representative word steps")


def weyl_reduce(
    L: Lattice, roots: Sequence[Sequence[int]], v: Sequence[int], max_steps: int = 10000
) -> ChamberReduction:
    """Reflect v until it pairs nonnegatively with every root.

    Pivot rule: the root of most negative pairing, ties broken by lowest
    index.  The recorded word, applied right-to-left to the
    representative, reconstructs the input.

    Each root is checked once, before any step: check_vector, then
    `_root_image` (norm(r) < 0) and the test of `reflection_is_integral`,
    all on the roots' coordinate columns: the Gram-image columns
    sum_k G[c][k] * col_k give every root's norm and, by gcd across them,
    its Gram content in C-level passes over whole columns.  The first
    failing root, by index, raises what `_root_image` or the integrality
    test would raise on it; only then is v checked.  A step pairs every
    root with G cur the same way, sum_c (G cur)[c] * col_c, and
    `_reflected`, the step of `reflect`, moves cur by the pivot.
    max_steps must be a nonnegative integer.

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
    cols = list(zip(*rs))
    gcols = [_column_sum(row, cols, len(rs)) for row in L.gram]
    norms = [0] * len(rs)
    for col, gcol in zip(cols, gcols):
        norms = list(map(add, norms, map(mul, col, gcol)))
    gcds = list(map(gcd, *gcols))
    if rs and (max(norms) >= 0 or any(map(mod, map(mul, repeat(2), gcds), norms))):
        for i, (q, g) in enumerate(zip(norms, gcds)):
            if q >= 0:
                _root_image(L, rs[i])  # raises the isotropic or positive-norm error
            if 2 * g % q:
                raise PreconditionError("root %d does not define an integral reflection" % i)
    cur = L.check_vector(v)
    if norm(L, cur) < 0:
        raise PreconditionError(
            "vector to reduce must lie in the closed positive cone, norm is %d"
            % norm(L, cur)
        )
    word: list[Vec] = []
    while True:
        pairings = _column_sum(mat_vec(L.gram, cur), cols, len(rs))
        worst_val = min(pairings, default=0)
        if worst_val >= 0:
            return ChamberReduction(cur, tuple(word), len(word))
        if len(word) >= max_steps:
            raise BoundExceededError(
                "chamber reduction did not terminate within %d steps" % max_steps
            )
        # list.index takes the lowest index among ties
        i = pairings.index(worst_val)
        r = rs[i]
        cur = _reflected(cur, r, 2 * worst_val, norms[i])
        word.append(r)


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
