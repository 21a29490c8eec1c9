"""Integer lattices with a symmetric bilinear form, given by a Gram matrix.

Everything here is exact: integer arithmetic throughout, Fractions for
the few rational outputs (discriminant-group generator lifts).  No
floating point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import index, mul
from typing import Sequence

from .errors import (
    DegenerateGramError,
    DimensionMismatchError,
    InputFormatError,
    PreconditionError,
)

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def _as_vec(v: Sequence[int]) -> Vec:
    """v as a tuple of ints; a bool or a non-integer entry is an InputFormatError.

    v is read once, so a one-shot iterator is checked as a list is, and its
    error shows the entries read, as a tuple; a list or tuple is shown as is.
    """
    try:
        items = tuple(v)
    except TypeError as exc:
        raise InputFormatError(f"expected integer entries, got {v!r}") from exc
    shown = v if isinstance(v, (list, tuple)) else items
    try:
        w = tuple(map(index, items))
    except TypeError as exc:
        raise InputFormatError(f"expected integer entries, got {shown!r}") from exc
    if bool in map(type, items):
        raise InputFormatError(f"expected integer entries, got a boolean in {shown!r}")
    return w


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(m, v) -> Vec:
    return tuple([sum(map(mul, row, v)) for row in m])


def det_int(m) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by Bareiss' identity
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class Lattice(namedtuple("Lattice", "gram")):
    """Free Z-module of finite rank with a nondegenerate integer pairing.

    A named tuple (gram,); construction makes gram a tuple of
    integer tuples and checks that it is square, symmetric and
    nondegenerate.
    """

    __slots__ = ()

    def __new__(cls, gram: Sequence[Sequence[int]]) -> Lattice:
        g = tuple(_as_vec(row) for row in gram)
        n = len(g)
        if n == 0:
            raise InputFormatError("gram matrix must have positive rank")
        for i, row in enumerate(g):
            if len(row) != n:
                raise InputFormatError(
                    "gram matrix is not square: row %d has length %d, expected %d"
                    % (i, len(row), n)
                )
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise InputFormatError(
                        "gram matrix is not symmetric at entries (%d,%d)/(%d,%d): %d != %d"
                        % (i, j, j, i, g[i][j], g[j][i])
                    )
        if det_int(g) == 0:
            raise DegenerateGramError("gram matrix is degenerate (determinant 0)")
        return super().__new__(cls, g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def check_vector(self, v: Sequence[int]) -> Vec:
        w = _as_vec(v)
        if len(w) != self.rank:
            raise DimensionMismatchError(
                "vector of length %d in a rank-%d lattice" % (len(w), self.rank)
            )
        return w


def pairing(L: Lattice, v: Sequence[int], w: Sequence[int]) -> int:
    """Bilinear form value v^T * gram * w."""
    a = L.check_vector(v)
    b = L.check_vector(w)
    return sum(map(mul, a, mat_vec(L.gram, b)))


def norm(L: Lattice, v: Sequence[int]) -> int:
    """Self-pairing of v (the lattice "square"; sign matters, no sqrt)."""
    return pairing(L, v, v)


def gram_vec(L: Lattice, v: Sequence[int]) -> Vec:
    """gram * v, the vector of pairings of v against the basis."""
    return mat_vec(L.gram, L.check_vector(v))


def divisibility(L: Lattice, v: Sequence[int]) -> int:
    """Positive generator of the ideal of pairings of v against the lattice.

    Equals the gcd of the entries of gram * v.
    """
    w = L.check_vector(v)
    if all(x == 0 for x in w):
        raise PreconditionError("divisibility of the zero vector is undefined")
    return math.gcd(*gram_vec(L, w))


def is_primitive(L: Lattice, v: Sequence[int]) -> bool:
    """True iff v is not a proper integer multiple of a lattice vector."""
    return math.gcd(*L.check_vector(v)) == 1  # gcd(0, ..., 0) = 0 rejects zero


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Smith normal form with transforms: returns (D, U, V), U*mat*V = D.

    D is diagonal with nonnegative entries d1 | d2 | ... ; U and V are
    unimodular.  Works for any integer matrix, not only square ones; a bool
    or a non-integer entry is an InputFormatError.
    """
    a = [list(_as_vec(row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise InputFormatError("ragged matrix passed to smith_normal_form")
    u = identity_matrix(m)
    v = identity_matrix(n)

    def row_op(i, j, s, t, si, ti):
        # rows i,j <- (s*row_i + t*row_j, si*row_i + ti*row_j); det must be +-1
        for mat_, w in ((a, n), (u, m)):
            for c in range(w):
                x, y = mat_[i][c], mat_[j][c]
                mat_[i][c] = s * x + t * y
                mat_[j][c] = si * x + ti * y

    def col_op(i, j, s, t, si, ti):
        for mat_, h in ((a, m), (v, n)):
            for r in range(h):
                x, y = mat_[r][i], mat_[r][j]
                mat_[r][i] = s * x + t * y
                mat_[r][j] = si * x + ti * y

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_op(t, bi, 0, 1, 1, 0)
        if bj != t:
            col_op(t, bj, 0, 1, 1, 0)
        while True:
            # clear column t
            dirty = False
            for i in range(m):
                if i != t and a[i][t] != 0:
                    p, q = a[t][t], a[i][t]
                    if q % p == 0:
                        k = q // p
                        row_op(i, t, 1, -k, 0, 1)
                    else:
                        g, s, tt = _xgcd(p, q)
                        row_op(t, i, s, tt, -(q // g), p // g)
                    dirty = True
            for j in range(n):
                if j != t and a[t][j] != 0:
                    p, q = a[t][t], a[t][j]
                    if q % p == 0:
                        k = q // p
                        col_op(j, t, 1, -k, 0, 1)
                    else:
                        g, s, tt = _xgcd(p, q)
                        col_op(t, j, s, tt, -(q // g), p // g)
                    dirty = True
            if not dirty:
                break
        # pivot must divide the rest of the submatrix
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    row_op(t, i, 1, 1, 0, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    for i in range(min(m, n)):
        if a[i][i] < 0:
            for c in range(n):
                a[i][c] = -a[i][c]
            for c in range(m):
                u[i][c] = -u[i][c]
    D = tuple(tuple(row) for row in a)
    return D, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def _xgcd(p: int, q: int):
    # returns (g, s, t) with s*p + t*q = g > 0
    g, s = p, 1
    h, t = q, 0
    s2, t2 = 0, 1
    while h != 0:
        k = g // h
        g, h = h, g - k * h
        s, s2 = s2, s - k * s2
        t, t2 = t2, t - k * t2
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


class DiscriminantGroup(namedtuple(
    "DiscriminantGroup", "invariant_factors generator_lifts order"
)):
    """The finite group dual-lattice / lattice, in invariant-factor form."""

    __slots__ = ()


class DiscClass(namedtuple("DiscClass", "coefficients invariant_factors")):
    """Element of a discriminant group: one residue per invariant factor."""

    __slots__ = ()

    def __new__(cls, coefficients: Sequence[int], invariant_factors: Sequence[int]) -> DiscClass:
        if len(coefficients) != len(invariant_factors):
            raise PreconditionError("coefficient/factor length mismatch")
        return super().__new__(
            cls,
            tuple(c % d for c, d in zip(coefficients, invariant_factors)),
            invariant_factors,
        )

    def __neg__(self) -> "DiscClass":
        return DiscClass(
            tuple((-c) % d for c, d in zip(self.coefficients, self.invariant_factors)),
            self.invariant_factors,
        )

    @property
    def order(self) -> int:
        o = 1
        for c, d in zip(self.coefficients, self.invariant_factors):
            o = math.lcm(o, d // math.gcd(d, c))
        return o


# discriminant_group and disc_class reuse it within one lattice
@lru_cache(maxsize=1)
def _disc_data(gram: Mat):
    D, U, V = smith_normal_form(gram)
    n = len(gram)
    diag = [D[i][i] for i in range(n)]
    idx = [i for i in range(n) if diag[i] > 1]
    factors = tuple(diag[i] for i in idx)
    lifts = tuple(
        tuple(Fraction(V[r][i], diag[i]) for r in range(n)) for i in idx
    )
    order = 1
    for d in diag:
        order *= d
    return factors, lifts, order, U, idx


def discriminant_group(L: Lattice) -> DiscriminantGroup:
    """Invariant factors, generator lifts and order of dual/lattice.

    Generator lifts are rational vectors in the dual lattice whose
    classes generate the cyclic factors; lift i has order
    invariant_factors[i].
    """
    factors, lifts, order, _, _ = _disc_data(L.gram)
    return DiscriminantGroup(factors, lifts, order)


def disc_class(L: Lattice, v: Sequence[int]) -> DiscClass:
    """Class of v / divisibility(v) in the discriminant group."""
    w = L.check_vector(v)
    if not is_primitive(L, w):
        raise PreconditionError("disc_class requires a primitive vector")
    t = divisibility(L, w)
    gv = gram_vec(L, w)
    scaled = tuple(x // t for x in gv)
    factors, _, _, U, idx = _disc_data(L.gram)
    coords = mat_vec(U, scaled)
    return DiscClass(tuple(coords[i] for i in idx), factors)


def signature(L: Lattice) -> tuple[int, int]:
    """Exact signature (positive, negative eigenvalue counts).

    Lagrange's reduction in integers: a nonzero diagonal pivot p counts
    sign(p), and the rest becomes |p|*a_rc - sign(p)*a_rk*a_kc over its
    content, a positive multiple of the Schur complement, which keeps the
    signature (Sylvester's law of inertia). A zero diagonal has some
    a_ij != 0, as construction rejects degenerate forms, and the basis
    change e_i -> e_i + e_j makes a_ii = 2*a_ij.
    """
    a = [list(row) for row in L.gram]
    pos = 0
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            k, j = next((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        p, row_k = a[k][k], a[k]
        s = 1 if p > 0 else -1
        pos += p > 0
        a = [
            [abs(p) * x - s * r[k] * y for c, (x, y) in enumerate(zip(r, row_k)) if c != k]
            for i, r in enumerate(a)
            if i != k
        ]
        g = math.gcd(*(x for r in a for x in r))
        a = [[x // g for x in r] for r in a]
    return (pos, L.rank - pos)


def eichler_equivalent(L: Lattice, v: Sequence[int], w: Sequence[int]) -> bool:
    """Same norm and same discriminant class.

    Under the documented hypothesis that the ambient lattice splits off
    two hyperbolic planes, this decides the orbit of a primitive vector
    under the stable orthogonal group (Eichler's criterion).  The
    hypothesis itself is not verified here.
    """
    a = L.check_vector(v)
    b = L.check_vector(w)
    if not is_primitive(L, a) or not is_primitive(L, b):
        raise PreconditionError("eichler_equivalent requires primitive vectors")
    if norm(L, a) != norm(L, b):
        return False
    return disc_class(L, a) == disc_class(L, b)
