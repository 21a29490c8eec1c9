"""Integer lattice arithmetic written for the benchmark alone.

The generator and the exactness checker use these helpers instead of
calling into ``ihscone``, so a defect in the library cannot hide itself
by producing inputs or verdicts that agree with its own mistakes.
"""
from __future__ import annotations

import random
from math import gcd, isqrt


def gram_vec(gram, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in gram)


def pairing(gram, v, w):
    return sum(x * y for x, y in zip(gram_vec(gram, v), w))


def norm(gram, v):
    return pairing(gram, v, v)


def divisibility(gram, v):
    return gcd(*gram_vec(gram, v))


def is_primitive(v):
    return gcd(*v) == 1


def diagonal(entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def random_basis(rng: random.Random, n: int):
    """A random unimodular P and its inverse, built from n shears by +-1.

    A lattice with Gram matrix G has Gram matrix P^T G P in the new basis,
    and a vector with old coordinates v has new coordinates P^-1 v.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in p:  # P <- P (I + c e_i e_j^T): column j += c * column i
            row[j] += c * row[i]
        pinv[i] = [a - c * b for a, b in zip(pinv[i], pinv[j])]  # row i -= c * row j
    return p, pinv


def rebase(gram, p):
    """P^T G P."""
    n = len(gram)
    gp = [[sum(gram[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(tuple(sum(p[k][i] * gp[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def pell_fundamental(n: int) -> tuple[int, int]:
    """Smallest positive solution of x^2 - n y^2 = 1, from the continued
    fraction of sqrt(n); n must be a positive non-square."""
    a0 = isqrt(n)
    m, d, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    while p1 * p1 - n * q1 * q1 != 1:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
    return p1, q1
