"""Seeded input documents for the three benchmark workloads.

Each workload is a fixed grid of templates, so every seed runs the same mix
of ranks, types, bounds and subcommands. What varies inside a template and
changes a document's cost (the unimodular basis a Gram matrix is written in,
the vector a ``reduce`` document reduces, the large Pell parameters) is drawn
from a stream fixed per workload, so every seed runs documents of the same
cost and quantiles over documents compare across seeds. The seed picks the
order the documents run in and the parameters of the cheap Pell documents.

``walls``  ``analyze`` at rank 3-5 over all five types, plus ``plot-section``
           at rank 3. Loads the Fourier-Motzkin wall test and the double
           description of the duality round trip; most documents are tiny
           (they set p50), the heavier rank 3-5 ones set p90.
``shell``  ``enumerate`` and ``reduce`` at rank 6-8 with 10^2 to 10^3 classes.
           Loads the ellipsoid search, the lattice primitives and large JSON
           reports; runs no wall test and no double description.
``arith``  many small ``pell`` and ``alpha`` documents plus ``rank2`` at bounds
           of a few hundred. Loads the per-document fixed cost, big integers
           and the O(B^2) rank-2 search. One fixed Pell document always
           fails (see ARITH_PELL_CRASH).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import Optional

from intmath import (
    diagonal,
    is_square,
    mat_vec,
    pell_fundamental,
    random_basis,
    rebase,
)

WORKLOADS = ("walls", "shell", "arith")


@dataclass(frozen=True)
class Doc:
    sub: str  # CLI subcommand
    body: dict  # the JSON input document


@dataclass(frozen=True)
class Template:
    """``copies`` documents of one lattice; the ample class is e_0.

    Copy 0 keeps the diagonal Gram matrix; with ``basis == "shear"`` the
    others are written in a random unimodular basis.
    ``span`` bounds the coordinates of the vector a ``reduce`` document
    reduces.
    """

    sub: str
    tag: str
    n: Optional[int]
    diag: tuple
    bound: int
    copies: int
    basis: Optional[str]
    span: int = 0


def _grid(sub, basis, copies, rows):
    return [Template(sub, tag, n, diag, bound, copies, basis, *rest) for tag, n, diag, bound, *rest in rows]


# Every document is timed many times in a run, so none costs more than about
# 0.15 s. Most are tiny (circular results up to a dozen classes), four in five
# of them in random bases, so p50 lands inside them. p90 lands among the eight
# copies of the OG10 plot-section, which cost about the same (0.07 s), so that
# it lies on a plateau. Above it are the diagonal rank 3-5 documents of the
# last group.
WALLS = (
    _grid("analyze", "shear", 5, [
        ("K3", None, (2, -2, -2), 2),
        ("K3", None, (2, -2, -2), 4),
        ("K3", None, (4, -2, -2), 4),
        ("K3", None, (4, -2, -2), 16),
        ("K3", None, (2, -4, -6), 8),
        ("K3", None, (6, -2, -4), 16),
        ("K3[n]", 2, (2, -2, -2), 4),
        ("K3[n]", 3, (2, -4, -4), 16),
        ("K3[n]", 3, (2, -2, -4), 4),
        ("Kum[n]", 2, (2, -6, -6), 8),
        ("Kum[n]", 2, (6, -6, -2), 16),
        ("OG6", None, (2, -2, -4), 4),
        ("OG6", None, (4, -4, -2), 8),
        ("OG10", None, (2, -6, -2), 8),
        ("OG10", None, (6, -6, -6), 16),
    ])
    + _grid("plot-section", "shear", 3, [
        ("K3", None, (2, -2, -2), 4),
        ("OG6", None, (4, -4, -2), 8),
        ("K3[n]", 3, (2, -2, -4), 4),
    ])
    + _grid("plot-section", "shear", 8, [("OG10", None, (2, -6, -2), 16)])
    + _grid("analyze", None, 1, [
        ("K3", None, (2, -2, -2), 8),
        ("K3[n]", 3, (2, -2, -4), 8),
        ("Kum[n]", 2, (2, -6, -6), 16),
        ("OG6", None, (2, -2, -4), 8),
        ("OG6", None, (4, -4, -2), 16),
        ("K3", None, (2, -2, -2, -2), 2),
        ("K3", None, (4, -2, -2, -2), 4),
        ("K3", None, (2, -2, -2, -4), 4),
        ("K3[n]", 2, (2, -2, -2, -2), 3),
        ("K3[n]", 3, (2, -2, -2, -4), 4),
        ("Kum[n]", 2, (2, -2, -6, -6), 6),
        ("OG10", None, (2, -2, -6, -2), 4),
        ("K3", None, (2, -4, -4, -4, -4), 4),
    ])
)

# 84 to 924 classes per document at rank 6-8, each document at most about
# 0.15 s, so that it is timed many times in a run; reduce vectors lie near the
# positive-cone boundary, so that reduction takes steps. The Gram matrices stay
# diagonal and there is one copy of each: the ellipsoid search costs up to
# 2.7 times as much in a permuted or sheared basis.
SHELL = (
    _grid("enumerate", None, 1, [
        ("K3", None, (2, -2, -2, -2, -2, -2, -2, -2), 3),
        ("K3", None, (2, -2, -2, -2, -2, -2, -2, -2), 4),
        ("K3", None, (2, -2, -2, -2, -2, -2, -2), 4),
        ("K3[n]", 3, (2, -2, -2, -4, -4, -2, -2), 4),
        ("K3[n]", 3, (2, -2, -2, -4, -4, -2), 6),
        ("OG6", None, (2, -2, -2, -2, -2, -2, -4, -4), 3),
        ("K3", None, (2, -2, -2, -2, -2, -2), 6),
        ("OG6", None, (2, -2, -2, -2, -4, -4), 6),
        ("OG10", None, (2, -2, -2, -6, -2, -2), 6),
    ])
    + _grid("reduce", None, 1, [
        ("K3", None, (2, -2, -2, -2, -2, -2, -2, -2), 3, 12),
        ("K3[n]", 3, (2, -2, -2, -4, -4, -2, -2), 4, 12),
        ("K3", None, (2, -2, -2, -2, -2, -2), 4, 12),
        ("OG6", None, (2, -2, -2, -2, -4, -4), 5, 12),
    ])
)

# (type, n, Gram, E) with D = e_0: one template per type and alpha branch
# (isotropic E, square N, plain Pell, profile-matching E), all of which succeed.
ARITH_ALPHA = [
    ("K3", None, ((2, 0), (0, -2)), (1, -1)),
    ("K3", None, ((2, 0), (0, -8)), (1, -1)),
    ("K3", None, ((2, 0), (0, -6)), (1, -1)),
    ("K3", None, ((2, 1), (1, -2)), (0, 1)),
    ("K3[n]", 2, ((4, 0), (0, -4)), (1, -1)),
    ("K3[n]", 2, ((2, 1), (1, -4)), (0, 1)),
    ("K3[n]", 2, ((2, 0), (0, -12)), (1, -1)),
    ("K3[n]", 2, ((2, 0), (0, -4)), (1, -1)),
    ("K3[n]", 3, ((2, 0), (0, -2)), (1, -1)),
    ("K3[n]", 3, ((2, 0), (0, -8)), (1, -1)),
    ("K3[n]", 3, ((2, 0), (0, -4)), (1, -1)),
    ("K3[n]", 3, ((2, 2), (2, -4)), (0, 1)),
    ("Kum[n]", 2, ((4, 0), (0, -4)), (1, -1)),
    ("Kum[n]", 2, ((2, 1), (1, -4)), (0, 1)),
    ("Kum[n]", 2, ((2, 0), (0, -6)), (1, -1)),
    ("Kum[n]", 2, ((2, 3), (3, -6)), (0, 1)),
    ("OG6", None, ((2, 0), (0, -2)), (1, -1)),
    ("OG6", None, ((2, 0), (0, -8)), (1, -1)),
    ("OG6", None, ((2, 1), (1, -2)), (0, 1)),
    ("OG6", None, ((2, 0), (0, -6)), (1, -1)),
    ("OG10", None, ((4, 0), (0, -4)), (1, -1)),
    ("OG10", None, ((2, 1), (1, -4)), (0, 1)),
    ("OG10", None, ((2, 0), (0, -12)), (1, -1)),
    ("OG10", None, ((2, 0), (0, -4)), (1, -1)),
]
# (type, n, Gram, bound) with ample e_0. The rank-2 search visits O(B^2) ball
# points; each bound is chosen so that its template costs about the same, so
# that p90 falls inside one cluster of rank-2 documents.
ARITH_RANK2 = [
    ("K3", None, ((2, 1), (1, -2)), 110),
    ("K3", None, ((2, 0), (0, -6)), 160),
    ("K3", None, ((2, 0), (0, -2)), 100),
    ("K3", None, ((4, 1), (1, -4)), 160),
    ("K3[n]", 2, ((2, 1), (1, -2)), 100),
    ("Kum[n]", 2, ((2, 0), (0, -6)), 150),
    ("OG6", None, ((2, 2), (2, -2)), 85),
    ("OG10", None, ((4, 0), (0, -4)), 170),
    ("OG10", None, ((6, 3), (3, -6)), 190),
]
ARITH_PELL_SMALL = 40  # N uniform in [2, 10^5)
ARITH_PELL_RESIDUE = 20  # N uniform in [2, 3000), residue of a solution of index <= 8
ARITH_PELL_BIG = 12  # N uniform in [10^5, 10^6): second solutions of up to ~3000 digits
# Pell parameters whose second solution has more than 4300 digits, which the
# CLI cannot render (Python's int-to-str limit). Every pass runs them, so the
# known failure is counted in every run. Uniform draws from [10^6, 10^7) would
# hit it in about 2% of documents, but those documents also cost 0.3-5 s each,
# which made docs_per_s differ by up to 30% between seeds. N = 6615019 (4311
# digits) fails the same way as N = 4000189 (7745 digits) in a fifth of the time.
ARITH_PELL_CRASH = (6615019,)


def _lattice_doc(rng, tag, n, gram, bound, label, basis, extra=()):
    """A lattice document with ample e_0, written in the given basis.

    ``basis`` is ``None`` (as given) or ``"shear"`` (a random unimodular
    basis). ``extra`` names further vectors, given in the original basis,
    that move with it.
    """
    rank = len(gram)
    vectors = {"ample": (1,) + (0,) * (rank - 1), **dict(extra)}
    if basis is not None:
        p, pinv = random_basis(rng, rank)
        gram = rebase(gram, p)
        vectors = {k: mat_vec(pinv, v) for k, v in vectors.items()}
    body = {"gram": [list(r) for r in gram], "type": tag, "label": label}
    if n is not None:
        body["n"] = n
    if bound is not None:
        body["bound"] = {"max_ample_pairing": bound}
    body.update({k: list(v) for k, v in vectors.items()})
    return body


def _near_boundary_vector(rng, diag, span):
    """A vector of small nonnegative norm with coordinates up to ``span``,
    so that chamber reduction has to take steps."""
    tail = [rng.randint(-span, span) for _ in diag[1:]]
    deficit = -sum(d * y * y for d, y in zip(diag[1:], tail))
    x0 = max(1, isqrt(deficit // diag[0]))
    while diag[0] * x0 * x0 < deficit:
        x0 += 1
    return (x0, *tail)


def _lattice_docs(rng, grid, name):
    docs = []
    for i, t in enumerate(grid):
        for copy in range(t.copies):
            extra = [("vector", _near_boundary_vector(rng, t.diag, t.span))] if t.sub == "reduce" else []
            body = _lattice_doc(rng, t.tag, t.n, diagonal(t.diag), t.bound, f"{name}-{i}-{copy}",
                                t.basis if copy else None, extra)
            docs.append(Doc(t.sub, body))
    return docs


def _nonsquare(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if not is_square(n):
            return n


def _arith(rng, fixed):
    """``rng`` draws the cheap Pell documents, ``fixed`` the rest."""
    docs = []
    for _ in range(ARITH_PELL_SMALL):
        docs.append(Doc("pell", {"n": _nonsquare(rng, 2, 10**5)}))
    for _ in range(ARITH_PELL_BIG):
        docs.append(Doc("pell", {"n": _nonsquare(fixed, 10**5, 10**6)}))
    docs.extend(Doc("pell", {"n": n}) for n in ARITH_PELL_CRASH)
    for _ in range(ARITH_PELL_RESIDUE):
        n = _nonsquare(rng, 2, 3000)
        x1, y1 = pell_fundamental(n)
        x, y = x1, y1
        for _ in range(rng.randint(1, 8) - 1):
            x, y = x1 * x + n * y1 * y, x1 * y + y1 * x
        modulus = rng.randint(2, 60)
        docs.append(Doc("pell", {"n": n, "modulus": modulus, "residue": x % modulus}))
    for i, (tag, n, gram, e) in enumerate(ARITH_ALPHA):
        for copy in range(2):
            body = _lattice_doc(fixed, tag, n, gram, None, f"arith-alpha-{i}-{copy}", "shear" if copy else None,
                                [("D", (1, 0)), ("E", e)])
            del body["ample"]
            docs.append(Doc("alpha", body))
    for i, (tag, n, gram, bound) in enumerate(ARITH_RANK2):
        for copy in range(2):
            body = _lattice_doc(fixed, tag, n, gram, bound, f"arith-rank2-{i}-{copy}", "shear" if copy else None)
            docs.append(Doc("rank2", body))
    return docs


def generate(workload: str, seed: int) -> list[Doc]:
    """The workload's documents for ``seed``, in the order they are run."""
    rng = random.Random(f"{workload}:{seed}")
    fixed = random.Random(f"{workload}:documents")  # the same for every seed
    if workload == "arith":
        docs = _arith(rng, fixed)
    else:
        docs = _lattice_docs(fixed, {"walls": WALLS, "shell": SHELL}[workload], workload)
    rng.shuffle(docs)
    return docs
