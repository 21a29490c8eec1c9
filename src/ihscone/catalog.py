"""Catalog of the known deformation types and their wall-divisor data.

Each type carries the finite list of (square, divisibility) profiles
that characterize numerically exceptional classes, plus the expected
discriminant group of the full cohomology lattice.  K3 surfaces are the
degenerate n=1 member of the Hilbert-scheme family and get their own
entry with the classical profile (-2, 1).

Sign convention: for the generalized-Kummer family the square of the
wall divisor is taken as -2(n+1) (the value the cone computations use;
part of the literature states the same number with a positive sign for
a different normal form).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import Optional, Sequence

from .errors import InputFormatError, PreconditionError
from .lattice import Lattice, divisibility, is_primitive, norm, pairing


class Kind(Enum):
    K3 = "K3"
    K3N = "K3[n]"
    KUMN = "Kum[n]"
    OG6 = "OG6"
    OG10 = "OG10"


_NEEDS_N = (Kind.K3N, Kind.KUMN)


class DeformationType(namedtuple("DeformationType", "kind n")):
    __slots__ = ()

    def __new__(cls, kind: Kind, n: Optional[int] = None) -> DeformationType:
        if kind in _NEEDS_N:
            if n is None or n < 2:
                raise InputFormatError(
                    "type %s requires the parameter n >= 2" % kind.value
                )
        elif n is not None:
            raise InputFormatError(
                "type %s does not take a parameter n" % kind.value
            )
        return super().__new__(cls, kind, n)

    @property
    def tag(self) -> str:
        return self.kind.value


class ExceptionalProfile(namedtuple("ExceptionalProfile", "square div")):
    __slots__ = ()

    def __new__(cls, square: int, div: int) -> ExceptionalProfile:
        if square >= 0 or div < 1:
            raise PreconditionError("profile needs square < 0 and div >= 1")
        return super().__new__(cls, square, div)


def parse_type(tag: str, n: Optional[int] = None) -> DeformationType:
    """Build a DeformationType from its input tag ("K3", "K3[n]", ...)."""
    for kind in Kind:
        if kind.value == tag:
            return DeformationType(kind, n)
    raise InputFormatError(
        "unknown type tag %r (expected one of %s)"
        % (tag, ", ".join(k.value for k in Kind))
    )


def profiles(t: DeformationType) -> tuple[ExceptionalProfile, ...]:
    """The (square, divisibility) profiles of numerically exceptional
    classes for the given deformation type."""
    if t.kind is Kind.K3:
        return (ExceptionalProfile(-2, 1),)
    if t.kind is Kind.OG10:
        return (ExceptionalProfile(-2, 1), ExceptionalProfile(-6, 3))
    if t.kind is Kind.OG6:
        return (ExceptionalProfile(-2, 2), ExceptionalProfile(-4, 2))
    if t.kind is Kind.K3N:
        m = t.n - 1
        return (ExceptionalProfile(-2 * m, m), ExceptionalProfile(-2 * m, 2 * m))
    m = t.n + 1
    return (ExceptionalProfile(-2 * m, m), ExceptionalProfile(-2 * m, 2 * m))


def expected_disc_group(t: DeformationType) -> tuple[int, ...]:
    """Invariant factors of the discriminant group of the full lattice."""
    if t.kind is Kind.K3:
        return ()
    if t.kind is Kind.OG10:
        return (3,)
    if t.kind is Kind.OG6:
        return (2, 2)
    if t.kind is Kind.K3N:
        return (2 * (t.n - 1),)
    return (2 * (t.n + 1),)


def profile_table(t: DeformationType) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Profiles of t as (square, sorted divisibilities), squares ascending."""
    table: dict[int, set[int]] = {}
    for p in profiles(t):
        table.setdefault(p.square, set()).add(p.div)
    return tuple((square, tuple(sorted(divs))) for square, divs in sorted(table.items()))


def div_matches(div_value: int, allowed: Sequence[int]) -> bool:
    """Some allowed profile divisibility divides div_value: the catalog
    values are full-lattice invariants, and inside the Picard lattice the
    pairing ideal can only shrink, so the computed value is a multiple."""
    return any(div_value % d == 0 for d in allowed)


def matches_profile(L: Lattice, t: DeformationType, v: Sequence[int]) -> bool:
    """Norm equals a profile square, and `div_matches` accepts the
    divisibility computed in L for that square's profiles."""
    w = L.check_vector(v)
    s = norm(L, w)
    d = divisibility(L, w)
    return any(square == s and div_matches(d, divs) for square, divs in profile_table(t))


def is_numerically_exceptional(
    L: Lattice, t: DeformationType, v: Sequence[int], ample: Sequence[int]
) -> bool:
    """Primitive, profile-matching, and strictly positive against ample."""
    a = L.check_vector(ample)
    if norm(L, a) <= 0:
        raise PreconditionError("ample class must have positive norm")
    w = L.check_vector(v)
    # is_primitive rejects the zero vector
    if not is_primitive(L, w):
        return False
    if not matches_profile(L, t, w):
        return False
    return pairing(L, w, a) > 0
