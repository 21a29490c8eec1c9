"""Catalog of the known deformation types and their wall-divisor data.

One row per type holds its facts: the (square, divisibilities) profiles
of numerically exceptional classes, squares ascending, which
`profile_table` gives `engine` and `matches_profile`; then the invariant
factors of the full lattice's discriminant group, which
`expected_disc_group` gives `cli` and `alphas`.  K3, OG6 and OG10 have
fixed rows, and K3[n] and Kum[n] one formula in m = n - 1 and m = n + 1.
K3 is the degenerate n=1 Hilbert-scheme member, with its classical (-2, 1).

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


# Rows are written out, not derived from `profiles`, so no reader rebuilds
# one; a family row is (((-2m, (m, 2m)),), (2m,)) for m = n + its shift.
_FIXED = {
    Kind.K3: (((-2, (1,)),), ()),
    Kind.OG6: (((-4, (2,)), (-2, (2,))), (2, 2)),
    Kind.OG10: (((-6, (3,)), (-2, (1,))), (3,)),
}
_FAMILY_SHIFT = {Kind.K3N: -1, Kind.KUMN: 1}


class DeformationType(namedtuple("DeformationType", "kind n")):
    __slots__ = ()

    def __new__(cls, kind: Kind, n: Optional[int] = None) -> DeformationType:
        if not isinstance(kind, Kind):
            raise InputFormatError("deformation type %r is not a Kind" % (kind,))
        if kind in _FAMILY_SHIFT:
            # a float would pass n >= 2 and reach the row formula
            if type(n) is not int or n < 2:
                raise InputFormatError(
                    "type %s requires an integer parameter n >= 2, got %r" % (kind.value, n)
                )
        elif n is not None:
            raise InputFormatError("type %s does not take a parameter n" % kind.value)
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


def _row(t: DeformationType) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    if t.n is None:
        return _FIXED[t.kind]
    m = t.n + _FAMILY_SHIFT[t.kind]
    return ((-2 * m, (m, 2 * m)),), (2 * m,)


def profile_table(t: DeformationType) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Profiles of t as (square, sorted divisibilities), squares ascending."""
    return _row(t)[0]


def expected_disc_group(t: DeformationType) -> tuple[int, ...]:
    """Invariant factors of the discriminant group of the full lattice."""
    return _row(t)[1]


def profiles(t: DeformationType) -> tuple[ExceptionalProfile, ...]:
    """The (square, divisibility) profiles of numerically exceptional
    classes for the given deformation type: squares descending, then
    divisibilities ascending."""
    rows = reversed(profile_table(t))
    return tuple(ExceptionalProfile(square, div) for square, divs in rows for div in divs)


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
