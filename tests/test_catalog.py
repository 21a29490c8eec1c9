"""Deformation-type catalog: tags, profiles, discriminant expectations,
and the numerically-exceptional test."""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from ihscone.catalog import (
    DeformationType,
    ExceptionalProfile,
    Kind,
    expected_disc_group,
    is_numerically_exceptional,
    matches_profile,
    parse_type,
    profiles,
)
from ihscone.errors import InputFormatError, PreconditionError
from ihscone.lattice import Lattice
from tests.helpers import (
    apply_matrix,
    congruate,
    inverse,
    rand_unimodular,
)

ALL_TYPES = (
    parse_type("K3"),
    parse_type("K3[n]", 2),
    parse_type("K3[n]", 3),
    parse_type("K3[n]", 5),
    parse_type("Kum[n]", 2),
    parse_type("Kum[n]", 3),
    parse_type("OG6"),
    parse_type("OG10"),
)


def test_parse_type_roundtrip():
    assert parse_type("K3").kind is Kind.K3
    assert parse_type("K3").tag == "K3"
    t = parse_type("K3[n]", 4)
    assert t.kind is Kind.K3N and t.n == 4
    assert parse_type("Kum[n]", 2).tag == "Kum[n]"
    assert parse_type("OG6").n is None
    assert parse_type("OG10").kind is Kind.OG10


def test_parse_type_rejects_bad_input():
    with pytest.raises(InputFormatError):
        parse_type("K3[n]")
    with pytest.raises(InputFormatError):
        parse_type("K3[n]", 1)
    with pytest.raises(InputFormatError):
        parse_type("Kum[n]", 0)
    with pytest.raises(InputFormatError):
        parse_type("K3", 2)
    with pytest.raises(InputFormatError):
        parse_type("OG7")
    with pytest.raises(InputFormatError):
        parse_type("k3")


def test_profiles_frozen():
    assert profiles(parse_type("K3")) == (ExceptionalProfile(-2, 1),)
    assert profiles(parse_type("OG10")) == (
        ExceptionalProfile(-2, 1),
        ExceptionalProfile(-6, 3),
    )
    assert profiles(parse_type("OG6")) == (
        ExceptionalProfile(-2, 2),
        ExceptionalProfile(-4, 2),
    )
    assert profiles(parse_type("K3[n]", 2)) == (
        ExceptionalProfile(-2, 1),
        ExceptionalProfile(-2, 2),
    )
    assert profiles(parse_type("K3[n]", 4)) == (
        ExceptionalProfile(-6, 3),
        ExceptionalProfile(-6, 6),
    )
    assert profiles(parse_type("Kum[n]", 2)) == (
        ExceptionalProfile(-6, 3),
        ExceptionalProfile(-6, 6),
    )
    assert profiles(parse_type("Kum[n]", 3)) == (
        ExceptionalProfile(-8, 4),
        ExceptionalProfile(-8, 8),
    )


def test_profile_validation():
    with pytest.raises(PreconditionError):
        ExceptionalProfile(2, 1)
    with pytest.raises(PreconditionError):
        ExceptionalProfile(-2, 0)


def test_expected_disc_group_frozen():
    assert expected_disc_group(parse_type("K3")) == ()
    assert expected_disc_group(parse_type("OG10")) == (3,)
    assert expected_disc_group(parse_type("OG6")) == (2, 2)
    assert expected_disc_group(parse_type("K3[n]", 2)) == (2,)
    assert expected_disc_group(parse_type("K3[n]", 5)) == (8,)
    assert expected_disc_group(parse_type("Kum[n]", 2)) == (6,)
    assert expected_disc_group(parse_type("Kum[n]", 3)) == (8,)


def test_profile_invariants_across_catalog():
    for t in ALL_TYPES:
        ps = profiles(t)
        assert 1 <= len(ps) <= 2
        order = 1
        for f in expected_disc_group(t):
            order *= f
        for p in ps:
            assert p.square < 0 and p.square % 2 == 0
            # divisibility of a full-lattice class divides the group order
            assert order % p.div == 0 or p.div == 1
        if t.kind in (Kind.K3N, Kind.KUMN):
            assert ps[0].square == ps[1].square
            assert ps[1].div == 2 * ps[0].div


def test_every_profile_square_divides_twice_its_divisibility():
    # e^2 | 2 div(e), so the reflection in a profile class is integral:
    # reduce reflects in enumerated classes on this theorem
    types = [parse_type(tag) for tag in ("K3", "OG6", "OG10")]
    types += [parse_type(tag, n) for tag in ("K3[n]", "Kum[n]") for n in range(2, 21)]
    for t in types:
        for p in profiles(t):
            assert 2 * p.div % p.square == 0, (t, p)


def test_matches_profile_divide_rule():
    t = parse_type("K3[n]", 2)
    # norm -2, divisibility 2 in this rank-1 slice: matched by both the
    # (-2, 1) and (-2, 2) profiles through the divide rule
    lat = Lattice(((2, 0), (0, -2)))
    assert matches_profile(lat, t, (0, 1))
    # norm -2, div 1 only matches the div-1 profile; still a match
    dense = Lattice(((2, 1), (1, -2)))
    assert matches_profile(dense, t, (0, 1))
    # OG6 wants div divisible by 2; div 1 fails despite the right square
    og6 = parse_type("OG6")
    assert not matches_profile(dense, og6, (0, 1))
    four = Lattice(((2, 0), (0, -4)))
    assert matches_profile(four, og6, (0, 1))
    assert not matches_profile(four, parse_type("K3"), (0, 1))


def test_is_numerically_exceptional_frozen():
    k3 = parse_type("K3")
    lat = Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
    ample = (1, 0, 0)
    assert is_numerically_exceptional(lat, k3, (1, 1, 1), ample)
    assert is_numerically_exceptional(lat, k3, (1, -1, 1), ample)
    # pairing 0 with ample: fails the strict positivity clause
    assert not is_numerically_exceptional(lat, k3, (0, 1, 0), ample)
    assert not is_numerically_exceptional(lat, k3, (0, 0, 0), ample)
    og10 = parse_type("OG10")
    wall = Lattice(((2, 3), (3, -6)))
    assert is_numerically_exceptional(wall, og10, (0, 1), (1, 0))


def test_is_numerically_exceptional_rejects_bad_ample():
    k3 = parse_type("K3")
    lat = Lattice(((2, 0), (0, -2)))
    with pytest.raises(PreconditionError):
        is_numerically_exceptional(lat, k3, (1, 1), (0, 1))


def test_multiples_are_never_exceptional():
    rng = random.Random(3)
    k3 = parse_type("K3")
    base = ((2, 0, 0), (0, -2, 0), (0, 0, -2))
    for _ in range(40):
        p = rand_unimodular(rng, 3)
        lat = Lattice(congruate(base, p))
        inv = inverse(p)
        ample = apply_matrix(inv, (1, 0, 0))
        v = apply_matrix(inv, (1, 1, 1))
        assert is_numerically_exceptional(lat, k3, v, ample)
        for c in (2, 3, -1):
            cv = tuple(c * x for x in v)
            assert not is_numerically_exceptional(lat, k3, cv, ample)


def test_exceptionality_is_congruence_invariant():
    rng = random.Random(17)
    t = parse_type("K3[n]", 2)
    base = ((2, 0, 0), (0, -2, 0), (0, 0, -6))
    candidates = [(1, 1, 0), (1, -1, 0), (0, 1, 0), (1, 0, 1), (3, 1, 1)]
    reference = {
        v: is_numerically_exceptional(Lattice(base), t, v, (1, 0, 0))
        for v in candidates
    }
    for _ in range(30):
        p = rand_unimodular(rng, 3)
        lat = Lattice(congruate(base, p))
        inv = inverse(p)
        ample = apply_matrix(inv, (1, 0, 0))
        for v, expected in reference.items():
            assert is_numerically_exceptional(lat, t, apply_matrix(inv, v), ample) == expected


def test_deformation_type_direct_construction_guard():
    with pytest.raises(InputFormatError):
        DeformationType(Kind.K3N)
    with pytest.raises(InputFormatError):
        DeformationType(Kind.OG6, 3)


def test_deformation_type_refuses_what_the_table_cannot_read():
    # unrefused, a float n yields float profiles or a TypeError in the shell
    # search, and a tag string a TypeError in profiles
    for kind, n in ((Kind.KUMN, 3.0), (Kind.K3N, 2.5), (Kind.K3N, True), (Kind.K3N, "3")):
        with pytest.raises(InputFormatError):
            DeformationType(kind, n)
    for kind in ("K3", "K3[n]", None):
        with pytest.raises(InputFormatError):
            DeformationType(kind)


def test_benchmark_profile_copy_matches_the_catalog(monkeypatch):
    # bench/check.py checks reports against its own copy of the profiles;
    # a catalog change that misses it would otherwise fail only there
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_check", bench / "check.py")
    check = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_check", check)
    spec.loader.exec_module(check)
    types = [DeformationType(kind) for kind in (Kind.K3, Kind.OG6, Kind.OG10)]
    types += [DeformationType(kind, n) for kind in (Kind.K3N, Kind.KUMN) for n in range(2, 41)]
    for t in types:
        assert check.profiles(t.tag, t.n) == tuple(map(tuple, profiles(t))), t
