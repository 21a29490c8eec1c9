"""Bounded cone analysis: exceptional enumeration, chamber walls, the
dichotomy verdict, rank-2 boundary rays, finiteness and MDS reports."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihscone.catalog import is_numerically_exceptional, parse_type, profiles
from ihscone.engine import (
    EnumerationBound,
    _ball_points,
    _ceil_minus_sqrt,
    _floor_plus_sqrt,
    _floor_sqrt_fraction,
    _gt_sqrt,
    _le_sqrt,
    analyze,
    classify_rank2,
    enumerate_exceptional,
)
from ihscone.errors import (
    BoundExceededError,
    MixedRationalityError,
    PreconditionError,
    SignatureError,
)
from ihscone.lattice import Lattice, norm, pairing
from tests.helpers import apply_matrix, box_oracle, fm_is_wall, transported

K3 = parse_type("K3")
K3_RANK3 = Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))
DENSE = Lattice(((2, 1), (1, -2)))
AMPLE3 = (1, 0, 0)

B2 = EnumerationBound(max_ample_pairing=2)
B4 = EnumerationBound(max_ample_pairing=4)


def test_enumeration_bound_validation():
    b = EnumerationBound()
    assert (b.max_ample_pairing, b.wall_test_limit, b.pell_index_cap) == (10, 8, 64)
    with pytest.raises(PreconditionError):
        EnumerationBound(max_ample_pairing=0)
    with pytest.raises(PreconditionError):
        EnumerationBound(wall_test_limit=-1)
    with pytest.raises(PreconditionError):
        EnumerationBound(pell_index_cap=2.5)


def test_enumerate_frozen_rank3():
    got2 = enumerate_exceptional(K3_RANK3, K3, AMPLE3, B2)
    assert got2 == ((1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1))
    got4 = enumerate_exceptional(K3_RANK3, K3, AMPLE3, B4)
    assert len(got4) == 12
    assert set(got4) == set(got2) | {
        (2, -2, -1), (2, -2, 1), (2, 2, -1), (2, 2, 1),
        (2, -1, -2), (2, -1, 2), (2, 1, -2), (2, 1, 2),
    }


def test_enumerate_frozen_rank2():
    assert enumerate_exceptional(DENSE, K3, (1, 0)) == (
        (0, 1), (1, -1), (1, 2), (3, -2),
    )


def test_enumerate_rejects_wrong_signature():
    with pytest.raises(SignatureError):
        enumerate_exceptional(Lattice(((2, 0), (0, 2))), K3, (1, 0))
    with pytest.raises(SignatureError):
        enumerate_exceptional(
            Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))), K3, (1, 0, 0)
        )


def test_enumerate_rejects_nonpositive_ample():
    with pytest.raises(PreconditionError):
        enumerate_exceptional(DENSE, K3, (0, 1))
    with pytest.raises(PreconditionError):
        enumerate_exceptional(Lattice(((2, 1), (1, 0))), K3, (0, 1))


def test_enumerate_output_contract():
    for lat, t, ample in (
        (K3_RANK3, K3, AMPLE3),
        (DENSE, parse_type("K3[n]", 2), (1, 0)),
        (Lattice(((4, 1), (1, -2))), parse_type("OG10"), (1, 0)),
    ):
        got = enumerate_exceptional(lat, t, ample, B4)
        assert got == tuple(sorted(set(got)))
        for v in got:
            assert 0 < pairing(lat, v, ample) <= 4
            assert is_numerically_exceptional(lat, t, v, ample)


def test_enumerate_matches_box_oracle():
    rng = random.Random(1402)
    types = [K3, parse_type("K3[n]", 2), parse_type("OG6"), parse_type("OG10"),
             parse_type("Kum[n]", 2)]
    runs = 0
    while runs < 24:
        rank = rng.randint(2, 3)
        g0 = 2 * rng.randint(1, 3)
        diag = [g0] + [-2 * rng.randint(1, 3) for _ in range(rank - 1)]
        gram = tuple(
            tuple(diag[i] if i == j else 0 for j in range(rank)) for i in range(rank)
        )
        lat = Lattice(gram)
        t = rng.choice(types)
        bnd = rng.randint(2, 6)
        ample = (1,) + (0,) * (rank - 1)
        expected = box_oracle(lat, t, bnd)
        got = enumerate_exceptional(lat, t, ample, EnumerationBound(max_ample_pairing=bnd))
        assert set(got) == set(expected)
        # same lattice in a scrambled basis must agree up to transport
        moved, vecs = transported(rng, lat, [ample] + list(got))
        got_moved = enumerate_exceptional(
            moved, t, vecs[0], EnumerationBound(max_ample_pairing=bnd)
        )
        assert set(got_moved) == set(vecs[1:])
        runs += 1


def test_analyze_polyhedral_rank3_frozen():
    res = analyze(K3_RANK3, K3, AMPLE3, B4)
    assert res.verdict == "PolyhedralCandidate"
    assert len(res.exceptional_found) == 12
    assert set(res.chamber_walls) == {
        (1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)
    }
    assert res.extremal_rays == res.chamber_walls
    assert res.mov_candidate.wall_inequalities == res.chamber_walls
    assert res.mov_candidate.includes_positive_cone
    assert res.duality_checked
    assert res.rank2 is None
    assert res.finiteness.eff_rational_polyhedral_up_to_bound
    assert res.finiteness.equivalence_applicable
    assert res.mds.is_mds
    assert res.mds.reason == "rank_ge_3_neg_nonempty_finite_up_to_bound"
    assert any("orthogonal to the profile-matching class (0, 0, -1)" in n
               for n in res.notes)


def test_analyze_polyhedral_rank2_frozen():
    res = analyze(DENSE, K3, (1, 0))
    assert res.verdict == "PolyhedralCandidate"
    assert res.exceptional_found == ((0, 1), (1, -1), (1, 2), (3, -2))
    assert res.chamber_walls == ((0, 1), (1, -1))
    assert res.duality_checked
    assert res.notes == ()
    r2 = res.rank2
    assert r2.ray1.rational and r2.ray1.vector == (1, -1)
    assert r2.ray2.rational and r2.ray2.vector == (0, 1)
    assert r2.both_rational and r2.bir_finite
    assert set(res.chamber_walls) == {r2.ray1.vector, r2.ray2.vector}
    f = res.finiteness
    assert f.eff_rational_polyhedral_up_to_bound and f.bir_finite
    assert f.quotient_finite and f.finitely_many_exceptional_up_to_bound
    assert not f.equivalence_applicable
    assert f.caveat == "all statements truncated at ample-pairing bound 10"
    assert res.mds.is_mds and res.mds.reason == "rank_below_3_eff_rational"


def test_analyze_circular_rank2_rational_frozen():
    res = analyze(Lattice(((4, 0), (0, -4))), parse_type("OG10"), (1, 0))
    assert res.verdict == "CircularUpToBound"
    assert res.exceptional_found == () and res.chamber_walls == ()
    r2 = res.rank2
    assert r2.ray1.vector == (1, -1) and r2.ray2.vector == (1, 1)
    assert r2.both_rational and r2.bir_finite
    assert res.mds.is_mds and res.mds.reason == "rank_below_3_eff_rational"
    assert any("closed positive cone" in n for n in res.notes)


def test_analyze_circular_rank2_irrational_frozen():
    res = analyze(Lattice(((2, 0), (0, -6))), K3, (1, 0))
    assert res.verdict == "CircularUpToBound"
    r2 = res.rank2
    assert not r2.both_rational and not r2.bir_finite
    assert not r2.ray1.rational and not r2.ray2.rational
    d1, d2 = r2.ray1, r2.ray2
    assert (d1.num_const, d1.sign, d1.delta, d1.den, d1.orientation) == (0, -1, 12, 2, -1)
    assert (d2.num_const, d2.sign, d2.delta, d2.den, d2.orientation) == (0, 1, 12, 2, 1)
    assert d1.display() == "-((0 - sqrt(12))/2, 1)"
    assert d2.display() == "((0 + sqrt(12))/2, 1)"
    assert not res.finiteness.eff_rational_polyhedral_up_to_bound
    assert not res.mds.is_mds
    assert res.mds.reason == "rank_below_3_eff_irrational"


def test_analyze_circular_rank3_frozen():
    res = analyze(Lattice(((4, 0, 0), (0, -4, 0), (0, 0, -4))), K3, AMPLE3)
    assert res.verdict == "CircularUpToBound"
    assert res.exceptional_found == ()
    f = res.finiteness
    assert (
        f.eff_rational_polyhedral_up_to_bound,
        f.bir_finite,
        f.quotient_finite,
        f.finitely_many_exceptional_up_to_bound,
        f.equivalence_applicable,
    ) == (False, False, False, True, False)
    assert not res.mds.is_mds
    assert res.mds.reason == "rank_ge_3_neg_empty_up_to_bound"
    assert any("reported symbolically, not sampled" in n for n in res.notes)


def test_analyze_mixed_rationality_is_a_contract_violation():
    with pytest.raises(MixedRationalityError) as exc:
        analyze(Lattice(((2, 3), (3, -2))), K3, (1, 1), EnumerationBound(max_ample_pairing=1))
    assert "mix rationality status" in str(exc.value)
    assert "(0, 1) is rational" in str(exc.value)


def test_analyze_below_rank_wall_note():
    lat = Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -4)))
    res = analyze(lat, K3, AMPLE3, B4)
    assert set(res.exceptional_found) == {(1, 0, -1), (1, 0, 1)}
    assert len(res.chamber_walls) == 2
    assert any("below the rank-3" in n for n in res.notes)


def test_analyze_wall_test_rank_cap():
    with pytest.raises(BoundExceededError):
        analyze(K3_RANK3, K3, AMPLE3,
                EnumerationBound(max_ample_pairing=4, wall_test_limit=2))


def test_analyze_walls_match_fm_oracle():
    # seeded rank 3-5 corpus over all five types: the double-description
    # facet test and the Fourier-Motzkin strict system pick the same walls.
    # Each lattice contains a class of a profile of its type: e1 with
    # norm p.square and pairing p.div against e0.
    rng = random.Random(5150)
    types = [K3, parse_type("K3[n]", 2), parse_type("K3[n]", 3), parse_type("Kum[n]", 2),
             parse_type("OG6"), parse_type("OG10")]
    seen_types = set()
    checked = walls = 0
    while checked < 60:
        t = rng.choice(types)
        p = rng.choice(profiles(t))
        rank = rng.randint(3, 5)
        negs = sorted({-q.square for q in profiles(t)} | {2, 4})
        gram = [[0] * rank for _ in range(rank)]
        gram[0][0] = 2 * rng.randint(1, 3)
        gram[0][1] = gram[1][0] = p.div
        gram[1][1] = p.square
        for i in range(2, rank):
            gram[i][i] = -rng.choice(negs)
        base = Lattice(tuple(tuple(row) for row in gram))
        lat, (ample,) = transported(rng, base, [(1,) + (0,) * (rank - 1)])
        # Fourier-Motzkin cost explodes with rank and class count
        bound = rng.randint(p.div, max(p.div, {3: 8, 4: 5, 5: 3}[rank]))
        res = analyze(lat, t, ample, EnumerationBound(max_ample_pairing=bound))
        classes = res.exceptional_found
        assert classes
        oracle = tuple(c for c in classes if fm_is_wall(lat, classes, c, ample))
        assert res.chamber_walls == oracle
        seen_types.add(t.kind)
        checked += 1
        walls += len(oracle)
    assert len(seen_types) == 5
    assert 0 < walls


def test_classify_rank2_requires_rank2():
    with pytest.raises(PreconditionError):
        classify_rank2(K3_RANK3, K3, AMPLE3)


def test_classify_rank2_matches_analyze():
    direct = classify_rank2(DENSE, K3, (1, 0))
    via = analyze(DENSE, K3, (1, 0)).rank2
    assert direct == via


def test_duality_checked_across_small_sample():
    rng = random.Random(88)
    for _ in range(8):
        lat, vecs = transported(rng, K3_RANK3, [AMPLE3])
        res = analyze(lat, K3, vecs[0], B4)
        assert res.duality_checked
        assert res.verdict == "PolyhedralCandidate"
        assert len(res.chamber_walls) == 4


@given(
    st.fractions(min_value=-50, max_value=50),
    st.fractions(min_value=0, max_value=2500),
)
@settings(deadline=None, max_examples=200)
def test_floor_plus_sqrt_exact(c, rad):
    n = _floor_plus_sqrt(c, rad)
    # n <= c + sqrt(rad) < n + 1, compared without any floating point
    assert _le_sqrt(Fraction(n) - c, rad)
    assert _gt_sqrt(Fraction(n + 1) - c, rad)
    m = _ceil_minus_sqrt(c, rad)
    # m >= c - sqrt(rad) > m - 1
    assert _le_sqrt(c - Fraction(m), rad)
    assert _gt_sqrt(c - Fraction(m - 1), rad)


@given(st.fractions(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=200)
def test_floor_sqrt_fraction_exact(f):
    k = _floor_sqrt_fraction(f)
    assert k * k <= f < (k + 1) * (k + 1)


def test_floor_sqrt_fraction_rejects_negative():
    with pytest.raises(ValueError):
        _floor_sqrt_fraction(Fraction(-1))


def test_ball_points_matches_brute_force():
    rng = random.Random(314)
    for _ in range(30):
        a = rng.randint(1, 4)
        b = rng.randint(-2, 2)
        c = rng.randint(b * b // a + 1, b * b // a + 4)  # keep a*c > b*b
        p = [[Fraction(a), Fraction(b)], [Fraction(b), Fraction(c)]]
        m = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        radius = Fraction(rng.randint(0, 40), rng.randint(1, 2))
        got = set(_ball_points(p, m, radius))
        brute = set()
        for x in range(-15, 16):
            for y in range(-15, 16):
                dz = (Fraction(x) - m[0], Fraction(y) - m[1])
                val = (
                    p[0][0] * dz[0] * dz[0]
                    + 2 * p[0][1] * dz[0] * dz[1]
                    + p[1][1] * dz[1] * dz[1]
                )
                if val <= radius:
                    brute.add((x, y))
        assert got == brute
