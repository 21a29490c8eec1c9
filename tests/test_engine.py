"""Bounded cone analysis: exceptional enumeration, chamber walls, the
dichotomy verdict, rank-2 boundary rays, finiteness and MDS reports."""
import hashlib
import math
import operator
import random
import types

import pytest

from ihscone import engine
from ihscone.catalog import is_numerically_exceptional, parse_type, profile_table, profiles
from ihscone.engine import (
    EnumerationBound,
    _eliminate,
    _profile_classes,
    _shell_frame,
    _surd_sign,
    _walk,
    analyze,
    classify_rank2,
    enumerate_exceptional,
    finiteness_report,
    mds_classify,
)
from ihscone.errors import (
    BoundExceededError,
    ContractViolationError,
    DimensionMismatchError,
    InputFormatError,
    MixedRationalityError,
    PreconditionError,
    SignatureError,
)
from ihscone.lattice import Lattice, det_int, gram_vec, norm, pairing, signature
from ihscone.polyhedra import dd_generators
from ihscone.weyl import is_chamber_wall
from tests.helpers import (
    _echelon,
    _shell_points,
    box_oracle,
    congruate,
    duality_round_trip,
    fm_is_wall,
    inverse,
    rand_unimodular,
    rank_is_wall,
    reference_profile_levels,
    reference_rank2_rays,
    shell_z_points,
    signature_corpus,
    transported,
)

K3 = parse_type("K3")
TYPES = [K3, parse_type("K3[n]", 2), parse_type("Kum[n]", 2), parse_type("OG6"),
         parse_type("OG10")]
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
    # a bool is an int to isinstance, and the report would print it as true
    for name in ("max_ample_pairing", "wall_test_limit", "pell_index_cap"):
        with pytest.raises(PreconditionError):
            EnumerationBound(**{name: True})


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
        rank = rng.randint(2, 5)
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
    assert duality_round_trip(K3_RANK3, res.chamber_walls)
    assert res.rank2 is None
    f = finiteness_report(res)
    assert f.eff_rational_polyhedral_up_to_bound
    assert f.equivalence_applicable
    mds = mds_classify(res)
    assert mds.is_mds
    assert mds.reason == "rank_ge_3_neg_nonempty_finite_up_to_bound"
    assert any("orthogonal to the profile-matching class (0, 0, -1)" in n
               for n in res.notes)


def test_analyze_polyhedral_rank2_frozen():
    res = analyze(DENSE, K3, (1, 0))
    assert res.verdict == "PolyhedralCandidate"
    assert res.exceptional_found == ((0, 1), (1, -1), (1, 2), (3, -2))
    assert res.chamber_walls == ((0, 1), (1, -1))
    assert duality_round_trip(DENSE, res.chamber_walls)
    assert res.notes == ()
    r2 = res.rank2
    assert r2.ray1.rational and r2.ray1.vector == (1, -1)
    assert r2.ray2.rational and r2.ray2.vector == (0, 1)
    assert r2.both_rational
    assert set(res.chamber_walls) == {r2.ray1.vector, r2.ray2.vector}
    f = finiteness_report(res)
    assert f.eff_rational_polyhedral_up_to_bound
    assert not f.equivalence_applicable
    assert f.caveat == "all statements truncated at ample-pairing bound 10"
    mds = mds_classify(res)
    assert mds.is_mds and mds.reason == "rank_below_3_eff_rational"


def test_analyze_circular_rank2_rational_frozen():
    res = analyze(Lattice(((4, 0), (0, -4))), parse_type("OG10"), (1, 0))
    assert res.verdict == "CircularUpToBound"
    assert res.exceptional_found == () and res.chamber_walls == ()
    r2 = res.rank2
    assert r2.ray1.vector == (1, -1) and r2.ray2.vector == (1, 1)
    assert r2.both_rational
    mds = mds_classify(res)
    assert mds.is_mds and mds.reason == "rank_below_3_eff_rational"
    assert any("closed positive cone" in n for n in res.notes)


def test_analyze_circular_rank2_irrational_frozen():
    res = analyze(Lattice(((2, 0), (0, -6))), K3, (1, 0))
    assert res.verdict == "CircularUpToBound"
    r2 = res.rank2
    assert not r2.both_rational
    assert not r2.ray1.rational and not r2.ray2.rational
    d1, d2 = r2.ray1, r2.ray2
    assert (d1.num_const, d1.sign, d1.delta, d1.den, d1.orientation) == (0, -1, 12, 2, -1)
    assert (d2.num_const, d2.sign, d2.delta, d2.den, d2.orientation) == (0, 1, 12, 2, 1)
    assert d1.display() == "-((0 - sqrt(12))/2, 1)"
    assert d2.display() == "((0 + sqrt(12))/2, 1)"
    assert not finiteness_report(res).eff_rational_polyhedral_up_to_bound
    mds = mds_classify(res)
    assert not mds.is_mds
    assert mds.reason == "rank_below_3_eff_irrational"


def test_analyze_circular_rank3_frozen():
    res = analyze(Lattice(((4, 0, 0), (0, -4, 0), (0, 0, -4))), K3, AMPLE3)
    assert res.verdict == "CircularUpToBound"
    assert res.exceptional_found == ()
    f = finiteness_report(res)
    assert (f.eff_rational_polyhedral_up_to_bound, f.equivalence_applicable) == (False, False)
    mds = mds_classify(res)
    assert not mds.is_mds
    assert mds.reason == "rank_ge_3_neg_empty_up_to_bound"
    assert any("reported symbolically, not sampled" in n for n in res.notes)


def test_reports_need_the_rank2_report_at_rank_2():
    res = analyze(DENSE, K3, (1, 0))._replace(rank2=None)
    for report in (finiteness_report, mds_classify):
        with pytest.raises(PreconditionError, match="missing its boundary-ray report"):
            report(res)


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


def _profile_block_lattice(rng, t, p, rank):
    """A rank-`rank` lattice in which e1 has norm p.square and pairs p.div
    with e0, e0 has positive norm, and the other basis vectors are
    orthogonal with norms from -2, -4 and the profile squares of t."""
    negs = sorted({-q.square for q in profiles(t)} | {2, 4})
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 2 * rng.randint(1, 3)
    gram[0][1] = gram[1][0] = p.div
    gram[1][1] = p.square
    for i in range(2, rank):
        gram[i][i] = -rng.choice(negs)
    return Lattice(tuple(tuple(row) for row in gram))


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
        base = _profile_block_lattice(rng, t, p, rank)
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


def _diag(*entries):
    return Lattice(tuple(
        tuple(d if i == j else 0 for j in range(len(entries))) for i, d in enumerate(entries)
    ))


# diag(2, -2, -2, -2, -2) in the basis p = I + e01 - e04 + 2 e12 - e23 + e34
SHEARED5 = Lattice(((2, 2, 0, 0, -2), (2, 0, -4, 0, -2), (0, -4, -10, 2, 0),
                    (0, 0, 2, -4, -2), (-2, -2, 0, -2, -2)))

# (lattice, type, ample, bound, wall count, sha256 of repr(chamber_walls))
WALL_PINS = [
    (_diag(2, -2, -2, -2, -2, -2), K3, (3, 1, 1, 0, 0, 0), 12, 35,
     "d34b7364e4aed0f06a4e6b2dfe835370dac2c5d960ae0bd3742e2377f0a9e273"),
    (SHEARED5, parse_type("K3[n]", 2), (1, 1, 0, 0, 0), 8, 19,
     "2f14d9749ad7d958f08e4b0607f9da764e20573438d4aeeaa7c09a0871341bb2"),
    # classes up to bound 6 avoid the norm -30 directions: lineality of rank 2
    (_diag(2, -2, -2, -2, -30, -30), K3, (1, 0, 0, 0, 0, 0), 6, 12,
     "74bebd2ffaaca98104f27fde413d283ac97b046c6e6264032773446adfa8fbf5"),
    (_diag(4, -2, -2, -2, -2, -6, -6), parse_type("OG10"), (1, 0, 0, 0, 0, 0, 0), 6, 36,
     "187470b54940063826dee0661f65ae59a898a62f1f8148a397ac76000abd7d33"),
]


def test_chamber_walls_pinned_at_rank_5_to_7():
    # the CI digests stop at rank 5 and the golden report bytes at rank 4;
    # these wall sets were computed before the double description dropped
    # its Fraction elimination, and must not move with its integer steps
    lineality_ranks = []
    for lat, t, ample, bound, count, digest in WALL_PINS:
        res = analyze(lat, t, ample, EnumerationBound(max_ample_pairing=bound))
        assert len(res.chamber_walls) == count
        assert hashlib.sha256(repr(res.chamber_walls).encode()).hexdigest() == digest
        rows = [gram_vec(lat, c) for c in res.exceptional_found + (ample,)]
        lineality_ranks.append(lat.rank - len(_echelon(rows, lat.rank)[0]))
    assert lineality_ranks == [0, 0, 2, 0]


def test_classify_rank2_requires_rank2():
    with pytest.raises(PreconditionError):
        classify_rank2(K3_RANK3, K3, AMPLE3)


def test_classify_rank2_matches_analyze():
    direct = classify_rank2(DENSE, K3, (1, 0))
    via = analyze(DENSE, K3, (1, 0)).rank2
    assert direct == via


def test_rank2_matches_reference_on_seeded_corpus():
    # random binary forms with entries in [-8, 8] and signature (1, 1),
    # random ample classes (some not primitive), six types, bounds 1-40:
    # the side split gives the surd sweep's rays, or its error. Where
    # analyze returns, the DD walls over cone(classes + ample) are the
    # rational boundary rays of negative norm, since both are the extreme
    # classes of that cone.
    rng = random.Random(2024)
    types = [K3, parse_type("K3[n]", 2), parse_type("K3[n]", 3), parse_type("Kum[n]", 2),
             parse_type("OG6"), parse_type("OG10")]
    irrational = square = a_zero = mixed = imprimitive = docs = 0
    while docs < 300:
        a, h, c = (rng.randint(-8, 8) for _ in range(3))
        if h * h - a * c <= 0:
            continue
        lat = Lattice(((a, h), (h, c)))
        ample = tuple(rng.choice((1, 1, 2, 3)) * rng.randint(-4, 4) for _ in range(2))
        if norm(lat, ample) <= 0:
            continue
        t = rng.choice(types)
        bound = EnumerationBound(max_ample_pairing=rng.randint(1, 40))
        classes = enumerate_exceptional(lat, t, ample, bound)
        try:
            want = reference_rank2_rays(lat, ample, bound.max_ample_pairing, classes)
        except MixedRationalityError as exc:
            with pytest.raises(MixedRationalityError) as info:
                analyze(lat, t, ample, bound)
            assert str(info.value) == str(exc)
            mixed += 1
        else:
            res = analyze(lat, t, ample, bound)
            got = res.rank2
            assert (got.ray1, got.ray2, got.both_rational) == (
                want.ray1, want.ray2, want.both_rational)
            boundary = {r.vector for r in (got.ray1, got.ray2)
                        if r.rational and norm(lat, r.vector) < 0}
            assert set(res.chamber_walls) == boundary
            irrational += not got.both_rational
        docs += 1
        square += math.isqrt(h * h - a * c) ** 2 == h * h - a * c
        a_zero += a == 0
        imprimitive += math.gcd(*ample) != 1
    assert irrational >= 100 and square >= 40 and a_zero >= 10 and mixed >= 10
    assert imprimitive >= 10


def test_surd_sign():
    assert [_surd_sign(p, 0, 2) for p in (-3, 0, 5)] == [-1, 0, 1]
    assert [_surd_sign(0, q, 2) for q in (-3, 5)] == [-1, 1]
    assert _surd_sign(2, 3, 5) == 1 and _surd_sign(-2, -3, 5) == -1
    # 3 - sqrt(8): 9 > 8; 2 - sqrt(8): 4 < 8
    assert _surd_sign(3, -1, 8) == 1 and _surd_sign(-3, 1, 8) == -1
    assert _surd_sign(2, -1, 8) == -1 and _surd_sign(-2, 1, 8) == 1


def test_duality_checked_across_small_sample():
    rng = random.Random(88)
    for _ in range(8):
        lat, vecs = transported(rng, K3_RANK3, [AMPLE3])
        res = analyze(lat, K3, vecs[0], B4)
        assert duality_round_trip(lat, res.chamber_walls)
        assert res.verdict == "PolyhedralCandidate"
        assert len(res.chamber_walls) == 4


def test_duality_oracle_holds_on_seeded_corpus():
    # rank 3-5 lattices in sheared bases over six types, each with a class
    # of a profile of its type, and a random ample class near e0. The corpus must reach the case where the ample inequality is
    # itself a facet of the chamber C, so that C is strictly smaller than
    # the wall cone C' whose dual the oracle computes, and circular verdicts.
    rng = random.Random(11)
    types = [K3, parse_type("K3[n]", 2), parse_type("K3[n]", 3), parse_type("Kum[n]", 2),
             parse_type("OG6"), parse_type("OG10")]
    seen_types = set()
    analyses = ample_facets = circular = 0
    while analyses < 80:
        t = rng.choice(types)
        p = rng.choice(profiles(t))
        rank = rng.randint(3, 5)
        base = _profile_block_lattice(rng, t, p, rank)
        ample0 = (rng.randint(1, 3),) + tuple(rng.randint(-1, 1) for _ in range(rank - 1))
        if norm(base, ample0) <= 0 or math.gcd(*ample0) != 1:
            continue
        lat, (ample,) = transported(rng, base, [ample0])
        bound = rng.randint(2, {3: 8, 4: 6, 5: 4}[rank])
        res = analyze(lat, t, ample, EnumerationBound(max_ample_pairing=bound))
        assert duality_round_trip(lat, res.chamber_walls)
        if res.exceptional_found:
            rows = [gram_vec(lat, c) for c in res.exceptional_found + (ample,)]
            _, _, incidence = dd_generators(rows, rank)
            ample_facets += is_chamber_wall(incidence, len(rows) - 1)
        else:
            assert res.verdict == "CircularUpToBound"
            circular += 1
        seen_types.add(t)
        analyses += 1
    assert len(seen_types) == 6
    assert ample_facets >= 10
    assert circular >= 5


def test_chamber_walls_match_rank_oracle_at_rank_5_to_7():
    # Fourier-Motzkin is too slow at this rank; `rank_is_wall` decides
    # each row of the chamber by a rank over Q on the same generators, and
    # must agree on every class and on the ample row. Non-walls whose face
    # holds rays are where strict containment of ray sets, not emptiness,
    # decides.
    rng = random.Random(3)
    types = [K3, parse_type("K3[n]", 2), parse_type("K3[n]", 3), parse_type("Kum[n]", 2),
             parse_type("OG6"), parse_type("OG10")]
    analyses = nonwall_with_rays = 0
    while analyses < 12:
        t = rng.choice(types)
        p = rng.choice(profiles(t))
        rank = rng.randint(5, 7)
        base = _profile_block_lattice(rng, t, p, rank)
        lat, (ample,) = transported(rng, base, [(1,) + (0,) * (rank - 1)])
        res = analyze(lat, t, ample, EnumerationBound(max_ample_pairing={5: 6, 6: 5, 7: 4}[rank]))
        if not res.exceptional_found:
            continue
        rows = [gram_vec(lat, c) for c in res.exceptional_found + (ample,)]
        lineality, rays, incidence = dd_generators(rows, rank)
        oracle = [rank_is_wall(lineality, rays, row) for row in rows]
        assert [is_chamber_wall(incidence, i) for i in range(len(rows))] == oracle
        assert res.chamber_walls == tuple(c for c, w in zip(res.exceptional_found, oracle) if w)
        nonwall_with_rays += sum(1 for w, tight in zip(oracle, incidence) if not w and tight)
        analyses += 1
    assert nonwall_with_rays >= 300


def _random_positive_definite(rng, k):
    while True:
        p = [[0] * k for _ in range(k)]
        for i in range(k):
            p[i][i] = rng.randint(1, 6)
            for j in range(i):
                p[i][j] = p[j][i] = rng.randint(-3, 3)
        if all(det_int([row[:m] for row in p[:m]]) > 0 for m in range(1, k + 1)):
            return p


def _shell_systems():
    """150 seeded shells z^T p z - 2 b.z = c with k = 1..3."""
    rng = random.Random(314)
    for _ in range(150):
        k = rng.randint(1, 3)
        p = _random_positive_definite(rng, k)
        b = [rng.randint(-3, 3) for _ in range(k)]
        c = rng.randint(-6, 30)
        yield p, b, c


def _shell_box(p, b, c) -> list[range]:
    """Coordinate ranges of a box that holds every integer z with
    z^T p z - 2 b.z = c."""
    # the shell is the ellipsoid (z - m)^T p (z - m) = R with m = p^-1 b
    # and R = c + b.m, whose bounding box is |z_i - m_i| <= sqrt(R (p^-1)_ii)
    k = len(p)
    inv = inverse(p)
    m = [sum(inv[i][j] * b[j] for j in range(k)) for i in range(k)]
    radius = c + sum(bi * mi for bi, mi in zip(b, m))
    spans = []
    for i in range(k):
        t = math.isqrt(math.ceil(max(radius, 0) * inv[i][i])) + 1
        spans.append(range(math.floor(m[i]) - t, math.ceil(m[i]) + t + 1))
    return spans


def _brute_shell(p, b, c):
    """The integer z with z^T p z - 2 b.z = c, by a scan of `_shell_box` in
    ascending (z_{k-1}, ..., z_0) order, which adds the terms of z_i to
    the form's value once z_{i+1}, ..., z_{k-1} are fixed."""
    k = len(p)
    spans = _shell_box(p, b, c)
    z = [0] * k
    found = []

    def scan(i, value):
        cross = 2 * sum(p[i][j] * z[j] for j in range(i + 1, k)) - 2 * b[i]
        for x in spans[i]:
            z[i] = x
            here = value + x * (p[i][i] * x + cross)
            if i:
                scan(i - 1, here)
            elif here == c:
                found.append(tuple(z))

    scan(k - 1, 0)
    return found


def test_shell_points_matches_brute_force():
    seen = 0
    for p, b, c in _shell_systems():
        brute = _brute_shell(p, b, c)
        # ascending (z_{k-1}, ..., z_0): the order the witness note depends on
        assert shell_z_points(p, b, c) == brute
        seen += len(brute)
    assert seen > 100


def _splits(p) -> bool:
    """Is p a direct sum of two blocks, z_0..z_i and z_{i+1}.. for some i?"""
    return any(all(not any(row[i + 1:]) for row in p[:i + 1]) for i in range(len(p) - 1))


def _block_shell_systems():
    """60 seeded shells (p, b, c) whose p is a direct sum of positive
    definite blocks of size 1-3, twelve of each k = 2-6, so that split
    levels fall mid-walk; every fifth p is diagonal, and about a third of
    the blocks have b = 0 on them. Every fourth system has its coordinates
    shuffled, so that its blocks interleave and a pivot row can reach
    past a later row that does not. Each shell passes through a point
    near the centre p^-1 b, which keeps it nonempty; a shell whose box
    holds more than 50 000 points is drawn again, which keeps the scan
    quick."""
    rng = random.Random(1954)
    case = 0
    while case < 60:
        k = 2 + case % 5
        sizes = []
        while sum(sizes) < k:
            sizes.append(1 if case % 10 < 2 else rng.randint(1, min(3, k - sum(sizes))))
        p = [[0] * k for _ in range(k)]
        b = []
        at = 0
        for size in sizes:
            block = _random_positive_definite(rng, size)
            for i in range(size):
                p[at + i][at:at + size] = block[i]
            flat = rng.random() < 1 / 3
            b += [0 if flat else rng.randint(-3, 3) for _ in range(size)]
            at += size
        if case % 4 == 3:
            order = rng.sample(range(k), k)
            p = [[p[i][j] for j in order] for i in order]
            b = [b[i] for i in order]
        inv = inverse(p)
        z0 = [round(sum(inv[i][j] * b[j] for j in range(k))) + rng.randint(-1, 1)
              for i in range(k)]
        c = sum(x * p[i][j] * y for i, x in enumerate(z0) for j, y in enumerate(z0))
        c -= 2 * sum(map(operator.mul, b, z0))
        if math.prod(map(len, _shell_box(p, b, c))) <= 50_000:
            case += 1
            yield p, b, c


def test_block_diagonal_shells_match_brute_force():
    # an orthogonal block's subtree is walked once per rem and reused for
    # every prefix above it; the points and their order must be the scan's
    seen = split = 0
    for p, b, c in _block_shell_systems():
        brute = _brute_shell(p, b, c)
        assert shell_z_points(p, b, c) == brute
        seen += len(brute)
        split += _splits(p)
    assert seen > 1000 and split >= 45


def test_shell_points_affine_images():
    # the image carried down the recursion is base + sum_i z_i cols[i] of
    # each point the identity call lists, in the same order, for images of
    # any length and entries far beyond the shell's
    rng = random.Random(1985)
    seen = 0
    for p, b, c in _shell_systems():
        k = len(p)
        width = rng.randint(1, 7)
        base = tuple(rng.randint(-10**12, 10**12) for _ in range(width))
        cols = [tuple(rng.randint(-50, 50) for _ in range(width)) for _ in range(k)]
        expected = [
            tuple(x + sum(zi * col[r] for zi, col in zip(z, cols)) for r, x in enumerate(base))
            for z in shell_z_points(p, b, c)
        ]
        assert _shell_points(p, b, c, base, cols) == expected
        seen += len(expected)
    assert seen > 100


def test_shell_points_edge_cases():
    # rank-1 lattices have an empty ample kernel: the one point z = () has
    # image base
    assert shell_z_points([], [], 0) == [()]
    assert shell_z_points([], [], 3) == []
    assert _shell_points([], [], 0, (4, -1), ()) == [(4, -1)]
    assert _shell_points([], [], 3, (4, -1), ()) == []
    with pytest.raises(ContractViolationError):
        shell_z_points([[1, 2], [2, 1]], [0, 0], 1)


def _unit_systems():
    """36 seeded level-1 shells (p, b_unit, c_unit) of rank k = 0-5, every
    fourth with k > 0 in a sheared basis, each with the elimination a frame
    keeps and det(p); the seeded rng comes along so that a caller draws its
    images from the same stream."""
    rng = random.Random(1968)
    for case in range(36):
        k = case % 6
        p = _random_positive_definite(rng, k)
        if case % 4 == 3 and k:
            p = [list(row) for row in congruate(p, rand_unimodular(rng, k))]
        b_unit = [rng.randint(-4, 4) for _ in range(k)]
        # c_unit + b^T p^-1 b, the level-1 shell's squared radius, is kept in
        # [-1, 1) so that the rank-5 shells of level 8 stay quick to walk
        inv = inverse(p) if k else []
        lift = sum(bi * inv[i][j] * bj for i, bi in enumerate(b_unit)
                   for j, bj in enumerate(b_unit))
        c_unit = -math.floor(lift) + rng.randint(-1, 0)
        unit_elimination = _eliminate(p, b_unit, c_unit)
        levels = unit_elimination[0]
        if k:
            det_p = levels[-1][0]
            assert det_p == det_int(p)
        else:  # rank 1: nothing to eliminate, and rem is c itself
            det_p = 1
            assert unit_elimination == ((), (), c_unit)
        yield rng, p, b_unit, c_unit, unit_elimination, det_p


SQUARES = sorted({pr.square for t in TYPES for pr in profiles(t)})


def test_frame_elimination_scales_to_every_level():
    # the frame eliminates (p, b_unit, c_unit) once; level m with square s
    # must start from the integers a fresh elimination of
    # (p, m b_unit, m^2 c_unit - s) gives, and walk to the same images
    images = empty = 0
    for rng, p, b_unit, c_unit, unit_elimination, det_p in _unit_systems():
        k = len(p)
        levels, border_unit, rem_unit = unit_elimination
        width = rng.randint(1, 4)
        cols = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(k)]
        for m in range(9):
            border = tuple(m * x for x in border_unit)
            unit = tuple(rng.randint(-5, 5) for _ in range(width))
            base = tuple(m * x for x in unit)
            for s in SQUARES:
                b, c = [m * x for x in b_unit], m * m * c_unit - s
                rem = m * m * rem_unit - det_p * s
                assert _eliminate(p, b, c) == (levels, border, rem)
                got = _walk(*unit_elimination, det_p * s, unit, cols, (m,))
                assert got == _shell_points(p, b, c, base, cols)
                images += len(got)
                empty += not got
    assert images > 5000 and empty > 300


def test_one_walk_covers_every_level():
    # one walk of a square over the levels 0-8 lists, level by level, the
    # images of fresh per-level eliminations and walks; levels whose rem is
    # negative are among them
    images = negative = 0
    for rng, p, b_unit, c_unit, unit_elimination, det_p in _unit_systems():
        k = len(p)
        rem_unit = unit_elimination[2]
        width = rng.randint(1, 4)
        cols = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(k)]
        unit = tuple(rng.randint(-5, 5) for _ in range(width))
        for s in SQUARES:
            expected = []
            for m in range(9):
                base = tuple(m * x for x in unit)
                expected += _shell_points(p, [m * x for x in b_unit], m * m * c_unit - s,
                                          base, cols)
                negative += m * m * rem_unit - det_p * s < 0
            assert _walk(*unit_elimination, det_p * s, unit, cols, range(9)) == expected
            images += len(expected)
    assert images > 5000 and negative > 100
    # on block-diagonal forms the walk reuses a block's subtree only
    # within the level it was walked at, whose border it depends on
    images = 0
    for p, b_unit, c_unit in _block_shell_systems():
        k = len(p)
        unit_elimination = _eliminate(p, b_unit, c_unit)
        det_p = unit_elimination[0][-1][0]
        cols = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(k)]
        unit = tuple(rng.randint(-5, 5) for _ in range(3))
        for s in (0, -2):
            expected = []
            for m in range(4):
                expected += _shell_points(p, [m * x for x in b_unit], m * m * c_unit - s,
                                          tuple(m * x for x in unit), cols)
            assert _walk(*unit_elimination, det_p * s, unit, cols, range(4)) == expected
            images += len(expected)
    assert images > 5000
    # rank 2: the level-0 walk alone gives the witness that analyze
    # prints, and a bound below g leaves no level to walk
    lat = Lattice(((2, 0), (0, -2)))
    assert next(_profile_classes(_shell_frame(lat, K3, (1, 0)), (0,)), None) == (0, -1)
    assert "profile-matching class (0, -1);" in analyze(lat, K3, (1, 0)).notes[0]
    assert _shell_frame(lat, K3, (2, 0)).g == 4
    assert enumerate_exceptional(lat, K3, (2, 0), EnumerationBound(max_ample_pairing=3)) == ()


def test_frame_rejects_a_kernel_form_that_is_not_positive_definite():
    # on diag(2, 2) the ample kernel e_1 has p = -2, and on diag(2, -2, 2)
    # p = diag(2, -2): building the frame, its one elimination, raises
    for gram, ample in [(((2, 0), (0, 2)), (1, 0)),
                        (((2, 0, 0), (0, -2, 0), (0, 0, 2)), (1, 0, 0))]:
        with pytest.raises(ContractViolationError, match="not positive definite"):
            _shell_frame(Lattice(gram), K3, ample)


def test_frame_pivots_decide_the_signature():
    # with q(ample) > 0, Q^n = Q ample + ample^perp is an orthogonal split,
    # so the signature is (1, n - 1) exactly when every pivot of the frame's
    # elimination is positive (Sylvester); otherwise enumeration raises the
    # SignatureError that lattice.signature names
    seen = {}
    for lat, ample, sig in signature_corpus():
        n = lat.rank
        assert signature(lat) == sig
        if sig == (1, n - 1):
            frame = _shell_frame(lat, K3, ample)
            assert all(a > 0 for a, _, _ in frame.levels)
            enumerate_exceptional(lat, K3, ample, B2)
        else:
            if norm(lat, ample) > 0:
                with pytest.raises(ContractViolationError, match="not positive definite"):
                    _shell_frame(lat, K3, ample)
            with pytest.raises(SignatureError) as info:
                enumerate_exceptional(lat, K3, ample, B2)
            assert str(info.value) == f"expected signature (1, {n - 1}), got {sig}"
        seen[sig] = seen.get(sig, 0) + 1
    assert seen == {(p, n - p): 6 for n in range(1, 7) for p in range(n + 1)}


# (2, 1), and (0, 3), on which every ample class has negative norm
PLUS2 = Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2)))
NEGDEF = Lattice(((-2, 1, 0), (1, -2, 0), (0, 0, -4)))
# each ample class with the error it gets on K3_RANK3, signature (1, 2)
BAD_AMPLES = [
    ((1, 0), DimensionMismatchError, "vector of length 2 in a rank-3 lattice"),
    ((1, 0, 0, 0), DimensionMismatchError, "vector of length 4 in a rank-3 lattice"),
    ((1.5, 0, 0), InputFormatError, "expected integer entries, got (1.5, 0, 0)"),
    ((1.0, 0, 0), InputFormatError, "expected integer entries, got (1.0, 0, 0)"),
    ((True, 0, 0), InputFormatError, "expected integer entries, got a boolean in (True, 0, 0)"),
    ([1, False, 0], InputFormatError, "expected integer entries, got a boolean in [1, False, 0]"),
    (5, InputFormatError, "expected integer entries, got 5"),
    ((0, 0, 0), PreconditionError, "ample class must have positive norm, got 0"),
    ((1, 1, 0), PreconditionError, "ample class must have positive norm, got 0"),
    ((0, 1, 0), PreconditionError, "ample class must have positive norm, got -2"),
]
PRECEDENCE = (
    [(K3_RANK3, ample, kind, message) for ample, kind, message in BAD_AMPLES]
    + [(lat, ample, SignatureError, f"expected signature (1, 2), got {sig}")
       for lat, sig in ((PLUS2, "(2, 1)"), (NEGDEF, "(0, 3)"))
       for ample, _, _ in BAD_AMPLES + [((1, 0, 0), None, None)]]
    + [
        (Lattice(((-6,),)), (1,), SignatureError, "expected signature (1, 0), got (0, 1)"),
        (Lattice(((-6,),)), (1.5,), SignatureError, "expected signature (1, 0), got (0, 1)"),
        (Lattice(((6,),)), (0,), PreconditionError, "ample class must have positive norm, got 0"),
        (Lattice(((6,),)), (True,), InputFormatError,
         "expected integer entries, got a boolean in (True,)"),
    ]
)


@pytest.mark.parametrize("lat,ample,kind,message", PRECEDENCE)
def test_entry_check_precedence(lat, ample, kind, message):
    # a wrong signature is named whatever else is wrong with the input;
    # on a lattice of signature (1, n - 1) the ample class's own fault
    # stands, with the checks in the order length/integers, then norm
    for call in (enumerate_exceptional, analyze):
        with pytest.raises(kind) as info:
            call(lat, K3, ample)
        assert type(info.value) is kind and str(info.value) == message


def test_rank2_matches_box_oracle_at_many_levels():
    # the arith workload's rank-2 bounds, 80-200, so each shell frame serves
    # up to 200 pairing levels; in the diagonal basis and a sheared one
    rng = random.Random(190)
    classes = 0
    for _ in range(16):
        lat = Lattice(((rng.randint(1, 6), 0), (0, -rng.randint(1, 12))))
        bnd = rng.randint(80, 200)
        bound = EnumerationBound(max_ample_pairing=bnd)
        for t in TYPES:
            got = enumerate_exceptional(lat, t, (1, 0), bound)
            assert got == box_oracle(lat, t, bnd)
            moved, vecs = transported(rng, lat, [(1, 0)] + list(got))
            assert set(enumerate_exceptional(moved, t, vecs[0], bound)) == set(vecs[1:])
            classes += len(got)
    assert classes > 80


RANK8_SHELL = tuple(tuple((2 if i == 0 else -2) if i == j else 0 for j in range(8))
                    for i in range(8))


@pytest.mark.parametrize("gram,dtype,bnd", [
    (((6, 3), (3, -6)), parse_type("OG10"), 190),
    (RANK8_SHELL, K3, 4),
    (K3_RANK3.gram, parse_type("K3[n]", 3), 16),
], ids=["rank2-bound190", "rank8-shell", "rank3-k3n3-bound16"])
def test_one_elimination_per_frame(monkeypatch, gram, dtype, bnd):
    # every level and square scales the frame's elimination, and one walk
    # per square covers every level: a pass that eliminated again per level
    # or square, or walked each level on its own, would count more
    calls = {"_eliminate": 0, "_walk": 0}

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    engine._shell_frame.cache_clear()
    lat, ample = Lattice(gram), (1,) + (0,) * (len(gram) - 1)
    found = enumerate_exceptional(lat, dtype, ample, EnumerationBound(max_ample_pairing=bnd))
    assert found and calls["_eliminate"] == 1
    frame = _shell_frame(lat, dtype, ample)  # the cached frame: no second elimination
    assert calls["_eliminate"] == 1 and engine._shell_frame.cache_info().misses == 1
    assert calls["_walk"] == len(frame.div_table) < bnd // frame.g


def test_split_levels_walk_each_block_once(monkeypatch):
    # on diag(2, -2^7) with ample (1, 0, ..., 0) the kernel form is 2 I_7,
    # so every level is a split level and each (level, rem) subtree is
    # walked once per pairing level; a walk that reused no subtree would
    # make 1 540 isqrt calls for the same 924 classes
    calls = []

    def isqrt(x):
        calls.append(x)
        return math.isqrt(x)

    monkeypatch.setattr(engine, "math", types.SimpleNamespace(isqrt=isqrt, gcd=math.gcd))
    found = enumerate_exceptional(Lattice(RANK8_SHELL), K3, (1,) + (0,) * 7, B4)
    assert len(found) == 924 and len(calls) == 69


def _reference_cases():
    """(lattice, type, ample, bound) for the per-class reference: 60 random
    rank 2-7 systems, then rank 8, the shell workload's top rank, in random
    unimodular bases, where every level of the recursion carries a nonzero
    partial image; then 16 diagonal rank 3-7 systems in their own basis."""
    rng = random.Random(2718)
    types = [K3, parse_type("K3[n]", 2), parse_type("K3[n]", 3), parse_type("Kum[n]", 2),
             parse_type("OG6"), parse_type("OG10")]
    for _ in range(60):
        rank = rng.randint(2, 7)
        diag = [rng.choice((1, 2, 4))] + [-rng.choice((1, 2, 2, 4, 6)) for _ in range(rank - 1)]
        base = Lattice(tuple(
            tuple(diag[i] if i == j else 0 for j in range(rank)) for i in range(rank)
        ))
        while True:
            ample0 = (rng.randint(1, 3),) + tuple(rng.randint(-1, 1) for _ in range(rank - 1))
            if pairing(base, ample0, ample0) > 0:
                break
        scale = rng.choice((1, 1, 2))
        ample0 = tuple(scale * x for x in ample0)
        lat, (ample,) = transported(rng, base, [ample0])
        t = rng.choice(types)
        g = _shell_frame(lat, t, ample).g
        yield lat, t, ample, g * rng.randint(1, 3) + rng.randint(0, 4 if rank <= 5 else 1)
    rng = random.Random(8)
    base = Lattice(tuple(
        tuple((2 if i == 0 else -2) if i == j else 0 for j in range(8)) for i in range(8)
    ))
    for ample0, t, bnd in (((3, 1, 1, 0, 0, 0, 0, 0), K3, 8),
                           ((2, 1, 0, 0, 0, 0, 0, 0), parse_type("OG10"), 6)):
        lat, (ample,) = transported(rng, base, [ample0])
        yield lat, t, ample, bnd
    # diagonal lattices left in their own basis: most ample kernels split
    # into orthogonal blocks, and the walk reuses their subtrees
    rng = random.Random(1891)
    for _ in range(16):
        rank = rng.randint(3, 7)
        diag = [rng.choice((1, 2, 4))] + [-rng.choice((1, 2, 2, 4, 6)) for _ in range(rank - 1)]
        base = Lattice(tuple(
            tuple(diag[i] if i == j else 0 for j in range(rank)) for i in range(rank)
        ))
        while True:
            ample = (rng.randint(1, 3),) + tuple(rng.choice((-1, 0, 0, 0, 1))
                                                 for _ in range(rank - 1))
            if pairing(base, ample, ample) > 0:
                break
        t = rng.choice(types)
        g = _shell_frame(base, t, ample).g
        yield base, t, ample, g * rng.randint(2, 4)


def _content_cases():
    """(lattice, type, ample, bound, content): c times a rank 3-5 lattice of
    content 1, in a random basis, for c in 1, 2, 3, 6 and every type."""
    rng = random.Random(6006)
    types = [K3, parse_type("K3[n]", 2), parse_type("K3[n]", 3), parse_type("Kum[n]", 2),
             parse_type("OG6"), parse_type("OG10")]
    for content in (1, 2, 3, 6):
        for t in types:
            for _ in range(2):
                rank = rng.randint(3, 5)
                # a -1 entry gives content 1 before scaling
                diag = ([rng.choice((1, 2, 3))] + [-1]
                        + [-rng.choice((1, 2, 3, 5)) for _ in range(rank - 2)])
                base = Lattice(tuple(
                    tuple(content * diag[i] if i == j else 0 for j in range(rank))
                    for i in range(rank)
                ))
                while True:
                    ample0 = (rng.randint(1, 3),) + tuple(
                        rng.randint(-1, 1) for _ in range(rank - 1))
                    if pairing(base, ample0, ample0) > 0:
                        break
                lat, (ample,) = transported(rng, base, [ample0], rank)
                g = _shell_frame(lat, t, ample).g
                yield lat, t, ample, g * rng.randint(3, 5), content


def test_gram_content_decides_which_squares_test_divisibility():
    # c = gcd of the Gram entries divides div(v) = gcd(G v) for every v, so a
    # square with an allowed divisibility d | c needs no test; the others
    # still reject points, e.g. OG10's (-6, 3) and Kum[2]'s (-6, 3 or 6) at c = 2
    rejecting, classes = set(), 0
    for lat, t, ample, bnd, content in _content_cases():
        assert math.gcd(*(x for row in lat.gram for x in row)) == content
        frame = _shell_frame(lat, t, ample)
        table = profile_table(t)
        assert [square for square, _ in frame.div_table] == [square for square, _ in table]
        for (_, marked), (_, allowed) in zip(frame.div_table, table):
            test_free = any(content % d == 0 for d in allowed)
            assert marked == (None if test_free else allowed), (t, content)
        expected = reference_profile_levels(lat, t, ample, bnd)
        got = enumerate_exceptional(lat, t, ample, EnumerationBound(max_ample_pairing=bnd))
        assert got == tuple(sorted(v for m in expected if m for v in expected[m]))
        classes += len(got)
        # the inverted rule tests where the content already decides and skips
        # the test where it can reject a class
        inverted = frame._replace(div_table=tuple(
            (square, allowed if marked is None else None)
            for (square, marked), (_, allowed) in zip(frame.div_table, table)
        ))
        ms = range(1, bnd // frame.g + 1)
        if tuple(sorted(_profile_classes(inverted, ms))) != got:
            rejecting.add((t.kind.value, content))
    assert {("OG10", 2), ("Kum[n]", 2)} <= rejecting and classes > 250


def test_enumerate_matches_per_class_reference():
    # the frame scales one split to every pairing level; rebuilding each
    # class with pairing/norm/is_primitive/divisibility must give the same
    # classes in the same order, witness included
    classes = levels_above_one = witnesses = rank8 = split = 0
    for lat, t, ample, bnd in _reference_cases():
        frame = _shell_frame(lat, t, ample)
        split += _splits(frame.p_matrix)
        expected = reference_profile_levels(lat, t, ample, bnd)
        assert sorted(expected) == list(range(bnd // frame.g + 1))
        for m, found in expected.items():
            assert list(_profile_classes(frame, (m,))) == found
        witness = next(_profile_classes(frame, (0,)), None)
        assert witness == next(iter(expected[0]), None)
        witnesses += witness is not None
        got = enumerate_exceptional(lat, t, ample, EnumerationBound(max_ample_pairing=bnd))
        assert got == tuple(sorted(set(v for m in expected if m for v in expected[m])))
        classes += len(got)
        levels_above_one += frame.g > 1 and len(expected) > 2
        if lat.rank == 8:
            assert any(lat.gram[i][j] for i in range(8) for j in range(i))
            rank8 += len(got)
    assert classes > 900 and levels_above_one >= 15 and witnesses >= 15 and rank8 > 100
    assert split >= 12
