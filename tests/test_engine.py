"""Bounded cone analysis: exceptional enumeration, chamber walls, the
dichotomy verdict, rank-2 boundary rays, finiteness and MDS reports."""
import dataclasses
import hashlib
import math
import random

import pytest

from ihscone import engine
from ihscone.catalog import is_numerically_exceptional, parse_type, profiles
from ihscone.engine import (
    EnumerationBound,
    _ample_wall_witness,
    _eliminate,
    _profile_classes,
    _shell_frame,
    _shell_points,
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
    MixedRationalityError,
    PreconditionError,
    SignatureError,
)
from ihscone.lattice import Lattice, det_int, gram_vec, norm, pairing
from ihscone.polyhedra import dd_generators
from ihscone.weyl import is_chamber_wall
from tests.helpers import (
    _echelon,
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
    res = dataclasses.replace(analyze(DENSE, K3, (1, 0)), rank2=None)
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


def test_shell_points_matches_brute_force():
    # z^T p z - 2 b.z = c is the ellipsoid (z - m)^T p (z - m) = R with
    # m = p^-1 b and R = c + b.m, whose bounding box is
    # |z_i - m_i| <= sqrt(R (p^-1)_ii); the scan covers that box.
    seen = 0
    for p, b, c in _shell_systems():
        k = len(p)
        inv = inverse(p)
        m = [sum(inv[i][j] * b[j] for j in range(k)) for i in range(k)]
        radius = c + sum(bi * mi for bi, mi in zip(b, m))
        box = [()]
        for i in range(k):
            t = math.isqrt(math.ceil(max(radius, 0) * inv[i][i])) + 1
            box = [z + (x,) for x in range(math.floor(m[i]) - t, math.ceil(m[i]) + t + 1)
                   for z in box]
        brute = [
            z for z in box
            if sum(z[i] * p[i][j] * z[j] for i in range(k) for j in range(k))
            - 2 * sum(bi * zi for bi, zi in zip(b, z)) == c
        ]
        # ascending (z_{k-1}, ..., z_0): the order the witness note depends on
        assert shell_z_points(p, b, c) == brute
        seen += len(brute)
    assert seen > 100


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


def test_frame_elimination_scales_to_every_level():
    # the frame eliminates (p, b_unit, c_unit) once; level m with square s
    # must start from the integers a fresh elimination of
    # (p, m b_unit, m^2 c_unit - s) gives, and walk to the same images
    rng = random.Random(1968)
    squares = sorted({pr.square for t in TYPES for pr in profiles(t)})
    images = empty = 0
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
        levels, border_unit, rem_unit = _eliminate(p, b_unit, c_unit)
        if k:
            det_p = levels[-1][0]
            assert det_p == det_int(p)
        else:  # rank 1: nothing to eliminate, and rem is c itself
            det_p = 1
            assert (levels, border_unit, rem_unit) == ((), (), c_unit)
        width = rng.randint(1, 4)
        cols = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(k)]
        for m in range(9):
            border = tuple(m * x for x in border_unit)
            base = tuple(m * rng.randint(-5, 5) for _ in range(width))
            for s in squares:
                b, c = [m * x for x in b_unit], m * m * c_unit - s
                rem = m * m * rem_unit - det_p * s
                assert _eliminate(p, b, c) == (levels, border, rem)
                got = _walk(levels, border, rem, base, cols)
                assert got == _shell_points(p, b, c, base, cols)
                images += len(got)
                empty += not got
    assert images > 5000 and empty > 300


def test_frame_rejects_a_kernel_form_that_is_not_positive_definite():
    # on diag(2, 2) the ample kernel e_1 has p = -2, and on diag(2, -2, 2)
    # p = diag(2, -2): building the frame, its one elimination, raises
    for gram, ample in [(((2, 0), (0, 2)), (1, 0)),
                        (((2, 0, 0), (0, -2, 0), (0, 0, 2)), (1, 0, 0))]:
        with pytest.raises(ContractViolationError, match="not positive definite"):
            _shell_frame(Lattice(gram), K3, ample)


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


@pytest.mark.parametrize("gram,t,bnd", [
    (((6, 3), (3, -6)), "OG10", 190),
    (RANK8_SHELL, "K3", 4),
], ids=["rank2-bound190", "rank8-shell"])
def test_one_elimination_per_frame(monkeypatch, gram, t, bnd):
    # every level and square scales the frame's elimination: a pass that
    # eliminated again per level or square would count one per walk
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
    lat, dtype, ample = Lattice(gram), parse_type(t), (1,) + (0,) * (len(gram) - 1)
    found = enumerate_exceptional(lat, dtype, ample, EnumerationBound(max_ample_pairing=bnd))
    assert found and calls["_eliminate"] == 1
    frame = _shell_frame(lat, dtype, ample)  # the cached frame: no second elimination
    assert calls["_eliminate"] == 1
    assert calls["_walk"] == bnd // frame.g * len(frame.div_table) > 1


def _reference_cases():
    """(lattice, type, ample, bound) for the per-class reference: 60 random
    rank 2-7 systems, then rank 8, the shell workload's top rank, in random
    unimodular bases, where every level of the recursion carries a nonzero
    partial image."""
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


def test_enumerate_matches_per_class_reference():
    # the frame scales one split to every pairing level; rebuilding each
    # class with pairing/norm/is_primitive/divisibility must give the same
    # classes in the same order, witness included
    classes = levels_above_one = witnesses = rank8 = 0
    for lat, t, ample, bnd in _reference_cases():
        frame = _shell_frame(lat, t, ample)
        expected = reference_profile_levels(lat, t, ample, bnd)
        assert sorted(expected) == list(range(bnd // frame.g + 1))
        for m, found in expected.items():
            assert list(_profile_classes(frame, m)) == found
        witness = _ample_wall_witness(lat, t, ample)
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
