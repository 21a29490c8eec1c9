"""Reflections, integrality, chamber reduction and wall detection."""
import random

import pytest

from ihscone.catalog import parse_type, profiles
from ihscone.engine import EnumerationBound, enumerate_exceptional
from ihscone.errors import (
    BoundExceededError,
    NonIntegralReflectionError,
    PreconditionError,
)
from ihscone.lattice import Lattice, det_int, gram_vec, norm, pairing
from ihscone.polyhedra import dd_generators
from ihscone.weyl import (
    is_chamber_wall,
    reflect,
    reflection_is_integral,
    weyl_reduce,
)
from tests.helpers import (
    fm_is_wall,
    near_boundary_vector,
    rand_diag_gram,
    rand_primitive,
    rand_profile_root,
    reference_weyl_reduce,
    transported,
)

DIAG = Lattice(((2, 0), (0, -2)))
DENSE = Lattice(((2, 1), (1, -2)))
DENSE_ROOTS = ((0, 1), (1, -1), (1, 2), (3, -2))

CATALOG_TYPES = (
    parse_type("K3"),
    parse_type("K3[n]", 2),
    parse_type("K3[n]", 3),
    parse_type("Kum[n]", 2),
    parse_type("Kum[n]", 3),
    parse_type("OG6"),
    parse_type("OG10"),
)


def test_reflect_frozen():
    assert reflect(DIAG, (0, 1), (3, 2)) == (3, -2)
    assert reflect(DENSE, (0, 1), (1, 0)) == (1, 1)
    assert reflect(DIAG, (0, 1), (1, 0)) == (1, 0)


def test_reflect_is_involution():
    v = (5, 3)
    assert reflect(DIAG, (0, 1), reflect(DIAG, (0, 1), v)) == v


def test_reflect_negates_root():
    assert reflect(DIAG, (0, 1), (0, 1)) == (0, -1)
    assert reflect(DENSE, (1, -1), (1, -1)) == (-1, 1)


def test_reflection_root_validation():
    isotropic = (Lattice(((2, 1), (1, 0))), (0, 1), "must not be isotropic")
    positive = (DIAG, (1, 0), "must have negative norm, got 2")
    for lat, root, message in (isotropic, positive):
        with pytest.raises(PreconditionError, match=message):
            reflect(lat, root, (1, 1))
        with pytest.raises(PreconditionError, match=message):
            reflection_is_integral(lat, root)


def test_reflection_is_integral_frozen():
    assert reflection_is_integral(DIAG, (0, 1))
    og10 = Lattice(((2, 3), (3, -6)))
    assert reflection_is_integral(og10, (0, 1))
    skew = Lattice(((-4, 1), (1, 2)))
    assert not reflection_is_integral(skew, (1, 0))


def test_reflect_rejects_non_integral_image():
    skew = Lattice(((-4, 1), (1, 2)))
    with pytest.raises(NonIntegralReflectionError):
        reflect(skew, (1, 0), (0, 1))


def test_profile_roots_reflect_well():
    # every catalog profile yields roots whose reflections are lattice
    # automorphisms: involutive, pairing-preserving, determinant -1
    rng = random.Random(606)
    checked = 0
    for t in CATALOG_TYPES:
        for p in profiles(t):
            for _ in range(40):
                rank = rng.randint(2, 5)
                lat, root = rand_profile_root(rng, p, rank)
                assert norm(lat, root) == p.square
                assert reflection_is_integral(lat, root)
                assert reflect(lat, root, root) == tuple(-x for x in root)
                u = tuple(rng.randint(-4, 4) for _ in range(rank))
                w = tuple(rng.randint(-4, 4) for _ in range(rank))
                ru = reflect(lat, root, u)
                rw = reflect(lat, root, w)
                assert reflect(lat, root, ru) == u
                assert pairing(lat, ru, rw) == pairing(lat, u, w)
                basis_images = [
                    reflect(lat, root, tuple(1 if j == i else 0 for j in range(rank)))
                    for i in range(rank)
                ]
                mat = [[basis_images[j][i] for j in range(rank)] for i in range(rank)]
                assert det_int(mat) == -1
                checked += 1
    assert checked >= 500


def test_weyl_reduce_frozen_single_root():
    red = weyl_reduce(DIAG, ((0, 1),), (2, 1))
    assert red.representative == (2, -1)
    assert red.word == ((0, 1),)
    assert red.steps == 1
    # already reduced input comes back untouched
    settled = weyl_reduce(DIAG, ((0, 1),), (2, -1))
    assert settled.representative == (2, -1)
    assert settled.steps == 0 and settled.word == ()


def test_weyl_reduce_frozen_two_steps():
    red = weyl_reduce(DENSE, DENSE_ROOTS, (2, 3))
    assert red.representative == (1, 0)
    assert red.word == ((0, 1), (1, -1))
    assert red.steps == 2


def test_weyl_reduce_word_replay():
    # applying the word right-to-left to the representative recovers the
    # input; this is the documented orientation of the word
    red = weyl_reduce(DENSE, DENSE_ROOTS, (2, 3))
    v = red.representative
    for root in reversed(red.word):
        v = reflect(DENSE, root, v)
    assert v == (2, 3)


def test_weyl_reduce_randomized_properties():
    rng = random.Random(1212)
    ample = (1, 0)
    assert all(pairing(DENSE, r, ample) > 0 for r in DENSE_ROOTS)
    for _ in range(200):
        v = (rng.randint(1, 9), rng.randint(-9, 9))
        if norm(DENSE, v) < 0 or pairing(DENSE, v, ample) <= 0:
            continue
        red = weyl_reduce(DENSE, DENSE_ROOTS, v)
        rep = red.representative
        assert all(pairing(DENSE, r, rep) >= 0 for r in DENSE_ROOTS)
        assert norm(DENSE, rep) == norm(DENSE, v)
        # pairing against an interior ample strictly drops at every step
        if red.steps:
            assert pairing(DENSE, rep, ample) < pairing(DENSE, v, ample)
        else:
            assert rep == v
        back = rep
        for root in reversed(red.word):
            back = reflect(DENSE, root, back)
        assert back == v


def test_weyl_reduce_matches_reflect_reference():
    # the same representative, word and step count as reflecting with
    # reflect() and pivoting on pairing(), with the enumerated roots of
    # rank 6-8 lattices and vectors near the boundary of the positive cone
    rng = random.Random(4242)
    types = [parse_type("K3"), parse_type("K3[n]", 3), parse_type("OG6")]
    total_steps = 0
    for _ in range(30):
        rank = rng.randint(6, 8)
        diag = [2] + [-rng.choice((2, 2, 4)) for _ in range(rank - 1)]
        base = Lattice(tuple(
            tuple(diag[i] if i == j else 0 for j in range(rank)) for i in range(rank)
        ))
        ample0 = (1,) + (0,) * (rank - 1)
        v0 = near_boundary_vector(rng, diag, 6)
        lat, (ample, v) = transported(rng, base, [ample0, v0])
        roots = enumerate_exceptional(
            lat, rng.choice(types), ample, EnumerationBound(max_ample_pairing=3)
        )
        red = weyl_reduce(lat, roots, v)
        assert (red.representative, red.word, red.steps) == reference_weyl_reduce(lat, roots, v)
        total_steps += red.steps
    assert total_steps >= 40


def test_weyl_reduce_ends_within_the_ample_pairing():
    # enumerated roots pair positively with the ample class a and reflect
    # integrally, so each step lowers the integer pairing(v, a) by at least
    # 1 and stays on a's sheet (weyl_reduce docstring): max_steps =
    # pairing(v, a) always suffices.  Reflecting a vector near the cone's
    # boundary in roots it pairs positively with moves it away from the
    # chamber first.
    rng = random.Random(6161)
    types = [parse_type("K3"), parse_type("K3[n]", 2), parse_type("OG6")]
    total_steps = 0
    for _ in range(40):
        rank = rng.randint(3, 7)
        diag = [2] + [-rng.choice((2, 2, 4)) for _ in range(rank - 1)]
        base = Lattice(tuple(
            tuple(diag[i] if i == j else 0 for j in range(rank)) for i in range(rank)
        ))
        ample0 = (1,) + (0,) * (rank - 1)
        v0 = near_boundary_vector(rng, diag, 6)
        lat, (ample, v) = transported(rng, base, [ample0, v0])
        roots = enumerate_exceptional(
            lat, rng.choice(types), ample, EnumerationBound(max_ample_pairing=rng.randint(1, 4))
        )
        for _ in range(rng.randint(0, 6)):
            away = [r for r in roots if pairing(lat, r, v) > 0]
            if away:
                v = reflect(lat, rng.choice(away), v)
        cap = pairing(lat, v, ample)
        red = weyl_reduce(lat, roots, v, max_steps=cap)
        levels = [cap]
        for root in red.word:
            v = reflect(lat, root, v)
            levels.append(pairing(lat, v, ample))
        assert v == red.representative
        assert all(x > y >= 0 for x, y in zip(levels, levels[1:]))
        total_steps += red.steps
    assert total_steps >= 100


def test_weyl_reduce_rejects_negative_norm():
    with pytest.raises(PreconditionError):
        weyl_reduce(DENSE, DENSE_ROOTS, (0, 1))


def test_weyl_reduce_rejects_non_integral_root():
    skew = Lattice(((-4, 1), (1, 2)))
    with pytest.raises(PreconditionError):
        weyl_reduce(skew, ((1, 0),), (0, 1))
    # roots that define no reflection at all are rejected the same way
    with pytest.raises(PreconditionError, match="isotropic"):
        weyl_reduce(Lattice(((2, 1), (1, 0))), ((0, 1),), (1, 0))
    with pytest.raises(PreconditionError, match="negative norm"):
        weyl_reduce(DIAG, ((0, 1), (1, 0)), (1, 0))


def test_weyl_reduce_step_cap():
    # antipodal root pair makes the pivot rule cycle; the cap must fire
    with pytest.raises(BoundExceededError):
        weyl_reduce(DIAG, ((0, 1), (0, -1)), (1, 1), max_steps=50)


def test_weyl_reduce_rejects_a_malformed_step_cap():
    # the cap is checked as EnumerationBound checks its fields, whether or
    # not a step is needed
    for max_steps in (-1, True, False, 1.5, 2.0, "3", None):
        for v in ((2, 1), (2, -1)):
            with pytest.raises(PreconditionError, match="max_steps must be a nonnegative integer"):
                weyl_reduce(DIAG, ((0, 1),), v, max_steps=max_steps)
    # 0 allows no step: a reduced input passes, one that needs a step does not
    assert weyl_reduce(DIAG, ((0, 1),), (2, -1), max_steps=0).steps == 0
    with pytest.raises(BoundExceededError, match="within 0 steps"):
        weyl_reduce(DIAG, ((0, 1),), (2, 1), max_steps=0)


def _chamber(L, roots, ample):
    rows = [gram_vec(L, r) for r in roots] + [gram_vec(L, ample)]
    return dd_generators(rows, L.rank)


def test_is_chamber_wall_frozen():
    _, _, incidence = _chamber(DENSE, DENSE_ROOTS, (1, 0))
    # rows (0, 1), (1, -1), (1, 2), (3, -2), then the ample class
    assert is_chamber_wall(incidence, 0)
    assert is_chamber_wall(incidence, 1)
    assert not is_chamber_wall(incidence, 2)
    assert not is_chamber_wall(incidence, 3)
    # a single root is always a wall
    assert is_chamber_wall(_chamber(DIAG, ((0, 1),), (1, 0))[2], 0)


def test_is_chamber_wall_ignores_proportional_duplicates():
    # (0, 1) and (0, 2) cut out the same facet: equal sets, both walls
    roots = DENSE_ROOTS + ((0, 2),)
    _, _, incidence = _chamber(DENSE, roots, (1, 0))
    assert incidence[0] == incidence[4]
    assert is_chamber_wall(incidence, 0)
    assert is_chamber_wall(incidence, 4)


def test_is_chamber_wall_matches_fm_oracle():
    # fewer independent rows than the rank leave C a lineality space, and
    # then a facet may hold no ray at all; for a non-wall whose face holds
    # rays, strict containment of ray sets, not emptiness, decides
    rng = random.Random(2718)
    checked = nonpointed = nonwall_with_rays = 0
    while checked < 80:
        rank = rng.randint(2, 5)
        base = Lattice(rand_diag_gram(rng, rank, pos_max=3, neg_max=3))
        lat, (ample,) = transported(rng, base, [(1,) + (0,) * (rank - 1)])
        roots = set()
        for _ in range(rng.randint(1, 10)):
            v = rand_primitive(rng, rank, span=3)
            p = pairing(lat, v, ample)
            if p != 0 and norm(lat, v) < 0:
                roots.add(v if p > 0 else tuple(-x for x in v))
        if not roots:
            continue
        roots = sorted(roots)
        lin, _, incidence = _chamber(lat, roots, ample)
        for i, c in enumerate(roots):
            wall = is_chamber_wall(incidence, i)
            assert wall == fm_is_wall(lat, roots, c, ample)
            nonwall_with_rays += not wall and incidence[i] != 0
        checked += 1
        nonpointed += bool(lin)
    assert nonpointed >= 10
    assert nonwall_with_rays >= 5
