"""Exact cone machinery: Fourier-Motzkin, double description and its
incidence, ray canonicalization."""
import random
from fractions import Fraction
from math import gcd

import pytest

from tests.helpers import _echelon, brute_force_extreme_rays, same_ray_set
from ihscone.errors import IHSConeError
from ihscone.polyhedra import canonical_ray, dd_generators, fm_satisfiable

F = Fraction


def test_canonical_ray():
    assert canonical_ray((2, 4)) == (1, 2)
    assert canonical_ray((-2, -4)) == (-1, -2)  # direction preserved
    assert canonical_ray((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(ValueError) as info:
        canonical_ray((0, 0))
    assert isinstance(info.value, IHSConeError)


def test_same_ray_set():
    assert same_ray_set([(2, 0), (0, 3)], [(0, 1), (1, 0)])
    assert not same_ray_set([(1, 0)], [(-1, 0)])
    assert not same_ray_set([(1, 0), (0, 1)], [(1, 0)])


def test_fm_satisfiable_frozen():
    # x > 0 and -x > 0: empty
    assert not fm_satisfiable([((F(1),), F(0), True), ((F(-1),), F(0), True)], 1)
    # weak versions meet at x = 0
    assert fm_satisfiable([((F(1),), F(0), False), ((F(-1),), F(0), False)], 1)
    # 0 < x <= 1
    assert fm_satisfiable([((F(1),), F(0), True), ((F(-1),), F(1), False)], 1)
    # x >= 1 and x <= 0: empty
    assert not fm_satisfiable([((F(1),), F(-1), False), ((F(-1),), F(0), False)], 1)
    # open quadrant against a closing halfplane
    assert not fm_satisfiable(
        [
            ((F(1), F(0)), F(0), True),
            ((F(0), F(1)), F(0), True),
            ((F(-1), F(-1)), F(0), False),
        ],
        2,
    )
    assert fm_satisfiable([], 3)


def test_fm_mixed_strictness_propagates():
    # x > 0, y >= 0, x + y <= 0 is infeasible precisely because the
    # combined constraint stays strict
    rows = [
        ((F(1), F(0)), F(0), True),
        ((F(0), F(1)), F(0), False),
        ((F(-1), F(-1)), F(0), False),
    ]
    assert not fm_satisfiable(rows, 2)


def test_dd_generators_orthant():
    lin, rays, _ = dd_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert lin == []
    assert same_ray_set(rays, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_dd_generators_halfplane():
    lin, rays, _ = dd_generators([(1, 0)], 2)
    assert same_ray_set(lin, [(0, 1)])
    assert same_ray_set(rays, [(1, 0)])


def test_dd_generators_no_constraints():
    lin, rays, _ = dd_generators([], 2)
    assert len(lin) == 2 and rays == []


def test_dd_generators_plane_cone():
    lin, rays, _ = dd_generators([(0, 1), (2, -1)], 2)
    assert lin == []
    assert same_ray_set(rays, [(1, 0), (1, 2)])
    # a redundant halfplane changes nothing
    lin2, rays2, _ = dd_generators([(0, 1), (2, -1), (1, 1)], 2)
    assert lin2 == [] and same_ray_set(rays, rays2)


def test_dd_generators_line():
    lin, rays, _ = dd_generators([(1, 0), (-1, 0)], 2)
    assert same_ray_set(lin, [(0, 1)])
    assert rays == []


def test_dd_generators_nonpointed_3d():
    lin, rays, _ = dd_generators([(1, 0, 0)], 3)
    assert len(lin) == 2 and same_ray_set(rays, [(1, 0, 0)])
    for v in lin:
        assert v[0] == 0


def test_dd_generators_redundancy_and_soundness_random():
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(2, 3)
        m = rng.randint(1, 5)
        rows = []
        for _ in range(m):
            row = [rng.randint(-3, 3) for _ in range(n)]
            if any(row):
                rows.append(tuple(row))
        if not rows:
            continue
        lin, rays, _ = dd_generators(rows, n)
        for u in rays:
            assert any(x != 0 for x in u)
            for row in rows:
                assert sum(a * b for a, b in zip(row, u)) >= 0
        for u in lin:
            for row in rows:
                assert sum(a * b for a, b in zip(row, u)) == 0
        # scaling rows is immaterial
        scaled = [tuple(2 * x for x in row) for row in rows]
        lin2, rays2, _ = dd_generators(scaled, n)
        assert same_ray_set(rays, rays2)
        assert len(lin) == len(lin2)


def test_dd_generators_rays_are_primitive():
    _, rays, _ = dd_generators([(0, 2), (4, -2)], 2)
    assert rays
    for u in rays:
        assert gcd(*u) == 1


def test_dd_generators_complete_random():
    # every extreme ray, and no other, against a brute force over all
    # rank-(r-1) subsets of rows; rows drawn from a k-dimensional span
    # with k < n give cones with a nontrivial lineality space.  A row
    # that cuts the lineality space after one that does not moves the
    # rays found so far, so such orders are counted.
    rng = random.Random(1996)
    nonpointed = cut_after_step = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        span = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        rows = []
        for _ in range(rng.randint(1, 7)):
            if rows and rng.random() < 0.2:
                # a scaled copy: two tight bits that name one hyperplane
                rows.append(tuple(rng.randint(1, 3) * x for x in rng.choice(rows)))
                continue
            coeffs = [rng.randint(-2, 2) for _ in range(k)]
            rows.append(tuple(sum(c * v[j] for c, v in zip(coeffs, span)) for j in range(n)))
        lin, rays, _ = dd_generators(rows, n)
        ranks = [len(_echelon(rows[:i], n)[0]) for i in range(len(rows) + 1)]
        assert len(lin) == n - ranks[-1]
        nonpointed += bool(lin)
        cuts = [ranks[i + 1] > ranks[i] for i in range(len(rows))]
        cut_after_step += any(not c and any(cuts[i + 1:]) for i, c in enumerate(cuts))
        values = [tuple(sum(a * b for a, b in zip(row, u)) for row in rows) for u in rays]
        assert same_ray_set(values, brute_force_extreme_rays(rows, n))
    assert nonpointed >= 30
    assert cut_after_step >= 30


def test_dd_generators_incidence_matches_brute_force():
    # incidence is indexed by input row: a zero row keeps its place and is
    # tight on every ray, and a scaled copy has its original's set
    rng = random.Random(1978)
    zero_rows = copies = rays_seen = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 7)):
            pick = rng.random()
            if pick < 0.15:
                rows.append((0,) * n)
                zero_rows += 1
            elif rows and pick < 0.35:
                rows.append(tuple(rng.randint(1, 3) * x for x in rng.choice(rows)))
                copies += 1
            else:
                rows.append(tuple(rng.randint(-2, 2) for _ in range(n)))
        _, rays, incidence = dd_generators(rows, n)
        assert len(incidence) == len(rows)
        for row, tight in zip(rows, incidence):
            zeros = [k for k, u in enumerate(rays) if sum(a * b for a, b in zip(row, u)) == 0]
            assert tight == sum(1 << k for k in zeros)
        rays_seen += len(rays)
    assert zero_rows >= 30 and copies >= 30 and rays_seen >= 300


def test_dd_generators_repeated_facet_adjacency():
    # cone over a cube whose facet x0 + x3 >= 0 is given twice, cut last
    # by x0 + x1 + x2 >= 0.  Diagonal corners of that square facet share
    # two tight rows, enough by count for adjacency in R^4; only the
    # other two corners, tight on both as well, show they are not
    # adjacent.  Combining them would add the facet's centre as a ray.
    rows = [(1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0),
            (1, 0, 0, 1), (2, 0, 0, 2), (1, 0, 0, -1), (1, 1, 1, 0)]
    lin, rays, _ = dd_generators(rows, 4)
    assert lin == []
    corners = [(1, a, b, s) for a in (1, -1) for b in (1, -1) for s in (1, -1) if (a, b) != (-1, -1)]
    cuts = [(1, 0, -1, s) for s in (1, -1)] + [(1, -1, 0, s) for s in (1, -1)]
    assert same_ray_set(rays, corners + cuts)
    values = [tuple(sum(a * b for a, b in zip(row, u)) for row in rows) for u in rays]
    assert same_ray_set(values, brute_force_extreme_rays(rows, 4))
