"""Ten go/no-go checks covering the whole stack, one test per criterion.

Each test is self-contained and exact (integer equality throughout, no
tolerances); the terminal summary prints one PASS/FAIL line per criterion
via the hook in conftest.py.
"""
import json
import random
import time
from math import isqrt
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from ihscone.alphas import (
    alpha_case_a,
    alpha_case_b,
    alpha_effective,
    alpha_k,
    build_context,
)
from ihscone.catalog import is_numerically_exceptional, parse_type, profiles
from ihscone.cli import main
from ihscone.engine import EnumerationBound, analyze, enumerate_exceptional
from ihscone.errors import MixedRationalityError
from ihscone.lattice import (
    Lattice,
    det_int,
    disc_class,
    discriminant_group,
    divisibility,
    is_primitive,
    norm,
    pairing,
)
from ihscone.pell import (
    fundamental_solution,
    next_solution,
    second_solution,
)
from ihscone.weyl import reflect, reflection_is_integral
from tests.helpers import (
    box_oracle,
    brute_force_pell_y,
    chakravala,
    nonsquares_up_to,
    rand_case_a_pair,
    rand_case_b_pair,
    rand_diag_gram,
    rand_primitive,
    rand_profile_root,
    rand_unimodular,
    congruate,
    transported,
)

SCHEMA = Draft7Validator(
    json.loads(
        (Path(__file__).resolve().parent.parent / "schemas" / "report-v1.schema.json").read_text()
    )
)

K3 = parse_type("K3")
RANK3_GRAM = ((2, 0, 0), (0, -2, 0), (0, 0, -2))


def test_criterion_01():
    """Pell solver vs two independent oracles, recursion depth 10, and the
    second-solution identity, for every nonsquare parameter up to 200,
    inside a five-second budget."""
    start = time.monotonic()
    brute_cap = 20000
    for n in nonsquares_up_to(200):
        s = fundamental_solution(n)
        assert s.x * s.x - n * s.y * s.y == 1
        # independent cyclic-method oracle agrees exactly
        assert chakravala(n) == (s.x, s.y)
        # where a literal scan is feasible it also certifies minimality
        scanned = brute_force_pell_y(n, brute_cap)
        if scanned is not None:
            assert scanned == (s.x, s.y)
        else:
            assert s.y > brute_cap
        # recursion: ten compositions stay on the curve and grow strictly
        prev = s
        for _ in range(10):
            nxt = next_solution(s, prev)
            assert nxt.x * nxt.x - n * nxt.y * nxt.y == 1
            assert nxt.x > prev.x and nxt.y > prev.y
            prev = nxt
        two = second_solution(fundamental_solution(n))
        assert two.x - 1 == 2 * n * s.y * s.y
        assert two == next_solution(s, s)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"pell suite took {elapsed:.2f}s"


def test_criterion_02():
    """1000 random hyperbolic lattices of rank 2..5 with valid (D, E):
    the constructed alpha satisfies the branch norm identities, the
    case-a pairing value, and the positivity claims, all exactly."""
    rng = random.Random(20240925)
    for i in range(1000):
        rank = rng.randint(2, 5)
        if i % 2 == 0:
            lat, D, E = rand_case_a_pair(rng, rank)
            ctx = build_context(lat, D, E)
            res = alpha_case_a(ctx)
            assert norm(lat, res.alpha) == 0
            assert pairing(lat, res.alpha, D) == ctx.b * ctx.t * ctx.d
        else:
            lat, D, E = rand_case_b_pair(rng, rank)
            ctx = build_context(lat, D, E)
            res = alpha_case_b(ctx)
            if res.branch == "case_b_pell":
                assert norm(lat, res.alpha) == ctx.t * ctx.e
                sol = res.pell_solution_used
                assert sol.x - ctx.t * ctx.b * sol.y > 0
                # N > (t*b)^2 is the exact form of N - sqrt(N)*t*b > 0
                assert ctx.N > (ctx.t * ctx.b) ** 2
            else:
                assert res.branch == "case_b_square_N"
                assert norm(lat, res.alpha) == 0
                r = isqrt(ctx.N)
                assert r * r == ctx.N
                assert ctx.N - r * ctx.t * ctx.b > 0


def test_criterion_03():
    """Worked examples: the certified construction returns a primitive
    class with the profile divisibility, opposite discriminant class to
    E, and the congruence its Pell index was chosen for."""
    # Hilbert-scheme case, n = 2
    dense = Lattice(((2, 1), (1, -2)))
    t2 = parse_type("K3[n]", 2)
    ctx = build_context(dense, (1, 0), (0, 1))
    res = alpha_effective(ctx, t2)
    assert res.alpha == (144, -89)
    assert res.certified_primitive and is_primitive(dense, res.alpha)
    assert res.div_alpha == divisibility(dense, res.alpha) == ctx.t
    assert res.certified_effective
    assert disc_class(dense, res.alpha) == -disc_class(dense, (0, 1))
    assert res.pell_solution_used.x % (2 * (t2.n - 1)) == 1
    # O'Grady dimension-six case
    og6_lat = Lattice(((2, 2), (2, -2)))
    ctx6 = build_context(og6_lat, (1, 0), (0, 1))
    res6 = alpha_effective(ctx6, parse_type("OG6"))
    assert res6.alpha == (2, -1)
    assert res6.certified_primitive and is_primitive(og6_lat, res6.alpha)
    assert res6.div_alpha == divisibility(og6_lat, res6.alpha) == 2
    assert res6.certified_effective
    assert disc_class(og6_lat, res6.alpha) == -disc_class(og6_lat, (0, 1))


def test_criterion_04():
    """norm(alpha_k) = norm(E) exactly for k = 1..100 on 100 random
    triples, and the k-dependence is exactly quadratic: removing the
    constant second difference leaves a k-linear residual."""
    rng = random.Random(777)
    built = 0
    while built < 100:
        m = rng.randint(0, 3)
        c = rng.randint(1, 5)
        base = Lattice(((0, 1, 0), (1, -2 * m, 0), (0, 0, -2 * c)))
        a0, ap0 = (1, 0, 0), (0, 0, 1)
        E0 = (rng.randint(0, 4), rng.randint(1, 4), 0)
        if pairing(base, a0, E0) <= 0:
            continue
        lat, (a, ap, E) = transported(rng, base, [a0, ap0, E0])
        outs = [alpha_k(lat, a, ap, E, k) for k in range(1, 101)]
        qe = norm(lat, E)
        for out in outs:
            assert norm(lat, out) == qe
        d1 = [tuple(x - y for x, y in zip(outs[j + 1], outs[j])) for j in range(99)]
        d2 = {tuple(x - y for x, y in zip(d1[j + 1], d1[j])) for j in range(98)}
        assert len(d2) == 1  # constant curvature in k
        (dd,) = d2
        assert all(x % 2 == 0 for x in dd)
        quad = tuple(x // 2 for x in dd)
        lin = set()
        for k, out in enumerate(outs, start=1):
            resid = tuple(o - e - k * k * q for o, e, q in zip(out, E, quad))
            assert all(r % k == 0 for r in resid)
            lin.add(tuple(r // k for r in resid))
        assert len(lin) == 1  # the residual is exactly linear in k
        built += 1


def test_criterion_05():
    """500+ randomized lattices carrying a catalog profile root: the
    reflection is integral, involutive, pairing-preserving and has
    determinant -1."""
    rng = random.Random(515151)
    types = [K3, parse_type("K3[n]", 2), parse_type("K3[n]", 3),
             parse_type("Kum[n]", 2), parse_type("Kum[n]", 3),
             parse_type("OG6"), parse_type("OG10")]
    checked = 0
    while checked < 500:
        t = rng.choice(types)
        for prof in profiles(t):
            rank = rng.randint(2, 5)
            lat, root = rand_profile_root(rng, prof, rank)
            assert norm(lat, root) == prof.square
            assert divisibility(lat, root) % prof.div == 0
            assert reflection_is_integral(lat, root)
            u = tuple(rng.randint(-5, 5) for _ in range(rank))
            w = tuple(rng.randint(-5, 5) for _ in range(rank))
            assert reflect(lat, root, reflect(lat, root, u)) == u
            assert pairing(lat, reflect(lat, root, u), reflect(lat, root, w)) == pairing(lat, u, w)
            images = [
                reflect(lat, root, tuple(1 if j == i else 0 for j in range(rank)))
                for i in range(rank)
            ]
            mat = [[images[j][i] for j in range(rank)] for i in range(rank)]
            assert det_int(mat) == -1
            assert reflect(lat, root, root) == tuple(-x for x in root)
            checked += 1


def test_criterion_06():
    """500+ random primitive vectors in random hyperbolic lattices: the
    discriminant class of v/div(v) has order exactly div(v), which in
    turn divides the discriminant-group order."""
    rng = random.Random(606060)
    checked = 0
    while checked < 500:
        rank = rng.randint(1, 5)
        gram = congruate(rand_diag_gram(rng, rank), rand_unimodular(rng, rank))
        lat = Lattice(gram)
        group_order = discriminant_group(lat).order
        v = rand_primitive(rng, rank)
        dv = divisibility(lat, v)
        assert disc_class(lat, v).order == dv
        assert group_order % dv == 0
        checked += 1


def test_criterion_07():
    """Bounded enumeration equals an independent box search on 20+
    random rank-2/3 lattices, reproduces the worked rank-3 counts, and
    finishes inside thirty seconds."""
    start = time.monotonic()
    lat3 = Lattice(RANK3_GRAM)
    got2 = enumerate_exceptional(lat3, K3, (1, 0, 0), EnumerationBound(max_ample_pairing=2))
    assert len(got2) == 4
    assert set(got2) == {(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)}
    got4 = enumerate_exceptional(lat3, K3, (1, 0, 0), EnumerationBound(max_ample_pairing=4))
    assert len(got4) == 12
    rng = random.Random(4242)
    types = [K3, parse_type("K3[n]", 2), parse_type("OG6"), parse_type("OG10")]
    runs = 0
    while runs < 20:
        rank = rng.randint(2, 3)
        diag = [2 * rng.randint(1, 3)] + [-2 * rng.randint(1, 3) for _ in range(rank - 1)]
        lat = Lattice(tuple(tuple(diag[i] if i == j else 0 for j in range(rank))
                            for i in range(rank)))
        t = rng.choice(types)
        b = rng.randint(2, 6)
        ample = (1,) + (0,) * (rank - 1)
        expected = box_oracle(lat, t, b)
        got = enumerate_exceptional(lat, t, ample, EnumerationBound(max_ample_pairing=b))
        assert set(got) == set(expected)
        for v in got:
            assert is_numerically_exceptional(lat, t, v, ample)
            assert 0 < pairing(lat, v, ample) <= b
        runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"enumeration suite took {elapsed:.2f}s"


def test_criterion_08(tmp_path, capsys):
    """Dichotomy verdicts: the rank-3 worked example is polyhedral with
    enough walls, exceptional-free lattices are circular, and rendered
    reports are byte-identical across three runs."""
    res = analyze(Lattice(RANK3_GRAM), K3, (1, 0, 0), EnumerationBound(max_ample_pairing=4))
    assert res.verdict == "PolyhedralCandidate"
    assert len(res.chamber_walls) >= 3
    og10 = analyze(Lattice(((4, 0), (0, -4))), parse_type("OG10"), (1, 0))
    assert og10.verdict == "CircularUpToBound" and og10.exceptional_found == ()
    k3_free = analyze(Lattice(((4, 0, 0), (0, -4, 0), (0, 0, -4))), K3, (1, 0, 0))
    assert k3_free.verdict == "CircularUpToBound" and k3_free.exceptional_found == ()
    docs = {
        "poly.json": {"gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]], "type": "K3",
                      "ample": [1, 0, 0], "bound": {"max_ample_pairing": 4}},
        "circ2.json": {"gram": [[4, 0], [0, -4]], "type": "OG10", "ample": [1, 0]},
        "circ3.json": {"gram": [[4, 0, 0], [0, -4, 0], [0, 0, -4]], "type": "K3",
                       "ample": [1, 0, 0]},
    }
    for name, doc in docs.items():
        src = tmp_path / name
        src.write_text(json.dumps(doc))
        renders = set()
        for run in range(3):
            out = tmp_path / f"{name}.{run}.out"
            assert main(["analyze", "--input", str(src), "--output", str(out)]) == 0
            renders.add(out.read_bytes())
        assert len(renders) == 1
        report = json.loads(next(iter(renders)))
        SCHEMA.validate(report)
        expected = "PolyhedralCandidate" if name == "poly.json" else "CircularUpToBound"
        assert report["verdict"] == expected
    capsys.readouterr()


def test_criterion_09():
    """Rank-2 boundary rays: two rational worked examples, one
    irrational with exact surd data, and a synthetic mixed case that
    must take the contract-violation path."""
    og10 = analyze(Lattice(((4, 0), (0, -4))), parse_type("OG10"), (1, 0)).rank2
    assert og10.both_rational
    assert og10.ray1.vector == (1, -1) and og10.ray2.vector == (1, 1)
    dense = analyze(Lattice(((2, 1), (1, -2))), K3, (1, 0)).rank2
    assert dense.both_rational
    assert dense.ray1.vector == (1, -1) and dense.ray2.vector == (0, 1)
    irr = analyze(Lattice(((2, 0), (0, -6))), K3, (1, 0)).rank2
    assert not irr.both_rational
    for ray in (irr.ray1, irr.ray2):
        assert not ray.rational
        assert ray.delta == 12 and ray.den == 2 and ray.num_const == 0
        # exact surd check: the direction (x, 1) satisfies the quadric
        # 2x^2 - 6 = 0, i.e. x = sqrt(12)/2
        assert ray.sign in (1, -1) and ray.orientation in (1, -1)
    assert irr.ray1.display() == "-((0 - sqrt(12))/2, 1)"
    assert irr.ray2.display() == "((0 + sqrt(12))/2, 1)"
    with pytest.raises(MixedRationalityError):
        analyze(Lattice(((2, 3), (3, -2))), K3, (1, 1), EnumerationBound(max_ample_pairing=1))


def test_criterion_10(tmp_path, capsys):
    """Every report kind validates against the published schema, and the
    SVG section plot's element counts agree with the analysis it draws."""
    inputs = {
        "analyze": {"gram": [[2, 1], [1, -2]], "type": "K3", "ample": [1, 0]},
        "enumerate": {"gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]], "type": "K3",
                      "ample": [1, 0, 0], "bound": {"max_ample_pairing": 4}},
        "reduce": {"gram": [[2, 1], [1, -2]], "type": "K3", "ample": [1, 0],
                   "vector": [2, 3]},
        "alpha": {"gram": [[2, 1], [1, -2]], "type": "K3[n]", "n": 2,
                  "D": [1, 0], "E": [0, 1]},
        "pell": {"n": 5, "modulus": 4, "residue": 1},
        "rank2": {"gram": [[2, 0], [0, -6]], "type": "K3", "ample": [1, 0]},
    }
    for sub, doc in inputs.items():
        src = tmp_path / f"{sub}.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / f"{sub}.out.json"
        assert main([sub, "--input", str(src), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        SCHEMA.validate(report)
        assert report["subcommand"] == sub
    # plot counts must match the analysis of the same input
    doc = inputs["enumerate"]
    res = analyze(
        Lattice(tuple(tuple(r) for r in doc["gram"])), K3, (1, 0, 0),
        EnumerationBound(max_ample_pairing=4),
    )
    src = tmp_path / "plot.json"
    src.write_text(json.dumps(doc))
    svg_path = tmp_path / "plot.svg"
    assert main(["plot-section", "--input", str(src), "--output", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("<ellipse") == 1
    assert svg.count("<line") == len(res.chamber_walls)
    assert svg.count("<circle") == len(res.chamber_walls)
    capsys.readouterr()
