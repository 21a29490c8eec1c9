"""Deterministic SVG rendering of rank-3 cone sections."""
import hashlib
import random
import re
import xml.etree.ElementTree as ET
from decimal import Decimal, localcontext
from math import isqrt

import pytest

from ihscone.catalog import parse_type
from ihscone.engine import ConeAnalysis, EnumerationBound, analyze
from ihscone.errors import IHSConeError, PreconditionError, SignatureError
from ihscone.svg import _ellipse_geometry, _ray_point, _wall_chord, render_section
from tests.helpers import (
    congruate,
    fraction_ray_point,
    fraction_wall_chord,
    rand_sheared_section,
    rand_unimodular,
)

K3 = parse_type("K3")
RANK3 = ((2, 0, 0), (0, -2, 0), (0, 0, -2))
CIRCULAR3 = ((4, 0, 0), (0, -4, 0), (0, 0, -4))


def _analysis(gram, bound=4):
    from ihscone.lattice import Lattice

    return analyze(Lattice(gram), K3, (1, 0, 0), EnumerationBound(max_ample_pairing=bound))


def test_element_counts_follow_analysis():
    res = _analysis(RANK3)
    svg = render_section(res)
    assert svg.count("<ellipse") == 1
    assert svg.count("<line") == len(res.chamber_walls) == 4
    assert svg.count("<circle") == len(res.chamber_walls) == 4
    assert svg.startswith(
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="-1.300000 -1.300000 2.600000 2.600000">'
    )
    assert svg.endswith("</svg>\n")


def test_circular_section_has_no_chords():
    svg = render_section(_analysis(CIRCULAR3))
    assert svg.count("<ellipse") == 1
    assert svg.count("<line") == 0
    assert svg.count("<circle") == 0


def test_rank2_is_rejected():
    from ihscone.lattice import Lattice

    res = analyze(Lattice(((2, 1), (1, -2))), K3, (1, 0))
    with pytest.raises(PreconditionError) as exc:
        render_section(res)
    assert "section plots need rank 3, got rank 2" in str(exc.value)


@pytest.mark.parametrize("diag, ample, error, message", [
    ((2, 2, -2), (1, 0, 0), SignatureError, "expected signature (1, 2), got (2, 1)"),
    ((2, -2, -2), (0, 1, 0), PreconditionError, "ample class must have positive norm, got -2"),
])
def test_hand_built_analysis_fails_as_analyze_does(diag, ample, error, message):
    # the chart takes its frame through the entry check analyze uses, so a
    # hand-built analysis with a wrong signature or a non-positive ample
    # class gets the same input error, not a failed certified identity
    from ihscone.lattice import Lattice

    lat = Lattice(tuple(tuple(d if i == j else 0 for j in range(3)) for i, d in enumerate(diag)))
    for call in (lambda: analyze(lat, K3, ample),
                 lambda: render_section(ConeAnalysis(lat, K3, ample, EnumerationBound(), (), ()))):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_render_is_deterministic():
    res = _analysis(RANK3)
    assert render_section(res) == render_section(res)
    again = _analysis(RANK3)
    assert render_section(res) == render_section(again)


def test_number_format():
    svg = render_section(_analysis(RANK3))
    for token in re.findall(r'"([^"]*)"', svg):
        for num in re.findall(r"-?\d+\.\d+", token):
            assert re.fullmatch(r"-?\d+\.\d{6}", num)
    assert "-0.000000" not in svg
    # all geometry values are plain decimals, no exponents or NaN
    assert not re.search(r"\d[eE][-+]?\d", svg)
    assert "nan" not in svg and "inf" not in svg


def test_below_rank_walls_still_render():
    res = _analysis(((2, 0, 0), (0, -2, 0), (0, 0, -4)))
    svg = render_section(res)
    assert svg.count("<line") == 2
    assert svg.count("<circle") == 2


# (type, n, gram, ample, bound): all five deformation types, dense and
# sheared charts, the ample class on a root hyperplane (the first case),
# circular sections and fewer walls than the rank
PINNED_SECTIONS = [
    ("K3", None, ((2, 0, 0), (0, -2, 0), (0, 0, -2)), (1, 0, 0), 4),
    ("K3", None, ((2, 0, 0), (0, -2, 0), (0, 0, -2)), (3, 1, 0), 8),
    ("K3", None, ((2, 1, 0), (1, -2, 0), (0, 0, -2)), (2, 1, 1), 8),
    ("K3", None, ((2, 0, 0), (0, -2, 0), (0, 0, -4)), (1, 0, 0), 4),
    ("K3", None, ((4, 0, 0), (0, -4, 0), (0, 0, -4)), (1, 0, 0), 6),
    ("K3", None, ((6, 0, 0), (0, -2, 1), (0, 1, -4)), (1, 0, 0), 8),
    ("K3", None, ((0, 1, 0), (1, 0, 0), (0, 0, -2)), (1, 1, 0), 6),
    ("K3[n]", 3, ((2, 0, 0), (0, -2, 0), (0, 0, -4)), (2, 1, 0), 8),
    ("K3[n]", 2, ((2, 0, 0), (0, -2, 0), (0, 0, -2)), (3, 1, 1), 6),
    ("Kum[n]", 2, ((2, 0, 0), (0, -6, 0), (0, 0, -6)), (3, 1, 0), 10),
    ("Kum[n]", 2, ((6, 0, 0), (0, -6, 3), (0, 3, -6)), (1, 0, 0), 8),
    ("OG6", None, ((2, 0, 0), (0, -2, 0), (0, 0, -4)), (3, 1, 1), 10),
    ("OG6", None, ((4, 0, 0), (0, -4, 2), (0, 2, -4)), (1, 0, 0), 8),
    ("OG10", None, ((2, 0, 0), (0, -2, 0), (0, 0, -6)), (3, 1, 1), 10),
    ("OG10", None, ((6, 3, 0), (3, -2, 0), (0, 0, -6)), (1, 0, 0), 8),
]


def test_section_bytes_pinned():
    from ihscone.lattice import Lattice

    digest = hashlib.sha256()
    walls = []
    for tag, n, gram, ample, bound in PINNED_SECTIONS:
        res = analyze(
            Lattice(gram), parse_type(tag, n), ample, EnumerationBound(max_ample_pairing=bound)
        )
        walls.append(len(res.chamber_walls))
        digest.update(render_section(res).encode())
    assert walls == [4, 3, 3, 2, 0, 6, 4, 4, 3, 2, 0, 4, 0, 4, 2]
    assert digest.hexdigest() == (
        "fabe7364b73680c6ff2f12f4df9917bcd364718f59282268c863dac97c02104e"
    )


# ------------------------------------------- integer geometry vs Fraction oracle


def _rand_positive_form(rng):
    """A positive definite symmetric 2x2 integer matrix: a sheared small
    diagonal form, one with 30-digit entries, or a nearly singular one."""
    kind = rng.randrange(3)
    if kind == 0:
        diag = ((rng.randint(1, 9), 0), (0, rng.randint(1, 9)))
        return congruate(diag, rand_unimodular(rng, 2, ops=rng.randint(0, 14)))
    if kind == 1:
        a, c = rng.randint(1, 10**30), rng.randint(1, 10**30)
        r = isqrt(a * c - 1)
        b = rng.randint(-r, r)
    else:
        # det = a*c - b^2 lies in [1, a] while b is up to 30 digits long
        a = rng.randint(1, 10 ** rng.randint(1, 6))
        b = rng.randint(-(10**30), 10**30)
        c = b * b // a + 1
    return ((a, b), (b, c))


def _rand_int(rng, small):
    return rng.randint(-(10**30), 10**30) if rng.random() < 0.2 else rng.randint(-small, small)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return str(exc)


def test_section_geometry_matches_fraction_oracle():
    rng = random.Random(15)
    crossed = 0
    for _ in range(5000):
        p = _rand_positive_form(rng)
        qa = rng.randint(1, 10**30) if rng.random() < 0.2 else rng.randint(1, 60)
        w0 = _rand_int(rng, 40)
        w1, w2 = 0, 0
        while not (w1 or w2):
            w1, w2 = _rand_int(rng, 30), _rand_int(rng, 30)
        args = (p, qa, (w0, w1, w2), w0, w1, w2)
        # exact float equality: one correctly rounded division per number
        # gives the double that float(Fraction) gives
        chord = _outcome(_wall_chord, *args)
        assert chord == _outcome(fraction_wall_chord, *args), args
        assert _outcome(_ray_point, *args) == _outcome(fraction_ray_point, *args), args
        crossed += isinstance(chord, list)
    # both sides of the crossing test are exercised
    assert 500 < crossed < 4500


def test_minor_radius_on_ill_conditioned_forms():
    # ry against the 60-digit q / lam_min; summing the minor eigenvalue in
    # floats lost all digits on such forms, or crashed
    rng = random.Random(16)
    for _ in range(2000):
        p = _rand_positive_form(rng)
        q = rng.randint(1, 60)
        _, _, ry = _ellipse_geometry(p, q)
        with localcontext() as ctx:
            ctx.prec = 60
            a, b, c = (Decimal(x) for x in (p[0][0], p[0][1], p[1][1]))
            lam_max = (a + c + ((a - c) ** 2 + 4 * b * b).sqrt()) / 2
            ref = (q * lam_max / (a * c - b * b)).sqrt()
            assert abs(Decimal(ry) - ref) <= Decimal("1e-14") * ref, p


def test_minor_radius_of_a_form_with_160_digit_entries():
    # det(p) = 4 * 10^320 is beyond the float range; it is never converted
    huge = 2 * 10**160
    theta, rx, ry = _ellipse_geometry(((huge, 0), (0, huge)), 4)
    assert (theta, rx, ry) == (0.0, 1.4142135623730951e-80, 1.4142135623730951e-80)


def test_sheared_sections_render_or_raise():
    # seed 3 includes an ill-conditioned chart on which the float minor
    # eigenvalue came out negative
    rng = random.Random(3)
    rendered = 0
    for _ in range(200):
        dtype, lattice, ample, bound = rand_sheared_section(rng)
        try:
            res = analyze(lattice, dtype, ample, EnumerationBound(max_ample_pairing=bound))
            svg = render_section(res)
        except IHSConeError:
            continue
        root = ET.fromstring(svg)
        assert len(root) == 1 + 2 * len(res.chamber_walls)
        ellipse = root[0].attrib
        assert float(ellipse["rx"]) >= 0 and float(ellipse["ry"]) >= 0
        rendered += 1
    assert rendered > 150
