"""Deterministic SVG rendering of rank-3 cone sections."""
import hashlib
import re

import pytest

from ihscone.catalog import parse_type
from ihscone.engine import EnumerationBound, analyze
from ihscone.errors import PreconditionError
from ihscone.svg import render_section

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
