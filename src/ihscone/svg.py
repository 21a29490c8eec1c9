"""Rank-3 cross-section plots.

The picture is the affine slice {x : pairing(x, ample) = norm(ample)} of the
positive cone, drawn in the chart ample + s*u1 + t*u2 where (u1, u2) is the
kernel basis of the analysis' shell frame. On that slice the cone boundary is
an ellipse, every chamber wall w cuts a chord and meets the plane in one
point, both exact functions of p = -K^T G K and the triple (pairing(ample, w),
pairing(u1, w), pairing(u2, w)). These are computed in integers, and each
drawn number is rounded once, by one integer true division (int / int is
correctly rounded), before the float steps of the drawing. A chart with a
number beyond the float range, or too small for `_FMT` to tell its pixels
apart, is a `PreconditionError` that names the range, not a traceback or
an empty picture.
"""
from __future__ import annotations

import math

from .engine import ConeAnalysis, _analysis_frame
from .errors import PreconditionError
from .lattice import norm, pairing

_FMT = "%.6f"
_CANVAS = 640  # pixels per side
_MIN_WIDTH = _CANVAS * 1e-6  # one step of _FMT's last digit per pixel


def _f(x: float) -> str:
    s = _FMT % x
    return "0.000000" if s == "-0.000000" else s


def _out_of_range(detail: str) -> PreconditionError:
    return PreconditionError(
        f"section chart is outside the drawable range ({detail}): every number must be "
        f"a finite float and the chart at least {_MIN_WIDTH:g} wide, one {_FMT} step "
        f"per pixel of the {_CANVAS}-pixel canvas"
    )


def _ellipse_geometry(p, q_ample: int):
    """Center 0 ellipse {v : v^T p v = q_ample}: rotation angle and radii.

    The minor eigenvalue is det(p) / lam1, by one integer division (summed
    like lam1, whose terms share a sign, it cancels on an ill-conditioned p).
    """
    a, b, c = float(p[0][0]), float(p[0][1]), float(p[1][1])
    theta = 0.5 * math.atan2(2.0 * b, a - c) if (b or a != c) else 0.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    lam1 = a * cos_t * cos_t + 2.0 * b * cos_t * sin_t + c * sin_t * sin_t
    rx = math.sqrt(q_ample / lam1)
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    n, d = lam1.as_integer_ratio()
    ry = math.sqrt(q_ample * n / (det * d))
    return theta, rx, ry


def _wall_chord(p, qa: int, wall, w0: int, w1: int, w2: int):
    """Endpoints of {pairing(x, wall) = 0} on the boundary ellipse.

    In chart coordinates the wall is w0 + s*w1 + t*w2 = 0 with w0 > 0; it
    crosses the ellipse interior because the wall hyperplane of a negative
    class meets the positive cone. With u = (w1, w2), den = u.u, d = (-w2, w1)
    it is -(w0/den)*u + tau*d, on the ellipse where the integers a = d^T p d,
    b = u^T p d, c = u^T p u give a*tau^2 - 2*(w0*b/den)*tau +
    w0^2*c/den^2 - qa = 0, whose discriminant is disc / den^2.
    """
    (p00, p01), (_, p11) = p
    den = w1 * w1 + w2 * w2
    a = p00 * w2 * w2 - 2 * p01 * w1 * w2 + p11 * w1 * w1
    b = (p11 - p00) * w1 * w2 + p01 * (w1 * w1 - w2 * w2)
    c = p00 * w1 * w1 + 2 * p01 * w1 * w2 + p11 * w2 * w2
    disc = w0 * w0 * (b * b - a * c) + a * qa * den * den
    if disc <= 0:
        raise PreconditionError(f"wall {wall} does not cross the positive-cone section")
    mid = w0 * b / den
    root = math.sqrt(disc / (den * den))
    return [
        (-w0 * w1 / den - tau * w2, -w0 * w2 / den + tau * w1)
        for tau in ((mid - root) / a, (mid + root) / a)
    ]


def _ray_point(p, qa: int, ray, w0: int, w1: int, w2: int):
    """Chart coordinates (s, t) where the ray meets the section plane.

    The ray meets it at (qa/w0)*ray = ample + s*u1 + t*u2. The kernel
    vectors pair to 0 with the ample class, so pairing both sides with u1
    and u2 gives (qa/w0)*(w1, w2) = -p (s, t).
    """
    if w0 <= 0:
        raise PreconditionError(f"ray {ray} does not meet the ample section")
    (p00, p01), (p10, p11) = p
    den = w0 * (p00 * p11 - p01 * p10)
    return -qa * (p11 * w1 - p01 * w2) / den, -qa * (p00 * w2 - p10 * w1) / den


def section_frame(lattice, t, ample):
    """The chart's shell frame: `_analysis_frame`'s entry check, then rank 3.
    `cli` runs it before `analyze`, so another rank enumerates no class."""
    frame = _analysis_frame(lattice, t, ample)
    if lattice.rank != 3:
        raise PreconditionError(
            f"section plots need rank 3, got rank {lattice.rank}; use analyze for reports"
        )
    return frame


def render_section(analysis: ConeAnalysis) -> str:
    """Deterministic SVG for a rank-3 analysis."""
    lattice, ample = analysis.lattice, analysis.ample
    frame = section_frame(lattice, analysis.type, ample)
    qa = norm(lattice, ample)
    p = frame.p_matrix
    lines = [
        (wall, *(pairing(lattice, u, wall) for u in (ample, *frame.kernel)))
        for wall in analysis.chamber_walls
    ]
    try:
        theta, rx, ry = _ellipse_geometry(p, qa)
        chords = [_wall_chord(p, qa, *line) for line in lines]
        points = [_ray_point(p, qa, *line) for line in lines]
    except OverflowError:
        raise _out_of_range("an integer exceeds the float range") from None

    r_max = max(rx, ry)
    xs = [-r_max, r_max] + [pt[0] for pt in points]
    ys = [-r_max, r_max] + [pt[1] for pt in points]
    pad = 0.15 * max(max(xs) - min(xs), max(ys) - min(ys))
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad
    ends = [pt for chord in chords for pt in chord]
    drawn = [x0, y0, w, h, rx, ry] + [x for pt in ends + points for x in pt]
    if not (all(map(math.isfinite, drawn)) and max(w, h) >= _MIN_WIDTH):
        raise _out_of_range(f"width {max(w, h):.3g}")

    marker = 0.02 * max(w, h)
    stroke = 0.006 * max(w, h)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" height="{_CANVAS}" '
        f'viewBox="{_f(x0)} {_f(y0)} {_f(w)} {_f(h)}">',
        f'<ellipse cx="0.000000" cy="0.000000" rx="{_f(rx)}" ry="{_f(ry)}" '
        f'transform="rotate({_f(math.degrees(theta))})" '
        f'fill="none" stroke="#1f6f8b" stroke-width="{_f(stroke)}"/>',
    ]
    for (p1, p2) in chords:
        parts.append(
            f'<line x1="{_f(p1[0])}" y1="{_f(p1[1])}" x2="{_f(p2[0])}" y2="{_f(p2[1])}" '
            f'stroke="#9a3b3b" stroke-width="{_f(stroke)}"/>'
        )
    for (px, py) in points:
        parts.append(
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="{_f(marker)}" fill="#2d5d2a"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
