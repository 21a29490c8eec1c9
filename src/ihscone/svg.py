"""Rank-3 cross-section plots.

The picture is the affine slice {x : pairing(x, ample) = norm(ample)} of the
positive cone, drawn in the chart ample + s*u1 + t*u2 where (u1, u2) is the
kernel basis of the analysis' shell frame. On that slice the cone boundary is
an ellipse, every chamber wall w cuts a chord and meets the plane in one
point, both exact functions of p = -K^T G K and the triple (pairing(ample, w),
pairing(u1, w), pairing(u2, w)). Only the drawing is rounded, at the end.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .engine import ConeAnalysis, _shell_frame
from .errors import PreconditionError
from .lattice import norm, pairing
from .polyhedra import dot

_FMT = "%.6f"


def _f(x: float) -> str:
    s = _FMT % x
    return "0.000000" if s == "-0.000000" else s


def _ellipse_geometry(p, q_ample: int):
    """Center 0 ellipse {v : v^T p v = q_ample}: rotation angle and radii."""
    a, b, c = float(p[0][0]), float(p[0][1]), float(p[1][1])
    theta = 0.5 * math.atan2(2.0 * b, a - c) if (b or a != c) else 0.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    lam1 = a * cos_t * cos_t + 2.0 * b * cos_t * sin_t + c * sin_t * sin_t
    lam2 = a * sin_t * sin_t - 2.0 * b * cos_t * sin_t + c * cos_t * cos_t
    rx = math.sqrt(q_ample / lam1)
    ry = math.sqrt(q_ample / lam2)
    return theta, rx, ry


def _wall_chord(p, qa: int, wall, w0: int, w1: int, w2: int):
    """Endpoints of {pairing(x, wall) = 0} on the boundary ellipse.

    In chart coordinates the wall is w0 + s*w1 + t*w2 = 0 with w0 > 0; the
    line always crosses the ellipse interior because the wall hyperplane of a
    negative class meets the positive cone.
    """
    # point on the line nearest the origin in the (s, t) chart, direction along it
    den = w1 * w1 + w2 * w2
    base = (Fraction(-w0 * w1, den), Fraction(-w0 * w2, den))
    direction = (Fraction(-w2), Fraction(w1))
    # quadratic A tau^2 + 2 B tau + C = 0 for base + tau*direction on the ellipse
    def form(x, y):
        return p[0][0] * x[0] * y[0] + p[0][1] * (x[0] * y[1] + x[1] * y[0]) + p[1][1] * x[1] * y[1]

    a2 = form(direction, direction)
    b1 = form(base, direction)
    c0 = form(base, base) - qa
    disc = b1 * b1 - a2 * c0
    if disc <= 0:
        raise PreconditionError(
            f"wall {wall} does not cross the positive-cone section"
        )
    root = math.sqrt(float(disc))
    taus = ((-float(b1) - root) / float(a2), (-float(b1) + root) / float(a2))
    return [
        (float(base[0]) + tau * float(direction[0]), float(base[1]) + tau * float(direction[1]))
        for tau in taus
    ]


def _ray_point(p, qa: int, ray, w0: int, w1: int, w2: int):
    """Chart coordinates (s, t) where the ray meets the section plane.

    The ray meets it at (qa/w0)*ray = ample + s*u1 + t*u2. The kernel
    vectors pair to 0 with the ample class, so pairing both sides with u1
    and u2 gives (qa/w0)*(w1, w2) = -p (s, t).
    """
    if w0 <= 0:
        raise PreconditionError(f"ray {ray} does not meet the ample section")
    lam = Fraction(qa, w0)
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    s = -lam * (p[1][1] * w1 - p[0][1] * w2) / det
    t = -lam * (p[0][0] * w2 - p[1][0] * w1) / det
    return float(s), float(t)


def render_section(analysis: ConeAnalysis) -> str:
    """Deterministic SVG for a rank-3 analysis."""
    lattice = analysis.lattice
    if lattice.rank != 3:
        raise PreconditionError(
            f"section plots need rank 3, got rank {lattice.rank}; use analyze for reports"
        )
    ample = analysis.ample
    qa = norm(lattice, ample)
    frame = _shell_frame(lattice, analysis.type, ample)
    p = frame.p_matrix
    theta, rx, ry = _ellipse_geometry(p, qa)

    # columns[i] = u_i || G u_i, so pairing(u_i, wall) is wall . columns[i][3:]
    lines = [
        (wall, pairing(lattice, ample, wall), *(dot(wall, col[3:]) for col in frame.columns))
        for wall in analysis.chamber_walls
    ]
    chords = [_wall_chord(p, qa, *line) for line in lines]
    points = [_ray_point(p, qa, *line) for line in lines]

    r_max = max(rx, ry)
    xs = [-r_max, r_max] + [pt[0] for pt in points]
    ys = [-r_max, r_max] + [pt[1] for pt in points]
    pad = 0.15 * max(max(xs) - min(xs), max(ys) - min(ys))
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad

    marker = 0.02 * max(w, h)
    stroke = 0.006 * max(w, h)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
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
