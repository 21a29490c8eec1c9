"""Exactness checks on CLI reports, recomputed with the benchmark's own
integer code (``intmath``) rather than with ``ihscone``.

``check(doc, text)`` raises ``CheckError`` when the report ``text`` that the
CLI wrote for ``doc`` is wrong. The checks are:

* every class has a profile norm and divisibility, is primitive, and pairs
  with the ample class into (0, B]; class lists are sorted and duplicate-free
  and agree with their counts;
* chamber walls are found classes, and polyhedral verdicts passed the
  duality round trip;
* reduction words are made of the roots, lead back to the input vector, and
  end in the chamber;
* Pell solutions satisfy x^2 - N y^2 = 1 and the requested residue;
* alpha classes satisfy the norm identity of their branch;
* rank-2 boundary rays are consistent with the Gram matrix;
* section plots are well-formed SVG with one ray marker per wall chord.
"""
from __future__ import annotations

import json
import xml.etree.ElementTree as ET

from intmath import divisibility, is_primitive, is_square, norm, pairing


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def profiles(tag, n):
    """(square, divisibility) of numerically exceptional classes per type."""
    if tag == "K3":
        return ((-2, 1),)
    if tag == "OG10":
        return ((-2, 1), (-6, 3))
    if tag == "OG6":
        return ((-2, 2), (-4, 2))
    m = n - 1 if tag == "K3[n]" else n + 1
    return ((-2 * m, m), (-2 * m, 2 * m))


def _ints(values):
    return tuple(int(v) for v in values)


def _check_classes(body, classes, where):
    gram, ample = body["gram"], body["ample"]
    bound = body["bound"]["max_ample_pairing"]
    allowed = profiles(body["type"], body.get("n"))
    _require(list(classes) == sorted(set(classes)), f"{where}: classes not sorted and distinct")
    for v in classes:
        q, div = norm(gram, v), divisibility(gram, v)
        _require(any(q == s and div % t == 0 for s, t in allowed),
                 f"{where}: {v} has norm {q} and divisibility {div}, matching no profile")
        _require(is_primitive(v), f"{where}: {v} is not primitive")
        p = pairing(gram, v, ample)
        _require(0 < p <= bound, f"{where}: {v} pairs to {p} with the ample class, outside (0, {bound}]")


def _check_analyze(body, rep):
    classes = [_ints(v) for v in rep["exceptional_classes"]]
    _check_classes(body, classes, "exceptional_classes")
    _require(int(rep["exceptional_count"]) == len(classes), "exceptional_count disagrees with the list")
    walls = [_ints(v) for v in rep["chamber_walls"]]
    _require(set(walls) <= set(classes), "a chamber wall is not a found class")
    _require([_ints(v) for v in rep["extremal_rays"]] == walls, "extremal rays differ from the walls")
    if classes:
        _require(rep["verdict"] == "PolyhedralCandidate", f"verdict {rep['verdict']} with classes found")
        _require(rep["duality_checked"] is True, "polyhedral verdict without a passing duality check")
    else:
        _require(rep["verdict"] == "CircularUpToBound", f"verdict {rep['verdict']} without classes")


def _check_enumerate(body, rep):
    classes = [_ints(v) for v in rep["classes"]]
    _check_classes(body, classes, "classes")
    _require(int(rep["count"]) == len(classes), "count disagrees with the class list")


def _reflect(gram, root, v):
    num, q = 2 * pairing(gram, root, v), norm(gram, root)
    _require(num % q == 0, f"reflection in {root} is not integral on {v}")
    c = num // q
    return tuple(a - c * r for a, r in zip(v, root))


def _check_reduce(body, rep):
    gram = body["gram"]
    roots = [_ints(v) for v in rep["roots_used"]]
    _check_classes(body, roots, "roots_used")
    rootset = set(roots)
    rep_vec = _ints(rep["representative"])
    word = [_ints(v) for v in rep["word"]]
    _require(int(rep["steps"]) == len(word), "steps disagrees with the word")
    _require(all(r in rootset for r in word), "the word uses a vector that is not a root")
    _require(all(pairing(gram, r, rep_vec) >= 0 for r in roots), "representative is outside the chamber")
    v = rep_vec
    for root in reversed(word):
        v = _reflect(gram, root, v)
    _require(v == tuple(body["vector"]), "the word does not lead back to the input vector")


def _pell_pair(sol, n, what):
    x, y = int(sol["x"]), int(sol["y"])
    _require(x > 0 and y > 0 and x * x - n * y * y == 1, f"{what} ({x}, {y}) does not solve x^2 - {n} y^2 = 1")
    return x, y


def _check_pell(body, rep):
    n = body["n"]
    x1, y1 = _pell_pair(rep["fundamental"], n, "fundamental solution")
    x2, y2 = _pell_pair(rep["second"], n, "second solution")
    _require((x2, y2) == (x1 * x1 + n * y1 * y1, 2 * x1 * y1), "second solution is not the square of the first")
    _require(rep["second_identity_holds"] is True, "second_identity_holds is false")
    if "modulus" in body:
        x, _ = _pell_pair(rep["residue_solution"], n, "residue solution")
        m = body["modulus"]
        _require(x % m == body["residue"] % m, f"residue solution x = {x} is not {body['residue']} mod {m}")
    else:
        _require(rep["residue_solution"] is None, "residue solution without a residue query")


def _check_alpha(body, rep):
    gram, D, E = body["gram"], body["D"], body["E"]
    d, t = norm(gram, D), divisibility(gram, E)
    b, e = pairing(gram, E, D) // t, norm(gram, E) // t
    N = t * t * b * b - t * d * e
    ctx = {k: int(v) for k, v in rep["context"].items()}
    _require(ctx == {"d": d, "t": t, "b": b, "e": e, "N": N}, f"context {ctx} is wrong")
    alpha = _ints(rep["alpha"])
    q = norm(gram, alpha)
    _require(int(rep["norm_alpha"]) == q, "norm_alpha disagrees with alpha")
    branch = rep["branch"]
    if branch == "case_a":
        _require(e == 0, "case_a with a non-isotropic E")
        expected = tuple(2 * b * t * x - d * y for x, y in zip(D, E))
        _require(alpha == expected and q == 0, "case_a alpha is not 2btD - dE")
    elif branch == "case_b_square_N":
        _require(e < 0 and is_square(N) and q == 0, "square-N alpha is not isotropic")
    else:
        _require(branch == "case_b_pell" and e < 0, f"unexpected branch {branch}")
        sol = rep["pell_solution"]
        _require(int(sol["n"]) == N, "Pell solution is for the wrong N")
        x, y = _pell_pair(sol, N, "Pell solution")
        expected = tuple(-t * e * y * u - (x - t * b * y) * w for u, w in zip(D, E))
        _require(alpha == expected, "Pell alpha is not -te*y*D - (x - tby)*E")
        _require(q == t * e, f"norm identity fails: norm(alpha) = {q}, t*e = {t * e}")


def _check_ray(gram, ample, ray):
    if ray["rational"]:
        v = _ints(ray["vector"])
        _require(is_primitive(v) and norm(gram, v) <= 0, f"rational ray {v} is not primitive of norm <= 0")
        _require(pairing(gram, v, ample) > 0, f"rational ray {v} is not on the ample side")
    else:
        (a, h), (_, c) = gram
        delta = int(ray["delta"])
        _require(delta == h * h - a * c and not is_square(delta), "irrational ray has the wrong discriminant")
        _require(int(ray["den"]) == abs(a) and int(ray["num_const"]) == (-h if a > 0 else h),
                 "irrational ray is not a root of the Gram form")


def _check_rank2(body, rep):
    gram, ample = body["gram"], body["ample"]
    for key in ("ray1", "ray2"):
        _check_ray(gram, ample, rep[key])
    both = rep["ray1"]["rational"] and rep["ray2"]["rational"]
    _require(rep["both_rational"] is both and rep["bir_finite"] is both, "rationality flags disagree with the rays")


def _check_svg(text):
    _require(text.endswith("</svg>\n"), "section plot is not a complete SVG document")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"section plot is not well-formed: {exc}") from exc
    tags = [el.tag.rsplit("}", 1)[-1] for el in root]
    _require(tags.count("ellipse") == 1, "section plot must draw the positive cone once")
    _require(tags.count("line") == tags.count("circle"), "section plot has a wall chord without its ray")


_REPORT_CHECKS = {
    "analyze": _check_analyze,
    "enumerate": _check_enumerate,
    "reduce": _check_reduce,
    "pell": _check_pell,
    "alpha": _check_alpha,
    "rank2": _check_rank2,
}


def check(doc, text: str) -> None:
    """Raise CheckError unless ``text`` is a correct report for ``doc``."""
    if doc.sub == "plot-section":
        _check_svg(text)
        return
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from exc
    _require(rep.get("subcommand") == doc.sub, f"report is for {rep.get('subcommand')!r}, not {doc.sub!r}")
    try:
        _REPORT_CHECKS[doc.sub](doc.body, rep)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed {doc.sub} report: {exc!r}") from exc
