"""File-driven front end.

One JSON document in, one deterministic JSON report (or SVG) out. All
integers in reports are decimal strings so consumers never lose precision;
inputs accept plain JSON integers or the same string form.

One writer, `_write`, makes the compact report text, keys sorted. A list
of equal-length integer rows, which every class, wall and root list is,
takes one `%` call on a repeated `["%d",...]` row template; a list of
integers takes one join. `--format pretty` re-indents the compact text
with json.dumps, so both formats come from the one writer.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from collections import namedtuple
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Optional, Sequence

from .alphas import (
    AlphaResult,
    alpha_case_a,
    alpha_case_b,
    alpha_effective,
    build_context,
)
from .catalog import expected_disc_group, matches_profile, parse_type
from .engine import (
    ConeAnalysis,
    EnumerationBound,
    Rank2Report,
    RayDescriptor,
    analyze,
    classify_rank2,
    enumerate_exceptional,
    finiteness_report,
    mds_classify,
)
from .errors import BoundExceededError, IHSConeError, InputFormatError, PreconditionError
from .lattice import Lattice, Vec, discriminant_group, norm, pairing
from .pell import (
    INDEX_CAP,
    fundamental_solution,
    is_perfect_square,
    second_solution,
    solution_with_residue,
)
from .svg import render_section, section_frame
from .weyl import weyl_reduce

SCHEMA_VERSION = "1"

_INT_RE = re.compile(r"-?[0-9]+")


def _digit_limit_message(what: str) -> str:
    return (
        f"{what} has more than the interpreter's limit of "
        f"{sys.get_int_max_str_digits()} decimal digits; set "
        "PYTHONINTMAXSTRDIGITS to raise the limit (0 removes it)"
    )


def _load_json(text: str) -> Any:
    """json.loads, with its errors as InputFormatError.

    An integer literal over the interpreter's int-from-str digit limit
    makes json.loads raise a plain ValueError, and arrays or objects
    nested deeper than the recursion limit a RecursionError.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(
            "JSON arrays or objects nested deeper than the interpreter's recursion limit"
        ) from exc
    except ValueError as exc:
        raise InputFormatError(_digit_limit_message("an integer literal")) from exc


def _read_document(text: str, allowed: set[str], required: tuple[str, ...]) -> dict:
    """The JSON object of an input document, with no unknown field and
    the required fields present; they are checked in the order given."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise InputFormatError("input document must be a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise InputFormatError(f"unknown input fields: {', '.join(unknown)}")
    for name in required:
        if name not in doc:
            raise InputFormatError(f"missing required field '{name}'")
    return doc


def _label(doc: dict) -> Optional[str]:
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InputFormatError("label: expected a string")
    return label


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool):
        raise InputFormatError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and _INT_RE.fullmatch(value):
        try:
            return int(value)
        except ValueError as exc:
            raise InputFormatError(
                f"{where}: " + _digit_limit_message("the decimal string")
            ) from exc
    raise InputFormatError(f"{where}: expected an integer or decimal string, got {value!r}")


def _as_vector(value: Any, where: str, length: Optional[int] = None) -> Vec:
    if not isinstance(value, list) or not value:
        raise InputFormatError(f"{where}: expected a nonempty list of integers")
    vec = tuple(_as_int(x, f"{where}[{i}]") for i, x in enumerate(value))
    if length is not None and len(vec) != length:
        raise InputFormatError(f"{where}: expected length {length}, got {len(vec)}")
    return vec


InputSpec = namedtuple(
    "InputSpec",
    "lattice dtype ample bound label vector d_class e_class",
    defaults=(None, None, None),
)

_LATTICE_FIELDS = {"gram", "type", "n", "ample", "bound", "label", "vector", "D", "E"}
_BOUND_FIELDS = set(EnumerationBound._fields)


def parse_input(text: str) -> InputSpec:
    """Validate a lattice analysis document."""
    doc = _read_document(text, _LATTICE_FIELDS, ("gram", "type"))
    raw = doc["gram"]
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise InputFormatError("gram: expected a list of integer rows")
    n_rank = len(raw)
    rows = []
    for i, row in enumerate(raw):
        if len(row) != n_rank:
            raise InputFormatError(f"gram: row {i} has length {len(row)}, expected {n_rank}")
        if set(map(type, row)) == {int}:
            rows.append(tuple(row))
        else:
            rows.append(tuple(_as_int(x, f"gram[{i}][{j}]") for j, x in enumerate(row)))

    tag = doc["type"]
    if not isinstance(tag, str):
        raise InputFormatError("type: expected a tag string")
    n_param = _as_int(doc["n"], "n") if doc.get("n") is not None else None
    dtype = parse_type(tag, n_param)
    label = _label(doc)

    bound = EnumerationBound()
    if "bound" in doc:
        braw = doc["bound"]
        if not isinstance(braw, dict):
            raise InputFormatError("bound: expected an object")
        bad = sorted(set(braw) - _BOUND_FIELDS)
        if bad:
            raise InputFormatError(f"bound: unknown fields: {', '.join(bad)}")
        overrides = {k: _as_int(v, f"bound.{k}") for k, v in braw.items()}
        try:
            bound = EnumerationBound(**overrides)
        except PreconditionError as exc:
            raise InputFormatError(f"bound: {exc}") from exc

    ample, vector, d_class, e_class = (
        _as_vector(doc[key], key, n_rank) if doc.get(key) is not None else None
        for key in ("ample", "vector", "D", "E")
    )
    return InputSpec(
        lattice=Lattice(tuple(rows)),
        dtype=dtype,
        ample=ample,
        bound=bound,
        label=label,
        vector=vector,
        d_class=d_class,
        e_class=e_class,
    )


def _echo(spec: InputSpec) -> dict:
    doc: dict[str, Any] = {
        "gram": [list(r) for r in spec.lattice.gram],
        "type": spec.dtype.kind.value,
        "n": spec.dtype.n,
        "ample": list(spec.ample) if spec.ample is not None else None,
        "label": spec.label,
        "bound": spec.bound._asdict(),
    }
    for key, vec in (("vector", spec.vector), ("D", spec.d_class), ("E", spec.e_class)):
        if vec is not None:
            doc[key] = list(vec)
    return doc


def _header(spec: InputSpec, subcommand: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "label": spec.label,
        "input": _echo(spec),
    }


def _require_ample(spec: InputSpec) -> Vec:
    if spec.ample is None:
        raise InputFormatError("missing required field 'ample'")
    return spec.ample


def _ray_json(desc: RayDescriptor) -> dict:
    doc = {k: v for k, v in desc._asdict().items() if v is not None}
    return {**doc, "display": desc.display()}


def _rank2_json(report: Optional[Rank2Report]) -> Optional[dict]:
    if report is None:
        return None
    return {
        "ray1": _ray_json(report.ray1),
        "ray2": _ray_json(report.ray2),
        "both_rational": report.both_rational,
        "bir_finite": report.both_rational,
    }


def _disc_json(spec: InputSpec) -> dict:
    group = discriminant_group(spec.lattice)
    expected = expected_disc_group(spec.dtype)
    computed = list(group.invariant_factors)
    return {
        "invariant_factors": computed,
        "order": group.order,
        "expected_invariant_factors": list(expected),
        "disc_group_mismatch": computed != list(expected),
    }


def _analysis_json(spec: InputSpec, analysis: ConeAnalysis) -> dict:
    walls = [list(v) for v in analysis.chamber_walls]
    finiteness = finiteness_report(analysis)
    eff = finiteness.eff_rational_polyhedral_up_to_bound
    return {
        **_header(spec, "analyze"),
        # analysis raised SignatureError on any other signature
        "signature": [1, spec.lattice.rank - 1],
        "disc_group": _disc_json(spec),
        "exceptional_classes": [list(v) for v in analysis.exceptional_found],
        "exceptional_count": len(analysis.exceptional_found),
        "chamber_walls": walls,
        "verdict": analysis.verdict,
        "extremal_rays": walls,
        "mov_candidate": {"wall_inequalities": walls, "includes_positive_cone": True},
        # v1 copies, which v2 drops: extremal_rays and wall_inequalities
        # repeat chamber_walls (engine.analyze proves it), bir_finite and
        # quotient_finite repeat the eff bit, rank2.bir_finite repeats
        # both_rational, and this key, includes_positive_cone and
        # finitely_many_exceptional_up_to_bound are constant
        "duality_checked": True,
        "rank2": _rank2_json(analysis.rank2),
        "finiteness": {
            **finiteness._asdict(),
            "bir_finite": eff,
            "quotient_finite": eff,
            "finitely_many_exceptional_up_to_bound": True,
        },
        "mds": mds_classify(analysis)._asdict(),
        "notes": list(analysis.notes),
    }


def run_analyze(spec: InputSpec) -> dict:
    analysis = analyze(spec.lattice, spec.dtype, _require_ample(spec), spec.bound)
    return _analysis_json(spec, analysis)


def run_enumerate(spec: InputSpec) -> dict:
    classes = enumerate_exceptional(spec.lattice, spec.dtype, _require_ample(spec), spec.bound)
    return {
        **_header(spec, "enumerate"),
        "classes": [list(v) for v in classes],
        "count": len(classes),
        "bound": spec.bound.max_ample_pairing,
    }


def run_reduce(spec: InputSpec, max_steps: int) -> dict:
    """Reduce the vector into the chamber of the ample class a.

    Reflections keep each sheet of the positive cone, so a vector v with
    pairing(v, a) < 0 can never reach the chamber; it is refused.  A v
    off the closed positive cone is left to weyl_reduce's own check.
    """
    if spec.vector is None:
        raise InputFormatError("missing required field 'vector'")
    ample = _require_ample(spec)
    roots = enumerate_exceptional(spec.lattice, spec.dtype, ample, spec.bound)
    if norm(spec.lattice, spec.vector) >= 0:
        side = pairing(spec.lattice, spec.vector, ample)
        if side < 0:
            raise PreconditionError(
                "vector to reduce must lie on the ample class's sheet of the positive "
                f"cone, pairing(vector, ample) is {side}"
            )
    reduction = weyl_reduce(spec.lattice, roots, spec.vector, max_steps=max_steps)
    return {
        **_header(spec, "reduce"),
        "roots_used": [list(v) for v in roots],
        "representative": list(reduction.representative),
        "word": [list(v) for v in reduction.word],
        "steps": reduction.steps,
    }


def _alpha_result_json(spec: InputSpec, result: AlphaResult, ctx) -> dict:
    sol = result.pell_solution_used
    return {
        **_header(spec, "alpha"),
        "context": {"d": ctx.d, "t": ctx.t, "b": ctx.b, "e": ctx.e, "N": ctx.N},
        "branch": result.branch,
        "alpha": list(result.alpha),
        "norm_alpha": norm(spec.lattice, result.alpha),
        "pell_solution": {"x": sol.x, "y": sol.y, "n": sol.n_param} if sol else None,
        "certified_primitive": result.certified_primitive,
        "certified_effective": result.certified_effective,
        "div_alpha": result.div_alpha,
    }


def run_alpha(spec: InputSpec) -> dict:
    """Dispatch on the shape of (D, E): isotropic E takes the direct branch,
    profile-matching E with nonsquare N the effectivity pipeline, anything
    else `alpha_case_b`, which handles square N itself. norm(E) is t*e,
    since the divisibility t divides it."""
    if spec.d_class is None or spec.e_class is None:
        raise InputFormatError("alpha needs both 'D' and 'E' fields")
    ctx = build_context(spec.lattice, spec.d_class, spec.e_class)
    if ctx.t * ctx.e == 0:
        result = alpha_case_a(ctx)
    elif is_perfect_square(ctx.N) is None and matches_profile(ctx.L, spec.dtype, ctx.E):
        result = alpha_effective(ctx, spec.dtype)
    else:
        result = alpha_case_b(ctx)
    return _alpha_result_json(spec, result, ctx)


_PELL_FIELDS = {"n", "modulus", "residue", "index_cap", "label"}


def run_pell(text: str) -> dict:
    doc = _read_document(text, _PELL_FIELDS, ("n",))
    n = _as_int(doc["n"], "n")
    label = _label(doc)
    has_mod = doc.get("modulus") is not None
    has_res = doc.get("residue") is not None
    if has_mod != has_res:
        raise InputFormatError("'modulus' and 'residue' must be given together")
    cap = INDEX_CAP
    if doc.get("index_cap") is not None:
        if not has_mod:
            raise InputFormatError("'index_cap' needs 'modulus' and 'residue'")
        cap = _as_int(doc["index_cap"], "index_cap")
        if cap < 1:
            raise InputFormatError(f"index_cap must be a positive integer, got {cap}")
    fund = fundamental_solution(n)
    second = second_solution(fund)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "pell",
        "label": label,
        "input": {"n": n},
        "fundamental": {"x": fund.x, "y": fund.y},
        "second": {"x": second.x, "y": second.y},
        # constant: second_solution raises unless x2 - 1 = 2*N*y1^2 holds
        "second_identity_holds": True,
        "residue_solution": None,
    }
    if has_mod:
        modulus = _as_int(doc["modulus"], "modulus")
        residue = _as_int(doc["residue"], "residue")
        report["input"] = {"n": n, "modulus": modulus, "residue": residue, "index_cap": cap}
        sol = solution_with_residue(fund, modulus, residue, index_cap=cap)
        report["residue_solution"] = {"x": sol.x, "y": sol.y}
    return report


def run_rank2(spec: InputSpec) -> dict:
    report = classify_rank2(spec.lattice, spec.dtype, _require_ample(spec), spec.bound)
    return {**_header(spec, "rank2"), **_rank2_json(report)}


def run_plot_section(spec: InputSpec) -> str:
    ample = _require_ample(spec)
    section_frame(spec.lattice, spec.dtype, ample)  # a rank other than 3 fails before analyze
    return render_section(analyze(spec.lattice, spec.dtype, ample, spec.bound))


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_template(rows: int, width: int) -> str:
    """The compact text of `rows` rows of `width` integers, a %d for each."""
    row = '["' + '","'.join(["%d"] * width) + '"]'
    return "[" + ",".join([row] * rows) + "]"


def _write(obj: Any, out: list[str]) -> None:
    """Append the compact JSON text of obj to out: keys sorted, every int a
    quoted decimal string, bool and None JSON literals, str quoted as
    json.dumps quotes it with ensure_ascii.

    A list or tuple of exact ints is written with one join, one of
    equal-length rows of exact ints with one `%` on `_rows_template`; the
    type tests are exact, so a bool never takes either. An integer over the
    interpreter's digit limit makes str and %d raise ValueError; the list
    is then written element by element, which raises BoundExceededError.
    Dict values are written in insertion order and their keys then sorted,
    so the integer named is the first in insertion order, whichever key
    sorts first. Any other type, floats included, raises TypeError as
    json.dumps does.
    """
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        try:
            if kinds == {int}:
                out.append('["%s"]' % '","'.join(map(str, obj)))
                return
            if kinds and kinds <= {list, tuple} and len(set(map(len, obj))) == 1:
                flat = tuple(chain.from_iterable(obj))
                if set(map(type, flat)) == {int}:
                    out.append(_rows_template(len(obj), len(obj[0])) % flat)
                    return
        except ValueError:
            pass
        out.append("[")
        for i, x in enumerate(obj):
            if i:
                out.append(",")
            _write(x, out)
        out.append("]")
    elif isinstance(obj, dict):
        texts = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            texts[key] = text = []
            _write(value, text)
        out.append("{")
        for i, key in enumerate(sorted(texts)):
            out.append(("," if i else "") + encode_basestring_ascii(key) + ":")
            out.extend(texts[key])
        out.append("}")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        try:
            out.append('"%s"' % obj)
        except ValueError as exc:
            raise BoundExceededError(
                _digit_limit_message(f"a {obj.bit_length()}-bit integer in the report")
            ) from exc
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_json(report: dict, fmt: str) -> str:
    out: list[str] = []
    _write(report, out)
    text = "".join(out)
    if fmt == "pretty":
        return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    return text + "\n"


# one flag of a subcommand: the keywords of its argparse store action
_Option = namedtuple(
    "_Option", "dest type choices default required help", defaults=(None, None, None, False, None)
)


_COMMON = {
    "--input": _Option("input", required=True, help="path to the JSON input document"),
    "--output": _Option("output", help="write the report here instead of stdout"),
    "--format": _Option("format", choices=("json", "pretty"), default="json"),
}
_BOUND = {"--bound": _Option("bound", type=int, help="override max_ample_pairing")}

# the flags of each subcommand, in help order: the one definition of the
# command line, from which both _parser and _parse_argv work
_OPTIONS: dict[str, dict[str, _Option]] = {
    "analyze": {**_COMMON, **_BOUND},
    "enumerate": {**_COMMON, **_BOUND},
    "reduce": {**_COMMON, **_BOUND, "--max-steps": _Option("max_steps", type=int, default=10000)},
    "alpha": _COMMON,
    "pell": _COMMON,
    "plot-section": {**_COMMON, **_BOUND},
    "rank2": {**_COMMON, **_BOUND},
}


# built on first need, once per process (the common command line never
# needs it); parse_args returns a fresh Namespace per call
@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ihscone",
        description="Exact cone analysis for hyperbolic Picard-type lattices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in _OPTIONS.items():
        sp = sub.add_parser(name)
        for flag, option in options.items():
            sp.add_argument(flag, **option._asdict())
    return parser


def _parse_argv(argv: Sequence[str]) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, with argparse skipped on the common form.

    The common form is SUBCOMMAND (FLAG VALUE)*: every FLAG an exact flag
    of the subcommand, every VALUE of its flag's type and choices and not
    starting with '-' (argparse reads `-x` as a flag but `-3` as a value),
    and every required flag given; its namespace is built from _OPTIONS.
    Any other command line (help, `--flag=value`, abbreviations, `--`) and
    every error go to argparse, the one source of usage, help and errors;
    only they build the parser.
    """
    options = _OPTIONS.get(argv[0]) if len(argv) % 2 else None
    if options is not None:
        args = argparse.Namespace()
        values = vars(args)
        values["subcommand"] = argv[0]
        required = []
        for flag, option in options.items():
            values[option.dest] = option.default
            if option.required:
                required.append(flag)
        for i in range(1, len(argv), 2):
            flag, value = argv[i], argv[i + 1]
            option = options.get(flag)
            if option is None or value.startswith("-"):
                break
            if option.type is not None:
                try:
                    value = option.type(value)
                except ValueError:
                    break
            if option.choices is not None and value not in option.choices:
                break
            values[option.dest] = value
            if flag in required:
                required.remove(flag)
        else:
            if not required:
                return args
    return _parser().parse_args(argv)


def _report_text(args: argparse.Namespace, text: str) -> str:
    """The rendered report (or SVG) of one subcommand on one input text."""
    if args.subcommand == "pell":
        return _render_json(run_pell(text), args.format)
    spec = parse_input(text)
    if getattr(args, "bound", None) is not None:
        try:
            # through the constructor, which checks the value; _replace would not
            bound = EnumerationBound(**{**spec.bound._asdict(), "max_ample_pairing": args.bound})
            spec = spec._replace(bound=bound)
        except PreconditionError as exc:
            raise InputFormatError(f"--bound: {exc}") from exc
    if args.subcommand == "plot-section":
        return run_plot_section(spec)
    if args.subcommand == "analyze":
        report = run_analyze(spec)
    elif args.subcommand == "enumerate":
        report = run_enumerate(spec)
    elif args.subcommand == "reduce":
        if args.max_steps < 0:
            raise InputFormatError(f"--max-steps must be nonnegative, got {args.max_steps}")
        report = run_reduce(spec, args.max_steps)
    elif args.subcommand == "alpha":
        report = run_alpha(spec)
    else:
        report = run_rank2(spec)
    return _render_json(report, args.format)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        # one unbuffered read decoded as strict UTF-8; text mode's newline
        # translation is not needed, since JSON allows a raw CR only as
        # whitespace between tokens, where it loads to the same value
        with open(args.input, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return 2
    try:
        out = _report_text(args, text)
    except IHSConeError as exc:
        doc = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
        return exc.exit_code
    try:
        _emit(out, args.output)
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
