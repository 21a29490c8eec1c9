"""End-to-end CLI behavior: input validation, report shape, schema
conformance, exit codes, determinism."""
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

import ihscone
from ihscone import alphas, cli, engine, lattice, pell
from ihscone.catalog import parse_type
from ihscone.cli import (
    InputSpec, _stringify, main, parse_input, run_analyze, run_pell, run_reduce,
)
from ihscone.engine import EnumerationBound, enumerate_exceptional
from ihscone.errors import (
    BoundExceededError,
    ContractViolationError,
    IHSConeError,
    InputFormatError,
    MixedRationalityError,
    PreconditionError,
    SignatureError,
)
from ihscone.weyl import weyl_reduce
from tests.helpers import (
    near_boundary_vector,
    reference_parser,
    reference_weyl_reduce,
    signature_corpus,
)

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "report-v1.schema.json"
VALIDATOR = Draft7Validator(json.loads(SCHEMA_PATH.read_text()))

DENSE_DOC = {"gram": [[2, 1], [1, -2]], "type": "K3", "ample": [1, 0]}
RANK3_DOC = {
    "gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]],
    "type": "K3",
    "ample": [1, 0, 0],
    "bound": {"max_ample_pairing": 4},
}


def _write(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _check_schema(text: str) -> dict:
    doc = json.loads(text)
    VALIDATOR.validate(doc)
    return doc


# ------------------------------------------------------------- input parsing


def test_parse_input_accepts_decimal_strings():
    spec = parse_input(
        json.dumps({"gram": [["2", "1"], ["1", "-2"]], "type": "K3", "ample": ["1", "0"]})
    )
    assert spec.lattice.gram == ((2, 1), (1, -2))
    assert spec.ample == (1, 0)


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '"just a string"',
        json.dumps({"gram": [[2]], "type": "K3", "extra": 1}),
        json.dumps({"type": "K3"}),
        json.dumps({"gram": [[2]]}),
        json.dumps({"gram": [[2, 0]], "type": "K3"}),
        json.dumps({"gram": [[2, 1], [2, -2]], "type": "K3"}),
        json.dumps({"gram": [[2]], "type": "K3[n]"}),
        json.dumps({"gram": [[2]], "type": "Elliptic"}),
        json.dumps({"gram": [[True]], "type": "K3"}),
        json.dumps({"gram": [[2.5]], "type": "K3"}),
        json.dumps({"gram": [[2]], "type": "K3", "label": 7}),
        json.dumps({"gram": [[2]], "type": "K3", "bound": {"nope": 1}}),
        json.dumps({"gram": [[2]], "type": "K3", "bound": {"max_ample_pairing": 0}}),
        json.dumps({"gram": [[2]], "type": "K3", "bound": [4]}),
        json.dumps({"gram": [[2, 0], [0, -2]], "type": "K3", "ample": [1]}),
        json.dumps({"gram": [[2, 0], [0, -2]], "type": "K3", "ample": []}),
    ],
)
def test_parse_input_rejections(text):
    with pytest.raises(InputFormatError):
        parse_input(text)


def test_parse_input_defaults():
    spec = parse_input(json.dumps({"gram": [[2]], "type": "K3"}))
    assert spec.ample is None and spec.label is None
    assert spec.bound.max_ample_pairing == 10
    assert spec.bound.wall_test_limit == 8
    assert spec.bound.pell_index_cap == 64


# ----------------------------------------------------------------- reports


def test_analyze_end_to_end(tmp_path, capsys):
    code, out, err = _run(capsys, ["analyze", "--input", _write(tmp_path, DENSE_DOC)])
    assert code == 0 and err == ""
    doc = _check_schema(out)
    assert doc["subcommand"] == "analyze"
    assert doc["schema_version"] == "1"
    assert doc["verdict"] == "PolyhedralCandidate"
    assert doc["signature"] == ["1", "1"]
    assert doc["exceptional_classes"] == [["0", "1"], ["1", "-1"], ["1", "2"], ["3", "-2"]]
    assert doc["exceptional_count"] == "4"
    assert doc["chamber_walls"] == [["0", "1"], ["1", "-1"]]
    assert doc["duality_checked"] is True
    assert doc["rank2"]["both_rational"] is True
    assert doc["rank2"]["ray1"] == {
        "rational": True, "vector": ["1", "-1"], "display": "(1, -1)",
    }
    assert doc["disc_group"]["invariant_factors"] == ["5"]
    assert doc["disc_group"]["expected_invariant_factors"] == []
    assert doc["disc_group"]["disc_group_mismatch"] is True
    assert doc["mds"] == {"is_mds": True, "reason": "rank_below_3_eff_rational"}
    assert doc["input"]["gram"] == [["2", "1"], ["1", "-2"]]
    assert doc["input"]["n"] is None and doc["label"] is None


def test_analyze_rank3_end_to_end(tmp_path, capsys):
    code, out, _ = _run(capsys, ["analyze", "--input", _write(tmp_path, RANK3_DOC)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["exceptional_count"] == "12"
    assert len(doc["chamber_walls"]) == 4
    assert doc["rank2"] is None
    assert doc["finiteness"]["equivalence_applicable"] is True
    assert any("orthogonal" in n for n in doc["notes"])


def test_enumerate_end_to_end(tmp_path, capsys):
    code, out, _ = _run(capsys, ["enumerate", "--input", _write(tmp_path, RANK3_DOC)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["subcommand"] == "enumerate"
    assert doc["count"] == "12" and len(doc["classes"]) == 12
    assert doc["bound"] == "4"


def test_enumerate_bound_flag_overrides_document(tmp_path, capsys):
    path = _write(tmp_path, RANK3_DOC)
    code, out, _ = _run(capsys, ["enumerate", "--input", path, "--bound", "2"])
    assert code == 0
    doc = _check_schema(out)
    assert doc["count"] == "4" and doc["bound"] == "2"
    assert doc["input"]["bound"]["max_ample_pairing"] == "2"


def test_reduce_end_to_end(tmp_path, capsys):
    doc_in = dict(DENSE_DOC, vector=[2, 3])
    code, out, _ = _run(capsys, ["reduce", "--input", _write(tmp_path, doc_in)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["subcommand"] == "reduce"
    assert doc["representative"] == ["1", "0"]
    assert doc["word"] == [["0", "1"], ["1", "-1"]]
    assert doc["steps"] == "2"
    assert doc["roots_used"] == [["0", "1"], ["1", "-1"], ["1", "2"], ["3", "-2"]]
    assert doc["input"]["vector"] == ["2", "3"]


_DIAG4 = [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]


@pytest.mark.parametrize("bound", [1, 8])
def test_reduce_refuses_a_vector_on_the_other_sheet(tmp_path, capsys, bound):
    # reflections keep each sheet of the positive cone, so -a never
    # reaches a's chamber: at bound 1 (no roots) it came back as its own
    # representative, at bound 8 it ran out the 10 000-step budget
    doc_in = {"gram": _DIAG4, "type": "K3", "ample": [1, 0, 0, 0],
              "bound": {"max_ample_pairing": bound}}
    path = _write(tmp_path, dict(doc_in, vector=[-1, 0, 0, 0]))
    code, out, err = _run(capsys, ["reduce", "--input", path])
    assert (code, out) == (3, "")
    assert _error_doc(err) == {
        "kind": "PreconditionError",
        "message": "vector to reduce must lie on the ample class's sheet of the positive "
                   "cone, pairing(vector, ample) is -2",
    }
    # a vector off the closed positive cone keeps weyl_reduce's message
    path = _write(tmp_path, dict(doc_in, vector=[-1, 2, 0, 0]), "neg.json")
    code, out, err = _run(capsys, ["reduce", "--input", path])
    assert (code, out) == (3, "")
    assert _error_doc(err) == {
        "kind": "PreconditionError",
        "message": "vector to reduce must lie in the closed positive cone, norm is -6",
    }
    path = _write(tmp_path, dict(doc_in, vector=[1, 0, 0, 0]), "a.json")
    code, out, _ = _run(capsys, ["reduce", "--input", path])
    assert code == 0
    assert json.loads(out)["representative"] == ["1", "0", "0", "0"]


# (type, n, diagonal, bound) with roots whose chamber a near-boundary
# vector leaves, for every deformation type
_REDUCE_TYPES = [
    ("K3", None, (2, -2, -2, -2), 6),
    ("K3[n]", 2, (2, -2, -2, -4), 6),
    ("K3[n]", 3, (2, -2, -2, -2), 6),
    ("Kum[n]", 2, (6, -6, -6, -6), 18),
    ("OG6", None, (2, -2, -2, -2), 6),
    ("OG10", None, (2, -2, -2, -6), 6),
]


@pytest.mark.parametrize("tag, n, diag, bound", _REDUCE_TYPES)
def test_reduce_path_matches_weyl_reduce(tmp_path, capsys, tag, n, diag, bound):
    # run_reduce reduces over its enumerated roots; weyl_reduce and the
    # reflection reference must give the same representative, word and steps
    rank = len(diag)
    gram = [[diag[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
    doc_in = {"gram": gram, "type": tag, "ample": [1] + [0] * (rank - 1),
              "bound": {"max_ample_pairing": bound}}
    if n is not None:
        doc_in["n"] = n
    spec = parse_input(json.dumps(doc_in))
    roots = enumerate_exceptional(spec.lattice, spec.dtype, spec.ample, spec.bound)
    rng = random.Random(24)
    stepped = 0
    for _ in range(12):
        v = near_boundary_vector(rng, diag, 3)
        report = run_reduce(spec._replace(vector=v), 10000)
        got = (tuple(report["representative"]), tuple(map(tuple, report["word"])),
               report["steps"])
        red = weyl_reduce(spec.lattice, roots, v)
        assert got == tuple(red) == reference_weyl_reduce(spec.lattice, roots, v)
        stepped += red.steps > 0
    assert roots and stepped >= 3
    # a vector on the other sheet, or off the closed positive cone, exits 3
    for vector, message in (
        ([-1] + [0] * (rank - 1), "vector to reduce must lie on the ample class's sheet "
                                  f"of the positive cone, pairing(vector, ample) is {-diag[0]}"),
        ([0, 1] + [0] * (rank - 2), "vector to reduce must lie in the closed positive cone, "
                                    f"norm is {diag[1]}"),
    ):
        path = _write(tmp_path, dict(doc_in, vector=vector))
        code, out, err = _run(capsys, ["reduce", "--input", path])
        assert (code, out) == (3, "")
        assert _error_doc(err) == {"kind": "PreconditionError", "message": message}


@pytest.mark.parametrize("flags, bound, message", [
    (["--bound", "0"], None, "--bound: max_ample_pairing must be a positive integer, got 0"),
    (["--bound=0"], None, "--bound: max_ample_pairing must be a positive integer, got 0"),
    ([], {"max_ample_pairing": 0}, "bound: max_ample_pairing must be a positive integer, got 0"),
    ([], {"wall_test_limit": 3, "pell_index_cap": 0},
     "bound: pell_index_cap must be a positive integer, got 0"),
])
def test_a_zero_bound_is_an_input_error(tmp_path, capsys, flags, bound, message):
    # a changed bound is built through EnumerationBound's constructor,
    # whose checks _replace would skip
    doc_in = RANK3_DOC if bound is None else dict(RANK3_DOC, bound=bound)
    for subcommand in ("analyze", "enumerate"):
        argv = [subcommand, "--input", _write(tmp_path, doc_in), *flags]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert _error_doc(err) == {"kind": "InputFormatError", "message": message}


def test_alpha_end_to_end(tmp_path, capsys):
    doc_in = {
        "gram": [[2, 1], [1, -2]], "type": "K3[n]", "n": 2,
        "D": [1, 0], "E": [0, 1],
    }
    code, out, _ = _run(capsys, ["alpha", "--input", _write(tmp_path, doc_in)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["subcommand"] == "alpha"
    assert doc["context"] == {"d": "2", "t": "1", "b": "1", "e": "-2", "N": "5"}
    assert doc["branch"] == "case_b_pell"
    assert doc["alpha"] == ["144", "-89"]
    assert doc["norm_alpha"] == "-2"
    assert doc["pell_solution"] == {"x": "161", "y": "72", "n": "5"}
    assert doc["certified_primitive"] is True
    assert doc["certified_effective"] is True
    assert doc["div_alpha"] == "1"
    assert doc["input"]["D"] == ["1", "0"] and doc["input"]["E"] == ["0", "1"]


def test_alpha_case_a_end_to_end(tmp_path, capsys):
    doc_in = {"gram": [[2, 1], [1, 0]], "type": "K3", "D": [1, 0], "E": [0, 1]}
    code, out, _ = _run(capsys, ["alpha", "--input", _write(tmp_path, doc_in)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["branch"] == "case_a"
    assert doc["alpha"] == ["2", "-2"]
    assert doc["norm_alpha"] == "0"
    assert doc["pell_solution"] is None and doc["div_alpha"] is None


def test_alpha_uncertified_end_to_end(tmp_path, capsys):
    doc_in = {"gram": [[4, 3], [3, -6]], "type": "OG10", "D": [1, 0], "E": [0, 1]}
    code, out, _ = _run(capsys, ["alpha", "--input", _write(tmp_path, doc_in)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["branch"] == "case_b_pell"
    assert doc["alpha"] == ["24", "-11"]
    assert doc["certified_primitive"] is True
    assert doc["certified_effective"] is False
    assert doc["div_alpha"] == "3"


def test_pell_end_to_end(tmp_path, capsys):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps({"n": 5}))
    code, out, _ = _run(capsys, ["pell", "--input", str(path)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["subcommand"] == "pell"
    assert doc["fundamental"] == {"x": "9", "y": "4"}
    assert doc["second"] == {"x": "161", "y": "72"}
    assert doc["second_identity_holds"] is True
    assert doc["residue_solution"] is None
    assert doc["input"] == {"n": "5"}


def test_pell_residue_end_to_end(tmp_path, capsys):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps({"n": 3, "modulus": 4, "residue": 1}))
    code, out, _ = _run(capsys, ["pell", "--input", str(path)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["residue_solution"] == {"x": "97", "y": "56"}
    assert doc["input"] == {"n": "3", "modulus": "4", "residue": "1", "index_cap": "64"}


def test_pell_input_validation():
    with pytest.raises(InputFormatError):
        run_pell(json.dumps({"n": 5, "modulus": 4}))
    with pytest.raises(InputFormatError):
        run_pell(json.dumps({"n": 5, "junk": 1}))
    with pytest.raises(InputFormatError):
        run_pell(json.dumps([5]))
    with pytest.raises(InputFormatError):
        run_pell(json.dumps({}))


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 5, "index_cap": "abc"},
        {"n": 5, "index_cap": 8},
        {"n": 3, "modulus": 5, "residue": 3, "index_cap": 0},
        {"n": 3, "modulus": 5, "residue": 3, "index_cap": -3},
        {"n": 3, "modulus": 5, "residue": 3, "index_cap": "abc"},
    ],
)
def test_pell_index_cap_validation(tmp_path, capsys, doc):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["pell", "--input", str(path)])
    assert code == 2 and out == ""
    e = _error_doc(err)
    assert e["kind"] == "InputFormatError" and "index_cap" in e["message"]


def test_pell_null_index_cap_is_absent(tmp_path, capsys):
    for doc_in, echo in (
        ({"n": 5, "index_cap": None}, {"n": "5"}),
        ({"n": 3, "modulus": 4, "residue": 1, "index_cap": None},
         {"n": "3", "modulus": "4", "residue": "1", "index_cap": "64"}),
    ):
        path = tmp_path / "pell.json"
        path.write_text(json.dumps(doc_in))
        code, out, _ = _run(capsys, ["pell", "--input", str(path)])
        assert code == 0
        assert _check_schema(out)["input"] == echo


def test_rank2_end_to_end(tmp_path, capsys):
    doc_in = {"gram": [[4, 0], [0, -4]], "type": "OG10", "ample": [1, 0]}
    code, out, _ = _run(capsys, ["rank2", "--input", _write(tmp_path, doc_in)])
    assert code == 0
    doc = _check_schema(out)
    assert doc["subcommand"] == "rank2"
    assert doc["ray1"]["vector"] == ["1", "-1"]
    assert doc["ray2"]["vector"] == ["1", "1"]
    assert doc["both_rational"] is True and doc["bir_finite"] is True


def test_rank2_irrational_end_to_end(tmp_path, capsys):
    doc_in = {"gram": [[2, 0], [0, -6]], "type": "K3", "ample": [1, 0]}
    code, out, _ = _run(capsys, ["rank2", "--input", _write(tmp_path, doc_in)])
    assert code == 0
    doc = _check_schema(out)
    r1, r2 = doc["ray1"], doc["ray2"]
    assert r1["rational"] is False and r2["rational"] is False
    assert r1["display"] == "-((0 - sqrt(12))/2, 1)"
    assert r2["display"] == "((0 + sqrt(12))/2, 1)"
    assert r1["delta"] == "12" and r1["den"] == "2"
    assert r1["sign"] == "-1" and r1["orientation"] == "-1"
    assert doc["both_rational"] is False and doc["bir_finite"] is False


def test_plot_section_end_to_end(tmp_path, capsys):
    code, out, _ = _run(capsys, ["plot-section", "--input", _write(tmp_path, RANK3_DOC)])
    assert code == 0
    assert out.startswith("<svg ")
    assert out.count("<line") == 4 and out.count("<circle") == 4


# sheared charts whose kernel Gram matrix is so ill-conditioned that the
# minor eigenvalue summed in floats came out negative (math domain error) or
# zero (float division by zero)
ILL_CONDITIONED_SECTIONS = [
    {
        "gram": [[9624, 906, 3024], [906, 82, 282], [3024, 282, 948]],
        "type": "K3[n]",
        "n": 3,
        "ample": [-3, 1, 3],
        "bound": {"max_ample_pairing": 4},
    },
    {
        "gram": [[62, 266, -782], [266, 1106, -3270], [-782, -3270, 9658]],
        "type": "K3[n]",
        "n": 2,
        "ample": [-2, -3, 3],
    },
]


@pytest.mark.parametrize("doc", ILL_CONDITIONED_SECTIONS, ids=["domain", "zero-division"])
def test_plot_section_on_ill_conditioned_chart(tmp_path, capsys, doc):
    code, out, err = _run(capsys, ["plot-section", "--input", _write(tmp_path, doc)])
    assert (code, err) == (0, "")
    root = ET.fromstring(out)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root[0].tag == "{http://www.w3.org/2000/svg}ellipse"


@pytest.mark.parametrize("digits,detail", [
    (400, "an integer exceeds the float range"),
    (160, "width 2.6e-80"),
], ids=["overflow", "underflow"])
def test_plot_section_outside_the_float_range(tmp_path, capsys, digits, detail):
    # entries of 400 digits have no float; with 160 digits the radii are
    # about 1.4e-80, which %.6f prints as zeros: exit 3 naming the range,
    # not a traceback or an empty viewBox
    big = 2 * 10**digits
    doc = dict(RANK3_DOC, gram=[[2, 0, 0], [0, -big, 0], [0, 0, -big]])
    code, out, err = _run(capsys, ["plot-section", "--input", _write(tmp_path, doc)])
    assert (code, out) == (3, "")
    error = _error_doc(err)
    assert error["kind"] == "PreconditionError"
    assert error["message"].startswith(f"section chart is outside the drawable range ({detail})")


def _diag_doc(rank):
    gram = [[(2 if i == 0 else -2) if i == j else 0 for j in range(rank)] for i in range(rank)]
    return dict(RANK3_DOC, gram=gram, ample=[1] + [0] * (rank - 1))


def test_plot_section_refuses_other_ranks_before_analysis(tmp_path, capsys, monkeypatch):
    # the rank check runs right after the entry check: a rank-10 document
    # is refused with the section message (it used to reach the wall-test
    # rank cap, exit 4), and a rank-4 one enumerates no class
    calls = []
    reference = engine.enumerate_exceptional

    def counted(*args, **kwargs):
        calls.append(args)
        return reference(*args, **kwargs)

    for module in (engine, cli):
        monkeypatch.setattr(module, "enumerate_exceptional", counted)
    for rank in (10, 4):
        code, out, err = _run(capsys, ["plot-section", "--input", _write(tmp_path, _diag_doc(rank))])
        assert (code, out) == (3, "")
        error = _error_doc(err)
        assert error["kind"] == "PreconditionError"
        assert error["message"].startswith(f"section plots need rank 3, got rank {rank};")
    assert calls == []
    # the counter sees the enumeration that analyze runs
    code, _, _ = _run(capsys, ["analyze", "--input", _write(tmp_path, _diag_doc(4))])
    assert code == 0 and len(calls) == 1


# ------------------------------------------------------- exit codes, errors


def _error_doc(err: str) -> dict:
    doc = json.loads(err)
    assert set(doc) == {"error"} and set(doc["error"]) == {"kind", "message"}
    return doc["error"]


def test_exit_2_on_bad_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, out, err = _run(capsys, ["analyze", "--input", str(path)])
    assert code == 2 and out == ""
    assert _error_doc(err)["kind"] == "InputFormatError"


def test_exit_2_on_decimal_string_with_trailing_newline(tmp_path, capsys):
    # a regex "$" also matches before a final newline; the whole string
    # must be digits
    for doc_in in (
        {"gram": [["2\n"]], "type": "K3"},
        {"gram": [[2, 0], [0, -2]], "type": "K3", "ample": ["1\n", "0"]},
    ):
        code, out, err = _run(capsys, ["enumerate", "--input", _write(tmp_path, doc_in)])
        assert code == 2 and out == ""
        e = _error_doc(err)
        assert e["kind"] == "InputFormatError"
        assert "expected an integer or decimal string" in e["message"]
    with pytest.raises(InputFormatError, match="expected an integer or decimal string"):
        cli._as_int("5\n", "x")


def test_exit_2_on_missing_file(tmp_path, capsys):
    code, out, err = _run(capsys, ["analyze", "--input", str(tmp_path / "nope.json")])
    assert code == 2 and out == ""
    assert err.startswith("cannot read input:")


def test_exit_2_on_missing_ample(tmp_path, capsys):
    doc_in = {"gram": [[2, 1], [1, -2]], "type": "K3"}
    code, _, err = _run(capsys, ["analyze", "--input", _write(tmp_path, doc_in)])
    assert code == 2
    assert _error_doc(err)["kind"] == "InputFormatError"


def test_exit_3_on_precondition(tmp_path, capsys):
    code, _, err = _run(capsys, ["rank2", "--input", _write(tmp_path, RANK3_DOC)])
    assert code == 3
    assert _error_doc(err)["kind"] == "PreconditionError"
    doc_in = {"gram": [[2, 0], [0, 2]], "type": "K3", "ample": [1, 0]}
    code, _, err = _run(capsys, ["enumerate", "--input", _write(tmp_path, doc_in, "sig.json")])
    assert code == 3
    assert _error_doc(err)["kind"] == "SignatureError"


def test_exit_4_on_bound_exceeded(tmp_path, capsys):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps({"n": 3, "modulus": 5, "residue": 3, "index_cap": 8}))
    code, _, err = _run(capsys, ["pell", "--input", str(path)])
    assert code == 4
    e = _error_doc(err)
    assert e["kind"] == "BoundExceededError" and "8" in e["message"]
    doc_in = dict(RANK3_DOC, bound={"max_ample_pairing": 4, "wall_test_limit": 2})
    code, _, err = _run(capsys, ["analyze", "--input", _write(tmp_path, doc_in)])
    assert code == 4
    assert _error_doc(err)["kind"] == "BoundExceededError"


# N = 6615019: the second Pell solution has 4311 decimal digits
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < _DIGIT_LIMIT < 4311, reason="interpreter converts a 4311-digit int to str"
)


@needs_digit_limit
def test_exit_4_on_integer_over_digit_limit(tmp_path, capsys):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps({"n": 6615019}))
    code, out, err = _run(capsys, ["pell", "--input", str(path)])
    assert code == 4 and out == ""
    e = _error_doc(err)
    assert e["kind"] == "BoundExceededError"
    assert str(_DIGIT_LIMIT) in e["message"] and "PYTHONINTMAXSTRDIGITS" in e["message"]


def _cli_process(subcommand, path, *extra):
    """Run the CLI in a fresh interpreter with the current digit limit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS=str(_DIGIT_LIMIT))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ihscone.cli", subcommand, "--input", str(path), *extra],
        capture_output=True, text=True, env=env,
    )


_DEEP = 100_000


@pytest.mark.parametrize("subcommand, text", [
    ("analyze", '{"gram": %s, "type": "K3"}' % ("[" * _DEEP + "]" * _DEEP)),
    ("pell", '{"n": %s}' % ("[" * _DEEP + "1" + "]" * _DEEP)),
], ids=["gram", "pell-n"])
def test_deeply_nested_json_is_an_input_error(tmp_path, subcommand, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    proc = _cli_process(subcommand, path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    e = _error_doc(proc.stderr)
    assert e["kind"] == "InputFormatError" and "recursion limit" in e["message"]


def test_unreadable_input_prints_no_traceback(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 5, "label": "caf\xe9"}')
    proc = _cli_process("pell", path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot read input: ")


@pytest.mark.parametrize("where", ["missing/out.json", "."])
def test_unwritable_output_prints_no_traceback(tmp_path, where):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps({"n": 5}))
    proc = _cli_process("pell", path, "--output", str(tmp_path / where))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot write output: ")


@pytest.mark.parametrize("vector", [[2, 3], [1, 0]])
def test_negative_max_steps_is_an_input_error(tmp_path, vector):
    # [2, 3] needs two reflections and [1, 0] none: a negative cap is
    # rejected before any reduction runs
    path = tmp_path / "reduce.json"
    path.write_text(json.dumps(dict(DENSE_DOC, vector=vector)))
    proc = _cli_process("reduce", path, "--max-steps", "-1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    e = _error_doc(proc.stderr)
    assert e["kind"] == "InputFormatError" and "--max-steps" in e["message"]


@needs_digit_limit
def test_digit_limit_prints_no_traceback(tmp_path):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps({"n": 6615019}))
    proc = _cli_process("pell", path)
    assert proc.returncode == 4 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert _error_doc(proc.stderr)["kind"] == "BoundExceededError"


@needs_digit_limit
def test_stringify_digit_limit_in_nested_list():
    # plain ints in a list skip the recursive call; one over the limit
    # deep inside a list must still end in BoundExceededError
    big = 10 ** 4310
    report = {"a": [[1, True], (2, [-3, None])]}
    assert _stringify(report) == {"a": [["1", True], ["2", ["-3", None]]]}
    with pytest.raises(BoundExceededError, match=f"{big.bit_length()}-bit") as info:
        _stringify({"a": [[1, 2], [3, [4, big]]]})
    assert str(_DIGIT_LIMIT) in str(info.value)


_OVER_LIMIT = "1" + "0" * 4999


@needs_digit_limit
@pytest.mark.parametrize("subcommand, text", [
    ("pell", '{"n": %s}' % _OVER_LIMIT),
    ("pell", '{"n": "%s"}' % _OVER_LIMIT),
    ("enumerate", '{"gram": [[1%s, 0], [0, -2]], "type": "K3", "ample": [1, 0]}' % ("0" * 4400)),
    ("enumerate", '{"gram": [["1%s", 0], [0, -2]], "type": "K3", "ample": [1, 0]}' % ("0" * 4400)),
], ids=["pell-literal", "pell-string", "gram-literal", "gram-string"])
def test_exit_2_on_input_integer_over_digit_limit(tmp_path, subcommand, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    proc = _cli_process(subcommand, path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    e = _error_doc(proc.stderr)
    assert e["kind"] == "InputFormatError"
    assert str(_DIGIT_LIMIT) in e["message"] and "PYTHONINTMAXSTRDIGITS" in e["message"]


def test_exit_5_on_contract_violation(tmp_path, capsys):
    doc_in = {
        "gram": [[2, 3], [3, -2]], "type": "K3", "ample": [1, 1],
        "bound": {"max_ample_pairing": 1},
    }
    code, _, err = _run(capsys, ["rank2", "--input", _write(tmp_path, doc_in)])
    assert code == 5
    e = _error_doc(err)
    assert e["kind"] == "MixedRationalityError"
    assert "mix rationality" in e["message"]


@pytest.mark.parametrize(
    "error, code",
    [
        (IHSConeError, 1),
        (InputFormatError, 2),
        (PreconditionError, 3),
        (SignatureError, 3),
        (BoundExceededError, 4),
        (ContractViolationError, 5),
        (MixedRationalityError, 5),
    ],
)
def test_exit_code_comes_from_the_error_class(tmp_path, capsys, monkeypatch, error, code):
    def fail(args, text):
        raise error("boom")

    monkeypatch.setattr(cli, "_report_text", fail)
    got, out, err = _run(capsys, ["analyze", "--input", _write(tmp_path, RANK3_DOC)])
    assert (got, out) == (code, "")
    assert _error_doc(err) == {"kind": error.__name__, "message": "boom"}


_NOT_OBJECT = "input document must be a JSON object"
_BAD_LABEL = "label: expected a string"


@pytest.mark.parametrize(
    "subcommand, text, message",
    [
        ("analyze", "[1, 2]", _NOT_OBJECT),
        ("analyze", '{"gram": [[2]], "type": "K3", "zz": 1, "extra": 1}',
         "unknown input fields: extra, zz"),
        ("analyze", '{"extra": 1}', "unknown input fields: extra"),
        ("analyze", "{}", "missing required field 'gram'"),
        ("analyze", '{"type": "K3"}', "missing required field 'gram'"),
        ("analyze", '{"gram": [[2]]}', "missing required field 'type'"),
        ("analyze", '{"gram": [[2]], "type": "K3", "label": 7}', _BAD_LABEL),
        ("analyze", '{"gram": [[2]], "type": "K3", "n": "x", "label": 7}',
         "n: expected an integer or decimal string, got 'x'"),
        ("analyze", '{"gram": [[2]], "type": "K3", "label": 7, "bound": [4]}', _BAD_LABEL),
        ("pell", "[5]", _NOT_OBJECT),
        ("pell", '{"n": 5, "junk": 1}', "unknown input fields: junk"),
        ("pell", '{"junk": 1}', "unknown input fields: junk"),
        ("pell", "{}", "missing required field 'n'"),
        ("pell", '{"n": 5, "label": 7}', _BAD_LABEL),
        ("pell", '{"n": "x", "label": 7}', "n: expected an integer or decimal string, got 'x'"),
        ("pell", '{"n": 5, "label": 7, "modulus": 4}', _BAD_LABEL),
        ("analyze", '{"gram": 5, "type": "K3"}', "gram: expected a list of integer rows"),
        ("analyze", '{"gram": [[2, 0], [0]], "type": "K3"}',
         "gram: row 1 has length 1, expected 2"),
        ("analyze", '{"gram": [[2]], "type": 7}', "type: expected a tag string"),
        ("analyze", '{"gram": [[2]], "type": "K3", "bound": [4]}', "bound: expected an object"),
        ("analyze", '{"gram": [[2]], "type": "K3", "bound": {"limit": 4}}',
         "bound: unknown fields: limit"),
        ("analyze", '{"gram": [[2, 0], [0, -2]], "type": "K3", "ample": [1]}',
         "ample: expected length 2, got 1"),
        ("analyze", '{"gram": [[2, 0], [0, -2]], "type": "K3"}',
         "missing required field 'ample'"),
        ("reduce", '{"gram": [[2, 0], [0, -2]], "type": "K3"}',
         "missing required field 'vector'"),
        ("alpha", '{"gram": [[2, 0], [0, -2]], "type": "K3[n]", "n": 2, "E": [0, 1]}',
         "alpha needs both 'D' and 'E' fields"),
        ("pell", '{"n": 5, "modulus": 4}', "'modulus' and 'residue' must be given together"),
        ("pell", '{"n": 5, "index_cap": 4}', "'index_cap' needs 'modulus' and 'residue'"),
    ],
)
def test_document_reader_messages_in_order(tmp_path, capsys, subcommand, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = _run(capsys, [subcommand, "--input", str(path)])
    assert (code, out) == (2, "")
    assert _error_doc(err) == {"kind": "InputFormatError", "message": message}


# -------------------------------------------------- one frame per document


def test_one_ample_frame_per_document(tmp_path, capsys, monkeypatch):
    # the frame's Smith split of the ample functional is the engine's only
    # Smith form: enumeration, the witness and the chart share one
    calls = []
    snf = engine.smith_normal_form

    def counted(m):
        calls.append(m)
        return snf(m)

    monkeypatch.setattr(engine, "smith_normal_form", counted)
    engine._shell_frame.cache_clear()
    spec = parse_input(json.dumps(RANK3_DOC))
    engine.analyze(spec.lattice, spec.dtype, spec.ample, spec.bound)
    assert len(calls) == 1
    engine._shell_frame.cache_clear()
    calls.clear()
    code, out, _ = _run(capsys, ["plot-section", "--input", _write(tmp_path, RANK3_DOC)])
    assert code == 0 and out.startswith("<svg ")
    assert len(calls) == 1


def test_one_pell_solve_per_document(tmp_path, capsys, monkeypatch):
    calls = []
    solve = pell.fundamental_solution

    def counted(n):
        calls.append(n)
        return solve(n)

    for module in (pell, cli, alphas):
        monkeypatch.setattr(module, "fundamental_solution", counted)
    doc_in = {"n": 3, "modulus": 4, "residue": 1}
    code, out, _ = _run(capsys, ["pell", "--input", _write(tmp_path, doc_in)])
    assert code == 0 and json.loads(out)["residue_solution"] == {"x": "97", "y": "56"}
    assert calls == [3]
    calls.clear()
    # K3[n] with a profile-matching E takes the alpha_effective branch
    doc_in = {"gram": [[2, 1], [1, -2]], "type": "K3[n]", "n": 2, "D": [1, 0], "E": [0, 1]}
    code, out, _ = _run(capsys, ["alpha", "--input", _write(tmp_path, doc_in)])
    assert code == 0 and json.loads(out)["certified_effective"] is True
    assert calls == [5]


def test_signature_runs_only_on_failing_documents(tmp_path, capsys, monkeypatch):
    # the frame's elimination decides the signature of a document that
    # analyzes; lattice.signature runs once, to name the fault, only when
    # the entry check fails (at the parent: 2, 1, 1, 1 and 1 calls on the
    # successful documents)
    calls = []
    reference = lattice.signature

    def counted(lat):
        calls.append(lat.rank)
        return reference(lat)

    for module in (lattice, engine, cli, ihscone):
        monkeypatch.setattr(module, "signature", counted, raising=False)
    rank3 = dict(RANK3_DOC, vector=[5, 3, 3])
    rank2 = dict(DENSE_DOC, vector=[1, 1])
    subcommands = ("analyze", "enumerate", "reduce", "rank2", "plot-section")
    for subcommand in subcommands:
        doc = rank2 if subcommand == "rank2" else rank3
        code, out, _ = _run(capsys, [subcommand, "--input", _write(tmp_path, doc)])
        assert code == 0 and out
        assert calls == [], subcommand
    failing = [
        (dict(rank3, gram=[[2, 0, 0], [0, 2, 0], [0, 0, -2]]),
         "SignatureError", "expected signature (1, 2), got (2, 1)"),
        (dict(rank3, gram=[[-2, 1, 0], [1, -2, 0], [0, 0, -4]]),
         "SignatureError", "expected signature (1, 2), got (0, 3)"),
        (dict(rank3, gram=[[2, 0, 0], [0, 2, 0], [0, 0, -2]], ample=[0, 0, 1]),
         "SignatureError", "expected signature (1, 2), got (2, 1)"),
        (dict(rank3, ample=[0, 1, 0]),
         "PreconditionError", "ample class must have positive norm, got -2"),
        (dict(rank2, gram=[[2, 1], [1, 2]]),
         "SignatureError", "expected signature (1, 1), got (2, 0)"),
        (dict(rank2, ample=[0, 1]),
         "PreconditionError", "ample class must have positive norm, got -2"),
    ]
    for subcommand in subcommands:
        for doc, kind, message in failing:
            if subcommand == "rank2" and len(doc["gram"]) != 2:
                continue  # the rank check comes first
            calls.clear()
            code, out, err = _run(capsys, [subcommand, "--input", _write(tmp_path, doc)])
            assert (code, out) == (3, "")
            assert _error_doc(err) == {"kind": kind, "message": message}
            assert len(calls) == 1, (subcommand, doc)


def test_analyze_report_signature_is_lagrange_signature():
    # the writer prints (1, rank - 1) without computing it: analysis
    # raised SignatureError on any other signature
    k3, bound = parse_type("K3"), EnumerationBound(max_ample_pairing=2)
    reports = 0
    for lat, ample, sig in signature_corpus():
        spec = InputSpec(lattice=lat, dtype=k3, ample=ample, bound=bound, label=None)
        if sig != (1, lat.rank - 1):
            with pytest.raises(SignatureError):
                run_analyze(spec)
            continue
        assert run_analyze(spec)["signature"] == list(lattice.signature(lat))
        reports += 1
    assert reports == 36


def test_parser_reuse_keeps_no_state(tmp_path, capsys):
    """One parser serves every call: options left out of a call take their
    defaults again, whatever an earlier call set."""
    path = _write(tmp_path, dict(RANK3_DOC, vector=[5, 3, 3]))
    calls = [
        ("enumerate", "--bound", "2"),
        ("enumerate",),
        ("reduce", "--max-steps", "0"),
        ("reduce",),
        ("frobnicate",),
        ("enumerate", "--format", "pretty"),
        ("enumerate",),
        ("enumerate", "--bound=2"),
        ("enumerate", "--bou", "2"),
    ]
    seen = []
    for subcommand, *extra in calls:
        fresh = _cli_process(subcommand, path, *extra)
        try:
            code = main([subcommand, "--input", path, *extra])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        seen.append((code, out.out))
    # each option changes its own call's result, so a leak would show
    assert seen[0] != seen[1] and seen[5] != seen[6] and seen[1] == seen[6]
    assert [code for code, _ in seen[2:5]] == [4, 0, 2]
    # argparse's own forms of the first call's option parse the same
    assert seen[7] == seen[8] == seen[0]


def _help_text(parser, argv):
    """What `parser.parse_args(argv)` prints for a help request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    assert info.value.code == 0
    return out.getvalue()


def test_help_text_matches_reference_parser():
    """The parser built from the option table prints the help of the one
    written out by hand, at the top level and for every subcommand."""
    reference = reference_parser()
    assert cli._parser().format_help() == reference.format_help()
    subcommands = ("analyze", "enumerate", "reduce", "alpha", "pell", "plot-section", "rank2")
    assert tuple(cli._OPTIONS) == subcommands
    for argv in (["-h"], *([name, "-h"] for name in subcommands)):
        assert _help_text(cli._parser(), argv) == _help_text(reference, argv), argv


@pytest.mark.parametrize("argv", [
    ["pell", "--input", "in.json"],
    ["analyze", "--input", "in.json", "--format", "pretty", "--output", "out.json"],
    ["enumerate", "--bound", "3", "--input", "in.json", "--bound", "+4"],
    ["reduce", "--input", "", "--max-steps", " 12", "--bound", "1_0"],
    ["plot-section", "--output", "out.svg", "--input", "in.json"],
    ["alpha", "--input", "in.json", "--input", "other.json"],
    ["rank2", "--format", "json", "--input", "in.json"],
])
def test_common_command_lines_skip_argparse(monkeypatch, argv):
    """SUBCOMMAND (FLAG VALUE)* with exact flags and plain values is
    parsed from the option table alone, to the reference namespace."""
    expected = vars(reference_parser().parse_args(argv))
    monkeypatch.setattr(cli, "_parser", None)  # any use of argparse raises
    assert vars(cli._parse_argv(argv)) == expected


# ------------------------------------------------------ formats, stability


def test_byte_stability(tmp_path, capsys):
    path = _write(tmp_path, RANK3_DOC)
    outputs = set()
    for _ in range(3):
        code, out, _ = _run(capsys, ["analyze", "--input", path])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


GOLDEN_TYPES = (
    ("K3", None), ("K3[n]", 2), ("K3[n]", 3), ("Kum[n]", 2), ("OG6", None), ("OG10", None),
)
# sha256 of the corpus runs below, computed at the commit before the v1
# copies moved from the engine's result types into the writer
GOLDEN_DIGEST = "185ffc3b57fce2583fbd2913cfab1ce779dc12f7d528ff7f86512feb48c7ae3c"


def _golden_docs():
    """400 seeded documents: rank 1-4, six types, some off-diagonal entries.

    Many are not hyperbolic (exit 3); some rank-2 ones mix rational and
    irrational rays at their bound (exit 5).
    """
    rng = random.Random(20221)
    docs = []
    for _ in range(400):
        rank = rng.randint(1, 4)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = rng.choice((2, 4, 6)) if i == 0 else -rng.randint(1, 6)
            for j in range(i):
                if rng.random() < 0.3:
                    gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        tag, n = rng.choice(GOLDEN_TYPES)
        docs.append({
            "gram": gram, "type": tag, "n": n,
            "ample": [rng.randint(1, 3)] + [rng.randint(-1, 1) for _ in range(rank - 1)],
            "bound": {"max_ample_pairing": rng.randint(1, 8)},
        })
    return docs


def test_golden_report_bytes(tmp_path, capsys):
    # no CI digest covers rank-1 or rank-2 analyze reports or the exit-5
    # path; the pin holds every byte and exit code of this corpus
    digest = hashlib.sha256()
    seen = collections.Counter()
    path = _write(tmp_path, {})
    for doc_in in _golden_docs():
        Path(path).write_text(json.dumps(doc_in))
        rank = len(doc_in["gram"])
        for sub in ("analyze", "rank2") if rank == 2 else ("analyze",):
            code, out, err = _run(capsys, [sub, "--input", path])
            digest.update(json.dumps([sub, code, out, err]).encode())
            seen[sub, code] += 1
            if code != 0:
                continue
            rep = json.loads(out)
            if sub == "rank2":
                assert rep["bir_finite"] == rep["both_rational"], doc_in
                continue
            seen["rank", rank] += 1
            seen["irrational"] += rank == 2 and not rep["rank2"]["both_rational"]
            seen["circular"] += rank >= 3 and rep["verdict"] == "CircularUpToBound"
            # the facts v1 writes more than once
            mov, fin = rep["mov_candidate"], rep["finiteness"]
            assert rep["extremal_rays"] == rep["chamber_walls"], doc_in
            assert mov["wall_inequalities"] == rep["chamber_walls"], doc_in
            assert mov["includes_positive_cone"] is True, doc_in
            assert fin["bir_finite"] == fin["eff_rational_polyhedral_up_to_bound"], doc_in
            assert fin["quotient_finite"] == fin["bir_finite"], doc_in
            assert rep["mds"]["is_mds"] == fin["bir_finite"], doc_in
            assert fin["finitely_many_exceptional_up_to_bound"] is True, doc_in
            if rank == 2:
                assert rep["rank2"]["bir_finite"] == rep["rank2"]["both_rational"], doc_in
    assert seen["rank", 2] >= 50 and seen["irrational"] >= 10, seen
    assert seen["rank", 1] >= 1 and seen["circular"] >= 1, seen
    assert seen["analyze", 5] + seen["rank2", 5] >= 5, seen
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_pretty_and_compact_agree(tmp_path, capsys):
    path = _write(tmp_path, DENSE_DOC)
    _, compact, _ = _run(capsys, ["analyze", "--input", path])
    _, pretty, _ = _run(capsys, ["analyze", "--input", path, "--format", "pretty"])
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact
    assert compact.endswith("\n")
    # compact form carries no spaces between tokens
    head = compact.split('"', 1)[0]
    assert " " not in head


def test_output_file(tmp_path, capsys):
    path = _write(tmp_path, DENSE_DOC)
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["analyze", "--input", path, "--output", str(target)])
    assert code == 0 and out == ""
    doc = _check_schema(target.read_text())
    assert doc["subcommand"] == "analyze"


def test_all_report_integers_are_strings(tmp_path, capsys):
    _, out, _ = _run(capsys, ["analyze", "--input", _write(tmp_path, RANK3_DOC)])
    doc = json.loads(out)

    def scan(node):
        if isinstance(node, bool) or node is None:
            return
        assert not isinstance(node, (int, float)), f"raw number leaked: {node!r}"
        if isinstance(node, list):
            for x in node:
                scan(x)
        elif isinstance(node, dict):
            for v in node.values():
                scan(v)
        else:
            assert isinstance(node, str)

    scan(doc)
    assert re.fullmatch(r"-?[0-9]+", doc["exceptional_count"])


def test_label_is_echoed(tmp_path, capsys):
    doc_in = dict(DENSE_DOC, label="example-lattice")
    _, out, _ = _run(capsys, ["analyze", "--input", _write(tmp_path, doc_in)])
    doc = _check_schema(out)
    assert doc["label"] == "example-lattice"
    assert doc["input"]["label"] == "example-lattice"


def test_console_script_smoke(tmp_path):
    path = tmp_path / "pell.json"
    path.write_text(json.dumps({"n": 61}))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ihscone.cli import main; sys.exit(main())",
         "pell", "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = _check_schema(proc.stdout)
    assert doc["fundamental"] == {"x": "1766319049", "y": "226153980"}
