"""Random JSON documents through `cli.main`: every subcommand ends in a
documented exit code, never in an exception that escapes `main`. Random
command lines parse as argparse parses them.

A document starts valid in shape (rank <= 3, entries in [-6, 6], bound
overrides <= 4) and then takes up to three corruptions: junk values
(strings, booleans, nulls, floats, lists, objects), decimal strings,
ragged rows, wrong lengths, missing or unknown fields, bad bounds.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from ihscone import cli
from ihscone.cli import main
from ihscone.engine import EnumerationBound
from tests.helpers import reference_parser

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "report-v1.schema.json"
VALIDATOR = Draft7Validator(json.loads(SCHEMA_PATH.read_text()))

SUBCOMMANDS = ("analyze", "enumerate", "reduce", "alpha", "pell", "plot-section", "rank2")
BOUND_FLAG = {"analyze", "enumerate", "reduce", "rank2", "plot-section"}
BOUND_FIELDS = EnumerationBound._fields
TAGS = ("K3", "K3[n]", "Kum[n]", "OG6", "OG10")

small = st.integers(-6, 6)
junk = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.floats(-6, 6, width=16),
    st.lists(small, max_size=2),
    st.dictionaries(st.text(max_size=2), small, max_size=1),
)


@st.composite
def lattice_docs(draw):
    rank = draw(st.integers(1, 3))
    # diag(+, -, -) plus off-diagonal terms: often, not always, hyperbolic
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = draw(st.integers(1, 6) if i == 0 else st.integers(-6, -1))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(small)
    tag = draw(st.sampled_from(TAGS))
    doc = {"gram": gram, "type": tag}
    if "[n]" in tag:
        doc["n"] = draw(st.integers(2, 4))
    doc["ample"] = [draw(st.integers(1, 6))] + [draw(st.integers(-1, 1)) for _ in range(rank - 1)]
    for key in ("vector", "D", "E"):
        doc[key] = [draw(small) for _ in range(rank)]
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(BOUND_FIELDS), max_size=3, unique=True))
        doc["bound"] = {k: draw(st.integers(1, 4)) for k in keys}
    return doc


@st.composite
def pell_docs(draw):
    doc = {"n": draw(st.integers(-6, 64))}
    if draw(st.booleans()):
        doc["modulus"] = draw(small)
        doc["residue"] = draw(small)
        if draw(st.booleans()):
            doc["index_cap"] = draw(st.integers(1, 4))
    return doc


def _slots(doc):
    """(container, key) of every scalar in the document."""
    out = []
    for key, value in doc.items():
        if isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, list):
                    out.extend((item, j) for j in range(len(item)))
                else:
                    out.append((value, i))
        elif isinstance(value, dict):
            out.extend((value, k) for k in value)
        else:
            out.append((doc, key))
    return out


@st.composite
def corrupted(draw, doc):
    for kind in draw(st.lists(st.sampled_from(
        ("junk", "string", "ragged", "length", "drop", "unknown", "field", "bound")
    ), max_size=3)):
        slots = _slots(doc)
        if kind in ("junk", "string") and slots:
            box, key = draw(st.sampled_from(slots))
            box[key] = draw(junk) if kind == "junk" else str(box[key])
        elif kind == "ragged" and isinstance(doc.get("gram"), list) and doc["gram"]:
            row = draw(st.sampled_from(doc["gram"]))
            if isinstance(row, list) and row:
                row.pop()
        elif kind == "length":
            key = draw(st.sampled_from(("ample", "vector", "D", "E")))
            doc[key] = draw(st.lists(small, max_size=4))
        elif kind == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind == "unknown":
            doc[draw(st.sampled_from(("junk", "Gram", "bounds")))] = draw(small)
        elif kind == "field":
            key = draw(st.sampled_from(("gram", "type", "n", "ample", "label", "bound",
                                        "modulus", "index_cap")))
            doc[key] = draw(junk)
        elif kind == "bound":
            bound = doc.setdefault("bound", {})
            if isinstance(bound, dict):
                bound[draw(st.sampled_from(BOUND_FIELDS + ("junk",)))] = draw(
                    st.integers(-1, 4) | junk
                )
    return doc


@st.composite
def invocations(draw):
    sub = draw(st.sampled_from(SUBCOMMANDS))
    doc = draw(corrupted(draw(pell_docs() if sub == "pell" else lattice_docs())))
    flags = ["--format", draw(st.sampled_from(("json", "pretty")))]
    if sub in BOUND_FLAG and draw(st.booleans()):
        flags += ["--bound", str(draw(st.integers(-1, 4)))]
    return sub, doc, flags


@settings(max_examples=100, deadline=None)
@given(invocations())
def test_random_documents_end_in_a_documented_exit_code(case):
    sub, doc, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.json"
        out = Path(tmp) / "out"
        src.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([sub, "--input", str(src), "--output", str(out), *flags])
        assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
        if code == 0:
            text = out.read_text()
            if sub == "plot-section":
                assert text.startswith("<svg ")
            else:
                VALIDATOR.validate(json.loads(text))
        else:
            assert not out.exists()
            assert set(json.loads(err.getvalue())["error"]) == {"kind", "message"}


def test_schema_bound_echo_names_the_bound_fields():
    definitions = VALIDATOR.schema["definitions"]
    ref = definitions["inputEcho"]["properties"]["bound"]["$ref"]
    bound = definitions[ref.rsplit("/", 1)[-1]]
    assert sorted(bound["properties"]) == sorted(BOUND_FIELDS)
    assert sorted(bound["required"]) == sorted(BOUND_FIELDS)


REFERENCE_PARSER = reference_parser()
# exact flags of some subcommands, the forms only argparse reads, and junk
FLAGS = ("--input",) * 4 + ("--output", "--format", "--bound", "--max-steps") * 2 + (
    "--inp", "--input=in.json", "--bound=2", "--format=yaml", "-h", "--help", "--", "-x",
    "--frob",
)
VALUES = ("in.json", "out", "json", "pretty", "yaml", "2", "-3", " 4", "1_0", "", "x", "-x",
          "--input", "pell", "3.5")


@st.composite
def command_lines(draw):
    argv = [draw(st.sampled_from(SUBCOMMANDS * 3 + ("frobnicate", "-h", "--input")))]
    if draw(st.integers(0, 3)):
        argv += ["--input", draw(st.sampled_from(("in.json", "")))]
    for _ in range(draw(st.integers(0, 3))):
        argv.append(draw(st.sampled_from(FLAGS)))
        if draw(st.integers(0, 9)):  # otherwise the value is missing
            argv.append(draw(st.sampled_from(VALUES) | st.text(max_size=3)))
    if draw(st.integers(0, 19)) == 0:
        del argv[0]
    return draw(st.permutations(argv)) if draw(st.integers(0, 9)) == 0 else argv


def _parse_outcome(parse, argv):
    """The namespace of a parse, or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_command_lines_parse_as_argparse_parses_them(argv):
    expected = _parse_outcome(cli._parser().parse_args, argv)
    assert _parse_outcome(cli._parse_argv, argv) == expected
    assert _parse_outcome(REFERENCE_PARSER.parse_args, argv) == expected
