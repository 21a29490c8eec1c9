"""Library contract checks must survive ``python -O``."""
import ast
import copy
import importlib
import importlib.util
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ihscone
from ihscone import polyhedra
from ihscone.catalog import parse_type
from ihscone.engine import EnumerationBound, analyze
from ihscone.errors import InputFormatError, PreconditionError
from ihscone.lattice import Lattice
from tests import helpers


def test_library_has_no_assert_statements():
    # -O strips assert statements; contract checks raise
    # ContractViolationError instead
    package = Path(ihscone.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 11
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracle_asserts_survive_python_O():
    # the adjugate inverse of a singular matrix must stop at its det != 0
    # assert, not run on into a division by zero
    with pytest.raises(AssertionError):
        helpers.inverse([[1, 2], [2, 4]])


def _unused_imports(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, node) for name, node in imported.items() if name not in used]


def test_library_has_no_unused_imports():
    # __init__.py imports only to re-export, so it is left out
    package = Path(ihscone.__file__).parent
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in modules
        for name, node in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_fractions_only_where_rationals_are_needed():
    # the shell search, the wall pass and the rank-2 rays decide in
    # integers; Fraction belongs to the Smith-form generator lifts, the
    # Fourier-Motzkin oracle, the alpha projection and the SVG drawing
    allowed = {"lattice.py", "polyhedra.py", "alphas.py", "svg.py"}
    package = Path(ihscone.__file__).parent
    importers = {
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    }
    assert importers <= allowed, sorted(importers - allowed)


def test_library_imports_at_module_level():
    # an import inside a function hides a module dependency and is paid
    # on every call
    package = Path(ihscone.__file__).parent
    found = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_library_does_not_import_dataclasses():
    # records are named tuples: dataclasses (and the inspect module it
    # imports) cost more to import and define than a one-shot CLI process
    # spends on a small document
    package = Path(ihscone.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


_START_UP = """
import json, sys
from ihscone import cli
code = cli.main(["pell", "--input", sys.argv[1]])
print(json.dumps({
    "code": code,
    "loaded": sorted({"dataclasses", "inspect"} & set(sys.modules)),
    "parsers": cli._parser.cache_info().currsize,
}))
"""


def test_cli_start_up_skips_dataclasses_and_the_parser(tmp_path):
    # a fresh interpreter (-S: no site hooks) answers a common-form command
    # line without importing dataclasses or inspect or building the parser
    path = tmp_path / "pell.json"
    path.write_text(json.dumps({"n": 7}))
    src = str(Path(ihscone.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _START_UP, str(path)],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    *report, result = proc.stdout.splitlines()
    assert json.loads("".join(report))["fundamental"] == {"x": "8", "y": "3"}
    assert json.loads(result) == {"code": 0, "loaded": [], "parsers": 0}


def test_records_survive_pickle_and_copy():
    # unpickling and copying go through the constructor, so the records
    # come back equal and checked; _make skips the checks and builds the
    # invalid records below, which the round trip then refuses
    records = [
        Lattice([[2, 1], [1, -2]]),
        EnumerationBound(),
        EnumerationBound(max_ample_pairing=3, wall_test_limit=9, pell_index_cap=5),
    ]
    for record in records:
        for twin in (
            pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)
        ):
            assert type(twin) is type(record) and twin == record
    assert pickle.loads(pickle.dumps(records[0])).gram == ((2, 1), (1, -2))
    bad_bound = EnumerationBound._make((0, 8, 64))
    bad_lattice = Lattice._make((((2, 1), (0, -2)),))
    for bad, error in ((bad_bound, PreconditionError), (bad_lattice, InputFormatError)):
        for round_trip in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
            with pytest.raises(error):
                round_trip(bad)


def test_wall_pass_builds_no_fraction(monkeypatch):
    # the double description, the integer kernel and the wall test decide
    # in integers; in polyhedra only the Fourier-Motzkin oracle builds a
    # Fraction
    def no_fraction(*args):
        raise AssertionError("polyhedra built a Fraction")

    monkeypatch.setattr(polyhedra, "Fraction", no_fraction)
    k3 = parse_type("K3")
    lattices = [Lattice(((2, 1), (1, -2)))] + [
        Lattice(tuple(tuple(d if i == j else 0 for j in range(n)) for i, d in enumerate(diag)))
        for n, diag in ((3, (2, -2, -2)), (4, (2, -2, -2, -2)), (5, (2, -2, -2, -30, -30)))
    ]
    for lat in lattices:
        ample = (1,) + (0,) * (lat.rank - 1)
        res = analyze(lat, k3, ample, EnumerationBound(max_ample_pairing=4))
        assert res.chamber_walls
    rng = random.Random(53)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 6))]
        polyhedra.dd_generators(rows, n)


def test_traced_names_resolve(monkeypatch):
    # the benchmark tracer patches library functions by name; a renamed or
    # deleted one would otherwise surface only when the benchmark runs
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, "bench_spans", spans)
    spec.loader.exec_module(spans)
    names = [(module, attr) for _, module, attrs in spans.SPANS for attr in attrs]
    names += [(module, attr) for _, module, attr in spans.COUNTERS]
    assert len(names) > 20
    missing = [
        f"ihscone.{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(f"ihscone.{module}"), attr, None))
    ]
    assert missing == []
