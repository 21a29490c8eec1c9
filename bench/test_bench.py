"""Tests of the benchmark itself; run with ``python3 -m pytest bench``."""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from check import CheckError, check
from intmath import random_basis
from spans import Tracer
from workloads import WORKLOADS, Doc, generate

ROOT = Path(__file__).resolve().parent.parent
cli = run.import_cli()

ANALYZE = Doc("analyze", {"gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]], "type": "K3",
                          "ample": [1, 0, 0], "bound": {"max_ample_pairing": 4}, "label": "t"})
PELL = Doc("pell", {"n": 13, "modulus": 7, "residue": 5})


def _report(doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc.body))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main([doc.sub, "--input", str(path)]) == 0
    return out.getvalue()


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        assert generate(workload, 7) == generate(workload, 7)
        assert generate(workload, 7) != generate(workload, 8)
    for workload in ("walls", "shell"):  # the seed only reorders their documents
        assert sorted(map(repr, generate(workload, 7))) == sorted(map(repr, generate(workload, 8)))


def test_basis_changes_are_unimodular():
    rng = random.Random(0)
    for n in (2, 3, 5, 8):
        p, pinv = random_basis(rng, n)
        product = [[sum(p[i][k] * pinv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_checker_rejects_a_removed_class(tmp_path):
    text = _report(ANALYZE, tmp_path)
    check(ANALYZE, text)
    rep = json.loads(text)
    wall = rep["chamber_walls"][0]
    rep["exceptional_classes"].remove(wall)
    with pytest.raises(CheckError):
        check(ANALYZE, json.dumps(rep))


def test_checker_rejects_a_wrong_pell_y(tmp_path):
    text = _report(PELL, tmp_path)
    check(PELL, text)
    for key in ("fundamental", "residue_solution"):
        rep = json.loads(text)
        rep[key]["y"] = str(int(rep[key]["y"]) + 1)
        with pytest.raises(CheckError):
            check(PELL, json.dumps(rep))


def test_escaping_exception_counts_as_failed(tmp_path):
    def main(argv):
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    runner = run.Runner(SimpleNamespace(main=main), [PELL], tmp_path)
    runner.run(0)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.failures == {"pell ValueError": 1}
    assert not runner.wrong


def test_smoke_pass_untraced_and_traced(tmp_path, monkeypatch):
    """A few cheap documents of every workload through both kinds of run."""
    docs = [d for d in generate("arith", 1) if d.sub in ("pell", "alpha")][:20]
    docs += [d for d in generate("walls", 1) if len(d.body["gram"]) == 3 and d.body["bound"]["max_ample_pairing"] <= 4][:6]
    docs += [d for d in generate("shell", 1) if d.sub == "reduce"][:1]
    runner = run.Runner(cli, docs, tmp_path)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    times = run.timed_loop(runner, 0.0)
    assert len(times) == len(docs)
    original_main = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(len(docs)):
            runner.run(i)
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert runner.pass_digests[0] == runner.pass_digests[1]
    assert runner.failed == 0 and not runner.wrong

    metrics = tracer.layer_metrics()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace.overhead_frac"} == {m["name"] for m in declared["per_layer"]}
    for name in ("alphas.calls", "pell.solves", "engine.enumerate_calls", "polyhedra.dd_calls",
                 "weyl.wall_tests", "weyl.reduce_steps", "lattice.pairing_calls"):
        assert metrics[name][0] > 0, name
    for st in tracer.stats.values():
        assert 0 <= st.self <= st.total + 1e-9
