"""Shape of the committed benchmark records, BENCH_<pr>.json at the root.

Each record compares a parent commit with a change on the workloads of
BENCHMARK.json: alternating runs in pairs, each side's median and
quartiles per end-to-end metric, and one traced seed-1 pass per side.
These tests keep the series comparable from one record to the next.
"""
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
SIDES = ("parent", "change")
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def test_the_series_has_started():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_shape(path):
    record = json.loads(path.read_text())
    assert set(record["commits"]) == set(SIDES)
    assert record["python"] and record["nproc"] >= 1
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    for name, w in record["workloads"].items():
        runs = w["runs"]
        assert w["pairs"] == len(runs) >= 1, name
        assert [run["pair"] for run in runs] == list(range(len(runs))), name
        for run in runs:
            assert run["first"] in SIDES
            for side in SIDES:
                sample = run[side]
                assert set(END_TO_END) <= set(sample["metrics"]), (name, side)
                assert 0 <= sample["failed"] <= sample["attempted"]
        for side in SIDES:
            summary = w["summary"][side]
            assert set(END_TO_END) <= set(summary), (name, side)
            for metric in END_TO_END:
                values = [run[side]["metrics"][metric] for run in runs]
                assert summary[metric] == pytest.approx(_spread(values)), (name, side, metric)
            assert summary["failed"] == sum(run[side]["failed"] for run in runs)
            assert summary["attempted"] == sum(run[side]["attempted"] for run in runs)
    assert set(record["traced_seed_1"]) <= WORKLOADS
    for name, traced in record["traced_seed_1"].items():
        for side in SIDES:
            assert set(PER_LAYER) <= set(traced[side]), (name, side)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_claim_counts(path):
    record = json.loads(path.read_text())
    claim = record.get("claim")
    if claim is None:
        return
    w = record["workloads"][claim["workload"]]
    higher = next(m["better"] == "higher" for m in BENCHMARK["end_to_end"]
                  if m["name"] == claim["metric"])
    wins = 0
    for run in w["runs"]:
        parent, change = (run[side]["metrics"][claim["metric"]] for side in SIDES)
        wins += (change > parent) if higher else (change < parent)
    assert (claim["wins"], claim["pairs"]) == (wins, w["pairs"])
