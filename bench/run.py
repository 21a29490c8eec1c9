"""Benchmark of the ihscone CLI on seeded document workloads.

    python3 bench/run.py --workload walls --seed 1 --seconds 30 --trace 0
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload

Run from the root of a source checkout; the library is imported from
``src/``. The workload's documents are generated from the seed and written
to a scratch directory under ``bench/`` before anything is timed. Each
document then goes through ``ihscone.cli.main`` in this process, one after
the other (a closed loop with one client), and every report is checked for
exactness by ``check.py``.

``--trace 0`` runs whole passes over the documents until ``--seconds``
seconds have passed and there were MIN_PASSES passes, and reports the
end-to-end metrics. The documents are the same in every pass, so each one
is timed at its median over the passes, which keeps out the passes that
other processes on the machine slowed down; the throughput and the
percentiles of document time are taken over these medians.

``--trace 1`` runs two untraced passes and one pass with the per-layer spans
of ``spans.py`` installed, and reports the per-layer metrics of the traced
pass and its overhead over the second untraced pass (the first one warms the
heap). Without ``--workload`` every workload runs in a process of its own.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit, the failures by kind, and a digest of all report bytes
of the first pass, which is equal on two commits whose reports are
byte-identical.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from check import CheckError, check
from spans import SPANS, Tracer
from workloads import WORKLOADS, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # each document's median time is taken over at least this many
SETUP_RUNS = 21


def import_cli():
    """Import ``ihscone.cli`` from this checkout's sources, or exit non-zero."""
    if not (SRC / "ihscone" / "cli.py").is_file():
        raise SystemExit(f"bench: no ihscone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ihscone.cli

    if Path(ihscone.cli.__file__).resolve().parent != SRC / "ihscone":
        raise SystemExit(f"bench: imported ihscone from {ihscone.cli.__file__}, not from {SRC}")
    return ihscone.cli


def measure_setup() -> float:
    """Median seconds from a fresh interpreter to a ready ``import ihscone.cli``."""
    code = "import time; t = time.perf_counter(); import ihscone.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        if i:  # the first run only warms the file cache
            times.append(float(proc.stdout))
    return statistics.median(times)


def clear_caches():
    """Empty the library's memo caches."""
    for name, mod in list(sys.modules.items()):
        if name == "ihscone" or name.startswith("ihscone."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Runner:
    """Runs documents through the CLI and keeps score of their reports."""

    def __init__(self, cli, docs, workdir: Path):
        self.cli = cli
        self.docs = docs
        self.paths = []
        for i, doc in enumerate(docs):
            path = workdir / f"{i:04d}.json"
            path.write_text(json.dumps(doc.body), encoding="utf-8")
            self.paths.append(str(path))
        self.first = [None] * len(docs)  # report hash of the first pass
        self.bad = [False] * len(docs)  # report failed its check
        self.pass_digests: list[str] = []
        self._pass_hash = None
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.wrong: list[str] = []

    def run(self, i: int) -> float:
        """Run document i; return its wall time in seconds."""
        if i == 0:
            self._pass_hash = hashlib.sha256()
        doc = self.docs[i]
        out, err = io.StringIO(), io.StringIO()
        # Each document starts with empty memo caches and a collected heap, as
        # it would in a CLI process of its own. Otherwise its cost would depend
        # on the documents before it: which lattices they cached, and how much
        # garbage they left for it to collect.
        clear_caches()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                status = str(self.cli.main([doc.sub, "--input", self.paths[i]]))
            except Exception as exc:  # an escaping exception is a failed document
                status = type(exc).__name__
            seconds = perf_counter() - start
        self._record(i, status, out.getvalue())
        if i == len(self.docs) - 1:
            self.pass_digests.append(self._pass_hash.hexdigest())
        return seconds

    def _record(self, i, status, text):
        doc = self.docs[i]
        h = hashlib.sha256(f"{i} {doc.sub} {status}\n{text}".encode()).digest()
        self._pass_hash.update(h)
        if self.first[i] is None:
            self.first[i] = h
            if status == "0":
                try:
                    check(doc, text)
                except CheckError as exc:
                    self.bad[i] = True
                    self.wrong.append(f"document {i} ({doc.sub}): {exc}")
        elif h != self.first[i]:
            self.bad[i] = True
            self.wrong.append(f"document {i} ({doc.sub}): report differs from the first pass")
        self.attempted += 1
        if status != "0" or self.bad[i]:
            self.failed += 1
            self.failures[f"{doc.sub} {'exit ' + status if status.isdigit() else status}"] += 1


def timed_loop(runner: Runner, seconds: float) -> list[list[float]]:
    """Whole passes, until ``seconds`` have passed and there were MIN_PASSES;
    returns the times of each document, one per pass."""
    times: list[list[float]] = [[] for _ in runner.docs]
    start = perf_counter()
    while len(times[0]) < MIN_PASSES or perf_counter() - start < seconds:
        for i, doc_times in enumerate(times):
            doc_times.append(runner.run(i))
    return times


def emit(metrics: dict, runner: Runner, extra_lines=()):
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for line in extra_lines:
        print(line)
    for kind, count in sorted(runner.failures.items()):
        print(f"failed: {count} x {kind}")
    for message in runner.wrong[:10]:
        print(f"WRONG: {message}")
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    cli = import_cli()
    docs = generate(workload, seed)
    workdir = Path(tempfile.mkdtemp(prefix=f".work-{workload}-", dir=BENCH_DIR))
    try:
        runner = Runner(cli, docs, workdir)
        print(f"workload {workload}, seed {seed}: {len(docs)} documents per pass")
        if not traced:
            setup_s = measure_setup()
            times = timed_loop(runner, seconds)
            elapsed = sum(map(sum, times))
            passes = len(times[0])
            typical = [statistics.median(doc_times) for doc_times in times]
            metrics = {
                "setup_s": (setup_s, "s"),
                "docs_per_s": ((runner.attempted - runner.failed) / passes / sum(typical), "1/s"),
                "doc_s.p50": (statistics.median(typical), "s"),
                "doc_s.p90": (statistics.quantiles(typical, n=10)[8], "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            emit(metrics, runner, [
                f"samples {len(docs)} documents x {passes} passes, {elapsed:.2f} s of documents; "
                f"metrics over each document's median time, {sum(typical):.3f} s per pass",
                f"failed_frac {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted})",
                f"digest {workload} seed {seed} sha256 {runner.pass_digests[0]}",
            ])
            return 0
        for _ in range(2):  # the first pass warms the heap, the second is the baseline
            base = [runner.run(i) for i in range(len(docs))]
        tracer = Tracer()
        tracer.install()
        try:
            traced_times = [runner.run(i) for i in range(len(docs))]
        finally:
            tracer.uninstall()
        traced_s = sum(traced_times)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = (traced_s / sum(base) - 1, "ratio")
        same = runner.pass_digests[0] == runner.pass_digests[2]
        if not same:
            runner.wrong.append("traced pass digest differs from the untraced pass")
        lines = [f"digest {workload} seed {seed} sha256 {runner.pass_digests[0]} "
                 f"(traced pass: {'equal' if same else runner.pass_digests[2]})",
                 f"traced pass {traced_s:.3f} s; span  calls  total_s  self_s  self share"]
        for name, _, _ in SPANS:
            st = tracer.stats[name]
            lines.append(f"  {name:22s} {st.calls:7d} {st.total:9.4f} {st.self:9.4f} {st.self / traced_s:7.1%}")
        emit(metrics, runner, lines)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; print each, then a side-by-side table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':28s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names + ["failed_frac"]:
        row = []
        for w in WORKLOADS:
            r = results[w]
            value = r["failed"] / r["attempted"] if name == "failed_frac" else r["metrics"][name]["value"]
            row.append(f"{value:14.6g}")
        print(f"{name:28s}" + "".join(row))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
