"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run._import_library()
import tracer  # noqa: E402

from hybridsets import cli, regions  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def _result(name: str, seed: int, count: int, trace: int = 0) -> dict:
    result, _ = run.measure(workloads.WORKLOADS[name], seed, count, trace)
    return json.loads(json.dumps(result))


def _bound_names():
    places = [p for _, ps in {**tracer.SPANS, **tracer.COUNTERS}.values() for p in ps]
    return places + [(regions.RegionAtom, "indicator")]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_jobs_and_counts(name):
    wl = workloads.WORKLOADS[name]
    assert repr(wl.generate(7, 12)) == repr(wl.generate(7, 12))
    assert repr(wl.generate(7, 12)) != repr(wl.generate(8, 12))
    first = _result(name, 7, 6)
    second = _result(name, 7, 6)
    assert first["failed"] == 0 and first["attempted"] == 6
    for metric in ("terms_out", "entries_out"):
        assert first["metrics"][metric] == second["metrics"][metric]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_exactly_the_declared_metrics(trace, section):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    result = _result("matrix-table", 4, 2, trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_size_axes_cover_their_ranges():
    refine_sizes = [j.size for j in workloads.refine_generate(1, 100)]
    assert min(refine_sizes) <= 7 and max(refine_sizes) >= 119
    folds = [j.n for j in workloads.fold_generate(1, 100)]
    assert min(folds) == workloads.FOLD_N_MIN and max(folds) == workloads.FOLD_N_MAX
    cells = [j.n * j.m for j in workloads.matrix_generate(1, 100)]
    assert min(cells) < 100 and max(cells) > 3000


def _run_one(wl, job, tmp: Path):
    if wl.prepare is not None:
        wl.prepare([job], tmp)
    out = wl.run(job)
    assert wl.check(job, out) == []
    return out


@pytest.fixture
def workdir():
    path = run.WORKDIR / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)


def test_gate_fires_on_corrupted_reference(workdir):
    wl = workloads.WORKLOADS["refine-wide"]
    job = wl.generate(3, 4)[0]
    out = _run_one(wl, job, workdir)
    job.expected[0][0]["U"] = 2
    assert wl.check(job, out)

    wl = workloads.WORKLOADS["fold-eval"]
    job = wl.generate(3, 4)[0]
    out = _run_one(wl, job, workdir)
    job.amps = (job.amps[0] + Fraction(1, 7),) + job.amps[1:]
    assert wl.check(job, out)

    wl = workloads.WORKLOADS["matrix-table"]
    job = wl.generate(3, 4)[0]
    out = _run_one(wl, job, workdir)
    h1, k1, h2, k2 = job.splits
    job.splits = ((h1 + 1) % (job.n + 1), k1, h2, k2)
    assert wl.check(job, out)


def test_gate_fires_on_corrupted_output(workdir):
    wl = workloads.WORKLOADS["matrix-table"]
    for job in wl.generate(5, 2):
        code, text, err = _run_one(wl, job, workdir)
        lines = text.splitlines()
        if job.fmt == "json-lines":
            record = json.loads(lines[-1])
            record["multiplicity"] = 2
            lines[-1] = json.dumps(record)
        else:
            lines[-1] += " (multiplicity 2)"
        assert wl.check(job, (code, "\n".join(lines) + "\n", err))


def test_untraced_run_leaves_library_untouched():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in _bound_names()]
    _result("matrix-table", 2, 2)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was rebound"
    assert "print" not in vars(cli)


def test_traced_run_restores_library_and_accounts_for_job_time():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in _bound_names()]
    result = _result("fold-eval", 2, 4, trace=1)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
    assert "print" not in vars(cli)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layer_ms = sum(v for k, v in m.items() if k.endswith("_ms") and k.split(".")[0] != "trace")
    assert layer_ms + m["trace.unattributed_ms"] == pytest.approx(m["trace.job_ms"], rel=1e-3)
    assert m["calculus.star_calls"] > 0 and m["functions.evaluate_calls"] == 4 * 64 * 3
    assert all(m[f"{layer}.errors"] == 0 for layer in tracer.LAYERS)


def test_errors_are_counted_per_layer():
    t = tracer.Tracer()
    t.install()
    try:
        with pytest.raises(Exception):
            t.run_job(0, workloads.workspace.parse_workspace, "region = nonsense")
    finally:
        t.remove()
    assert t.errors["workspace"] == 1


def test_slope_recovers_a_power_law():
    assert tracer.slope([(x, 3.0 * x ** 2.5) for x in (2, 5, 11, 40)]) == pytest.approx(2.5)
    assert tracer.slope([(7, 1.0), (7, 2.0)]) == 0.0


def test_exits_nonzero_without_the_library():
    empty = run.WORKDIR / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(HERE, empty / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", empty / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "fold-eval", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(empty)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
