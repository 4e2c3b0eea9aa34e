"""Seeded closed-loop benchmark of the hybridsets library.

    python3 perfbench/run.py --workload refine-wide --seed 1 --seconds 25 --trace 0

One client, one process, no threads: each job starts when the previous one
has finished.  The job count is fixed by ``--seconds`` (a nominal job rate
per workload times the seconds, and at least 100 jobs so that p90 has ten
samples beyond it), so every count repeats exactly for a given seed; on the
reference machine a run then lasts about ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics.  Their times
are at the reference machine's speed: each job and each part of a set-up
round is timed between two runs of a fixed reference computation, in the
same process, and scaled by the reference's nominal time over its measured
time (see ``_calibrated`` and ``_import_seconds``).  The times as measured
are printed too, as ``measured.<name>``.  With
``--trace 1`` every job runs twice, once untraced and once traced, in
alternating order, and the run reports per-layer metrics (as measured) plus
the tracing overhead.  Every job output is checked, untimed, against an
independent reference.  Metrics go to stdout one per line, and the last
line is one JSON object.  The library is imported from ``src/`` next to
this directory; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

MIN_JOBS = 100
# Jobs per second of --seconds.  On the reference machine, a 2-vCPU x86-64
# VM at 2.0 GHz with Python 3.11, a run then lasts 1 to 1.4 times --seconds,
# and p90 rests on 17 to 30 jobs beyond it.
NOMINAL_RATE = {"refine-wide": 12.0, "fold-eval": 7.0, "matrix-table": 8.0}
SETUP_ROUNDS = 9
# Seconds the reference computations (``_reference`` and the one in
# ``_IMPORT_PROBE``) take on the reference machine; times are reported at
# that machine's speed.
REFERENCE_S = 0.006
IMPORT_REFERENCE_S = 0.0033

# Run in a fresh interpreter: times the library's import between two runs of
# a fixed reference computation, so that both see the same process.  The
# reference uses builtins only, so that nothing the library imports is
# loaded before the timed import.  Prints the import's seconds and the mean
# seconds of the two references.
_IMPORT_PROBE = r"""
import gc, sys, time
sys.path.insert(0, sys.argv[1])

def reference():
    n = 24
    a = [[(i * 7 + j * 3) % 11 + 50 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    counts = {}
    for i in range(3000):
        key = f"a{i % 97}"
        counts[key] = counts.get(key, 0) + i

def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start

gc.disable()
reference()
before = timed(reference)
gc.enable()
took = timed(lambda: __import__("hybridsets.cli"))
gc.disable()
after = timed(reference)
print(took, (before + after) / 2)
"""

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_p90": "ms",
    "terms_out": "count", "entries_out": "count", "peak_rss_mb": "MB",
}


def _import_library():
    """Import the library from this checkout's src/, or exit with status 2."""
    if not (SRC / "hybridsets" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hybridsets
    if Path(hybridsets.__file__).resolve().parent != SRC / "hybridsets":
        print(f"error: imported hybridsets from {hybridsets.__file__}", file=sys.stderr)
        raise SystemExit(2)
    import workloads
    return workloads


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _import_seconds():
    """(seconds at reference speed, seconds measured) of importing the
    library in a fresh interpreter, calibrated inside that interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    took, reference = map(float, proc.stdout.split())
    return took * IMPORT_REFERENCE_S / reference, took


def setup(wl, seed: int, count: int, workdir: Path):
    """Import (in a fresh interpreter), generate inputs, write workspace
    files and run one warm-up job.

    Returns (jobs, seconds at reference speed, seconds measured)."""

    def make_inputs():
        start = time.perf_counter()
        jobs = wl.generate(seed, count)
        warm = wl.warmup(seed)
        if wl.prepare is not None:
            wl.prepare(jobs + [warm], workdir)
        problems = wl.check(warm, wl.run(warm))
        if problems:
            raise RuntimeError(f"warm-up job failed its check: {problems[0]}")
        return jobs, time.perf_counter() - start

    # Remove the previous round's files, untimed, so that every round writes
    # new files as the first does: overwriting a file can cost several times
    # as much, and vary far more, than writing a new one.
    shutil.rmtree(workdir, ignore_errors=True)
    import_s, import_measured = _import_seconds()
    jobs, took, measured = _calibrated(make_inputs)
    return jobs, import_s + took, import_measured + measured


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _reference_seconds() -> float:
    """Time ``_reference`` with the collector off, so that its cost does not
    depend on how many objects the library left alive."""
    gc.disable()
    try:
        return _timed(_reference)[1]
    finally:
        gc.enable()


def _reference():
    """A fixed computation in the library's style (Gauss-Jordan over
    Fractions, then string-keyed dict updates).  It is part of the benchmark,
    so no change to the library changes its cost."""
    n = 16
    work = [[Fraction(int(j >= i)) for j in range(n)]
            + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    counts = {}
    for i in range(3000):
        key = f"a{i % 97}"
        counts[key] = counts.get(key, 0) + i
    return work, counts


def _calibrated(work):
    """Call ``work`` (which returns a result and its seconds) between two
    timings of the reference computation.

    Returns (result, seconds at reference speed, seconds measured), where
    seconds at reference speed = seconds measured x REFERENCE_S / the mean
    measured time of the two references.  The host this was tuned on changes
    speed by up to 1.5x, both for seconds and for minutes at a time; the
    references, timed around the work, run at the same speed, so the ratio
    cancels most of that."""
    before = _reference_seconds()
    result, took = work()
    after = _reference_seconds()
    return result, took * REFERENCE_S / ((before + after) / 2), took


def _uncalibrated(work):
    result, took = work()
    return result, took, took


class Tally:
    """Job times, gate failures and output counts of one pass over the jobs."""

    def __init__(self, wl):
        self.wl = wl
        self.seconds = []
        self.measured = []  # the same, before calibration
        self.failed = set()  # job indices
        self.terms = 0
        self.entries = 0

    def attempt(self, job, call) -> None:
        """Run ``call``, which returns the output, its seconds and its
        measured seconds; then check the output, untimed."""
        gc.collect()  # so that one job's garbage is not charged to the next
        try:
            out, took, measured = call()
        except Exception as e:  # an unexpected library error fails the job
            print(f"job {job.index}: {type(e).__name__}: {e}", file=sys.stderr)
            self.failed.add(job.index)
            return
        self.seconds.append(took)
        self.measured.append(measured)
        problems = self.wl.check(job, out)
        if problems:
            print(f"job {job.index}: {len(problems)} problems, first: {problems[0]}",
                  file=sys.stderr)
            self.failed.add(job.index)
        terms, entries = self.wl.counts(job, out)
        self.terms += terms
        self.entries += entries

    def p_ms(self, q: float, seconds=None) -> float:
        seconds = self.seconds if seconds is None else seconds
        return 1000.0 * quantile(seconds, q) if seconds else 0.0


def run_plain(wl, seed: int, count: int, workdir: Path):
    """Times are at reference speed (see ``_calibrated``); the measured
    times are printed alongside, by name, and are not part of the result."""
    setups = []  # (seconds at reference speed, seconds measured) per round
    for _ in range(SETUP_ROUNDS):
        jobs, took, measured = setup(wl, seed, count, workdir)
        setups.append((took, measured))
    tally = Tally(wl)
    for job in jobs:
        tally.attempt(job, lambda: _calibrated(lambda: _timed(wl.run, job)))
    metrics = {
        "setup_s": statistics.median(took for took, _ in setups),
        "jobs_per_s": _rate(tally.seconds),
        "job_ms_p50": tally.p_ms(0.5),
        "job_ms_p90": tally.p_ms(0.9),
        "terms_out": tally.terms,
        "entries_out": tally.entries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = {
        "setup_s": statistics.median(measured for _, measured in setups),
        "jobs_per_s": _rate(tally.measured),
        "job_ms_p50": tally.p_ms(0.5, tally.measured),
        "job_ms_p90": tally.p_ms(0.9, tally.measured),
    }
    return len(tally.failed), metrics, measured


def _rate(seconds) -> float:
    busy = sum(seconds)
    return len(seconds) / busy if busy else 0.0


def run_traced(wl, seed: int, count: int, workdir: Path):
    """Each job once untraced and once traced, alternating which goes first."""
    from tracer import Tracer

    jobs, _, _ = setup(wl, seed, count, workdir)
    tracer = Tracer()
    plain, traced = Tally(wl), Tally(wl)

    def traced_call(job):
        tracer.install()
        try:
            return tracer.run_job(job.index, wl.run, job)
        finally:
            tracer.remove()

    for k, job in enumerate(jobs):
        passes = [(plain, lambda: _uncalibrated(lambda: _timed(wl.run, job))),
                  (traced, lambda: _uncalibrated(lambda: traced_call(job)))]
        for tally, call in passes[::-1] if k % 2 else passes:
            tally.attempt(job, call)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.write(workdir / "spans.jsonl")
    metrics = tracer.metrics(sum(traced.seconds))
    base = plain.p_ms(0.5)
    metrics["trace.overhead_frac"] = traced.p_ms(0.5) / base - 1.0 if base else 0.0
    return len(plain.failed | traced.failed), metrics, {}


def measure(wl, seed: int, count: int, trace: int):
    """Run ``count`` jobs of workload ``wl``, traced or not.

    Returns the result object (the last line ``main`` prints) and the
    untraced times as measured, by metric name."""
    workdir = WORKDIR / wl.name / f"seed{seed}"
    if trace:
        failed, metrics, measured = run_traced(wl, seed, count, workdir)
    else:
        failed, metrics, measured = run_plain(wl, seed, count, workdir)
    report = {name: {"value": value, "unit": END_TO_END_UNITS.get(name) or _layer_unit(name)}
              for name, value in metrics.items()}
    result = {"correct": failed == 0, "attempted": count, "failed": failed, "metrics": report}
    return result, measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_library()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    count = max(MIN_JOBS, round(args.seconds * NOMINAL_RATE[wl.name]))
    result, measured = measure(wl, args.seed, count, args.trace)

    failed = result["failed"]
    print(f"workload {wl.name}, seed {args.seed}, {count} jobs, trace {args.trace}")
    print(f"failed_frac {failed / count:.6f} ratio ({failed} of {count})")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    for name, value in measured.items():
        print(f"measured.{name} {value} {END_TO_END_UNITS[name]}")
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_exp", "per_eval", "redundancy")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
