"""Per-layer tracing from outside the library.

During a traced run the tracer rebinds the public entry points of each
layer, in every module that imported them by name, to wrappers; ``remove``
puts the original objects back.  Coarse entry points (parse, refine,
determinant, inverse, combine, matrix add, evaluate, CLI main) record a
span: name, start, end, parent span and job id.  Fine entry points (atom
values, region multiplicities and indicators, parameter resolution, CLI
printing) only count, so their wrappers add little to the span times.
Every wrapper counts the exceptions that pass through it per layer.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import builtins
import json
import math
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from hybridsets import calculus, cli, functions, matrices, refine, regions, workspace

LAYERS = ("workspace", "refine", "calculus", "matrices", "functions", "regions", "cli")

# span name -> (layer, places that bind the entry point under some name)
SPANS = {
    "workspace.parse": ("workspace", [(workspace, "parse_workspace"), (cli, "parse_workspace")]),
    "refine.refine": ("refine", [(refine, "common_strict_refinement"),
                                 (calculus, "common_strict_refinement"),
                                 (matrices, "common_strict_refinement"),
                                 (cli, "common_strict_refinement")]),
    "refine.determinant": ("refine", [(refine, "bareiss_determinant")]),
    "refine.inverse": ("refine", [(refine, "exact_integer_inverse")]),
    "calculus.star": ("calculus", [(calculus, "pointwise_star"), (matrices, "pointwise_star")]),
    "matrices.add": ("matrices", [(matrices, "matrix_add_with_refinement"),
                                  (cli, "matrix_add_with_refinement")]),
    "functions.evaluate": ("functions", [(functions, "evaluate"), (matrices, "evaluate"),
                                         (calculus, "evaluate"), (cli, "eval_expr")]),
    "cli.main": ("cli", [(cli, "main")]),
}

# counter name -> (layer, places)
COUNTERS = {
    "functions.atom_value_calls": ("functions", [(functions.FunctionAtom, "value")]),
    "regions.multiplicity_calls": ("regions", [(regions.SymbolicHybridSet, "multiplicity")]),
    "regions.param_resolutions": ("regions", [(regions, "resolve_param"),
                                              (calculus, "resolve_param"),
                                              (cli, "resolve_param")]),
}

_MISSING = object()


def slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; 0.0 when x does not vary."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (job, span id, parent id, name, start, end)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.refine_sizes: List[Tuple[int, float]] = []  # (size, inclusive seconds)
        self.folds: List[Tuple[int, float]] = []  # (operands, combine seconds) per job
        self.job: Optional[int] = None
        self._stack: List[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._saved: List[tuple] = []
        self._boxes: Dict[str, list] = {}  # fine-grained call counts
        self._triples: set = set()
        self._alive: list = []
        self._job_stars = 0
        self._job_star_s = 0.0

    # -- installing -----------------------------------------------------

    def _bind(self, owner, attr: str, make: Callable) -> None:
        original = vars(owner).get(attr, _MISSING)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        for name, (layer, places) in SPANS.items():
            for owner, attr in places:
                self._bind(owner, attr, lambda fn, n=name, l=layer: self._span(n, l, fn))
        for name, (layer, places) in COUNTERS.items():
            for owner, attr in places:
                self._bind(owner, attr, lambda fn, n=name, l=layer: self._counter(n, l, fn))
        self._bind(regions.RegionAtom, "indicator", self._indicator)
        # cli prints through the builtin; a module global shadows it.
        self._saved.append((cli, "print", vars(cli).get("print", _MISSING)))
        cli.print = self._print

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- jobs ------------------------------------------------------------

    def run_job(self, job_id: int, fn: Callable, *args):
        """Run one job under a root span; returns (result, seconds)."""
        self.job = job_id
        self._triples, self._alive = set(), []
        self._job_stars, self._job_star_s = 0, 0.0
        wrapped = self._span("job", None, fn)
        start = time.perf_counter()
        try:
            return wrapped(*args), time.perf_counter() - start
        finally:
            self.counts["regions.indicator_distinct"] += len(self._triples)
            if self._job_stars:
                self.folds.append((self._job_stars + 1, self._job_star_s))
            self.job = None

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, layer: Optional[str], fn: Callable) -> Callable:
        stack, spans, self_s, errors = self._stack, self.spans, self.self_s, self.errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if layer is not None:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                self_s[name] += took - frame[1]
                spans.append((self.job, span_id, parent, name, start, end))
            self._observe(name, args, result, took)
            return result

        return wrapper

    def _observe(self, name: str, args, result, took: float) -> None:
        counts = self.counts
        if name == "workspace.parse":
            counts["workspace.lines"] += len(args[0].splitlines())
        elif name == "refine.refine":
            counts["refine.calls"] += 1
            counts["refine.size_sum"] += result.size
            counts["refine.size_max"] = max(counts["refine.size_max"], result.size)
            self.refine_sizes.append((result.size, took))
        elif name == "calculus.star":
            counts["calculus.star_calls"] += 1
            self._job_stars += 1
            self._job_star_s += took
        elif name == "functions.evaluate":
            counts["functions.evaluate_calls"] += 1
            counts["functions.eval_terms"] += len(args[0].terms)
            counts["functions.undefined"] += result is functions.UNDEFINED

    def _counter(self, name: str, layer: str, fn: Callable) -> Callable:
        errors, box = self.errors, self._boxes.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            box[0] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise

        return wrapper

    def _indicator(self, fn: Callable) -> Callable:
        errors, box = self.errors, self._boxes.setdefault("regions.indicator_calls", [0])

        def indicator(atom, point, valuation=None):
            box[0] += 1
            # Points and valuations are keyed by identity, which is cheap; the
            # job's list keeps each point alive so that no identity is reused.
            key = (atom.name, id(point), id(valuation))
            if key not in self._triples:
                self._triples.add(key)
                self._alive.append(point)
            try:
                return fn(atom, point, valuation)
            except BaseException:
                errors["regions"] += 1
                raise

        return indicator

    def _print(self, *args, sep=" ", end="\n", file=None, flush=False):
        if file is None:
            text = sep.join(map(str, args)) + end
            self.counts["cli.bytes_out"] += len(text.encode("utf-8"))
        builtins.print(*args, sep=sep, end=end, file=file, flush=flush)

    # -- results -----------------------------------------------------------

    def metrics(self, job_s: float) -> Dict[str, float]:
        """Per-layer metrics; ``job_s`` is the traced job time of the run."""
        ms = {name: 1000.0 * s for name, s in self.self_s.items()}
        c = self.counts + Counter({k: box[0] for k, box in self._boxes.items()})
        evals = c["functions.evaluate_calls"]
        distinct = c["regions.indicator_distinct"]
        attributed = sum(v for k, v in ms.items() if k != "job")
        out = {
            "workspace.parse_ms": ms.get("workspace.parse", 0.0),
            "workspace.lines": c["workspace.lines"],
            "refine.self_ms": ms.get("refine.refine", 0.0),
            "refine.determinant_ms": ms.get("refine.determinant", 0.0),
            "refine.inverse_ms": ms.get("refine.inverse", 0.0),
            "refine.calls": c["refine.calls"],
            "refine.size_sum": c["refine.size_sum"],
            "refine.size_max": c["refine.size_max"],
            "refine.growth_exp": slope(self.refine_sizes),
            "calculus.star_self_ms": ms.get("calculus.star", 0.0),
            "calculus.star_calls": c["calculus.star_calls"],
            "calculus.growth_exp": slope(self.folds),
            "matrices.add_ms": ms.get("matrices.add", 0.0),
            "functions.evaluate_self_ms": ms.get("functions.evaluate", 0.0),
            "functions.evaluate_calls": evals,
            "functions.terms_per_eval": c["functions.eval_terms"] / evals if evals else 0.0,
            "functions.undefined_frac": c["functions.undefined"] / evals if evals else 0.0,
            "functions.atom_value_calls": c["functions.atom_value_calls"],
            "regions.multiplicity_calls": c["regions.multiplicity_calls"],
            "regions.indicator_calls": c["regions.indicator_calls"],
            "regions.param_resolutions": c["regions.param_resolutions"],
            "regions.indicator_redundancy":
                c["regions.indicator_calls"] / distinct if distinct else 0.0,
            "cli.self_ms": ms.get("cli.main", 0.0),
            "cli.bytes_out": c["cli.bytes_out"],
            "trace.job_ms": 1000.0 * job_s,
            "trace.unattributed_ms": ms.get("job", 0.0),
            "trace.attributed_frac": attributed / (1000.0 * job_s) if job_s else 0.0,
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for job, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
