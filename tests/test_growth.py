"""Growth guards: how the library's Python work grows with the size of its
input, counted in line events, which do not depend on the host's speed.

The first ``evaluate`` of a stepped binary fold of N fold-eval operands is
counted with ``sys.settrace``: a global tracer that returns a local tracer
for frames whose code lies under ``src/hybridsets`` only, so a library line
counts once each time it runs, and test, standard-library and C work
count nothing.  The fold is built before the trace starts.  The exponent
is log2(events at 2N / events at N) for N = 40; it read 1.77 when the plan
wrote out and walked the N(N + 1) term-word entries, and reads about 0.97
when the plan is made from the fold's records.  A ``*`` pass at three
points fixed in proportion to U, over folds of N = 40 and 80, keeps no
value, so each of its indicator vectors is accumulated from the records:
it reads 0.96, and 1.27 when the pass writes the terms out first; the
ceiling is 1.1.  Under seeded random thresholds, where the number of
records active at a vector grows with N, the mean entries merged per
accumulated vector read 0.95, and 1.90 when each record holds its
term's merged birth word; the ceiling is 1.2.  A pass at P and 2P points
placed in the same cells, the plan made inside it, reads 0.93 on the
additive route and 0.74 on the per-vector route, with a ceiling of 1.1;
one that walks the points already seen for each point reads 1.95.

``parse_workspace`` of a workspace of chain partitions (as
``tests/golden/make.py``'s ``chain_text`` writes one) is counted at about
L = 160 and 2L = 320 lines, its exponent taken against the ratio of the
line counts: it reads 1.00, with a ceiling of 1.1.  A parse that walks the
whole text again in Python for every line reads 1.69; one that re-splits it
with ``str.split``, which runs in C, is not seen, as only Python lines
count.  One n-ary
closed-form ``pointwise_star`` of the N operands of ``steps_workspace(N)``
is counted at N = 40 and 80.  It builds a compact form of N + 1 records
and reads 0.99 (0.98 from N = 20, 0.99 from N = 80), with a ceiling of
1.1; writing out its N(N + 1) word entries read 1.89.
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hybridsets
from golden.make import chain_text
from hybridsets import (
    PLUS,
    TIMES,
    Valuation,
    evaluate,
    evaluate_many,
    hybridset,
    parse_workspace,
    pointwise_star,
)
from hybridsets import calculus, functions
from test_calculus import step_fold, steps_workspace

LIBRARY = str(Path(hybridsets.__file__).resolve().parent)


def _fold(n, star=PLUS):
    """The binary fold of ``steps_workspace(n)`` under ``star`` and a
    valuation with tied thresholds."""
    e = step_fold(steps_workspace(n), n, star)
    return e, Valuation({"t": n + 2, **{f"k{i}": (7 * i) % n for i in range(1, n + 1)}})


def _line_events(call):
    """The library line events of ``call()``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(LIBRARY) else None

    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def test_a_first_evaluate_of_a_stepped_fold_grows_linearly():
    events = []
    for n in (40, 80):
        e, v = _fold(n)
        assert e._source.added  # a stepped compact form
        events.append(_line_events(lambda: evaluate(e, Fraction(1, 2), v)))
    assert math.log2(events[1] / events[0]) <= 1.2, events


def test_a_times_pass_over_a_stepped_fold_grows_linearly():
    # A * fold keeps no value, so each new indicator vector is accumulated
    # from the fold's records; writing its terms out would merge their
    # N(N + 1) / 2 added-word entries in Python.
    events = []
    for n in (40, 80):
        e, v = _fold(n, TIMES)
        points = [Fraction(j * (n + 2), 4) for j in (1, 2, 3)]
        events.append(_line_events(lambda: list(evaluate_many(e, points, v))))
    assert math.log2(events[1] / events[0]) <= 1.1, events


def test_a_times_pass_merges_entries_linear_in_the_steps(monkeypatch):
    # Each accumulated vector merges the own words of the records active at
    # it and each link and added word once, O(N) entries; merging each
    # active term's word written out from its birth makes O(N^2).
    means = []
    merge, accumulate = functions.merge, functions._accumulate
    for n in (40, 80):
        e = step_fold(steps_workspace(n), n, TIMES)
        rng = random.Random(n)
        v = Valuation({"t": n + 2, **{f"k{i}": rng.randrange(n) for i in range(1, n + 1)}})
        points = [Fraction(j, 2) for j in range(-2, 2 * (n + 2) + 3)]
        read = []

        def counted_merge(groups, *args):
            def counted(entries):
                for entry in entries:
                    read[-1] += 1
                    yield entry
            return merge(((counted(entries), k) for entries, k in groups), *args)

        def counted_accumulate(plan, multiplicities):
            read.append(0)
            return accumulate(plan, multiplicities)

        monkeypatch.setattr(functions, "merge", counted_merge)
        monkeypatch.setattr(functions, "_accumulate", counted_accumulate)
        list(evaluate_many(e, points, v))
        means.append(sum(read) / len(read))
    assert math.log2(means[1] / means[0]) <= 1.2, means


@pytest.mark.parametrize("star", [PLUS, TIMES], ids=["additive", "per-vector"])
def test_a_pass_grows_linearly_in_its_points(star):
    # q points in each gap between the integers from -1 to N + 3, so 2q
    # points meet the same cells as q; the pass makes the plan, and keys
    # and finishes each point.
    events = []
    for q in (40, 80):
        e, v = _fold(10, star)
        points = sorted(c + Fraction(i, q + 1) for c in range(-1, 13) for i in range(1, q + 1))
        events.append(_line_events(lambda: list(evaluate_many(e, points, v))))
        assert isinstance(e._plan.slot[3], functions._AdditiveSweep) == (star is PLUS)
    assert math.log2(events[1] / events[0]) <= 1.1, events


def test_a_parse_grows_linearly_in_the_lines():
    # The paper's refinement works on the text's symbols alone, so reading
    # that text is to take time linear in it (aim 3).
    counts = []
    for m in (20, 40):
        text = chain_text([8] * m)
        counts.append((text.count("\n"), _line_events(lambda: parse_workspace(text))))
    (lines, events), (lines2, events2) = counts
    assert math.log(events2 / events) / math.log(lines2 / lines) <= 1.1, counts


def test_an_nary_closed_form_grows_no_faster_than_its_word_entries():
    # The closed form's N + 1 terms hold N(N + 1) word entries for N
    # operands; its compact form holds one record per term and writes none.
    events = []
    for n in (40, 80):
        ws = steps_workspace(n)
        operands = [ws.exprs[f"H{i}"] for i in range(1, n + 1)]
        events.append(_line_events(lambda: pointwise_star(PLUS, *operands, universe=ws.regions["U"])))
    assert math.log2(events[1] / events[0]) <= 1.1, events


def test_the_additive_route_builds_no_term_and_merges_nothing(monkeypatch):
    e, v = _fold(40)
    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(calculus._Compact, "terms", refused("_Compact.terms"))
    monkeypatch.setattr(hybridset, "merge", refused("hybridset.merge"))
    monkeypatch.setattr(functions, "merge", refused("functions.merge"))
    outcomes = [evaluate(e, Fraction(j, 2), v) for j in range(-2, 2 * 42 + 3)]
    assert not calls and "terms" not in e.__dict__
    assert isinstance(e._plan.slot[3], functions._AdditiveSweep)
    assert sum(o is not functions.UNDEFINED for o in outcomes) == 2 * 42 + 1
