"""The checked-in benchmark results (``BENCH_*.json`` at the repository root).

Every set of paired runs states whether all its runs read correct and how
many operations each run failed, as ``[baseline, compared side]`` per pair;
those fields must agree with the pairs they summarize.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def paired_sets(results):
    """Every set of paired runs in a results file: the lists of dicts with ``pairs``."""
    return [
        s
        for value in results.values()
        if isinstance(value, list)
        for s in value
        if isinstance(s, dict) and "pairs" in s
    ]


def test_there_are_result_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_sets_agree_with_their_pairs(path):
    sets = paired_sets(json.loads(path.read_text()))
    assert sets
    for s in sets:
        # failed is [baseline, compared side] per pair; the baseline has quartiles
        metric = next(iter(s["summary"].values()))
        baseline = next(key[: -len("_q1")] for key in metric if key.endswith("_q1"))
        compared = next(side for side in s["pairs"][0] if side not in ("pair", baseline))
        runs = [pair[side] for pair in s["pairs"] for side in (baseline, compared)]
        assert s["all_correct"] == all(run["correct"] for run in runs)
        assert s["failed"] == [
            [pair[baseline]["failed"], pair[compared]["failed"]] for pair in s["pairs"]
        ]
