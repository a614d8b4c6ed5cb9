"""Output checks that decide whether an op failed, and the negative control.

Every check returns a list of problems; an empty list means the output is
correct.  The checks share no code with geodiag: entry counts and the
rank-one table come from ``tests/oracles.py``, diagonal curvatures are
recomputed here as ``1/c = sum 1/c'_i``, and the anchor outputs are
compared with what ``expected.json`` recorded when the benchmark was made.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
LIE_TOL = 1e-9
CURVATURE_TOL = 1e-8
ANGLE_TOL = 1e-9
SCHEMA_SAMPLE = 64


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


class ClassifyChecker:
    """Checks ``classify --json`` output record by record against the oracle table."""

    def __init__(self, table1, expected: dict):
        self._table1 = table1
        self._subs: dict[tuple, set] = {}
        self._sha = expected["classify_sha256"]

    def _admissible(self, ambient: tuple) -> set:
        if ambient not in self._subs:
            self._subs[ambient] = set(self._table1(*ambient)) | {ambient}
        return self._subs[ambient]

    def record_problems(self, record: dict, factors: list[tuple]) -> list[str]:
        rows = record["tableau"]
        if len(record["factors"]) != len(rows):
            return ["one semisimple factor per tableau row expected"]
        used: set[int] = set()
        for (field, n, curv), row in zip(record["factors"], rows):
            subs = []
            for box in row:
                i = box["factor"]
                if i in used or not 1 <= i <= len(factors):
                    return [f"factor {i} repeated or out of range"]
                used.add(i)
                sub = (box["sub"]["field"], box["sub"]["n"], Fraction(box["sub"]["curv"]))
                if sub not in self._admissible(factors[i - 1]):
                    return [f"{sub} is not totally geodesic in factor {i}"]
                subs.append(sub)
            if {(f, k) for f, k, _ in subs} != {(field, n)}:
                return [f"row {row} is not homothetic to {field}H{n}"]
            if Fraction(curv) != 1 / sum(1 / c for _, _, c in subs):
                return [f"curvature {curv} is not the harmonic sum of its row"]
        complement = [i for i in range(1, len(factors) + 1) if i not in used]
        if record["complement"] != complement:
            return [f"complement {record['complement']} should be {complement}"]
        if not 0 <= record["flat_dim"] <= len(complement):
            return [f"flat dimension {record['flat_dim']} out of range"]
        return []

    def problems(self, product: str, factors: list[tuple], text: str, entries: int) -> list[str]:
        if product in self._sha:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != self._sha[product]:
                return [f"output digest {digest} differs from the recorded one"]
        lines = text.splitlines()
        if len(lines) != entries:
            return [f"{len(lines)} entries, oracle counts {entries}"]
        if len(set(lines)) != len(lines):
            return ["duplicate entries"]
        for line in lines:
            found = self.record_problems(json.loads(line), factors)
            if found:
                return found
        return []


def schema_problems(texts: list[str], schema_path: str, seed: int) -> list[str]:
    """Validate a seeded sample of classify records against the v1 schema."""
    import jsonschema

    with open(schema_path) as fh:
        validator = jsonschema.Draft7Validator(json.load(fh))
    lines = [line for text in texts for line in text.splitlines()]
    sample = random.Random(f"schema:{seed}").sample(lines, min(SCHEMA_SAMPLE, len(lines)))
    for line in sample:
        errors = list(validator.iter_errors(json.loads(line)))
        if errors:
            return [f"schema: {errors[0].message}"]
    return []


def count_problems(text: str, entries: int) -> list[str]:
    return [] if text == f"{entries}\n" else [f"count printed {text!r}, oracle counts {entries}"]


def verify_problems(text: str, entries: int, verdicts: list | None) -> list[str]:
    records = [json.loads(line) for line in text.splitlines()]
    if len(records) != entries:
        return [f"{len(records)} verify records, oracle counts {entries}"]
    if verdicts is not None and [[r["isometry_type"], r["status"]] for r in records] != verdicts:
        return ["verdicts differ from the recorded list"]
    for r in records:
        if r["status"] != "pass" or r["unsupported"] or not r["flat_supported"]:
            return [f"{r['isometry_type']}: status {r['status']}"]
        total = r["total_lie_residual"]
        if total is not None and not total <= LIE_TOL:
            return [f"{r['isometry_type']}: total Lie residual {total}"]
        for row in r["rows"]:
            if row["status"] != "ok" or not row["lie_residual"] <= LIE_TOL:
                return [f"{r['isometry_type']} row {row['row']}: {row['status']}"]
            if not row["curvature_error"] <= CURVATURE_TOL:
                return [f"{r['isometry_type']} row {row['row']}: curvature off"]
    return []


def realize_problems(op: dict, result: dict) -> list[str]:
    """A realize op: exact cosine a/b, a Lie triple system, and measured angles."""
    k, s = result["k"], result["s"]
    if Fraction(abs(2 * s - k), k) != Fraction(op["a"], op["b"]):
        return [f"k={k}, s={s} does not realize cosine {op['a']}/{op['b']}"]
    if not (result["lie_ok"] and result["lie_residual"] <= LIE_TOL):
        return [f"Lie triple residual {result['lie_residual']}"]
    if not result["angle_error"] <= ANGLE_TOL:
        return [f"Kahler angle off by {result['angle_error']}"]
    return []


def approximate_problems(op: dict, result: dict) -> list[str]:
    k, s = result["k"], result["s"]
    error = abs(math.acos(abs(2 * s - k) / k) - op["target"])
    if not error < op["epsilon"]:
        return [f"angle of k={k}, s={s} is {error} from the target"]
    return []


def negative_control(workload: str, first_pass: list, spec: dict, check) -> dict[str, bool]:
    """Corrupt outputs of the workload; each value is True when the checker rejects it.

    ``check(op, output)`` is the workload's own check.  Seeded ops (after the
    anchors) are corrupted so that the per-record checks, not only the anchor
    digests and verdict lists, must catch the change.
    """
    ops, seeded = spec["ops"], spec["anchors"]
    if workload == "classify":
        return {
            "classify_anchor_curvature_changed": bool(
                check(ops[0], _change_curvature(first_pass[0]))),
            "classify_curvature_changed": bool(
                check(ops[seeded], _change_curvature(first_pass[seeded]))),
        }
    if workload == "count":
        return {"count_off_by_one": bool(check(ops[seeded], f"{ops[seeded]['entries'] + 1}\n"))}
    if workload == "verify":
        lines = first_pass[seeded].splitlines()
        record = json.loads(lines[-1])
        record["status"] = "fail"
        lines[-1] = json.dumps(record, separators=(",", ":"))
        return {"verify_status_fail": bool(check(ops[seeded], "\n".join(lines) + "\n"))}
    result = dict(first_pass[0], s=first_pass[0]["s"] + 1)
    return {"angles_wrong_identifications": bool(check(ops[0], result))}


def _change_curvature(text: str) -> str:
    """Double the curvature of the first semisimple factor in the output."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line)["factors"])
    record = json.loads(lines[at])
    curv = Fraction(record["factors"][0][2]) * 2
    record["factors"][0][2] = str(curv)
    lines[at] = json.dumps(record, separators=(",", ":"))
    return "\n".join(lines) + "\n"
