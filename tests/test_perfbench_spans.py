"""The benchmark's traced child still records every span its workload requires.

``perfbench/spans.py`` wraps geodiag functions by name; a call the program
stops making, or a name it renames, leaves a required span empty and the
benchmark run incorrect.  Each test runs ``perfbench/child.py`` in traced
mode on a cut-down op list (the anchors and one seeded op; one realize and
one approximate op for angles) and reads its result.  Nothing under
``perfbench/`` is changed.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cut_spec(workload):
    spec = load_workloads().generate(workload, 1, str(ROOT))
    ops = spec["ops"]
    if workload == "angles":
        kinds = ("realize", "approximate")
        spec["ops"] = [next(op for op in ops if op["kind"] == kind) for kind in kinds]
    else:
        spec["ops"] = ops[: spec["anchors"] + 1]
    # two passes, so that every op's counters are compared with a repeat
    spec["passes"], spec["seconds"] = 2, 0
    return spec


@pytest.mark.parametrize("workload", ["classify", "count", "verify", "angles"])
def test_traced_child_hits_every_required_span(workload, tmp_path):
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps(cut_spec(workload)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), workload, "traced", str(spec_path), str(result_path)],
        cwd=tmp_path, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    result = json.loads(result_path.read_text())
    assert result["missed_spans"] == []
    assert result["counts_repeat"]
    assert result["failed"] == 0 and result["problems"] == []
    assert result["negative_control"] and all(result["negative_control"].values())
