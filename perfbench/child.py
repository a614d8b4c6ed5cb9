"""Measuring process: runs one workload in a fresh interpreter.

Started by ``run.py`` as ``child.py <workload> <mode> <spec> <result>`` with
``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to one thread.  It imports
``geodiag.cli``, builds the lazy state the workload needs and prints
``ready``, which ends the set-up time the parent measures.  In mode
``setup`` it stops there.  Otherwise it reads the spec and runs the ops in a
closed loop (one op starts when the previous one returned): the spec's
number of full passes over the op list, then, until the spec's time budget
is spent, always the op with the least measured time so far among those run
fewer than ``MAX_RUNS`` times, so that every op gets about the same
measuring time and a cheap op many runs.  While the ops run, a timer signal
samples the reference kernel of ``speed.py``, and every time is read with
``speed.clock``, which leaves the samples out.  It then checks the outputs
and writes the raw measurements, with the host's slowness during each run
of each op, to the result file.  Mode ``traced`` installs
the spans of ``spans.py`` before set-up and adds the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import math
import os
import platform
import resource
import sys
from fractions import Fraction

import numpy as np

import geodiag.cli
from geodiag import kahler, lieverify

import checks
import spans
import speed
import workloads

MAX_PROBLEMS = 5
#: Runs after which an op leaves the schedule, so the time left goes to slower ops.
MAX_RUNS = 32


class Out(io.StringIO):
    """The ``out`` stream of one CLI op; remembers when it was first written."""

    first = None

    def write(self, s):
        if self.first is None:
            self.first = speed.clock()
        return super().write(s)


def traced_out(tracer: spans.Tracer):
    class TracedOut(Out):
        def write(self, s):
            if self.first is None:
                self.first = speed.clock()
            i = tracer.begin("cli.render")
            try:
                n = io.StringIO.write(self, s)
            finally:
                tracer.finish(i)
            tracer.counts["cli.render.bytes"] += len(s.encode())
            return n

    return TracedOut


def build_state(setup: dict) -> None:
    """The lazy state the workload's ops need: matrix models and the calibration."""
    if not setup:
        return
    for n in setup["grassmannian_n"]:
        lieverify.grassmannian_decomp(1, n)
    for m in setup["sphere_m"]:
        lieverify.sphere_decomp(m)
    lieverify.calibration_constant()


def cli_op(argv: list[str], out_cls) -> tuple[float, float, object]:
    """Latency, time to first write, and (exit code, output) of one command."""
    out = out_cls()
    t0 = speed.clock()
    rc = geodiag.cli.run(argv, out=out)
    t1 = speed.clock()
    return t1 - t0, (out.first or t1) - t0, (rc, out.getvalue())


def realize_op(op: dict) -> tuple[float, float, dict]:
    """Realize a/b, build the diagonal, check it and sample its Kahler angle.

    The op's first output is its first measured angle.
    """
    t0 = speed.clock()
    r = kahler.realize_angle(Fraction(op["a"], op["b"]), op["m"])
    V = lieverify.construct_diagonal_cp(r.k, r.s, op["m"])
    ok, residual = lieverify.is_lie_triple_system(V)
    rng = np.random.default_rng(op["rng"])
    expected = math.acos(op["a"] / op["b"])
    errors = []
    for _ in range(op["samples"]):
        errors.append(abs(lieverify.kahler_angle_of(V, V.random_unit_vector(rng)) - expected))
        if len(errors) == 1:
            first = speed.clock()
    t1 = speed.clock()
    result = {"k": r.k, "s": r.s, "lie_ok": ok, "lie_residual": residual,
              "angle_error": max(errors)}
    return t1 - t0, first - t0, result


def approximate_op(op: dict) -> tuple[float, float, dict]:
    t0 = speed.clock()
    r = kahler.approximate_angle(op["target"], op["epsilon"], op["m"])
    t1 = speed.clock()
    return t1 - t0, t1 - t0, {"k": r.k, "s": r.s}


def op_runners(spec: dict, out_cls) -> list:
    """One zero-argument callable per op, in op-list order."""
    if spec["workload"] == "angles":
        return [
            (lambda op=op: realize_op(op)) if op["kind"] == "realize"
            else (lambda op=op: approximate_op(op))
            for op in spec["ops"]
        ]
    runners = []
    for op in spec["ops"]:
        argv = [*spec["command"], "-m", op["product"]]
        if spec["workload"] == "verify":
            argv += ["--seed", str(spec["seed"])]
        runners.append(lambda argv=argv: cli_op(argv, out_cls))
    return runners


def output_checker(spec: dict, repo: str):
    """``check(op, output) -> problems`` for the workload's outputs."""
    expected = checks.load_expected()
    workload = spec["workload"]
    if workload == "angles":
        return lambda op, result: (
            checks.realize_problems(op, result) if op["kind"] == "realize"
            else checks.approximate_problems(op, result)
        )
    sys.path.insert(0, os.path.join(repo, "tests"))
    from oracles import table1

    if workload == "classify":
        checker = checks.ClassifyChecker(table1, expected)
        return lambda op, text: checker.problems(
            op["product"], workloads.parse(op["product"]), text, op["entries"])
    if workload == "count":
        return lambda op, text: checks.count_problems(text, op["entries"])
    verdicts = expected["verify_verdicts"]
    return lambda op, text: checks.verify_problems(text, op["entries"], verdicts.get(op["product"]))


def entries_of(workload: str, output) -> int:
    """Classification entries delivered by one op: lines, the count, or one angle check."""
    if workload == "angles":
        return 1
    if workload == "count":
        return int(output)
    return output.count("\n")


def _digest(output) -> str:
    text = output if isinstance(output, str) else json.dumps(output, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    workload, mode, spec_path, result_path = argv
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        spans.install(tracer)
    build_state(workloads.load_params()[workload]["setup"])
    print("ready", flush=True)
    if mode == "setup":
        return 0

    with open(spec_path) as fh:
        spec = json.load(fh)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runners = op_runners(spec, Out if tracer is None else traced_out(tracer))
    n_ops = len(runners)
    speedometer = speed.Speedometer()
    latencies: list[list[float]] = [[] for _ in range(n_ops)]
    exec_bounds: list[tuple[float, float]] = []
    firsts: list[list[float]] = [[] for _ in range(n_ops)]
    first_outputs: list = [None] * n_ops
    digests: list[str | None] = [None] * n_ops
    op_counts: list = [None] * n_ops
    exec_op: list[int] = []
    failed_ops = [False] * n_ops
    failed = 0
    counts_repeat = True
    problems: list[str] = []

    def execute(i: int) -> float:
        """Run op i once; return its latency (infinite when it raised)."""
        nonlocal failed, counts_repeat
        if tracer is not None:
            tracer.op_id = len(exec_op)
        exec_op.append(i)
        t0 = speed.clock()
        try:
            latency, first, output = runners[i]()
        except Exception as exc:  # an op that raised counts as failed, the run goes on
            latency, first, output = math.inf, math.inf, None
            problems.append(f"op {i} raised {exc!r}")
        exec_bounds.append((t0, speed.clock()))
        latencies[i].append(latency)
        firsts[i].append(first)
        bad = output is None or (not isinstance(output, dict) and output[0] != 0)
        counts = tracer.take_op_counts() if tracer is not None else None
        if digests[i] is None:
            first_outputs[i], digests[i], op_counts[i] = output, _digest(output), counts
        else:
            if not bad and _digest(output) != digests[i]:
                problems.append(f"op {i}: output differs from its first run")
                bad = True
            if counts is not None and counts[0] != op_counts[i][0]:
                counts_repeat = False
        failed_ops[i] = failed_ops[i] or bad
        failed += bad
        return latency

    speedometer.start()
    t_start = speed.clock()
    for _ in range(spec["passes"]):
        for i in range(n_ops):
            execute(i)
    # the later runs only repeat ops, so the passes have seen the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    queue = [(sum(latencies[i]), i) for i in range(n_ops)]
    heapq.heapify(queue)
    while queue:
        spent, i = heapq.heappop(queue)
        if speed.clock() - t_start + latencies[i][-1] > spec["seconds"]:
            break
        spent += execute(i)
        if len(latencies[i]) < MAX_RUNS:
            heapq.heappush(queue, (spent, i))
    speedometer.stop()
    exec_slowness = [speedometer.slowness(t0, t1) for t0, t1 in exec_bounds]
    slowness: list[list[float]] = [[] for _ in range(n_ops)]
    for i, k in zip(exec_op, exec_slowness):
        slowness[i].append(k)

    check = output_checker(spec, repo)
    texts = [o if o is None or isinstance(o, dict) else o[1] for o in first_outputs]
    for i, op in enumerate(spec["ops"]):
        if failed_ops[i]:
            continue
        try:
            found = check(op, texts[i])
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            problems.append(f"op {i} ({op.get('product', op.get('kind'))}): {found[0]}")
            failed += len(latencies[i])
            failed_ops[i] = True
    if workload == "classify":
        found = checks.schema_problems([t for t in texts if t is not None],
                                       os.path.join(repo, "schema", "classified.json"), spec["seed"])
        problems += found
        failed += bool(found)
    if any(t is None for t in texts):
        control = {"negative_control_ran": False}
    else:
        control = checks.negative_control(workload, texts, spec, check)
    entries = sum(entries_of(workload, t) for t, bad in zip(texts, failed_ops) if not bad)

    result = {
        "latencies": latencies,
        "firsts": firsts,
        "slowness": slowness,
        "kernel_samples": len(speedometer.at),
        "entries_per_pass": entries,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(exec_op),
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "negative_control": control,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer, op_counts, exec_op, exec_slowness)
        if workload == "angles":
            layers["lieverify.worst_angle_error"] = max(
                t["angle_error"] for t in texts if t is not None and "angle_error" in t)
        hits = spans.span_hits(tracer)
        result["layers"] = layers
        result["hits"] = hits
        result["missed_spans"] = [name for name in spec["hits"] if not hits[name]]
        result["counts_repeat"] = counts_repeat
        tracer.save(os.path.join(os.path.dirname(result_path), f"spans-{workload}.npz"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
