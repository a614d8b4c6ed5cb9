"""geodiag benchmark: one workload, end-to-end metrics or a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Workloads (parameters and reasons in ``workloads.json``): ``classify``,
``count``, ``verify`` and ``angles``.  The seed makes the inputs; the
program only sees the generated product strings and angles.  Load comes
from one process with no extra threads, as a closed loop: each op starts
when the previous one returned.  Each workload runs in its own fresh child
interpreter (``child.py``) with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP
pinned to one thread, so set-up time and peak RSS belong to that workload.
The run and its children stay on one CPU.

With ``--trace 0`` the run reports the end-to-end metrics (``README.md``):
``setup_s`` (fresh interpreter to ready, median of several set-ups),
``wall_s`` (one pass over the op list), ``op_ms_p50``/``op_ms_p90`` (latency
of one op), ``first_line_ms_p50`` (op start to first write into ``out``; for
realize ops, to the first measured angle), ``entries_per_s`` and
``peak_rss_mb``.  Every time is divided by the host's slowness while it was
taken (``speed.py``), and an op's latency is the median of its runs.  With
``--trace 1`` it runs the workload once untraced and once with spans around
the public functions of every layer (``spans.py``), and reports the
per-layer metrics and the tracing overhead.

Every output is checked (``checks.py``); ops that raise, exit non-zero or
fail a check are counted in ``failed``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it describe the run.  Without the repository's ``src``,
``tests`` and ``schema`` next to this directory the run stops with exit
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT_DIR = os.path.join(REPO, ".perfbench")
REQUIRED = (
    os.path.join("src", "geodiag", "cli.py"),
    os.path.join("tests", "oracles.py"),
    os.path.join("schema", "classified.json"),
)
SETUP_PROBES = 7
#: Kernel samples taken on each side of a set-up probe.
SETUP_KERNEL_SAMPLES = 4
TRACE_PASSES = 2
TRACE_UNTRACED_SHARE = 0.4
CHILD_TIMEOUT_S = 150
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "first_line_ms_p50": "ms",
    "entries_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(workload: str, mode: str, spec_path: str) -> tuple[float, dict | None]:
    """Start a fresh child; return its set-up time and, unless mode is setup, its result."""
    result_path = os.path.join(OUT_DIR, f"{workload}-{mode}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, mode, spec_path, result_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=REPO, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} child timed out")
    finally:
        if proc.poll() is None:  # timed out, or this run was interrupted
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        raise BenchError(f"{workload} {mode} child failed with exit code {rc}")
    if mode == "setup":
        return setup_s, None
    with open(result_path) as fh:
        return setup_s, json.load(fh)


def per_op(runs: list[list[float]], slowness: list[list[float]]) -> list[float]:
    """Each op's time: the median of its runs, each divided by the host's slowness then."""
    return [statistics.median(t / k for t, k in zip(ts, ks)) for ts, ks in zip(runs, slowness)]


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and the sample counts behind them.

    Times are normalised to the host's fast phases (``speed.py``); an op's
    latency is the median of its normalised runs.
    """
    latencies = per_op(res["latencies"], res["slowness"])
    firsts = per_op(res["firsts"], res["slowness"])
    wall = sum(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * p90,
        "first_line_ms_p50": 1e3 * statistics.median(firsts),
        "entries_per_s": res["entries_per_pass"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    runs = sorted(len(r) for r in res["latencies"])
    slowness = [k for ks in res["slowness"] for k in ks]
    samples = {
        "op_samples": len(latencies),
        "ops_beyond_p90": sum(v > p90 for v in latencies),
        "runs_per_op_min_median_max": [runs[0], statistics.median(runs), runs[-1]],
        "raw_wall_s_fastest_runs": sum(min(r) for r in res["latencies"]),
        "slowness_min_median_max": [min(slowness), statistics.median(slowness), max(slowness)],
        "kernel_samples": res["kernel_samples"],
    }
    return metrics, samples


def setup_probe(workload: str, spec_path: str, speedometer: speed.Speedometer) -> tuple[float, float]:
    """One fresh set-up: (normalised, raw) time, with kernel samples on each side."""
    for _ in range(SETUP_KERNEL_SAMPLES):
        speedometer.sample()
    t0 = speed.clock()
    raw = run_child(workload, "setup", spec_path)[0]
    t1 = speed.clock()
    for _ in range(SETUP_KERNEL_SAMPLES):
        speedometer.sample()
    return raw / speedometer.slowness(t0, t1), raw


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def pin_to_one_cpu() -> int:
    """Keep this process and the children it starts on one CPU.

    The reference kernel then runs on the same vCPU as the ops and set-ups
    it judges (``speed.py``).
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def check_hit_coverage(params: dict) -> None:
    """Every span must be expected to be hit by some workload's traced run."""
    covered = {name for p in params.values() for name in p["hits"]}
    missing = sorted(set(spans.SPANS) - covered)
    if missing:
        raise BenchError(f"no workload is expected to hit spans {missing}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_child, which stops the child


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    params = workloads.load_params()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(params))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not os.path.exists(os.path.join(REPO, path))]
    if missing:
        print(f"error: not a geodiag checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        check_hit_coverage(params)
        os.makedirs(OUT_DIR, exist_ok=True)
        cpus = len(os.sched_getaffinity(0))
        pinned = pin_to_one_cpu()
        spec = workloads.generate(args.workload, args.seed, REPO)
        report, metrics, res = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    control = res["negative_control"]
    correct = res["failed"] == 0 and all(control.values())
    if args.trace:
        correct = correct and not res["missed_spans"] and res["counts_repeat"]
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        workload_params=params[args.workload],
        ops=len(res["latencies"]),
        failed_ratio=f"{res['failed']}/{res['attempted']}",
        problems=res["problems"],
        negative_control=control,
        python=res["python"],
        numpy=res["numpy"],
        cpu=cpu_model(),
        nproc=os.cpu_count(),
        affinity=cpus,
        pinned_cpu=pinned,
        thread_env=THREAD_ENV,
    )
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(report | {"metrics": metrics}, fh, indent=1)
    units = spans.METRICS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"# {name:<36} {value:.6g} {units[name]}")
    print("# report " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def measure(args, spec: dict) -> tuple[dict, dict, dict]:
    """Run the children for one benchmark run; return (report, metrics, main result)."""
    spec_path = os.path.join(OUT_DIR, f"spec-{args.workload}.json")
    if not args.trace:
        with open(spec_path, "w") as fh:
            json.dump(spec | {"seconds": args.seconds}, fh)
        speedometer = speed.Speedometer()
        probes = [setup_probe(args.workload, spec_path, speedometer) for _ in range(SETUP_PROBES)]
        _, res = run_child(args.workload, "plain", spec_path)
        metrics, samples = end_to_end([p[0] for p in probes], res)
        report = {"setup_samples": [p[0] for p in probes],
                  "raw_setup_samples": [p[1] for p in probes], **samples}
        return report, metrics, res

    with open(spec_path, "w") as fh:
        json.dump(spec | {"seconds": TRACE_UNTRACED_SHARE * args.seconds,
                          "passes": TRACE_PASSES}, fh)
    _, plain = run_child(args.workload, "plain", spec_path)
    with open(spec_path, "w") as fh:
        json.dump(spec | {"seconds": (1 - TRACE_UNTRACED_SHARE) * args.seconds,
                          "passes": TRACE_PASSES}, fh)
    _, res = run_child(args.workload, "traced", spec_path)
    metrics = dict(res["layers"])
    untraced_wall = sum(per_op(plain["latencies"], plain["slowness"]))
    traced_wall = sum(per_op(res["latencies"], res["slowness"]))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    res["failed"] += plain["failed"]
    res["attempted"] += plain["attempted"]
    res["problems"] = plain["problems"] + res["problems"]
    report = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "span_hits": res["hits"],
        "missed_spans": res["missed_spans"],
        "counts_repeat": res["counts_repeat"],
        "spans_file": os.path.join(".perfbench", f"spans-{args.workload}.npz"),
    }
    return report, {name: metrics[name] for name in spans.METRICS}, res


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
