"""In-memory spans around geodiag's public functions, and the per-layer metrics.

Nothing here touches ``src/``: :func:`install` replaces, for one process,
the module and class attributes that callers look up at call time (for
example ``geodiag.cli.classify`` as well as ``geodiag.tableaux.classify``)
with wrappers that record a span per call.  A span is (name, start, end,
parent span, op id); spans are kept in flat arrays and turned into self
times when the run ends.  Counters per pass record the work each layer did.
"""

from __future__ import annotations

import array
from collections import Counter
from math import comb

import numpy as np

import speed

#: Every span the wrappers record; each is reported as ``<span>.self_s``.
SPANS = (
    "cli.run",
    "cli.parse",
    "cli.render",
    "catalog.list_tg",
    "catalog.is_tg",
    "tableaux.classify",
    "tableaux.enumerate",
    "tableaux.from_rows",
    "tableaux.curvature",
    "tableaux.count",
    "kahler.realize",
    "kahler.approximate",
    "lieverify.verify_entry",
    "lieverify.orthonormalize",
    "lieverify.lie_triple",
    "lieverify.sectional",
    "lieverify.construct_cp",
    "lieverify.kahler_angle",
    "lieverify.models",
)
#: Cache hits of the model constructors: recorded so that their time leaves the
#: caller's self time, but not reported.
MODEL_HIT = "lieverify.models.hit"
_NAMES = SPANS + (MODEL_HIT,)
_ID = {name: i for i, name in enumerate(_NAMES)}

#: Spans reported with a call count per pass.
CALLS = (
    "cli.run", "cli.parse", "catalog.list_tg", "catalog.is_tg", "tableaux.enumerate",
    "tableaux.from_rows", "tableaux.curvature", "tableaux.count", "kahler.realize",
    "kahler.approximate", "lieverify.verify_entry", "lieverify.orthonormalize",
    "lieverify.lie_triple", "lieverify.sectional", "lieverify.construct_cp",
    "lieverify.kahler_angle",
)

#: Every per-layer metric, with its unit, in report order.
METRICS = {
    "cli.run.calls": "count", "cli.run.self_s": "s",
    "cli.parse.calls": "count", "cli.parse.self_s": "s",
    "cli.render.self_s": "s", "cli.render.bytes": "bytes",
    "catalog.list_tg.calls": "count", "catalog.list_tg.self_s": "s",
    "catalog.list_tg.distinct_ratio": "ratio",
    "catalog.is_tg.calls": "count", "catalog.is_tg.self_s": "s",
    "tableaux.classify.entries": "count", "tableaux.classify.self_s": "s",
    "tableaux.enumerate.calls": "count", "tableaux.enumerate.tableaux": "count",
    "tableaux.enumerate.self_s": "s",
    "tableaux.from_rows.calls": "count", "tableaux.from_rows.self_s": "s",
    "tableaux.curvature.calls": "count", "tableaux.curvature.self_s": "s",
    "tableaux.curvature.distinct_ratio": "ratio",
    "tableaux.count.calls": "count", "tableaux.count.self_s": "s",
    "kahler.realize.calls": "count", "kahler.realize.self_s": "s",
    "kahler.approximate.calls": "count", "kahler.approximate.self_s": "s",
    "kahler.approximate.k_max": "count",
    "lieverify.verify_entry.calls": "count", "lieverify.verify_entry.self_s": "s",
    "lieverify.entries.pass": "count", "lieverify.entries.fail": "count",
    "lieverify.entries.unsupported": "count",
    "lieverify.orthonormalize.calls": "count", "lieverify.orthonormalize.self_s": "s",
    "lieverify.lie_triple.calls": "count", "lieverify.lie_triple.self_s": "s",
    "lieverify.lie_triple.brackets": "count",
    "lieverify.sectional.calls": "count", "lieverify.sectional.self_s": "s",
    "lieverify.construct_cp.calls": "count", "lieverify.construct_cp.self_s": "s",
    "lieverify.kahler_angle.calls": "count", "lieverify.kahler_angle.self_s": "s",
    "lieverify.models.self_s": "s",
    "lieverify.worst_lie_residual": "rel",
    "lieverify.worst_curvature_error": "abs",
    "lieverify.worst_angle_error": "rad",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans in flat arrays, plus counters and distinct-input sets for one op run."""

    def __init__(self):
        self.name = array.array("B")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.worst: dict[str, float] = {}

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(_ID[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(speed.clock())
        return i

    def finish(self, i: int, rename: str | None = None) -> None:
        self.end[i] = speed.clock()
        self._stack.pop()
        if rename is not None:
            self.name[i] = _ID[rename]

    def see(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def note_worst(self, key: str, value: float) -> None:
        if value > self.worst.get(key, 0.0):
            self.worst[key] = value

    def take_op_counts(self) -> tuple[dict, dict]:
        """Counters and distinct-input sets of the op just run, then reset them."""
        out = (dict(self.counts), self.distinct)
        self.counts = Counter()
        self.distinct = {}
        return out

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, op id, self time) per span: duration minus child spans' durations."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return (
            np.frombuffer(self.name, dtype=np.uint8),
            np.frombuffer(self.op, dtype=np.int32),
            dur - covered,
        )

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(_NAMES),
            name=np.frombuffer(self.name, dtype=np.uint8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _span(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(args, result)`` updates counters."""

    def wrapper(*args, **kwargs):
        i = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _classify_span(tracer: Tracer, fn):
    """Wrap the ``classify`` generator so that every ``next()`` is one span."""

    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            i = tracer.begin("tableaux.classify")
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.finish(i)
            tracer.counts["tableaux.classify.entries"] += 1
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def _model_span(tracer: Tracer, cached):
    """Span around an ``lru_cache`` model constructor; cache hits get their own name."""

    def wrapper(*args):
        misses = cached.cache_info().misses
        i = tracer.begin("lieverify.models")
        try:
            return cached(*args)
        finally:
            tracer.finish(i, None if cached.cache_info().misses > misses else MODEL_HIT)

    wrapper.__wrapped__ = cached
    return wrapper


def install(tracer: Tracer) -> None:
    """Put spans around the public functions of the five layers, in this process."""
    from geodiag import catalog, cli, kahler, lieverify, tableaux

    def count(key):
        def after(args, result):
            tracer.counts[key] += 1
        return after

    def patch_classmethod(owner, attr, name, after=None):
        fn = owner.__dict__[attr].__func__
        setattr(owner, attr, classmethod(_span(tracer, name, fn, after)))

    def list_tg_after(args, result):
        tracer.counts["catalog.list_tg"] += 1
        tracer.see("catalog.list_tg", args[0])

    list_tg = _span(tracer, "catalog.list_tg", catalog.list_totally_geodesic, list_tg_after)
    setattr(catalog, "list_totally_geodesic", list_tg)
    setattr(tableaux, "list_totally_geodesic", list_tg)
    setattr(catalog, "is_totally_geodesic",
          _span(tracer, "catalog.is_tg", catalog.is_totally_geodesic, count("catalog.is_tg")))

    def curvature_after(args, result):
        tracer.counts["tableaux.curvature"] += 1
        tracer.see("tableaux.curvature", tuple(args[0]))

    curvature = _span(tracer, "tableaux.curvature", tableaux.diagonal_curvature, curvature_after)
    setattr(tableaux, "diagonal_curvature", curvature)
    setattr(lieverify, "diagonal_curvature", curvature)

    classify = _classify_span(tracer, tableaux.classify)
    setattr(tableaux, "classify", classify)
    setattr(cli, "classify", classify)

    def enumerate_tableaux(M, subset):
        i = tracer.begin("tableaux.enumerate")
        try:
            found = list(_enumerate(M, subset))
        finally:
            tracer.finish(i)
        tracer.counts["tableaux.enumerate"] += 1
        tracer.counts["tableaux.enumerate.tableaux"] += len(found)
        return iter(found)

    _enumerate = tableaux.enumerate_tableaux
    setattr(tableaux, "enumerate_tableaux", enumerate_tableaux)
    setattr(cli, "enumerate_tableaux", enumerate_tableaux)
    patch_classmethod(tableaux.AdaptedTableau, "from_rows", "tableaux.from_rows",
                      count("tableaux.from_rows"))
    setattr(cli, "count_classes",
          _span(tracer, "tableaux.count", cli.count_classes, count("tableaux.count")))

    setattr(cli, "run", _span(tracer, "cli.run", cli.run, count("cli.run")))
    setattr(cli, "parse_product",
          _span(tracer, "cli.parse", cli.parse_product, count("cli.parse")))
    for attr in ("classified_record", "tableau_record", "_dump"):
        setattr(cli, attr, _span(tracer, "cli.render", getattr(cli, attr)))
    report_cls = lieverify.EntryVerification
    setattr(report_cls, "to_dict", _span(tracer, "cli.render", report_cls.__dict__["to_dict"]))

    def approximate_after(args, result):
        tracer.counts["kahler.approximate"] += 1
        tracer.note_worst("kahler.approximate.k_max", result.k)

    setattr(kahler, "realize_angle",
          _span(tracer, "kahler.realize", kahler.realize_angle, count("kahler.realize")))
    setattr(kahler, "approximate_angle",
          _span(tracer, "kahler.approximate", kahler.approximate_angle, approximate_after))

    def verify_after(args, report):
        tracer.counts["lieverify.verify_entry"] += 1
        tracer.counts["lieverify.entries." + report.status] += 1
        for row in report.rows:
            if row.curvature_error is not None:
                tracer.note_worst("lieverify.worst_curvature_error", row.curvature_error)

    verify = _span(tracer, "lieverify.verify_entry", lieverify.verify_classification_entry,
                   verify_after)
    setattr(lieverify, "verify_classification_entry", verify)
    setattr(cli, "verify_classification_entry", verify)

    def lie_triple_after(args, result):
        dim = args[0].dim
        tracer.counts["lieverify.lie_triple"] += 1
        tracer.counts["lieverify.lie_triple.brackets"] += dim * comb(dim, 2)
        tracer.note_worst("lieverify.worst_lie_residual", result[1])

    patch_classmethod(lieverify.SubspaceBasis, "orthonormalized", "lieverify.orthonormalize",
                      count("lieverify.orthonormalize"))
    setattr(lieverify, "is_lie_triple_system",
          _span(tracer, "lieverify.lie_triple", lieverify.is_lie_triple_system, lie_triple_after))
    setattr(lieverify, "sectional_curvature",
          _span(tracer, "lieverify.sectional", lieverify.sectional_curvature,
                count("lieverify.sectional")))
    setattr(lieverify, "construct_diagonal_cp",
          _span(tracer, "lieverify.construct_cp", lieverify.construct_diagonal_cp,
                count("lieverify.construct_cp")))
    setattr(lieverify, "kahler_angle_of",
          _span(tracer, "lieverify.kahler_angle", lieverify.kahler_angle_of,
                count("lieverify.kahler_angle")))
    setattr(lieverify, "grassmannian_decomp", _model_span(tracer, lieverify.grassmannian_decomp))
    setattr(lieverify, "sphere_decomp", _model_span(tracer, lieverify.sphere_decomp))


def layer_metrics(tracer: Tracer, op_counts: list, exec_op: list[int],
                  exec_slowness: list[float]) -> dict:
    """Per-layer metrics for one pass over the op list.

    ``op_counts[i]`` holds the counters and distinct-input sets of op i's
    first run, ``exec_op[e]`` the op of run e and ``exec_slowness[e]`` the
    host's slowness during it (``speed.py``).  A span's ``self_s`` sums,
    over the ops, the median over the op's runs of its self time in that
    span divided by the slowness, as the end-to-end metrics do.  ``lieverify.models.self_s`` is the total over
    the process, set-up included, because the model constructors are cached and
    miss only there.
    """
    name, run, self_t = tracer.self_times()
    n_names = len(_NAMES)
    in_run = run >= 0
    per_run = np.bincount(run[in_run] * n_names + name[in_run], weights=self_t[in_run],
                          minlength=len(exec_op) * n_names).reshape(len(exec_op), n_names)
    per_run /= np.array(exec_slowness)[:, None]
    run_op = np.array(exec_op)
    per_op = sum(np.median(per_run[run_op == i], axis=0) for i in range(len(op_counts)))
    out: dict[str, float] = {}
    for span in SPANS:
        if span == "lieverify.models":
            out[span + ".self_s"] = float(self_t[name == _ID[span]].sum())
        else:
            out[span + ".self_s"] = float(per_op[_ID[span]])
    counts: Counter = Counter()
    distinct: dict[str, set] = {}
    for op_count, op_distinct in op_counts:
        counts.update(op_count)
        for key, values in op_distinct.items():
            distinct.setdefault(key, set()).update(values)
    for span in CALLS:
        out[span + ".calls"] = counts[span]
    for key in ("tableaux.classify.entries", "tableaux.enumerate.tableaux",
                "lieverify.lie_triple.brackets", "cli.render.bytes"):
        out[key] = counts[key]
    for status in ("pass", "fail", "unsupported"):
        out["lieverify.entries." + status] = counts["lieverify.entries." + status]
    for key in ("catalog.list_tg", "tableaux.curvature"):
        out[key + ".distinct_ratio"] = len(distinct.get(key, ())) / counts[key] if counts[key] else 0.0
    out["kahler.approximate.k_max"] = tracer.worst.get("kahler.approximate.k_max", 0)
    for key in ("lieverify.worst_lie_residual", "lieverify.worst_curvature_error",
                "lieverify.worst_angle_error"):
        out[key] = tracer.worst.get(key, 0.0)
    return out


def span_hits(tracer: Tracer) -> dict[str, int]:
    """Number of spans recorded under each reported name, set-up included."""
    counts = np.bincount(np.frombuffer(tracer.name, dtype=np.uint8), minlength=len(_NAMES))
    return {span: int(counts[_ID[span]]) for span in SPANS}
