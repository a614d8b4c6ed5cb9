"""Command-line front end and the JSON wire format.

Product spaces are written as ``"RH3(1) x CH3(2) x HH3(1)"``: one factor
per ``FHn(c)`` token with ``F`` in {R, C, H, O} and ``c`` a positive
rational ``p`` or ``p/q``; a trailing ``*`` (``"RH3(1)* x CH3(2)*"``)
marks a compact dual, on every factor or on none.  ``str(ProductSpace)``
prints this form, and parsing it gives the product back.  Curvatures stay
exact end to end: the JSON records render them as ``"p/q"`` strings,
never floats.

Commands: ``classify``, ``count``, ``tableaux``, ``angles``, ``realize``,
``verify``.  Output is deterministic for fixed flags; ``--json``
switches to JSON lines (one record per line).  The classify record format
is frozen in ``schema/classified.json`` (tag v1).  ``classify --json``
splices each line from JSON fragments rendered once per row and once per
tableau; every line reads as ``classified_record`` renders its entry.  It
and ``tableaux --json`` render rows with one helper, ``_row_record``.
Exit codes: 0 success, 1 verification failure, 2 usage error, 141
(128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, NoReturn, Sequence

from .catalog import Field, RankOneSpace, TotGeodInclusion
from .kahler import AngleApproximationError, angles_in_product, approximate_angle, realize_angle
from .lieverify import verify_classification_entry
from .tableaux import (
    AdaptedTableau,
    Box,
    ClassifiedSubmanifold,
    ProductSpace,
    Row,
    classify,
    count_classes,
    enumerate_tableaux,
)

class ProductSpecError(ValueError):
    """Problem with a product-space specification string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpecSyntaxError(ProductSpecError):
    """The input does not match the surface grammar."""


class SpecSemanticError(ProductSpecError):
    """Grammatically fine, but names no valid space."""


_FACTOR_RE = re.compile(r"([RCHO])H(\d+)\((\d+)(?:/(\d+))?\)(\*?)")
_SEPARATOR_RE = re.compile(r"\s*x\s*")


def parse_product(text: str) -> ProductSpace:
    """Parse a product specification into a normalized ProductSpace.

    Syntax errors carry the offending position.  Semantic errors (a zero
    denominator, or a factor that :class:`RankOneSpace` refuses: zero
    curvature, octonionic dimension other than 2, real dimension 1) are
    reported separately, at the position of their factor.  A product
    mixing compact duals with non-compact factors is rejected by
    :class:`ProductSpace`.
    """
    factors: list[RankOneSpace] = []
    pos = 0
    stripped = text.rstrip()
    while True:
        m = _FACTOR_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(
                "expected a factor like 'RH3(1)' or 'CH2(1/4)'", pos
            )
        letter, n_str, num_str, den_str, star = m.groups()
        den = int(den_str) if den_str is not None else 1
        if den == 0:
            raise SpecSemanticError("curvature denominator must not be zero", pos)
        curvature = Fraction(int(num_str), den)
        try:
            factors.append(RankOneSpace(Field(letter), int(n_str), curvature, bool(star)))
        except ValueError as exc:
            raise SpecSemanticError(str(exc), pos) from None
        pos = m.end()
        if pos >= len(stripped):
            break
        sep = _SEPARATOR_RE.match(text, pos)
        if sep is None or sep.end() == pos:
            raise SpecSyntaxError("expected ' x ' between factors", pos)
        pos = sep.end()
    if text[pos:].strip():
        raise SpecSyntaxError("trailing input after product", pos)
    return ProductSpace(tuple(factors))


# ---------------------------------------------------------------------------
# JSON records (schema/classified.json, tag v1)
# ---------------------------------------------------------------------------


def _space_record(s: RankOneSpace) -> list:
    return [s.field.value, s.n, str(s.curvature)]


def _row_record(row: Row) -> list:
    return [
        {
            "factor": box.factor,
            "sub": {
                "field": box.inclusion.sub.field.value,
                "n": box.inclusion.sub.n,
                "curv": str(box.inclusion.sub.curvature),
            },
        }
        for box in row
    ]


def tableau_record(tableau: AdaptedTableau) -> list:
    return [_row_record(row) for row in tableau.rows]


def classified_record(entry: ClassifiedSubmanifold) -> dict:
    return {
        "factors": [_space_record(f) for f in entry.semisimple_factors],
        "flat_dim": entry.flat_dim,
        "complement": list(entry.complement_factors),
        "tableau": tableau_record(entry.tableau),
    }


def classified_from_record(record: dict, M: ProductSpace) -> ClassifiedSubmanifold:
    """Rebuild a classification entry from its JSON record (lossless)."""
    rows = []
    for row in record["tableau"]:
        boxes = []
        for box in row:
            sub = RankOneSpace(
                Field(box["sub"]["field"]),
                box["sub"]["n"],
                Fraction(box["sub"]["curv"]),
                M.compact_dual,
            )
            boxes.append(Box(box["factor"], TotGeodInclusion(sub, M.factor(box["factor"]))))
        rows.append(boxes)
    semisimple = tuple(
        RankOneSpace(Field(f), n, Fraction(c), M.compact_dual)
        for f, n, c in record["factors"]
    )
    return ClassifiedSubmanifold(
        semisimple,
        record["flat_dim"],
        AdaptedTableau.from_rows(rows),
        tuple(record["complement"]),
    )


def _dump(record: object) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=False)


def _write_classified(entries: Iterable[ClassifiedSubmanifold], out) -> None:
    """Write ``_dump(classified_record(e))`` for each streamed entry, one line per write.

    The lines are spliced from JSON fragments: each row is rendered once per
    call and each tableau once for its run of entries, which differ only in
    ``flat_dim``.  The stream's semisimple factors are its rows' diagonal
    spaces.  Rows are keyed by ``id``: the product's memo keeps them alive
    while its stream runs.
    """
    row_texts: dict[int, tuple[str, str]] = {}
    complements: dict[tuple[int, ...], str] = {}
    tableau = None
    for e in entries:
        if e.tableau is not tableau:
            tableau = e.tableau
            rows = []
            for row in tableau.rows:
                text = row_texts.get(id(row))
                if text is None:
                    text = row_texts[id(row)] = (
                        _dump(_space_record(row.space)),
                        _dump(_row_record(row)),
                    )
                rows.append(text)
            complement = complements.get(e.complement_factors)
            if complement is None:
                complement = complements[e.complement_factors] = _dump(list(e.complement_factors))
            head = '{"factors":[' + ",".join([space for space, _ in rows]) + '],"flat_dim":'
            tail = (
                f',"complement":{complement},"tableau":['
                + ",".join([boxes for _, boxes in rows])
                + "]}\n"
            )
        out.write(f"{head}{e.flat_dim}{tail}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_classify(args, out) -> int:
    entries = classify(parse_product(args.product))
    if args.json:
        # each record as it is classified: no column width to wait for
        _write_classified(entries, out)
        return 0
    typed = [(e.isometry_type(), e) for e in entries]
    width = max((len(name) for name, _ in typed), default=0)
    for name, e in typed:
        print(f"{name:<{width}}  flat={e.flat_dim}  {e.tableau}", file=out)
    return 0


def _cmd_count(args, out) -> int:
    print(count_classes(parse_product(args.product)), file=out)
    return 0


def _cmd_tableaux(args, out) -> int:
    M = parse_product(args.product)
    try:
        subset = {int(tok) for tok in args.subset.split(",") if tok.strip()}
    except ValueError:
        raise ValueError(
            f"--subset must be a comma-separated list of factor indices, got {args.subset!r}"
        ) from None
    for t in enumerate_tableaux(M, subset):
        if args.json:
            print(_dump({"rows": tableau_record(t)}), file=out)
        else:
            print(str(t), file=out)
    return 0


def _cmd_angles(args, out) -> int:
    k = args.k
    if k < 1:
        raise ValueError("k must be a positive integer")
    if args.table:
        # every s, straight from k: the deduplicated angles are not needed
        print("k,s,cosine", file=out)
        for s in range(k + 1):
            print(f"{k},{s},{Fraction(abs(2 * s - k), k)}", file=out)
        return 0
    angles = angles_in_product(k)
    if args.json:
        record = {
            "k": k,
            "cosines": [str(a.cosine) for a in angles],
            "radians": [a.radians for a in angles],
        }
        print(_dump(record), file=out)
    else:
        for a in angles:
            print(f"cos = {a.cosine!s:>8}   angle = {a.radians:.12f}", file=out)
    return 0


def _realization_record(r) -> dict:
    return {
        "k": r.k,
        "s": r.s,
        "n": r.n,
        "m": r.m,
        "ambient": str(r.ambient),
        "cosine": str(r.cosine),
    }


def _cmd_realize(args, out) -> int:
    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--q must be a rational like 1/5, got {args.q!r}") from None
    r = realize_angle(q, args.m)
    print(_dump(_realization_record(r)), file=out)
    return 0


def _cmd_approximate(args, out) -> int:
    r = approximate_angle(args.target, args.epsilon, args.m)
    print(_dump(_realization_record(r)), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be a positive finite number, got {args.tol}")
    if not math.isfinite(10 * args.tol):
        raise ValueError(f"--tol must keep the curvature tolerance 10 * tol finite, got {args.tol}")
    M = parse_product(args.product)
    counts = {"pass": 0, "fail": 0, "unsupported": 0}
    for e in classify(M):
        report = verify_classification_entry(e, M, lie_tol=args.tol, curvature_tol=10 * args.tol)
        counts[report.status] += 1
        if args.json:
            print(_dump(report.to_dict()), file=out)
        else:
            print(f"{report.status:<11}  {e.isometry_type()}", file=out)
            for r in report.rows:
                if r.status == "unsupported":
                    print(f"             row {r.row_index}: unsupported ({r.reason})", file=out)
                elif r.lie_residual is None:  # failed before it was measured
                    print(f"             row {r.row_index}: fail: {r.reason}", file=out)
                else:
                    failure = f"  fail: {r.reason}" if r.status == "fail" else ""
                    print(
                        f"             row {r.row_index}: residual {r.lie_residual:.2e}"
                        f"  curvature {r.curvature_measured:.12g}"
                        f" (expected {r.curvature_expected:.12g}){failure}",
                        file=out,
                    )
            if report.reason is not None:
                print(f"             fail: {report.reason}", file=out)
    if not args.json:
        print(
            f"# verified: {counts['pass']} pass, {counts['fail']} fail,"
            f" {counts['unsupported']} unsupported",
            file=out,
        )
    if counts["fail"]:
        return 1
    if args.strict and counts["unsupported"]:
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ``ValueError`` on a usage error instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="geodiag",
        description="Totally geodesic submanifolds of products of rank-one symmetric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="list all totally geodesic submanifold classes")
    p.add_argument("-m", "--product", required=True, help="product space, e.g. 'RH3(1) x CH3(2)'")
    p.add_argument("--json", action="store_true", help="emit JSON lines")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("count", help="count the classification entries")
    p.add_argument("-m", "--product", required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("tableaux", help="list adapted tableaux over a factor subset")
    p.add_argument("-m", "--product", required=True)
    p.add_argument("--subset", required=True, help="comma-separated 1-based factor indices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tableaux)

    p = sub.add_parser("angles", help="Kahler angles of k-diagonal projective subspaces")
    p.add_argument("--k", type=int, required=True)
    form = p.add_mutually_exclusive_group()
    form.add_argument("--table", action="store_true", help="emit a (k, s, cosine) CSV")
    form.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("realize", help="realize a rational cosine as a Kahler angle")
    p.add_argument("--q", required=True, help="rational cosine in [0, 1], e.g. 1/5")
    p.add_argument("--m", type=int, default=1, help="dimension of the diagonal projective space")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("approximate", help="approximate an angle by a realizable one")
    p.add_argument("--target", type=float, required=True, help="target angle in radians")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=_cmd_approximate)

    p = sub.add_parser("verify", help="numerically verify the classification in compact duals")
    p.add_argument("-m", "--product", required=True)
    p.add_argument("--seed", type=int, help="ignored: verify draws no random numbers; kept for old scripts")
    p.add_argument("--tol", type=float, default=1e-9, help="Lie triple residual tolerance")
    p.add_argument("--strict", action="store_true", help="treat unsupported factors as failure")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str], out=None) -> int:
    """Parse and dispatch one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, out)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, AngleApproximationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# exit status when the reader closes stdout early, as a shell reports a process killed by SIGPIPE
EXIT_CLOSED_STDOUT = 128 + 13


def main() -> int:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output goes nowhere, so that flushing at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
