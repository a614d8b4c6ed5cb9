"""Independent oracles for the classification tests.

This module deliberately re-derives everything from scratch: it carries its
own transcription of the rank-one classification table and counts the
totally geodesic submanifold classes of a product by direct enumeration
over factor subsets, set partitions and per-factor class choices.  It
shares no code with the package beyond the (field, n, curvature) triple
convention, so agreement with the package is a genuine cross-check.
"""

from fractions import Fraction
from itertools import combinations

Triple = tuple[str, int, Fraction]


def table1(field: str, n: int, c: Fraction) -> list[Triple]:
    """Proper, non-flat, semisimple totally geodesic classes of F H^n(c)."""
    c = Fraction(c)
    out: list[Triple] = []
    if field == "R":
        out += [("R", k, c) for k in range(2, n)]
    elif field == "C":
        out += [("C", k, c) for k in range(2, n)]
        out += [("R", k, c / 4) for k in range(2, n + 1)]
        out += [("R", 2, c)]
    elif field == "H":
        out += [("H", k, c) for k in range(2, n)]
        out += [("C", k, c) for k in range(2, n + 1)]
        out += [("R", k, c / 4) for k in range(2, n + 1)]
        out += [("R", k, c) for k in range(2, 5)]
    elif field == "O":
        assert n == 2
        out += [("H", 2, c), ("C", 2, c), ("R", 2, c / 4)]
        out += [("R", k, c) for k in range(2, 9)]
    else:
        raise ValueError(field)
    return out


def set_partitions(items: tuple[int, ...]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [(first,)] + partition
        for i in range(len(partition)):
            yield partition[:i] + [(first, *partition[i])] + partition[i + 1 :]


def _rows_in_block(factors: list[Triple], block: tuple[int, ...]) -> int:
    """Number of admissible rows covering exactly the given factor indices."""
    groups = []
    for i in block:
        f, n, c = factors[i]
        options = table1(f, n, c) + [(f, n, c)]
        by_class: dict[tuple[str, int], int] = {}
        for ff, nn, cc in options:
            by_class[(ff, nn)] = by_class.get((ff, nn), 0) + 1
        groups.append(by_class)
    common = set(groups[0])
    for g in groups[1:]:
        common &= set(g)
    total = 0
    for cls in common:
        prod = 1
        for g in groups:
            prod *= g[cls]
        total += prod
    return total


def tableau_count(factors: list[Triple], subset: tuple[int, ...]) -> int:
    """Number of adapted tableaux covering exactly the given factor indices."""
    total = 0
    for partition in set_partitions(subset):
        prod = 1
        for block in partition:
            prod *= _rows_in_block(factors, block)
        total += prod
    return total


def brute_force_count(factors: list[Triple]) -> int:
    """Count (tableau, flat dimension) pairs by direct enumeration."""
    r = len(factors)
    total = 0
    for size in range(r + 1):
        for subset in combinations(range(r), size):
            # the empty subset has one tableau, the empty one
            total += tableau_count(factors, subset) * (r - size + 1)
    return total
