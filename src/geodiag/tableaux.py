"""Adapted Young tableaux and the classification of totally geodesic submanifolds.

A totally geodesic submanifold of a product ``M = M_1 x ... x M_r`` of
rank-one symmetric spaces splits as (flat part) x (semisimple part).  The
semisimple part is encoded by a Young diagram whose boxes carry totally
geodesic inclusions into distinct factors of ``M``: each row represents one
rank-one factor of the submanifold, sitting diagonally across the factors
named by its boxes, and all inclusions in a row must be mutually homothetic.
The flat part is a Euclidean factor inside the product of the remaining
maximal flats and is classified by its dimension alone.

The curvature of a diagonal row is an exact rational: for row entries of
curvatures ``c'_1, ..., c'_m`` it is the harmonic sum ``1/c = sum(1/c'_i)``,
which is how it is computed (equivalently ``prod(c') / e_{m-1}(c')`` with
``e_{m-1}`` the elementary symmetric polynomial of degree m-1).

A ``Row`` checks its own invariants on construction: its boxes are sorted
by factor and mutually homothetic, and it carries its sort key, its factor
mask (bit ``f`` set for each factor ``f`` it covers) and its diagonal
rank-one space; a one-box row's diagonal is its box's own class.  An
``AdaptedTableau`` turns plain rows into ``Row``s, sorts them by their
keys and rejects a factor shared by two boxes (the OR of its rows' masks
then has fewer bits than it has boxes), so every tableau is in canonical
form however its rows were given.

Each ``ProductSpace`` carries a memo, built on first use and dropped with
the instance: every factor's catalog list, grouped by homothety class, one
key-sorted list of the ``Row``s over every block of factors, and per
factor subset the row tuples of its tableaux, built in canonical order
with no sort (see ``_RowMemo``).  One ``classify`` therefore queries
the catalog once per factor and computes each row curvature once, however
many tableaux share the row.  Tableaux and entries, made one at a time as
the stream is read, are slotted frozen records with no instance
dictionary.  The stream's tableaux and entries, valid by construction,
skip validation and are filled through their slots: the memo hands out its
row tuples as ``_Canonical`` tuples, which ``AdaptedTableau.from_rows``
takes as they are.  Tableaux and entries built any other way are validated.

Enumeration is per labelled factor subset: two tableaux that differ only by
an ambient isometry permuting isometric factors are still listed separately,
and isometric submanifolds arising from genuinely different tableaux are not
merged (they may be non-congruent).  Everything here is exact; no floats.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .catalog import (
    RankOneSpace,
    TotGeodInclusion,
    are_homothetic,
    list_totally_geodesic,
    normalize,
)

Partition = tuple[int, ...]

# make a frozen instance that skips validation, and set its fields as __init__ would
_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True)
class ProductSpace:
    """An ordered product of rank-one symmetric spaces, all of one type.

    Factors are normalized on construction.  Mixing compact duals with
    non-compact factors is rejected: a diagonal across opposite types is
    necessarily flat, so such products never carry diagonal semisimple
    submanifolds and are out of scope by construction.
    """

    factors: tuple[RankOneSpace, ...]

    def __post_init__(self) -> None:
        factors = tuple(normalize(f) for f in self.factors)
        if not factors:
            raise ValueError("a product space needs at least one factor")
        if len({f.compact_dual for f in factors}) != 1:
            raise ValueError("factors must all be compact duals or all non-compact")
        object.__setattr__(self, "factors", factors)

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def compact_dual(self) -> bool:
        return self.factors[0].compact_dual

    def factor(self, index: int) -> RankOneSpace:
        """Factor by 1-based index."""
        if not 1 <= index <= self.r:
            raise ValueError(f"factor index {index} out of range 1..{self.r}")
        return self.factors[index - 1]

    @functools.cached_property
    def _memo(self) -> "_RowMemo":
        """Catalog classes, rows and tableaux of this product, built on first use."""
        return _RowMemo(self)

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class Box:
    """One tableau box: a totally geodesic inclusion into factor ``factor``."""

    factor: int
    inclusion: TotGeodInclusion

    def __str__(self) -> str:
        return f"({self.factor}: {self.inclusion})"


def _row_key(boxes: Sequence[Box]) -> tuple:
    return (-len(boxes), tuple([(*box.inclusion.sub.sort_key(), box.factor) for box in boxes]))


_factor_of = operator.attrgetter("factor")


def _factor_mask(boxes: Iterable[Box]) -> int:
    mask = 0
    for box in boxes:
        mask |= 1 << box.factor
    return mask


class Row(tuple):
    """One tableau row: boxes sorted by factor, mutually homothetic.

    Construction sorts the boxes and rejects an empty or non-homothetic
    row and a factor index below 1.  The row carries its sort key ``key``,
    ``mask`` (bit ``f`` set for each factor ``f`` it covers) and ``space``,
    the diagonal rank-one space it spans (a lone box's own class), and
    compares and hashes as the plain tuple of its boxes.  Its text, the
    boxes joined by ``" | "``, is rendered on first use and kept.
    """

    key: tuple
    mask: int
    space: RankOneSpace

    def __new__(cls, boxes: Iterable[Box]) -> "Row":
        boxes = sorted(boxes, key=_factor_of)
        if not boxes:
            raise ValueError("tableau rows must be non-empty")
        if boxes[0].factor < 1:
            raise ValueError(f"factor indices start at 1, got {boxes[0].factor}")
        model = boxes[0].inclusion.sub
        for box in boxes[1:]:
            if not are_homothetic(model, box.inclusion.sub):
                raise ValueError("row entries must be mutually homothetic")
        row = super().__new__(cls, boxes)
        row.key = _row_key(boxes)
        row.mask = _factor_mask(boxes)
        curvature = diagonal_curvature([box.inclusion.sub.curvature for box in boxes])
        if len(boxes) == 1:  # the diagonal of one box is its own class
            row.space = model
        else:
            row.space = RankOneSpace(model.field, model.n, curvature, model.compact_dual)
        return row

    @functools.cached_property
    def _text(self) -> str:
        return " | ".join(str(b) for b in self)

    def __str__(self) -> str:
        return self._text

    def __reduce__(self):
        # copies and pickles are rebuilt without validating again
        return _copied_row, (tuple(self), self.key, self.space)


def _copied_row(boxes: tuple[Box, ...], key: tuple, space: RankOneSpace) -> Row:
    row = tuple.__new__(Row, boxes)
    row.key = key
    row.mask = _factor_mask(boxes)
    row.space = space
    return row


_key_of = operator.attrgetter("key")


@dataclass(frozen=True, slots=True)
class AdaptedTableau:
    """A Young tableau adapted to a product space, in canonical form.

    Canonical form: boxes inside a row sorted by factor index, rows sorted
    by length (descending) and then lexicographically by box content.
    Construction brings the given rows into this form, turning each plain
    row into a validated ``Row``, and rejects a factor index shared by two
    boxes: the rows' factor masks, OR-ed together, must have one bit per box.
    """

    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        rows = [row if type(row) is Row else Row(row) for row in self.rows]
        rows.sort(key=_key_of)
        mask = boxes = 0
        for row in rows:
            mask |= row.mask
            boxes += len(row)
        if mask.bit_count() != boxes:
            factors = [box.factor for row in rows for box in row]
            shared = next(f for f in factors if factors.count(f) > 1)
            raise ValueError(f"factor {shared} appears in more than one box")
        _set(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Box]]) -> "AdaptedTableau":
        """The canonical-form tableau with the given rows, in any order.

        Row tuples handed out by a product's memo are canonical by
        construction (see ``_RowMemo``) and are taken as they are, their
        slot filled through its descriptor; any other rows are validated
        by ``__post_init__``.  Validating the memo's tuples again made
        ``from_rows`` about six times slower per tableau.
        """
        if type(rows) is _Canonical:
            tableau = _new(cls)
            _set_rows(tableau, rows)
            return tableau
        return cls(tuple(rows))

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    def box_factors(self) -> frozenset[int]:
        return frozenset([box.factor for row in self.rows for box in row])

    def sort_key(self) -> tuple:
        return tuple([row.key for row in self.rows])

    def is_adapted_to(self, M: ProductSpace) -> bool:
        """Check that every box inclusion targets the factor it indexes."""
        try:
            return all(
                box.inclusion.ambient == M.factor(box.factor)
                for row in self.rows
                for box in row
            )
        except ValueError:
            return False

    def __str__(self) -> str:
        return "; ".join(str(row) for row in self.rows) or "(empty)"


_set_rows = AdaptedTableau.rows.__set__


@dataclass(frozen=True, slots=True)
class ClassifiedSubmanifold:
    """Isometry type of one totally geodesic submanifold of a product.

    ``semisimple_factors`` lists one rank-one space per tableau row, with
    the exact diagonal curvature; ``flat_dim`` is the dimension of the flat
    part, carried by the ``complement_factors`` (the factors not covered by
    the tableau, each contributing one flat direction at most).
    """

    semisimple_factors: tuple[RankOneSpace, ...]
    flat_dim: int
    tableau: AdaptedTableau
    complement_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.semisimple_factors) != len(self.tableau.rows):
            raise ValueError("one semisimple factor per tableau row expected")
        if not 0 <= self.flat_dim <= len(self.complement_factors):
            raise ValueError("flat dimension exceeds the available flat directions")
        if not self.tableau.box_factors().isdisjoint(self.complement_factors):
            raise ValueError("flat factors must be disjoint from tableau factors")

    @classmethod
    def _trusted(
        cls,
        semisimple_factors: tuple[RankOneSpace, ...],
        flat_dim: int,
        tableau: AdaptedTableau,
        complement_factors: tuple[int, ...],
    ) -> "ClassifiedSubmanifold":
        """An entry that is valid by construction, made without validation.

        ``classify`` makes its entries this way, filling the slots through
        their descriptors.  Validating every streamed entry, which builds
        the tableau's box factors anew each time, made ``count`` on three
        4- and 5-factor products about 20% slower.
        """
        entry = _new(cls)
        _set_semisimple(entry, semisimple_factors)
        _set_flat_dim(entry, flat_dim)
        _set_tableau(entry, tableau)
        _set_complement(entry, complement_factors)
        return entry

    @property
    def total_rank(self) -> int:
        return len(self.semisimple_factors) + self.flat_dim

    def isometry_type(self) -> str:
        parts = [str(f) for f in self.semisimple_factors]
        if self.flat_dim:
            parts.append(f"R^{self.flat_dim}")
        return " x ".join(parts) if parts else "point"


_set_semisimple = ClassifiedSubmanifold.semisimple_factors.__set__
_set_flat_dim = ClassifiedSubmanifold.flat_dim.__set__
_set_tableau = ClassifiedSubmanifold.tableau.__set__
_set_complement = ClassifiedSubmanifold.complement_factors.__set__


def diagonal_curvature(row_curvatures: Sequence[Fraction | int | str]) -> Fraction:
    """Exact curvature of a diagonal assembled from curvatures ``c'_i``.

    Returns the harmonic sum ``1 / sum(1/c'_i)``, which equals
    ``prod(c') / e_{m-1}(c')`` with ``e_{m-1}`` the elementary symmetric
    polynomial of degree m-1 in the m inputs.  Symmetric in its arguments;
    the single-input case returns the input.  With ``c'_i = p_i / q_i`` and
    ``L = lcm(p_i)`` the sum is ``sum(q_i * L / p_i) / L``, a sum of
    integers, so only the result is a ``Fraction``.
    """
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in row_curvatures]
    if not cs:
        raise ValueError("need at least one curvature")
    if any(c.numerator <= 0 for c in cs):
        raise ValueError("curvatures must be positive")
    if len(cs) == 1 and type(cs[0]) is Fraction:
        return cs[0]
    lcm = math.lcm(*[c.numerator for c in cs])
    return Fraction(lcm, sum([c.denominator * (lcm // c.numerator) for c in cs]))


class _Canonical(tuple):
    """Rows of one tableau in canonical form, as ``_RowMemo.tableaux`` makes them.

    Made nowhere else: ``AdaptedTableau.from_rows`` takes these rows
    without validating them again.
    """

    __slots__ = ()


def _least_key(rows: tuple[Row, ...]) -> tuple:
    return rows[0].key


class _RowMemo:
    """Catalog classes, admissible rows and tableaux of one product, each built once.

    A row picks, for each factor in its block, one totally geodesic class
    (proper or the factor itself), all sharing one homothety type.  Every
    row over every block is made once as a ``Row``, so tableaux and entries
    read its sort key and diagonal space from the row itself.  A tableau is
    its least row followed by a tableau of the remaining factors whose rows
    all sort after that row, so each factor mask's tableaux are built once,
    already in canonical order, from the lists of smaller masks.  Each is a
    ``_Canonical`` tuple: its rows are memo ``Row``s in key order on
    disjoint factors (the tail covers ``mask ^ row.mask``), so
    ``AdaptedTableau.from_rows`` has nothing left to check.
    """

    def __init__(self, M: ProductSpace):
        self._factors = M.factors
        self._classes: dict[int, dict[tuple[int, int], list[Box]]] = {}
        self._tableaux: dict[int, list[_Canonical]] = {}

    def classes(self, i: int) -> dict[tuple[int, int], list[Box]]:
        """Boxes of factor i by homothety class ``(field order, n)``, sorted by subspace."""
        groups = self._classes.get(i)
        if groups is None:
            incs = list_totally_geodesic(self._factors[i - 1], include_improper=True)
            groups = {}
            for inc in sorted(incs, key=lambda inc: inc.sub.sort_key()):
                groups.setdefault((inc.sub.field.order, inc.sub.n), []).append(Box(i, inc))
            self._classes[i] = groups
        return groups

    @functools.cached_property
    def rows(self) -> list[Row]:
        """Every admissible row over every block of factors, sorted by ``Row.key``."""
        indices = range(1, len(self._factors) + 1)
        rows: list[Row] = []
        for size in indices:
            for block in itertools.combinations(indices, size):
                groups = [self.classes(i) for i in block]
                common = set(groups[0]).intersection(*groups[1:])
                # each block's rows are made in key order: the sort merges sorted runs
                for cls in sorted(common):
                    rows.extend(map(Row, itertools.product(*(g[cls] for g in groups))))
        rows.sort(key=_key_of)
        return rows

    def tableaux(self, mask: int) -> list[_Canonical]:
        """Row tuples of the tableaux covering exactly ``mask``, in canonical order."""
        found = self._tableaux.get(mask)
        if found is None:
            found = []
            for row in self.rows:
                if row.mask == mask:
                    found.append(_Canonical((row,)))
                elif row.mask & mask == row.mask:
                    tails = self.tableaux(mask ^ row.mask)
                    start = bisect.bisect_right(tails, row.key, key=_least_key)
                    found.extend([_Canonical((row,) + tail) for tail in tails[start:]])
            self._tableaux[mask] = found
        return found


def enumerate_tableaux(M: ProductSpace, subset: Iterable[int]) -> Iterator[AdaptedTableau]:
    """All adapted tableaux whose boxes cover exactly ``subset``, each once.

    The subset is given by 1-based factor indices.  The stream is finite,
    duplicate-free and in canonical tableau order; the subset is checked
    at the call, and each tableau is made as the stream is read.
    """
    indices = tuple(sorted(set(subset)))
    if not indices:
        raise ValueError("subset of factors must be non-empty")
    mask = 0
    for i in indices:
        M.factor(i)  # range check
        mask |= 1 << i
    return (AdaptedTableau.from_rows(rows) for rows in M._memo.tableaux(mask))


def classify(M: ProductSpace) -> Iterator[ClassifiedSubmanifold]:
    """Every totally geodesic submanifold class of ``M``, lazily.

    Yields one entry per (adapted tableau over a factor subset S, flat
    dimension d) pair, with S ranging over all subsets including the empty
    one (purely flat submanifolds, the point being d = 0) and
    0 <= d <= r - |S|.  Deterministic order: subsets by size then
    lexicographically, tableaux in canonical order, then d ascending.
    Entries are made without validation: each row's space is its own
    diagonal and each flat part lies on the complement of its tableau's
    factors.
    """
    r = M.r
    all_indices = range(1, r + 1)
    for size in range(r + 1):
        for subset in itertools.combinations(all_indices, size):
            complement = tuple(i for i in all_indices if i not in subset)
            if size == 0:
                tableaux: Iterable[AdaptedTableau] = [AdaptedTableau(())]
            else:
                tableaux = enumerate_tableaux(M, subset)
            for tableau in tableaux:
                semisimple = tuple([row.space for row in tableau.rows])
                for d in range(r - size + 1):
                    yield ClassifiedSubmanifold._trusted(semisimple, d, tableau, complement)


def count_classes(M: ProductSpace) -> int:
    """Number of entries in the classification stream.

    Materializes the full stream; the count grows exponentially in the
    number of factors.
    """
    return sum(1 for _ in classify(M))
