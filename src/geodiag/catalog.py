"""Rank-one symmetric spaces and their totally geodesic submanifolds.

A rank-one symmetric space of non-compact type is a hyperbolic space
``F H^n(c)`` over ``F`` in {R, C, H, O}, with sectional curvature ``-c``
in the real case and pinched between ``-c`` and ``-c/4`` otherwise.  The
compact duals (spheres and projective spaces) carry the same submanifold
structure, so a single ``compact_dual`` flag covers both families.

This module is the exact database behind the whole package: Wolf's
classical classification of totally geodesic submanifolds of rank-one
spaces, stored with exact rational curvature parameters.  Curvatures are
never floats; every query is bit-exact.

Low-dimensional coincidences are normalized eagerly: ``C H^1(c)``,
``H H^1(c)`` and ``O H^1(c)`` are rewritten as ``R H^2(c)``, ``R H^4(c)``
and ``R H^8(c)``.  In particular the complex line inside ``C H^n(c)``
appears here as ``R H^2(c)``, distinguished from the totally real plane
``R H^2(c/4)`` only by its curvature.  The classification lists the
complex line for every n >= 2; the classical table prints it without an
explicit range column, and this module adopts that reading.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


class Field(enum.Enum):
    """Base field (or division algebra) of a rank-one symmetric space."""

    R = "R"
    C = "C"
    H = "H"
    O = "O"

    @property
    def order(self) -> int:
        """Position in the canonical sort order R < C < H < O."""
        return _FIELD_ORDER[self]

    def __str__(self) -> str:
        return self.value


_FIELD_ORDER = {Field.R: 0, Field.C: 1, Field.H: 2, Field.O: 3}

#: Real hyperbolic dimension of each field's line coincidence F H^1 = R H^dim.
_LINE_REWRITE = {Field.C: 2, Field.H: 4, Field.O: 8}

RationalLike = Fraction | int | str


@dataclass(frozen=True)
class RankOneSpace:
    """A space ``F H^n(c)``, or its compact dual when ``compact_dual`` is set.

    ``curvature`` is the exact positive rational curvature parameter ``c``.
    ``n`` is the dimension over ``F``; construction accepts n = 1 only for
    F in {C, H, O} (those inputs exist transiently before normalization).
    """

    field: Field
    n: int
    curvature: Fraction
    compact_dual: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")
        if type(self.curvature) is not Fraction:
            object.__setattr__(self, "curvature", Fraction(self.curvature))
        if self.curvature <= 0:
            raise ValueError(f"curvature must be positive, got {self.curvature}")
        if self.field is Field.R and self.n < 2:
            raise ValueError("R H^1 is flat, not a rank-one symmetric space")
        if self.field is Field.O and self.n > 2:
            raise ValueError("octonionic dimension must be 2 (or 1 before normalization)")

    def sort_key(self) -> tuple:
        return self._sort_key

    @functools.cached_property
    def _sort_key(self) -> tuple:
        return (
            self.field.order,
            self.n,
            self.curvature.numerator,
            self.curvature.denominator,
        )

    def __str__(self) -> str:
        tag = "*" if self.compact_dual else ""
        return f"{self.field}H{self.n}({self.curvature}){tag}"


def space(field: Field | str, n: int, curvature: RationalLike, compact_dual: bool = False) -> RankOneSpace:
    """Convenience constructor accepting field letters and rational-like curvature."""
    if isinstance(field, str):
        field = Field(field)
    return RankOneSpace(field, n, Fraction(curvature), compact_dual)


def normalize(s: RankOneSpace) -> RankOneSpace:
    """Rewrite the n = 1 coincidences onto real hyperbolic spaces.

    ``C H^1(c)`` has constant curvature -c, hence equals ``R H^2(c)``;
    likewise ``H H^1(c) = R H^4(c)`` and ``O H^1(c) = R H^8(c)``.
    Idempotent: already-normalized spaces are returned unchanged.
    """
    if s.n == 1:
        return RankOneSpace(Field.R, _LINE_REWRITE[s.field], s.curvature, s.compact_dual)
    return s


def is_normalized(s: RankOneSpace) -> bool:
    return normalize(s) == s


def are_homothetic(a: RankOneSpace, b: RankOneSpace) -> bool:
    """True iff the two spaces agree up to rescaling of the metric.

    Homothety rescales curvature, so after normalization this is a pure
    (field, dimension) comparison.
    """
    a, b = normalize(a), normalize(b)
    return a.field == b.field and a.n == b.n


@dataclass(frozen=True)
class TotGeodInclusion:
    """One congruence class of totally geodesic inclusions ``sub c ambient``.

    Constructing an inclusion validates it against the classification, so
    an instance is a certificate of membership.
    """

    sub: RankOneSpace
    ambient: RankOneSpace

    def __post_init__(self) -> None:
        if not is_totally_geodesic(self.sub, self.ambient):
            raise ValueError(f"{self.sub} is not totally geodesic in {self.ambient}")

    @property
    def improper(self) -> bool:
        return self.sub == self.ambient

    def __str__(self) -> str:
        return f"{self.sub} < {self.ambient}"


def _require_normalized(s: RankOneSpace) -> None:
    if not is_normalized(s):
        raise ValueError(f"{s} is not canonically normalized; call normalize() first")


def _table_entries(ambient: RankOneSpace) -> Iterator[tuple[Field, int, Fraction]]:
    """Proper, non-flat, semisimple totally geodesic submanifold classes.

    Each class is yielded as ``(field, n, curvature)`` and shares the
    ambient's ``compact_dual`` flag.  The classical table is stated at
    c = 1; entries tagged 1 pick up the ambient curvature c, entries tagged
    1/4 pick up c/4 (a metric rescaled by lambda divides sectional
    curvature by lambda, so the whole table is covariant under curvature
    scaling).
    """
    f, n, c = ambient.field, ambient.n, ambient.curvature
    quarter = c / 4

    if f is Field.R:
        for k in range(2, n):
            yield (Field.R, k, c)
    elif f is Field.C:
        for k in range(2, n):
            yield (Field.C, k, c)
        for k in range(2, n + 1):
            yield (Field.R, k, quarter)
        # the complex line C H^1(c), post-normalization
        yield (Field.R, 2, c)
    elif f is Field.H:
        for k in range(2, n):
            yield (Field.H, k, c)
        for k in range(2, n + 1):
            yield (Field.C, k, c)
        for k in range(2, n + 1):
            yield (Field.R, k, quarter)
        # the quaternionic line H H^1(c) = R H^4(c) and its real subspaces
        for k in range(2, 5):
            yield (Field.R, k, c)
    else:  # Field.O, n == 2 after normalization
        yield (Field.H, 2, c)
        yield (Field.C, 2, c)
        yield (Field.R, 2, quarter)
        # the octonionic line O H^1(c) = R H^8(c) and its real subspaces
        for k in range(2, 9):
            yield (Field.R, k, c)


@functools.lru_cache(maxsize=8)
def _table_set(ambient: RankOneSpace) -> frozenset[tuple[Field, int, Fraction]]:
    """The classes of :func:`_table_entries` as a set, for constant-time membership.

    A product's catalog lists validate their inclusions ambient by ambient,
    so a few recent ambients suffice.
    """
    return frozenset(_table_entries(ambient))


def list_totally_geodesic(ambient: RankOneSpace, include_improper: bool = False) -> list[TotGeodInclusion]:
    """All proper non-flat semisimple totally geodesic submanifold classes.

    Geodesics and points are excluded (they are flat and handled by the
    product classifier).  With ``include_improper`` the identity inclusion
    ``ambient c ambient`` is appended.  Entries are congruence classes;
    non-congruent homothetic classes stay distinct through their
    curvatures (for example ``R H^2(c)`` and ``R H^2(c/4)`` in ``C H^2(c)``).
    """
    _require_normalized(ambient)
    if ambient.field is Field.O and ambient.n != 2:
        raise ValueError("octonionic ambient must have dimension 2")
    entries = [
        TotGeodInclusion(RankOneSpace(field, k, curv, ambient.compact_dual), ambient)
        for field, k, curv in _table_entries(ambient)
    ]
    if include_improper:
        entries.append(TotGeodInclusion(ambient, ambient))
    return entries


def is_totally_geodesic(sub: RankOneSpace, ambient: RankOneSpace) -> bool:
    """True iff ``sub`` embeds totally geodesically in ``ambient``.

    Total on normalized inputs; the identity inclusion counts.  Curvature
    is compared exactly, so e.g. ``C H^2(c/4)`` is not a submanifold of
    ``C H^3(c)`` even though ``C H^2(c)`` is.
    """
    _require_normalized(sub)
    _require_normalized(ambient)
    if sub.compact_dual != ambient.compact_dual:
        return False
    if sub == ambient:
        return True
    return (sub.field, sub.n, sub.curvature) in _table_set(ambient)
