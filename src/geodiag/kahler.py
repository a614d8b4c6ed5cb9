"""Constant Kahler angles of diagonal complex projective subspaces.

A k-fold diagonal copy of ``CP^n`` inside ``CP^n x ... x CP^n`` built from
``s`` holomorphic and ``k - s`` anti-holomorphic identifications has
constant Kahler angle ``arccos(|2s - k| / k)``.  Embedding the product of
projective spaces inside a complex Grassmannian (one copy per row of the
tautological block) turns every rational cosine ``a/b`` in [0, 1] into the
Kahler angle of a totally geodesic submanifold of an irreducible Hermitian
symmetric space ``G_k(C^{n+k})``, which makes the realizable angle set
dense in [0, pi/2].

Angles are carried as exact rational cosines; the radian value is a
display-only float.  ``approximate_angle`` searches continued-fraction
convergents of the target cosine, so the denominator (and with it the
number of diagonal copies) stays close to the minimum the accuracy allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .tableaux import Partition

HALF_PI = math.pi / 2


class AngleApproximationError(RuntimeError):
    """Raised when no convergent of the float cosine meets the tolerance."""


@dataclass(frozen=True)
class ExactAngle:
    """An angle in [0, pi/2] stored as an exact cosine plus a float value."""

    cosine: Fraction
    radians: float

    def __post_init__(self) -> None:
        if not 0 <= self.cosine <= 1:
            raise ValueError(f"cosine must lie in [0, 1], got {self.cosine}")
        if abs(math.cos(self.radians) - float(self.cosine)) > 1e-12:
            raise ValueError("radians inconsistent with cosine")

    @classmethod
    def from_cosine(cls, cosine: Fraction | int | str) -> "ExactAngle":
        q = Fraction(cosine)
        return cls(q, math.acos(float(q)))

    def __str__(self) -> str:
        return f"arccos({self.cosine})"


@dataclass(frozen=True)
class Grassmannian:
    """The Grassmannian of complex k-planes in C^(n+k)."""

    k: int
    n: int

    @property
    def ambient_dim(self) -> int:
        return self.n + self.k

    def __str__(self) -> str:
        return f"G{self.k}(C{self.ambient_dim})"


@dataclass(frozen=True)
class AngleRealization:
    """A concrete totally geodesic realization of a rational Kahler cosine.

    ``k`` diagonal copies of ``CP^m`` (``s`` of them unconjugated) inside
    the complex Grassmannian ``G_k(C^{n+k})`` with ``n = k * m``, via the
    equal-parts partition (m, ..., m) of n.
    """

    k: int
    s: int
    m: int
    n: int
    ambient: Grassmannian

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be positive")
        if not 0 <= self.s <= self.k:
            raise ValueError("s must lie in 0..k")
        if self.n != self.k * self.m:
            raise ValueError("n must equal k * m")
        if (self.ambient.k, self.ambient.n) != (self.k, self.n):
            raise ValueError("ambient Grassmannian does not match (k, n)")

    @property
    def cosine(self) -> Fraction:
        return Fraction(abs(2 * self.s - self.k), self.k)

    @property
    def angle(self) -> ExactAngle:
        return ExactAngle.from_cosine(self.cosine)


def angles_in_product(k: int) -> list[ExactAngle]:
    """Kahler angles of the k-diagonal projective subspaces, deduplicated.

    Returns the cosines ``|2s - k| / k`` for s = 0..k as exact angles,
    sorted by cosine.  Symmetric under s <-> k - s, so the numerators
    ``|2s - k|`` are the integers from ``k % 2`` to ``k`` of the parity of
    ``k``, each once and already ascending.  Linear in k.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return [ExactAngle.from_cosine(Fraction(j, k)) for j in range(k % 2, k + 1, 2)]


def realize_angle(q: Fraction | int | str, m: int) -> AngleRealization:
    """Smallest-k diagonal realization of the rational cosine ``q``.

    For ``q = a/b`` in lowest terms the construction needs ``|2s - k| = a k / b``
    with both sides of matching parity, so ``k = b`` works when ``b - a`` is
    even and ``k = 2b`` otherwise.  ``q = 1`` is realized by the identity
    embedding of a single copy (k = s = 1).
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError(f"cosine must lie in [0, 1], got {q}")
    if m < 1:
        raise ValueError("m must be a positive integer")
    a, b = q.numerator, q.denominator
    if a == b:
        k, s = 1, 1
    else:
        k = b if (b - a) % 2 == 0 else 2 * b
        s = (k - a * (k // b)) // 2
    n = k * m
    realization = AngleRealization(k, s, m, n, Grassmannian(k, n))
    assert realization.cosine == q
    return realization


def grassmannian_product_embeddings(k: int, n: int) -> list[Partition]:
    """Partitions of ``n`` into exactly ``k`` positive parts.

    Each partition (n_1, ..., n_k) certifies one complex totally geodesic
    product ``CP^{n_1} x ... x CP^{n_k}`` inside ``G_k(C^{n+k})``, carried
    by the row blocks of the tautological matrix model.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > n:
        raise ValueError(f"no partition of {n} into {k} positive parts")
    return list(_partitions_exact(n, k, n))


def _partitions_exact(n: int, k: int, max_part: int) -> Iterator[Partition]:
    """Partitions of n into exactly k parts, each <= max_part, descending order."""
    if k == 1:
        if 1 <= n <= max_part:
            yield (n,)
        return
    for first in range(min(n - k + 1, max_part), 0, -1):
        for rest in _partitions_exact(n - first, k - 1, first):
            yield (first, *rest)


def _convergents(x: Fraction) -> Iterator[tuple[int, int]]:
    """Continued-fraction convergents (p, q) of a non-negative rational."""
    num, den = x.numerator, x.denominator
    h_prev, h = 1, num // den
    k_prev, k = 0, 1
    num, den = den, num - (num // den) * den
    yield h, k
    while den:
        a = num // den
        num, den = den, num - a * den
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        yield h, k


def approximate_angle(
    target_radians: float,
    epsilon: float,
    m: int = 1,
) -> AngleRealization:
    """A realization whose angle lies within ``epsilon`` of the target.

    Walks the continued-fraction convergents of ``cos(target)`` in order of
    increasing denominator and returns the first realization meeting the
    tolerance, keeping the diagonal count small.  The final convergent
    reproduces the float cosine exactly, so the search is finite: a float
    cosine in ``[cos(pi/2), 1]`` is ``p/q`` with ``q <= 2^106``, so by
    Lame's bound the walk ends within 155 convergents.  It fails with
    :class:`AngleApproximationError` when even the float cosine misses the
    target: near 0 float cosines resolve angles only in steps of about
    1.5e-8 rad (``cos(target)`` rounds to 1.0 below about 1.05e-8 rad), so
    a smaller ``epsilon`` may be out of reach there.

    Accuracy near angle 0 is intrinsically expensive: realizable nonzero
    angles scale like ``2/sqrt(k)``, so a target of t radians (with t above
    epsilon) forces roughly ``k ~ 4/t^2`` diagonal copies.
    """
    if not -1e-12 <= target_radians <= HALF_PI + 1e-12:
        raise ValueError("target must lie in [0, pi/2]")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon}")
    target = min(max(target_radians, 0.0), HALF_PI)
    x = Fraction(min(max(math.cos(target), 0.0), 1.0))
    for tried, (p, q) in enumerate(_convergents(x), 1):
        cosine = Fraction(p, q)
        if abs(math.acos(float(cosine)) - target) < epsilon:
            return realize_angle(cosine, m)
    raise AngleApproximationError(
        f"no convergent of the float cosine {float(x)!r} lies within {epsilon}"
        f" of {target_radians} (convergents tried: {tried})"
    )
