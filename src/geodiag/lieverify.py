"""Numerical verification of classification entries in the :mod:`geodiag.models`.

Totally geodesic submanifolds correspond to Lie triple systems, so an entry
is checked by building its diagonal subspace in the compact models,
measuring the triple bracket residual and comparing sectional curvatures.
No matrix is built here.  Vectors are weighted p-coordinate rows, the only
vector type: block ``b`` with metric weight ``w_b`` contributes ``sqrt(w_b)``
times its coefficients on its orthonormal ``p`` basis, so the weighted inner
product is the dot product and a :class:`SubspaceBasis` is one
``(dim, sum q_b)`` array of orthonormal rows (``q_b`` = dim ``p`` of block
b), or a ``(k, dim, sum q_b)`` stack of k such families checked at once.  A
box's coordinates (:func:`_box_coordinates`) and ``Theta`` are index tables
on the block's ``p`` basis.  Rows meeting a quaternionic or octonionic
factor, which have no model, are reported as unsupported.

Constructive checks use the tolerance 1e-9.  A basis's Lie triple residual
is relative to the norm of all its triple brackets, and a row's curvature
error to its curvature, so neither changes with the metric scale.  Entry
verification builds one model per product, of all its real and complex
factors, and the diagonal rows of one class ``(field, n)`` together, as one
stack in that model (:class:`_VerifyMemo`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .catalog import Field, RankOneSpace
from .models import (
    TOL_ARITHMETIC, CartanDecomp, ProductModel, _pairs, _residuals, _row_norms, _T,
    calibration_constant, grassmannian_decomp, sphere_decomp,
)
from .tableaux import ClassifiedSubmanifold, ProductSpace

TOL_CONSTRUCTIVE = 1e-9

# Largest sum of the factors' matrix sizes ``N`` (``n + 1`` for RH^n and CH^n)
# that entry verification builds models for.  A stack of k rows of one class holds
# their triples, about k dim^3 q / 2 floats per block (q = dim p of a block), a few
# times that while it contracts: a full CH^17 row (dim = q = 34), alone in its class,
# traces about 25 MiB.
MAX_MODEL_SIZE = 18


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def _orthonormal_rows(raw: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``raw``, in order, by one QR per family.

    ``raw`` is one family ``(dim, width)`` or a stack ``(k, dim, width)``.
    Row i is the unit part of raw row i orthogonal to the rows before it
    (R's diagonal made positive).  Rank-deficient families are rejected:
    more rows than coordinates, or in any family a remainder ``|R_ii|`` at or
    below ``1e-10 * |raw_i|``, whatever the scale.  The rows come back C-contiguous.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-2] > raw.shape[-1]:
        raise ValueError("rank-deficient basis rejected")
    Q, R = np.linalg.qr(_T(raw))
    d = R.diagonal(0, -2, -1)
    if np.any(np.abs(d) <= 1e-10 * _row_norms(raw)):
        raise ValueError("rank-deficient basis rejected")
    return np.multiply(_T(Q), np.sign(d)[..., None], order="C")


def _frobenius_residual(T: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|N|_F / |T|_F`` per family, ``N`` the part of ``T`` off span(Q), and the coefficients ``T @ Q^T``.

    Stacks ``T (..., rows, width)`` and ``Q (..., dim, width)``; a family with ``T = 0`` reads 0.
    """
    TQ = T @ _T(Q)
    N = TQ @ Q
    np.subtract(T, N, out=N)  # in place: on a full CH^17 row T is 5 MB
    norm, rem = (np.sqrt(np.einsum("...ij,...ij->...", X, X)) for X in (T, N))
    return np.divide(rem, norm, out=np.zeros_like(norm), where=norm > 0), TQ


class _TripleCheck(NamedTuple):
    """A basis's triple-bracket residual and its curvature tensor ``K``, one per family of a stack."""

    residual: np.ndarray
    K: np.ndarray


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An orthonormal family spanning a candidate Lie triple system, or a stack of such families.

    ``coords`` is a read-only ``(dim, ambient.p_dim)`` array holding one
    coordinate row of ``ambient`` per basis vector, or a ``(k, dim, p_dim)``
    stack of k such families of one dimension, each checked on its own.
    ``_triple_check``, made on first use from one pass over the triple
    brackets, holds their residual per family and the read-only tensors
    ``K[..., p, q] = <[[e_i, e_j], e_l], e_m>`` over the pairs ``p = (i < j)``,
    ``q = (l < m)``: the coefficients are antisymmetric in ``(l, m)``, because
    ``ad [e_i, e_j]`` is skew for the trace form.  Spans, random vectors and
    Kahler angles take one family.  Compared and hashed by identity.
    """

    ambient: ProductModel
    coords: np.ndarray

    def __post_init__(self) -> None:
        C = np.array(self.coords, dtype=float)
        C.setflags(write=False)
        object.__setattr__(self, "coords", C)
        if not C.size:
            raise ValueError("empty subspace basis")
        if C.ndim not in (2, 3) or C.shape[-1] != self.ambient.p_dim:
            raise ValueError(f"subspace basis rows must have width {self.ambient.p_dim}, got shape {C.shape}")
        if np.max(np.abs(C @ _T(C) - np.eye(self.dim))) > TOL_ARITHMETIC:
            raise ValueError("subspace basis is not orthonormal")

    @classmethod
    def orthonormalized(cls, ambient: ProductModel, raw_vectors: np.ndarray) -> "SubspaceBasis":
        """Orthonormalize coordinate rows in order, by one QR per family.

        Rejects rank-deficient families (relative threshold 1e-10); one rejects its whole stack.
        """
        return cls(ambient, _orthonormal_rows(raw_vectors))

    @property
    def dim(self) -> int:
        return self.coords.shape[-2]  # of each family

    @functools.cached_property
    def _triple_check(self) -> _TripleCheck:
        C, dim = self.coords, self.dim
        residual, TC = _frobenius_residual(self.ambient.triples(C), C)
        l, m = _pairs(dim)
        K = TC.reshape(-1, dim, dim)[:, l, m].reshape(*C.shape[:-2], len(l), len(l))
        K.setflags(write=False)
        return _TripleCheck(residual, K)

    def span_residual(self, u: np.ndarray) -> float:
        """Relative distance of a coordinate row from the span."""
        return float(_residuals(u, self.coords)[0])

    def random_unit_vector(self, rng: np.random.Generator) -> np.ndarray:
        """Coordinates of a random unit vector of the span."""
        coeffs = rng.standard_normal(self.dim)
        coeffs /= math.sqrt(coeffs @ coeffs)
        return coeffs @ self.coords


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def is_lie_triple_system(V: SubspaceBasis, tol: float = TOL_CONSTRUCTIVE) -> tuple[bool, float]:
    """Check ``[[V, V], V]`` inside ``V``; return (verdict, residual) as a ``bool`` and a ``float``.

    The residual is relative: the Frobenius norm of the triple brackets
    ``[[e_i, e_j], e_l]`` (``i < j``) of the basis, ``T``, taken orthogonally
    to ``V``, over the Frobenius norm of ``T`` itself (0 when ``T`` vanishes).
    It does not change with the metric scale or under an orthonormal change
    of basis of ``V``.  On a stack the residual is the worst of its families.
    The check is made once per basis and kept on it with its curvature tensor.
    """
    worst = V._triple_check.residual
    worst = float(worst.max() if worst.ndim else worst)
    return worst <= tol, worst


def sectional_curvature(V: SubspaceBasis, x: np.ndarray, y: np.ndarray):
    """Calibrated sectional curvature of the plane spanned by rows x, y of V.

    Stacked rows ``(n, p_dim)`` measure n planes at once and return an array of n
    curvatures, positive on these compact models (scale: :func:`calibration_constant`).
    On a stack ``V`` of k families the rows are ``(k, n, p_dim)``, n planes
    in each family, and the curvatures ``(k, n)``.
    The planes are projected onto the basis once, to coefficient rows ``a, b``,
    and contract ``V``'s curvature tensor: ``<[[x, y], y], x> = -sum w_p K[p, q] w_q``
    with ``w_p = a_i b_j - a_j b_i``.  The area ``sum w_p^2`` equals
    ``|a|^2 |b|^2 - <a, b>^2`` (Lagrange) but keeps its digits on nearly
    dependent planes; a plane of area at most ``1e-12 |a|^2 |b|^2`` is
    dependent and raises.
    """
    C = V.coords
    X = np.atleast_2d(x)
    n = X.shape[-2]
    P = np.concatenate([X, np.atleast_2d(y)], axis=-2)
    coeffs = P @ _T(C)
    if np.max(_residuals(P, C, coeffs)) > TOL_CONSTRUCTIVE:
        raise ValueError("plane vectors must lie in the subspace")
    A, B = coeffs[..., :n, :], coeffs[..., n:, :]
    i, j = _pairs(V.dim)
    O = A[..., :, None] * B[..., None, :]
    W = (O - _T(O))[..., i, j]
    areas = np.einsum("...np,...np->...n", W, W)
    if np.any(areas <= 1e-12 * np.einsum("...ni,...ni->...n", A, A) * np.einsum("...ni,...ni->...n", B, B)):
        raise ValueError("sectional curvature of linearly dependent vectors")
    out = 4.0 / calibration_constant() * np.einsum("...np,...np->...n", W @ V._triple_check.K, W) / areas
    return out if np.ndim(x) >= 2 else float(out[0])


def kahler_angle_of(V: SubspaceBasis, v: np.ndarray) -> float:
    """Kahler angle of ``v`` with respect to ``V``, in [0, pi/2].

    Defined by ``|proj_V J v| = cos(angle) * |v|``; 0 for complex
    subspaces, pi/2 for totally real ones.  Computed from the projection
    and its orthogonal remainder via ``atan2``, which stays accurate at
    both endpoints where ``acos`` alone would lose half the precision.
    ``v`` is a coordinate row.
    """
    if not np.any(v):
        raise ValueError("Kahler angle of the zero vector")
    if V.span_residual(v) > TOL_CONSTRUCTIVE:
        raise ValueError("vector must lie in the subspace")
    jv = V.ambient.J(v)
    tangential = (V.coords @ jv) @ V.coords
    normal = jv - tangential
    return math.atan2(math.sqrt(normal @ normal), math.sqrt(tangential @ tangential))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def construct_diagonal_cp(k: int, s: int, n: int) -> SubspaceBasis:
    """The k-diagonal copy of ``CP^n`` with ``s`` unconjugated identifications.

    Lives in the direct sum of k projective-space models.  The first ``s``
    copies are identified by the identity, the rest through entrywise
    conjugation, which flips the sign of the ``J e_i`` directions.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if not 0 <= s <= k:
        raise ValueError("s must lie in 0..k")
    block = grassmannian_decomp(1, n)
    model = ProductModel((block,) * k, (1.0,) * k)
    direct, conjugated = np.eye(2 * n), np.diag(np.tile([1.0, -1.0], n))  # Theta: +e_a, -J e_a
    return SubspaceBasis.orthonormalized(model, np.hstack([direct] * s + [conjugated] * (k - s)))


# ---------------------------------------------------------------------------
# bridging exact classification entries into the matrix models
# ---------------------------------------------------------------------------


def _factor_model(space: RankOneSpace) -> tuple[CartanDecomp, float] | None:
    """Compact-dual model and metric weight for one product factor.

    The weight scales the block metric so that the factor's curvature
    labels are reproduced exactly: spheres read c, complex models read c
    on holomorphic planes and c/4 on totally real ones.
    """
    c = float(space.curvature)
    if space.field is Field.R:
        return sphere_decomp(space.n), 1.0 / c
    if space.field is Field.C:
        return grassmannian_decomp(1, space.n), 4.0 / c
    return None


def _box_coordinates(sub: RankOneSpace, ambient: RankOneSpace, q: int) -> np.ndarray:
    """The box's ``(dim, q)`` coefficients on its factor's ``p`` basis, q = p_dim: unit rows times one scale.

    Each row is the image of one fixed abstract basis vector of the box's class
    under a Lie algebra homomorphism into the factor model, up to one common
    scale, so diagonals glued from these rows across boxes are Lie triple
    systems by construction; the numerical check re-verifies that
    independently.  Row indices follow the layouts of :func:`sphere_decomp`
    and :func:`grassmannian_decomp` (``CP^n``: ``e_a`` is ``2a``, ``J e_a`` is ``2a + 1``).
    """
    pair = sub.field, ambient.field
    if pair == (Field.R, Field.R):
        rows, scale = range(sub.n), 1.0  # sub-sphere on the first coordinates
    elif pair == (Field.C, Field.C):
        rows, scale = range(2 * sub.n), 1.0
    elif pair == (Field.R, Field.C) and 4 * sub.curvature == ambient.curvature:
        rows, scale = range(0, 2 * sub.n, 2), -1.0  # totally real projective subspace
    elif pair == (Field.R, Field.C) and sub.curvature == ambient.curvature and sub.n == 2:
        rows, scale = range(2), -0.5  # the complex line: the so(3) -> su(2) isomorphism
    else:
        raise ValueError(f"no matrix model for {sub} inside {ambient}")
    return scale * np.eye(q)[rows]


def _label_mismatch(label: RankOneSpace, diagonal: RankOneSpace) -> str | None:
    """Why an entry's label is not the row's diagonal, or None when it is."""
    if label == diagonal:
        return None
    return f"label {label} differs from the row's diagonal {diagonal}"


class _BuiltRow(NamedTuple):
    """A row's diagonal, family ``index`` of its class stack ``stack``, and its measurements.

    Of the ``planes`` basis planes (``(e_a, J e_a)`` for complex rows, all
    pairs for real ones), ``curvature_measured`` is the one with the largest
    error; ``curvature_error`` is the larger of that error and ``curvature_bound``,
    which bounds every plane's (:func:`_build_stack`), both relative to the row's
    curvature.  Either is NaN when not finite.
    """

    stack: SubspaceBasis
    index: int
    lie_residual: float
    curvature_measured: float
    curvature_error: float
    curvature_bound: float
    planes: int


def _build_stack(model: ProductModel, rows: Sequence, raw: np.ndarray) -> list[_BuiltRow]:
    """Build rows of one class ``(field, n)`` as one stack, from their coordinates ``(k, dim, p_dim)``.

    Each row's calibrated curvature tensor on pairs is compared once with the
    tensor of its diagonal ``row.space`` at its curvature ``kappa``: ``kappa I`` for ``RH^m``, and
    for ``CH^m`` ``kappa/4 (d_il d_jm - d_im d_jl + J_il J_jm - J_im J_jl + 2 J_ij J_lm)``
    with ``J[i, k] = <J e_i, e_k>`` the complex structure on the row's own
    basis.  A plane with unit bivector ``w`` has curvature error ``w E w``,
    so the spectral norm of the symmetric part of the difference ``E``
    bounds every plane's error; one batched ``eigvalsh`` takes every row's.
    The bound and the basis planes' errors are relative, divided by ``kappa``.
    Raises ValueError when any row's coordinates are rank-deficient or a
    complex row's diagonal is not J-invariant.
    """
    V = SubspaceBasis.orthonormalized(model, raw)
    is_lie_triple_system(V)  # checked once here; V keeps the residuals and the curvature tensors
    row_class = rows[0].space
    kappa = np.array([float(row.space.curvature) for row in rows])
    C = V.coords
    i, j = _pairs(V.dim)
    if row_class.field is Field.C:
        # the diagonal must be J-invariant; holomorphic planes carry the label
        JC = model.J(C)
        J = JC @ _T(C)
        if np.max(_residuals(JC, C, J)) > TOL_CONSTRUCTIVE:
            raise ValueError("plane vectors must lie in the subspace")
        X, Y = C[:, 0 : 2 * row_class.n : 2], JC[:, 0 : 2 * row_class.n : 2]
        Ji, Jj, Jij = J[:, i], J[:, j], J[:, i, j]  # rows i_p and j_p of J, and its pair entries
        wedge = Ji[..., i] * Jj[..., j] - Ji[..., j] * Jj[..., i]
        K_model = 0.25 * (np.eye(len(i)) + wedge + 2.0 * Jij[:, :, None] * Jij[:, None, :])
    else:
        X, Y = C[:, i], C[:, j]
        K_model = np.eye(len(i))
    curvatures = sectional_curvature(V, X, Y)  # (rows, planes)
    at = np.arange(len(rows)), np.argmax(np.abs(curvatures - kappa[:, None]), axis=1)
    E = 4.0 / calibration_constant() * V._triple_check.K - kappa[:, None, None] * K_model
    finite = np.isfinite(E).all(axis=(1, 2))  # eigvalsh would raise on the others
    S = np.where(finite[:, None, None], E + _T(E), 0.0) / 2
    bound = np.where(finite, np.abs(np.linalg.eigvalsh(S)).max(axis=1), math.nan) / kappa
    error = np.maximum(np.abs(curvatures[at] - kappa) / kappa, bound)  # NaN stays NaN
    columns = zip(V._triple_check.residual.tolist(), curvatures[at].tolist(), error.tolist(), bound.tolist())
    return [_BuiltRow(V, r, *floats, curvatures.shape[1]) for r, floats in enumerate(columns)]


class _VerifyMemo:
    """The model, built rows and row verdicts of one product, each made once.

    One :class:`ProductModel` holds every modelled factor, in factor order; a row's
    coordinates are its boxes' on their factors' blocks and 0 elsewhere.  The rows
    of one class ``(field, n)`` of the product's row memo are built together, as one
    stack, the first time any of them is needed.  A row whose boxes have no
    coordinates stays out of the stack; a stack that raises keeps nothing, and its
    rows are then built one at a time when asked for, as is a row that is not the
    row memo's (forged or copied).  A row that cannot be built is not kept: each new
    verdict on it builds it again.  Rows are found again by identity, and held so
    that their identity stays valid.  Products above ``MAX_MODEL_SIZE`` are
    refused before any model is built.
    """

    @classmethod
    def of(cls, M: ProductSpace) -> "_VerifyMemo":
        """The memo of ``M``, kept in its instance dictionary like ``M._memo``.

        It is dropped with the product; a fresh, equal product starts empty.
        """
        memo = M.__dict__.get("_verify_memo")
        if memo is None:
            memo = M.__dict__["_verify_memo"] = cls(M)
        return memo

    def __init__(self, M: ProductSpace):
        # only real and complex factors have models, of matrix size n + 1
        size = sum(f.n + 1 for f in M.factors if f.field in (Field.R, Field.C))
        if size > MAX_MODEL_SIZE:
            raise ValueError(
                f"{M} needs matrix models of total size {size}; verify builds at most {MAX_MODEL_SIZE}"
            )
        self.factor_models = {i: fm for i in range(1, M.r + 1) if (fm := _factor_model(M.factor(i)))}
        self._factors, self._row_memo = M.factors, M._memo
        self._classes: dict[tuple, list] | None = None
        self._built: dict[int, tuple[tuple, _BuiltRow]] = {}
        self._reports: dict[tuple, tuple[tuple, RowVerification]] = {}

    @functools.cached_property
    def model(self) -> ProductModel:
        """The direct sum of the modelled factors' models, in factor order; made with the first row."""
        return ProductModel(*zip(*self.factor_models.values()))

    def _coordinates(self, row) -> np.ndarray:
        """The ``(dim, p_dim)`` coordinates of the row in :attr:`model`, before orthonormalization.

        Each box's weighted :func:`_box_coordinates` on its factor's block, and 0
        elsewhere.  Raises ValueError for a box that the table cannot place.
        """
        parts = {}
        for box in row:
            block, w = self.factor_models[box.factor]
            parts[box.factor] = math.sqrt(w) * _box_coordinates(box.inclusion.sub, box.inclusion.ambient, block.p_dim)
        dim = len(parts[row[0].factor])
        blocks = self.factor_models.items()
        return np.hstack([parts[i] if i in parts else np.zeros((dim, b.p_dim)) for i, (b, _) in blocks])

    def _build_class(self, field: Field, n: int) -> None:
        """Build the row memo's rows of class ``(field, n)`` as one stack, once per product."""
        if self._classes is None:
            self._classes = {}
            for row in self._row_memo.rows:
                if all(box.factor in self.factor_models for box in row):
                    self._classes.setdefault((row.space.field, row.space.n), []).append(row)
        rows, raw = [], []
        for row in self._classes.pop((field, n), ()):
            try:
                raw.append(self._coordinates(row))
            except ValueError:
                continue  # fails alone, when asked for
            rows.append(row)
        if not rows:
            return
        try:
            built = _build_stack(self.model, rows, np.stack(raw))
        except ValueError:
            return  # each row is built alone when asked for
        self._built.update((id(row), (row, b)) for row, b in zip(rows, built))

    def row(self, row) -> _BuiltRow:
        """The built diagonal of ``row``; raises ValueError when it cannot be built."""
        hit = self._built.get(id(row))
        if hit is None or hit[0] is not row:
            self._build_class(row.space.field, row.space.n)
            hit = self._built.get(id(row))
        if hit is not None and hit[0] is row:
            return hit[1]
        (built,) = _build_stack(self.model, [row], self._coordinates(row)[None])
        self._built[id(row)] = (row, built)
        return built

    def report(self, row, idx: int, lie_tol: float, mislabel: str | None) -> "RowVerification":
        """The verdict on ``row`` as row ``idx`` of an entry; see :func:`verify_classification_entry`.

        Kept per ``(row, idx, lie_tol)`` when the entry's label
        is the row's own diagonal (``mislabel`` None), as in every entry
        ``classify`` makes.
        """
        key = (id(row), idx, lie_tol)
        hit = self._reports.get(key) if mislabel is None else None
        if hit is not None and hit[0] is row:
            return hit[1]
        description = str(row)
        bad = [b for b in row if b.factor not in self.factor_models]
        if bad:
            missing = "no matrix model for factors " + ", ".join(str(self._factors[b.factor - 1]) for b in bad)
            report = RowVerification(idx, description, "fail" if mislabel else "unsupported", mislabel or missing)
        else:
            try:
                built = self.row(row)
            except ValueError as exc:
                report = RowVerification(idx, description, "fail", f"not measurable: {exc}")
            else:
                residual = built.lie_residual
                if not residual <= lie_tol:
                    reason = f"Lie triple residual {residual:.3e} exceeds {lie_tol:.1e}"
                elif not built.curvature_error <= 10 * lie_tol:
                    reason = f"curvature off by {built.curvature_error:.3e}"
                else:
                    reason = mislabel
                report = RowVerification(
                    idx, description, "ok" if reason is None else "fail", reason, residual,
                    float(row.space.curvature), built.curvature_measured, built.curvature_error, built.planes,
                )
        if mislabel is None:
            self._reports[key] = (row, report)
        return report


@dataclass(frozen=True)
class RowVerification:
    """Numerical verdict for one tableau row."""

    row_index: int
    description: str
    status: str  # "ok" | "fail" | "unsupported"
    reason: str | None
    lie_residual: float | None = None
    curvature_expected: float | None = None
    curvature_measured: float | None = None  # the basis plane with the largest error
    # the larger of the tensor bound over all planes and that basis plane's error, over curvature_expected
    curvature_error: float | None = None
    planes: int | None = None  # the number of basis planes

    def to_dict(self) -> dict:
        """The JSON record; a measurement that is not finite is None, as JSON has no NaN."""
        record = dict(zip(_ROW_KEYS, _row_values(self)))
        record.update((key, _finite_or_none(record[key])) for key in _MEASURED_KEYS)
        return record


# a row record's keys, ``row_index`` written as "row", and its values in order
_ROW_KEYS = ("row", *(f.name for f in fields(RowVerification)[1:]))
_row_values = operator.attrgetter(*(f.name for f in fields(RowVerification)))
_MEASURED_KEYS = ("lie_residual", "curvature_expected", "curvature_measured", "curvature_error")


def _finite_or_none(x: float | None) -> float | None:
    return x if x is None or math.isfinite(x) else None


@dataclass(frozen=True)
class EntryVerification:
    """Full report for one classification entry, derived from its rows.

    ``reason`` explains a failure of the entry's total: a factor carrying
    two rows or flat directions, or a total residual above the tolerance.
    Row verdicts carry their own reasons in ``rows``.  The entry fails when
    it has a ``reason`` or a row failed, and is otherwise unsupported when a
    row is.  Flat directions are never unsupported: they need no model.
    """

    entry: ClassifiedSubmanifold
    rows: tuple[RowVerification, ...]
    total_lie_residual: float | None
    reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.reason is not None or any(r.status == "fail" for r in self.rows)

    @property
    def unsupported(self) -> tuple[str, ...]:
        """``row i: <reason>`` for every unsupported row."""
        return tuple(f"row {r.row_index}: {r.reason}" for r in self.rows if r.status == "unsupported")

    @property
    def status(self) -> str:
        if self.failed:
            return "fail"
        return "unsupported" if self.unsupported else "pass"

    def to_dict(self) -> dict:
        """The JSON record, non-finite measurements None; a failing entry's also carries ``reason``."""
        status = self.status
        record = {
            "status": status,
            "isometry_type": self.entry.isometry_type(),
            "rows": [r.to_dict() for r in self.rows],
            "flat_dim": self.entry.flat_dim,
            "flat_supported": True,  # flat directions need no model; kept for readers of the format
            "total_lie_residual": _finite_or_none(self.total_lie_residual),
            "unsupported": list(self.unsupported),
        }
        if status == "fail":
            record["reason"] = self.reason
        return record


def verify_classification_entry(
    entry: ClassifiedSubmanifold,
    M: ProductSpace,
    lie_tol: float = TOL_CONSTRUCTIVE,
) -> EntryVerification:
    """Rebuild one classification entry in compact duals and measure it.

    Every supported row's diagonal Lie triple system is built and measured
    once per ``M``, with every row of its class (:class:`_VerifyMemo`,
    :func:`_build_stack`); its residual and ``curvature_error``, both relative,
    are compared with ``lie_tol`` and ``10 * lie_tol``, and the verdict on a row labelled
    with its own diagonal is kept per row, index and tolerance.  No plane
    is drawn at random, so a report depends on its arguments alone.  Every row's label in
    ``semisimple_factors`` must be the row's class with its exact harmonic
    curvature.  A row meeting a quaternionic or octonionic factor is
    flagged as unsupported, never skipped silently, or fails when its label
    is wrong; flat directions need no model.  A row that cannot be built or
    measured (a box outside the matrix models, planes leaving a complex
    row) fails with the reason instead of raising.
    The total residual is derived from the block structure: when no factor
    carries more than one row or flat direction it is the largest residual
    of the rows (0.0 with flat directions only).  It is None for the point,
    for an entry with a row that was not measured (unsupported or not
    measurable) and for an entry whose factors overlap, which fails.  Either
    failure of the total sets the report's ``reason``.  Products above
    ``MAX_MODEL_SIZE`` raise ValueError before any model is built.
    """
    if not entry.tableau.is_adapted_to(M):
        raise ValueError("entry does not belong to the given product space")

    memo = _VerifyMemo.of(M)
    rows = entry.tableau.rows
    flat_factors = entry.complement_factors[: entry.flat_dim]

    row_reports = [
        memo.report(row, idx, lie_tol, _label_mismatch(entry.semisimple_factors[idx], row.space))
        for idx, row in enumerate(rows)
    ]

    # disjoint factor blocks: cross brackets vanish and the stacked rows stay orthonormal
    carried = [*(b.factor for row in rows for b in row), *flat_factors]
    residuals = [r.lie_residual for r in row_reports] + [0.0] * len(flat_factors)
    disjoint = len(set(carried)) == len(carried)
    total_residual = max(residuals) if disjoint and residuals and None not in residuals else None
    if not disjoint:
        shared = next(i for i in carried if carried.count(i) > 1)
        on = [f"row {idx}" for idx, row in enumerate(rows) for b in row if b.factor == shared]
        on += ["a flat direction"] * flat_factors.count(shared)
        reason = f"factor {shared} carries " + " and ".join(on)
    elif total_residual is not None and not total_residual <= lie_tol:
        reason = f"total Lie triple residual {total_residual:.3e} exceeds {lie_tol:.1e}"
    else:
        reason = None

    return EntryVerification(entry, tuple(row_reports), total_residual, reason)
