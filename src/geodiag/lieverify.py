"""Numerical verification engine on skew-Hermitian matrix models.

Everything here runs in compact duals: ``su(n+k)`` for the Grassmannian of
complex k-planes (``k = 1`` giving ``CP^n``), and ``so(m+1)`` for the
sphere ``S^m``.  Totally geodesic submanifolds correspond to Lie triple
systems, so a symbolic classification entry is checked by building the
matching diagonal subspace in the compact models, measuring the triple
bracket residual and comparing sectional curvatures.

Conventions, fixed here once:

* Inner product: ``<X, Y> = Re tr(X^H Y)``, the positive multiple of the
  negative Killing form natural for compact matrix algebras.
* Curvature: in these variables compact-type sectional curvature is
  ``-<[[X, Y], Y], X> / (<X,X><Y,Y> - <X,Y>^2)``, a non-negative number
  (it equals ``|[X, Y]|^2`` over the same denominator).  Reported values
  are rescaled so the ``su(2)`` projective-line model reads exactly 4;
  totally real planes of ``CP^n`` then read 1, spheres ``so(m+1)`` read 1,
  matching the curvature labels used by the exact classification at c = 1.
  The raw pre-rescaling value of the ``su(2)`` model is exposed as
  :func:`calibration_constant`.
* Conjugation ``Theta`` is entrywise complex conjugation; on the canonical
  ``CP^n`` basis it fixes the real directions ``e_i`` and negates ``J e_i``.
* Tolerances: arithmetic identities 1e-12, structural residuals 1e-10,
  constructive checks 1e-9; residuals are relative to the norm of the
  quantity tested.

Representation: subspaces and measurements work in real coordinates, in
which block ``b`` of a direct sum with metric weight ``w_b`` contributes
``sqrt(w_b)`` times the real and imaginary parts of its flattened matrix.
The weighted inner product is then the plain dot product, the Gram matrix
of rows ``C`` is ``C @ C.T``, and a :class:`SubspaceBasis` is one
``(dim, D)`` array of orthonormal rows.  Triple brackets are batched
matmuls on each block's ``(dim, N, N)`` stack, and every residual comes
from one projection ``T - (T C^T) C``.  Coordinate rows are the only vector
type: the measurements, :meth:`ProductModel.bracket` and
:meth:`ProductModel.J` take and return them.

Entry verification builds and checks each distinct tableau row once per
product, in the sum of its own factors' blocks, and keeps it on the
``ProductSpace``; every entry still samples its own random planes per row
and checks its labels.  No entry is orthonormalized or bracketed as a
whole: its rows and flat directions sit on pairwise disjoint factors, so
its subspace is an orthogonal direct sum whose cross brackets vanish, and
its total triple residual is the largest row residual.  An entry whose
factors overlap has no such total and fails, with a reason naming the
factor.  Products whose real and complex factors need models of total
matrix size above ``MAX_MODEL_SIZE`` are refused before any is built.

Quaternionic and octonionic factors have no matrix model here and are
reported as unsupported rather than approximated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .catalog import Field, RankOneSpace
from .tableaux import ClassifiedSubmanifold, ProductSpace, diagonal_curvature

TOL_ARITHMETIC = 1e-12
TOL_STRUCTURAL = 1e-10
TOL_CONSTRUCTIVE = 1e-9

# Largest sum of the factors' matrix sizes ``N`` (``n + 1`` for RH^n and CH^n)
# that entry verification builds models for.  A row's triple check holds
# about dim^3 * N^2 floats, so the worst case, a full CH^17 row, peaks near
# 0.3 GiB.
MAX_MODEL_SIZE = 18

Matrix = np.ndarray


# ---------------------------------------------------------------------------
# plain matrix helpers
# ---------------------------------------------------------------------------


def bracket(x: Matrix, y: Matrix) -> Matrix:
    """Matrix commutator ``xy - yx``."""
    if x.shape != y.shape:
        raise ValueError(f"size mismatch: {x.shape} vs {y.shape}")
    return x @ y - y @ x


def check_element(x: Matrix, tol: float = TOL_ARITHMETIC) -> None:
    """Validate skew-Hermitian and traceless, relative to each matrix's norm.

    ``x`` is one matrix or a stack ``(..., N, N)`` checked at once.
    """
    scale = np.maximum(1.0, np.linalg.norm(x, axis=(-2, -1)))
    if np.any(np.linalg.norm(x + np.swapaxes(x, -1, -2).conj(), axis=(-2, -1)) > tol * scale):
        raise ValueError("matrix is not skew-Hermitian")
    if np.any(np.abs(np.trace(x, axis1=-2, axis2=-1)) > tol * scale):
        raise ValueError("matrix is not traceless")


def random_special_unitary(dim: int, rng: np.random.Generator) -> Matrix:
    """Haar-ish random element of SU(dim) via QR of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / dim)


def _e(n: int, i: int, j: int, value: complex) -> Matrix:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = value
    return m


def _antisym(n: int, i: int, j: int) -> Matrix:
    """E_ij - E_ji as a complex matrix."""
    return _e(n, i, j, 1.0) + _e(n, j, i, -1.0)


# ---------------------------------------------------------------------------
# Cartan decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanDecomp:
    """A compact matrix model ``g = k + p`` with orthonormal bases.

    ``kind`` is ``"grassmannian"`` (``su(n+k)`` with ``block_shape=(k, n)``)
    or ``"sphere"`` (``so(m+1)`` with ``block_shape=(1, m)``).  ``k_basis``
    and ``p_basis`` are read-only ``(dim, N, N)`` stacks.  For Hermitian
    models ``J_generator`` is the central element of ``k`` whose adjoint
    action squares to minus the identity on ``p``.
    """

    N: int
    kind: str
    block_shape: tuple[int, int]
    k_basis: np.ndarray
    p_basis: np.ndarray
    J_generator: Matrix | None

    def __post_init__(self) -> None:
        for name in ("k_basis", "p_basis", "J_generator"):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=complex)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        P = self.p_basis
        check_element(self.k_basis)
        check_element(P)
        F = _flat(P)
        if np.max(np.abs(F @ F.T - np.eye(len(F)))) > TOL_ARITHMETIC:
            raise ValueError("p basis is not orthonormal")
        g = self.J_generator
        if g is not None:
            jv = g @ P - P @ g
            if np.any(np.linalg.norm(g @ jv - jv @ g + P, axis=(1, 2)) > TOL_STRUCTURAL):
                raise ValueError("ad(J)^2 is not -identity on p")

    @property
    def p_dim(self) -> int:
        return len(self.p_basis)

    def conjugated(self, g: Matrix) -> "CartanDecomp":
        """The same decomposition transported by a unitary ``g``."""
        conj = lambda m: g @ m @ g.conj().T
        return CartanDecomp(
            self.N,
            self.kind,
            self.block_shape,
            conj(self.k_basis),
            conj(self.p_basis),
            None if self.J_generator is None else conj(self.J_generator),
        )


def _flat(matrices: Sequence[Matrix] | np.ndarray) -> np.ndarray:
    """Unweighted real coordinates of a family of N x N complex matrices."""
    stack = np.ascontiguousarray(matrices, dtype=complex)
    return stack.view(np.float64).reshape(-1, 2 * stack.shape[-1] ** 2)


def _gram_schmidt(raw: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``raw``, in order.

    Modified Gram-Schmidt: each finished row is removed from all later rows
    at once, and each row is projected once more against the finished rows
    before it is normalized.  Rank-deficient families are rejected
    (relative threshold 1e-10).
    """
    Q = np.array(raw, dtype=float)
    floor = 1e-10 * np.maximum(1.0, _row_norms(Q))
    for i, w in enumerate(Q):
        w -= (Q[:i] @ w) @ Q[:i]
        nrm = math.sqrt(w @ w)
        if nrm <= floor[i]:
            raise ValueError("rank-deficient basis rejected")
        w /= nrm
        Q[i + 1 :] -= np.outer(Q[i + 1 :] @ w, w)
    return Q


def _residuals(T: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Relative distance of each row of ``T`` from the span of orthonormal rows ``Q``; 0 if zero."""
    T = np.atleast_2d(T)
    norms = _row_norms(T)
    rem = _row_norms(T - (T @ Q.T) @ Q)
    return np.divide(rem, norms, out=np.zeros_like(norms), where=norms > 0)


def _worst_residual(T: np.ndarray, Q: np.ndarray) -> float:
    """Largest residual of the rows of ``T`` off span(Q), skipping structural zeros."""
    norms = _row_norms(T)
    live = norms > TOL_ARITHMETIC * max(float(norms.max(initial=0.0)), 1.0)
    return float(_residuals(T[live], Q).max()) if live.any() else 0.0


def _row_norms(T: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", T, T))


@functools.lru_cache(maxsize=128)
def _pairs(dim: int) -> np.ndarray:
    """Index rows (i, j) of all pairs i < j, in row-major order; read-only."""
    pairs = np.array(list(itertools.combinations(range(dim), 2)), dtype=np.intp).reshape(-1, 2).T
    pairs.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=None)
def grassmannian_decomp(k: int, n: int) -> CartanDecomp:
    """The ``su(n+k)`` model of the Grassmannian of complex k-planes.

    ``k`` is the block-diagonal ``s(u(k) + u(n))``, ``p`` the off-diagonal
    blocks identified with k x n complex matrices.  The complex structure
    generator is the central diagonal element, normalized numerically so
    that its adjoint action squares to minus the identity on ``p``.
    """
    if k < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    N = k + n
    k_raw: list[Matrix] = []
    for lo, hi in ((0, k), (k, N)):
        for a in range(lo, hi):
            for b in range(a + 1, hi):
                k_raw.append(_antisym(N, a, b))
                k_raw.append(_e(N, a, b, 1j) + _e(N, b, a, 1j))
    for a in range(N - 1):
        k_raw.append(_e(N, a, a, 1j) + _e(N, a + 1, a + 1, -1j))
    k_basis = _gram_schmidt(_flat(k_raw)).view(complex).reshape(-1, N, N)

    p_basis: list[Matrix] = []
    for a in range(k):
        for b in range(n):
            real = (_e(N, a, k + b, 1.0) + _e(N, k + b, a, -1.0)) / math.sqrt(2)
            imag = (_e(N, a, k + b, 1j) + _e(N, k + b, a, 1j)) / math.sqrt(2)
            p_basis.extend((real, imag))

    z_raw = 1j * np.diag([float(n)] * k + [float(-k)] * n).astype(complex)
    scale = np.linalg.norm(bracket(z_raw, p_basis[0])) / np.linalg.norm(p_basis[0])
    j_generator = z_raw / scale

    return CartanDecomp(N, "grassmannian", (k, n), k_basis, p_basis, j_generator)


@functools.lru_cache(maxsize=None)
def sphere_decomp(m: int) -> CartanDecomp:
    """The ``so(m+1)`` model of the sphere ``S^m``.

    ``k = so(m)`` acts on the first m coordinates; ``p`` is the last
    column of antisymmetric real matrices.  No complex structure.
    """
    if m < 2:
        raise ValueError("sphere dimension must be at least 2")
    N = m + 1
    k_basis = [_antisym(N, a, b) / math.sqrt(2) for a in range(m) for b in range(a + 1, m)]
    p_basis = [_antisym(N, a, m) / math.sqrt(2) for a in range(m)]
    return CartanDecomp(N, "sphere", (1, m), k_basis, p_basis, None)


def bracket_relation_residuals(decomp: CartanDecomp) -> dict[str, float]:
    """Relative residuals of [k,k] in k, [k,p] in p and [p,p] in k."""

    K, P = decomp.k_basis, decomp.p_basis
    (ki, kj), (pi, pj) = _pairs(len(K)), _pairs(len(P))
    kp = K[:, None] @ P - P @ K[:, None]
    return {
        "kk_in_k": _worst_residual(_flat(bracket(K[ki], K[kj])), _flat(K)),
        "kp_in_p": _worst_residual(_flat(kp), _flat(P)),
        "pp_in_k": _worst_residual(_flat(bracket(P[pi], P[pj])), _flat(K)),
    }


@functools.lru_cache(maxsize=1)
def calibration_constant() -> float:
    """Raw sectional curvature of the ``su(2)`` projective-line model.

    All reported curvatures are rescaled by ``4 / calibration_constant()``,
    anchoring the projective line at 4.
    """
    model = ProductModel.single(grassmannian_decomp(1, 1))
    P = model.p_coords
    return float(_sectional_raw(model, P[:1], P[1:])[0])


# ---------------------------------------------------------------------------
# direct sums and subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductModel:
    """An orthogonal direct sum of compact models with metric weights.

    Vectors are coordinate rows ``(..., D)``: block ``b`` contributes
    ``sqrt(w_b)`` times the real and imaginary parts of its flattened
    matrix, so the weighted sum of the blockwise trace forms is the dot
    product (see the module docstring).  A weight ``w`` scales the block
    metric by ``w`` and therefore its curvatures by ``1/w``.
    """

    blocks: tuple[CartanDecomp, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.weights):
            raise ValueError("one weight per block required")
        if not self.blocks:
            raise ValueError("at least one block required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    @classmethod
    def single(cls, decomp: CartanDecomp) -> "ProductModel":
        return cls((decomp,), (1.0,))

    @functools.cached_property
    def _offsets(self) -> tuple[int, ...]:
        """Start of each block's coordinates, then the coordinate dimension D."""
        return tuple(itertools.accumulate((2 * b.N * b.N for b in self.blocks), initial=0))

    def _join(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Coordinates ``(..., D)`` of blockwise matrix stacks ``(..., N_b, N_b)``."""
        lead = np.shape(parts[0])[:-2]
        out = np.empty((*lead, self._offsets[-1]))
        for w, p, lo, hi in zip(self.weights, parts, self._offsets, self._offsets[1:]):
            flat = np.ascontiguousarray(p, dtype=complex).view(np.float64).reshape(*lead, hi - lo)
            np.multiply(flat, math.sqrt(w), out=out[..., lo:hi])
        return out

    def _split(self, C: np.ndarray) -> list[np.ndarray]:
        """Blockwise matrix stacks ``(..., N_b, N_b)`` of coordinates ``(..., D)``."""
        lead = C.shape[:-1]
        return [
            np.ascontiguousarray(C[..., lo:hi] / math.sqrt(w)).view(complex).reshape(*lead, b.N, b.N)
            for b, w, lo, hi in zip(self.blocks, self.weights, self._offsets, self._offsets[1:])
        ]

    @functools.cached_property
    def p_coords(self) -> np.ndarray:
        """Orthonormal coordinate rows spanning ``p``, block by block; built on first use."""
        rows = np.zeros((sum(b.p_dim for b in self.blocks), self._offsets[-1]))
        r = 0
        for block, lo, hi in zip(self.blocks, self._offsets, self._offsets[1:]):
            rows[r : r + block.p_dim, lo:hi] = _flat(block.p_basis)
            r += block.p_dim
        rows.setflags(write=False)
        return rows

    def bracket(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Blockwise commutator of coordinates ``(..., D)``."""
        return self._join([bracket(a, b) for a, b in zip(self._split(X), self._split(Y))])

    def J(self, C: np.ndarray) -> np.ndarray:
        """Blockwise complex structure on coordinates ``(..., D)``.

        Components on blocks without a complex structure must vanish.
        """
        parts = []
        for block, a in zip(self.blocks, self._split(C)):
            g = block.J_generator
            if g is None:
                if np.linalg.norm(a) > TOL_ARITHMETIC:
                    raise ValueError("element has mass on a block with no complex structure")
                parts.append(np.zeros_like(a))
            else:
                parts.append(g @ a - a @ g)
        return self._join(parts)


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal family spanning a candidate Lie triple system.

    ``coords`` is a read-only ``(dim, D)`` array holding one coordinate row
    of ``ambient`` per basis vector.
    """

    ambient: ProductModel
    coords: np.ndarray

    def __post_init__(self) -> None:
        C = np.array(self.coords, dtype=float)
        C.setflags(write=False)
        object.__setattr__(self, "coords", C)
        if not len(C):
            raise ValueError("empty subspace basis")
        if np.max(np.abs(C @ C.T - np.eye(len(C)))) > TOL_ARITHMETIC:
            raise ValueError("subspace basis is not orthonormal")
        if np.max(_residuals(C, self.ambient.p_coords)) > TOL_ARITHMETIC:
            raise ValueError("subspace basis does not lie in p")

    @classmethod
    def orthonormalized(cls, ambient: ProductModel, raw_vectors: np.ndarray) -> "SubspaceBasis":
        """Modified Gram-Schmidt with one reorthogonalization pass on coordinate rows.

        Rejects rank-deficient families (relative threshold 1e-10).
        """
        return cls(ambient, _gram_schmidt(raw_vectors))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def span_residual(self, u: np.ndarray) -> float:
        """Relative distance of a coordinate row from the span."""
        return float(_residuals(u, self.coords)[0])

    def random_unit_vector(self, rng: np.random.Generator) -> np.ndarray:
        """Coordinates of a random unit vector of the span."""
        coeffs = rng.standard_normal(self.dim)
        coeffs /= math.sqrt(coeffs @ coeffs)
        return coeffs @ self.coords

    def conjugated(self, gs: Sequence[Matrix]) -> "SubspaceBasis":
        """Transport basis and ambient by one unitary per block."""
        ambient = ProductModel(
            tuple(b.conjugated(g) for b, g in zip(self.ambient.blocks, gs)),
            self.ambient.weights,
        )
        parts = [g @ a @ g.conj().T for g, a in zip(gs, self.ambient._split(self.coords))]
        return SubspaceBasis(ambient, ambient._join(parts))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def is_lie_triple_system(V: SubspaceBasis, tol: float = TOL_CONSTRUCTIVE) -> tuple[bool, float]:
    """Check ``[[V, V], V]`` inside ``V``; return (verdict, max residual).

    The residual of a triple bracket is the norm of its component
    orthogonal to ``V`` relative to the bracket's own norm; brackets that
    vanish to arithmetic precision are structural zeros and are skipped.
    Per block, all ``[X_i, X_j]`` (i < j) and then all ``[[X_i, X_j], X_l]``
    are batched matmuls on the ``(dim, N, N)`` stack of the basis.
    """
    model = V.ambient
    i, j = _pairs(V.dim)
    parts = []
    for X in model._split(V.coords):
        B = bracket(X[i], X[j])[:, None]
        parts.append(B @ X - X @ B)
    worst = _worst_residual(model._join(parts).reshape(-1, V.coords.shape[1]), V.coords)
    return worst <= tol, worst


def _sectional_raw(model: ProductModel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Uncalibrated curvature of the planes spanned by coordinate rows X[n], Y[n]."""
    T = model._join([bracket(bracket(x, y), y) for x, y in zip(model._split(X), model._split(Y))])
    xx, yy, xy = (np.einsum("ij,ij->i", a, b) for a, b in ((X, X), (Y, Y), (X, Y)))
    den = xx * yy - xy**2
    if np.any(den <= 1e-12 * np.maximum(xx * yy, 1e-300)):
        raise ValueError("sectional curvature of linearly dependent vectors")
    return -np.einsum("ij,ij->i", T, X) / den


def sectional_curvature(V: SubspaceBasis, x: np.ndarray, y: np.ndarray):
    """Calibrated sectional curvature of the plane spanned by rows x, y of V.

    Stacked rows ``(n, D)`` measure n planes at once and return an array of
    n curvatures.  Positive on these compact models; the scale is fixed by
    the projective-line anchor (see :func:`calibration_constant`).
    """
    if max(np.max(_residuals(u, V.coords)) for u in (x, y)) > TOL_CONSTRUCTIVE:
        raise ValueError("plane vectors must lie in the subspace")
    out = 4.0 / calibration_constant() * _sectional_raw(V.ambient, np.atleast_2d(x), np.atleast_2d(y))
    return out if x.ndim == 2 else float(out[0])


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
    # the canonical CP^n basis runs e_0, J e_0, e_1, J e_1, ...
    base = block.p_basis
    conjugated = base * np.tile([1.0, -1.0], n)[:, None, None]
    raw = model._join([base if b < s else conjugated for b in range(k)])
    return SubspaceBasis.orthonormalized(model, raw)


def construct_grassmannian_product(
    partition: Sequence[int], ambient: CartanDecomp
) -> SubspaceBasis:
    """Product of projective spaces along the row blocks of a Grassmannian.

    Part ``n_i`` of the partition occupies the i-th row of the off-diagonal
    block with ``n_i`` consecutive columns; the span is J-invariant and a
    Lie triple system, one ``CP^{n_i}`` per row, with pairwise commuting
    rows.
    """
    if ambient.kind != "grassmannian":
        raise ValueError("ambient must be a Grassmannian model")
    k, n = ambient.block_shape
    parts = tuple(int(p) for p in partition)
    if len(parts) != k or sum(parts) != n or any(p < 1 for p in parts):
        raise ValueError(f"partition {parts} does not fit block shape ({k}, {n})")
    if list(parts) != sorted(parts, reverse=True):
        raise ValueError("partition parts must be weakly decreasing")
    model = ProductModel.single(ambient)
    picks: list[int] = []
    offset = 0
    for row, part in enumerate(parts):
        for col in range(offset, offset + part):
            base = 2 * (row * n + col)
            picks.extend((base, base + 1))
        offset += part
    return SubspaceBasis.orthonormalized(model, model.p_coords[picks])


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


def _box_images(inclusion_sub: RankOneSpace, factor: RankOneSpace, block: CartanDecomp) -> list[Matrix]:
    """Images of the standard tangent basis of the box's submanifold class.

    Each list is the image of one fixed abstract basis under a Lie algebra
    homomorphism into the factor model, so diagonals assembled from these
    images across boxes are Lie triple systems by construction; the
    numerical check below re-verifies that independently.
    """
    sub, amb = inclusion_sub, factor
    N = block.N
    if sub.field is Field.R:
        if amb.field is Field.R:
            # sub-sphere on the first n' coordinates, pole at the last axis
            return [_antisym(N, a, N - 1) for a in range(sub.n)]
        if amb.field is Field.C:
            if 4 * sub.curvature == amb.curvature:
                # totally real projective subspace: real antisymmetric corner
                return [_antisym(N, a + 1, 0) for a in range(sub.n)]
            if sub.curvature == amb.curvature and sub.n == 2:
                # the complex line: explicit so(3) -> su(2) isomorphism
                e = _antisym(N, 0, 1)
                f = _e(N, 0, 1, 1j) + _e(N, 1, 0, 1j)
                return [-0.5 * e, -0.5 * f]
        raise ValueError(f"no matrix model for {sub} inside {amb}")
    if sub.field is Field.C and amb.field is Field.C:
        images: list[Matrix] = []
        for a in range(sub.n):
            images.append(_antisym(N, 0, a + 1))
            images.append(_e(N, 0, a + 1, 1j) + _e(N, a + 1, 0, 1j))
        return images
    raise ValueError(f"no matrix model for {sub} inside {amb}")


def _label_mismatch(label: RankOneSpace, row_class: RankOneSpace, curvature) -> str | None:
    """Why an entry's label is not the row's diagonal, or None when it is."""
    if (label.field, label.n, label.curvature) == (row_class.field, row_class.n, curvature):
        return None
    diagonal = RankOneSpace(row_class.field, row_class.n, curvature, label.compact_dual)
    return f"label {label} differs from the row's diagonal {diagonal}"


class _BuiltRow(NamedTuple):
    """A row's diagonal in the model of its own factors' blocks.

    With its triple residual and deterministic planes ``X[n], Y[n]``:
    ``(e_a, J e_a)`` for complex rows, all pairs of basis vectors for real ones.
    """

    basis: SubspaceBasis
    residual: float
    complex_row: bool
    X: np.ndarray
    Y: np.ndarray


def _build_row(model: ProductModel, row) -> _BuiltRow:
    """Assemble a row's diagonal from its box images, block k holding the row's k-th box.

    Raises ValueError when a box has no matrix model or the images are
    rank-deficient.
    """
    parts = [
        np.array(_box_images(b.inclusion.sub, b.inclusion.ambient, block))
        for b, block in zip(row, model.blocks)
    ]
    V = SubspaceBasis.orthonormalized(model, model._join(parts))
    _, residual = is_lie_triple_system(V)
    row_class = row[0].inclusion.sub
    C = V.coords
    if row_class.field is Field.C:
        # the diagonal is J-invariant; holomorphic planes carry the label
        X = C[0 : 2 * row_class.n : 2].copy()
        return _BuiltRow(V, residual, True, X, model.J(X))
    i, j = _pairs(V.dim)
    return _BuiltRow(V, residual, False, C[i], C[j])


class _VerifyMemo:
    """Factor models, product models and built rows of one product, each made once.

    Rows are found again by identity: the product's row memo hands out each
    row as one object, and this memo holds each row so that its identity
    stays valid.  Rows that cannot be built are not kept: they fail again on
    every call.  Products above ``MAX_MODEL_SIZE`` are refused before any
    model is built.
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
        self._models: dict[tuple[int, ...], ProductModel] = {}
        self._built: dict[int, tuple[tuple, _BuiltRow]] = {}

    def model(self, factors: tuple[int, ...]) -> ProductModel:
        """The direct sum of the given factors' models, in the given order."""
        model = self._models.get(factors)
        if model is None:
            model = ProductModel(*zip(*(self.factor_models[i] for i in factors)))
            self._models[factors] = model
        return model

    def row(self, row) -> _BuiltRow:
        """The built diagonal of ``row``; raises ValueError when it cannot be built."""
        hit = self._built.get(id(row))
        if hit is not None and hit[0] is row:
            return hit[1]
        built = _build_row(self.model(tuple(b.factor for b in row)), row)
        self._built[id(row)] = (row, built)
        return built


def _sample_planes(built: _BuiltRow, rng: np.random.Generator | None):
    """The row's deterministic planes plus, with an ``rng``, a few random ones.

    Draws 3 random vectors for a complex row and 3 pairs for a real one.
    """
    V, X, Y = built.basis, built.X, built.Y
    if rng is None:
        return X, Y
    if built.complex_row:
        R = np.array([V.random_unit_vector(rng) for _ in range(3)])
        return np.vstack([X, R]), np.vstack([Y, V.ambient.J(R)])
    xs, ys = [], []
    for _ in range(3):
        v, w = V.random_unit_vector(rng), V.random_unit_vector(rng)
        w = w - (v @ w) * v
        nw = math.sqrt(w @ w)
        if nw > 1e-6:
            xs.append(v)
            ys.append(w / nw)
    return np.vstack([X, *xs]), np.vstack([Y, *ys])


@dataclass(frozen=True)
class RowVerification:
    """Numerical verdict for one tableau row."""

    row_index: int
    description: str
    status: str  # "ok" | "fail" | "unsupported"
    reason: str | None
    lie_residual: float | None = None
    curvature_expected: float | None = None
    curvature_measured: float | None = None  # the plane with the largest error
    curvature_error: float | None = None
    planes: int | None = None

    def to_dict(self) -> dict:
        return {"row": self.row_index, **{f.name: getattr(self, f.name) for f in fields(self)[1:]}}


@dataclass(frozen=True)
class EntryVerification:
    """Full report for one classification entry.

    ``reason`` explains a failure of the entry's total: a factor carrying
    two rows or flat directions, or a total residual above the tolerance.
    Row failures carry their reasons in ``rows``.
    """

    entry: ClassifiedSubmanifold
    rows: tuple[RowVerification, ...]
    flat_dim: int
    flat_supported: bool
    total_lie_residual: float | None
    total_lie_ok: bool
    unsupported: tuple[str, ...]
    reason: str | None = None

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.rows) or not self.total_lie_ok

    @property
    def fully_supported(self) -> bool:
        return not self.unsupported and self.flat_supported

    @property
    def status(self) -> str:
        if self.failed:
            return "fail"
        if not self.fully_supported:
            return "unsupported"
        return "pass"

    def to_dict(self) -> dict:
        """The JSON record; a failing entry's record also carries ``reason``."""
        status = self.status
        record = {
            "status": status,
            "isometry_type": self.entry.isometry_type(),
            "rows": [r.to_dict() for r in self.rows],
            "flat_dim": self.flat_dim,
            "flat_supported": self.flat_supported,
            "total_lie_residual": self.total_lie_residual,
            "unsupported": list(self.unsupported),
        }
        if status == "fail":
            record["reason"] = self.reason
        return record


def verify_classification_entry(
    entry: ClassifiedSubmanifold,
    M: ProductSpace,
    lie_tol: float = TOL_CONSTRUCTIVE,
    curvature_tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> EntryVerification:
    """Rebuild one classification entry in compact duals and measure it.

    For every supported row the diagonal Lie triple system is constructed
    explicitly, its triple-bracket residual is checked against ``lie_tol``
    and its sectional curvature is compared with the exact harmonic value
    (holomorphic planes for complex rows, arbitrary planes for real rows).
    With an ``rng`` a few random planes of each row are sampled on top of
    the deterministic basis planes; a row reports the plane with the
    largest curvature error.  Rows or flat directions meeting
    quaternionic or octonionic factors are flagged as unsupported, never
    skipped silently.  Every row's label in ``semisimple_factors`` must be
    the row's class with its exact harmonic curvature, and a row that
    cannot be built or measured (a box outside the matrix models, planes
    leaving a complex row) fails with the reason instead of raising.
    Rows are built once per ``M`` and their residuals compared with
    ``lie_tol`` on every call; the random planes are drawn per call.
    The total residual is derived from the block structure: when no factor
    carries more than one row or flat direction it is the largest residual
    of the measured rows (0.0 with flat directions only, None for the
    point); an entry whose factors overlap gets None and fails.  Either
    failure of the total sets the report's ``reason``.  Products above
    ``MAX_MODEL_SIZE`` raise ValueError before any model is built.
    """
    if not entry.tableau.is_adapted_to(M):
        raise ValueError("entry does not belong to the given product space")

    memo = _VerifyMemo.of(M)
    factor_models = memo.factor_models
    unsupported: list[str] = []

    flat_factors = [i for i in entry.complement_factors if i in factor_models][: entry.flat_dim]
    flat_supported = len(flat_factors) == entry.flat_dim
    if not flat_supported:
        missing = [i for i in entry.complement_factors if i not in factor_models]
        unsupported.append(
            "flat part needs unsupported factors " + ", ".join(str(M.factor(i)) for i in missing)
        )

    row_reports: list[RowVerification] = []
    for idx, row in enumerate(entry.tableau.rows):
        description = " | ".join(str(b) for b in row)
        exact = diagonal_curvature([b.inclusion.sub.curvature for b in row])
        mislabel = _label_mismatch(entry.semisimple_factors[idx], row[0].inclusion.sub, exact)
        bad = [b for b in row if b.factor not in factor_models]
        if bad and mislabel:
            row_reports.append(RowVerification(idx, description, "fail", mislabel))
            continue
        if bad:
            reason = "no matrix model for factors " + ", ".join(str(M.factor(b.factor)) for b in bad)
            unsupported.append(f"row {idx}: {reason}")
            row_reports.append(RowVerification(idx, description, "unsupported", reason))
            continue

        expected = float(exact)
        try:
            built = memo.row(row)
            X, Y = _sample_planes(built, rng)
            measured = sectional_curvature(built.basis, X, Y)
        except ValueError as exc:
            row_reports.append(RowVerification(idx, description, "fail", f"not measurable: {exc}"))
            continue
        residual = built.residual
        ok = residual <= lie_tol
        errors = np.abs(measured - expected)
        worst = int(np.argmax(errors))
        error = float(errors[worst])
        if not ok:
            reason = f"Lie triple residual {residual:.3e} exceeds {lie_tol:.1e}"
        elif error > curvature_tol:
            reason = f"curvature off by {error:.3e}"
        else:
            reason = mislabel
        row_reports.append(
            RowVerification(
                idx, description, "ok" if reason is None else "fail", reason, residual, expected,
                float(measured[worst]), error, len(measured),
            )
        )

    # disjoint factor blocks: cross brackets vanish and the stacked rows stay orthonormal
    rows = entry.tableau.rows
    carried = [b.factor for row in rows for b in row] + flat_factors
    residuals = [r.lie_residual for r in row_reports if r.lie_residual is not None]
    residuals += [0.0] * len(flat_factors)
    disjoint = len(set(carried)) == len(carried)
    total_residual = max(residuals) if disjoint and residuals else None
    if not disjoint:
        shared = next(i for i in carried if carried.count(i) > 1)
        on = [f"row {idx}" for idx, row in enumerate(rows) for b in row if b.factor == shared]
        on += ["a flat direction"] * flat_factors.count(shared)
        reason = f"factor {shared} carries " + " and ".join(on)
    elif total_residual is not None and not total_residual <= lie_tol:
        reason = f"total Lie triple residual {total_residual:.3e} exceeds {lie_tol:.1e}"
    else:
        reason = None

    return EntryVerification(
        entry, tuple(row_reports), entry.flat_dim, flat_supported, total_residual,
        reason is None, tuple(unsupported), reason,
    )
