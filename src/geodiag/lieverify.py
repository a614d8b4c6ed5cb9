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
  are rescaled by ``4 / calibration_constant()``, the raw value of the
  ``su(2)`` projective-line model; totally real planes of ``CP^n`` then
  read 1, spheres ``so(m+1)`` read 1, matching the curvature labels used by
  the exact classification at c = 1.  The projective line itself reads 4
  to within 2e-15, not exactly: the anchor is taken with the bracket
  formula above, while planes are measured by contracting a basis's
  curvature tensor (:func:`sectional_curvature`), which rounds differently.
* Conjugation ``Theta`` is entrywise complex conjugation; on the canonical
  ``CP^n`` basis it fixes the real directions ``e_i`` and negates ``J e_i``.
* Tolerances: arithmetic identities 1e-12, structural residuals 1e-10,
  constructive checks 1e-9; residuals are relative to the norm of the
  quantity tested.

Vectors are real coordinate rows, the only vector type: block ``b`` of a
direct sum with metric weight ``w_b`` contributes ``sqrt(w_b)`` times the
real and imaginary parts of its flattened matrix, so the weighted inner
product is the plain dot product and a :class:`SubspaceBasis` is one
``(dim, D)`` array of orthonormal rows.  Quaternionic and octonionic
factors have no matrix model here; rows meeting one are reported as
unsupported rather than approximated.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
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


def _generators(N: int, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The ``(2 len(pairs), N, N)`` stack of orthonormal off-diagonal generators.

    Pair ``(a, b)`` gives ``(E_ab - E_ba)/sqrt(2)`` and then
    ``i(E_ab + E_ba)/sqrt(2)``; the real rows are the even ones.
    """
    s = 1 / math.sqrt(2)
    out = np.zeros((2 * len(pairs), N, N), dtype=complex)
    for r, (a, b) in enumerate(pairs):
        out[2 * r, a, b], out[2 * r, b, a] = s, -s
        out[2 * r + 1, a, b] = out[2 * r + 1, b, a] = 1j * s
    return out


# ---------------------------------------------------------------------------
# Cartan decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CartanDecomp:
    """A compact matrix model ``g = k + p`` with orthonormal bases.

    ``kind`` is ``"grassmannian"`` (``su(n+k)`` with ``block_shape=(k, n)``)
    or ``"sphere"`` (``so(m+1)`` with ``block_shape=(1, m)``).  ``k_basis``
    and ``p_basis`` are read-only ``(dim, N, N)`` stacks.  For Hermitian
    models ``J_generator`` is the central element of ``k`` whose adjoint
    action squares to minus the identity on ``p``.  Models compare and hash
    by identity.
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

    @functools.cached_property
    def ad_J(self) -> np.ndarray | None:
        """The real ``(2N^2, 2N^2)`` matrix of ``ad(J)`` on unweighted coordinates; None without J.

        ``C @ ad_J`` applies ``ad(J)`` to coordinate rows ``C``.  It is ``K^T``,
        ``K`` the complex matrix of ``A -> gA - Ag`` on row-major entries, with
        each entry ``z`` written as the real block ``[[Re z, Im z], [-Im z, Re z]]``.
        Built on first use; read-only.
        """
        g = self.J_generator
        if g is None:
            return None
        one = np.eye(self.N)
        Kt = (np.kron(g, one) - np.kron(one, g.T)).T
        ad = np.empty((len(Kt), 2, len(Kt), 2))
        ad[:, 0, :, 0] = ad[:, 1, :, 1] = Kt.real
        ad[:, 0, :, 1] = Kt.imag
        ad[:, 1, :, 0] = -Kt.imag
        ad = ad.reshape(2 * len(Kt), -1)
        ad.setflags(write=False)
        return ad


def _flat(matrices: Sequence[Matrix] | np.ndarray) -> np.ndarray:
    """Unweighted real coordinates of a family of N x N complex matrices."""
    stack = np.ascontiguousarray(matrices, dtype=complex)
    return stack.view(np.float64).reshape(-1, 2 * stack.shape[-1] ** 2)


def _orthonormal_rows(raw: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``raw``, in order, by one QR.

    Row i is the unit part of raw row i orthogonal to the rows before it
    (R's diagonal made positive).  Rank-deficient families are rejected:
    more rows than coordinates, or a remainder ``|R_ii|`` at or below
    ``1e-10 * max(1, |raw_i|)``.  The rows come back C-contiguous.
    """
    raw = np.asarray(raw, dtype=float)
    if len(raw) > raw.shape[1]:
        raise ValueError("rank-deficient basis rejected")
    Q, R = np.linalg.qr(raw.T)
    d = R.diagonal()
    if np.any(np.abs(d) <= 1e-10 * np.maximum(1.0, _row_norms(raw))):
        raise ValueError("rank-deficient basis rejected")
    return np.multiply(Q.T, np.sign(d)[:, None], order="C")


def _residuals(T: np.ndarray, Q: np.ndarray, TQ: np.ndarray | None = None) -> np.ndarray:
    """Relative distance of each row of ``T`` from the span of orthonormal rows ``Q``; 0 if zero.

    ``TQ`` is ``T @ Q.T`` when the caller has it already.
    """
    T = np.atleast_2d(T)
    if TQ is None:
        TQ = T @ Q.T
    norms = _row_norms(T)
    rem = _row_norms(T - TQ @ Q)
    return np.divide(rem, norms, out=np.zeros_like(norms), where=norms > 0)


def _worst_residual(T: np.ndarray, Q: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest residual of the rows of ``T`` off span(Q), and the coefficients ``T @ Q.T``.

    Structural zeros, the rows at most ``TOL_ARITHMETIC`` times the largest
    row norm (or 1), are skipped: only the other rows are projected, and
    the coefficients of the structural zeros are left 0.
    """
    norms = _row_norms(T)
    live = norms > TOL_ARITHMETIC * max(float(norms.max(initial=0.0)), 1.0)
    coeffs = np.zeros((len(T), len(Q)))
    if not live.any():
        return 0.0, coeffs
    T = T[live]
    coeffs[live] = TQ = T @ Q.T
    return float(_residuals(T, Q, TQ).max()), coeffs


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

    ``k`` is the block-diagonal ``s(u(k) + u(n))``: the off-diagonal
    generators inside each diagonal block, then the Cartan generators
    ``i(sum_{a<j} E_aa - j E_jj)/sqrt(j(j+1))`` for ``j = 1..N-1``.  ``p`` is
    the off-diagonal blocks identified with k x n complex matrices.  The
    complex structure generator is ``J = i diag(n 1_k, -k 1_n)/(n+k)``,
    whose adjoint action is ``i`` on ``p``.
    """
    if k < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    N = k + n
    inner = [(a, b) for lo, hi in ((0, k), (k, N)) for a in range(lo, hi) for b in range(a + 1, hi)]
    cartan = np.zeros((N - 1, N, N), dtype=complex)
    for j in range(1, N):
        c = 1j / math.sqrt(j * (j + 1))
        cartan[j - 1, range(j), range(j)] = c
        cartan[j - 1, j, j] = -j * c
    k_basis = np.concatenate([_generators(N, inner), cartan])
    p_basis = _generators(N, [(a, k + b) for a in range(k) for b in range(n)])
    j_generator = 1j * np.diag([n / N] * k + [-k / N] * n)
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
    k_basis = _generators(N, [(a, b) for a in range(m) for b in range(a + 1, m)])[::2]
    p_basis = _generators(N, [(a, m) for a in range(m)])[::2]
    return CartanDecomp(N, "sphere", (1, m), k_basis, p_basis, None)


@functools.lru_cache(maxsize=1)
def calibration_constant() -> float:
    """Raw sectional curvature of the ``su(2)`` projective-line model.

    Taken by the bracket formula on the model's two ``p`` generators.  All
    reported curvatures are rescaled by ``4 / calibration_constant()``,
    anchoring the projective line at 4.
    """
    x, y = grassmannian_decomp(1, 1).p_basis
    area = np.vdot(x, x).real * np.vdot(y, y).real - np.vdot(x, y).real ** 2
    return float(-np.vdot(bracket(bracket(x, y), y), x).real / area)


# ---------------------------------------------------------------------------
# direct sums and subspaces
# ---------------------------------------------------------------------------


class _Run(NamedTuple):
    """Consecutive identical blocks of a product model, coordinates ``lo:hi``.

    ``roots`` holds the square root of each coordinate's block weight, or
    the one root of a lone block as a float, which numpy applies faster
    than an array; either scales the run's coordinates ``(..., hi - lo)``
    in one broadcast.
    """

    block: CartanDecomp
    lo: int
    hi: int
    count: int
    roots: np.ndarray | float


@dataclass(frozen=True, eq=False)
class ProductModel:
    """An orthogonal direct sum of compact models with metric weights.

    Vectors are coordinate rows ``(..., D)``: block ``b`` contributes
    ``sqrt(w_b)`` times the real and imaginary parts of its flattened
    matrix, so the weighted sum of the blockwise trace forms is the dot
    product (see the module docstring).  A weight ``w`` scales the block
    metric by ``w`` and therefore its curvatures by ``1/w``.  Compared and
    hashed by identity, like its blocks.

    Consecutive identical blocks (the same object; models come from
    ``lru_cache``) form a run, whatever their weights.  ``_split`` and
    ``_join`` convert between coordinates and one ``(..., count, N, N)``
    matrix stack per run.  The blockwise maps, :meth:`J` and the triple
    brackets, cost one or two matmuls per block, batched over the run.
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

    @functools.cached_property
    def _runs(self) -> tuple[_Run, ...]:
        """The maximal runs of consecutive identical blocks, in order."""
        runs, lo = [], 0
        for block, group in itertools.groupby(zip(self.blocks, self.weights), key=operator.itemgetter(0)):
            roots = [math.sqrt(w) for _, w in group]
            count, size = len(roots), 2 * block.N * block.N
            roots = roots[0] if count == 1 else np.repeat(roots, size)
            runs.append(_Run(block, lo, lo + count * size, count, roots))
            lo += count * size
        return tuple(runs)

    def _join(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Coordinates ``(..., D)`` of one matrix stack ``(..., count, N, N)`` per run."""
        lead = np.shape(parts[0])[:-3]
        out = np.empty((*lead, self._runs[-1].hi))
        for r, p in zip(self._runs, parts):
            flat = np.ascontiguousarray(p, dtype=complex).view(np.float64).reshape(*lead, r.hi - r.lo)
            np.multiply(flat, r.roots, out=out[..., r.lo : r.hi])
        return out

    def _split(self, C: np.ndarray) -> list[np.ndarray]:
        """One matrix stack ``(..., count, N, N)`` per run of coordinates ``(..., D)``."""
        lead = C.shape[:-1]
        return [
            (C[..., r.lo : r.hi] / r.roots).view(complex).reshape(*lead, r.count, r.block.N, r.block.N)
            for r in self._runs
        ]

    def _per_run(self, parts: Sequence[np.ndarray]) -> list[np.ndarray]:
        """One stack ``(..., count, N, N)`` per run of one matrix stack ``(..., N, N)`` per block.

        A lone block's stack is a view of its part.
        """
        stacks, b = [], 0
        for r in self._runs:
            if r.count == 1:
                stacks.append(parts[b][..., None, :, :])
            else:
                stacks.append(np.stack(parts[b : b + r.count], axis=-3))
            b += r.count
        return stacks

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

    def J(self, C: np.ndarray) -> np.ndarray:
        """Blockwise complex structure on coordinates ``(..., D)``.

        One real matmul per run by the block's :attr:`CartanDecomp.ad_J`:
        ``ad(J)`` is linear, so the weights' roots cancel.  Components on
        blocks without a complex structure must vanish, each block's
        unweighted mass on its own.
        """
        lead = C.shape[:-1]
        out = np.empty(C.shape)
        for r in self._runs:
            a, ad = C[..., r.lo : r.hi], r.block.ad_J
            if ad is None:
                blocks = (a / r.roots).reshape(*lead, r.count, -1)
                mass = np.linalg.norm(np.moveaxis(blocks, -2, 0).reshape(r.count, -1), axis=1)
                if np.any(mass > TOL_ARITHMETIC):
                    raise ValueError("element has mass on a block with no complex structure")
                out[..., r.lo : r.hi] = 0.0
            else:
                out[..., r.lo : r.hi] = (a.reshape(-1, len(ad)) @ ad).reshape(*lead, -1)
        return out


class _TripleCheck(NamedTuple):
    """A basis's worst triple-bracket residual and its curvature tensor ``K``."""

    residual: float
    K: np.ndarray


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An orthonormal family spanning a candidate Lie triple system.

    ``coords`` is a read-only ``(dim, D)`` array holding one coordinate row
    of ``ambient`` per basis vector.  ``_triple_check``, made on first use
    from one pass over the triple brackets, holds their worst residual and
    the read-only tensor ``K[p, q] = <[[e_i, e_j], e_l], e_m>`` over the
    pairs ``p = (i < j)``, ``q = (l < m)``: the coefficients are
    antisymmetric in ``(l, m)``, because ``ad [e_i, e_j]`` is skew for the
    trace form.  Compared and hashed by identity.
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
        """Orthonormalize coordinate rows in order, by one QR.

        Rejects rank-deficient families (relative threshold 1e-10).
        """
        return cls(ambient, _orthonormal_rows(raw_vectors))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @functools.cached_property
    def _triple_check(self) -> _TripleCheck:
        worst, TC = _worst_residual(_triple_brackets(self), self.coords)
        l, m = _pairs(self.dim)
        K = TC.reshape(-1, self.dim, self.dim)[:, l, m]
        K.setflags(write=False)
        return _TripleCheck(worst, K)

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


def _triple_brackets(V: SubspaceBasis) -> np.ndarray:
    """Coordinate rows of all ``[[e_i, e_j], e_l]``, row ``p dim + l`` for the pair ``p = (i < j)``.

    Per run of identical blocks, after the pair brackets ``B_p = [X_i, X_j]``,
    all ``B_p X_l`` of a block are one ``(P N x N) @ (N x dim N)`` product and
    all ``X_l B_p`` one ``(dim N x N) @ (N x P N)``, batched over the run.  The
    first is copied into the ``(P, dim, D)`` output and dropped before the
    second is made and subtracted in place, so at most one product is alive
    next to the output; the roots of the weights scale the difference, as
    in ``_join``.
    """
    model = V.ambient
    d = V.dim
    i, j = _pairs(d)
    P = len(i)
    out = np.empty((P, d, V.coords.shape[1]))
    for r, X in zip(model._runs, model._split(V.coords)):
        c, N = r.count, r.block.N
        B = bracket(X[i], X[j])  # (P, count, N, N), X being (dim, count, N, N)
        T = out[..., r.lo : r.hi].view(complex).reshape(P, d, c, N, N)
        BX = B.swapaxes(0, 1).reshape(c, P * N, N) @ X.transpose(1, 2, 0, 3).reshape(c, N, d * N)
        T[...] = BX.reshape(c, P, N, d, N).transpose(1, 3, 0, 2, 4)
        del BX
        B = B.transpose(1, 2, 0, 3).reshape(c, N, P * N)  # rebound: the first layout is dropped
        XB = X.swapaxes(0, 1).reshape(c, d * N, N) @ B
        T -= XB.reshape(c, d, N, P, N).transpose(3, 1, 0, 2, 4)
        del XB
        scaled = out[..., r.lo : r.hi]
        scaled *= r.roots
    return out.reshape(-1, V.coords.shape[1])


def is_lie_triple_system(V: SubspaceBasis, tol: float = TOL_CONSTRUCTIVE) -> tuple[bool, float]:
    """Check ``[[V, V], V]`` inside ``V``; return (verdict, max residual).

    The residual of a triple bracket is the norm of its component
    orthogonal to ``V`` relative to the bracket's own norm; brackets that
    vanish to arithmetic precision are structural zeros and are skipped.
    The check is made once per basis and kept on it with the brackets'
    coefficients, its curvature tensor; the brackets themselves are dropped.
    """
    worst = V._triple_check.residual
    return worst <= tol, worst


def sectional_curvature(V: SubspaceBasis, x: np.ndarray, y: np.ndarray):
    """Calibrated sectional curvature of the plane spanned by rows x, y of V.

    Stacked rows ``(n, D)`` measure n planes at once and return an array of n
    curvatures, positive on these compact models (scale: :func:`calibration_constant`).
    The planes are projected onto the basis once, to coefficient rows ``a, b``,
    and contract ``V``'s curvature tensor: ``<[[x, y], y], x> = -sum w_p K[p, q] w_q``
    with ``w_p = a_i b_j - a_j b_i``.  The area ``sum w_p^2`` equals
    ``|a|^2 |b|^2 - <a, b>^2`` (Lagrange) but keeps its digits on nearly
    dependent planes; a plane of area at most ``1e-12 |a|^2 |b|^2`` is
    dependent and raises.
    """
    C = V.coords
    X = np.atleast_2d(x)
    n = len(X)
    P = np.concatenate([X, np.atleast_2d(y)])
    coeffs = P @ C.T
    if np.max(_residuals(P, C, coeffs)) > TOL_CONSTRUCTIVE:
        raise ValueError("plane vectors must lie in the subspace")
    A, B = coeffs[:n], coeffs[n:]
    i, j = _pairs(V.dim)
    O = A[:, :, None] * B[:, None, :]
    W = (O - O.transpose(0, 2, 1))[:, i, j]
    areas = np.einsum("np,np->n", W, W)
    if np.any(areas <= 1e-12 * np.einsum("ni,ni->n", A, A) * np.einsum("ni,ni->n", B, B)):
        raise ValueError("sectional curvature of linearly dependent vectors")
    out = 4.0 / calibration_constant() * np.einsum("np,np->n", W @ V._triple_check.K, W) / areas
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
    raw = np.empty((block.p_dim, k, block.N, block.N), dtype=complex)
    raw[:, :s] = block.p_basis[:, None]
    raw[:, s:] = block.p_basis.conj()[:, None]
    return SubspaceBasis.orthonormalized(model, model._join([raw]))


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


def _box_images(
    inclusion_sub: RankOneSpace, factor: RankOneSpace, block: CartanDecomp
) -> np.ndarray:
    """Images of the standard tangent basis of the box's submanifold class.

    The ``(dim, N, N)`` stack is the image of one fixed abstract basis under
    a Lie algebra homomorphism into the factor model (up to one common
    scale), so diagonals assembled from these stacks across boxes are Lie
    triple systems by construction; the numerical check below re-verifies
    that independently.
    """
    sub, amb = inclusion_sub, factor
    N = block.N
    if sub.field is Field.R:
        if amb.field is Field.R:
            # sub-sphere on the first n' coordinates, pole at the last axis
            return _generators(N, [(a, N - 1) for a in range(sub.n)])[::2]
        if amb.field is Field.C:
            if 4 * sub.curvature == amb.curvature:
                # totally real projective subspace: real antisymmetric corner
                return -_generators(N, [(0, a + 1) for a in range(sub.n)])[::2]
            if sub.curvature == amb.curvature and sub.n == 2:
                # the complex line: explicit so(3) -> su(2) isomorphism
                return -0.5 * _generators(N, [(0, 1)])
        raise ValueError(f"no matrix model for {sub} inside {amb}")
    if sub.field is Field.C and amb.field is Field.C:
        return _generators(N, [(0, a + 1) for a in range(sub.n)])
    raise ValueError(f"no matrix model for {sub} inside {amb}")


def _label_mismatch(label: RankOneSpace, row_class: RankOneSpace, curvature) -> str | None:
    """Why an entry's label is not the row's diagonal, or None when it is."""
    if (label.field, label.n, label.curvature) == (row_class.field, row_class.n, curvature):
        return None
    diagonal = RankOneSpace(row_class.field, row_class.n, curvature, label.compact_dual)
    return f"label {label} differs from the row's diagonal {diagonal}"


class _BuiltRow(NamedTuple):
    """A row's diagonal in the model of its own factors' blocks, and its curvature checks.

    ``basis_curvatures`` are measured on ``(e_a, J e_a)`` for complex rows and
    all pairs of basis vectors for real ones.  ``curvature_bound`` bounds the
    curvature error of every plane (:func:`_build_row`); NaN when not finite.
    """

    basis: SubspaceBasis
    basis_curvatures: np.ndarray
    curvature_bound: float


def _build_row(model: ProductModel, row, kappa: float) -> _BuiltRow:
    """Assemble a row's diagonal from its box images, block k holding the row's k-th box.

    The row's calibrated curvature tensor on pairs is compared once with the
    tensor of its class at curvature ``kappa``: ``kappa I`` for ``RH^m``, and
    for ``CH^m`` ``kappa/4 (d_il d_jm - d_im d_jl + J_il J_jm - J_im J_jl + 2 J_ij J_lm)``
    with ``J[i, k] = <J e_i, e_k>`` the complex structure on the row's own
    basis.  A plane with unit bivector ``w`` has curvature error ``w E w``,
    so the spectral norm of the symmetric part of the difference ``E``
    bounds every plane's error.
    Raises ValueError when a box has no matrix model, the images are
    rank-deficient or a complex row's diagonal is not J-invariant.
    """
    parts = [
        _box_images(b.inclusion.sub, b.inclusion.ambient, block) for b, block in zip(row, model.blocks)
    ]
    V = SubspaceBasis.orthonormalized(model, model._join(model._per_run(parts)))
    is_lie_triple_system(V)  # checked once here; V keeps the residual and its curvature tensor
    row_class = row[0].inclusion.sub
    C = V.coords
    i, j = _pairs(V.dim)
    if row_class.field is Field.C:
        # the diagonal must be J-invariant; holomorphic planes carry the label
        JC = model.J(C)
        J = JC @ C.T
        if np.max(_residuals(JC, C, J)) > TOL_CONSTRUCTIVE:
            raise ValueError("plane vectors must lie in the subspace")
        X, Y = C[0 : 2 * row_class.n : 2], JC[0 : 2 * row_class.n : 2]
        wedge = J[np.ix_(i, i)] * J[np.ix_(j, j)] - J[np.ix_(i, j)] * J[np.ix_(j, i)]
        K_model = 0.25 * (np.eye(len(i)) + wedge + 2.0 * np.outer(J[i, j], J[i, j]))
    else:
        X, Y = C[i], C[j]
        K_model = np.eye(len(i))
    curvatures = sectional_curvature(V, X, Y)
    curvatures.setflags(write=False)
    E = 4.0 / calibration_constant() * V._triple_check.K - kappa * K_model
    bound = float(np.abs(np.linalg.eigvalsh((E + E.T) / 2)).max()) if np.isfinite(E).all() else math.nan
    return _BuiltRow(V, curvatures, bound)


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
        self._exact: dict[int, tuple[tuple, Fraction]] = {}
        self._built: dict[int, tuple[tuple, _BuiltRow]] = {}

    def model(self, factors: tuple[int, ...]) -> ProductModel:
        """The direct sum of the given factors' models, in the given order."""
        model = self._models.get(factors)
        if model is None:
            model = ProductModel(*zip(*(self.factor_models[i] for i in factors)))
            self._models[factors] = model
        return model

    @staticmethod
    def _by_identity(table: dict, row, make):
        """``table``'s value for ``row``, made by ``make(row)`` and kept on a miss."""
        hit = table.get(id(row))
        if hit is not None and hit[0] is row:
            return hit[1]
        value = make(row)
        table[id(row)] = (row, value)
        return value

    def exact(self, row) -> Fraction:
        """The exact curvature of ``row``'s diagonal."""
        return self._by_identity(
            self._exact, row, lambda row: diagonal_curvature([b.inclusion.sub.curvature for b in row])
        )

    def row(self, row) -> _BuiltRow:
        """The built diagonal of ``row``; raises ValueError when it cannot be built."""
        return self._by_identity(
            self._built,
            row,
            lambda row: _build_row(self.model(tuple(b.factor for b in row)), row, float(self.exact(row))),
        )


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
    # the larger of the tensor bound over all planes and that basis plane's error
    curvature_error: float | None = None
    planes: int | None = None  # the number of basis planes

    def to_dict(self) -> dict:
        return dict(zip(_ROW_KEYS, _row_values(self)))


# a row record's keys, ``row_index`` written as "row", and its values in order
_ROW_KEYS = ("row", *(f.name for f in fields(RowVerification)[1:]))
_row_values = operator.attrgetter(*(f.name for f in fields(RowVerification)))


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
        """The JSON record; a failing entry's record also carries ``reason``."""
        status = self.status
        record = {
            "status": status,
            "isometry_type": self.entry.isometry_type(),
            "rows": [r.to_dict() for r in self.rows],
            "flat_dim": self.entry.flat_dim,
            "flat_supported": True,  # flat directions need no model; kept for readers of the format
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
) -> EntryVerification:
    """Rebuild one classification entry in compact duals and measure it.

    For every supported row the diagonal Lie triple system is constructed
    explicitly, its triple-bracket residual is checked against ``lie_tol``
    and its curvature tensor is compared with the tensor of its class at
    the exact harmonic curvature.  The spectral norm of the difference
    bounds the curvature error of every plane of the row; a row reports as
    ``curvature_error`` the larger of that bound and the worst error of its
    basis planes (holomorphic planes ``(e_a, J e_a)`` for complex rows, all
    pairs for real ones), and as ``curvature_measured`` that basis plane's
    curvature.  No plane is drawn at random, so a report depends on its
    arguments alone.  Every row's label in ``semisimple_factors``
    must be the row's class with its exact harmonic curvature.  A row
    meeting a quaternionic or octonionic factor is flagged as unsupported,
    never skipped silently, or fails when its label is wrong; flat
    directions need no model.  A row that cannot be built or measured (a
    box outside the matrix models, planes leaving a complex row) fails with
    the reason instead of raising.
    Rows are built, measured and their tensors compared once per ``M``;
    their residuals and errors are compared with the tolerances per call.
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

    row_reports: list[RowVerification] = []
    for idx, row in enumerate(rows):
        description = str(row)
        exact = memo.exact(row)
        mislabel = _label_mismatch(entry.semisimple_factors[idx], row[0].inclusion.sub, exact)
        bad = [b for b in row if b.factor not in memo.factor_models]
        if bad:
            missing = "no matrix model for factors " + ", ".join(str(M.factor(b.factor)) for b in bad)
            row_reports.append(
                RowVerification(idx, description, "fail" if mislabel else "unsupported", mislabel or missing)
            )
            continue

        expected = float(exact)
        try:
            built = memo.row(row)
        except ValueError as exc:
            row_reports.append(RowVerification(idx, description, "fail", f"not measurable: {exc}"))
            continue
        measured = built.basis_curvatures
        residual = built.basis._triple_check.residual
        errors = np.abs(measured - expected)
        worst = int(np.argmax(errors))
        error = float(np.maximum(errors[worst], built.curvature_bound))  # NaN stays NaN
        if not residual <= lie_tol:
            reason = f"Lie triple residual {residual:.3e} exceeds {lie_tol:.1e}"
        elif not error <= curvature_tol:
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
