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

Vectors are weighted p-coordinate rows, the only vector type: block ``b``
of a direct sum with metric weight ``w_b`` contributes ``sqrt(w_b)`` times
the coefficients of its matrix on its orthonormal ``p`` basis, so the
weighted inner product is the plain dot product and a :class:`SubspaceBasis`
is one ``(dim, sum q_b)`` array of orthonormal rows (``q_b`` = dim ``p`` of
block b), or a ``(k, dim, sum q_b)`` stack of k such families checked at
once.  Matrices enter only through :meth:`CartanDecomp.coefficients`,
which refuses a matrix outside ``p``.  Quaternionic and octonionic factors
have no matrix model here; rows meeting one are reported as unsupported
rather than approximated.

Triple brackets are contractions of these coordinates with each block's
bracket tensor ``<[[P_a, P_b], P_c], P_d>``, built once: no ``N x N``
matrix product is taken per basis.  A model is its ``p`` basis and ``J``:
the tensor needs only ``[[p, p], p]`` in ``p``, so no ``k`` basis is built.

Entry verification builds one model per product, of all its real and
complex factors, and builds the diagonal rows of one class ``(field, n)``
together, as one stack in that model (:class:`_VerifyMemo`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .catalog import Field, RankOneSpace
from .tableaux import ClassifiedSubmanifold, ProductSpace

TOL_ARITHMETIC = 1e-12
TOL_STRUCTURAL = 1e-10
TOL_CONSTRUCTIVE = 1e-9

# Largest sum of the factors' matrix sizes ``N`` (``n + 1`` for RH^n and CH^n)
# that entry verification builds models for.  A stack of k rows of one class holds
# their triples, about k dim^3 q / 2 floats per block (q = dim p of a block), a few
# times that while it contracts: a full CH^17 row (dim = q = 34), alone in its class,
# traces about 25 MiB.
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
    """A compact matrix model ``g = k + p``, given by an orthonormal basis of ``p``.

    ``p_basis`` is a read-only ``(dim, N, N)`` stack; :attr:`triple_tensor`
    derives ``span [p, p]`` in place of ``k``.  For Hermitian models
    ``J_generator`` is the central element of ``k`` whose adjoint action
    squares to minus the identity on ``p``.  Models compare and hash by identity.
    """

    p_basis: np.ndarray
    J_generator: Matrix | None

    def __post_init__(self) -> None:
        for name in ("p_basis", "J_generator"):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=complex)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        P = self.p_basis
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
    def N(self) -> int:
        return self.p_basis.shape[-1]

    @property
    def p_dim(self) -> int:
        return len(self.p_basis)

    def coefficients(self, X: np.ndarray) -> np.ndarray:
        """Coefficients ``(..., q)`` on the ``p`` basis of matrices ``(..., N, N)``, q = p_dim.

        Raises ValueError when a matrix is off ``p`` by more than ``TOL_ARITHMETIC``
        relative to its norm.
        """
        F, P = _flat(X), _flat(self.p_basis)
        coeffs = F @ P.T
        if np.max(_residuals(F, P, coeffs), initial=0.0) > TOL_ARITHMETIC:
            raise ValueError("matrix does not lie in p")
        return coeffs.reshape(*np.shape(X)[:-2], self.p_dim)

    @functools.cached_property
    def J_p(self) -> np.ndarray | None:
        """The read-only ``(q, q)`` matrix of ``ad(J)`` on coefficients; None without J.

        Row a holds the coefficients of ``[J, P_a]``, so ``C @ J_p`` applies
        ``ad(J)`` to coefficient rows ``C``.  Built on first use.
        """
        g = self.J_generator
        if g is None:
            return None
        Jp = self.coefficients(g @ self.p_basis - self.p_basis @ g)
        Jp.setflags(write=False)
        return Jp

    @functools.cached_property
    def triple_tensor(self) -> np.ndarray:
        """The read-only ``(q^2, q^2)`` tensor ``R[(a, b), (c, d)] = <[[P_a, P_b], P_c], P_d>``, q = p_dim.

        The Gram matrix ``<[P_a, P_b], [P_c, P_d]>`` of the pair brackets, by ad-invariance.  Built
        on first use, after checking ``[[p, p], p]`` inside ``p``: one ``eigh`` of the ``a < b`` block
        gives an orthonormal basis of ``k' = span [p, p]`` (rank cut at ``TOL_STRUCTURAL`` relative),
        and no bracket ``[k'_r, P_c]`` may be further than ``TOL_STRUCTURAL`` from ``p``; absolutely,
        as ``eigh`` mixes ``k'`` freely and a bracket may nearly cancel.  A model failing this raises
        ValueError on every use.
        """
        P, F = self.p_basis, _flat(self.p_basis)
        S = np.flatnonzero(F.any(axis=0))  # the coordinates p reaches (68 of 648 on CH^17); projections need no others
        F = F[:, S]
        i, j = _pairs(len(P))
        G = _flat(P[:, None] @ P - P @ P[:, None])  # row a q + b: [P_a, P_b]
        R = G @ G.T
        ij = i * len(P) + j
        w, U = np.linalg.eigh(R[np.ix_(ij, ij)])
        keep = w > TOL_STRUCTURAL * w.max(initial=0.0)
        K = ((U[:, keep] / np.sqrt(w[keep])).T @ G[ij]).view(complex).reshape(-1, self.N, self.N)
        for lo in range(0, len(K), 16):  # in chunks: CH^17 has 289 x 34 of these brackets
            k = K[lo : lo + 16, None]
            T = _flat(k @ P - P @ k)
            T[:, S] -= (T[:, S] @ F.T) @ F  # T's part off p
            if np.max(_row_norms(T)) > TOL_STRUCTURAL:
                raise ValueError("[[p, p], p] does not lie in p")
        R.setflags(write=False)
        return R


def _flat(matrices: Sequence[Matrix] | np.ndarray) -> np.ndarray:
    """Unweighted real coordinates of a family of N x N complex matrices."""
    stack = np.ascontiguousarray(matrices, dtype=complex)
    return stack.view(np.float64).reshape(-1, 2 * stack.shape[-1] ** 2)


def _orthonormal_rows(raw: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``raw``, in order, by one QR per family.

    ``raw`` is one family ``(dim, width)`` or a stack ``(k, dim, width)``.
    Row i is the unit part of raw row i orthogonal to the rows before it
    (R's diagonal made positive).  Rank-deficient families are rejected:
    more rows than coordinates, or in any family a remainder ``|R_ii|`` at or
    below ``1e-10 * max(1, |raw_i|)``.  The rows come back C-contiguous.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-2] > raw.shape[-1]:
        raise ValueError("rank-deficient basis rejected")
    Q, R = np.linalg.qr(_T(raw))
    d = R.diagonal(0, -2, -1)
    if np.any(np.abs(d) <= 1e-10 * np.maximum(1.0, _row_norms(raw))):
        raise ValueError("rank-deficient basis rejected")
    return np.multiply(_T(Q), np.sign(d)[..., None], order="C")


def _T(A: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack ``(..., m, n)``."""
    return A.swapaxes(-1, -2)


def _residuals(T: np.ndarray, Q: np.ndarray, TQ: np.ndarray | None = None) -> np.ndarray:
    """Relative distance of each row of ``T`` from the span of orthonormal rows ``Q``; 0 if zero.

    ``T`` and ``Q`` may carry the same leading stack axes.  ``TQ`` is
    ``T @ Q^T`` when the caller has it already.
    """
    T = np.atleast_2d(T)
    if TQ is None:
        TQ = T @ _T(Q)
    norms = _row_norms(T)
    rem = _row_norms(T - TQ @ Q)
    return np.divide(rem, norms, out=np.zeros_like(norms), where=norms > 0)


def _worst_residual(T: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest residual of the rows of ``T`` off span(Q), and the coefficients ``T @ Q^T``.

    One residual per family of stacks ``T (..., rows, width)``, ``Q (..., dim, width)``.  A family's structural
    zeros, rows at most ``TOL_ARITHMETIC`` times its largest row norm (or 1), are skipped: their coefficients are
    left 0, and only rows live in some family are projected.
    """
    norms = _row_norms(T)
    floor = TOL_ARITHMETIC * norms.max(axis=-1, initial=1.0, keepdims=True)
    some = (norms > floor).any(axis=0) if norms.ndim > 1 else norms > floor  # live in some family
    coeffs = np.zeros((*T.shape[:-1], Q.shape[-2]))
    T, norms = T[..., some, :], norms[..., some]
    live = norms > floor
    TQ = T @ _T(Q)
    TQ[~live] = 0.0  # a family's structural zeros among the rows live in another
    coeffs[..., some, :] = TQ
    rem = _row_norms(T - TQ @ Q)
    worst = np.divide(rem, norms, out=np.zeros_like(norms), where=live).max(axis=-1, initial=0.0)
    return worst, coeffs


def _row_norms(T: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ij,...ij->...i", T, T))


@functools.lru_cache(maxsize=128)
def _pairs(dim: int) -> np.ndarray:
    """Index rows (i, j) of all pairs i < j, in row-major order; read-only."""
    pairs = np.array(list(itertools.combinations(range(dim), 2)), dtype=np.intp).reshape(-1, 2).T
    pairs.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=None)
def grassmannian_decomp(k: int, n: int) -> CartanDecomp:
    """The ``su(n+k)`` model of the Grassmannian of complex k-planes.

    ``p`` is the off-diagonal blocks identified with k x n complex matrices;
    ``k`` is the block-diagonal ``s(u(k) + u(n))``.  The complex structure
    generator is ``J = i diag(n 1_k, -k 1_n)/(n+k)``, whose adjoint action
    is ``i`` on ``p``.
    """
    if k < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    N = k + n
    p_basis = _generators(N, [(a, k + b) for a in range(k) for b in range(n)])
    return CartanDecomp(p_basis, 1j * np.diag([n / N] * k + [-k / N] * n))


@functools.lru_cache(maxsize=None)
def sphere_decomp(m: int) -> CartanDecomp:
    """The ``so(m+1)`` model of the sphere ``S^m``.

    ``p`` is the last column of antisymmetric real matrices; ``k = so(m)``
    acts on the first m coordinates.  No complex structure.
    """
    if m < 2:
        raise ValueError("sphere dimension must be at least 2")
    return CartanDecomp(_generators(m + 1, [(a, m) for a in range(m)])[::2], None)


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
    """Consecutive identical blocks of a product model, at coordinates ``span``.

    The run's coordinates ``(..., span)`` are ``count`` blocks of ``q``
    coefficients each, q = ``block.p_dim``; ``inv_w`` is ``1/w`` per block.
    """

    block: CartanDecomp
    count: int
    span: slice
    inv_w: np.ndarray


@dataclass(frozen=True, eq=False)
class ProductModel:
    """An orthogonal direct sum of compact models with metric weights.

    Vectors are p-coordinate rows ``(..., p_dim)``: block ``b`` contributes
    ``sqrt(w_b)`` times its coefficients on its ``p`` basis, so the weighted
    sum of the blockwise trace forms is the dot product (see the module
    docstring).  A weight ``w`` scales the block metric by ``w`` and
    therefore its curvatures by ``1/w``.  Compared and hashed by identity,
    like its blocks.

    Consecutive identical blocks (the same object; models come from
    ``lru_cache``) form a run, whatever their weights.  The blockwise maps,
    :meth:`J` and :meth:`triples`, are batched over each run.
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
    def _runs(self) -> tuple[_Run, ...]:
        """The maximal runs of consecutive identical blocks, in order."""
        runs, lo = [], 0
        for block, group in itertools.groupby(zip(self.blocks, self.weights), key=operator.itemgetter(0)):
            weights = [w for _, w in group]
            hi = lo + len(weights) * block.p_dim
            runs.append(_Run(block, len(weights), slice(lo, hi), 1.0 / np.array(weights)))
            lo = hi
        return tuple(runs)

    @property
    def p_dim(self) -> int:
        """The coordinate dimension, the sum of the blocks' ``p`` dimensions."""
        return self._runs[-1].span.stop

    def triples(self, C: np.ndarray) -> np.ndarray:
        """Coordinates of all ``[[e_i, e_j], e_l]`` of rows ``e`` = ``C``, per family of a stack.

        ``C`` is one family ``(dim, p_dim)`` or a stack ``(k, dim, p_dim)``; row
        ``p dim + l`` of a family's triples holds the pair ``p = (i < j)``.  Per
        run, batched over its blocks and the stack, the block's
        :attr:`CartanDecomp.triple_tensor` is contracted one index at a time;
        ``1/w`` leaves one root of three.
        """
        *stack, dim, width = C.shape
        i, j = _pairs(dim)
        out = np.empty((*stack, len(i), dim, width))
        order = (*range(len(stack)), -3, -2, -4, -1)  # (..., count, pairs, dim, q) to (..., pairs, dim, count, q)
        for r in self._runs:
            q = r.block.p_dim
            # one (dim, q) slab per block of each family
            A = C[..., r.span].reshape(*stack, dim, r.count, q).swapaxes(-2, -3).reshape(-1, dim, q)
            AR = (A.reshape(-1, q) @ r.block.triple_tensor.reshape(q, -1)).reshape(len(A), dim, q, q * q)
            B = A[:, None] @ AR  # B[:, i, j, c q + d] = <[[x_i, x_j], P_c], P_d>
            del AR  # dim q^3 floats a slab, as many as B: on a full CH^17 row 10 MiB each
            T = (A[:, None] @ B[:, i, j].reshape(len(A), len(i), q, q)).reshape(*stack, r.count, len(i), dim, q)
            T *= r.inv_w[:, None, None, None]
            out[..., r.span] = T.transpose(order).reshape(*stack, len(i), dim, r.count * q)
        return out.reshape(*stack, -1, width)

    def J(self, C: np.ndarray) -> np.ndarray:
        """Blockwise complex structure on coordinates ``(..., p_dim)``.

        One matmul per run by the block's :attr:`CartanDecomp.J_p`: ``ad(J)``
        is linear, so the weights' roots cancel.  Components on blocks
        without a complex structure must vanish, each block's unweighted
        mass on its own.
        """
        out = np.empty(C.shape)
        for r in self._runs:
            a, Jp = C[..., r.span], r.block.J_p
            if Jp is None:
                blocks = a.reshape(-1, r.count, r.block.p_dim)
                mass = np.sqrt(np.einsum("nbq,nbq->b", blocks, blocks) * r.inv_w)
                if np.any(mass > TOL_ARITHMETIC):
                    raise ValueError("element has mass on a block with no complex structure")
                out[..., r.span] = 0.0
            else:
                out[..., r.span] = (a.reshape(-1, len(Jp)) @ Jp).reshape(a.shape)
        return out


class _TripleCheck(NamedTuple):
    """A basis's worst triple-bracket residual and its curvature tensor ``K``, one per family of a stack."""

    residual: np.ndarray
    K: np.ndarray


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An orthonormal family spanning a candidate Lie triple system, or a stack of such families.

    ``coords`` is a read-only ``(dim, ambient.p_dim)`` array holding one
    coordinate row of ``ambient`` per basis vector, or a ``(k, dim, p_dim)``
    stack of k such families of one dimension, each checked on its own.
    ``_triple_check``, made on first use from one pass over the triple
    brackets, holds their worst residual per family and the read-only tensors
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
        worst, TC = _worst_residual(self.ambient.triples(C), C)
        l, m = _pairs(dim)
        K = TC.reshape(-1, dim, dim)[:, l, m].reshape(*C.shape[:-2], len(l), len(l))
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


def is_lie_triple_system(V: SubspaceBasis, tol: float = TOL_CONSTRUCTIVE) -> tuple[bool, float]:
    """Check ``[[V, V], V]`` inside ``V``; return (verdict, max residual) as a ``bool`` and a ``float``.

    The residual of a triple bracket is the norm of its component
    orthogonal to ``V`` relative to the bracket's own norm; brackets that
    vanish to arithmetic precision are structural zeros and are skipped.
    On a stack the residual is the worst of its families.  The check is
    made once per basis and kept on it with its curvature tensor.
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
    direct, conjugated = np.eye(block.p_dim), block.coefficients(block.p_basis.conj())
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
    which bounds every plane's (:func:`_build_stack`).  Either is NaN when not finite.
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
    bound = np.where(finite, np.abs(np.linalg.eigvalsh(S)).max(axis=1), math.nan)
    error = np.maximum(np.abs(curvatures[at] - kappa), bound)  # NaN stays NaN
    columns = zip(V._triple_check.residual.tolist(), curvatures[at].tolist(), error.tolist(), bound.tolist())
    return [_BuiltRow(V, r, *floats, curvatures.shape[1]) for r, floats in enumerate(columns)]


class _VerifyMemo:
    """The model, box coordinates, built rows and row verdicts of one product, each made once.

    One :class:`ProductModel` holds every modelled factor, in factor order; a row's
    coordinates are its boxes' on their factors' blocks and 0 elsewhere.  The rows
    of one class ``(field, n)`` of the product's row memo are built together, as one
    stack, the first time any of them is needed.  A row whose boxes have no
    coordinates stays out of the stack; a stack that raises keeps nothing, and its
    rows are then built one at a time when asked for, as is a row that is not the
    row memo's (forged or copied).  A row that cannot be built is not kept: each new
    verdict on it builds it again.  Rows and boxes are found again by identity, and
    held so that their identity stays valid.  Products above ``MAX_MODEL_SIZE`` are
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
        self._boxes: dict[int, tuple[object, np.ndarray]] = {}
        self._built: dict[int, tuple[tuple, _BuiltRow]] = {}
        self._reports: dict[tuple, tuple[tuple, RowVerification]] = {}

    @functools.cached_property
    def model(self) -> ProductModel:
        """The direct sum of the modelled factors' models, in factor order; made with the first row."""
        return ProductModel(*zip(*self.factor_models.values()))

    def _box(self, box) -> np.ndarray:
        """The box's weighted ``(dim, q)`` coordinates on its factor's block.

        Raises ValueError when the box has no matrix model or an image is not in ``p``.
        """
        hit = self._boxes.get(id(box))
        if hit is not None and hit[0] is box:
            return hit[1]
        block, w = self.factor_models[box.factor]
        coords = math.sqrt(w) * block.coefficients(_box_images(box.inclusion.sub, box.inclusion.ambient, block))
        self._boxes[id(box)] = (box, coords)
        return coords

    def _coordinates(self, row) -> np.ndarray:
        """The ``(dim, p_dim)`` coordinates of the row's box images in :attr:`model`, before orthonormalization."""
        parts = {box.factor: self._box(box) for box in row}
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

    def report(self, row, idx: int, lie_tol: float, curvature_tol: float, mislabel: str | None) -> "RowVerification":
        """The verdict on ``row`` as row ``idx`` of an entry; see :func:`verify_classification_entry`.

        Kept per ``(row, idx, lie_tol, curvature_tol)`` when the entry's label
        is the row's own diagonal (``mislabel`` None), as in every entry
        ``classify`` makes.
        """
        key = (id(row), idx, lie_tol, curvature_tol)
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
                elif not built.curvature_error <= curvature_tol:
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
    # the larger of the tensor bound over all planes and that basis plane's error
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
    curvature_tol: float = 1e-8,
) -> EntryVerification:
    """Rebuild one classification entry in compact duals and measure it.

    Every supported row's diagonal Lie triple system is built and measured
    once per ``M``, with every row of its class (:class:`_VerifyMemo`,
    :func:`_build_stack`); its residual and ``curvature_error`` are compared
    with ``lie_tol`` and ``curvature_tol``, and the verdict on a row labelled
    with its own diagonal is kept per row, index and tolerances.  No plane
    is drawn at random, so a
    report depends on its arguments alone.  Every row's label in
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
        memo.report(row, idx, lie_tol, curvature_tol, _label_mismatch(entry.semisimple_factors[idx], row.space))
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
