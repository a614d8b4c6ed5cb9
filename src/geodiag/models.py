"""Compact skew-Hermitian matrix models: ``su(n+k)`` for the Grassmannian of
complex k-planes (``k = 1`` giving ``CP^n``) and ``so(m+1)`` for the sphere
``S^m``, and their weighted direct sums acting on p-coordinate rows.  The
verifier builds matrices here only; this module imports no other module of
the package.

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
  curvature tensor, which rounds differently.
* Conjugation ``Theta`` is entrywise complex conjugation; on the canonical
  ``CP^n`` basis it fixes the real directions ``e_i`` and negates ``J e_i``.
* Tolerances: arithmetic identities 1e-12, structural residuals 1e-10,
  relative to the norm of the quantity tested.

A model is its ``p`` basis and ``J``; triple brackets contract its bracket
tensor (:attr:`CartanDecomp.triple_tensor`), so no ``k`` basis is built.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

TOL_ARITHMETIC = 1e-12
TOL_STRUCTURAL = 1e-10

Matrix = np.ndarray


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


def _flat(matrices: Sequence[Matrix] | np.ndarray) -> np.ndarray:
    """Unweighted real coordinates of a family of N x N complex matrices."""
    stack = np.ascontiguousarray(matrices, dtype=complex)
    return stack.view(np.float64).reshape(-1, 2 * stack.shape[-1] ** 2)


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


def _row_norms(T: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ij,...ij->...i", T, T))


@functools.lru_cache(maxsize=128)
def _pairs(dim: int) -> np.ndarray:
    """Index rows (i, j) of all pairs i < j, in row-major order; read-only."""
    pairs = np.array(list(itertools.combinations(range(dim), 2)), dtype=np.intp).reshape(-1, 2).T
    pairs.setflags(write=False)
    return pairs


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


@functools.lru_cache(maxsize=None)
def grassmannian_decomp(k: int, n: int) -> CartanDecomp:
    """The ``su(n+k)`` model of the Grassmannian of complex k-planes.

    ``p`` is the off-diagonal blocks identified with k x n complex matrices;
    ``k`` is the block-diagonal ``s(u(k) + u(n))``.  The complex structure
    generator is ``J = i diag(n 1_k, -k 1_n)/(n+k)``, whose adjoint action
    is ``i`` on ``p``.  Basis vectors ``2r`` and ``2r + 1``, ``r = a n + b``,
    are ``(E - E^T)/sqrt(2)`` and ``i(E + E^T)/sqrt(2)`` for ``E = E_(a, k+b)``;
    the second is ``J`` of the first, and entrywise conjugation fixes the first
    and negates the second.  On ``CP^n`` (k = 1), ``e_b`` is ``2b`` and ``J e_b`` is ``2b + 1``.
    """
    if k < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    N = k + n
    p_basis = _generators(N, [(a, k + b) for a in range(k) for b in range(n)])
    return CartanDecomp(p_basis, 1j * np.diag([n / N] * k + [-k / N] * n))


@functools.lru_cache(maxsize=None)
def sphere_decomp(m: int) -> CartanDecomp:
    """The ``so(m+1)`` model of the sphere ``S^m``.

    ``p`` is the last column of antisymmetric real matrices, basis vector
    ``a`` being ``(E_(a, m) - E_(m, a))/sqrt(2)``; ``k = so(m)`` acts on the
    first m coordinates.  No complex structure.
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
# direct sums
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
    sum of the blockwise trace forms is the dot product.  A weight ``w``
    scales the block metric by ``w`` and therefore its curvatures by
    ``1/w``.  Compared and hashed by identity, like its blocks.

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
