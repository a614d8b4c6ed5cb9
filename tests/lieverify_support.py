"""Test-only helpers for the verifier: random unitaries, an SVD basis of
``span [p, p]`` and the model relations, conjugated models, blockwise
commutators taken on matrices, a matrix triple check, the box images as
matrices and the Grassmannian product construction.

The package does not run these; the tests use them to check the models
and the invariance of the measurements under isometries.  Coordinates are
turned into matrices here, block by block, so that the brackets below are
taken on real matrices and do not go through the blocks' bracket tensors.
"""

import math
from typing import Sequence

import numpy as np

from geodiag.catalog import Field
from geodiag.lieverify import SubspaceBasis
from geodiag.models import (
    CartanDecomp,
    ProductModel,
    _flat,
    _generators,
    _pairs,
    bracket,
    grassmannian_decomp,
)


def random_special_unitary(dim, rng):
    """Haar-ish random element of SU(dim) via QR of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / dim)


def bracket_span(decomp):
    """An orthonormal ``(dim, N, N)`` basis of ``k = span [p, p]``, by one SVD of the pair brackets."""
    P, N = decomp.p_basis, decomp.N
    i, j = _pairs(len(P))
    _, s, Vt = np.linalg.svd(_flat(bracket(P[i], P[j])), full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return np.ascontiguousarray(Vt[:rank]).view(complex).reshape(rank, N, N)


def bracket_relation_residuals(decomp):
    """Distances of [k,k] from k and [k,p] from p, and the largest |<k, p>|, with k = span [p,p].

    Both bases are orthonormal, so every bracket is one of unit vectors and
    its distance is taken absolutely: the SVD mixes ``k`` within repeated
    singular values, and a bracket that nearly cancels would make a distance
    relative to its own norm measure rounding.
    """
    K, P = bracket_span(decomp), decomp.p_basis
    ki, kj = _pairs(len(K))

    def distance(T, Q):
        T, Q = _flat(T), _flat(Q)
        return float(np.linalg.norm(T - (T @ Q.T) @ Q, axis=1).max(initial=0.0))

    return {
        "kk_in_k": distance(bracket(K[ki], K[kj]), K),
        "kp_in_p": distance(K[:, None] @ P - P @ K[:, None], P),
        "k_perp_p": float(np.abs(_flat(K) @ _flat(P).T).max()),
    }


def conjugated_decomp(decomp, g):
    """The same decomposition transported by a unitary ``g``."""
    conj = lambda m: g @ m @ g.conj().T
    J = decomp.J_generator
    return CartanDecomp(conj(decomp.p_basis), None if J is None else conj(J))


def conjugated_basis(V, gs):
    """Transport basis and ambient by one unitary per block.

    The basis's matrices are conjugated and projected onto the conjugated
    blocks' ``p`` bases, whose bracket tensors and complex structures are
    built again from the conjugated matrices.
    """
    model = V.ambient
    ambient = ProductModel(tuple(conjugated_decomp(b, g) for b, g in zip(model.blocks, gs)), model.weights)
    parts = [g @ A @ g.conj().T for g, A in zip(gs, split(model, V.coords))]
    return SubspaceBasis(ambient, coordinates(ambient, parts))


def coordinates(model, parts):
    """Coordinates ``(..., p_dim)`` of one matrix stack ``(..., N, N)`` per block; inverts ``split``.

    Raises ValueError when a matrix does not lie in its block's ``p``.
    """
    return np.concatenate(
        [math.sqrt(w) * b.coefficients(X) for b, w, X in zip(model.blocks, model.weights, parts)], axis=-1
    )


def split(model, C):
    """One matrix stack ``(..., N, N)`` per block of coordinates ``(..., p_dim)``; inverts :func:`coordinates`.

    Block b's coordinates ``C_b`` are ``sqrt(w_b)`` times its coefficients
    on its ``p`` basis ``P_b``, so its matrices are ``(C_b / sqrt(w_b)) @ P_b``.
    """
    out, lo = [], 0
    for block, w in zip(model.blocks, model.weights):
        hi = lo + block.p_dim
        out.append(np.tensordot(C[..., lo:hi] / math.sqrt(w), block.p_basis, axes=1))
        lo = hi
    assert lo == C.shape[-1]
    return out


def model_bracket(model, X, Y):
    """Blockwise commutators of coordinates ``(..., p_dim)``: one matrix stack per block, in ``k``."""
    return [bracket(a, b) for a, b in zip(split(model, X), split(model, Y))]


def model_triple(model, X, Y, Z):
    """Coordinates of ``[[X, Y], Z]``, bracketed as matrices and projected back onto ``p``."""
    return coordinates(model, [bracket(b, c) for b, c in zip(model_bracket(model, X, Y), split(model, Z))])


def reference_triple_check(V):
    """The triple residual of ``V`` and its tensor ``K``, from matrix brackets.

    Every ``[[e_i, e_j], e_l]`` is two commutators per block of the basis's
    matrices, row ``p dim + l`` for the pair ``p = (i < j)``; the residual is
    the Frobenius norm of these rows off the span over their own (0 when all
    vanish), and ``K`` holds their coefficients on the basis.
    """
    E, d = V.coords, V.dim
    i, j = _pairs(d)
    T = model_triple(V.ambient, np.repeat(E[i], d, axis=0), np.repeat(E[j], d, axis=0), np.tile(E, (len(i), 1)))
    TC = T @ E.T
    norm = np.linalg.norm(T)
    residual = np.linalg.norm(T - TC @ E) / norm if norm > 0 else 0.0
    l, m = _pairs(d)
    return residual, TC.reshape(-1, d, d)[:, l, m]


def reference_box_images(sub, ambient, block):
    """The ``(dim, N, N)`` matrix images of a box's standard tangent basis in its factor's ``block``.

    The images of one fixed abstract basis under a Lie algebra homomorphism
    into the factor model, up to one common scale; ``block.coefficients`` of
    them is the table ``lieverify._box_coordinates`` reads.  Raises ValueError
    for a class with no images, as the table does.
    """
    N = block.N
    if sub.field is Field.R:
        if ambient.field is Field.R:
            # sub-sphere on the first coordinates, pole at the last axis
            return _generators(N, [(a, N - 1) for a in range(sub.n)])[::2]
        if ambient.field is Field.C:
            if 4 * sub.curvature == ambient.curvature:
                # totally real projective subspace: real antisymmetric corner
                return -_generators(N, [(0, a + 1) for a in range(sub.n)])[::2]
            if sub.curvature == ambient.curvature and sub.n == 2:
                # the complex line: explicit so(3) -> su(2) isomorphism
                return -0.5 * _generators(N, [(0, 1)])
        raise ValueError(f"no matrix model for {sub} inside {ambient}")
    if sub.field is Field.C and ambient.field is Field.C:
        return _generators(N, [(0, a + 1) for a in range(sub.n)])
    raise ValueError(f"no matrix model for {sub} inside {ambient}")


def construct_grassmannian_product(partition: Sequence[int], shape: tuple[int, int]) -> SubspaceBasis:
    """Product of projective spaces along the row blocks of the Grassmannian of shape ``(k, n)``.

    Part ``n_i`` of the partition occupies the i-th row of the off-diagonal
    block of ``grassmannian_decomp(k, n)`` with ``n_i`` consecutive columns;
    the span is J-invariant and a Lie triple system, one ``CP^{n_i}`` per
    row, with pairwise commuting rows.
    """
    k, n = shape
    parts = tuple(int(p) for p in partition)
    if len(parts) != k or sum(parts) != n or any(p < 1 for p in parts):
        raise ValueError(f"partition {parts} does not fit block shape ({k}, {n})")
    if list(parts) != sorted(parts, reverse=True):
        raise ValueError("partition parts must be weakly decreasing")
    model = ProductModel.single(grassmannian_decomp(k, n))
    picks: list[int] = []
    offset = 0
    for row, part in enumerate(parts):
        for col in range(offset, offset + part):
            base = 2 * (row * n + col)
            picks.extend((base, base + 1))
        offset += part
    return SubspaceBasis.orthonormalized(model, np.eye(model.p_dim)[picks])
