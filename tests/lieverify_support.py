"""Test-only helpers for the verifier: random unitaries, model relations,
conjugated models and the blockwise commutator of coordinate rows.

The package does not run these; the tests use them to check the models
and the invariance of the measurements under isometries.
"""

import numpy as np

from geodiag.lieverify import (
    CartanDecomp,
    ProductModel,
    SubspaceBasis,
    _flat,
    _pairs,
    _worst_residual,
    bracket,
)


def random_special_unitary(dim, rng):
    """Haar-ish random element of SU(dim) via QR of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / dim)


def bracket_relation_residuals(decomp):
    """Relative residuals of [k,k] in k, [k,p] in p and [p,p] in k."""
    K, P = decomp.k_basis, decomp.p_basis
    (ki, kj), (pi, pj) = _pairs(len(K)), _pairs(len(P))
    kp = K[:, None] @ P - P @ K[:, None]
    return {
        "kk_in_k": _worst_residual(_flat(bracket(K[ki], K[kj])), _flat(K))[0],
        "kp_in_p": _worst_residual(_flat(kp), _flat(P))[0],
        "pp_in_k": _worst_residual(_flat(bracket(P[pi], P[pj])), _flat(K))[0],
    }


def conjugated_decomp(decomp, g):
    """The same decomposition transported by a unitary ``g``."""
    conj = lambda m: g @ m @ g.conj().T
    J = decomp.J_generator
    return CartanDecomp(
        decomp.N,
        decomp.kind,
        decomp.block_shape,
        conj(decomp.k_basis),
        conj(decomp.p_basis),
        None if J is None else conj(J),
    )


def conjugated_basis(V, gs):
    """Transport basis and ambient by one unitary per block.

    The transported blocks are distinct, but the coordinate layout is that
    of the old model, so the old model's runs join the images.
    """
    model = V.ambient
    ambient = ProductModel(tuple(conjugated_decomp(b, g) for b, g in zip(model.blocks, gs)), model.weights)
    parts = [G @ A @ G.conj().swapaxes(-1, -2) for G, A in zip(model._per_run(gs), model._split(V.coords))]
    return SubspaceBasis(ambient, model._join(parts))


def model_bracket(model, X, Y):
    """Blockwise commutator of coordinates ``(..., D)``."""
    return model._join([bracket(a, b) for a, b in zip(model._split(X), model._split(Y))])
