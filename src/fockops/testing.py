"""Seeded generators for well-conditioned random inputs.

Used by the verification suite and the test suite; eigenvalues are kept
inside [0.2, 5] so that identities involving inverses and fourth roots
hold at the advertised tolerances.
"""

from __future__ import annotations

import numpy as np

from .operators import RealLinearMap

__all__ = [
    "draw_spd",
    "spd_matrix",
    "random_spd_matrix",
    "random_spd_map",
    "random_real_preserving_map",
    "plane_rotated",
    "rotated_weight",
]


def orthogonal(gaussians: np.ndarray) -> np.ndarray:
    """The Q of a QR of a matrix, or of each of a stack, signed so R has a positive diagonal."""
    q, r = np.linalg.qr(gaussians)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def draw_spd(rng: np.random.Generator, d: int,
             eig_low: float = 0.2, eig_high: float = 5.0) -> tuple[np.ndarray, np.ndarray]:
    """What ``random_spd_matrix`` draws: a Gaussian d x d matrix, then d eigenvalues."""
    return rng.standard_normal((d, d)), rng.uniform(eig_low, eig_high, size=d)


def spd_matrix(gaussians: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The SPD matrix of one ``draw_spd``, or the stack of m of them from an
    (m, d, d) stack of Gaussians and (m, d) eigenvalues, once per stack."""
    q = orthogonal(gaussians)
    return (q * vals[..., None, :]) @ q.mT


def random_spd_matrix(rng: np.random.Generator, d: int,
                      eig_low: float = 0.2, eig_high: float = 5.0) -> np.ndarray:
    return spd_matrix(*draw_spd(rng, d, eig_low, eig_high))


def random_spd_map(rng: np.random.Generator, n: int) -> RealLinearMap:
    """Random SPD weight on C^n (generally not real-preserving)."""
    return RealLinearMap(random_spd_matrix(rng, 2 * n))


def random_real_preserving_map(
    rng: np.random.Generator, n: int,
    eig_low: float = 0.2, eig_high: float = 5.0,
) -> RealLinearMap:
    """Random block-diagonal SPD weight d(R, T).

    Quadrature-backed checks should pass a narrower eigenvalue band: the
    Gauss-Hermite convergence ratio for kernel-section integrands scales
    like one minus the T-to-H eigenvalue ratio, so extreme block
    imbalance needs far more nodes than the fixed budgets provide.
    """
    return RealLinearMap.from_blocks(
        random_spd_matrix(rng, n, eig_low, eig_high),
        random_spd_matrix(rng, n, eig_low, eig_high),
    )


def plane_rotated(M: np.ndarray, theta: float, axis: int = 0) -> np.ndarray:
    """G^T M G for a 2n x 2n array M and G the rotation by theta in the
    (x_j, y_j) plane, j = ``axis``: the entries of :func:`rotated_weight`,
    unvalidated, for callers that validate a whole stack at once."""
    d = M.shape[-1]
    G = np.eye(d)
    i, j = axis, d // 2 + axis
    c, s = np.cos(theta), np.sin(theta)
    G[i, i] = c
    G[i, j] = -s
    G[j, i] = s
    G[j, j] = c
    return G.T @ M @ G


def rotated_weight(A: RealLinearMap, theta: float, axis: int = 0) -> RealLinearMap:
    """Conjugate a weight by a rotation in one (x_j, y_j) plane.

    Mixes the real and imaginary directions, producing weights that are
    SPD but do not preserve the real subspace.
    """
    return RealLinearMap(plane_rotated(A.entries, theta, axis))
