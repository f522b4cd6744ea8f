"""Real-linear operators on C^n and their holomorphic decomposition.

A complex vector z = x + iy is identified with the real vector (x, y) in
R^{2n}; the real subspace is {y = 0}.  In this basis multiplication by i
is the constant block matrix J = [[0, -I], [I, 0]] and coordinate
conjugation is sigma = [[I, 0], [0, -I]].

Any real-linear map A splits as A = H + K with

    H = (A - J A J) / 2   (commutes with J: complex-linear),
    K = (A + J A J) / 2   (anticommutes with J: conjugate-linear).

For a symmetric positive-definite weight A the derived objects needed by
the kernel and transform modules (block restrictions R and T, the
harmonic-mean block S, square roots, determinants, normalization
constants) are assembled once into an :class:`OperatorContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    IllConditionedError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    RealFormError,
)

__all__ = [
    "SpaceContext",
    "RealLinearMap",
    "SpdReport",
    "OperatorContext",
    "validate_spd",
    "decompose",
    "build_context",
    "sqrt_spd",
    "inv_sqrt_spd",
    "h_eigenbasis",
    "hermitian_inner",
    "to_real_coords",
    "to_complex_coords",
]

SYMMETRY_RTOL = 1e-12
SPD_EIG_RTOL = 1e-10  # smallest eigenvalue must exceed this times ||A||
REAL_FORM_RTOL = 1e-12


def hermitian_inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Complex inner product <u, v> = sum_j u_j conj(v_j)."""
    return complex(np.dot(u, np.conj(v)))


def to_real_coords(z: np.ndarray) -> np.ndarray:
    """(x + iy) in C^n -> (x, y) in R^{2n}."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag])


def to_complex_coords(v: np.ndarray) -> np.ndarray:
    """(x, y) in R^{2n} -> x + iy in C^n, for one vector or each row of a batch."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1] // 2
    return v[..., :n] + 1j * v[..., n:]


@dataclass(frozen=True)
class SpaceContext:
    """Complex dimension and the fixed real-basis conventions."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError("complex dimension must be >= 1")

    @property
    def real_dim(self) -> int:
        return 2 * self.n

    @cached_property
    def J(self) -> np.ndarray:
        """Multiplication by i as a real 2n x 2n matrix."""
        n = self.n
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = -np.eye(n)
        J[n:, :n] = np.eye(n)
        J.flags.writeable = False
        return J

    @cached_property
    def sigma(self) -> np.ndarray:
        """Coordinate conjugation as a real 2n x 2n matrix."""
        n = self.n
        S = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
        S.flags.writeable = False
        return S


@dataclass(frozen=True)
class RealLinearMap:
    """A real-linear operator on C^n stored as its 2n x 2n real matrix."""

    space: SpaceContext
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        d = self.space.real_dim
        if entries.shape != (d, d):
            raise DimensionMismatchError(
                f"expected a {d}x{d} matrix for n={self.space.n}, got {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):
            i, j = np.argwhere(~np.isfinite(entries))[0]
            raise ConfigError(f"operator entry ({i}, {j}) is {entries[i, j]}, not finite")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, space: SpaceContext) -> "RealLinearMap":
        return cls(space, np.eye(space.real_dim))

    @classmethod
    def from_blocks(cls, X: np.ndarray, Y: np.ndarray) -> "RealLinearMap":
        """The map sending a -> Xa and ia -> iYa for real vectors a."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape != Y.shape or X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise DimensionMismatchError("blocks must be square matrices of equal size")
        n = X.shape[0]
        M = np.zeros((2 * n, 2 * n))
        M[:n, :n] = X
        M[n:, n:] = Y
        return cls(SpaceContext(n), M)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Apply to a complex vector."""
        return to_complex_coords(self.entries @ to_real_coords(z))

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries, 2))

    def complex_linear_matrix(self) -> np.ndarray:
        """The n x n complex matrix M with map(z) = M z for a map that
        commutes with J, or M conj(z) for one that anticommutes with J.

        Both cases read the same block: the first block column is the
        map's action on real vectors, where z = conj(z).
        """
        n = self.space.n
        E = self.entries
        return E[:n, :n] + 1j * E[n:, :n]


@dataclass(frozen=True)
class SpdReport:
    """Outcome of a symmetry/positivity check with diagnostics."""

    symmetric: bool
    positive: bool
    asymmetry: float
    min_eigenvalue: float
    norm: float

    @property
    def ok(self) -> bool:
        return self.symmetric and self.positive


def _two_norm(X: np.ndarray, tol: float) -> float:
    """The 2-norm of X, or its Frobenius norm (an upper bound) when that is
    within ``tol``: a comparison with ``tol`` comes out as the 2-norm's
    would, and the SVD runs only when the bound cannot decide it."""
    bound = float(np.linalg.norm(X))
    return bound if bound <= tol else float(np.linalg.norm(X, 2))


def _spd_report(A: RealLinearMap) -> tuple[SpdReport, np.ndarray]:
    """The SpdReport of A and the ascending eigenvalues of its symmetric part."""
    E = A.entries
    norm = float(np.linalg.norm(E, 2))
    asym = _two_norm(E - E.T, SYMMETRY_RTOL * max(norm, 1.0))
    symmetric = asym <= SYMMETRY_RTOL * max(norm, 1.0)
    eigenvalues = np.linalg.eigvalsh(0.5 * (E + E.T))
    min_eig = float(eigenvalues[0])
    positive = min_eig > SPD_EIG_RTOL * max(norm, 1.0)
    return SpdReport(symmetric, positive, asym, min_eig, norm), eigenvalues


def validate_spd(A: RealLinearMap) -> SpdReport:
    """Check that A is symmetric and positive definite as a real matrix.

    Positivity uses the scale-aware threshold min_eig > 1e-10 * ||A||;
    near-singular weights are rejected because every downstream formula
    inverts A or takes its square root.  ``asymmetry`` is ||A - A^T||_2, or
    an upper bound for it (its Frobenius norm) when that is within the
    symmetry tolerance.
    """
    return _spd_report(A)[0]


def require_spd(A: RealLinearMap) -> tuple[SpdReport, np.ndarray]:
    """The SpdReport of A and the eigenvalues of its symmetric part; raises
    the error of its kind if A is not symmetric positive definite."""
    report, eigenvalues = _spd_report(A)
    if not report.symmetric:
        raise NotSymmetricError(
            f"operator is not symmetric (asymmetry {report.asymmetry:.3e})",
            asymmetry=report.asymmetry,
        )
    if not report.positive:
        # a smallest eigenvalue above SPD_EIG_RTOL fails the threshold
        # SPD_EIG_RTOL * max(norm, 1) only through its ratio to the norm
        if report.min_eigenvalue > SPD_EIG_RTOL:
            ratio = report.min_eigenvalue / report.norm
            raise IllConditionedError(
                f"operator is ill-conditioned (smallest to largest eigenvalue ratio "
                f"{ratio:.3e}, below {SPD_EIG_RTOL:.0e})",
                min_eigenvalue=report.min_eigenvalue,
                eigenvalue_ratio=ratio,
            )
        raise NotPositiveDefiniteError(
            f"operator is not positive definite (min eigenvalue {report.min_eigenvalue:.3e})",
            min_eigenvalue=report.min_eigenvalue,
        )
    return report, eigenvalues


def _split(A: RealLinearMap) -> tuple[RealLinearMap, RealLinearMap]:
    """(H, K) of ``decompose``, for a weight already validated."""
    J = A.space.J
    E = A.entries
    JAJ = J @ E @ J
    return RealLinearMap(A.space, 0.5 * (E - JAJ)), RealLinearMap(A.space, 0.5 * (E + JAJ))


def decompose(A: RealLinearMap) -> tuple[RealLinearMap, RealLinearMap]:
    """Split a validated weight into complex-linear and conjugate-linear parts.

    Returns (H, K) with A = H + K, HJ = JH, KJ = -JK and H symmetric
    positive definite.
    """
    require_spd(A)
    return _split(A)


def _spd_eigh(M: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the symmetric part of M, once M is
    checked to be symmetric and positive definite."""
    M = np.asarray(M, dtype=float)
    asym = float(np.linalg.norm(M - M.T))
    scale = max(float(np.linalg.norm(M)), 1.0)
    if asym > 1e-10 * scale:
        raise NotSymmetricError(f"{what} is not symmetric", asymmetry=asym)
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    if vals[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite", min_eigenvalue=float(vals[0])
        )
    return vals, vecs


def sqrt_spd(M: np.ndarray) -> np.ndarray:
    """Principal square root of an SPD matrix via symmetric eigendecomposition."""
    vals, vecs = _spd_eigh(M, "matrix")
    return (vecs * np.sqrt(vals)) @ vecs.T


def inv_sqrt_spd(M: np.ndarray) -> np.ndarray:
    vals, vecs = _spd_eigh(M, "matrix")
    return (vecs / np.sqrt(vals)) @ vecs.T


@dataclass(frozen=True)
class OperatorContext:
    """A validated weight operator together with everything derived from it.

    Attributes R, T, S, L, M, D are the n x n real blocks available only
    when the weight maps the real subspace into itself (``real_preserving``);
    transforms that integrate over the real subspace require them.
    H_matrix is the complex n x n (Hermitian) matrix of the complex-linear
    part, K_matrix the complex symmetric matrix C with K z = C conj(z).
    """

    space: SpaceContext
    A: RealLinearMap
    H: RealLinearMap
    K: RealLinearMap
    H_matrix: np.ndarray
    K_matrix: np.ndarray
    sqrt_H_matrix: np.ndarray
    inv_sqrt_H_matrix: np.ndarray
    real_preserving: bool
    R: np.ndarray | None
    T: np.ndarray | None
    S: np.ndarray | None
    L: np.ndarray | None
    M: np.ndarray | None
    D: np.ndarray | None
    log_det_v_a: float
    log_det_h: float
    c_a: float
    c_restriction: float

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def det_v_a(self) -> float:
        """Determinant of the weight as a real 2n x 2n matrix."""
        return float(np.exp(self.log_det_v_a))

    @property
    def det_h(self) -> float:
        """Determinant of the complex-linear part on an n-dimensional real form."""
        return float(np.exp(self.log_det_h))

    @property
    def det_r(self) -> float:
        self.require_real_form()
        return float(np.linalg.det(self.R))

    @property
    def det_t(self) -> float:
        self.require_real_form()
        return float(np.linalg.det(self.T))

    @property
    def det_s(self) -> float:
        self.require_real_form()
        return float(np.linalg.det(self.S))

    def require_real_form(self) -> None:
        if not self.real_preserving:
            raise RealFormError(
                "operation requires a weight that preserves the real subspace"
            )

    def summary(self) -> dict:
        out = {
            "n": self.n,
            "realPreserving": self.real_preserving,
            "cA": self.c_a,
            "c": self.c_restriction,
            "detVA": self.det_v_a,
            "detH": self.det_h,
        }
        if self.real_preserving:
            out.update(
                detR=self.det_r,
                detT=self.det_t,
                detS=self.det_s,
                R=self.R.tolist(),
                T=self.T.tolist(),
                S=self.S.tolist(),
            )
        return out


def _hermitian_sqrt(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, principal square root and inverse square root of a
    Hermitian positive-definite complex matrix."""
    M = 0.5 * (M + M.conj().T)
    vals, vecs = np.linalg.eigh(M)
    if vals[0] <= 0.0:
        raise NotPositiveDefiniteError(
            "complex-linear part is not positive definite",
            min_eigenvalue=float(vals[0]),
        )
    sq = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inv_sq = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return vals, sq, inv_sq


def build_context(A: RealLinearMap) -> OperatorContext:
    """Validate a weight operator and assemble all derived quantities.

    The normalization constant of the reproducing kernel is computed in
    log space from eigenvalues so that large dimensions do not overflow.
    """
    report, a_vals = require_spd(A)
    H, K = _split(A)
    n = A.space.n

    Hc = H.complex_linear_matrix()
    Kc = K.complex_linear_matrix()
    h_vals, sqrt_Hc, inv_sqrt_Hc = _hermitian_sqrt(Hc)

    log_det_v_a = float(np.sum(np.log(a_vals)))
    log_det_h = float(np.sum(np.log(h_vals)))

    # c_a = (det_V A / det_V H)^{1/4} <= 1, with det_V H = (det H)^2.
    c_a = float(np.exp(0.25 * (log_det_v_a - 2.0 * log_det_h)))
    c_restriction = float(
        (2.0 * np.pi) ** (-n / 4.0) * np.exp(0.25 * (log_det_v_a - log_det_h))
    )

    # The weight preserves the real subspace iff the off-diagonal block
    # (imaginary part of A applied to real basis vectors) vanishes.
    E = A.entries
    tol = REAL_FORM_RTOL * report.norm
    real_preserving = _two_norm(E[n:, :n], tol) <= tol

    R = T = S = L = M = D = None
    if real_preserving:
        R = np.array(E[:n, :n])
        T = np.array(E[n:, n:])
        S = 2.0 * np.linalg.inv(np.linalg.inv(R) + np.linalg.inv(T))
        S = 0.5 * (S + S.T)
        _spd_eigh(S, "derived block S")
        vals, vecs = _spd_eigh(2.0 * T - S, "derived block 2T - S")
        L = (vecs * np.sqrt(vals)) @ vecs.T
        M = np.linalg.solve(L, T)
        inv_sqrt_R = inv_sqrt_spd(R)
        D = sqrt_spd(sqrt_spd(inv_sqrt_R @ T @ inv_sqrt_R))
        for arr in (R, T, S, L, M, D):
            arr.flags.writeable = False

    return OperatorContext(
        space=A.space,
        A=A,
        H=H,
        K=K,
        H_matrix=Hc,
        K_matrix=Kc,
        sqrt_H_matrix=sqrt_Hc,
        inv_sqrt_H_matrix=inv_sqrt_Hc,
        real_preserving=real_preserving,
        R=R,
        T=T,
        S=S,
        L=L,
        M=M,
        D=D,
        log_det_v_a=log_det_v_a,
        log_det_h=log_det_h,
        c_a=c_a,
        c_restriction=c_restriction,
    )


def h_eigenbasis(ctx: OperatorContext) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis of the complex-linear part.

    Returns eigenvalues sorted ascending and the matrix whose columns are
    the eigenvectors.  Each eigenvector's phase is fixed so its
    largest-modulus coordinate is real and positive; among coordinates
    tied for largest modulus (within 1e-12) the lowest index wins.
    """
    vals, vecs = np.linalg.eigh(ctx.H_matrix)
    out = np.array(vecs, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = mags.max()
        idx = int(np.nonzero(mags >= top - 1e-12)[0][0])
        phase = col[idx] / abs(col[idx])
        out[:, j] = col / phase
    return np.array(vals, dtype=float), out
