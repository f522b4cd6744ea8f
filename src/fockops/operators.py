"""Real-linear operators on C^n and their holomorphic decomposition.

A complex vector z = x + iy is identified with the real vector (x, y) in
R^{2n}; the real subspace is {y = 0}.  In this basis multiplication by i
is the constant block matrix J = [[0, -I], [I, 0]] and coordinate
conjugation is sigma = [[I, 0], [0, -I]].

Any real-linear map A splits as A = H + K with

    H = (A - J A J) / 2   (commutes with J: complex-linear),
    K = (A + J A J) / 2   (anticommutes with J: conjugate-linear).

For a symmetric positive-definite weight A the derived objects needed by
the kernel and transform modules (square roots, determinants,
normalization constants, and on first read the block restrictions R and
T and the harmonic-mean block S) are held by an :class:`OperatorContext`.

A map, and so a context, may hold a leading weight axis: an (m, 2n, 2n)
stack of m weights, each field then an array over the stack whose row i
has the bits of the one-weight field of weight i.  ``build_context`` of
one 2n x 2n weight is the one-row case of the same code.
"""

from __future__ import annotations

import math
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
    "RealLinearMap",
    "OperatorContext",
    "require_spd",
    "decompose",
    "decomposition_residuals",
    "build_context",
    "sqrt_spd",
    "inv_sqrt_spd",
    "eigh_pd",
    "to_complex_coords",
]

SYMMETRY_RTOL = 1e-12
SPD_EIG_RTOL = 1e-10  # smallest eigenvalue must exceed this times ||A||
REAL_FORM_RTOL = 1e-12


def to_complex_coords(v: np.ndarray) -> np.ndarray:
    """(x, y) in R^{2n} -> x + iy in C^n, for one vector or each row of a batch."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1] // 2
    return v[..., :n] + 1j * v[..., n:]


@dataclass(frozen=True, eq=False)
class RealLinearMap:
    """A real-linear operator on C^n stored as its 2n x 2n real matrix, or an
    (m, 2n, 2n) stack of them; n and the fixed real-basis conventions J and
    sigma are read off its size."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        d = entries.shape[-1] if entries.ndim in (2, 3) else 0
        if entries.shape[-2:] != (d, d) or d == 0 or d % 2:
            raise DimensionMismatchError(
                f"expected a 2n x 2n matrix with n >= 1, got shape {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):
            *_, i, j = where = tuple(np.argwhere(~np.isfinite(entries))[0])
            raise ConfigError(f"operator entry ({i}, {j}) is {entries[where]}, not finite")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        """Complex dimension."""
        return self.entries.shape[-1] // 2

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

    @classmethod
    def identity(cls, n: int) -> "RealLinearMap":
        return cls(np.eye(2 * n))

    @classmethod
    def from_blocks(cls, X: np.ndarray, Y: np.ndarray) -> "RealLinearMap":
        """The map sending a -> Xa and ia -> iYa for real vectors a (a stack for stacked blocks)."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape != Y.shape or X.ndim not in (2, 3) or X.shape[-1] != X.shape[-2]:
            raise DimensionMismatchError("blocks must be square matrices of equal size")
        n = X.shape[-1]
        M = np.zeros(X.shape[:-2] + (2 * n, 2 * n))
        M[..., :n, :n] = X
        M[..., n:, n:] = Y
        return cls(M)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Apply to a complex vector of length n; a stack of m maps applies each
        to its own row of an (m, n) batch z.  Any other shape of z is a
        DimensionMismatchError of symbolic's shape checks."""
        # imported here: truncate imports this module and loads no symbolic calculus
        from .symbolic import as_vector, require_rows

        z = np.asarray(z, dtype=complex)
        if self.entries.ndim == 2:
            as_vector(z, self.n, "z")
        else:  # the stack's x blocks, (m, n), fix the batch's row count
            require_rows(self.n, z, self.entries[:, 0, :self.n])
        v = np.concatenate([z.real, z.imag], axis=-1)  # z as (x, y) in R^{2n}
        return to_complex_coords((self.entries @ v[..., None])[..., 0])

    def norm(self):
        return _per_weight(spectral_norm(self.entries))


def spectral_norm(X: np.ndarray) -> np.ndarray:
    """The 2-norm of a matrix, or of each matrix of a stack: the largest
    singular value, which LAPACK returns first.  It is the one call
    ``np.linalg.norm(X, 2, axis=(-2, -1))`` makes, without the wrapping that
    costs a small matrix more than the call: the same bits, a float64 scalar
    for one matrix, and LinAlgError on a NaN."""
    return np.linalg.svd(X, compute_uv=False)[..., 0][()]


def _per_weight(x):
    """x as a Python scalar for one weight, or as its array over a stack."""
    return x.item() if x.ndim == 0 else x


def _require(ok, error, *values) -> None:
    """Raise ``error(*values)`` with the values of the first weight failing ``ok``."""
    if ok is not np.True_ and not ok.all():  # np.True_: one weight that passed
        first = np.flatnonzero(np.logical_not(ok))[0]
        raise error(*(float(np.ravel(v)[first]) for v in values))


@np.errstate(over="ignore")  # twice the norm may overflow
def require_spd(A: RealLinearMap) -> tuple[float, np.ndarray]:
    """Check that A is symmetric and positive definite as a real matrix, and
    return its 2-norm and the ascending eigenvalues of its symmetric part.

    Symmetry means ||A - A^T||_2 <= 1e-12 * max(||A||, 1); positivity uses
    the scale-aware threshold min_eig > 1e-10 * max(||A||, 1), because every
    downstream formula inverts A or takes its square root.  Raises
    NotSymmetricError, IllConditionedError (positive, but below the
    threshold only through its ratio to the norm) or NotPositiveDefiniteError.
    A weight whose doubled norm overflows, so that A + A^T cannot be formed,
    is a ConfigError.  For a stack, each test raises at the first weight failing it.
    """
    E = A.entries
    norm = spectral_norm(E)
    _require(np.isfinite(2.0 * norm), lambda norm: ConfigError(
        f"operator 2-norm {norm:.3e} is too large: twice it overflows the float range"), norm)
    scale = np.maximum(norm, 1.0)
    asym = spectral_norm(E - E.mT)
    _require(asym <= SYMMETRY_RTOL * scale, lambda asym: NotSymmetricError(  # a NaN fails
        f"operator is not symmetric (asymmetry {asym:.3e})", asymmetry=asym), asym)
    eigenvalues = np.linalg.eigvalsh(0.5 * (E + E.mT))
    min_eig = eigenvalues[..., 0]
    _require(min_eig > SPD_EIG_RTOL * scale, _not_positive, min_eig, norm)  # a NaN fails
    return _per_weight(norm), eigenvalues


def _not_positive(min_eig: float, norm: float) -> NotPositiveDefiniteError:
    if min_eig > SPD_EIG_RTOL:
        ratio = min_eig / norm
        return IllConditionedError(
            f"operator is ill-conditioned (smallest to largest eigenvalue ratio "
            f"{ratio:.3e}, below {SPD_EIG_RTOL:.0e})",
            min_eigenvalue=min_eig,
            eigenvalue_ratio=ratio,
        )
    return NotPositiveDefiniteError(
        f"operator is not positive definite (min eigenvalue {min_eig:.3e})",
        min_eigenvalue=min_eig,
    )


def _split(A: RealLinearMap) -> tuple[np.ndarray, np.ndarray]:
    """The real matrices of (H, K) of ``decompose``, for a weight already validated."""
    J = A.J
    E = A.entries
    JAJ = J @ E @ J
    return 0.5 * (E - JAJ), 0.5 * (E + JAJ)


def decompose(A: RealLinearMap) -> tuple[RealLinearMap, RealLinearMap]:
    """Split a validated weight into complex-linear and conjugate-linear parts.

    Returns (H, K) with A = H + K, HJ = JH, KJ = -JK and H symmetric
    positive definite.
    """
    require_spd(A)
    H, K = _split(A)
    return RealLinearMap(H), RealLinearMap(K)


def decomposition_residuals(A: RealLinearMap, H: RealLinearMap, K: RealLinearMap) -> dict:
    """||A - H - K||, ||HJ - JH|| and ||KJ + JK|| in the 2-norm, each relative
    to ||A|| (per weight of a stack): zero up to rounding for (H, K) = decompose(A)."""
    J = A.J
    scale = A.norm()
    return {
        "sum": _per_weight(spectral_norm(A.entries - H.entries - K.entries) / scale),
        "hCommutes": _per_weight(spectral_norm(H.entries @ J - J @ H.entries) / scale),
        "kAnticommutes": _per_weight(spectral_norm(K.entries @ J + J @ K.entries) / scale),
    }


def eigh_pd(M: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a real symmetric
    or complex Hermitian matrix M, or of each matrix of a stack, once M is
    checked to be one (a finite asymmetry within 1e-10 of its Frobenius
    norm, which may overflow) and positive definite; raises the error of its
    kind, naming ``what``, at the first matrix that is not."""
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    adjoint = M.conj().mT
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.linalg.norm(M - adjoint, axis=(-2, -1))
        scale = np.maximum(np.linalg.norm(M, axis=(-2, -1)), 1.0)
    _require(np.isfinite(asym) & (asym <= 1e-10 * scale),
             lambda a: NotSymmetricError(f"{what} is not symmetric", asymmetry=a), asym)
    vals, vecs = np.linalg.eigh(0.5 * M + 0.5 * adjoint)
    _require(~(vals[..., 0] <= 0.0),
             lambda v: NotPositiveDefiniteError(f"{what} is not positive definite (min "
                                                f"eigenvalue {v:.3e})", min_eigenvalue=v),
             vals[..., 0])
    return vals, vecs


def _root(eig: tuple[np.ndarray, np.ndarray], inverse: bool = False) -> np.ndarray:
    """M^{1/2}, or M^{-1/2} if ``inverse``, from the eigendecomposition of M."""
    vals, vecs = eig
    roots = np.sqrt(vals)[..., None, :]
    return (vecs / roots if inverse else vecs * roots) @ vecs.conj().mT


def sqrt_spd(M: np.ndarray) -> np.ndarray:
    """Principal square root of an SPD (or Hermitian positive-definite) matrix."""
    return _root(eigh_pd(M, "matrix"))


def inv_sqrt_spd(M: np.ndarray) -> np.ndarray:
    """Inverse of the principal square root of an SPD (or Hermitian
    positive-definite) matrix."""
    return _root(eigh_pd(M, "matrix"), inverse=True)


@dataclass(frozen=True, eq=False)
class OperatorContext:
    """A validated weight operator together with everything derived from it.

    Each part of the weight is held once: the real 2n x 2n parts H and K
    are ``decompose(A)`` and the dimension is ``A.n``.  The n x n real
    blocks R, T, S, L, M, D are derived, read-only, on first read; reading
    one raises RealFormError unless the weight maps the real subspace into
    itself (``real_preserving``).  H_matrix is the complex n x n
    (Hermitian) matrix of the complex-linear part, K_matrix the complex
    symmetric matrix C with K z = C conj(z).

    A context of a stack holds each field with the stack's leading axis (a
    scalar as an (m,) array); its real blocks need every weight real-preserving.
    """

    A: RealLinearMap
    H_matrix: np.ndarray
    K_matrix: np.ndarray
    sqrt_H_matrix: np.ndarray
    inv_sqrt_H_matrix: np.ndarray
    real_preserving: bool
    log_det_v_a: float
    log_det_h: float
    c_a: float
    c_restriction: float

    @property
    def n(self) -> int:
        return self.A.n

    def _real_block(self, X: np.ndarray) -> np.ndarray:
        """The block X, read-only; the one check of the real form."""
        if not np.all(self.real_preserving):
            raise RealFormError(
                "operation requires a weight that preserves the real subspace"
            )
        X.flags.writeable = False
        return X

    @cached_property
    def R(self) -> np.ndarray:
        return self._real_block(np.array(self.A.entries[..., :self.n, :self.n]))

    @cached_property
    def T(self) -> np.ndarray:
        return self._real_block(np.array(self.A.entries[..., self.n:, self.n:]))

    @cached_property
    def S(self) -> np.ndarray:
        """2 (R^-1 + T^-1)^-1, the harmonic-mean block."""
        S = 2.0 * np.linalg.inv(np.linalg.inv(self.R) + np.linalg.inv(self.T))
        S = 0.5 * (S + S.mT)
        eigh_pd(S, "derived block S")
        return self._real_block(S)

    @cached_property
    def L(self) -> np.ndarray:
        return self._real_block(_root(eigh_pd(2.0 * self.T - self.S, "derived block 2T - S")))

    @cached_property
    def M(self) -> np.ndarray:
        return self._real_block(np.linalg.solve(self.L, self.T))

    @cached_property
    def D(self) -> np.ndarray:
        inv_sqrt_R = inv_sqrt_spd(self.R)
        return self._real_block(sqrt_spd(sqrt_spd(inv_sqrt_R @ self.T @ inv_sqrt_R)))

    @property
    def det_v_a(self) -> float:
        """Determinant of the weight as a real 2n x 2n matrix."""
        return _per_weight(np.exp(self.log_det_v_a))

    @property
    def det_h(self) -> float:
        """Determinant of the complex-linear part on an n-dimensional real form."""
        return _per_weight(np.exp(self.log_det_h))

    @property
    def det_r(self) -> float:
        return _per_weight(np.linalg.det(self.R))

    @property
    def det_t(self) -> float:
        return _per_weight(np.linalg.det(self.T))

    @property
    def det_s(self) -> float:
        return _per_weight(np.linalg.det(self.S))

    def summary(self) -> dict:
        """The scalars and blocks a report shows.  A determinant among them
        that is beyond the float range is a ConfigError: the weight is too
        large to be reported."""
        with np.errstate(over="ignore"):
            dets = {"detVA": self.det_v_a, "detH": self.det_h}
            if self.real_preserving:
                dets.update(detR=self.det_r, detT=self.det_t, detS=self.det_s)
        for key, value in dets.items():
            if not math.isfinite(value):
                raise ConfigError(f"the weight's determinant {key} is beyond the float range")
        out = {
            "n": self.n,
            "realPreserving": self.real_preserving,
            "cA": self.c_a,
            "c": self.c_restriction,
            **dets,
        }
        if self.real_preserving:
            out.update(R=self.R.tolist(), T=self.T.tolist(), S=self.S.tolist())
        return out


# c_restriction of a large weight in many dimensions overflows: it is inf
# then, without a warning
@np.errstate(over="ignore")
def build_context(A: RealLinearMap) -> OperatorContext:
    """Validate a weight operator (or each of a stack) and assemble what every weight has.

    The normalization constant of the reproducing kernel is computed in
    log space from eigenvalues so that large dimensions do not overflow.
    """
    norm, a_vals = require_spd(A)
    n = A.n
    # the first block column of a map is its action on real vectors, where
    # z = conj(z): H z = Hc z and K z = Kc conj(z) read the same block
    Hc, Kc = (X[..., :n, :n] + 1j * X[..., n:, :n] for X in _split(A))
    h_eig = eigh_pd(Hc, "complex-linear part")

    log_det_v_a = np.sum(np.log(a_vals), axis=-1)
    log_det_h = np.sum(np.log(h_eig[0]), axis=-1)

    # c_a = (det_V A / det_V H)^{1/4} <= 1, with det_V H = (det H)^2.
    c_a = np.exp(0.25 * (log_det_v_a - 2.0 * log_det_h))
    c_restriction = (2.0 * np.pi) ** (-n / 4.0) * np.exp(0.25 * (log_det_v_a - log_det_h))

    # The weight preserves the real subspace iff the off-diagonal block
    # (imaginary part of A applied to real basis vectors) vanishes.
    tol = REAL_FORM_RTOL * norm
    real_preserving = spectral_norm(A.entries[..., n:, :n]) <= tol

    roots = _root(h_eig), _root(h_eig, inverse=True)
    for X in (Hc, Kc, *roots):
        X.flags.writeable = False
    return OperatorContext(
        A=A,
        H_matrix=Hc,
        K_matrix=Kc,
        sqrt_H_matrix=roots[0],
        inv_sqrt_H_matrix=roots[1],
        real_preserving=_per_weight(real_preserving),
        log_det_v_a=_per_weight(log_det_v_a),
        log_det_h=_per_weight(log_det_h),
        c_a=_per_weight(c_a),
        c_restriction=_per_weight(c_restriction),
    )
