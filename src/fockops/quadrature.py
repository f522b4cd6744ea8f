"""Deterministic tensor Gauss-Hermite quadrature and a seeded Monte Carlo
fallback for Gaussian expectations.

A rule integrates against the normalized Gaussian probability density
with a given SPD precision matrix P (density proportional to
exp(-x.Px/2)).  Nodes are the tensor grid x = sqrt(2) P^{-1/2} u over
1-D Gauss-Hermite nodes u, enumerated in lexicographic order.

Weighted sums are reduced in a fixed blocked order (:func:`_block_sum`):
numpy's pairwise sum inside consecutive blocks of ``BLOCK`` values, then
``math.fsum`` across the block sums and the tail.  The error stays at the
pairwise level, O(log BLOCK) roundings per block, and because the order
depends only on the array length, results are bit-stable run to run on
one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import ConfigError, EvaluatorError, NodeBudgetError
from .operators import inv_sqrt_spd

__all__ = ["QuadratureRule", "integrate", "integrate_shifted", "mc_integrate"]

NODE_BUDGET = 10_000_000
BLOCK = 4096
# the largest rule _hermite_rule accepts, for configs refused before any rule is built
MAX_NODES_PER_AXIS = 370


def rule_range_error(k: int) -> ConfigError:
    return ConfigError(f"a Gauss-Hermite rule of {k} nodes per axis is beyond the float range")


@lru_cache(maxsize=64)
def _hermite_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's k-node rule, refused unless its nodes are finite and its
    weights sum to sqrt(pi): past MAX_NODES_PER_AXIS they underflow, then
    are NaN."""
    with np.errstate(all="ignore"):
        u, w = hermgauss(k)
    if not (np.isfinite(u).all() and abs(w.sum() - math.sqrt(math.pi)) <= 1e-12):
        raise rule_range_error(k)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tensor Gauss-Hermite rule for one Gaussian weight.

    ``scaling`` is the precision matrix of the Gaussian probability
    measure being integrated against.
    """

    dim: int
    nodes_per_axis: int
    scaling: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dim < 1 or self.nodes_per_axis < 1:
            raise ConfigError("quadrature dimensions and node counts must be positive")
        total = self.nodes_per_axis**self.dim
        if total > NODE_BUDGET:
            raise NodeBudgetError(
                f"{self.nodes_per_axis}^{self.dim} = {total} nodes exceeds the "
                f"budget of {NODE_BUDGET}"
            )
        _hermite_rule(self.nodes_per_axis)  # refuses a rule beyond the float range
        scaling = np.eye(self.dim) if self.scaling is None else np.asarray(self.scaling, float)
        if scaling.shape != (self.dim, self.dim):
            raise ConfigError(
                f"scaling must be {self.dim}x{self.dim}, got {scaling.shape}"
            )
        scaling = np.array(scaling)
        scaling.flags.writeable = False
        object.__setattr__(self, "scaling", scaling)
        # validates SPD as a side effect
        object.__setattr__(self, "_transform", math.sqrt(2.0) * inv_sqrt_spd(scaling))

    def nodes_1d(self) -> tuple[np.ndarray, np.ndarray]:
        return _hermite_rule(self.nodes_per_axis)

    def grid(self, center: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """All nodes (lexicographic) and their probability weights."""
        u, w = self.nodes_1d()
        U = u[np.indices((self.nodes_per_axis,) * self.dim).reshape(self.dim, -1).T]
        W = reduce(np.multiply.outer, [w] * self.dim).ravel() / math.pi ** (self.dim / 2.0)
        X = U @ self._transform.T
        if center is not None:
            X = X + np.asarray(center, dtype=float)[None, :]
        return X, W


def _require_finite(values: np.ndarray, where: str) -> None:
    """Raise naming the first non-finite value, before any weighting can
    turn an inf into a NaN or hide it."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        kind = "NaN" if np.isnan(values[bad[0]]) else "inf"
        raise EvaluatorError(f"integrand produced {kind} at {where} {bad[0]}")


def _block_sum(x: np.ndarray) -> float:
    """Sum of a real 1-D array in a fixed order: a pairwise sum inside each
    ``BLOCK``-value block, then a correctly rounded ``fsum`` of the block
    sums and the tail."""
    whole = x.size - x.size % BLOCK
    blocks = x[:whole].reshape(-1, BLOCK).sum(axis=1)
    return math.fsum([*blocks.tolist(), float(x[whole:].sum())])


def sampled(f, *args, where: str = "node") -> np.ndarray:
    """``f(*args)`` as complex values: the one place an integrand is evaluated.
    It runs under ``np.errstate``, so a value past the float range is not a
    numpy warning but an inf or a NaN, which :func:`_require_finite` refuses."""
    with np.errstate(all="ignore"):
        values = np.asarray(f(*args), dtype=complex)
    _require_finite(values, where)
    return values


def weighted_sum(values: np.ndarray, weights: np.ndarray) -> complex:
    """The sum of :func:`sampled` values times their weights, in the fixed
    order of :func:`_block_sum`."""
    prods = values * weights
    return complex(_block_sum(prods.real), _block_sum(prods.imag))


def integrate(rule: QuadratureRule, f) -> complex:
    """Expectation of ``f`` under the rule's Gaussian probability measure.

    ``f`` maps an (m, dim) array of points to m values.
    """
    X, W = rule.grid()
    return weighted_sum(sampled(f, X), W)


def integrate_shifted(rule: QuadratureRule, center, f) -> complex:
    """Same expectation with the Gaussian recentered at ``center``."""
    X, W = rule.grid(center=np.asarray(center, dtype=float))
    return weighted_sum(sampled(f, X), W)


def lebesgue_integral(P, nodes_per_axis: int, center, f, factor: complex = 1.0) -> complex:
    """``factor`` times the integral of exp(-(x-c).P(x-c)/2) f(x) dx over R^n, c =
    ``center``: (2 pi)^{n/2} det(P)^{-1/2} factor, multiplied out first, times
    :func:`integrate_shifted` on the rule of ``nodes_per_axis`` nodes scaled to P."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    rule = QuadratureRule(dim=n, nodes_per_axis=nodes_per_axis, scaling=P)
    log_det = float(np.sum(np.log(np.linalg.eigvalsh(P))))
    const = (2.0 * math.pi) ** (n / 2.0) * math.exp(-0.5 * log_det) * factor
    return const * integrate_shifted(rule, center, f)


def mc_integrate(seed: int, samples: int, scaling, f) -> tuple[complex, float]:
    """Monte Carlo Gaussian expectation with a counter-based generator.

    Returns the estimate and its standard error.  The same seed always
    reproduces the same sample stream.  The samples hold at most
    NODE_BUDGET coordinates, as a quadrature grid does.
    """
    if samples < 1000:
        raise ConfigError("mc_integrate needs at least 1000 samples")
    scaling = np.asarray(scaling, dtype=float)
    dim = scaling.shape[0]
    if samples * dim > NODE_BUDGET:
        raise NodeBudgetError(
            f"{samples} samples in dimension {dim} = {samples * dim} coordinates exceeds "
            f"the budget of {NODE_BUDGET}"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    xi = rng.standard_normal((samples, dim))
    X = xi @ inv_sqrt_spd(scaling).T
    values = sampled(f, X, where="sample")
    estimate = complex(_block_sum(values.real) / samples, _block_sum(values.imag) / samples)
    spread = float(np.sqrt(np.mean(np.abs(values - estimate) ** 2)))
    return estimate, spread / math.sqrt(samples)
