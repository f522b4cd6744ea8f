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

Every tensor-grid reduction goes through one loop, :func:`grid_sums`: it
evaluates and weights the integrand in chunks of ``CHUNK`` = 16,384 nodes,
so its temporaries fit in a core's L2 cache where whole-grid ones (2.5 MB
per complex column at 160,000 nodes) do not, and keeps each chunk's block
sums.  The blocks are those of the whole array and ``fsum`` is correctly
rounded, so the result has the bits of :func:`_block_sum` on the whole
array of weighted values.  A grid shape's unscaled nodes and weights are
enumerated once (:func:`_unit_grid`, which keeps the last shape), and each
chunk's nodes are scaled and centred from them when the loop reaches it.

An integrand at m rows returns m values, shape (m,); any other shape, a
scalar included, is a DimensionMismatchError.  Finiteness is read from the
block sums: a chunk runs as one unchecked pass under a single
``np.errstate``, and a non-finite value always leaves a non-finite real or
imaginary block sum (inf times a weight, inf times an underflowed weight of
0, and NaN all propagate).  Only a chunk with a non-finite block sum runs
again as the checked pass, :func:`sampled` on every value, which raises the
EvaluatorError naming the first bad node.  Finite values whose block sum
overflows pass the checked pass too, and give the inf or NaN sum with
numpy's overflow warning, as a checked evaluation always did.  The weighting
overwrites only arrays the reduction built (a product), never one a
caller's function returned.
"""

from __future__ import annotations

import logging
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce

import numpy as np

from .errors import (MAX_NODES_PER_AXIS, NODE_BUDGET, ConfigError, DimensionMismatchError,
                     EvaluatorError, NodeBudgetError, require_integer, rule_range_error)
from .operators import inv_sqrt_spd
from .symbolic import as_matrix, as_vector, gaussian_log_det

log = logging.getLogger(__name__)

__all__ = ["QuadratureRule", "integrate", "integrate_shifted", "mc_integrate"]

BLOCK = 4096
# grid nodes evaluated at once: a complex temporary of a chunk is 256 KiB
CHUNK = 4 * BLOCK


@lru_cache(maxsize=64)
def _hermite_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's k-node rule, refused unless its nodes are finite and its
    weights sum to sqrt(pi): past MAX_NODES_PER_AXIS they underflow, then
    are NaN."""
    # numpy.polynomial loads with the first rule: eval kernel loads this
    # module through kernels and builds none
    from numpy.polynomial.hermite import hermgauss

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
        require_integer(self.dim, "dim")
        require_integer(self.nodes_per_axis, "nodes_per_axis")
        if self.dim < 1 or self.nodes_per_axis < 1:
            raise ConfigError("quadrature dimensions and node counts must be positive")
        if self.size > NODE_BUDGET:
            raise NodeBudgetError(
                f"{self.nodes_per_axis}^{self.dim} = {self.size} nodes exceeds the "
                f"budget of {NODE_BUDGET}"
            )
        _hermite_rule(self.nodes_per_axis)  # refuses a rule beyond the float range
        scaling = np.eye(self.dim) if self.scaling is None else \
            as_matrix(self.scaling, self.dim, "scaling", float)
        scaling = np.array(scaling)
        scaling.flags.writeable = False
        object.__setattr__(self, "scaling", scaling)
        # validates SPD as a side effect
        object.__setattr__(self, "_transform", math.sqrt(2.0) * inv_sqrt_spd(scaling))

    @property
    def size(self) -> int:
        """The number of grid nodes."""
        return self.nodes_per_axis**self.dim

    @cached_property
    def mass(self) -> float:
        """The Lebesgue mass of the rule's Gaussian, the integral of exp(-x.Px/2)
        dx over R^dim for P = ``scaling``: (2 pi)^{dim/2} det(P)^{-1/2}, its
        log-determinant that of every Gaussian (symbolic.gaussian_log_det)."""
        log_det = gaussian_log_det(self.scaling, "a rule's scaling")
        return (2.0 * math.pi) ** (self.dim / 2.0) * math.exp(-0.5 * log_det)

    def nodes_1d(self) -> tuple[np.ndarray, np.ndarray]:
        return _hermite_rule(self.nodes_per_axis)

    def grid(self, center: np.ndarray | None = None, start: int = 0,
             stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``start`` to ``stop`` (lexicographic; all by default) and
        their read-only probability weights, scaled from the shape's
        :func:`_unit_grid` by one product with the transform and, for a
        ``center`` (a real vector of length ``dim``, :func:`_real_vector`),
        shifted column by column: one add per column, each a loop over the
        rows, where a row-wise broadcast would loop over dim values at a
        time; the bits are the same."""
        U, W = _unit_grid(self.nodes_per_axis, self.dim)
        X = U[start:stop] @ self._transform.T
        if center is not None:
            for j, c in enumerate(_real_vector(center, self.dim, "center").tolist()):
                X[:, j] += c
        return X, W[start:stop]


def _real_vector(v, dim: int, what: str) -> np.ndarray:
    """``v`` as a float64 vector of length ``dim``: its shape and finiteness
    checked by :func:`~fockops.symbolic.as_vector`, then ConfigError for a
    complex dtype, naming ``what`` and the value passed."""
    a = as_vector(v, dim, what, None)
    if np.iscomplexobj(a):
        raise ConfigError(f"{what} must be real, got "
                          f"{np.array2string(a, threshold=8, separator=', ')}")
    return a.astype(float, copy=False)


@lru_cache(maxsize=1)
def _unit_grid(k: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The unscaled Gauss-Hermite nodes of a k^dim grid (lexicographic) and
    their probability weights, read-only.  Only the last shape is kept: a
    Gram or a run of shifted integrals asks for one shape many times."""
    u, w = _hermite_rule(k)
    # Keep this build as it is.  The gather returns U column-major
    # (F-contiguous), and a chunk's product U[start:stop] @ T.T runs on that
    # layout about 2.5 times as fast as on a C-ordered copy, by another BLAS
    # path.  Freeing the int64 index array also raises glibc's dynamic mmap
    # threshold above the 256 KiB chunk temporaries, which are then reused
    # from the heap: an index-free build with the same bits made the fresh
    # grids of the quadrature route about 11% slower.
    U = u[np.indices((k,) * dim).reshape(dim, -1).T]
    W = reduce(np.multiply.outer, [w] * dim).ravel() / math.pi ** (dim / 2.0)
    U.flags.writeable = False
    W.flags.writeable = False
    return U, W


def _require_finite(values: np.ndarray, where: str, start: int) -> None:
    """Raise naming the first non-finite value, by its index plus ``start``,
    before any weighting can turn an inf into a NaN or hide it.  All finite
    takes one pass; only a failure looks for the first bad index."""
    finite = np.isfinite(values)
    if finite.all():
        return
    bad = np.flatnonzero(~finite)[0]
    kind = "NaN" if np.isnan(values[bad]) else "inf"
    raise EvaluatorError(f"integrand produced {kind} at {where} {start + bad}")


def _block_sums(x: np.ndarray) -> list[float]:
    """numpy's pairwise sum of each whole ``BLOCK``-value block of a real 1-D
    array, then of the tail if there is one (``fsum`` ignores a zero)."""
    whole = x.size - x.size % BLOCK
    sums = x[:whole].reshape(-1, BLOCK).sum(axis=1).tolist()
    return sums + [float(x[whole:].sum())] if whole < x.size else sums


def _block_sum(x: np.ndarray) -> float:
    """Sum of a real 1-D array in a fixed order: a correctly rounded ``fsum``
    of its :func:`_block_sums`."""
    return math.fsum(_block_sums(x))


def _values(f, *args, where: str = "node") -> np.ndarray:
    """``f(*args)`` as complex values, one per row of ``args[0]``:
    DimensionMismatchError for any other shape, a scalar included, naming
    the row count and the shape returned.  No finiteness check: the first
    pass of a :func:`grid_sums` chunk, which reads finiteness from its block
    sums, evaluates by it alone."""
    values = np.asarray(f(*args), dtype=complex)
    m = len(args[0])
    if values.shape != (m,):
        raise DimensionMismatchError(f"an integrand at {m} {where}s must return {m} values, "
                                     f"shape ({m},), got shape {values.shape}")
    return values


def sampled(f, *args, where: str = "node", start: int = 0) -> np.ndarray:
    """``f(*args)`` as complex values of shape (m,), m the rows of
    ``args[0]`` (:func:`_values`): the checked evaluation of an integrand.
    It runs under ``np.errstate``, so a value past the float range is not a
    numpy warning but an inf or a NaN, which :func:`_require_finite` refuses,
    naming the row as ``start`` plus its index.  :func:`grid_sums` calls it
    only for a chunk whose unchecked pass left a non-finite block sum;
    ``mc_integrate`` calls it on every sample."""
    with np.errstate(all="ignore"):
        values = _values(f, *args, where=where)
    _require_finite(values, where, start)
    return values


def _chunk_sums(integrands, X, W, start: int, sample) -> list[list[float]]:
    """The real and imaginary block sums, in turn, of each integrand's
    weighted values on one chunk, evaluated by ``sample``; only the last
    chunk has a tail.  An array the reduction built is weighted in place,
    the ``DD->D`` loop of ``values * W``; an array a caller's function
    returned, or a single value (numpy rounds a one-element in-place
    product differently), out of place.  From a chunk's second integrand
    on (a Gram), the in-place products take the weights cast to complex
    once, where each would cast them again through a buffer: the same
    in-place ``DD->D`` loop and bits.  An out-of-place product keeps the
    float weights: with a complex operand numpy runs a chunk-long product
    through another loop, which can round a product near underflow to a
    zero of the other sign.  A single integrand keeps the buffered cast,
    which holds no complex copy of the weights."""
    parts = []
    weights = W
    for k, (values, owned) in enumerate(integrands(X, start, sample)):
        if k == 1:
            weights = W.astype(complex)
        in_place = owned and values.size > 1
        prods = np.multiply(values, weights, out=values) if in_place else values * W
        parts += [_block_sums(prods.real), _block_sums(prods.imag)]
    return parts


def grid_sums(rule: QuadratureRule, center, integrands) -> list[complex]:
    """The weighted node sums over the grid of ``rule`` centred at ``center``
    (None for the origin) of each integrand, where
    ``integrands(rows, start, sample)`` yields, integrand by integrand, a
    pair: the values ``sample(f, *args)`` builds at ``rows``, the grid rows
    from node ``start``, and whether the array is one the integrands built
    themselves (a product), which the weighting may overwrite.

    The one tensor-grid reduction: it walks the grid in chunks of CHUNK
    nodes, the tail of fewer than BLOCK nodes joining the last chunk, and
    builds each chunk's rows with ``rule.grid``, so memory holds one chunk of
    each value and no whole grid of nodes.  Each chunk keeps the pairwise sums
    of its whole blocks, and the last one its tail's; one ``fsum`` over them
    has the bits of :func:`_block_sum` on the whole array.

    Finiteness is read from the block sums.  A chunk first runs as one
    unchecked pass under a single ``np.errstate`` (``sample`` is
    :func:`_values`), and one scan of its block sums decides it: a
    non-finite value always leaves a non-finite real or imaginary block sum,
    as inf times a weight, inf times an underflowed weight of 0, and NaN all
    propagate.  Only a chunk with a non-finite block sum, or whose pass
    raised, runs again as the checked pass (``sample`` is :func:`sampled`,
    weighting and sums outside ``np.errstate``), which raises the
    EvaluatorError naming its first bad node, or the error the pass raised,
    in the order of a checked evaluation.  Finite values whose block sum
    overflows pass that check: the rerun's sum gives the result of a
    checked evaluation, inf or NaN, with numpy's overflow warning kept.
    Chunks run in node order, so an error names the first failing chunk's
    first bad node."""
    started = time.perf_counter()
    size = rule.size
    bounds = [0, *range(CHUNK, size - BLOCK + 1, CHUNK), size]
    sums = defaultdict(list)  # real and imaginary block sums of each integrand, in turn
    reruns = 0
    for start, stop in zip(bounds, bounds[1:]):
        X, W = rule.grid(center, start, stop)
        failure = None
        try:
            with np.errstate(all="ignore"):
                parts = _chunk_sums(integrands, X, W, start, _values)
            finite = np.isfinite([s for blocks in parts for s in blocks]).all()
        except Exception as err:  # raised again below unless the checked pass raises first
            failure, finite = err, False
        if not finite:
            reruns += 1
            checked = partial(sampled, start=start)
            parts = _chunk_sums(integrands, X, W, start, checked)
            if failure is not None:
                raise failure
        for k, blocks in enumerate(parts):
            sums[k] += blocks
    log.debug("grid reduction dim %d, %d nodes, %d chunks in %.3fs, %d rerun checked",
              rule.dim, size, len(bounds) - 1, time.perf_counter() - started, reruns)
    sums = list(sums.values())
    return [complex(math.fsum(re), math.fsum(im)) for re, im in zip(sums[::2], sums[1::2])]


def integrate(rule: QuadratureRule, f) -> complex:
    """Expectation of ``f`` under the rule's Gaussian probability measure.

    ``f`` maps an (m, dim) array of points to m values.
    """
    return grid_sums(rule, None, lambda rows, start, sample: [(sample(f, rows), False)])[0]


def _tensor_phase(rule: QuadratureRule, phase):
    """exp(i phase.(X - center)) on the rows of the grid X of ``rule`` centred
    anywhere, as ``rows(start, stop)`` for nodes ``start`` to ``stop``.

    X - center is U T^T, so the factor is the tensor product of the one-axis
    vectors exp(i c_d u), c = T^T phase, in the grid's lexicographic order:
    n k exponentials in all.  The product of all but the last vector is
    built once; a range takes the rows of it that it spans times the last
    vector, so every range has the bits of the whole outer product."""
    u, _ = rule.nodes_1d()
    k = rule.nodes_per_axis
    c = rule._transform.T @ phase
    factors = [np.exp(1j * (c_d * u)) for c_d in c.tolist()]
    if rule.dim == 1:
        return lambda start, stop: factors[0][start:stop]
    lead = reduce(np.multiply.outer, factors[:-1]).ravel()

    def rows(start: int, stop: int) -> np.ndarray:
        first = start // k
        block = np.multiply.outer(lead[first:-(-stop // k)], factors[-1]).ravel()
        return block[start - first * k:stop - first * k]

    return rows


def integrate_shifted(rule: QuadratureRule, center, f, phase=None) -> complex:
    """Same expectation with the Gaussian recentered at ``center``; with a real
    vector ``phase``, the expectation of f(X) exp(i phase.(X - center)), whose
    oscillating factor comes from :func:`_tensor_phase`, with no exponential
    per node.  ``center`` and ``phase`` are checked once, by
    :func:`_real_vector`, before any node is built."""
    center = _real_vector(center, rule.dim, "center")
    phase = None if phase is None else _real_vector(phase, rule.dim, "phase")
    oscillation = None if phase is None else _tensor_phase(rule, phase)

    def values(X, start):
        if oscillation is None:
            return f(X)
        return np.multiply(_values(f, X), oscillation(start, start + len(X)))

    return grid_sums(rule, center, lambda X, start, sample:
                     [(sample(values, X, start), oscillation is not None)])[0]


def mc_integrate(seed: int, samples: int, scaling, f) -> tuple[complex, float]:
    """Monte Carlo Gaussian expectation with a counter-based generator.

    Returns the estimate and its standard error; a sum of the samples or a
    standard error beyond the float range is an EvaluatorError.  The same
    seed always reproduces the same sample stream.  The samples hold at
    most NODE_BUDGET coordinates, as a quadrature grid does.  ``samples``
    is an integer of at least 1000, a ConfigError otherwise (a float or a
    bool included); ``scaling`` is checked as in QuadratureRule, square of
    any size.
    """
    require_integer(samples, "samples")
    if samples < 1000:
        raise ConfigError("mc_integrate needs at least 1000 samples")
    scaling = as_matrix(scaling, None, "scaling", float)
    dim = len(scaling)
    if samples * dim > NODE_BUDGET:
        raise NodeBudgetError(
            f"{samples} samples in dimension {dim} = {samples * dim} coordinates exceeds "
            f"the budget of {NODE_BUDGET}"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    xi = rng.standard_normal((samples, dim))
    X = xi @ inv_sqrt_spd(scaling).T
    values = sampled(f, X, where="sample")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            estimate = complex(_block_sum(values.real) / samples, _block_sum(values.imag) / samples)
        except (OverflowError, ValueError):  # fsum past the float range, or of inf and -inf
            estimate = complex(math.inf)
        # an estimate beyond the float range makes the spread inf or NaN
        spread = float(np.sqrt(np.mean(np.abs(values - estimate) ** 2)))
    if not math.isfinite(spread):
        raise EvaluatorError("the Monte Carlo sum or standard error is beyond the float range")
    return estimate, spread / math.sqrt(samples)
