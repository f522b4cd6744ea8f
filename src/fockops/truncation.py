"""Finite-dimensional diagnostics for growing towers of diagonal weights.

For commuting blocks with simultaneous eigenvalues (r_k, t_k), the
kernel normalization across the first n coordinates is

    log c_n^{-1} = (1/2) * sum_{k<=n} log1p(q_k^2 / (2 sqrt(r_k t_k))),
    q_k = (r_k - t_k) / (sqrt(r_k) + sqrt(t_k)),

the log of the factor (r_k + t_k) / (2 sqrt(r_k t_k)) without its cancellation near
r_k = t_k.  With r_k = t_k (1 + eps_k) each term is at most eps_k^2 / (16 (1 + eps_k)),
and by Kakutani's dichotomy for product measures (the Hilbert-Schmidt condition of
Feldman-Hajek) the sum, and with it the evaluation functionals, stays bounded exactly
when sum eps_k^2 converges.  The verdict is that criterion for the tower's family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ConfigError, NodeBudgetError
from .quadrature import NODE_BUDGET, require_integer

__all__ = ["TruncationSpec", "CaSequence", "ca_sequence"]


TINY = np.finfo(float).tiny  # the smallest normal float

# terms of a tower taken per pass: the blocks of the arrays a pass reads
# and makes, 128 KB apiece, stay in L2, and no temporary spans the tower
BLOCK = 16_384


def _blocks(n: int):
    """The (start, stop) of each BLOCK-term block of n terms, in order."""
    return ((start, min(start + BLOCK, n)) for start in range(0, n, BLOCK))


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float64 array: one that is already read-only
    float64, as the generators build theirs, is kept as it is; anything
    else is copied."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 \
            and not values.flags.writeable:
        return values
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class TruncationSpec:
    """Simultaneous eigenvalue data for the two blocks, plus a depth.

    The sequences are kept as read-only float64 arrays of positive finite
    entries (see _read_only); for each of the first max_n pairs, the product
    r_k t_k is a normal float and the factor within the float range.
    ``increments`` holds their terms of log c_n^{-1}, built a BLOCK at a
    time; a generator sets ``verdict``, the (bounded, tail bound, note) of
    its family."""

    r_seq: np.ndarray
    t_seq: np.ndarray
    max_n: int
    increments: np.ndarray = field(init=False, repr=False)
    verdict: tuple = field(init=False, default=(None, None, "a finite list decides nothing"))

    def __post_init__(self):
        r, t = _read_only(self.r_seq), _read_only(self.t_seq)
        n = self.max_n
        require_integer(n, "max_n")
        if n < 1:
            raise ConfigError("max_n must be positive")
        if len(r) < n or len(t) < n:
            raise ConfigError("eigenvalue sequences shorter than max_n")
        # one test for both conditions: NaN fails every comparison, and the
        # minimum of an array that holds one is NaN
        if not all(x.min() > 0 and x.max() < math.inf for x in (r, t)):
            raise ConfigError("eigenvalues must be positive and finite")
        increments = np.empty(n)
        overflow = None  # the first term whose factor is beyond the float range
        for start, stop in _blocks(n):
            rb, tb = r[start:stop], t[start:stop]
            with np.errstate(over="ignore"):
                products = rb * tb
            if not (products.min() >= TINY and products.max() < math.inf):
                k = start + int(np.argmin((products >= TINY) & (products < math.inf)))
                raise ConfigError(f"eigenvalue product r_{k + 1} t_{k + 1} = {r[k]} * {t[k]} "
                                  "is not a normal float")
            # q (q / (2 sqrt(r t))) overflows only where the excess itself does
            q = (rb - tb) / (np.sqrt(rb) + np.sqrt(tb))
            with np.errstate(over="ignore"):
                excess = q * (q / (2.0 * np.sqrt(products)))
            if overflow is None and excess.max() == math.inf:
                overflow = start + int(np.argmax(excess))
            np.multiply(np.log1p(excess, out=excess), 0.5, out=increments[start:stop])
        # a product that is not normal is refused first, wherever it lies
        if (k := overflow) is not None:
            raise ConfigError(f"factor (r_{k + 1} + t_{k + 1}) / (2 sqrt(r_{k + 1} t_{k + 1})) "
                              f"for {r[k]} and {t[k]} is beyond the float range")
        increments.flags.writeable = False
        object.__setattr__(self, "r_seq", r)
        object.__setattr__(self, "t_seq", t)
        object.__setattr__(self, "increments", increments)

    @classmethod
    def constant(cls, r: float, t: float, max_n: int) -> "TruncationSpec":
        _require_budget(max_n)
        spec = cls(_repeated(r, max_n), _repeated(t, max_n), max_n)
        object.__setattr__(spec, "verdict", (True, 0.0, "constant family, r = t: every term is 0")
                           if float(r) == float(t) else
                           (False, None, "constant family, r != t: the sums grow linearly"))
        return spec

    @classmethod
    def perturbation(cls, base: float, amplitude: float, power: float,
                     max_n: int) -> "TruncationSpec":
        """r_k = base + amplitude / k^power against t_k = base, built a BLOCK at a time.

        k^power has the bits of Python's ``pow(k, power)``: ``np.float_power`` (not
        ``np.power``) for a float power; for an int, the exact integer power rounded once,
        which the C ``pow`` may not match past 2^53.  A finite power whose k^power overflows
        is refused, an int one from 1024 on before any pow; inf and NaN terms are checked below."""
        _require_budget(max_n)
        if isinstance(power, int) and power >= 1024 and max_n >= 2:
            raise ConfigError(f"k^power overflows for power {power}")
        r = np.empty(max_n)
        for start, stop in _blocks(max_n):
            powers = _powers(start + 1, stop + 1, power)
            # a term beyond the float range is refused with the others below
            with np.errstate(all="ignore"):
                r[start:stop] = base + amplitude / powers
        r.flags.writeable = False
        spec = cls(r, _repeated(base, max_n), max_n)
        object.__setattr__(spec, "verdict", _perturbation_verdict(base, amplitude, power, max_n))
        return spec


def _repeated(value: float, n: int) -> np.ndarray:
    """``value`` n times, as a read-only float64 array that stores it once."""
    return np.broadcast_to(np.float64(value), (n,))


def _powers(start: int, stop: int, power: float) -> np.ndarray:
    """k^power for k from ``start`` below ``stop``, as TruncationSpec.perturbation
    takes them; one that overflows is a config error."""
    if isinstance(power, int):
        try:
            return np.fromiter(map(pow, range(start, stop), repeat(power)), float, stop - start)
        except OverflowError as err:
            raise ConfigError(f"k^power overflows for power {power}") from err
    with np.errstate(over="ignore", under="ignore"):
        powers = np.float_power(np.arange(float(start), stop), power)
    if math.isfinite(power) and np.isinf(powers).any():
        raise ConfigError(f"k^power overflows for power {power}")
    return powers


def _require_budget(max_n: int) -> None:
    """Refuse a generated tower of more than NODE_BUDGET terms, or of a
    max_n that is no integer, before it is built."""
    require_integer(max_n, "max_n")
    if max_n > NODE_BUDGET:
        raise NodeBudgetError(f"max_n {max_n} exceeds the budget of {NODE_BUDGET} terms")


def _perturbation_verdict(base: float, amplitude: float, power: float, max_n: int) -> tuple:
    """eps_k = amplitude / (base k^power): the sum is bounded iff power > 1/2, and
    by the integral test on eps_k^2 / (16 (1 + eps_k)) the terms past N = max_n
    add at most (amplitude / base)^2 / (16 (1 + eps_min)) N^(1 - 2 power) / (2 power - 1),
    eps_min = min(0, eps_{N+1}).  Taken in log space, past the float range it is None."""
    if amplitude == 0 or power > float(np.finfo(float).max):  # inf, or an int past every float
        return True, 0.0, "perturbation family, eps_k = 0 from k = 2 on: the sums are final"
    if power != power:  # NaN, without converting an int
        return None, None, "perturbation family, NaN power: eps_k is undefined past k = 1"
    if not power > 0.5:
        return False, None, "perturbation family, power <= 1/2: sum eps_k^2 diverges"
    note = "perturbation family, power > 1/2: sum eps_k^2 converges; tailBound bounds the rest"
    log_scale = math.log(abs(amplitude)) - math.log(base)  # log |eps_1|
    eps_min = -math.exp(log_scale - power * math.log(max_n + 1)) if amplitude < 0 else 0.0
    log_tail = (2.0 * (log_scale + (0.5 - power) * math.log(max_n))
                - math.log(16.0 * (1.0 + eps_min) * (2.0 * power - 1.0)))
    if log_tail > math.log(np.finfo(float).max):
        return True, None, note + ", but not in the float range"
    return True, math.exp(log_tail), note


@dataclass(frozen=True, eq=False)
class CaSequence:
    """Partial normalization constants and the boundedness verdict."""

    log_ca_inv: np.ndarray  # log c_n^{-1}, length max_n
    bounded: bool | None  # None: no verdict
    tail_bound: float | None
    verdict_note: str

    def to_json(self) -> dict:  # logCaInv is rendered from its buffer
        return {"logCaInv": self.log_ca_inv, "bounded": self.bounded,
                "tailBound": self.tail_bound, "note": self.verdict_note}


def ca_sequence(spec: TruncationSpec) -> CaSequence:
    """Log-domain partial normalization constants, with the verdict of the spec's family."""
    log_ca_inv = np.cumsum(spec.increments)
    log_ca_inv.flags.writeable = False
    return CaSequence(log_ca_inv, *spec.verdict)
