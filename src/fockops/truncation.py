"""Finite-dimensional diagnostics for growing towers of diagonal weights.

For commuting blocks with simultaneous eigenvalues (r_k, t_k), the
kernel normalization across the first n coordinates is

    log c_n^{-1} = (1/2) * sum_{k<=n} log[(r_k + t_k) / (2 sqrt(r_k t_k))],

a nondecreasing partial sum with per-term factor >= 1 (equality exactly
at r_k = t_k).  Whether evaluation functionals survive as n grows is
governed by whether this sum stays bounded; the verdict reported here
extrapolates the tail from the observed increments and is a labeled
heuristic, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigError, NodeBudgetError
from .quadrature import NODE_BUDGET

__all__ = ["TruncationSpec", "CaSequence", "ca_sequence"]

TAIL_BUDGET = 1e-3
DECAY_MARGIN = 0.05


@dataclass(frozen=True, eq=False)
class TruncationSpec:
    """Simultaneous eigenvalue data for the two blocks, plus a depth.

    The sequences are kept as read-only float64 copies; every entry must be
    positive and finite, and each of the first max_n products r_k t_k a
    normal float."""

    r_seq: np.ndarray
    t_seq: np.ndarray
    max_n: int

    def __post_init__(self):
        r = np.array(self.r_seq, dtype=float)
        t = np.array(self.t_seq, dtype=float)
        r.flags.writeable = t.flags.writeable = False
        if self.max_n < 1:
            raise ConfigError("max_n must be positive")
        if len(r) < self.max_n or len(t) < self.max_n:
            raise ConfigError("eigenvalue sequences shorter than max_n")
        # one test for both conditions: NaN fails every comparison
        if not ((r > 0) & (r < math.inf)).all() or not ((t > 0) & (t < math.inf)).all():
            raise ConfigError("eigenvalues must be positive and finite")
        with np.errstate(over="ignore"):
            products = r[: self.max_n] * t[: self.max_n]
        bad = np.flatnonzero(~((products >= np.finfo(float).tiny) & (products < math.inf)))
        if bad.size:
            k = int(bad[0])
            raise ConfigError(f"eigenvalue product r_{k + 1} t_{k + 1} = {r[k]} * {t[k]} "
                              "is not a normal float")
        object.__setattr__(self, "r_seq", r)
        object.__setattr__(self, "t_seq", t)

    @classmethod
    def constant(cls, r: float, t: float, max_n: int) -> "TruncationSpec":
        _require_budget(max_n)
        return cls(np.full(max_n, float(r)), np.full(max_n, float(t)), max_n)

    @classmethod
    def perturbation(
        cls, base: float, amplitude: float, power: float, max_n: int
    ) -> "TruncationSpec":
        """r_k = base + amplitude / k^power against t_k = base.

        k^power is what Python's ``pow(k, power)`` gives, to the bit.  For a
        float power that is the C library's ``pow``, which ``np.float_power``
        runs over the whole tower; ``np.power`` may use a vectorized loop that
        differs from it in the last bit.  An int power keeps Python's exact
        integer power, rounded once to a float: from k^3 past 2^53 on, the
        library ``pow`` can round it differently.  A finite power whose k^power
        overflows is refused, as Python's ``pow`` raises there; an infinite or
        NaN power is not, and its terms are checked with the others.  An int
        power from 1024 on overflows at k = 2, and is refused before any pow."""
        _require_budget(max_n)
        if isinstance(power, int):
            try:
                if power >= 1024 and max_n >= 2:
                    raise OverflowError
                powers = np.fromiter(map(pow, range(1, max_n + 1), repeat(power)), float)
            except OverflowError as err:
                raise ConfigError(f"k^power overflows for power {power}") from err
        else:
            with np.errstate(over="ignore", under="ignore"):
                powers = np.float_power(np.arange(1.0, max_n + 1), power)
            if math.isfinite(power) and np.isinf(powers).any():
                raise ConfigError(f"k^power overflows for power {power}")
        # a term beyond the float range is refused with the others below
        with np.errstate(all="ignore"):
            r = base + amplitude / powers
        return cls(r, np.full_like(r, base), max_n)


def _require_budget(max_n: int) -> None:
    """Refuse a generated tower of more than NODE_BUDGET terms before it is built."""
    if max_n > NODE_BUDGET:
        raise NodeBudgetError(f"max_n {max_n} exceeds the budget of {NODE_BUDGET} terms")


@dataclass(frozen=True, eq=False)
class CaSequence:
    """Partial normalization constants and the boundedness verdict."""

    log_ca_inv: np.ndarray  # log c_n^{-1}, length max_n
    bounded: bool
    tail_bound: float | None
    verdict_note: str

    def to_json(self) -> dict:
        return {
            "logCaInv": self.log_ca_inv,  # rendered from its buffer
            "bounded": self.bounded,
            "tailBound": self.tail_bound,
            "note": self.verdict_note,
        }


def _tail_estimate(increments: np.ndarray) -> tuple[bool, float | None, str]:
    n = increments.shape[0]
    tiny = 1e-15
    if float(increments[-1]) <= tiny and float(np.max(increments[n // 2 :])) <= tiny:
        return True, 0.0, "increments vanish; partial sums are constant"
    if n < 3:
        return False, None, f"too few terms ({n}) to extrapolate the tail"
    window = max(3, min(20, n // 2))
    ks = np.arange(n - window + 1, n + 1, dtype=float)
    ds = np.maximum(increments[-window:], 1e-300)
    slope = float(np.polyfit(np.log(ks), np.log(ds), 1)[0])
    if slope < -1.0 - DECAY_MARGIN:
        tail = float(ds[-1]) * n / (-slope - 1.0)
        note = (
            f"power-law extrapolation (exponent {slope:.2f}) of the local "
            f"quadratic model log-factor ~ eps^2/8; heuristic, not a proof"
        )
        return tail <= TAIL_BUDGET, tail, note
    return False, None, (
        f"increments decay with exponent {slope:.2f} >= -1; partial sums diverge "
        f"under the local quadratic model (heuristic)"
    )


def ca_sequence(spec: TruncationSpec) -> CaSequence:
    """Log-domain partial normalization constants plus a boundedness verdict."""
    r = spec.r_seq[: spec.max_n]
    t = spec.t_seq[: spec.max_n]
    factors = (r + t) / (2.0 * np.sqrt(r * t))
    # at least 1 - 4 * 2^-53 for a normal product r t; the clamp drops that rounding
    increments = 0.5 * np.log(np.maximum(factors, 1.0))
    log_ca_inv = np.cumsum(increments)
    log_ca_inv.flags.writeable = False
    bounded, tail, note = _tail_estimate(increments)
    return CaSequence(log_ca_inv, bounded, tail, note)

