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
from .quadrature import NODE_BUDGET

__all__ = ["TruncationSpec", "CaSequence", "ca_sequence"]


@dataclass(frozen=True, eq=False)
class TruncationSpec:
    """Simultaneous eigenvalue data for the two blocks, plus a depth.

    The sequences are kept as read-only float64 copies of positive finite entries;
    for each of the first max_n pairs, the product r_k t_k is a normal float and the
    factor within the float range.  ``increments`` holds their terms of log c_n^{-1};
    a generator sets ``verdict``, the (bounded, tail bound, note) of its family."""

    r_seq: np.ndarray
    t_seq: np.ndarray
    max_n: int
    increments: np.ndarray = field(init=False, repr=False)
    verdict: tuple = field(init=False, default=(None, None, "a finite list decides nothing"))

    def __post_init__(self):
        r = np.array(self.r_seq, dtype=float)
        t = np.array(self.t_seq, dtype=float)
        r.flags.writeable = t.flags.writeable = False
        n = self.max_n
        if n < 1:
            raise ConfigError("max_n must be positive")
        if len(r) < n or len(t) < n:
            raise ConfigError("eigenvalue sequences shorter than max_n")
        # one test for both conditions: NaN fails every comparison
        if not ((r > 0) & (r < math.inf)).all() or not ((t > 0) & (t < math.inf)).all():
            raise ConfigError("eigenvalues must be positive and finite")
        with np.errstate(over="ignore"):
            products = r[:n] * t[:n]
        normal = (products >= np.finfo(float).tiny) & (products < math.inf)
        if (bad := np.flatnonzero(~normal)).size:
            k = int(bad[0])
            raise ConfigError(f"eigenvalue product r_{k + 1} t_{k + 1} = {r[k]} * {t[k]} "
                              "is not a normal float")
        # q (q / (2 sqrt(r t))) overflows only where the excess itself does
        q = (r[:n] - t[:n]) / (np.sqrt(r[:n]) + np.sqrt(t[:n]))
        with np.errstate(over="ignore"):
            excess = q * (q / (2.0 * np.sqrt(products)))
        if (bad := np.flatnonzero(np.isinf(excess))).size:
            k = int(bad[0])
            raise ConfigError(f"factor (r_{k + 1} + t_{k + 1}) / (2 sqrt(r_{k + 1} t_{k + 1})) "
                              f"for {r[k]} and {t[k]} is beyond the float range")
        increments = 0.5 * np.log1p(excess)
        increments.flags.writeable = False
        object.__setattr__(self, "r_seq", r)
        object.__setattr__(self, "t_seq", t)
        object.__setattr__(self, "increments", increments)

    @classmethod
    def constant(cls, r: float, t: float, max_n: int) -> "TruncationSpec":
        _require_budget(max_n)
        spec = cls(np.full(max_n, float(r)), np.full(max_n, float(t)), max_n)
        object.__setattr__(spec, "verdict", (True, 0.0, "constant family, r = t: every term is 0")
                           if float(r) == float(t) else
                           (False, None, "constant family, r != t: the sums grow linearly"))
        return spec

    @classmethod
    def perturbation(cls, base: float, amplitude: float, power: float,
                     max_n: int) -> "TruncationSpec":
        """r_k = base + amplitude / k^power against t_k = base.

        k^power has the bits of Python's ``pow(k, power)``: ``np.float_power`` (not
        ``np.power``) for a float power; for an int, the exact integer power rounded once,
        which the C ``pow`` may not match past 2^53.  A finite power whose k^power overflows
        is refused, an int one from 1024 on before any pow; inf and NaN terms are checked below."""
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
        spec = cls(r, np.full_like(r, base), max_n)
        object.__setattr__(spec, "verdict", _perturbation_verdict(base, amplitude, power, max_n))
        return spec


def _require_budget(max_n: int) -> None:
    """Refuse a generated tower of more than NODE_BUDGET terms before it is built."""
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
