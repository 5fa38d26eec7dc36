"""Independent-factor particle-number laws, shared by the interval and box routes.

N is a sum of independent factors of mean occupation n_i, each repeated r_i
times: binomial (FD) or negative-binomial (BE) blocks.  The interval route's
factors are the counting-matrix eigenvalues (determinantal factorization:
Hough, Krishnapur, Peres and Virag, Probab. Surveys 3, 2006), the box
route's the mode shells.  FD pmfs keep their full support; BE blocks and
pmfs drop tails below ``_FACTOR_TAIL`` and ``_PMF_TAIL``, all summed into
``tail_mass``.  Blocks with r > 1 come from log-factorials: a cached table
of ``math.lgamma`` values for arrays, ``math.lgamma`` itself for scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AccuracyError, DomainError
from .thermo import BE, FD

__all__ = ["FactorLaw", "window_log_prob"]

# tail mass stays well under the budget; the headroom keeps the
# zeta-transform identity sharp, since dropped mass is amplified by zeta^n
_PMF_TAIL = 1e-17
_FACTOR_TAIL = 1e-21
_PMF_BUDGET = 1e-14
_LOG_FACTORIALS = np.zeros(1)  # log k! for k < size; replaced whole when it grows


def _log_factorials(top: int) -> np.ndarray:
    """A table of log k! for k = 0..top at least (math.lgamma values)."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if top >= table.size:
        table = np.array([math.lgamma(k + 1.0) for k in range(max(top + 1, 2 * table.size))])
        _LOG_FACTORIALS = table
    return table


@dataclass(frozen=True)
class FactorLaw:
    """Law of N from mean occupations n_i >= 0, multiplicities r_i and sigma.

    Counting-matrix occupations may carry rounding noise outside the
    physical range; the pmf clips them to [0, 1] (FD) or [0, inf) (BE).
    """

    occupations: np.ndarray = field(repr=False)
    multiplicities: np.ndarray = field(repr=False)
    sigma: int

    def log_pgf(self, zeta_minus_one: float) -> float:
        """log <zeta^N> = -sigma sum r log1p(-sigma (zeta-1) n); inf (BE) once (zeta-1) n >= 1."""
        x = -self.sigma * zeta_minus_one * self.occupations
        if self.sigma == BE and x.min() <= -1.0:
            return math.inf
        return -self.sigma * float(np.sum(self.multiplicities * np.log1p(x)))

    def tilted(self, zeta: float) -> "FactorLaw":
        """The law of N weighted by zeta^N: n -> zeta n / (1 - sigma (zeta - 1) n)."""
        n = self.occupations
        return replace(self, occupations=zeta * n / (1.0 - self.sigma * (zeta - 1.0) * n))

    def mean(self) -> float:
        """kappa_1 = sum r n."""
        return float(np.sum(self.multiplicities * self.occupations))

    def cumulants(self) -> tuple:
        """kappa_1..kappa_4 from the per-factor closed forms."""
        n, s = self.occupations, self.sigma
        k2 = n * (1.0 + s * n)
        terms = (k2, k2 * (1.0 + 2 * s * n), k2 * (1.0 + 6 * s * n * (1.0 + s * n)))
        return (self.mean(),) + tuple(float(np.sum(self.multiplicities * t)) for t in terms)

    def pmf(self) -> tuple[np.ndarray, float]:
        """Exact pmf of N and its ``tail_mass``; a tail above 1e-14 raises ``AccuracyError``."""
        floor = _PMF_TAIL if self.sigma == BE else 0.0
        occupations = np.clip(self.occupations, 0.0, 1.0 if self.sigma == FD else np.inf)
        pmf, tail = np.array([1.0]), 0.0
        for n, r in zip(occupations.tolist(), self.multiplicities.tolist()):
            block, dropped = _block(n, r, self.sigma)
            tail += dropped
            if block is None:
                continue
            pmf = np.convolve(pmf, block)
            if pmf[-1] <= floor:  # otherwise no trailing mass is at or below the floor
                rest = np.cumsum(pmf[::-1])[::-1]
                cut = int(np.searchsorted(-rest, -floor))  # first index whose tail is <= floor
                if cut < pmf.size:
                    tail += float(rest[cut])
                pmf = pmf[: max(cut, 1)]
        if tail > _PMF_BUDGET:
            raise AccuracyError(f"pmf tail mass {tail:.2e} over {_PMF_BUDGET:.0e}", estimate=tail)
        return pmf, tail


def _block(n: float, r: int, sigma: int):
    """pmf of one factor (``None`` for a point mass at 0) and a bound on the mass it drops.

    FD: Binomial(r, n), full support.  BE: NegativeBinomial(r, q = n / (1 + n)), whose
    ratio rho(k) = pmf(k + 1) / pmf(k) = q (k + r) / (k + 1) falls with k: once rho(k) < 1
    the mass beyond k is below pmf(k) rho(k) / (1 - rho(k)), a bound that falls with k too,
    and the block ends at the first k where it meets ``_FACTOR_TAIL`` (a bisection search;
    for r = 1 the exact tail q^k).  Blocks with r > 1 come from log-factorials, rescaled to
    sum 1.
    """
    if n == 0.0:
        return None, 0.0
    if sigma == FD:
        if r == 1:
            return [1.0 - n, n], 0.0
        if n == 1.0:  # every mode occupied
            return np.eye(1, r + 1, r)[0], 0.0
        k, dropped = np.arange(r + 1), 0.0
        log_fact = _log_factorials(r)[: r + 1]
        log_pmf = log_fact[r] - log_fact - log_fact[::-1] + k * math.log(n) + (r - k) * math.log1p(-n)
    else:
        off_zero = -math.expm1(-r * math.log1p(n))
        if off_zero < _FACTOR_TAIL:
            return None, off_zero
        q = n / (1.0 + n)
        if r == 1:  # rho = q
            end = math.ceil(math.log(_FACTOR_TAIL) / math.log(q))
            return (1.0 - q) * q ** np.arange(end + 1), q ** (end + 1)
        log_q, log_p0 = math.log(q), -r * math.log1p(n)
        log_nb = lambda k: math.lgamma(k + r) - math.lgamma(r) - math.lgamma(k + 1.0) + log_p0 + k * log_q
        rho = lambda k: q * (k + r) / (k + 1)
        log_bound = lambda k: log_nb(k) + math.log(rho(k)) - math.log1p(-rho(k))
        k0 = max(0, math.floor((q * r - 1.0) / (1.0 - q)) + 1)
        while rho(k0) >= 1.0:  # rounding at the boundary
            k0 += 1
        target = math.log(_FACTOR_TAIL)
        lo, end = k0 - 1, k0  # the bound misses at lo (or lo < k0) and is tested at end
        while log_bound(end) > target:
            lo, end = end, k0 + 2 * (end - k0) + 1
        while end - lo > 1:
            mid = (lo + end) // 2
            lo, end = (mid, end) if log_bound(mid) > target else (lo, mid)
        dropped = math.exp(log_bound(end))
        k, log_fact = np.arange(end + 1), _log_factorials(end + r)
        log_pmf = log_fact[k + r - 1] - log_fact[r - 1] - log_fact[k] + log_p0 + k * log_q
    block = np.exp(log_pmf)
    return block / block.sum(), dropped  # log-gamma rounding, not the tail, moves the sum off 1


def window_log_prob(pmf: np.ndarray, volume: float, beta: float, a: float, b: float) -> float:
    """(beta V)^{-1} log P(N in V [a, b]), or -inf, over ceil(a V - 1e-9)..floor(b V + 1e-9)."""
    if a > b:
        raise DomainError("interval requires a <= b")
    lo = max(0, int(math.ceil(a * volume - 1e-9)))
    hi = int(math.floor(b * volume + 1e-9))
    mass = float(np.sum(pmf[lo : hi + 1])) if hi >= lo else 0.0
    return math.log(mass) / (beta * volume) if mass > 0.0 else -math.inf
