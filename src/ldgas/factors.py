"""Independent-factor particle-number laws, shared by the interval and box routes.

N is a sum of independent factors of mean occupation n_i, each repeated r_i
times: binomial (FD) or negative-binomial (BE) blocks.  The interval route's
factors are the counting-matrix eigenvalues (determinantal factorization:
Hough, Krishnapur, Peres and Virag, Probab. Surveys 3, 2006), the box
route's the mode shells.

A BE law splits its factors with n > 0 into light ones (n < 2, q < 2/3) and
heavy ones.  The light factors form one law from the power-sum recurrence
n p_n = sum_k S_k p_{n-k}, S_k = sum r q^k, q = n / (1 + n): M steps of
positive terms, exact to a few 1e-14 relative.  Only the heavy factors,
whose geometric tails are long, are convolved onto it as blocks.  Every BE
tail is cut by one rule, the Chernoff bound P(N >= M) <= <z^N> z^-M over
``_CHERNOFF_GRID``, at the least M where it meets ``_FACTOR_TAIL``: the light
law at its own M, each heavy block at its own (r = 1 at the exact geometric
tail q^M), and each convolution at the M of the whole law, which leaves every
entry below M exact.  The pmf is trimmed once, at ``_PMF_TAIL``, and
``tail_mass`` sums the bounds and that trim.  FD laws convolve one block per
factor; an FD block is evaluated on its whole support 0..r and ends at its
last entry that does not underflow to 0, and FD pmfs keep the rest of their
support.  All blocks of a law are built in one pass: those with r > 1 from
one flat log-pmf over a cached table of ``math.lgamma`` values.

The finite-volume statistics of a law are functions of (law, volume, beta),
the same for both routes: the interval passes ``CountingMatrix.law`` and its
length, the box ``ModeLattice.law(lam)`` and ell^d.  They are the tilt
ceiling ``lambda_max``, the per-volume log generating function, the scaled
central-limit cumulants, the tilted moments, the exponential-Chebyshev bound
(the law's rate function, solved by ``rate``) and the integer-window
log-probability of an exact pmf.

``FactorLaw.pmf`` is memoized (``functools.lru_cache``, 32 entries) on the
law's content (``FactorLaw._key``), so the interval and box laws each build
once however often a law object is made anew, and ``chebyshev_bound``'s law
contexts are memoized on the same key.  ``sample_NV``'s group laws bypass the
pmf memo (``modes``).  The cached pmfs are read-only; the largest of the
benchmark's ``box`` workload has 903 entries, while a direct ``pmf()`` of the
BE ell = 60 box at the Kac tilt has 1.5 M, 12 MB for one entry.  The
``_PMF_BUDGET`` check runs on every call, outside the memo.  Code that
patches a module constant of the build (``_PMF_TAIL``, ``_FACTOR_TAIL``,
``_LIGHT``, ``_CHERNOFF_GRID``, ``_RESCALE``) or spies on its route must call
``_exact_pmf.cache_clear()`` before and after, and
``modes._sampler_table.cache_clear()`` too when it samples.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import rate
from .errors import AccuracyError, DomainError
from .thermo import BE, FD

__all__ = [
    "FactorLaw",
    "window_log_prob",
    "lambda_max",
    "log_generating_function",
    "clt_cumulants",
    "tilted_moments",
    "chebyshev_bound",
]

# tail mass stays well under the budget; the headroom keeps the
# zeta-transform identity sharp, since dropped mass is amplified by zeta^n
_PMF_TAIL = 1e-17
_FACTOR_TAIL = 1e-21
_PMF_BUDGET = 1e-14
_LIGHT = 2.0  # BE factors with 0 < n < _LIGHT (q < 2/3) form the power-sum law
# Chernoff tilts u = (z - 1) n_max in (0, 1): even steps, then closing in on the pole at 1
_CHERNOFF_GRID = np.concatenate([np.arange(1, 32) / 32, 1.0 - 2.0 ** -np.arange(6, 30)])
_RESCALE = 2.0 ** 600
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

    def log_pgf(self, zeta_minus_one):
        """log <zeta^N> = -sigma sum r log1p(-sigma (zeta-1) n); inf (BE) once (zeta-1) n >= 1.

        A float gives a float; an array of zeta - 1 gives an array of the same shape.
        """
        x = -self.sigma * np.asarray(zeta_minus_one, dtype=float)[..., None] * self.occupations
        diverged = self.sigma == BE and x.min(axis=-1) <= -1.0
        with np.errstate(divide="ignore", invalid="ignore"):  # diverged entries are set to inf
            x = np.log1p(x, out=x)  # in place: a grid of tilts holds one tilts-by-factors array
            x *= self.multiplicities
            values = np.where(diverged, math.inf, -self.sigma * np.sum(x, axis=-1))
        return float(values) if values.ndim == 0 else values

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

    def _key(self) -> tuple:
        """The law's content as a memo key: sigma, the bytes of both arrays, the counts' dtype."""
        occupations = np.ascontiguousarray(self.occupations, dtype=float)
        multiplicities = np.ascontiguousarray(self.multiplicities)
        return self.sigma, occupations.tobytes(), multiplicities.tobytes(), multiplicities.dtype.str

    def pmf(self) -> tuple[np.ndarray, float]:
        """Exact pmf of N and its ``tail_mass``; a tail above 1e-14 raises ``AccuracyError``.

        The route is the module docstring's: every entry is exact to the rounding of
        the power-sum recurrence (a few 1e-14) and of the blocks' log-gammas (about
        1e-11 at r + k = 4000).  Memoized on ``_key``: equal laws built apart share one
        read-only pmf.  The budget check runs on every call, hit or miss.
        """
        pmf, tail = _exact_pmf(*self._key())
        if tail > _PMF_BUDGET:
            raise AccuracyError(f"pmf tail mass {tail:.2e} over {_PMF_BUDGET:.0e}", estimate=tail)
        return pmf, tail


@functools.lru_cache(maxsize=32)
def _exact_pmf(sigma: int, occupations: bytes, multiplicities: bytes,
               dtype: str) -> tuple[np.ndarray, float]:
    """``FactorLaw.pmf``'s read-only pmf and tail mass, from the law's bytes (no budget check)."""
    occupations = np.frombuffer(occupations)
    multiplicities = np.frombuffer(multiplicities, dtype=dtype)
    occupations = np.clip(occupations, 0.0, 1.0 if sigma == FD else np.inf)
    pmf, tail = np.array([1.0]), 0.0
    if sigma == FD:
        for block in _blocks(occupations, multiplicities, FD)[0]:
            if block is not None:
                pmf = _trim(np.convolve(pmf, block), 0.0)[0]
        pmf.setflags(write=False)
        return pmf, tail
    positive = occupations > 0.0
    n, r = occupations[positive], multiplicities[positive]
    light = n < _LIGHT
    if light.any():
        law = FactorLaw(n[light], r[light], BE)
        support, tail = _support(law)
        pmf = _power_sums(law, support)
    if not light.all():
        support, bound = _support(FactorLaw(n, r, BE))
        blocks, dropped = _blocks(n[~light], r[~light], BE)
        pmf = pmf * _RESCALE  # exact; keeps products of tiny entries out of the slow subnormals
        for block in blocks:
            pmf = np.convolve(pmf, block)[:support]
        pmf /= _RESCALE
        tail += bound + sum(dropped)
    pmf, trimmed = _trim(pmf, _PMF_TAIL)
    pmf.setflags(write=False)
    return pmf, tail + trimmed


def _trim(pmf: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """``pmf`` without its longest tail of mass at most ``floor`` (one entry kept), and that mass."""
    if pmf[-1] > floor:  # no trailing mass is at or below the floor
        return pmf, 0.0
    rest = np.cumsum(pmf[::-1])[::-1]
    cut = int(np.searchsorted(-rest, -floor))  # first index whose tail is <= floor
    return pmf[: max(cut, 1)], float(rest[cut])


def _support(law: FactorLaw) -> tuple[int, float]:
    """The whole law's ``_chernoff`` support and bound, at z - 1 = ``_CHERNOFF_GRID`` / n_max."""
    zeta_minus_one = _CHERNOFF_GRID / law.occupations.max()
    support, log_bound = _chernoff(law.log_pgf(zeta_minus_one), np.log1p(zeta_minus_one))
    return int(support), math.exp(log_bound)


def _chernoff(log_pgf: np.ndarray, log_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row by row: the least M with a Chernoff bound log P(N >= M) <= log <z^N> - M log z at or
    below log ``_FACTOR_TAIL`` for some z of the row (each in (1, 1/q_max)), and that log bound."""
    support = np.ceil(np.min((log_pgf - math.log(_FACTOR_TAIL)) / log_z, axis=-1))
    return support.astype(np.int64), np.min(log_pgf - support[..., None] * log_z, axis=-1)


def _power_sums(law: FactorLaw, support: int) -> np.ndarray:
    """P(N = 0..support - 1) of a BE law with every n > 0, normalized over that range.

    n p_n = sum_{k=1..n} S_k p_{n-k} with S_k = sum r q^k: every term is positive, so
    nothing cancels.  A factor's terms r q^k below ``_FACTOR_TAIL`` q_max^k are left out
    of S_k (each S_k >= q_max^k, so it moves by under F 1e-21 relative).  The recurrence
    starts at p_0 = 1, not Prod (1 - q)^r, which underflows once sum r log(1 + n) > 745,
    and divides the entries so far by 2^600 whenever one passes 2^600 (exact above the
    subnormal range); the one normalization at the end sets the scale.
    """
    log_q, r = -np.log1p(1.0 / law.occupations), law.multiplicities
    with np.errstate(divide="ignore"):  # q = q_max: the factor's terms reach every k
        reach = (np.log(r) - math.log(_FACTOR_TAIL)) / (log_q.max() - log_q)
    order = np.argsort(-reach, kind="stable")
    log_q, r, reach = log_q[order], r[order], reach[order]
    # the terms of S_k lie contiguous, k = 1..support - 1, each summed pairwise by reduceat:
    # a sequential sum of F like terms would cost up to F eps relative
    counts = np.searchsorted(-reach, -np.arange(1, support), side="right")  # >= 1: q_max's
    starts = np.cumsum(counts) - counts
    f = np.arange(int(counts.sum())) - np.repeat(starts, counts)
    terms = r[f] * np.exp(np.repeat(np.arange(1.0, support), counts) * log_q[f])
    s = np.add.reduceat(terms, starts)[::-1].copy()  # s[-k] = S_k
    p, dot = np.zeros(support), np.dot
    p[0] = 1.0
    for j in range(1, support):
        p[j] = x = dot(s[-j:], p[:j]) / j
        if x > _RESCALE:
            p[: j + 1] /= _RESCALE
    return p / p.sum()


def _blocks(occupations: np.ndarray, multiplicities: np.ndarray, sigma: int) -> tuple[list, list]:
    """Every factor's pmf block and a bound on the mass it drops.

    FD: Binomial(r, n), ended at its last entry that does not underflow to 0, dropping
    nothing (``None`` for n = 0, a point mass at 0).  BE, every n > 0:
    NegativeBinomial(r, q = n / (1 + n)) on k < M, dropping P(X >= M) <= ``_FACTOR_TAIL``:
    the exact q^M for r = 1, else the factor's own ``_chernoff`` bound, one grid row per
    factor.  Blocks with r > 1 come from one flat log-pmf and one ``np.exp``, each rescaled
    to sum 1; the per-factor scalars (q, log q, log p0, the dropped bounds) are ``math``
    values.
    """
    # spec: (index, r, a, b, n) of each log-factorial block: a, b are log n, log(1 - n) (FD)
    # or log q, log p0 (BE)
    blocks, dropped, spec = [], [], []
    for n, r in zip(occupations.tolist(), multiplicities.tolist()):
        block, tail = None, 0.0
        if sigma == BE:
            q = n / (1.0 + n)
            if r == 1:  # P(X >= M) = q^M
                end = math.ceil(math.log(_FACTOR_TAIL) / math.log(q))
                block, tail = (1.0 - q) * q ** np.arange(end + 1), q ** (end + 1)
            else:
                spec.append((len(blocks), r, math.log(q), -r * math.log1p(n), n))
        elif n == 0.0:
            pass
        elif r == 1:
            block = [1.0 - n, n]
        elif n == 1.0:  # every mode occupied
            block = np.eye(1, r + 1, r)[0]
        else:
            spec.append((len(blocks), r, math.log(n), math.log1p(-n), n))
        blocks.append(block)
        dropped.append(tail)
    if not spec:
        return blocks, dropped
    ids, r, a, b, n = (np.array(column) for column in zip(*spec))
    if sigma == FD:  # the whole support 0..r; the underflowed tail is trimmed below
        lengths = r + 1
    else:  # a factor's tilts z - 1 = grid / n give log <z^X> = -r log(1 - grid)
        lengths, log_bounds = _chernoff(np.multiply.outer(-r, np.log1p(-_CHERNOFF_GRID)),
                                        np.log1p(_CHERNOFF_GRID / n[:, None]))
        for i, x in zip(ids.tolist(), log_bounds.tolist()):
            dropped[i] = math.exp(x)
    starts = np.cumsum(lengths) - lengths
    stops = starts + lengths
    k = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
    values = np.exp(_log_pmf(k, *(np.repeat(column, lengths) for column in (r, a, b)), sigma))
    if sigma == FD:
        nonzero = np.flatnonzero(values)  # each block's mode is far above underflow
        stops = nonzero[np.searchsorted(nonzero, stops) - 1] + 1
    for i, s, e in zip(ids.tolist(), starts.tolist(), stops.tolist()):
        block = values[s:e]
        blocks[i] = block / block.sum()  # log-gamma rounding, not the tail, moves the sum off 1
    return blocks, dropped


def _log_pmf(k, r, a, b, sigma):
    """log pmf(k) from the log-factorial table: Binomial(r, n) with a, b = log n, log(1 - n) (FD),
    NegativeBinomial(r, q) with a, b = log q, log p0 (BE)."""
    table = _log_factorials(int(np.max(k + r)))
    if sigma == FD:
        return table[r] - table[k] - table[r - k] + k * a + (r - k) * b
    return table[k + r - 1] - table[r - 1] - table[k] + b + k * a


def window_log_prob(pmf: np.ndarray, volume: float, beta: float, a: float, b: float) -> float:
    """(beta V)^{-1} log P(N in V [a, b]), or -inf, over ceil(a V - 1e-9)..floor(b V + 1e-9)."""
    if a > b:
        raise DomainError("interval requires a <= b")
    lo = max(0, int(math.ceil(a * volume - 1e-9)))
    hi = int(math.floor(b * volume + 1e-9))
    mass = float(np.sum(pmf[lo : hi + 1])) if hi >= lo else 0.0
    return math.log(mass) / (beta * volume) if mass > 0.0 else -math.inf


def lambda_max(law: FactorLaw, beta: float) -> float:
    """Largest tilt lam with a finite <e^{beta lam N}>.

    Infinite for FD.  For BE it is beta^{-1} log(1 + 1/n_max) with n_max the
    largest occupation: on the interval n_max = -kappa_min, and the ceiling
    decreases to -mu as the interval grows; in the box it is the ground mode's,
    and the ceiling is the tilt left before mu + lam reaches 0.  A law with no
    positive occupation returns inf with a warning.
    """
    if law.sigma == FD:
        return math.inf
    n_max = float(law.occupations.max())
    if n_max <= 0.0:
        warnings.warn("degenerate BE law: no positive occupation", stacklevel=2)
        return math.inf
    return math.log1p(1.0 / n_max) / beta


def log_generating_function(law: FactorLaw, volume: float, beta: float, lam: float) -> float:
    """V^{-1} log <e^{beta lam N}>; BE tilts at or beyond ``lambda_max`` give the ``inf`` sentinel."""
    if law.sigma == BE and lam >= lambda_max(law, beta):
        return math.inf
    return law.log_pgf(math.expm1(beta * lam)) / volume


def clt_cumulants(law: FactorLaw, volume: float) -> tuple:
    """Scaled cumulants C(k) = kappa_k(N) / V^{k/2}, k = 1..4, of the centred count.

    C(1) is exactly 0; C(2) converges to the compressibility beta^{-1} d rho / d mu
    (``thermo.translated_pressure`` at order 2, over beta); higher orders vanish in
    the limit.
    """
    _, k2, k3, k4 = law.cumulants()
    return 0.0, k2 / volume, k3 / volume ** 1.5, k4 / volume ** 2


def tilted_moments(law: FactorLaw, volume: float, beta: float, lam: float) -> tuple[float, float]:
    """Mean density and beta * variance / V under the tilt e^{beta lam N}, the law context's g', g''.

    The targets are rho(mu + lam) and (d rho / d mu)(mu + lam).
    """
    if law.sigma == BE and lam >= lambda_max(law, beta):
        raise DomainError("tilt at or beyond lambda_max")
    mean, beta_var = _law_context(*law._key(), volume, beta).derivatives(lam, (1, 2))
    return float(mean), float(beta_var)


def chebyshev_bound(law: FactorLaw, volume: float, beta: float, a: float) -> float:
    """Exponential-Chebyshev (Chernoff) bound on (beta V)^{-1} log P(N >= a V).

    inf over lam >= 0 of V^{-1} log <e^{beta lam N}> / beta - lam a, exact at every
    finite size: 0 for a at or below the mean density, else ``rate.rate_values``'s f.
    """
    if a * volume <= law.mean():
        return 0.0
    full = float(np.sum(law.multiplicities))
    if law.sigma == FD and a * volume >= full:
        # N <= sum r: P(N >= a V) is 0 above it, and at it prod n^r, the lam -> inf limit
        with np.errstate(divide="ignore"):
            log_p = float(np.sum(law.multiplicities * np.log(np.clip(law.occupations, 0.0, 1.0))))
        return log_p / (beta * volume) if a * volume == full else -math.inf
    return rate.rate_values((a,), _law_context(*law._key(), volume, beta))[0].f


@functools.lru_cache(maxsize=32)
def _law_context(sigma: int, occupations: bytes, multiplicities: bytes, dtype: str,
                 volume: float, beta: float) -> rate.RateContext:
    """``chebyshev_bound``'s law context, memoized on ``FactorLaw._key``: the factors sit at
    the levels beta^{-1} log(1/n + sigma) of the clipped occupations with mu = 0 (inf at
    n = 0, -inf at a full FD factor), so every rung up to 2^40 / beta stays finite."""
    law = FactorLaw(np.frombuffer(occupations), np.frombuffer(multiplicities, dtype=dtype), sigma)
    n = np.clip(law.occupations, 0.0, 1.0 if sigma == FD else np.inf)
    with np.errstate(divide="ignore"):
        levels = (np.log1p(1.0 / n) if sigma == BE else np.log1p(-n) - np.log(n)) / beta
    return rate.RateContext.of_law(law, volume, beta, levels, 0.0)
