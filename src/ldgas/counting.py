"""Counting statistics of particles in an interval of the infinite gas.

The number of particles in [0, L] is governed by the compression of the
occupation operator to the interval.  It commutes with the reflection
about the interval's centre, so it splits into even and odd blocks.  A
Gauss-Legendre Nystrom discretization of each, read from the gas's momentum
symbol (-sigma times the occupation ``ThermoState.occupation``) on
Gauss-Legendre wavevectors (Bornemann, Math. Comp. 79, 2010: exponentially
convergent for analytic kernels, certified here against a partner rule of 5/4
the nodes), gives two dense symmetric matrices whose eigenvalues kappa_i
determine the law of N: an independent sum of Bernoulli(kappa_i) (FD) or
geometric factors of mean |kappa_i| (BE), ``CountingMatrix.law``, with
generating function <zeta^N> = prod (1 + (zeta-1) kappa_i)^{-sigma}.  Its
exact pmf is ``counting_pmf``; the generating function, tilts, cumulants,
Chebyshev bounds and window probabilities are the ``factors`` statistics of
(``m.law``, ``m.volume``, beta), the same functions the box route calls.

A build takes the gas itself, a ``ThermoState`` and a ``DispersionRelation``;
no position-space kernel table (``kernel``) is sampled.  Desk scale fixes
d = 1: the dense eigensolve is the cost ceiling.

``build_counting_matrix`` is memoized (``functools.lru_cache``, 32 entries) on
the value-equal key (state, dispersion, length), so every experiment on the
same gas and interval reads one certified spectrum.  A cached matrix keeps no
n_r x n_r block, and its ``eigenvalues`` are read-only.  Code that patches a
module constant of the build must call ``build_counting_matrix.cache_clear()``
before and after.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dispersion import DispersionRelation
from .errors import AccuracyError, DomainError
from .factors import FactorLaw
from .thermo import FD, ThermoState, _gauss_legendre, _integrate

__all__ = [
    "CountingMatrix",
    "CountingDistribution",
    "build_counting_matrix",
    "trace_moments",
    "counting_pmf",
]

_SPECTRUM_TOL_FACTOR = 1e-8     # discretization-noise allowance, times ||K||
_DISCRETIZATION_BUDGET = 1e-10  # partner-rule eigenvalue estimate allowed, times ||K||
_R_MARGIN = 12                  # r-nodes per block beyond the band-limit count
_K_MARGIN = 24                  # k-nodes, halved, beyond the band-limit count
_PARTNER = 1.25                 # partner rule's node counts, times the certified rule's
_MAX_NODES = 1024               # largest accepted rule, r-nodes per block
_SYMBOL_FLOOR = 1e-20           # symbol magnitude below which wavevectors are dropped


@dataclass(frozen=True)
class CountingMatrix:
    """Nystrom discretization of the interval-compressed occupation operator.

    ``state`` and ``disp`` are the gas whose symbol it discretizes.
    ``nodes`` is the summed order of its even and odd parity blocks,
    ``eigenvalues`` their joint spectrum, sorted, and
    ``discretization_error`` the partner-rule estimate of the largest
    eigenvalue error.
    """

    state: ThermoState
    disp: DispersionRelation
    length: float
    nodes: int
    eigenvalues: np.ndarray = field(repr=False)
    discretization_error: float

    @property
    def volume(self) -> float:
        return self.length

    @property
    def spectral_bound(self) -> float:
        """Continuum spectrum edge: 1/(1 + 1/z) for FD, 1/(1 - 1/z) for BE."""
        z = self.state.fugacity
        if self.state.sigma == FD:
            return 1.0 / (1.0 + 1.0 / z)
        return 1.0 / (1.0 - 1.0 / z)

    @property
    def norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @cached_property
    def law(self) -> FactorLaw:
        """Factor law of the eigenvalues: occupations -sigma kappa_i, multiplicity 1.

        The occupations must respect the continuum spectrum containment,
        [0, |spectral_bound|] up to 1e-8 ||K||; otherwise ``AccuracyError``.
        """
        tol = _SPECTRUM_TOL_FACTOR * self.norm
        n = -self.state.sigma * self.eigenvalues
        if n.min() < -tol or n.max() > abs(self.spectral_bound) + tol:
            raise AccuracyError(
                "eigenvalues violate the continuum spectrum containment"
            )
        return FactorLaw(n, np.ones(n.size, dtype=np.int64), self.state.sigma)


def _parity_blocks(state, disp, k_max, n_k, radius, n_r, sign):
    """Even and odd blocks sign * B B^T of the Nystrom operator, with their spectra.

    On [-R, R] the kernel d(x - y) = (1/pi) int_0^inf s(k) cos(k(x - y)) dk
    splits by the reflection into d(x - y) +- d(x + y) on [0, R], i.e.
    (2/pi) int s(k) cos(kx) cos(ky) dk and the same with sin.  Gauss-Legendre
    rules of n_r nodes on [0, R] and n_k nodes on [0, k_max] give
    B[i, q] = sqrt(w_i) cos(k_q x_i) sqrt((2/pi) omega_q |s(k_q)|) (sin for odd).
    """
    t, w = _gauss_legendre(n_r)
    x, w = 0.5 * radius * (t + 1.0), 0.5 * radius * w
    t, omega = _gauss_legendre(n_k)
    k, omega = 0.5 * k_max * (t + 1.0), 0.5 * k_max * omega
    s = state.occupation(k, disp)  # |symbol|
    scale = np.sqrt(w)[:, None] * np.sqrt((2.0 / math.pi) * omega * s)
    phase = np.outer(x, k)
    out = []
    for b in (np.cos(phase) * scale, np.sin(phase) * scale):
        K = b @ b.T
        K *= sign
        out.append((K, np.linalg.eigvalsh(K)))
    return out


def _spectral_distance(coarse, fine, sign):
    """Largest gap between two one-signed spectra sorted outward from zero.

    The shorter spectrum is padded with zeros, the limit of its missing
    eigenvalues.
    """
    a = np.sort(sign * coarse)[::-1]
    b = np.sort(sign * fine)[::-1]
    return float(max(np.max(np.abs(a - b[: a.size])), np.max(np.abs(b[a.size:]), initial=0.0)))


@functools.lru_cache(maxsize=32)
def build_counting_matrix(
    state: ThermoState, disp: DispersionRelation, length: float
) -> CountingMatrix:
    """Nystrom parity blocks of the gas's occupation operator on an interval of length L.

    The gas enters only through its momentum symbol, -sigma times the
    occupation ``state.occupation(k, disp)``.  The interval is centred at 0
    with R = L/2 and split into even and odd blocks (``_parity_blocks``):
    n_r = ceil(k_max R / pi) + 12 Gauss-Legendre nodes on [0, R] and
    n_k = 2 (ceil(k_max R / pi) + 24) on [0, k_max], k_max where the symbol
    stays below 1e-20 (``_band_limit``).  A partner rule of ceil(5/4 n_r)
    and ceil(5/4 n_k) nodes must move no sorted eigenvalue of either block
    by more than ``_DISCRETIZATION_BUDGET`` ||K||; otherwise both node counts
    double, with a new partner, while the rule fits ``_MAX_NODES`` r-nodes
    per block, past which ``AccuracyError`` carries the last estimate.  The
    eigenvalues must also respect the continuum spectrum containment
    (``CountingMatrix.law``).  Memoized on (state, disp, length): equal gases
    and lengths share one matrix, whose ``eigenvalues`` are read-only; a build
    that raises is not cached.
    """
    if disp.dimension != 1:
        raise DomainError("counting matrices are built at desk scale, d = 1 only")
    if not length > 0:
        raise DomainError("interval length must be positive")

    sign = 1.0 if state.sigma == FD else -1.0
    radius, k_max = 0.5 * length, _band_limit(state, disp)
    band = math.ceil(k_max * radius / math.pi)
    n_r, n_k = band + _R_MARGIN, 2 * (band + _K_MARGIN)
    error = math.inf
    while n_r <= _MAX_NODES:
        coarse = _parity_blocks(state, disp, k_max, n_k, radius, n_r, sign)
        partner = _parity_blocks(
            state, disp, k_max, math.ceil(_PARTNER * n_k), radius, math.ceil(_PARTNER * n_r), sign
        )
        error = max(_spectral_distance(c[1], p[1], sign) for c, p in zip(coarse, partner))
        norm = max(float(np.max(np.abs(c[1]))) for c in coarse)
        if error <= _DISCRETIZATION_BUDGET * norm:
            break
        n_r, n_k = 2 * n_r, 2 * n_k
    else:
        raise AccuracyError(
            f"Nystrom eigenvalues not certified within {_MAX_NODES} nodes per block "
            f"(partner-rule estimate {error:.2e}, budget {_DISCRETIZATION_BUDGET:.0e} ||K||)",
            estimate=error,
        )

    eigenvalues = np.sort(np.concatenate([eig for _, eig in coarse]))
    eigenvalues.setflags(write=False)
    m = CountingMatrix(
        state=state, disp=disp, length=float(length), nodes=2 * n_r,
        eigenvalues=eigenvalues, discretization_error=error,
    )
    m.law  # checks the spectrum containment
    return m


class MomentComparison(NamedTuple):
    order: int
    empirical: float
    target: float
    rel_gap: float


def trace_moments(m: CountingMatrix, m_max: int) -> list[MomentComparison]:
    """Normalized traces |I|^{-1} tr K^m against their infinite-volume targets.

    The target of order m is (2 pi)^{-1} int (symbol)^m dk over |k| up to
    ``_band_limit`` (d = 1 quadrature, certified to 1e-10 relative); gaps
    close like the surface-to-volume ratio.
    """
    if not 1 <= m_max <= 8:
        raise DomainError("m_max must lie in 1..8")
    st, disp = m.state, m.disp
    cutoff = _band_limit(st, disp)
    out = []
    for order in range(1, m_max + 1):
        emp = float(np.sum(m.eigenvalues ** order)) / m.volume
        tgt = _integrate(lambda k: (-st.sigma * st.occupation(k, disp)) ** order, 0.0, cutoff)[0] / math.pi
        gap = abs(emp - tgt) / max(abs(tgt), 1e-300)
        out.append(MomentComparison(order, emp, tgt, gap))
    return out


@functools.lru_cache(maxsize=32)
def _band_limit(state: ThermoState, disp: DispersionRelation) -> float:
    """k beyond which the occupation stays below ``_SYMBOL_FLOOR``.

    The first power of two k where it is below the floor is the cutoff; the
    band limit is the first of its 1024 multiples of cutoff/1024 past the last
    one at or above the floor.  Cached: every size of a sweep reads the same
    (state, dispersion).
    """
    cutoff = 1.0
    for _ in range(60):
        if state.occupation(cutoff, disp) < _SYMBOL_FLOOR:
            break
        cutoff *= 2.0
    k = cutoff * np.arange(1, 1025) / 1024
    above = np.flatnonzero(state.occupation(k, disp) >= _SYMBOL_FLOOR)
    return float(k[min(above[-1] + 1, k.size - 1)]) if above.size else float(k[0])


@dataclass(frozen=True)
class CountingDistribution:
    """Exact law of the interval particle number.

    ``pmf[n]`` is P(N = n) for n = 0..len-1 (FD support is full; BE
    support is truncated at tail mass ``tail_mass`` <= 1e-14), read-only:
    it is the entry of ``FactorLaw.pmf``'s memo for the eigenvalues.
    Cumulants come from the per-factor closed forms, not from the pmf.
    """

    pmf: np.ndarray = field(repr=False)
    mean: float = 0.0
    variance: float = 0.0
    cumulants: tuple = (0.0, 0.0, 0.0, 0.0)
    tail_mass: float = 0.0


def counting_pmf(m: CountingMatrix) -> CountingDistribution:
    """Exact pmf of N from the eigenvalues' ``FactorLaw`` pmf, and its closed-form cumulants."""
    pmf, tail = m.law.pmf()
    k = m.law.cumulants()
    return CountingDistribution(
        pmf=pmf,
        mean=k[0],
        variance=k[1],
        cumulants=k,
        tail_mass=tail,
    )
