"""Counting statistics of particles in an interval of the infinite gas.

The number of particles in [0, L] is governed by the compression of the
occupation operator to the interval.  A Gauss-Legendre Nystrom
discretization (Bornemann, Math. Comp. 79, 2010: exponentially convergent
for analytic kernels, certified here by node doubling) gives a dense
symmetric matrix whose eigenvalues kappa_i determine everything:

  * the generating function  <zeta^N> = prod (1 + (zeta-1) kappa_i)^{-sigma},
  * the exact law of N as an independent sum of Bernoulli(kappa_i) (FD)
    or geometric factors of mean |kappa_i| (BE), computed by ``factors``,
  * exponential tilts, cumulants and large-deviation probabilities.

Desk scale fixes d = 1: the dense eigensolve is the cost ceiling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError
from .export import write_table
from .factors import FactorLaw, window_log_prob
from .kernel import KernelTable
from .thermo import BE, FD, _gauss_legendre, _integrate, translated_pressure

__all__ = [
    "CountingMatrix",
    "CountingDistribution",
    "build_counting_matrix",
    "log_generating_function",
    "lambda_max",
    "trace_moments",
    "counting_pmf",
    "ldp_log_prob",
    "cumulants_clt",
    "tilted_moments",
    "chebyshev_bound",
]

_SPECTRUM_TOL_FACTOR = 1e-8     # discretization-noise allowance, times ||K||
_DISCRETIZATION_BUDGET = 1e-10  # node-doubling eigenvalue estimate allowed, times ||K||
_NODE_MARGIN = 24               # Gauss-Legendre nodes beyond the band-limit count
_MAX_NODES = 4096               # largest doubled-node check rule (a 134 MB matrix)
_SYMBOL_FLOOR = 1e-20           # symbol magnitude below which wavevectors are dropped


@dataclass(frozen=True)
class CountingMatrix:
    """Nystrom discretization of the interval-compressed occupation operator.

    ``nodes`` is the number of Gauss-Legendre nodes (the matrix order) and
    ``discretization_error`` the node-doubling estimate of the largest
    eigenvalue error.
    """

    kernel: KernelTable
    length: float
    nodes: int
    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    discretization_error: float

    @property
    def statistics(self) -> int:
        return self.kernel.state.sigma

    @property
    def beta(self) -> float:
        return self.kernel.state.beta

    @property
    def volume(self) -> float:
        return self.length

    @property
    def fugacity(self) -> float:
        return self.kernel.state.fugacity

    @property
    def spectral_bound(self) -> float:
        """Continuum spectrum edge: 1/(1 + 1/z) for FD, 1/(1 - 1/z) for BE."""
        z = self.fugacity
        if self.statistics == FD:
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
        n = -self.statistics * self.eigenvalues
        if n.min() < -tol or n.max() > abs(self.spectral_bound) + tol:
            raise AccuracyError(
                "eigenvalues violate the continuum spectrum containment; "
                "check the kernel table's grid spacing and extent"
            )
        return FactorLaw(n, np.ones(n.size, dtype=np.int64), self.statistics)

    def spectrum_to_csv(self, path) -> None:
        """Write the sorted eigenvalues, one per row."""
        write_table(path, ["# counting-matrix spectrum: index, kappa"], enumerate(self.eigenvalues))


def _cosine_series(kernel: KernelTable, dk: float) -> np.ndarray:
    """Coefficients of the table's own Fourier series d(x) = sum_j c_j cos(j dk x).

    The FFT table has period 2 X (X the extent), so dk = pi / X with
    c_0 = symbol(0) / 2X and c_j = symbol(j dk) / X; the series is cut
    where the symbol drops below ``_SYMBOL_FLOOR``.
    """
    nyquist = kernel.x.size // 2
    k = dk * np.arange(min(math.ceil(_symbol_cutoff(kernel.symbol) / dk), nyquist - 1) + 1)
    sym = kernel.symbol(k)
    if abs(sym[-1]) >= _SYMBOL_FLOOR:
        raise AccuracyError(
            "the kernel grid does not resolve the symbol; use a smaller h",
            estimate=float(abs(sym[-1])),
        )
    c = sym[: np.flatnonzero(np.abs(sym) >= _SYMBOL_FLOOR)[-1] + 1] / kernel.extent
    c[0] *= 0.5
    return c


def _nystrom(dk, c, x, w, sign):
    """K[i, j] = sqrt(w_i w_j) d(x_i - x_j) on the given nodes, and its spectrum.

    With a one-signed symbol, K = sign * B B^T where row i of B holds
    sqrt(w_i |c_j|) e^{i j dk x_i} as interleaved (cos, sin) pairs.  The
    phases come from angle addition over two levels of j, one complex
    exponential per block instead of one per entry.
    """
    step = math.isqrt(c.size) + 1
    low = np.exp(1j * dk * np.outer(x, np.arange(step)))
    high = np.exp(1j * dk * step * np.outer(x, np.arange(-(-c.size // step))))
    phases = (high[:, :, None] * low[:, None, :]).reshape(x.size, -1)[:, : c.size]
    b = (phases * (np.sqrt(w)[:, None] * np.sqrt(np.abs(c)))).view(float)
    K = b @ b.T
    K *= sign
    return K, np.linalg.eigvalsh(K)


def _spectral_distance(coarse, fine, sign):
    """Largest gap between two one-signed spectra sorted outward from zero.

    The shorter spectrum is padded with zeros, the limit of its missing
    eigenvalues.
    """
    a = np.sort(sign * coarse)[::-1]
    b = np.sort(sign * fine)[::-1]
    return float(max(np.max(np.abs(a - b[: a.size])), np.max(np.abs(b[a.size:]), initial=0.0)))


def build_counting_matrix(kernel: KernelTable, length: float) -> CountingMatrix:
    """Gauss-Legendre Nystrom matrix of the occupation operator on [0, L], diagonalized.

    The kernel comes from the table's own cosine series, so it is exact at
    any node offset; L must lie within the kernel extent, which keeps the
    series' 2X period alias-free.  The node count m starts at the band
    limit, ceil(L k_max / pi) plus ``_NODE_MARGIN``, with k_max where the
    symbol drops below 1e-20.  Doubling the nodes, as the same rule on each
    half of the interval, must move no sorted eigenvalue by more than
    ``_DISCRETIZATION_BUDGET`` ||K||; otherwise m doubles while the 2m-node
    check fits in ``_MAX_NODES``, past which ``AccuracyError`` carries the
    last estimate.  The eigenvalues must also respect the continuum
    spectrum containment (``CountingMatrix.law``).
    """
    if kernel.dimension != 1:
        raise DomainError("counting matrices are built at desk scale, d = 1 only")
    if not length > 0:
        raise DomainError("interval length must be positive")
    if length > kernel.extent:
        raise DomainError("interval exceeds the kernel extent guard")

    sign = 1.0 if kernel.state.sigma == FD else -1.0
    dk = math.pi / kernel.extent
    c = _cosine_series(kernel, dk)
    nodes = math.ceil(length * dk * (c.size - 1) / math.pi) + _NODE_MARGIN
    error = math.inf
    while 2 * nodes <= _MAX_NODES:
        t, w = _gauss_legendre(nodes)
        # nodes centred on the interval (d depends on offsets only)
        x, w = 0.5 * length * t, 0.5 * length * w
        K, eig = _nystrom(dk, c, x, w, sign)
        halves = np.concatenate([0.5 * x - 0.25 * length, 0.5 * x + 0.25 * length])
        fine = _nystrom(dk, c, halves, np.concatenate([0.5 * w, 0.5 * w]), sign)[1]
        error = _spectral_distance(eig, fine, sign)
        budget = _DISCRETIZATION_BUDGET * float(np.max(np.abs(eig)))
        if error <= budget:
            break
        nodes *= 2
    else:
        raise AccuracyError(
            f"Nystrom eigenvalues not certified within {_MAX_NODES} nodes "
            f"(node-doubling estimate {error:.2e}, budget {_DISCRETIZATION_BUDGET:.0e} ||K||)",
            estimate=error,
        )

    m = CountingMatrix(
        kernel=kernel, length=float(length), nodes=nodes, matrix=K, eigenvalues=eig,
        discretization_error=error,
    )
    m.law  # checks the spectrum containment
    return m


def lambda_max(m: CountingMatrix) -> float:
    """Largest tilt with a finite generating function.

    Infinite for FD.  For BE it is beta^{-1} log(1 - 1/kappa_min) with
    kappa_min the most negative eigenvalue, decreasing to -mu as the
    interval grows.  A degenerate spectrum (kappa_min >= 0) returns inf
    with a warning.
    """
    if m.statistics == FD:
        return math.inf
    kappa_min = float(m.eigenvalues.min())
    if kappa_min >= 0.0:
        warnings.warn("degenerate BE spectrum: no negative eigenvalue", stacklevel=2)
        return math.inf
    return math.log1p(-1.0 / kappa_min) / m.beta


def log_generating_function(m: CountingMatrix, lam: float) -> float:
    """(1/|I|) log <e^{beta lam N}>, from the eigenvalue product.

    BE tilts at or beyond ``lambda_max`` return the ``inf`` sentinel.
    """
    if m.statistics == BE and lam >= lambda_max(m):
        return math.inf
    return m.law.log_pgf(math.expm1(m.beta * lam)) / m.volume


class MomentComparison(NamedTuple):
    order: int
    empirical: float
    target: float
    rel_gap: float


def trace_moments(m: CountingMatrix, m_max: int) -> list[MomentComparison]:
    """Normalized traces |I|^{-1} tr K^m against their infinite-volume targets.

    The target of order m is (2 pi)^{-1} int (symbol)^m dk (d = 1 radial
    quadrature, certified to 1e-10 relative); gaps close like the
    surface-to-volume ratio.
    """
    if not 1 <= m_max <= 8:
        raise DomainError("m_max must lie in 1..8")
    sym = m.kernel.symbol
    cutoff = _symbol_cutoff(sym)
    out = []
    for order in range(1, m_max + 1):
        emp = float(np.sum(m.eigenvalues ** order)) / m.volume
        tgt = _integrate(lambda k: sym(k) ** order, 0.0, cutoff)[0] / math.pi
        gap = abs(emp - tgt) / max(abs(tgt), 1e-300)
        out.append(MomentComparison(order, emp, tgt, gap))
    return out


def _symbol_cutoff(sym) -> float:
    """Power-of-two k beyond which the symbol is below ``_SYMBOL_FLOOR``."""
    k = 1.0
    for _ in range(60):
        if abs(sym(k)) < _SYMBOL_FLOOR:
            return k
        k *= 2.0
    return k


@dataclass(frozen=True)
class CountingDistribution:
    """Exact law of the interval particle number.

    ``pmf[n]`` is P(N = n) for n = 0..len-1 (FD support is full; BE
    support is truncated at tail mass ``tail_mass`` <= 1e-14).
    Cumulants come from the per-factor closed forms, not from the pmf.
    """

    pmf: np.ndarray = field(repr=False)
    mean: float = 0.0
    variance: float = 0.0
    cumulants: tuple = (0.0, 0.0, 0.0, 0.0)
    tail_mass: float = 0.0
    volume: float = 1.0
    beta: float = 1.0

    def pgf(self, zeta: float) -> float:
        """Probability generating function sum_n pmf[n] zeta^n."""
        return float(np.polynomial.polynomial.polyval(zeta, self.pmf))

    def to_csv(self, path) -> None:
        """Write (n, P(N = n)) rows."""
        write_table(path, ["# particle-number law: n, probability"], enumerate(self.pmf))


def counting_pmf(m: CountingMatrix) -> CountingDistribution:
    """Exact pmf of N by sequential convolution of per-eigenvalue factors."""
    pmf, tail = m.law.pmf()
    k = m.law.cumulants()
    return CountingDistribution(
        pmf=pmf,
        mean=k[0],
        variance=k[1],
        cumulants=k,
        tail_mass=tail,
        volume=m.volume,
        beta=m.beta,
    )


def ldp_log_prob(
    m: CountingMatrix,
    a: float,
    b: float,
    dist: CountingDistribution | None = None,
) -> float:
    """(beta |I|)^{-1} log P(N in |I| [a, b]) from the exact pmf (``factors.window_log_prob``)."""
    if dist is None:
        dist = counting_pmf(m)
    return window_log_prob(dist.pmf, dist.volume, dist.beta, a, b)


class CltReport(NamedTuple):
    """Cumulants of (N - <N>) / sqrt(|I|) with the Gaussian-limit targets."""

    values: tuple          # C(1)..C(4)
    variance_target: float # beta^{-1} d rho / d mu, the k = 2 limit


def cumulants_clt(
    m: CountingMatrix,
    dist: CountingDistribution | None = None,
    variance_target: float | None = None,
) -> CltReport:
    """Scaled cumulants C(k) = kappa_k(N) / |I|^{k/2}, k = 1..4.

    C(1) is exactly 0 (centered variable); C(2) converges to the
    compressibility beta^{-1} d rho / d mu; higher orders vanish in the
    limit.  A sweep over interval sizes passes that limit as
    ``variance_target`` so it is computed once, not once per matrix.
    """
    _, k2, k3, k4 = m.law.cumulants() if dist is None else dist.cumulants
    vol = m.volume
    if variance_target is None:
        variance_target = translated_pressure(0.0, m.kernel.state, m.kernel.disp, order=2) / m.beta
    return CltReport(
        values=(0.0, k2 / vol, k3 / vol ** 1.5, k4 / vol ** 2),
        variance_target=variance_target,
    )


def tilted_moments(m: CountingMatrix, lam: float) -> tuple[float, float]:
    """Mean density and beta * variance / |I| under the exponential tilt.

    The targets are rho(mu + lam) and (d rho / d mu)(mu + lam).
    """
    if m.statistics == BE and lam >= lambda_max(m):
        raise DomainError("tilt at or beyond lambda_max")
    mean, var = m.law.tilted(math.exp(m.beta * lam)).cumulants()[:2]
    return mean / m.volume, m.beta * var / m.volume


def chebyshev_bound(m: CountingMatrix, a: float, lam_grid=None) -> float:
    """Exponential-Chebyshev upper bound on (beta|I|)^{-1} log P(N >= a|I|).

    Minimizes phi(lam)/beta - lam a over a grid of admissible tilts; the
    bound holds exactly at every finite size.
    """
    if lam_grid is None:
        top = lambda_max(m)
        hi = 4.0 / m.beta if math.isinf(top) else top * (1.0 - 1e-6)
        lam_grid = np.linspace(0.0, hi, 81)[1:]
    vals = [log_generating_function(m, float(l)) / m.beta - float(l) * a for l in lam_grid]
    return float(min(vals))
