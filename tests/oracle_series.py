"""Independent oracles for the tests: series summation and high-precision
quadrature via mpmath.  Nothing here touches the package's own quadrature
or FFT paths.

Frozen reference values (computed with mpmath at 30 digits):

    eta(3/2)/(2 sqrt(pi))   = 0.21584399058810687   FD d=1 beta*p at mu=0, eps=k^2
    eta(1/2)/(2 sqrt(pi))   = 0.17063875686032618   FD d=1 rho at mu=0
    eta(-1/2)/(2 sqrt(pi))  = 0.10722558796537778   FD d=1 d(rho)/d(mu) at mu=0
    zeta(3/2)/(2 pi)^{3/2}  = 0.16586920931302221   BE d=3 rho_c, eps=k^2/2
    zeta(5/2)/(2 pi)^{3/2}  = 0.085175903522313195  BE d=3 beta*p at mu=0-
    Li_{3/2}(e^-1)/(2 pi)^{3/2} = 0.027203260022080873  BE d=3 rho at mu=-1
    Z_3(1)                  = -8.91363291758515127  cubic-lattice Epstein zeta,
                                                    see epstein_zeta3_at_1
    2 |Z_3(1)| / (4 pi^2)   = 0.45156991888151604   box_normal_deficit(1, 1)

``negative_binomial_law`` convolves negative-binomial factors in mpmath from
exact integer binomials.

``uniform_nystrom_log_det`` is numpy only: its own FFT kernel, a uniform
Toeplitz Nystrom matrix and Richardson extrapolation in the grid spacing.
"""

import math

import mpmath as mp
import numpy as np

FD_P_D1_MU0 = 0.21584399058810687
FD_RHO_D1_MU0 = 0.17063875686032618
FD_DRHO_D1_MU0 = 0.10722558796537778
BE_RHOC_D3 = 0.16586920931302221
BE_P_D3_MU0 = 0.085175903522313195
BE_RHO_D3_MU1 = 0.027203260022080873
Z3_AT_1 = -8.91363291758515127


def polylog_series(s, z, sigma, tol=1e-16, max_terms=2_000_000):
    """sum_{j>=1} sigma^{j+1} z^j / j^s  (plain summation; needs z < 1 or FD)."""
    total = 0.0
    for j in range(1, max_terms + 1):
        term = sigma ** (j + 1) * z ** j / j ** s
        total += term
        if abs(term) < tol * max(abs(total), 1e-300) and j > 8:
            return total
    raise RuntimeError("series did not converge")


def fd_pressure_d1(beta, mu):
    """beta*p for FD, d=1, eps=k^2: alternating series, valid for mu <= 0.

    At z = 1 the alternating series is summed by its analytic continuation
    (the Dirichlet eta function)."""
    if mu > 0:
        raise ValueError("series oracle valid for mu <= 0")
    z = math.exp(beta * mu)
    if z == 1.0:
        return float(mp.altzeta(1.5)) / (2.0 * math.sqrt(math.pi * beta))
    return polylog_series(1.5, z, -1) / (2.0 * math.sqrt(math.pi * beta))


def fd_density_d1(beta, mu):
    if mu > 0:
        raise ValueError("series oracle valid for mu <= 0")
    z = math.exp(beta * mu)
    if z == 1.0:
        return float(mp.altzeta(0.5)) / (2.0 * math.sqrt(math.pi * beta))
    return polylog_series(0.5, z, -1) / (2.0 * math.sqrt(math.pi * beta))


def fd_susceptibility_d1(beta, mu):
    """d(rho)/d(mu) for FD, d=1, eps=k^2 (eta of negative order at z = 1)."""
    z = math.exp(beta * mu)
    if z == 1.0:
        return float(mp.altzeta(-0.5)) * math.sqrt(beta) / (2.0 * math.sqrt(math.pi))
    return polylog_series(-0.5, z, -1) * math.sqrt(beta) / (2.0 * math.sqrt(math.pi))


def be_pressure_d3(beta, mu, mass=1.0):
    """beta*p for BE, d=3, eps=k^2/(2m): polylog series over the fugacity."""
    z = math.exp(beta * mu)
    lam3 = (2.0 * math.pi * beta / mass) ** 1.5
    if z == 1.0:
        return float(mp.zeta(2.5)) / lam3
    return polylog_series(2.5, z, +1) / lam3


def be_density_d3(beta, mu, mass=1.0):
    z = math.exp(beta * mu)
    lam3 = (2.0 * math.pi * beta / mass) ** 1.5
    if z == 1.0:
        return float(mp.zeta(1.5)) / lam3
    return polylog_series(1.5, z, +1) / lam3


def epstein_zeta3_at_1(digits=30):
    """Z_3(1) = sum' |n|^{-2} over n in Z^3, continued analytically.

    Jacobi-theta split of pi^{-s} Gamma(s) Z_3(s) = int_0^inf t^{s-1}
    (theta(t)^3 - 1) dt, theta(t) = sum_n exp(-pi n^2 t), folded at t = 1 by
    theta(1/t) = sqrt(t) theta(t).  At s = 1:

        Z_3(1) = pi [int_1^inf (theta(t)^3 - 1)(1 + t^{-1/2}) dt - 3].
    """
    with mp.workdps(digits):
        f = lambda t: (mp.jtheta(3, 0, mp.exp(-mp.pi * t)) ** 3 - 1) * (1 + 1 / mp.sqrt(t))
        return mp.pi * (mp.quad(f, [1, mp.inf]) - 3)


def box_normal_deficit(beta, mass=1.0):
    """C in rho_c - rho_V^n ~ C / ell: BE d=3, eps=k^2/(2m), periodic box of side ell.

    With the ground mode condensed (mu -> 0-), the normal density is
    ell^{-3} sum_{k != 0} 1/(exp(beta eps_k) - 1).  To leading order,
    rho_V^n - rho_c is ell^{-3} times the continued lattice sum of the
    small-k term 2m/(beta k^2) over k = 2 pi n / ell, i.e.
    2m Z_3(1) / (4 pi^2 beta ell) < 0.
    """
    return 2.0 * mass * abs(Z3_AT_1) / (4.0 * math.pi ** 2 * beta)


def mp_pressure(beta, mu, sigma, eps, dimension, digits=25):
    """High-precision radial pressure quadrature, independent of scipy.

    ``eps`` maps an mpmath scalar |k| to the energy.
    """
    with mp.workdps(digits):
        d = dimension
        surf = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        pref = surf / (beta * (2 * mp.pi) ** d)

        def f(k):
            w = beta * (eps(k) - mu)
            if sigma == 1:  # 1 - e^{-w} by expm1: exact down to w -> 0 at mu = 0
                return -k ** (d - 1) * mp.log(-mp.expm1(-w))
            return k ** (d - 1) * mp.log(1 + mp.e ** (-w))

        val = mp.quad(f, [0, 1, 5, 12, 40])
        return float(pref * val)


def mp_density(beta, mu, sigma, eps, dimension, digits=25):
    with mp.workdps(digits):
        d = dimension
        surf = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        pref = surf / (2 * mp.pi) ** d

        def f(k):
            w = beta * (eps(k) - mu)
            return k ** (d - 1) / (mp.expm1(w) if sigma == 1 else mp.e ** w + 1)

        val = mp.quad(f, [0, 1, 5, 12, 40])
        return float(pref * val)


def uniform_nystrom_log_det(symbol, length, t, extent=160.0):
    """(1/L) log det(I + (e^t - 1) K) on [0, L], extrapolated to zero spacing.

    ``symbol`` maps an array of |k| to the momentum symbol.  For h = 0.05
    and 0.025 the kernel d(jh) is this function's own inverse real FFT of
    the symbol over the period 2 * extent, and K[i, j] = h d((i - j) h) for
    i, j < L/h: a midpoint rule, whose error is even in h.  Richardson's
    (4 f(h/2) - f(h)) / 3 removes the h^2 term.
    """
    values = []
    for h in (0.05, 0.025):
        n = 2 * round(extent / h)
        size = round(length / h)
        k = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
        d = np.fft.irfft(symbol(k), n)[:size] / h
        idx = np.arange(size)
        K = h * d[np.abs(idx[:, None] - idx[None, :])]
        sign, logdet = np.linalg.slogdet(np.eye(size) + math.expm1(t) * K)
        if sign <= 0:
            raise ValueError("I + (e^t - 1) K is not positive definite")
        values.append(logdet / length)
    return (4.0 * values[1] - values[0]) / 3.0


def negative_binomial_law(occupations, multiplicities, length, digits=40):
    """P(N = k) for k < length, and P(N >= length), for N a sum of independent
    NegativeBinomial(r, q = n / (1 + n)) factors (mean n r).

    Each factor's weights binom(k + r - 1, k) (1 - q)^r q^k take the exact integer
    binomial and are convolved on 0..length - 1, each entry one exactly summed
    ``mp.fdot`` rounded to ``digits`` digits, where the truncation leaves every entry
    exact; P(N >= length) is 1 minus their sum.
    """
    with mp.workdps(digits):
        pmf = None
        for n, r in zip(np.asarray(occupations).tolist(), np.asarray(multiplicities).tolist()):
            q = mp.mpf(n) / (1 + mp.mpf(n))
            weights = np.array([math.comb(k + r - 1, k) * (1 - q) ** r * q ** k
                                for k in range(length)], dtype=object)
            pmf = weights if pmf is None else np.array(
                [mp.fdot(pmf[: k + 1], weights[k::-1]) for k in range(length)], dtype=object)
        return np.array([float(x) for x in pmf]), float(1 - mp.fsum(pmf))
