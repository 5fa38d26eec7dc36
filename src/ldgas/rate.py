"""Legendre-transform machinery for density large deviations.

The translated pressure g is convex and increasing on its domain
(all of R for FD, (-inf, -mu) for BE).  The rate function is

    f(x) = inf_lam ( g(lam) - lam x ) = g(lam_o) - lam_o x,

with the minimizer lam_o determined by g'(lam_o) = x for densities between
0 and the critical density, and pinned at -mu above it (Bose condensation
turns f into an affine segment with slope mu there).  f <= 0 with maximum
0 at the mean density.

``minimizer`` brackets the root with ladders of tilts (doubling to the
left, doubling or halving toward -mu to the right), each rung batch one
array call of ``thermo.pressure_derivatives``, then runs Newton's method
on log g'(lam) = log x with g'' from the same quadrature pass, falling back
to bisection whenever a step would leave the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionRelation
from .errors import AccuracyError, DomainError
from .thermo import (
    BE,
    FD,
    ThermoState,
    critical_density,
    density,
    pressure,
    pressure_derivatives,
    translated_pressure,
)

__all__ = ["RateContext", "RatePoint", "minimizer", "rate_value", "interval_rate"]

_BRACKET_LIMIT_POW = 40  # expanding search stops at lam = -2^40 / beta
_RUNGS = 8               # ladder rungs in the first array call; the rest follow in one more
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class RateContext:
    """Frozen inputs for rate-function evaluations.

    rho_bar is the mean density g'(0) and p_mu the pressure p(mu), both
    computed once; rho_c may be ``inf``; lambda_upper is the right edge of
    the domain of g (inf for FD, -mu for BE).
    """

    state: ThermoState
    disp: DispersionRelation
    rho_bar: float
    rho_c: float
    lambda_upper: float
    p_mu: float
    tol: float = 1e-10

    @classmethod
    def build(cls, state: ThermoState, disp: DispersionRelation, tol: float = 1e-10) -> "RateContext":
        rho_bar = density(state, disp, tol)
        rho_c = critical_density(state.beta, disp, statistics=state.sigma, tol=tol)
        if not rho_bar < rho_c:
            raise DomainError("mean density must lie below the critical density")
        lam_up = math.inf if state.sigma == FD else -state.mu
        return cls(state=state, disp=disp, rho_bar=rho_bar, rho_c=rho_c,
                   lambda_upper=lam_up, p_mu=pressure(state, disp, tol), tol=tol)

    def derivatives(self, lam, orders):
        """Rows of g^(n)(lam) for n in ``orders`` (1 or 2) at an array of tilts."""
        st = self.state
        return pressure_derivatives(st.mu + np.asarray(lam, dtype=float), st.beta, st.sigma,
                                    self.disp, orders, self.tol)

    def g(self, lam: float) -> float:
        """g(lam) = p(mu + lam) - p(mu); inf beyond the BE domain."""
        st = self.state
        if st.sigma == BE and st.mu + lam > 0:
            return math.inf
        return float(pressure_derivatives(st.mu + lam, st.beta, st.sigma, self.disp, (0,),
                                          self.tol)[0]) - self.p_mu

    def gprime(self, lam: float) -> float:
        return translated_pressure(lam, self.state, self.disp, order=1, tol=self.tol)


@dataclass(frozen=True)
class RatePoint:
    """Rate-function value at density x, with the minimizing tilt.

    lam0 and f may be ``-inf`` sentinels (x <= 0 and x < 0 respectively).
    """

    x: float
    lam0: float
    f: float


def _first_rung(ctx: RateContext, rungs, hit, failure: str):
    """First tilt of ``rungs`` whose g' satisfies ``hit``, with that g'.

    The first ``_RUNGS`` rungs go in one array call, the rest in one more.
    """
    for chunk in (rungs[:_RUNGS], rungs[_RUNGS:]):
        if chunk.size:
            gp = ctx.derivatives(chunk, (1,))[0]
            found = np.flatnonzero(hit(gp))
            if found.size:
                return float(chunk[found[0]]), float(gp[found[0]])
    raise AccuracyError(failure)


def minimizer(x: float, ctx: RateContext) -> float:
    """Tilt lam_o minimizing g(lam) - lam x.

    -inf for x <= 0; the unique root of g'(lam) = x for 0 < x < rho_c
    (residual below ctx.tol * max(x, rho_bar)); -mu for x >= rho_c (BE).
    The root comes from bracket-safeguarded Newton steps, taken until a
    step falls below 1e-13 / beta.
    """
    if x <= 0:
        return -math.inf
    if x >= ctx.rho_c:
        return -ctx.state.mu

    beta = ctx.state.beta
    doubling = 2.0 ** np.arange(_BRACKET_LIMIT_POW + 1) / beta
    lo, g_lo = _first_rung(ctx, -doubling, lambda gp: gp <= x,
                           "no bracket: g' stays above x down to the search limit")
    if x <= ctx.rho_bar:
        hi, g_hi = 0.0, ctx.rho_bar
    elif ctx.state.sigma == FD:
        hi, g_hi = _first_rung(ctx, doubling, lambda gp: gp >= x,
                               "no bracket: g' stays below x up to the search limit")
    else:
        # approach -mu from below; g' -> rho_c > x guarantees success
        edge = ctx.lambda_upper
        hi, g_hi = _first_rung(ctx, edge - (edge - lo) * 0.5 ** np.arange(1, 201),
                               lambda gp: gp >= x, "no bracket below the BE domain edge")
    if g_lo == x or hi == lo:
        return lo
    if g_hi == x:
        return hi

    # start where log g' interpolates linearly between the bracket ends
    lam = lo + (hi - lo) * math.log(x / g_lo) / math.log(g_hi / g_lo) if g_lo > 0 else 0.5 * (lo + hi)
    if not lo < lam < hi:
        lam = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        gp, gpp = ctx.derivatives(lam, (1, 2))
        residual = abs(gp - x)
        if gp == x:
            return lam
        if gp > x:
            hi = lam
        else:
            lo = lam
        step = math.log(gp / x) * gp / gpp if gp > 0 and gpp > 0 else math.inf
        nxt = lam - step
        if abs(step) <= 1e-13 / beta + 4e-16 * abs(lam) or hi - lo <= 1e-13 / beta:
            if residual > ctx.tol * max(x, ctx.rho_bar):
                raise AccuracyError(
                    f"minimizer residual {residual:.3e} above tolerance", estimate=residual
                )
            return nxt if lo <= nxt <= hi else lam
        lam = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise AccuracyError("Newton iteration did not converge", estimate=residual)


def rate_value(x: float, ctx: RateContext) -> RatePoint:
    """Rate function f(x) = inf_lam (g(lam) - lam x) with its minimizer.

    f = -inf for x < 0; f(0) = -p(mu) (the lam -> -inf limit); the affine
    condensation branch p(0) - p(mu) + mu x applies for x >= rho_c (BE).
    """
    if x < 0:
        return RatePoint(x=x, lam0=-math.inf, f=-math.inf)
    if x == 0:
        # lim_{lam -> -inf} g(lam) = -p(mu), and lam * x = 0 on this ray
        return RatePoint(x=x, lam0=-math.inf, f=-ctx.p_mu)
    if x >= ctx.rho_c:
        mu = ctx.state.mu
        return RatePoint(x=x, lam0=-mu, f=ctx.g(ctx.lambda_upper) + mu * x)
    lam0 = minimizer(x, ctx)
    f = ctx.g(lam0) - lam0 * x
    return RatePoint(x=x, lam0=lam0, f=f)


def interval_rate(a: float, b: float, ctx: RateContext, known=()) -> float:
    """sup of f over [a, b], exploiting concavity of f (maximum at rho_bar).

    ``known`` holds ``RatePoint``s already evaluated with ``ctx``; the end
    that carries the sup is read from them instead of being solved again.
    """
    if a > b:
        raise DomainError("interval requires a <= b")
    if a <= ctx.rho_bar <= b:
        return 0.0
    x = b if b < ctx.rho_bar else a
    for pt in known:
        if pt.x == x:
            return pt.f
    return rate_value(x, ctx).f
