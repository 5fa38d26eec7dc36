"""Legendre-transform machinery for density large deviations.

The translated pressure g is convex and increasing on its domain
(all of R for FD, (-inf, -mu) for BE).  The rate function is

    f(x) = inf_lam ( g(lam) - lam x ) = g(lam_o) - lam_o x,

with the minimizer lam_o determined by g'(lam_o) = x for densities between
0 and the critical density, and pinned at -mu above it (Bose condensation
turns f into an affine segment with slope mu there).  f <= 0 with maximum
0 at the mean density.  A finite law's log generating function is such a g
too (``RateContext.of_law``): the box tilt ``modes.solve_lambda_V`` and the
Chernoff bound ``factors.chebyshev_bound`` are solves of this one solver.

``minimizer`` brackets the root with ladders of tilts, then runs
safeguarded Newton steps (``_solve``).  ``rate_values`` runs the solves of
several x in lockstep (``_lockstep``) and takes g at every minimizer from
one more call; each x takes exactly the steps, and gets exactly the bits,
that it gets alone.  A context keeps g' at every ladder rung its solves
have evaluated (at most 2 * 41 + 200 floats, exact for any later solve), so
a warm solve pays only its Newton steps.  The bulk's ``RateContext.build``
is memoized (``lru_cache``, 32 entries) on (state, dispersion, float(tol));
code that patches a module constant of ``rate`` or ``thermo`` must call
``RateContext._build.cache_clear()`` before and after.  A law's context
lives with its ``modes`` lattice, or in a ``factors`` memo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dispersion import DispersionRelation
from .errors import AccuracyError, DomainError
from .thermo import BE, FD, ThermoState, _integrands, pressure_derivatives

__all__ = ["RateContext", "RatePoint", "minimizer", "rate_value", "rate_values", "interval_rate"]

_BRACKET_LIMIT_POW = 40  # expanding search stops at lam = -2^40 / beta
_RUNGS = 8               # ladder rungs in the first array call; the rest follow in one more
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class RateContext:
    """One convex g's inputs, shared by all its solves.

    The solves read ``derivatives(tilts, orders)`` (rows of g^(n) at an array
    of tilts, plus p_mu at n = 0), beta, sigma, rho_bar = g'(0), rho_c (may be
    ``inf``), the domain's right edge lambda_upper, tol and ``slopes``: g' at
    each ladder rung evaluated so far, the one mutable part (threads sharing a
    context may both fill a rung, with the same bits).
    """

    beta: float
    sigma: int
    rho_bar: float
    rho_c: float
    lambda_upper: float
    p_mu: float
    derivatives: Callable = field(compare=False, repr=False)
    tol: float = 1e-10
    state: ThermoState | None = None
    disp: DispersionRelation | None = None
    slopes: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, state: ThermoState, disp: DispersionRelation, tol: float = 1e-10) -> "RateContext":
        """The gas's shared context, g(lam) = p(mu + lam) - p(mu): the memoized ``_build`` at
        ``float(tol)``, so every call form hits one entry; a build that raises is not cached."""
        return cls._build(state, disp, float(tol))

    @classmethod
    @functools.lru_cache(maxsize=32)
    def _build(cls, state: ThermoState, disp: DispersionRelation, tol: float) -> "RateContext":
        # p(mu), rho_bar and for BE rho_c (the mu = 0 density; inf when d <= gamma) in one call
        mus = [state.mu, 0.0] if state.sigma == BE else [state.mu]
        p, rho = pressure_derivatives(np.array(mus), state.beta, state.sigma, disp, (0, 1), tol)
        rho_bar, rho_c = float(rho[0]), float(rho[1]) if state.sigma == BE else math.inf
        if not rho_bar < rho_c:
            raise DomainError("mean density must lie below the critical density")
        lam_up = math.inf if state.sigma == FD else -state.mu
        # rows of p^(n)(mu + lam): g^(n)(lam) for n >= 1
        rows = lambda lam, orders: pressure_derivatives(
            state.mu + np.asarray(lam, dtype=float), state.beta, state.sigma, disp, orders, tol)
        return cls(beta=state.beta, sigma=state.sigma, rho_bar=rho_bar, rho_c=rho_c,
                   lambda_upper=lam_up, p_mu=float(p[0]), derivatives=rows, tol=tol,
                   state=state, disp=disp)

    @classmethod
    def of_law(cls, law, volume: float, beta: float, energies, mu: float) -> "RateContext":
        """A finite law's context, for x > 0: g(lam) = log <e^{beta lam N}> / (beta V), p_mu = 0.

        The ``factors.FactorLaw`` ``law`` has its factors at ``energies``: g' and g'' are
        the mode sums over V of the bulk integrand's rho and d rho / d mu factors at
        w = beta (energies - (mu + lam)).  rho_c is inf; lambda_upper (BE) is where
        mu + lam meets the lowest energy.
        """
        r, sigma = law.multiplicities, law.sigma

        def rows(lam, orders):
            lam = np.asarray(lam, dtype=float)
            w = beta * (energies - (mu + lam[..., None]))
            with np.errstate(divide="ignore"):  # the BE edge rung: an infinite occupation
                out = (r * _integrands(w, orders, beta, sigma)).sum(axis=-1) / volume
            if 0 in orders:  # the bulk engine's pressure row: log <e^{beta lam N}> instead
                out[orders.index(0)] = law.log_pgf(np.expm1(beta * lam)) / (beta * volume)
            return out

        edge = float(np.min(energies)) - mu if sigma == BE else math.inf
        return cls(beta=beta, sigma=sigma, rho_bar=law.mean() / volume, rho_c=math.inf,
                   lambda_upper=edge, p_mu=0.0, derivatives=rows)

    def g(self, lam: float) -> float:
        """g(lam), inf beyond the BE domain."""
        if self.sigma == BE and lam > self.lambda_upper:
            return math.inf
        return float(self.derivatives(lam, (0,))[0]) - self.p_mu

    def gprime(self, lam: float) -> float:
        return float(self.derivatives(lam, (1,))[0])


@dataclass(frozen=True)
class RatePoint:
    """Rate-function value at density x, with the minimizing tilt.

    lam0 and f may be ``-inf`` sentinels (x <= 0 and x < 0 respectively).
    """

    x: float
    lam0: float
    f: float


def _first_rungs(*ladders):
    """Per (rungs, hit, failure, known) ladder, its first tilt whose g' satisfies ``hit``, with that g'.

    A solver step: the first ``_RUNGS`` rungs of every ladder go in one
    request, the rest of the ladders not yet settled in one more.  ``known``
    maps tilts to their g'; only rungs missing from it are requested, and
    their answers are added to it.  A ladder with no hit raises
    ``AccuracyError(failure)``.
    """
    found = [None] * len(ladders)
    for part in (slice(None, _RUNGS), slice(_RUNGS, None)):
        chunks = [rungs[part].tolist() if rung is None else []
                  for (rungs, *_), rung in zip(ladders, found)]
        if not any(chunks):
            break
        asked = [[t for t in chunk if t not in known] for chunk, (*_, known) in zip(chunks, ladders)]
        if any(asked):
            gp = (yield np.array(sum(asked, [])), (1,))[0].tolist()
            for tilts, (*_, known) in zip(asked, ladders):
                known.update(zip(tilts, gp))
                gp = gp[len(tilts):]
        for i, (chunk, (_, hit, _, known)) in enumerate(zip(chunks, ladders)):
            slopes = np.array([known[t] for t in chunk])
            first = np.flatnonzero(hit(slopes))
            if first.size:
                found[i] = chunk[first[0]], float(slopes[first[0]])
    for rung, (_, _, failure, _) in zip(found, ladders):
        if rung is None:
            raise AccuracyError(failure)
    return found


def _solve(x: float, ctx: RateContext):
    """The minimizer of g(lam) - lam x, as a generator of requests.

    Yields ``(tilts, orders)``, is sent the rows ``ctx.derivatives(tilts,
    orders)`` and returns lam_o; see ``minimizer``.  Ladders of tilts bracket
    the root (doubling to the left; doubling, or halving toward the BE edge, to
    the right), then Newton's method on log g'(lam) = log x refines it, bisecting
    whenever a step would leave the bracket.
    """
    if x <= 0:
        return -math.inf
    if x >= ctx.rho_c:
        return ctx.lambda_upper

    beta = ctx.beta
    doubling = 2.0 ** np.arange(_BRACKET_LIMIT_POW + 1) / beta
    # the ladders depend on the gas only: their slopes live on the context
    left = (-doubling, lambda gp: gp <= x, "no bracket: g' stays above x down to the search limit",
            ctx.slopes)
    if x <= ctx.rho_bar:
        [(lo, g_lo)] = yield from _first_rungs(left)
        hi, g_hi = 0.0, ctx.rho_bar
    elif ctx.sigma == FD:
        (lo, g_lo), (hi, g_hi) = yield from _first_rungs(
            left, (doubling, lambda gp: gp >= x, "no bracket: g' stays below x up to the search limit",
                   ctx.slopes))
    else:
        # approach the edge from below; g' -> rho_c > x guarantees success.  lo is the first
        # left rung -1 / beta (g' there is below rho_bar < x), so these rungs are g's
        [(lo, g_lo)] = yield from _first_rungs(left)
        edge = ctx.lambda_upper
        [(hi, g_hi)] = yield from _first_rungs((edge - (edge - lo) * 0.5 ** np.arange(1, 201),
                                                lambda gp: gp >= x, "no bracket below the BE domain edge",
                                                ctx.slopes))
    if g_lo == x or hi == lo:
        return lo
    if g_hi == x:
        return hi

    # start where log g' interpolates linearly between the bracket ends
    lam = lo + (hi - lo) * math.log(x / g_lo) / math.log(g_hi / g_lo) if g_lo > 0 else 0.5 * (lo + hi)
    if not lo < lam < hi:
        lam = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        rows = yield np.array([lam]), (1, 2)
        gp, gpp = float(rows[0, 0]), float(rows[1, 0])
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
            if residual <= ctx.tol * max(x, ctx.rho_bar):
                return nxt if lo <= nxt <= hi else lam
            # a steep g' (a box near its BE edge) meets the step threshold first: step on
            if hi - lo <= 1e-13 / beta:
                raise AccuracyError(
                    f"minimizer residual {residual:.3e} above tolerance", estimate=residual
                )
        lam = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise AccuracyError("Newton iteration did not converge", estimate=residual)


def _lockstep(solvers, ctx: RateContext) -> list:
    """The return values of ``_solve`` generators, run side by side.

    Each round answers every live solver's request, with one array call per
    order set: a (1,) request is never answered from a (1, 2) call, since
    the engine bisects a column when any of its rows misses its budget.
    """
    results = [None] * len(solvers)
    requests = {}

    def advance(i, rows):
        try:
            requests[i] = solvers[i].send(rows)
        except StopIteration as done:
            requests.pop(i, None)
            results[i] = done.value

    for i in range(len(solvers)):
        advance(i, None)
    while requests:
        rounds = {}
        for i, (tilts, orders) in requests.items():
            rounds.setdefault(orders, []).append((i, tilts))
        for orders, asked in rounds.items():
            # each distinct request once: the solvers' ladders start alike
            where, parts, size = {}, [], 0
            for _, tilts in asked:
                key = tilts.tobytes()
                if key not in where:
                    where[key] = size
                    parts.append(tilts)
                    size += tilts.size
            rows = ctx.derivatives(np.concatenate(parts), orders)
            for i, tilts in asked:
                start = where[tilts.tobytes()]
                advance(i, rows[:, start:start + tilts.size])
    return results


def minimizer(x: float, ctx: RateContext) -> float:
    """Tilt lam_o minimizing g(lam) - lam x.

    -inf for x <= 0; the unique root of g'(lam) = x for 0 < x < rho_c
    (residual below ctx.tol * max(x, rho_bar)), from bracket-safeguarded
    Newton steps; lambda_upper (-mu) for x >= rho_c (BE).
    """
    return _lockstep([_solve(x, ctx)], ctx)[0]


def rate_values(xs, ctx: RateContext) -> list:
    """``rate_value`` at each x of ``xs``, bit for bit, with the minimizers solved in lockstep.

    g at every minimizer comes from one array call; ends at or above rho_c
    share the BE domain edge -mu.
    """
    lams = _lockstep([_solve(x, ctx) for x in xs], ctx)
    tilts = sorted({lam for x, lam in zip(xs, lams) if x > 0})
    p = ctx.derivatives(np.array(tilts), (0,))[0] if tilts else ()
    g = {lam: float(v) - ctx.p_mu for lam, v in zip(tilts, p)}
    points = []
    for x, lam in zip(xs, lams):
        if x < 0:
            points.append(RatePoint(x=x, lam0=-math.inf, f=-math.inf))
        elif x == 0:
            # lim_{lam -> -inf} g(lam) = -p(mu), and lam * x = 0 on this ray
            points.append(RatePoint(x=x, lam0=-math.inf, f=-ctx.p_mu))
        else:
            # above rho_c lam = -mu: the affine branch p(0) - p(mu) + mu x
            points.append(RatePoint(x=x, lam0=lam, f=g[lam] - lam * x))
    return points


def rate_value(x: float, ctx: RateContext) -> RatePoint:
    """Rate function f(x) = inf_lam (g(lam) - lam x) with its minimizer.

    f = -inf for x < 0; f(0) = -p(mu) (the lam -> -inf limit); the affine
    condensation branch p(0) - p(mu) + mu x applies for x >= rho_c (BE).
    """
    return rate_values((x,), ctx)[0]


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
