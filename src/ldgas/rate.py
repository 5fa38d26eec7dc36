"""Legendre-transform machinery for density large deviations.

The translated pressure g is convex and increasing on its domain
(all of R for FD, (-inf, -mu) for BE).  The rate function is

    f(x) = inf_lam ( g(lam) - lam x ) = g(lam_o) - lam_o x,

with the minimizer lam_o determined by g'(lam_o) = x for densities between
0 and the critical density, and pinned at -mu above it (Bose condensation
turns f into an affine segment with slope mu there).  f <= 0 with maximum
0 at the mean density.

``minimizer`` brackets the root with ladders of tilts (doubling to the
left, doubling or halving toward -mu to the right), then runs Newton's
method on log g'(lam) = log x with g'' from the same quadrature pass,
falling back to bisection whenever a step would leave the bracket.  The
solve for one x is a generator that yields its requests: each ladder
chunk, then each Newton step.  ``rate_values`` runs the solves of several
x in lockstep, merging each round's requests that share an order set into
one array call of ``thermo.pressure_derivatives``, and takes g at every
minimizer from one more call.  The engine's values depend on their own mu
only within one order set, so each x takes exactly the steps, and gets
exactly the bits, that it gets alone.

``RateContext.build`` is memoized (``functools.lru_cache``, 32 entries) on
the value-equal key (state, dispersion, float(tol)), so every rate solve of
one gas shares one context, whether ``tol`` is left out or passed by position
or keyword.  A context holds p(mu), rho_bar and rho_c, and a table
of g' at the rungs of the two doubling ladders (+-2^j / beta) that its solves
have evaluated: at most 2 * 41 floats.  A solve asks the engine only for the
rungs the table lacks.  The table is exact: each column of an order-(1,)
call depends on its own tilt only, so a slope read from it has the bits of a
fresh call.  The BE edge ladder, the Newton steps and g at the minimizer
depend on x and are computed per solve.  Code that patches a module
constant of ``rate`` or ``thermo`` must call ``RateContext._build.cache_clear()``
before and after (``RateContext._build.cache_info()`` counts the hits).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dispersion import DispersionRelation
from .errors import AccuracyError, DomainError
from .thermo import BE, FD, ThermoState, pressure_derivatives, translated_pressure

__all__ = ["RateContext", "RatePoint", "minimizer", "rate_value", "rate_values", "interval_rate"]

_BRACKET_LIMIT_POW = 40  # expanding search stops at lam = -2^40 / beta
_RUNGS = 8               # ladder rungs in the first array call; the rest follow in one more
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class RateContext:
    """One gas's inputs for rate-function evaluations, shared by all its solves.

    rho_bar is the mean density g'(0) and p_mu the pressure p(mu), both
    computed once, with rho_c, in one engine call; rho_c may be ``inf``;
    lambda_upper is the right edge of the domain of g (inf for FD, -mu for BE).
    ``slopes`` maps each doubling-ladder rung +-2^j / beta evaluated so far
    to its g' (order-(1,) engine values, so exact for any later solve); it
    is the one mutable part.  Threads sharing a context may both fill a
    rung, with the same bits.  ``build`` normalizes ``tol`` to a float and
    reads the memoized ``_build`` (state, disp, tol), 32 entries, whose
    ``cache_clear()`` is the one reset; a build that raises is not cached.
    """

    state: ThermoState
    disp: DispersionRelation
    rho_bar: float
    rho_c: float
    lambda_upper: float
    p_mu: float
    tol: float = 1e-10
    slopes: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, state: ThermoState, disp: DispersionRelation, tol: float = 1e-10) -> "RateContext":
        """The gas's shared context: ``_build`` at ``float(tol)``, so every call form hits one entry."""
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
        return cls(state=state, disp=disp, rho_bar=rho_bar, rho_c=rho_c,
                   lambda_upper=lam_up, p_mu=float(p[0]), tol=tol)

    def derivatives(self, lam, orders):
        """Rows of p^(n)(mu + lam) for n in ``orders`` at an array of tilts: g^(n)(lam) for n >= 1."""
        st = self.state
        return pressure_derivatives(st.mu + np.asarray(lam, dtype=float), st.beta, st.sigma,
                                    self.disp, orders, self.tol)

    def g(self, lam: float) -> float:
        """g(lam) = p(mu + lam) - p(mu); inf beyond the BE domain."""
        if self.state.sigma == BE and self.state.mu + lam > 0:
            return math.inf
        return float(self.derivatives(lam, (0,))[0]) - self.p_mu

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
    """The minimizer of g(lam) - lam x, as a generator of engine requests.

    Yields ``(tilts, orders)``, is sent the rows ``ctx.derivatives(tilts,
    orders)`` and returns lam_o; see ``minimizer``.
    """
    if x <= 0:
        return -math.inf
    if x >= ctx.rho_c:
        return -ctx.state.mu

    beta = ctx.state.beta
    doubling = 2.0 ** np.arange(_BRACKET_LIMIT_POW + 1) / beta
    # the doubling ladders depend on the gas only: their slopes live on the context
    left = (-doubling, lambda gp: gp <= x, "no bracket: g' stays above x down to the search limit",
            ctx.slopes)
    if x <= ctx.rho_bar:
        [(lo, g_lo)] = yield from _first_rungs(left)
        hi, g_hi = 0.0, ctx.rho_bar
    elif ctx.state.sigma == FD:
        (lo, g_lo), (hi, g_hi) = yield from _first_rungs(
            left, (doubling, lambda gp: gp >= x, "no bracket: g' stays below x up to the search limit",
                   ctx.slopes))
    else:
        # approach -mu from below; g' -> rho_c > x guarantees success
        [(lo, g_lo)] = yield from _first_rungs(left)
        edge = ctx.lambda_upper
        [(hi, g_hi)] = yield from _first_rungs((edge - (edge - lo) * 0.5 ** np.arange(1, 201),
                                                lambda gp: gp >= x, "no bracket below the BE domain edge",
                                                {}))
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
            if residual > ctx.tol * max(x, ctx.rho_bar):
                raise AccuracyError(
                    f"minimizer residual {residual:.3e} above tolerance", estimate=residual
                )
            return nxt if lo <= nxt <= hi else lam
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
    (residual below ctx.tol * max(x, rho_bar)); -mu for x >= rho_c (BE).
    The root comes from bracket-safeguarded Newton steps, taken until a
    step falls below 1e-13 / beta.
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
