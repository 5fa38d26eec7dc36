"""Grand-canonical equation of state for ideal Bose and Fermi gases.

Pressure, density, critical density and the translated pressure
``g(lam) = p(mu + lam) - p(mu)`` with its first two derivatives, all from
one radial-quadrature engine.  Statistics are encoded by ``sigma``: +1 for
Bose-Einstein (BE), -1 for Fermi-Dirac (FD).
``ThermoState.occupation`` is the mean occupation 1/(e^{beta(eps - mu)} -
sigma) of a mode; the occupation operator's momentum symbol, which
``counting`` and ``kernel`` read, is -sigma times it.

The engine is composite Gauss-Legendre on the panels [0, k1], [k1, 8 k1]
and doubling panels beyond, k1 being the thermal wavevector (beta eps = 1);
for BE the first panel runs in k = t^2.  Panels are added until the
integrand's share falls below 1e-16.  Each panel is certified by node
doubling, 24 against 48 nodes, against its share of ``tol``, and bisected
while it misses that share, at most 200 times (400 leaves) per mu or per
integral; a total estimate above ``tol`` raises ``AccuracyError`` carrying
it.  No estimate is below the rounding floor 50 eps |value|, so a budget
under it raises too.  Nodes, energies and k1 are cached per (beta,
dispersion), and ``critical_density`` per (beta, dispersion, statistics,
tol) in ``_critical_density`` (32 entries), so a gas runs one rho_c
quadrature per process.  Code that patches a module constant of the engine
must call ``_grid.cache_clear()`` and ``_critical_density.cache_clear()``
before and after.  Each panel's energy row ends with the energy at its
right end, which the domain rule reads.  w = beta (eps - mu) is formed once
per node and end, so one integrand pass per panel round gives p, rho and
d rho / d mu, and the domain test, for a scalar or an array of mu
(``pressure_derivatives``).  Each mu's result depends on that mu alone:
an array call equals the scalar calls bit for bit, for one set of orders
(a mu is bisected when any of its rows misses its budget, so asking for
more orders can move a row's last bits).

The numerics are in-house and need numpy only: the Gauss-Legendre rule
(``_gauss_legendre``, Newton on the Legendre recurrence, also behind the
``counting`` Nystrom nodes), a bracketed Brent root-finder (``_brent``,
also behind ``modes.solve_lambda_V``) and a certified finite-interval
integrator (``_integrate``, behind the trace targets in ``counting``, the
kernel's d(0) and the box truncation bound) on the engine's own rule pair,
bisection and certificate.

Conventions: hbar = 1, no unit conversions.  Infinite answers that are
semantically meaningful (critical density in low dimension, the translated
pressure beyond the Bose domain) are returned as ``math.inf`` rather than
raised as errors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionRelation
from .errors import AccuracyError, DomainError

__all__ = [
    "BE",
    "FD",
    "ThermoState",
    "EosResult",
    "pressure",
    "density",
    "equation_of_state",
    "critical_density",
    "translated_pressure",
    "pressure_derivatives",
]

BE = +1
FD = -1

_TRUNCATION_RATIO = 1e-16  # stop extending the domain below this integrand share
_NODES = 24                # lower rule per panel; the certificate compares it with 2 * _NODES
_MAX_PANELS = 60           # geometric panels: k up to 2^60 k1
_MAX_LEAVES = 400          # leaves per mu or per integral: at most 200 bisections
_LEAF_CACHE = 4096         # bisected leaves kept per grid
_ROUNDOFF = float(50 * np.finfo(float).eps)  # relative floor of an error estimate (QUADPACK's choice)
_LOG2 = math.log(2.0)


def __getattr__(name):
    # perfbench's hot-call pass patches ``ldgas.thermo.quad`` by name; only it loads scipy
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ThermoState:
    """Inverse temperature, chemical potential and statistics flag.

    BE requires mu < 0 (the one-particle spectrum starts at 0); FD allows
    any real mu.
    """

    beta: float
    mu: float
    sigma: int

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError("beta must be positive")
        if self.sigma not in (BE, FD):
            raise DomainError("sigma must be +1 (BE) or -1 (FD)")
        if self.sigma == BE and self.mu >= 0:
            raise DomainError("BE requires mu < 0")

    @property
    def fugacity(self) -> float:
        return math.exp(self.beta * self.mu)

    def occupation(self, k, disp: DispersionRelation):
        """Mean occupation 1 / (e^{beta (eps(k) - mu)} - sigma) at wavevectors k.

        The occupation operator's momentum symbol is ``-sigma`` times it.
        Raises ``DomainError`` for BE if eps(k) <= mu (invalid chemical
        potential for the mode).
        """
        w = self.beta * (np.asarray(disp.evaluate(k), dtype=float) - self.mu)
        if self.sigma == BE and np.any(w <= 0):
            raise DomainError("BE requires eps(k) - mu > 0")
        return _occ_from_w(w if w.ndim else float(w), self.sigma)


@dataclass(frozen=True)
class EosResult:
    """Pressure and density with their quadrature error estimates."""

    pressure: float
    density: float
    pressure_error: float
    density_error: float

    def __post_init__(self):
        if self.pressure < 0 or self.density < 0:
            raise AccuracyError("equation of state produced a negative value")


# ---------------------------------------------------------------------------
# integrands (cancellation-free forms; w = beta * (eps - mu))
# ---------------------------------------------------------------------------

def _integrands(w, orders, beta, sigma):
    """Rows of the p, rho and d rho / d mu integrand factors at w, one per entry of ``orders``.

    The caller sets ``np.errstate``.  BE: the pressure factor
    -log(1 - e^{-w}) is -log(-expm1(-w)) below w = log 2, where 1 - e^{-w}
    would cancel, and -log1p(-e^{-w}) above it, where the log would; the
    rho and d rho / d mu rows share the occupation 1 / expm1(w).  FD: every
    row is formed from t = e^{-|w|}.
    """
    if sigma == BE and np.any(w < 0):
        raise DomainError("BE requires eps(k) >= mu")
    out = np.empty((len(orders),) + w.shape)
    shared = None  # BE: the occupation; FD: t
    for n, o in enumerate(orders):
        if sigma == BE:
            if o == 0:
                out[n] = np.where(w < _LOG2, -np.log(-np.expm1(-w)), -np.log1p(-np.exp(-w)))
                continue
            occ = shared = 1.0 / np.expm1(w) if shared is None else shared
            out[n] = occ if o == 1 else beta * occ * (1.0 + occ)
        else:
            t = shared = np.exp(-np.abs(w)) if shared is None else shared
            if o == 0:
                out[n] = np.maximum(-w, 0.0) + np.log1p(t)
            elif o == 1:
                out[n] = np.where(w >= 0, t, 1.0) / (1.0 + t)
            else:
                out[n] = beta * t / (1.0 + t) ** 2
    return out


def _integrand(w, order, sigma):
    """One integrand factor of ``_integrands`` at a scalar or an array w."""
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = _integrands(w, (order,), 1.0, sigma)[0]
    return out if out.ndim else float(out)


def _occ_from_w(w, sigma):
    """1 / (e^w - sigma), the mean occupation."""
    return _integrand(w, 1, sigma)


def _log_weight_from_w(w, sigma):
    """-sigma * log(1 - sigma e^{-w}), the pressure integrand factor."""
    return _integrand(w, 0, sigma)


# ---------------------------------------------------------------------------
# radial quadrature engine
# ---------------------------------------------------------------------------

def _surface_area(d: int) -> float:
    """Area of the unit sphere S^{d-1} (2 for d = 1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@functools.lru_cache(maxsize=64)
def _thermal_wavevector(beta: float, disp: DispersionRelation) -> float:
    """k where beta * eps(k) = 1, locating the thermal scale."""
    f = lambda k: beta * float(disp.evaluate(k)) - 1.0
    hi = 1.0
    for _ in range(200):
        if f(hi) > 0:
            break
        hi *= 2.0
    else:
        raise AccuracyError("dispersion does not reach the thermal scale")
    lo = hi / 2.0
    while f(lo) > 0 and lo > 1e-300:
        lo /= 2.0
    if f(lo) > 0:
        return hi
    return _brent(f, lo, hi, xtol=1e-14, rtol=1e-12)


def _brent(f, lo: float, hi: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of the scalar f in the bracket [lo, hi] by Brent's method.

    The iteration of ``scipy.optimize.brentq`` step for step (inverse
    quadratic interpolation or secant, else bisection), stopping when the
    bracket is below xtol + rtol |x|.  Raises ``DomainError`` if f(lo) and
    f(hi) share a sign, ``AccuracyError`` after ``maxiter`` steps.
    """
    xpre, xcur = lo, hi
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("root-finder interval does not bracket a sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise AccuracyError(f"root-finder did not converge in {maxiter} steps",
                        estimate=abs(xblk - xcur))


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from cos(pi (i - 1/4) / (n + 1/2)) for the
    non-negative nodes, mirrored; weights 2 / ((1 - x^2) P_n'(x)^2).
    O(n^2) work; the arrays are cached and read-only.
    """
    x = np.cos(math.pi * (np.arange((n + 1) // 2) + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise AccuracyError("Gauss-Legendre nodes did not converge")
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    if n % 2:  # the middle node is 0; it appears once
        x[-1] = 0.0
        x, w = np.concatenate([-x, x[-2::-1]]), np.concatenate([w, w[-2::-1]])
    else:
        x, w = np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel(a: float, b: float):
    """Nodes and weights on [a, b] of the m-point Gauss-Legendre rule, then the 2m-point rule."""
    (x1, w1), (x2, w2) = _gauss_legendre(_NODES), _gauss_legendre(2 * _NODES)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * np.concatenate([x1, x2]), half * np.concatenate([w1, w2])


def _pair_sum(fw):
    """(2m-node sums, |2m - m| estimates) over the last axis of f * weight at both rules' nodes.

    inf - inf gives nan, which the certificate rejects; callers set ``np.errstate``.
    """
    fine = fw[..., _NODES:].sum(axis=-1)
    return fine, np.abs(fine - fw[..., :_NODES].sum(axis=-1))


def _bisect(pair, span, budget, spent, ids):
    """Bisect ``span`` for the columns ``ids`` until each half meets half the budget.

    ``pair(half, ids)`` gives a panel's (values, estimates), arrays (rows,
    len(ids)); ``budget`` is the span's, (rows, len(ids)).  ``spent``
    counts each column's leaves, two per bisection, and no half is bisected
    once that would pass ``_MAX_LEAVES``; its miss then stands.
    """
    a, b, *rest = span
    mid = 0.5 * (a + b)
    spent[ids] += 2
    value = error = 0.0
    for half in ((a, mid, *rest), (mid, b, *rest)):
        v, e = pair(half, ids)
        miss = (e > 0.5 * budget).any(axis=0) & (spent[ids] + 2 <= _MAX_LEAVES)
        if miss.any():
            sub = np.flatnonzero(miss)
            v[:, sub], e[:, sub] = _bisect(pair, half, 0.5 * budget[:, sub], spent, ids[sub])
        value, error = value + v, error + e
    return value, error


def _certify(total, error, tol, pref=1.0):
    """(pref * total, pref * error) once each error is within tol |total|.

    Each error is first raised to the rounding floor ``_ROUNDOFF`` |total|.
    A miss raises ``AccuracyError`` carrying the worst estimate in the units
    of the returned value; a non-finite total or error raises it too (it
    makes ``worst`` nan or inf; callers set ``np.errstate``).
    """
    size = np.abs(total)
    error = np.maximum(error, _ROUNDOFF * size)
    worst = error / np.maximum(size, 1e-300)
    if not (worst <= tol).all():
        if not (np.isfinite(total).all() and np.isfinite(error).all()):
            raise AccuracyError("quadrature produced a non-finite value")
        i = np.unravel_index(np.argmax(worst), worst.shape)
        raise AccuracyError(f"quadrature achieved {worst[i]:.3e} relative, requested {tol:.3e}",
                            estimate=float((pref * error)[i]))
    return pref * total, pref * error


def _integrate(f, a: float, b: float, tol: float = 1e-10):
    """(int_a^b f, error estimate) by the radial engine's rule pair, bisection and certificate.

    ``f`` maps an array of points to an array of values.  [a, b] is
    bisected while a panel's 24- and 48-node sums miss its share of ``tol``
    |integral| (all of it for [a, b], halved at each bisection), for at most
    ``_MAX_LEAVES`` leaves; a total error above ``tol`` relative raises
    ``AccuracyError`` carrying the estimate.
    """
    def pair(span, ids):
        s, w = _panel(*span)
        return _pair_sum((np.asarray(f(s), dtype=float) * w).reshape(1, 1, -1))

    with np.errstate(invalid="ignore"):
        value, error = pair((a, b), None)
        if error[0, 0] > tol * abs(value[0, 0]):
            value, error = _bisect(pair, (a, b), tol * np.abs(value), np.zeros(1, int), np.zeros(1, int))
        return tuple(x.item() for x in _certify(value, error, tol))


class _Grid:
    """Panels, nodes and energies of one (beta, dispersion, first-panel variable).

    A leaf (a, b, substituted) holds the energies at both rules' nodes and
    their weights, with the Jacobian k^{d-1} (or 2 t^{2d-1} in k = t^2).
    Sweep threads share a grid: every cached object is built whole before it
    is stored, so a racing thread at worst builds it twice.
    """

    def __init__(self, beta: float, disp: DispersionRelation, substitute: bool):
        self.disp = disp
        self.k1 = _thermal_wavevector(beta, disp)
        self.substitute = substitute
        self.leaves = {}
        self.stack = ()

    def span(self, j: int):
        """Panel j: [0, k1] (in t = sqrt(k) when substituted), [k1, 8 k1], then doubling."""
        if j == 0:
            return (0.0, math.sqrt(self.k1), True) if self.substitute else (0.0, self.k1, False)
        if j == 1:
            return (self.k1, 8.0 * self.k1, False)
        return (2.0 ** (j + 1) * self.k1, 2.0 ** (j + 2) * self.k1, False)

    def leaf(self, a: float, b: float, substituted: bool):
        key = (a, b, substituted)
        hit = self.leaves.get(key)
        if hit is not None:
            return hit
        s, w = _panel(a, b)
        d = self.disp.dimension
        if substituted:
            k, w = s * s, 2.0 * w * s ** (2 * d - 1)
        else:
            k, w = s, w * s ** (d - 1)
        leaf = (np.asarray(self.disp.evaluate(k), dtype=float), w)
        if len(self.leaves) < _LEAF_CACHE:
            self.leaves[key] = leaf
        return leaf

    def panels(self, count: int):
        """(spans, energies, weights, tail factors) of at least ``count`` panels.

        Each energy row holds both rules' nodes and, last, the panel's right
        end b; the tail factor is b^d.  The first panel's end is in t when
        substituted; the domain rule never reads it.
        """
        if len(self.stack) and len(self.stack[0]) >= count:
            return self.stack
        spans = [self.span(j) for j in range(count)]
        leaves = [self.leaf(*span) for span in spans]
        ends = np.array([b for _, b, _ in spans])
        eps = np.column_stack([np.stack([e for e, _ in leaves]), self.disp.evaluate(ends)])
        self.stack = (spans, eps, np.stack([w for _, w in leaves]), ends ** self.disp.dimension)
        return self.stack


@functools.lru_cache(maxsize=32)
def _grid(beta: float, disp: DispersionRelation, substitute: bool) -> _Grid:
    return _Grid(beta, disp, substitute)


def _derivatives(beta, mu, sigma, disp, orders, tol):
    """(values, errors) of d^n p / d mu^n for n in ``orders``: arrays (len(orders), mu.size).

    ``mu`` is a 1-D array inside the domain (BE: mu <= 0, and mu < 0 for
    order 2).  One integrand pass per panel round gives every panel's rule
    pair and the integrand at its right end, which the domain rule reads.
    Raises ``AccuracyError`` when a budget is missed.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    grid = _grid(beta, disp, sigma == BE)
    columns = np.arange(mu.size)

    def pair(half, ids):  # (2m-node values, |2m - m| estimates) of one leaf
        eps, weight = grid.leaf(*half)
        return _pair_sum(_integrands(beta * (eps - mu[ids, None]), orders, beta, sigma) * weight)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        count = 2
        while True:
            spans, eps, weight, reach = grid.panels(count)
            f = _integrands(beta * (eps - mu[:, None, None]), orders, beta, sigma)  # (q, mu, panel, node)
            fine, err = _pair_sum(f[..., :-1] * weight)
            running = np.cumsum(fine, axis=-1)
            tail = np.abs(f[..., -1]) * reach
            stop = np.all(tail < _TRUNCATION_RATIO * np.maximum(np.abs(running), 1e-300), axis=0)
            stop[:, 0] = False  # the first panel never ends the domain
            if stop.any(axis=1).all():
                break
            if len(spans) >= _MAX_PANELS:
                raise AccuracyError("radial integrand failed to decay within the search range")
            count = min(2 * len(spans), _MAX_PANELS)

        panels = stop.argmax(axis=1) + 1                         # per mu
        used = np.arange(fine.shape[-1]) < panels[:, None]       # (mu, panel)
        total = running[:, columns, panels - 1]
        budget = 0.5 * tol * np.maximum(np.abs(total), 1e-300) / panels  # per panel, (q, mu)
        miss = np.any(err > budget[..., None], axis=0) & used
        if miss.any():
            spent = np.zeros(mu.size, dtype=int)
            for j in np.flatnonzero(miss.any(axis=0)):
                ids = np.flatnonzero(miss[:, j])
                fine[:, ids, j], err[:, ids, j] = _bisect(pair, spans[j], budget[:, ids], spent, ids)
            total = np.cumsum(fine, axis=-1)[:, columns, panels - 1]
        pref = _surface_area(disp.dimension) / (2.0 * math.pi) ** disp.dimension
        pref = np.array([pref / beta if o == 0 else pref for o in orders])[:, None]
        return _certify(total, np.where(used, err, 0.0).sum(axis=-1), tol, pref)


def pressure_derivatives(mu, beta: float, sigma: int, disp: DispersionRelation,
                         orders=(0, 1, 2), tol: float = 1e-10) -> np.ndarray:
    """d^n p / d mu^n at each mu for n in ``orders`` (0: p, 1: rho, 2: d rho / d mu).

    ``mu`` is a scalar or an array; the result has shape
    ``(len(orders),) + np.shape(mu)``, from one quadrature pass.  Each
    value depends on its own mu only, so an array call equals the scalar
    calls bit for bit.  BE requires mu <= 0 (mu < 0 for order 2); the BE
    density at mu = 0 is ``inf`` when d <= gamma.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if sigma not in (BE, FD) or any(o not in (0, 1, 2) for o in orders):
        raise DomainError("sigma must be +1 or -1 and orders within 0, 1, 2")
    shape = np.shape(mu)
    flat = np.asarray(mu, dtype=float).ravel()
    if sigma == BE and np.any(flat > 0):
        raise DomainError("BE requires mu <= 0")
    if sigma == BE and 2 in orders and np.any(flat == 0):
        raise DomainError("BE susceptibility requires mu < 0")
    diverges = (flat == 0) & (sigma == BE and disp.dimension <= disp.gamma)
    if 1 in orders and diverges.any():
        # order by order, so the infinite densities are never integrated
        out = np.full((len(orders), flat.size), math.inf)
        for n, o in enumerate(orders):
            ok = ~diverges if o == 1 else np.ones(flat.size, dtype=bool)
            if ok.any():
                out[n, ok] = _derivatives(beta, flat[ok], sigma, disp, (o,), tol)[0][0]
    else:
        out = _derivatives(beta, flat, sigma, disp, tuple(orders), tol)[0]
    return out.reshape((len(orders),) + shape)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def pressure(state: ThermoState, disp: DispersionRelation, tol: float = 1e-10) -> float:
    """Grand-canonical pressure p_sigma(mu).

    Certified radial quadrature with estimated relative error <= tol;
    raises ``AccuracyError`` (carrying the achieved estimate) otherwise.
    """
    return float(pressure_derivatives(state.mu, state.beta, state.sigma, disp, (0,), tol)[0])


def density(state: ThermoState, disp: DispersionRelation, tol: float = 1e-10) -> float:
    """Average particle density rho_sigma(mu) = dp/dmu."""
    return float(pressure_derivatives(state.mu, state.beta, state.sigma, disp, (1,), tol)[0])


def equation_of_state(state: ThermoState, disp: DispersionRelation, tol: float = 1e-10) -> EosResult:
    """Pressure and density together (one pass), with quadrature error estimates."""
    values, errors = _derivatives(state.beta, np.array([state.mu]), state.sigma, disp, (0, 1), tol)
    return EosResult(pressure=float(values[0, 0]), density=float(values[1, 0]),
                     pressure_error=float(errors[0, 0]), density_error=float(errors[1, 0]))


def critical_density(
    beta: float,
    disp: DispersionRelation,
    statistics: int = BE,
    tol: float = 1e-10,
) -> float:
    """Maximal normal-fluid density: the mu = 0 BE density.

    Returns ``inf`` when the dimension does not exceed the small-k exponent
    (d <= gamma) and, by convention, for Fermi statistics.  Reads the memoized
    ``_critical_density`` at (float(beta), disp, statistics, float(tol)), so every
    call form runs one quadrature per gas.
    """
    return _critical_density(float(beta), disp, statistics, float(tol))


@functools.lru_cache(maxsize=32)
def _critical_density(beta: float, disp: DispersionRelation, statistics: int, tol: float) -> float:
    if beta <= 0:
        raise DomainError("beta must be positive")
    if statistics not in (BE, FD):
        raise DomainError("statistics must be +1 (BE) or -1 (FD)")
    if statistics == FD:
        return math.inf
    return float(pressure_derivatives(0.0, beta, BE, disp, (1,), tol)[0])


def translated_pressure(
    lam: float,
    state: ThermoState,
    disp: DispersionRelation,
    order: int = 0,
    tol: float = 1e-10,
) -> float:
    """Translated pressure g(lam) = p(mu + lam) - p(mu) and derivatives.

    order 0 returns g(lam); order 1 returns g'(lam) = rho(mu + lam);
    order 2 returns g''(lam) = (d rho / d mu)(mu + lam).

    For BE, g(lam) = inf for lam > -mu (returned as a sentinel, order 0
    only); at lam = -mu order 0 returns the finite limit p(0) - p(mu) while
    orders 1 and 2 raise ``DomainError``.
    """
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    beta, mu, sigma = state.beta, state.mu, state.sigma
    mu_eff = mu + lam
    if sigma == BE and mu_eff >= 0:
        if order == 0:
            if mu_eff > 0:
                return math.inf
            # lam = -mu: finite limit of g from below
        else:
            raise DomainError("BE derivatives of g require lam < -mu")
    if order == 0:
        # both pressures in one pass; equal mus give equal bits, so g(0) = 0 exactly
        p = _derivatives(beta, np.array([mu_eff, mu]), sigma, disp, (0,), tol)[0][0]
        return float(p[0] - p[1])
    return float(pressure_derivatives(mu_eff, beta, sigma, disp, (order,), tol)[0])
