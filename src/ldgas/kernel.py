"""Position-space kernel of the occupation operator, for the ``kernel`` experiment.

The kernel d_sigma(x) is the inverse Fourier transform of the momentum
symbol ``-sigma * state.occupation(k, disp)``: 1/(1 + e^{beta(eps - mu)})
for FD and 1/(1 - e^{beta(eps - mu)}) for BE (negative; minus the Bose
occupation).  It is built on a uniform grid by FFT: directly in one
dimension, and through the radial (spherical Bessel) representation reduced
to a sine transform in three dimensions.

Tables carry the L1 and sup norms and the boundary-decay ratio, and
support a log-log decay-exponent fit against the |x|^{-(d+1)} envelope
bound for symbols that are smooth on the half-line.  The interval route
(``counting``) reads the occupation itself and builds no table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dispersion import DispersionRelation
from .errors import AccuracyError, DomainError
from .thermo import ThermoState, _integrate, _thermal_wavevector

__all__ = ["KernelTable", "build_kernel", "decay_exponent"]

_BOUNDARY_DECAY_TOL = 1e-12


@dataclass(frozen=True)
class KernelTable:
    """Sampled position-space kernel d_sigma(x) of the gas (``state``, ``disp``).

    For d = 1 ``x`` spans the full grid [-X, X); for d = 3 it holds radii
    [0, X).  ``values`` are the kernel samples on that grid, ``d0`` the
    sample at the origin.
    """

    state: ThermoState
    disp: DispersionRelation
    h: float
    extent: float
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    l1_norm: float = 0.0
    sup_norm: float = 0.0
    boundary_ratio: float = 0.0

    @property
    def d0(self) -> float:
        """d(0): the density for FD, minus the density for BE."""
        return float(self.values[np.searchsorted(self.x, 0.0)])


def _build_1d(state, disp, h, n_half):
    n = 2 * n_half
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    vals = -state.sigma * state.occupation(k, disp)
    half = np.fft.irfft(vals, n)[: n_half + 1] / h
    # mirror the x >= 0 half so evenness is exact by construction
    d = np.concatenate([half[:0:-1], half[:-1]])
    x = (np.arange(n) - n_half) * h
    l1 = h * float(np.sum(np.abs(d)))
    return x, d, l1


def _build_3d_radial(state, disp, h, n_half):
    """Radial kernel by the d = 3 reduction of the spherical transform.

    d(r) = (2 pi^2 r)^{-1} int_0^inf k sym(k) sin(kr) dk, evaluated for all
    grid radii at once by a sine FFT; aliasing from the 2X periodization is
    negligible once the boundary-decay check passes.  d(0) is a certified
    quadrature (1e-10 relative) of (2 pi^2)^{-1} int k^2 sym(k) dk.
    """
    m = n_half
    dk = math.pi / (m * h)
    kk = dk * np.arange(m)
    symbol = lambda q: -state.sigma * state.occupation(q, disp)
    g = kk * symbol(kk)
    # odd extension of length 2m: imaginary part of the FFT gives the sine sum
    ext = np.zeros(2 * m)
    ext[:m] = g
    ext[m + 1:] = -g[:0:-1]
    sine_sum = -np.fft.fft(ext).imag[:m] / 2.0
    r = h * np.arange(m)
    d = np.empty(m)
    d[0] = _integrate(lambda q: q * q * symbol(q), 0.0, kk[-1])[0] / (2.0 * math.pi ** 2)
    d[1:] = sine_sum[1:] * dk / (2.0 * math.pi ** 2 * r[1:])
    l1 = 4.0 * math.pi * h * float(np.sum(r * r * np.abs(d)))
    return r, d, l1


def grid_points(h: float, extent: float) -> int:
    """Grid points in [0, extent) at spacing h.

    The extent must be an integer multiple of h holding at least 8 points;
    otherwise ``DomainError``.
    """
    n_half = int(round(extent / h))
    if abs(n_half * h - extent) > 1e-9 * max(1.0, extent):
        raise DomainError(f"extent {extent:g} is not an integer multiple of h = {h:g}")
    if n_half < 8:
        raise DomainError(f"extent {extent:g} holds fewer than 8 grid points at h = {h:g}")
    return n_half


def default_extent(state: ThermoState, disp: DispersionRelation, h: float) -> float:
    """The extent of a table built without one: 40 thermal lengths (1 / k_thermal),
    rounded up to a multiple of h."""
    return math.ceil(40.0 / _thermal_wavevector(state.beta, disp) / h) * h


def build_kernel(
    state: ThermoState,
    disp: DispersionRelation,
    h: float,
    extent: float | None = None,
) -> KernelTable:
    """Build the kernel table on a uniform grid of spacing h up to ``extent``.

    The extent must be an integer multiple of h; left ``None`` it is
    ``default_extent``.  The kernel must decay below 1e-12 of its sup near
    the grid boundary; otherwise an ``AccuracyError`` advises a larger extent.
    """
    if h <= 0:
        raise DomainError("grid spacing h must be positive")
    if extent is None:
        extent = default_extent(state, disp, h)
    n_half = grid_points(h, extent)

    if disp.dimension == 1:
        x, d, l1 = _build_1d(state, disp, h, n_half)
    elif disp.dimension == 3:
        x, d, l1 = _build_3d_radial(state, disp, h, n_half)
    else:
        raise DomainError("kernel tables support d = 1 and d = 3 only")

    sup = float(np.max(np.abs(d)))
    # judge decay away from the periodization endpoint (last 2-10% of radii)
    tail = slice(int(0.90 * d.size), max(int(0.98 * d.size), int(0.90 * d.size) + 1))
    if disp.dimension == 1:
        lo = int(0.01 * d.size)
        boundary = float(np.max(np.abs(d[: max(lo, 1)])))
    else:
        boundary = float(np.max(np.abs(d[tail])))
    ratio = boundary / sup
    if ratio > _BOUNDARY_DECAY_TOL:
        raise AccuracyError(
            f"kernel not decayed at the boundary (ratio {ratio:.2e}); "
            "increase the extent",
            estimate=ratio,
        )

    return KernelTable(
        state=state,
        disp=disp,
        h=h,
        extent=float(extent),
        x=x,
        values=d,
        l1_norm=l1,
        sup_norm=sup,
        boundary_ratio=ratio,
    )


def decay_exponent(table: KernelTable, fit_window: tuple[float, float]) -> float:
    """Least-squares log-log slope of the kernel envelope over a window.

    The envelope is the set of strict local maxima of |d| (oscillating
    kernels vanish between lobes, where raw fits are meaningless); for
    monotone kernels every window sample above the zero floor qualifies.
    Fewer than 5 usable points raises ``AccuracyError``.
    """
    x_lo, x_hi = fit_window
    if not (0 < x_lo < x_hi):
        raise DomainError("fit window must satisfy 0 < x_lo < x_hi")
    if x_hi > table.extent:
        raise DomainError("fit window exceeds the table extent")

    pos = table.x > 0
    r = table.x[pos]
    v = np.abs(table.values[pos])
    inside = (r >= x_lo) & (r <= x_hi)
    r, v = r[inside], v[inside]
    keep = v > 1e-14  # stay away from zeros of d
    r, v = r[keep], v[keep]
    if r.size < 5:
        raise AccuracyError("fewer than 5 usable points in the fit window")

    interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    idx = np.flatnonzero(interior) + 1
    if idx.size >= 5:
        r, v = r[idx], v[idx]
    slope = float(np.polyfit(np.log(r), np.log(v), 1)[0])
    return slope
