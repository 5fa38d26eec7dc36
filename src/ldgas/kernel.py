"""Position-space kernels of the occupation operators.

The momentum symbol is 1/(1 + e^{beta(eps - mu)}) for FD and
1/(1 - e^{beta(eps - mu)}) for BE (negative; minus the Bose occupation).
The position kernel is its inverse Fourier transform, built on a uniform
grid by FFT: directly in one dimension, and through the radial (spherical
Bessel) representation reduced to a sine transform in three dimensions.

Tables carry the L1 and sup norms used by the trace-comparison bounds and
support a log-log decay-exponent fit against the |x|^{-(d+1)} envelope
bound for symbols that are smooth on the half-line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dispersion import DispersionRelation
from .errors import AccuracyError, DomainError
from .export import write_table
from .thermo import FD, ThermoState, _integrate, _occ_from_w

__all__ = ["KernelTable", "symbol", "build_kernel", "decay_exponent", "default_extent"]

_BOUNDARY_DECAY_TOL = 1e-12


def symbol(k, state: ThermoState, disp: DispersionRelation):
    """Momentum symbol of the occupation operator.

    FD: 1/(1 + e^{beta(eps - mu)}) in (0, 1/(1 + 1/z)];
    BE: 1/(1 - e^{beta(eps - mu)}) in [1/(1 - 1/z), 0).
    """
    w = state.beta * (np.asarray(disp.evaluate(k), dtype=float) - state.mu)
    occ = _occ_from_w(w if w.ndim else float(w), state.sigma)
    # FD symbol equals the occupation; BE symbol is its negative
    return occ if state.sigma == FD else -occ


@dataclass(frozen=True)
class KernelTable:
    """Sampled position-space kernel d_sigma(x) with its momentum symbol.

    For d = 1 ``x`` spans the full grid [-X, X); for d = 3 it holds radii
    [0, X).  ``values`` are the kernel samples on that grid.
    """

    state: ThermoState
    disp: DispersionRelation
    h: float
    extent: float
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    symbol: Callable = field(repr=False)
    l1_norm: float = 0.0
    sup_norm: float = 0.0
    boundary_ratio: float = 0.0

    @property
    def dimension(self) -> int:
        return self.disp.dimension

    def at_offsets(self, offsets: np.ndarray) -> np.ndarray:
        """Kernel values at signed integer multiples of h (radial lookup)."""
        idx = np.abs(np.asarray(offsets, dtype=int))
        if self.dimension == 1:
            zero = np.searchsorted(self.x, 0.0)
            if idx.max(initial=0) + zero >= self.x.size:
                raise DomainError("offset beyond kernel extent")
            return self.values[zero + idx]
        if idx.max(initial=0) >= self.x.size:
            raise DomainError("offset beyond kernel extent")
        return self.values[idx]

    def to_csv(self, path) -> None:
        """Write (x, d(x)) rows for plotting."""
        write_table(path, ["# kernel table: x, d(x)"], zip(self.x, self.values))


def default_extent(state: ThermoState, disp: DispersionRelation) -> float:
    """Extent covering 40 thermal lengths (1 / k_thermal)."""
    from .thermo import _thermal_wavevector

    return 40.0 / _thermal_wavevector(state.beta, disp)


def _build_1d(state, disp, h, n_half):
    n = 2 * n_half
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    vals = symbol(k, state, disp)
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
    g = kk * symbol(kk, state, disp)
    # odd extension of length 2m: imaginary part of the FFT gives the sine sum
    ext = np.zeros(2 * m)
    ext[:m] = g
    ext[m + 1:] = -g[:0:-1]
    sine_sum = -np.fft.fft(ext).imag[:m] / 2.0
    r = h * np.arange(m)
    d = np.empty(m)
    d[0] = _integrate(lambda q: q * q * symbol(q, state, disp), 0.0, kk[-1])[0] / (2.0 * math.pi ** 2)
    d[1:] = sine_sum[1:] * dk / (2.0 * math.pi ** 2 * r[1:])
    l1 = 4.0 * math.pi * h * float(np.sum(r * r * np.abs(d)))
    return r, d, l1


def build_kernel(
    state: ThermoState,
    disp: DispersionRelation,
    h: float,
    extent: float | None = None,
    boundary_decay_tol: float = _BOUNDARY_DECAY_TOL,
) -> KernelTable:
    """Build the kernel table on a uniform grid of spacing h up to ``extent``.

    The extent must be an integer multiple of h and large enough for the
    kernel to decay below ``boundary_decay_tol`` of its sup near the grid
    boundary; otherwise an ``AccuracyError`` advises a larger extent.
    """
    if h <= 0:
        raise DomainError("grid spacing h must be positive")
    if extent is None:
        extent = default_extent(state, disp)
        extent = math.ceil(extent / h) * h
    n_half = int(round(extent / h))
    if abs(n_half * h - extent) > 1e-9 * max(1.0, extent):
        raise DomainError("extent must be an integer multiple of h")
    if n_half < 8:
        raise DomainError("extent too small for the grid spacing")

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
    if ratio > boundary_decay_tol:
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
        symbol=lambda k, s=state, dd=disp: symbol(k, s, dd),
        l1_norm=l1,
        sup_norm=sup,
        boundary_ratio=ratio,
    )


def l1_stability(table: KernelTable) -> tuple[float, bool]:
    """Surrogate integrability check: rebuild at double extent, compare L1.

    Two comparisons are taken: the full L1 norms, and the doubled table
    restricted to the original window.  The second is what exposes slowly
    decaying kernels on periodized grids, where the folded-back tail would
    otherwise keep the full-grid L1 unchanged.  Returns (relative change,
    ok = change < 1e-4); near BE condensation the change can exceed 1e-4,
    which is reported with a warning, not raised.
    """
    doubled = build_kernel(
        table.state, table.disp, table.h, 2.0 * table.extent,
        boundary_decay_tol=math.inf,
    )
    if table.dimension == 1:
        window = np.abs(doubled.x) <= table.extent
        l1_window = table.h * float(np.sum(np.abs(doubled.values[window])))
    else:
        window = doubled.x < table.extent
        r = doubled.x[window]
        l1_window = 4.0 * math.pi * table.h * float(
            np.sum(r * r * np.abs(doubled.values[window]))
        )
    base = max(table.l1_norm, 1e-300)
    change = max(
        abs(doubled.l1_norm - table.l1_norm), abs(l1_window - table.l1_norm)
    ) / base
    ok = change < 1e-4
    if not ok:
        warnings.warn(
            f"kernel L1 norm changed by {change:.2e} under extent doubling; "
            "integrability is marginal (near-condensation symbol?)",
            stacklevel=2,
        )
    return change, ok


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
