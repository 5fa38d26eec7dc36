"""Finite periodic box: mode occupations, exact particle-number law, sampling.

The dual lattice of an ell-sided periodic box is (2 pi Z / ell)^d.  Each
mode is occupied independently: Bernoulli for FD, geometric for BE, so a
shell of r modes is one binomial or negative-binomial factor of the
``factors`` law ``ModeLattice.law(lam)``, and the particle number is sampled
by inverting the exact laws of groups of shells.  Modes are grouped by
energy shells (isotropic dispersion), truncated where the mean occupation
falls below a floor, with the discarded mass certified against an integral
bound (``thermo``'s certified finite-interval integrator).  The box's
generating function, tilts, cumulants and Chebyshev bounds are the
``factors`` statistics of (``lat.law(lam)``, ``lat.volume``, beta), the
same functions the interval route calls.

The condensation experiment tunes the chemical potential so the box holds
a target density above the critical one and compares the law of N/ell^d
with the limiting shifted exponential.

``ModeLattice.build`` is memoized (``functools.lru_cache``, 32 entries) on the
value-equal key (state, dispersion, ell), so experiments on the same gas and
box share one lattice, whose ``energies`` and ``multiplicities`` are
read-only.  Code that patches a module constant of the build must call
``ModeLattice.build.cache_clear()`` before and after.  The box and group pmfs
are memoized one layer down, by ``factors`` (see there).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dispersion import DispersionRelation
from .errors import AccuracyError, DomainError, ResourceError
from .factors import _PMF_BUDGET, FactorLaw
from .thermo import (BE, FD, ThermoState, critical_density, _brent, _integrate, _occ_from_w,
                     _log_weight_from_w, _surface_area)

__all__ = [
    "ModeLattice",
    "box_pressure",
    "box_pmf",
    "solve_lambda_V",
    "sample_NV",
    "kac_test",
    "KacResult",
]

_OCC_FLOOR = 1e-12
_TAIL_BUDGET = 1e-9          # discarded mass, relative to retained
_MODE_BUDGET = 100_000
_GROUP_MEAN = 256            # mean particles per inverted group of shells


@dataclass(frozen=True)
class ModeLattice:
    """Dual lattice of a periodic box, grouped by energy shells.

    ``energies`` and ``multiplicities`` describe the retained shells (read-only
    when built by ``build``);
    ``tilt_ceiling`` is the largest chemical-potential shift the truncation
    certifiably covers (0 - mu for BE: every admissible tilt).
    """

    state: ThermoState
    disp: DispersionRelation
    ell: float
    energies: np.ndarray = field(repr=False)
    multiplicities: np.ndarray = field(repr=False)
    discarded_mass: float = 0.0
    tilt_ceiling: float = math.inf

    @property
    def dimension(self) -> int:
        return self.disp.dimension

    @property
    def volume(self) -> float:
        return self.ell ** self.dimension

    @property
    def mode_count(self) -> int:
        return int(np.sum(self.multiplicities))

    def occupations(self, lam: float = 0.0) -> np.ndarray:
        """Per-shell mean occupations at chemical potential mu + lam."""
        self._check_tilt(lam)
        w = self.state.beta * (self.energies - (self.state.mu + lam))
        return _occ_from_w(w, self.state.sigma)

    def law(self, lam: float = 0.0) -> FactorLaw:
        """The shells as factors: occupations at mu + lam, multiplicities the shell counts."""
        return FactorLaw(self.occupations(lam), self.multiplicities, self.state.sigma)

    def _check_tilt(self, lam: float) -> None:
        mu_eff = self.state.mu + lam
        if self.state.sigma == BE and mu_eff >= 0.0:
            raise DomainError("BE box requires mu + lam < 0 (ground mode at 0)")
        if lam > self.tilt_ceiling:
            raise DomainError(
                f"tilt {lam} exceeds the truncation ceiling {self.tilt_ceiling}; "
                "rebuild the lattice with more headroom"
            )

    @classmethod
    @functools.lru_cache(maxsize=32)
    def build(cls, state: ThermoState, disp: DispersionRelation, ell: float) -> "ModeLattice":
        """Enumerate dual-lattice shells with occupation above the floor.

        Truncation is decided at the least favourable admissible potential:
        mu -> 0- for BE (covers every tilt), mu + 4 / beta for FD.  The
        discarded mean occupation is certified below 1e-9 of the retained
        total via an integral tail bound; the floor (first 1e-12) is lowered
        automatically if the budget fails.  Memoized on (state, disp, ell):
        equal gases and sides share one lattice; a build that raises is not
        cached.
        """
        if ell <= 0:
            raise DomainError("box side must be positive")
        d = disp.dimension
        if d not in (1, 2, 3):
            raise DomainError("mode lattices support d = 1, 2, 3")
        beta = state.beta
        if state.sigma == BE:
            ceiling = -state.mu  # exclusive: mu + lam < 0
            w_trunc = lambda e: beta * e
        else:
            ceiling = 4.0 / beta
            w_trunc = lambda e: beta * (e - (state.mu + ceiling))

        floor = _OCC_FLOOR
        for _ in range(8):
            lattice = cls._enumerate(state, disp, ell, floor, w_trunc, ceiling)
            retained = float(np.sum(lattice.multiplicities * lattice.occupations(0.0)))
            if lattice.discarded_mass <= _TAIL_BUDGET * max(retained, 1e-300):
                return lattice
            floor *= 1e-3
        raise AccuracyError("mode truncation tail budget not met")

    @classmethod
    def _enumerate(cls, state, disp, ell, floor, w_trunc, ceiling):
        d = disp.dimension
        sigma = state.sigma
        dk = 2.0 * math.pi / ell

        def occ_trunc(e):
            w = w_trunc(np.asarray(e, dtype=float))
            return _occ_from_w(w if w.ndim else float(w), sigma)

        # radius where the truncation-potential occupation falls below floor
        k_cut = dk
        for _ in range(200):
            if occ_trunc(float(disp.evaluate(k_cut))) < floor:
                break
            k_cut *= 2.0
        else:
            raise AccuracyError("occupation does not fall below the floor")
        n_max = int(math.ceil(1.25 * k_cut / dk)) + 1
        if (n_max + 1) ** d > 1e8:
            raise ResourceError("dual-lattice shell count too large")
        # r_d(n) = #{m in Z^d : |m|^2 = n}, n <= n_max^2 (the rest lie past the floor),
        # on the orthant m >= 0, weight 2 per nonzero coordinate (theta series 1 + 2 sum
        # q^(m^2)): d = 1 lists squares, d = 2 bins points, d = 3 convolves a third axis
        m = np.arange(n_max + 1)
        squares, theta = m * m, np.where(m > 0, 2, 1)
        shells, counts = squares, theta
        if d > 1:
            size = n_max * n_max + 1
            n2, weight = np.add.outer(squares, squares).ravel(), np.outer(theta, theta).ravel()
            inside = n2 < size
            counts = np.bincount(n2[inside], weight[inside], size).astype(np.int64)
            if d == 3:
                plane = counts.copy()
                for sq in squares[1:].tolist():
                    counts[sq:] += 2 * plane[: size - sq]
            shells = np.flatnonzero(counts)
            counts = counts[shells]
        energies = np.asarray(disp.evaluate(dk * np.sqrt(shells.astype(float))), dtype=float)
        keep = occ_trunc(energies) >= floor
        energies, counts = energies[keep], counts[keep]
        order = np.argsort(energies)
        energies, counts = energies[order], counts[order]
        energies.setflags(write=False)
        counts.setflags(write=False)

        # integral bound on the discarded mean occupation (mode density
        # (ell/2pi)^d, integrand decreasing beyond the cutoff, one lattice
        # diagonal of safety margin); the bound is the value plus its error
        # estimate, so 1e-3 relative accuracy is enough
        k_lo = max(dk, k_cut - dk * math.sqrt(d))
        tail_f = lambda k: k ** (d - 1) * occ_trunc(disp.evaluate(k))
        tail = sum(_integrate(tail_f, k_lo, 16.0 * k_cut, tol=1e-3))
        discarded = (ell / (2.0 * math.pi)) ** d * _surface_area(d) * tail

        return cls(
            state=state,
            disp=disp,
            ell=float(ell),
            energies=energies,
            multiplicities=counts,
            discarded_mass=float(discarded),
            tilt_ceiling=ceiling,
        )


def box_pressure(lat: ModeLattice) -> float:
    """(beta ell^d)^{-1} log Xi, the finite-volume grand-canonical pressure."""
    st = lat.state
    w = st.beta * (lat.energies - st.mu)
    terms = _log_weight_from_w(w, st.sigma)
    return float(np.sum(lat.multiplicities * terms)) / (st.beta * lat.volume)


def box_pmf(lat: ModeLattice, lam: float = 0.0) -> np.ndarray:
    """Exact pmf of the box particle number, the shells as ``factors`` laws.

    BE shells with mean occupation below 2 come from one power-sum
    recurrence (at lam = 0 every shell of a mu = -1 gas), and only the
    others are convolved on as negative-binomial blocks, every tail cut by
    the Chernoff bound; FD boxes convolve binomial blocks (full support)
    shell by shell.  The truncated BE tail mass stays within 1e-14, else
    ``AccuracyError``.  Raises
    ``ResourceError`` above 100000 retained modes (``sample_NV``, which
    builds the laws of short groups of shells, still runs there).  The pmf
    comes from ``FactorLaw.pmf``'s memo (32 entries, keyed on the shells'
    occupations and counts), so a box at one tilt builds once; it is
    read-only, and the tail budget is checked on every call.
    """
    if lat.mode_count > _MODE_BUDGET:
        raise ResourceError("too many modes for exact convolution; use sampling")
    return lat.law(lam).pmf()[0]


def solve_lambda_V(lat: ModeLattice, a: float) -> float:
    """Tilt lam_V with box mean density a: rho^V(mu + lam_V) = a, within 1e-10 a.

    For BE the solution exists for every a > 0 (the ground mode diverges
    as mu + lam -> 0-), including the condensation regime a > rho_c.  The
    root comes from ``thermo``'s bracketed Brent root-finder.
    """
    if a <= 0:
        raise DomainError("target density must be positive")
    st = lat.state
    f = lambda lam: lat.law(lam).mean() / lat.volume - a  # box mean density at mu + lam

    if st.sigma == BE:
        # the ground-mode occupation diverges as mu + lam -> 0-, so a point
        # just below the edge dominates any sane target density
        hi = -st.mu - 1e-13 * max(1.0, -st.mu)
        if f(hi) < 0:
            raise AccuracyError("BE density bracket failed below the domain edge")
    else:
        hi = 1.0 / st.beta
        while f(hi) < 0:
            hi *= 2.0
            if hi > lat.tilt_ceiling:
                raise DomainError("target density needs a tilt beyond the lattice ceiling")
    lo = -1.0 / st.beta
    while f(lo) > 0:
        lo *= 2.0
        if -lo > 2.0 ** 40 * st.beta:
            raise AccuracyError("density bracket failed on the dilute side")
    lam = _brent(f, lo, hi, xtol=1e-14, rtol=9e-16, maxiter=300)
    if abs(f(lam)) > 1e-10 * a:
        raise AccuracyError("lambda_V residual above tolerance", estimate=abs(f(lam)))
    return lam


def sample_NV(
    lat: ModeLattice,
    lam: float,
    samples: int,
    seed: "int | np.random.SeedSequence | None" = None,
) -> np.ndarray:
    """Seeded independent draws of N/ell^d under the tilted box law.

    N is the ground mode N_0 plus groups of the other shells, cut where their
    cumulative mean passes a multiple of ``_GROUP_MEAN``: each group's exact
    ``factors`` pmf stays short, so the cost grows with the shells, not with
    the square of the box's mean.  In BE, only a group's shells of mean
    occupation 2 or more (the few lowest near condensation) are convolved,
    each convolution cut at the group's Chernoff support; the rest take the
    power sums.  The group laws come from ``FactorLaw.pmf``'s memo (32
    entries, keyed on each group's occupations and counts), so a repeated
    (lattice, tilt) builds none.  Groups are drawn by inverting their CDFs,
    each searched with the keys in ascending order (the same index per key
    as an unsorted search, found faster), N_0 by u < n_0 (FD) or
    floor(-log1p(-u) / w_0) (BE, P(N_0 >= k) = exp(-w_0 k)).  Term j (N_0
    is j = 0) reads the j-th jump of the PCG64 stream of
    ``np.random.default_rng(seed)`` (an integer, a ``SeedSequence`` or None
    for fresh entropy): equal seeds give equal samples, and the first k
    samples equal the k-sample call.  The sampled law is within the summed
    group ``tail_mass`` of the exact law in total variation; a sum above 1e-14
    raises ``AccuracyError`` before any draw (BE d = 3 at 2 rho_c: ell >= 62).
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    lat._check_tilt(lam)
    st = lat.state
    w = st.beta * (lat.energies - (st.mu + lam))
    if st.sigma == BE and np.any(np.exp(-w) >= 1.0):
        raise DomainError("BE tilt puts a mode at or beyond divergence")
    occ, mult = _occ_from_w(w, st.sigma), lat.multiplicities
    cuts = np.flatnonzero(np.diff(np.cumsum(mult[1:] * occ[1:]) // _GROUP_MEAN)) + 1
    groups = zip(np.split(occ[1:], cuts), np.split(mult[1:], cuts))
    pmfs = [FactorLaw(n, r, st.sigma).pmf() for n, r in groups]
    tail = sum(t for _, t in pmfs)
    if tail > _PMF_BUDGET:
        raise AccuracyError(f"summed group tail mass {tail:.2e} over {_PMF_BUDGET:.0e}", estimate=tail)
    bits = np.random.default_rng(seed).bit_generator
    uniform = lambda j: np.random.Generator(bits.jumped(j)).random(samples)
    u, cdfs = uniform(0), [np.cumsum(pmf) for pmf, _ in pmfs]
    n = u < occ[0] if st.sigma == FD else np.floor(-np.log1p(-u) / w[0])
    n = n + sum(_inverted(c, uniform(j) * c[-1]) for j, c in enumerate(cdfs, 1))
    return n / lat.volume


def _inverted(cdf: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, keys, side="right")``, searched in ascending key order (faster)."""
    order = np.argsort(keys)
    out = np.empty(keys.size, dtype=np.intp)
    out[order] = np.searchsorted(cdf, keys[order], side="right")
    return out


@dataclass(frozen=True)
class KacResult:
    """Condensation-regime comparison with the limiting shifted exponential.

    ``ks_distance`` is measured against the infinite-volume law located at
    ``location`` (rho_c), so at finite ell it carries the O(1/ell) offset
    of the box's own location.  ``box_normal_density`` is that finite-box
    location: the normal-fluid density at the tilt ``lambda_v``, which sits
    about 0.45/ell below rho_c for eps = k^2/2, beta = 1.  ``ks_box`` is
    the distance to the law of the same mean located there instead.
    """

    ks_distance: float
    ks_box: float            # to the mean-a exponential at box_normal_density
    lambda_v: float
    location: float          # rho_c of the infinite gas
    scale: float             # a - rho_c
    sample_mean: float
    sample_variance: float
    box_normal_density: float
    samples: np.ndarray = field(repr=False)   # sorted


def kac_test(lat: ModeLattice, a: float, samples: int, seed: int | None = None) -> KacResult:
    """Sample N/ell^3 at the density-a tilt and compare with the Kac law.

    The reference law is the exponential of mean a - rho_c shifted to
    rho_c (density (a - rho_c)^{-1} exp(-(x - rho_c)/(a - rho_c)) on
    [rho_c, inf)); the Kolmogorov-Smirnov distance is taken between it and
    the empirical law.  Requires d = 3, BE, finite rho_c and a > rho_c.

    The distance is to the infinite-volume law, so at finite ell it
    includes the O(1/ell) gap between rho_c and the box's own location,
    reported as ``box_normal_density``; ``ks_box`` is the distance to the
    mean-a exponential located there, free of that gap.
    """
    if lat.dimension != 3 or lat.state.sigma != BE:
        raise DomainError("the condensation test is defined for BE in d = 3")
    rho_c = critical_density(lat.state.beta, lat.disp)
    if not math.isfinite(rho_c):
        raise DomainError("critical density must be finite")
    if a <= rho_c:
        raise DomainError("target density must exceed the critical density")

    lam_v = solve_lambda_V(lat, a)
    xs = np.sort(sample_NV(lat, lam_v, samples, seed))
    scale = a - rho_c
    target = np.where(xs >= rho_c, 1.0 - np.exp(-np.maximum(xs - rho_c, 0.0) / scale), 0.0)
    n = xs.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    # sup |ecdf - cdf| on the sorted sample: the ecdf steps from lo to hi at each point
    ks = lambda cdf: float(max(np.max(ecdf_hi - cdf), np.max(cdf - ecdf_lo)))

    occ = lat.occupations(lam_v)
    normal = float(np.sum(lat.multiplicities[1:] * occ[1:])) / lat.volume
    box_target = -np.expm1(-np.maximum(xs - normal, 0.0) / (a - normal))

    return KacResult(
        ks_distance=ks(target),
        ks_box=ks(box_target),
        lambda_v=lam_v,
        location=rho_c,
        scale=scale,
        sample_mean=float(xs.mean()),
        sample_variance=float(xs.var()),
        box_normal_density=normal,
        samples=xs,
    )
