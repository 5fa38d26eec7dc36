"""Output checks that do not go through the ``ldgas`` code path.

Every experiment record is compared with oracles built here from mpmath:
polylogarithm closed forms for non-relativistic and massless gases,
high-precision quadrature for other dispersions, an independent root
solve for the Legendre transform, and a direct lattice sum for finite
boxes.  Nothing here imports ``ldgas``; records are read as plain data.

``Checker.check(raw, record)`` returns a list of problems (empty when the
record is right).  ``check_counting_dist`` and ``check_box_pmf`` check the
particle-number laws captured during a pass.  Oracle values are cached, so
checking the same record again is cheap.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

FD, BE = -1, +1

# relative tolerances, set by the program's default quad_tol = 1e-10
EOS_RTOL = 1e-8
RHO_C_RTOL = 1e-6
RATE_ATOL = 1e-9          # plus RATE_RTOL * |f|
RATE_RTOL = 1e-8
GAP_RTOL = 1e-6           # recomputed gaps vs reported gaps
KERNEL_D0_RTOL = 1e-6     # kernel at the origin vs the density
KERNEL_SLOPE_MAX = -3.5   # criterion 11: d = 3 corner-symbol decay
PMF_MASS_ATOL = 1e-12
PMF_MEAN_RTOL = 1e-9
PMF_VAR_RTOL = 1e-7
BOX_RTOL = 1e-8           # mode-sum pressure vs the direct lattice sum
BOX_MEAN_RTOL = 1e-7      # the program discards <= 1e-9 of the mode mass
KAC_SE = 6.0              # sample moments within this many standard errors
OCC_FLOOR = 1e-22         # direct lattice sums stop below this occupation


def _close(value, expected, rtol, atol=0.0) -> bool:
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= atol + rtol * abs(expected)


class GasOracle:
    """Equation of state of one ideal gas, independent of the package."""

    def __init__(self, raw: dict):
        self.sigma = BE if raw["statistics"].upper() == "BE" else FD
        self.kind = raw.get("dispersion", "nonrelativistic")
        self.mass = float(raw.get("mass", 1.0))
        self.c = float(raw.get("c", 1.0))
        self.d = int(raw.get("dimension", 1))
        self.beta = float(raw.get("beta", 1.0))
        self.mu = float(raw.get("mu", 0.0))
        self._cache = {}
        self._k_thermal = None

    # -- dispersion and integrands (mpmath) --------------------------------
    def energy(self, k):
        if self.kind == "nonrelativistic":
            return k * k / (2 * self.mass)
        if self.kind == "massless":
            return self.c * k
        mc2 = self.mass * self.c ** 2
        return (k * self.c) ** 2 / (mp.sqrt(mc2 ** 2 + (k * self.c) ** 2) + mc2)

    def _radial(self, integrand):
        d = self.d
        pref = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2) / (2 * mp.pi) ** d
        if self._k_thermal is None:
            # breakpoints at multiples of the thermal wavevector, beta eps(k1) = 1
            self._k_thermal = abs(mp.findroot(lambda k: self.beta * self.energy(k) - 1, 1.0))
        k1 = self._k_thermal
        pts = [0, k1, 4 * k1, 16 * k1, 64 * k1, mp.inf]
        return pref * mp.quad(lambda k: k ** (d - 1) * integrand(k), pts)

    def _closed_form(self):
        """(prefactor, order shift) with f = pref * Li_{s}(sigma z), or None."""
        if self.kind == "nonrelativistic":
            return (self.mass / (2 * mp.pi * self.beta)) ** (mp.mpf(self.d) / 2), mp.mpf(self.d) / 2
        if self.kind == "massless":
            d = self.d
            pref = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2) / (2 * mp.pi) ** d
            return pref * mp.gamma(d) / (self.beta * self.c) ** d, mp.mpf(d)
        return None

    def _polylog(self, s, mu_eff):
        z = self.sigma * mp.exp(self.beta * mp.mpf(mu_eff))
        if z == 1:
            return mp.zeta(s)
        return mp.re(mp.polylog(s, z))

    def _value(self, what, mu_eff):
        key = (what, float(mu_eff))
        if key in self._cache:
            return self._cache[key]
        with mp.workdps(20):
            out = self._compute(what, mp.mpf(mu_eff))
        self._cache[key] = out
        return out

    def _compute(self, what, mu_eff):
        beta, sigma = self.beta, self.sigma
        closed = self._closed_form()
        if closed is not None:
            pref, s = closed
            shift = {"pressure": 1, "density": 0, "susceptibility": -1}[what]
            value = sigma * pref * self._polylog(s + shift, mu_eff)
            if what == "pressure":
                value /= beta
            elif what == "susceptibility":
                value *= beta
            return float(value)

        def w(k):
            return beta * (self.energy(k) - mu_eff)

        def one_minus(t):
            # 1 - sigma e^{-t} without cancellation as t -> 0 (BE near condensation)
            return -mp.expm1(-t) if sigma == BE else 1 + mp.exp(-t)

        if what == "pressure":
            f = lambda k: -sigma * mp.log(one_minus(w(k)))
            return float(self._radial(f) / beta)
        if what == "density":
            f = lambda k: mp.exp(-w(k)) / one_minus(w(k))
            return float(self._radial(f))
        f = lambda k: beta * mp.exp(-w(k)) / one_minus(w(k)) ** 2
        return float(self._radial(f))

    # -- public quantities ------------------------------------------------
    def pressure(self, mu_eff=None):
        return self._value("pressure", self.mu if mu_eff is None else mu_eff)

    def density(self, mu_eff=None):
        return self._value("density", self.mu if mu_eff is None else mu_eff)

    def susceptibility(self, mu_eff=None):
        return self._value("susceptibility", self.mu if mu_eff is None else mu_eff)

    def rho_c(self):
        small_k = 1.0 if self.kind == "massless" else 2.0
        if self.sigma == FD or self.d <= small_k:
            return math.inf
        return self.density(0.0)

    def g(self, lam):
        return self.pressure(self.mu + lam) - self.pressure()

    def rate(self, x):
        """f(x) = inf_lam (g(lam) - lam x), solving rho(mu + lam) = x by Newton."""
        key = ("rate", float(x))
        if key in self._cache:
            return self._cache[key]
        if x >= self.rho_c():
            value = self.pressure(0.0) - self.pressure() + self.mu * x
        else:
            rho = lambda lam: self.density(self.mu + lam)
            lo, hi = -1.0, 1.0 if self.sigma == FD else -self.mu * (1 - 1e-12)
            while rho(lo) > x:
                lo *= 2.0
            while self.sigma == FD and rho(hi) < x:
                hi *= 2.0
            # Newton on the bracket, falling back to bisection when it leaves it
            lam = 0.5 * (lo + hi)
            for _ in range(100):
                r = rho(lam)
                lo, hi = (lam, hi) if r < x else (lo, lam)
                step = lam - (r - x) / self.susceptibility(self.mu + lam)
                if abs(step - lam) <= 1e-14 * max(1.0, abs(lam)):
                    break
                lam = step if lo < step < hi else 0.5 * (lo + hi)
            value = self.g(lam) - lam * x
        self._cache[key] = value
        return value

    def interval_rate(self, a, b):
        rho_bar = self.density()
        if a <= rho_bar <= b:
            return 0.0
        return self.rate(b if b < rho_bar else a)


def box_lattice_sums(gas: GasOracle, ell: float, lam: float = 0.0):
    """Direct sums over the dual lattice (2 pi Z / ell)^d of a periodic box.

    Returns (beta * ell^d * pressure, mean, variance) of the particle number
    at mu + lam, from squared-radius multiplicities counted by convolving
    1-d square counts.
    """
    beta, sigma, d = gas.beta, gas.sigma, gas.d
    mu = gas.mu + lam
    dk = 2 * math.pi / ell
    # occupations below OCC_FLOOR at the least favourable potential (mu -> 0)
    k_max = dk
    while float(gas.energy(k_max)) * beta - max(mu, 0.0) * beta < -math.log(OCC_FLOOR):
        k_max *= 1.5
    n_max = int(math.ceil(k_max / dk))
    ones = np.zeros(n_max * n_max + 1, dtype=np.int64)
    span = np.arange(-n_max, n_max + 1)
    np.add.at(ones, span * span, 1)
    mult = ones.copy()
    for _ in range(d - 1):
        mult = np.convolve(mult, ones)[: ones.size]
    n2 = np.flatnonzero(mult)
    counts = mult[n2].astype(float)
    k = dk * np.sqrt(n2.astype(float))
    energy = np.array([float(gas.energy(float(x))) for x in k])
    w = beta * (energy - mu)
    log_weight = -sigma * np.log1p(-sigma * np.exp(-w))
    occ = np.exp(-w) / (1.0 - sigma * np.exp(-w))
    return (float(np.sum(counts * log_weight)), float(np.sum(counts * occ)),
            float(np.sum(counts * occ * (1.0 + sigma * occ))))


class Checker:
    """Checks records of one workload's experiments; oracles are cached."""

    def __init__(self):
        self._gases = {}
        self._box = {}

    def gas(self, raw: dict) -> GasOracle:
        key = tuple(raw.get(k) for k in ("statistics", "dispersion", "mass", "c",
                                          "dimension", "beta", "mu"))
        if key not in self._gases:
            self._gases[key] = GasOracle(raw)
        return self._gases[key]

    def box(self, raw: dict, ell: float, lam: float = 0.0):
        gas = self.gas(raw)
        key = (id(gas), float(ell), float(lam))
        if key not in self._box:
            self._box[key] = box_lattice_sums(gas, ell, lam)
        return self._box[key]

    def check(self, raw: dict, record) -> list[str]:
        """Problems with one experiment record (``ExperimentRecord``-like)."""
        kind = raw["kind"]
        if record.failure is not None:
            return [f"{kind}: failure {record.failure}"]
        if kind != "kac" and not record.summary.get("passed", False):
            return [f"{kind}: record did not pass its own tolerance"]
        return getattr(self, f"_check_{kind}")(raw, record.results, record.summary)

    # -- per kind ---------------------------------------------------------
    def _check_eos(self, raw, rows, summary):
        gas, row = self.gas(raw), rows[0]
        out = []
        if not _close(row["pressure"], gas.pressure(), EOS_RTOL):
            out.append(f"eos pressure {row['pressure']!r} vs {gas.pressure()!r}")
        if not _close(row["density"], gas.density(), EOS_RTOL):
            out.append(f"eos density {row['density']!r} vs {gas.density()!r}")
        if not _close(row["critical_density"], gas.rho_c(), RHO_C_RTOL):
            out.append(f"eos rho_c {row['critical_density']!r} vs {gas.rho_c()!r}")
        return out

    def _rate_point(self, gas, x, lam0, f):
        """g'(lam0) = x and the Legendre equality f = g(lam0) - lam0 x."""
        if x >= gas.rho_c():
            expected = gas.pressure(0.0) - gas.pressure() + gas.mu * x
            if lam0 != -gas.mu or not _close(f, expected, RATE_RTOL, RATE_ATOL):
                return [f"affine rate at x={x}: f={f!r} lam0={lam0!r}, expected {expected!r}"]
            return []
        out = []
        if not _close(gas.density(gas.mu + lam0), x, RATE_RTOL):
            out.append(f"g'(lam0) = {gas.density(gas.mu + lam0)!r} != x = {x}")
        legendre = gas.g(lam0) - lam0 * x
        if not _close(f, legendre, RATE_RTOL, RATE_ATOL):
            out.append(f"rate at x={x}: f={f!r}, g(lam0) - lam0 x = {legendre!r}")
        return out

    def _check_rate(self, raw, rows, summary):
        gas = self.gas(raw)
        out = []
        if not _close(summary["rho_bar"], gas.density(), EOS_RTOL):
            out.append(f"rho_bar {summary['rho_bar']!r} vs {gas.density()!r}")
        if not _close(summary["rho_c"], gas.rho_c(), RHO_C_RTOL):
            out.append(f"rho_c {summary['rho_c']!r} vs {gas.rho_c()!r}")
        for row in rows:
            out += self._rate_point(gas, row["x"], row["lambda0"], row["f"])
        a, b = (r["x"] for r in rows)
        rho_bar = gas.density()
        if a <= rho_bar <= b:
            expected = 0.0
        else:
            end = rows[1] if b < rho_bar else rows[0]
            expected = gas.g(end["lambda0"]) - end["lambda0"] * end["x"] \
                if end["x"] < gas.rho_c() else end["f"]
        if not _close(summary["interval_sup"], expected, RATE_RTOL, RATE_ATOL):
            out.append(f"interval sup {summary['interval_sup']!r} vs {expected!r}")
        return out

    def _gaps_shrink(self, kind, gaps):
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            return [f"{kind}: gaps do not shrink with size: {gaps}"]
        return []

    def _check_gf(self, raw, rows, summary):
        gas = self.gas(raw)
        target = gas.g(float(raw["lambda"]))
        out, gaps = [], []
        for row in rows:
            gap = abs(row["value"] - target) / abs(target)
            gaps.append(gap)
            if not _close(row["target"], target, EOS_RTOL):
                out.append(f"gf target {row['target']!r} vs g(lam) = {target!r}")
            if not _close(row["gap"], gap, GAP_RTOL):
                out.append(f"gf gap {row['gap']!r} vs recomputed {gap!r}")
        out += self._gaps_shrink("gf", gaps)
        if gaps[-1] > float(raw.get("tolerance", 0.02)):
            out.append(f"gf final gap {gaps[-1]:.3e} above tolerance")
        return out

    def _check_ldp(self, raw, rows, summary):
        gas = self.gas(raw)
        a, b = (float(v) for v in raw["interval"].split(","))
        target = gas.interval_rate(a, b)
        out, gaps = [], []
        for row in rows:
            value = row["log_prob_rate"]
            gaps.append(abs(value - target))
            if not _close(row["target_f"], target, RATE_RTOL, RATE_ATOL):
                out.append(f"ldp target {row['target_f']!r} vs oracle {target!r}")
            if not (value <= 0.0 and value <= row["chebyshev_bound"]):
                out.append(f"ldp L={row['L']}: {value!r} above 0 or the Chebyshev bound")
        out += self._gaps_shrink("ldp", gaps)
        return out

    def _check_clt(self, raw, rows, summary):
        gas = self.gas(raw)
        target = gas.susceptibility() / gas.beta
        out = []
        for row in rows:
            if not _close(row["c2_target"], target, EOS_RTOL):
                out.append(f"clt target {row['c2_target']!r} vs {target!r}")
        if not _close(rows[-1]["c2"], target, float(raw.get("tolerance", 0.02))):
            out.append(f"clt C(2) {rows[-1]['c2']!r} vs {target!r}")
        if not abs(rows[-1]["c3"]) < abs(rows[0]["c3"]):
            out.append("clt |C(3)| does not shrink")
        return out

    def _check_kernel(self, raw, rows, summary):
        gas = self.gas(raw)
        rho = gas.density()
        out = []
        for row in rows:
            # FD kernel at the origin is the density; BE kernel is its negative
            if not _close(gas.sigma * -row["d0"], rho, KERNEL_D0_RTOL):
                out.append(f"kernel d(0) {row['d0']!r} vs density {rho!r}")
        if not summary["decay_slope"] <= KERNEL_SLOPE_MAX:
            out.append(f"kernel decay slope {summary['decay_slope']:.2f} above {KERNEL_SLOPE_MAX}")
        return out

    def _check_modes(self, raw, rows, summary):
        gas = self.gas(raw)
        target = gas.pressure()
        out, gaps = [], []
        interval = [float(v) for v in raw["interval"].split(",")] if "interval" in raw else None
        for row in rows:
            ell = row["ell"]
            log_xi, _, _ = self.box(raw, ell)
            direct = log_xi / (gas.beta * ell ** gas.d)
            gaps.append(abs(direct - target) / target)
            if not _close(row["target_pressure"], target, EOS_RTOL):
                out.append(f"modes target {row['target_pressure']!r} vs {target!r}")
            if not _close(row["box_pressure"], direct, BOX_RTOL):
                out.append(f"box pressure at ell={ell}: {row['box_pressure']!r} vs lattice sum {direct!r}")
            if interval is not None:
                if not (math.isfinite(row["ldp_rate"]) and row["ldp_rate"] <= 0.0):
                    out.append(f"modes ldp rate at ell={ell} not finite and <= 0: {row['ldp_rate']!r}")
                if not _close(row["target_f"], gas.interval_rate(*interval), RATE_RTOL, RATE_ATOL):
                    out.append(f"modes target_f {row['target_f']!r} vs oracle")
        out += self._gaps_shrink("modes", gaps)
        return out

    def _check_kac(self, raw, rows, summary):
        gas = self.gas(raw)
        rho_c = gas.rho_c()
        a = float(raw["interval"].split(",")[0]) if "interval" in raw else 2.0 * rho_c
        samples = int(raw.get("samples", 10_000))
        out = []
        if not _close(summary["target_location"], rho_c, RHO_C_RTOL):
            out.append(f"kac location {summary['target_location']!r} vs rho_c {rho_c!r}")
        for row in rows:
            ell, lam = row["ell"], row["lambda_v"]
            if not (lam < -gas.mu and row["box_normal_density"] < rho_c):
                out.append(f"kac ell={ell}: tilt or normal density out of range")
                continue
            # the exact box law at the program's tilt: mean a, variance var
            _, mean_n, var_n = self.box(raw, ell, lam)
            volume = ell ** gas.d
            var = var_n / volume ** 2
            if not _close(mean_n / volume, a, BOX_MEAN_RTOL):
                out.append(f"kac ell={ell}: box mean density at lambda_V {mean_n / volume!r} != {a!r}")
            if abs(row["sample_mean"] - a) > KAC_SE * math.sqrt(var / samples):
                out.append(f"kac ell={ell}: sample mean {row['sample_mean']:.5f} vs {a:.5f}")
            # sample-variance error of a near-exponential law: sqrt(8 / n) var
            if abs(row["sample_variance"] - var) > KAC_SE * math.sqrt(8.0 / samples) * var:
                out.append(f"kac ell={ell}: sample variance {row['sample_variance']:.5f} vs {var:.5f}")
        variances = [r["sample_variance"] for r in rows]
        if not all(0.5 <= v1 / v0 <= 2.0 for v0, v1 in zip(variances, variances[1:])):
            out.append(f"kac variance not size-stable: {variances}")
        return out

    # -- particle-number laws captured during a pass ----------------------
    def check_counting_dist(self, dist) -> list[str]:
        """Normalization and cumulant consistency of a ``CountingDistribution``."""
        pmf = np.asarray(dist.pmf, dtype=float)
        n = np.arange(pmf.size, dtype=float)
        mass = float(pmf.sum())
        mean = float(np.dot(n, pmf)) / mass
        var = float(np.dot((n - mean) ** 2, pmf)) / mass
        out = []
        if abs(mass + dist.tail_mass - 1.0) > PMF_MASS_ATOL:
            out.append(f"counting pmf mass {mass!r} + tail {dist.tail_mass!r} != 1")
        if not _close(mean, dist.cumulants[0], PMF_MEAN_RTOL) or dist.mean != dist.cumulants[0]:
            out.append(f"counting pmf mean {mean!r} vs first cumulant {dist.cumulants[0]!r}")
        if not _close(var, dist.cumulants[1], PMF_VAR_RTOL) or dist.variance != dist.cumulants[1]:
            out.append(f"counting pmf variance {var!r} vs second cumulant {dist.cumulants[1]!r}")
        return out

    def check_box_pmf(self, raw: dict, ell: float, pmf) -> list[str]:
        """Normalization of a box pmf and its mean against the lattice sum."""
        pmf = np.asarray(pmf, dtype=float)
        _, mean_direct, _ = self.box(raw, ell)
        mass = float(pmf.sum())
        mean = float(np.dot(np.arange(pmf.size), pmf))
        out = []
        if abs(mass - 1.0) > PMF_MASS_ATOL:
            out.append(f"box pmf at ell={ell} has mass {mass!r}")
        if not _close(mean, mean_direct, BOX_MEAN_RTOL):
            out.append(f"box pmf mean at ell={ell}: {mean!r} vs lattice sum {mean_direct!r}")
        return out
