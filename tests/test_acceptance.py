"""Acceptance suite: each numbered criterion at its stated tolerance.

Every test prints one ``criterion NN [PASS|FAIL]`` line (visible with
``pytest -s``); the assertion carries the same message.  Shared kernels,
matrices and sample sets are module-scoped fixtures so the whole suite
stays within the desk-scale runtime budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from ldgas.counting import build_counting_matrix, counting_pmf, trace_moments
from ldgas.dispersion import DispersionRelation
from ldgas.factors import (
    chebyshev_bound,
    clt_cumulants,
    lambda_max,
    log_generating_function,
    tilted_moments,
    window_log_prob,
)
from ldgas.harness import ExperimentConfig, run_experiment
from ldgas.kernel import build_kernel, decay_exponent
from ldgas.modes import ModeLattice, kac_test, solve_lambda_V
from ldgas.rate import RateContext, interval_rate, minimizer, rate_value
from ldgas.thermo import (
    BE,
    FD,
    ThermoState,
    critical_density,
    density,
    pressure,
    translated_pressure,
)

import oracle_series as oracle

D1 = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)    # eps = k^2
D3 = DispersionRelation.nonrelativistic(mass=1.0, dimension=3)    # eps = k^2/2
D3M = DispersionRelation.massless(c=1.0, dimension=3)             # eps = |k|
FD0 = ThermoState(1.0, 0.0, FD)
BE1_D1 = ThermoState(1.0, -1.0, BE)
BE1_D3 = ThermoState(1.0, -1.0, BE)

SEED = 20260810


def check(num, name, ok, detail):
    line = f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fd_kernel():
    return build_kernel(FD0, D1, h=0.05, extent=160.0)


@pytest.fixture(scope="module")
def fd_matrices():
    return {L: build_counting_matrix(FD0, D1, L) for L in (10.0, 20.0, 40.0, 80.0)}


@pytest.fixture(scope="module")
def be_matrices():
    return {L: build_counting_matrix(BE1_D1, D1, L) for L in (10.0, 20.0, 40.0)}


@pytest.fixture(scope="module")
def fd_dists(fd_matrices):
    return {L: counting_pmf(fd_matrices[L]) for L in (20.0, 40.0, 80.0)}


@pytest.fixture(scope="module")
def fd_ctx():
    return RateContext.build(FD0, D1)


@pytest.fixture(scope="module")
def kac_density():
    return 2.0 * critical_density(1.0, D3)


@pytest.fixture(scope="module")
def kac_results(kac_density):
    out = {}
    for i, ell in enumerate((12.0, 16.0)):
        lat = ModeLattice.build(BE1_D3, D3, ell)
        out[ell] = kac_test(
            lat, kac_density, 10_000,
            seed=np.random.SeedSequence([SEED, i]),
        )
    return out


def ks_to_kac(samples, loc, a):
    """KS distance from the samples to the mean-a exponential located at loc."""
    xs = np.sort(samples)
    n = xs.size
    f = -np.expm1(-np.maximum(xs - loc, 0.0) / (a - loc))
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def kac_location_gap(loc, rho_c, a):
    """Sup distance between the mean-a Kac laws located at loc < rho_c and at rho_c.

    The difference of the two CDFs peaks at x = rho_c and has one minimum
    beyond it, at rho_c + y."""
    s_loc, s_c, d = a - loc, a - rho_c, rho_c - loc
    y = (math.log(s_loc / s_c) + d / s_loc) / (1.0 / s_c - 1.0 / s_loc)
    return max(-math.expm1(-d / s_loc), math.exp(-(y + d) / s_loc) - math.exp(-y / s_c))


def box_normal_density(ell, a):
    """Normal-fluid density rho_V^n of the side-ell box tuned to mean density a."""
    lat = ModeLattice.build(BE1_D3, D3, ell)
    occ = lat.occupations(solve_lambda_V(lat, a))
    return float(np.dot(lat.multiplicities[1:], occ[1:])) / lat.volume


def test_criterion_01_eos_oracle_equivalence():
    p = pressure(FD0, D1)
    r = density(FD0, D1)
    rc = critical_density(1.0, D3)
    gp = abs(p - oracle.FD_P_D1_MU0) / oracle.FD_P_D1_MU0
    gr = abs(r - oracle.FD_RHO_D1_MU0) / oracle.FD_RHO_D1_MU0
    gc = abs(rc - oracle.BE_RHOC_D3) / oracle.BE_RHOC_D3
    check(
        1, "eos oracle equivalence",
        gp < 1e-8 and gr < 1e-8 and gc < 1e-6,
        f"pressure gap {gp:.2e} (<1e-8), density gap {gr:.2e} (<1e-8), "
        f"rho_c gap {gc:.2e} (<1e-6)",
    )


def test_criterion_02_translated_pressure_structure():
    g0 = translated_pressure(0.0, FD0, D1)
    g1 = translated_pressure(0.0, FD0, D1, order=1)
    gap = abs(g1 - oracle.FD_RHO_D1_MU0) / oracle.FD_RHO_D1_MU0
    lams = np.linspace(-2.0, 1.5, 41)
    g = np.array([translated_pressure(l, FD0, D1) for l in lams])
    scale = float(np.max(np.abs(g)))
    convex = bool(np.all(g[1:-1] <= 0.5 * (g[:-2] + g[2:]) + 1e-9 * scale))
    check(
        2, "translated-pressure structure",
        g0 == 0.0 and gap < 1e-6 and convex,
        f"g(0)={g0!r} (exact 0), |g'(0)-rho| rel {gap:.2e} (<1e-6), "
        f"convex on 41-point grid: {convex}",
    )


def test_criterion_03_legendre_duality(fd_ctx):
    lam_grid = np.linspace(-1.5, 1.0, 11)
    fine = np.linspace(-2.0, 1.2, 65)
    xs = sorted({fd_ctx.gprime(l) for l in np.concatenate([fine, lam_grid])})
    pts = [(x, rate_value(x, fd_ctx).f) for x in xs]
    g_vals = {lam: fd_ctx.g(lam) for lam in lam_grid}
    g_scale = max(abs(v) for v in g_vals.values())
    worst = 0.0
    for lam in lam_grid:
        dual = max(f + lam * x for x, f in pts)
        # g vanishes at lam = 0; measure that point against the grid scale
        worst = max(worst, abs(dual - g_vals[lam]) / max(abs(g_vals[lam]), 1e-2 * g_scale))
    be_ctx = RateContext.build(BE1_D3, D3)
    seg = np.linspace(be_ctx.rho_c, 2.0 * be_ctx.rho_c, 9)
    fs = np.array([rate_value(x, be_ctx).f for x in seg])
    second = float(np.max(np.abs(np.diff(fs, 2))))
    check(
        3, "Legendre duality",
        worst < 1e-6 and second < 1e-9,
        f"double-transform worst rel gap {worst:.2e} (<1e-6), "
        f"condensation-segment second difference {second:.2e} (<1e-9)",
    )


def test_criterion_04_generating_function_convergence(fd_matrices):
    t0 = time.perf_counter()
    ok = True
    details = []
    for lam in (-1.0, -0.5, 0.5, 1.0):
        g = translated_pressure(lam, FD0, D1)
        gaps = []
        for L in (10.0, 20.0, 40.0, 80.0):
            m = fd_matrices[L]
            phi = log_generating_function(m.law, m.volume, FD0.beta, lam)
            gaps.append(abs(phi / 1.0 - g) / abs(g))
        monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
        ratios = [gaps[i + 1] / gaps[i] for i in range(3)]
        in_band = all(0.3 <= r <= 0.8 for r in ratios)
        ok = ok and monotone and gaps[-1] < 0.02 and in_band
        details.append(f"lam={lam}: gap80={gaps[-1]:.2e}, ratios={[round(r, 2) for r in ratios]}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    check(4, "finite-size generating function", ok,
          "; ".join(details) + f"; elapsed {elapsed:.1f}s (<300)")


def test_criterion_05_trace_moments(fd_matrices):
    at40 = trace_moments(fd_matrices[40.0], 4)
    at80 = trace_moments(fd_matrices[80.0], 4)
    first_ok = at40[0].rel_gap < 1e-6 and at80[0].rel_gap < 1e-6
    higher_ok = all(
        m40.rel_gap < 0.05 and m80.rel_gap < m40.rel_gap
        for m40, m80 in zip(at40[1:], at80[1:])
    )
    check(
        5, "trace moments", first_ok and higher_ok,
        f"m=1 gap {at40[0].rel_gap:.1e} (<1e-6); "
        + ", ".join(f"m={m.order}: {m.rel_gap:.3f}->{m80.rel_gap:.3f}"
                    for m, m80 in zip(at40[1:], at80[1:])),
    )


def test_criterion_06_spectrum_containment(fd_matrices, be_matrices):
    worst = 0.0
    ok = True
    for m in fd_matrices.values():
        tol = 1e-8 * m.norm
        lo, hi = float(m.eigenvalues.min()), float(m.eigenvalues.max())
        ok = ok and lo >= -tol and hi <= m.spectral_bound + tol
        worst = max(worst, -lo, hi - m.spectral_bound)
    for m in be_matrices.values():
        tol = 1e-8 * m.norm
        lo, hi = float(m.eigenvalues.min()), float(m.eigenvalues.max())
        ok = ok and hi <= tol and lo >= m.spectral_bound - tol
        worst = max(worst, hi, m.spectral_bound - lo)
    check(6, "spectrum containment", ok,
          f"worst excursion beyond the continuum interval {worst:.2e} "
          f"(tolerance 1e-8 ||K||), both statistics, all sizes")


def test_criterion_07_lambda_max_monotone(be_matrices):
    values = [lambda_max(be_matrices[L].law, BE1_D1.beta) for L in (10.0, 20.0, 40.0)]
    decreasing = values[0] > values[1] > values[2]
    above = all(v > 1.0 for v in values)
    check(7, "bosonic tilt ceiling", decreasing and above,
          f"lambda_max over L=10,20,40: {[round(v, 6) for v in values]} "
          f"(strictly decreasing toward -mu=1, always above)")


def test_criterion_08_ldp_with_chebyshev(fd_matrices, fd_dists, fd_ctx):
    target = rate_value(0.25, fd_ctx).f
    gaps = []
    bounds_ok = True
    for L in (20.0, 40.0, 80.0):
        m = fd_matrices[L]
        val = window_log_prob(fd_dists[L].pmf, m.volume, FD0.beta, 0.25, 0.30)
        gaps.append(abs(val - target))
        bounds_ok = bounds_ok and (val <= chebyshev_bound(m.law, m.volume, FD0.beta, 0.25))
    monotone = gaps[0] > gaps[1] > gaps[2]
    check(
        8, "interval LDP + sharp Chebyshev", monotone and bounds_ok,
        f"gaps to f(0.25)={target:.5f}: {[round(g, 4) for g in gaps]} "
        f"(monotone {monotone}); exact finite-size bound holds: {bounds_ok}",
    )


def test_criterion_09_clt_cumulants(fd_matrices):
    scaled = {L: clt_cumulants(fd_matrices[L].law, L) for L in (20.0, 80.0)}
    c2 = scaled[80.0][1]
    gap = abs(c2 - oracle.FD_DRHO_D1_MU0) / oracle.FD_DRHO_D1_MU0
    c3_20 = abs(scaled[20.0][2])
    c3_80 = abs(scaled[80.0][2])
    shrink = c3_80 < 0.6 * c3_20
    check(
        9, "central-limit cumulants", gap < 0.02 and shrink,
        f"C(2)@80 = {c2:.6f} vs {oracle.FD_DRHO_D1_MU0:.6f} (rel {gap:.3f} < 0.02); "
        f"|C(3)| 20->80: {c3_20:.2e}->{c3_80:.2e} (ratio {c3_80 / c3_20:.2f} < 0.6)",
    )


def test_criterion_10_exponential_tilting(fd_matrices, fd_ctx):
    lam0 = minimizer(0.25, fd_ctx)
    mean80, var80 = tilted_moments(fd_matrices[80.0].law, 80.0, FD0.beta, lam0)
    mean_gap = abs(mean80 - 0.25) / 0.25
    target = translated_pressure(lam0, FD0, D1, order=2)
    var_gap = abs(var80 - target) / target
    check(
        10, "exponential tilting", mean_gap < 0.02 and var_gap < 0.10,
        f"tilted mean density {mean80:.4f} vs 0.25 (rel {mean_gap:.4f} < 0.02); "
        f"beta var/L {var80:.5f} vs {target:.5f} (rel {var_gap:.4f} < 0.10)",
    )


def test_criterion_11_kernel_decay(fd_kernel):
    slope1 = decay_exponent(fd_kernel, (2.0, 10.0))
    d3_tab = build_kernel(FD0, D3M, h=0.05, extent=1024.0)
    slope3 = decay_exponent(d3_tab, (2.0, 30.0))
    check(
        11, "kernel decay exponents",
        slope1 <= -1.5 and slope3 <= -3.5,
        f"d=1 smooth symbol slope {slope1:.2f} (<= -1.5); "
        f"d=3 corner symbol slope {slope3:.2f} (<= -3.5)",
    )


def test_criterion_12_kac_distribution(kac_results, kac_density):
    t0 = time.perf_counter()
    res12, res16 = kac_results[12.0], kac_results[16.0]
    ratio = res16.sample_variance / res12.sample_variance
    stable = 0.5 <= ratio <= 2.0
    check(
        12, "condensate density variance is size-stable", stable,
        f"var(N/V): {res12.sample_variance:.4f}@12 -> {res16.sample_variance:.4f}@16 "
        f"(ratio {ratio:.2f} in [0.5, 2])",
    )
    # Convergence to the Kac law, split by the triangle inequality
    #   KS(box, Kac@rho_c) <= KS(box, Kac@loc_ell) + D(loc_ell, rho_c):
    # the box law's shape is already Kac's, located at the box's normal
    # density loc_ell = rho_c - C/ell, and that location tends to rho_c at
    # rate 1/ell.  C = 2m |Z_3(1)| / (4 pi^2 beta) is the continued lattice
    # sum of 2m/(beta k^2) over the nonzero box modes (oracle_series).
    a = kac_density
    rho_c = oracle.BE_RHOC_D3
    c = oracle.box_normal_deficit(1.0, mass=1.0)
    loc16 = rho_c - c / 16.0
    ks_shape = ks_to_kac(res16.samples, loc16, a)
    d_loc = kac_location_gap(loc16, rho_c, a)
    check(
        12, "condensate law vs Kac law at the box location rho_c - C/ell",
        ks_shape < 0.05,
        f"KS@16 = {ks_shape:.4f} (< 0.05 required) at location {loc16:.4f}; "
        f"to the limiting law at rho_c {rho_c:.4f}: {res16.ks_distance:.4f} "
        f"<= {ks_shape:.4f} + D_loc(16) {d_loc:.4f} = {ks_shape + d_loc:.4f}",
    )
    sizes = (12.0, 16.0, 24.0, 32.0)
    devs = [abs(ell * (rho_c - box_normal_density(ell, a)) - c) / c for ell in sizes]
    shrinking = all(later < earlier for earlier, later in zip(devs, devs[1:]))
    elapsed = time.perf_counter() - t0
    check(
        12, "box normal density -> rho_c as C/ell",
        max(devs) < 0.03 and shrinking and elapsed < 600.0,
        f"|ell (rho_c - rho_V^n) - C| / C over ell={[int(l) for l in sizes]}: "
        f"{[round(d, 4) for d in devs]} (< 0.03, strictly decreasing: {shrinking}); "
        f"C = {c:.6f}",
    )


def test_criterion_12_kac_evidence_at_larger_boxes(kac_results, kac_density):
    # sampled evidence beside criterion 12: the limiting-law distance falls
    # with the box side while the shape at the box location stays Kac's
    a = kac_density
    rho_c = oracle.BE_RHOC_D3
    c = oracle.box_normal_deficit(1.0, mass=1.0)
    results = {16.0: kac_results[16.0]}
    for i, ell in enumerate((24.0, 32.0), start=2):
        lat = ModeLattice.build(BE1_D3, D3, ell)
        results[ell] = kac_test(lat, a, 10_000, seed=np.random.SeedSequence([SEED, i]))
    ks_lim = [res.ks_distance for res in results.values()]
    ks_shape = [ks_to_kac(res.samples, rho_c - c / ell, a) for ell, res in results.items()]
    falling = all(later < earlier for earlier, later in zip(ks_lim, ks_lim[1:]))
    check(
        12, "sampled Kac evidence at ell = 16, 24, 32",
        falling and max(ks_shape) < 0.05,
        f"KS to the limiting law {[round(k, 4) for k in ks_lim]} (strictly decreasing: "
        f"{falling}); KS at rho_c - C/ell {[round(k, 4) for k in ks_shape]} (< 0.05)",
    )


def test_criterion_13_determinism():
    gf_cfg = ExperimentConfig(
        kind="gf", statistics=FD, dispersion="nonrelativistic", mass=0.5,
        dimension=1, beta=1.0, mu=0.0, lam=0.5, sizes=(10.0, 20.0), h=0.05,
        seed=SEED,
    )
    kac_cfg = ExperimentConfig(
        kind="kac", statistics=BE, dispersion="nonrelativistic", mass=1.0,
        dimension=3, beta=1.0, mu=-1.0, sizes=(6.0,), samples=400,
        tolerance=0.9, seed=SEED,
    )
    ok = True
    for cfg in (gf_cfg, kac_cfg):
        blob1 = json.dumps(run_experiment(cfg).numeric_payload(), sort_keys=True)
        blob2 = json.dumps(run_experiment(cfg).numeric_payload(), sort_keys=True)
        ok = ok and blob1 == blob2
    check(13, "seeded determinism", ok,
          "gf and kac records byte-identical across reruns (timings excluded)")
