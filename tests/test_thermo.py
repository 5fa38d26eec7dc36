import math

import numpy as np
import pytest

from ldgas import thermo
from ldgas.dispersion import DispersionRelation
from ldgas.errors import AccuracyError, DomainError
from ldgas.thermo import (
    BE,
    FD,
    ThermoState,
    critical_density,
    density,
    equation_of_state,
    _log_weight_from_w,
    _occ_from_w,
    pressure,
    pressure_derivatives,
    translated_pressure,
)

import oracle_series as oracle

D1 = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)   # eps = k^2
D3 = DispersionRelation.nonrelativistic(mass=1.0, dimension=3)   # eps = k^2/2
FD0 = ThermoState(1.0, 0.0, FD)
BE1 = ThermoState(1.0, -1.0, BE)


class TestOccupation:
    def test_fd_zero_momentum(self):
        assert FD0.occupation(0.0, D1) == pytest.approx(0.5)

    def test_be_closed_form(self):
        assert BE1.occupation(0.0, D1) == pytest.approx(1.0 / (math.e - 1.0))

    def test_fd_unit_momentum(self):
        assert FD0.occupation(1.0, D1) == pytest.approx(1.0 / (math.e + 1.0))

    def test_vectorized(self):
        k = np.array([0.0, 1.0, 2.0])
        out = FD0.occupation(k, D1)
        assert out.shape == (3,)
        assert np.all(out > 0) and np.all(np.diff(out) < 0)

    def test_be_rejects_mu_at_spectrum(self):
        with pytest.raises(DomainError):
            ThermoState(1.0, 0.0, BE)


class TestStateValidation:
    def test_beta_positive(self):
        with pytest.raises(DomainError):
            ThermoState(0.0, 0.0, FD)

    def test_sigma_flag(self):
        with pytest.raises(DomainError):
            ThermoState(1.0, 0.0, 3)


class TestEquationOfState:
    def test_fd_d1_pressure_series_oracle(self):
        p = pressure(FD0, D1)
        assert abs(p - oracle.FD_P_D1_MU0) / oracle.FD_P_D1_MU0 < 1e-8

    def test_fd_d1_density_series_oracle(self):
        r = density(FD0, D1)
        assert abs(r - oracle.FD_RHO_D1_MU0) / oracle.FD_RHO_D1_MU0 < 1e-8

    def test_be_d3_density_polylog_oracle(self):
        r = density(ThermoState(1.0, -1.0, BE), D3)
        tgt = oracle.be_density_d3(1.0, -1.0)
        assert abs(r - tgt) / tgt < 1e-8

    @pytest.mark.parametrize("mu", [-0.25, -1.0, -3.0])
    def test_series_quadrature_equivalence_fd(self, mu):
        st = ThermoState(1.0, mu, FD)
        assert pressure(st, D1) == pytest.approx(oracle.fd_pressure_d1(1.0, mu), rel=1e-8)
        assert density(st, D1) == pytest.approx(oracle.fd_density_d1(1.0, mu), rel=1e-8)

    @pytest.mark.parametrize("mu", [-0.5, -2.0])
    def test_series_quadrature_equivalence_be(self, mu):
        st = ThermoState(1.0, mu, BE)
        tgt = oracle.be_pressure_d3(1.0, mu)
        assert pressure(st, D3) * 1.0 == pytest.approx(tgt, rel=1e-8)

    def test_dilute_limit(self):
        st = ThermoState(1.0, -50.0, BE)
        assert pressure(st, D3) < 1e-15
        assert density(st, D3) < 1e-15

    def test_eos_result_bundles_errors(self):
        res = equation_of_state(FD0, D1)
        assert res.pressure_error < 1e-10 * res.pressure
        assert res.density_error < 1e-10 * res.density

    def test_tolerance_must_be_positive(self):
        with pytest.raises(DomainError):
            pressure(FD0, D1, tol=0.0)


class TestCriticalDensity:
    def test_d3_value(self):
        rc = critical_density(1.0, D3)
        assert abs(rc - oracle.BE_RHOC_D3) / oracle.BE_RHOC_D3 < 1e-6

    def test_low_dimension_sentinel(self):
        assert critical_density(1.0, D1) == math.inf

    def test_fd_sentinel(self):
        assert critical_density(1.0, D3, statistics=FD) == math.inf
        with pytest.raises(DomainError):
            critical_density(-1.0, D3, statistics=FD)

    @pytest.mark.parametrize("statistics", [0, 7])
    def test_unknown_statistics_is_refused(self, statistics):
        with pytest.raises(DomainError, match="statistics"):
            critical_density(1.0, D3, statistics=statistics)


class TestTranslatedPressure:
    def test_g_zero_is_exactly_zero(self):
        assert translated_pressure(0.0, FD0, D1) == 0.0
        assert translated_pressure(0.0, BE1, D3) == 0.0

    def test_gprime_zero_is_density(self):
        g1 = translated_pressure(0.0, FD0, D1, order=1)
        assert g1 == pytest.approx(density(FD0, D1), rel=1e-12)

    def test_fd_g_against_independent_quadrature(self):
        # mu + lam > 0 is outside the series domain: use the mpmath oracle
        got = translated_pressure(0.5, FD0, D1)
        assert got == pytest.approx(0.099349402667801337, rel=1e-9)

    def test_be_infinite_sentinel(self):
        assert translated_pressure(1.5, BE1, D3) == math.inf

    def test_be_edge_limit_finite(self):
        g_edge = translated_pressure(1.0, BE1, D3)
        expect = oracle.be_pressure_d3(1.0, 0.0) - oracle.be_pressure_d3(1.0, -1.0)
        assert g_edge == pytest.approx(expect, rel=1e-7)

    def test_be_derivative_domain_errors(self):
        for order in (1, 2):
            with pytest.raises(DomainError):
                translated_pressure(1.0, BE1, D3, order=order)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            translated_pressure(0.0, FD0, D1, order=3)

    def test_convexity_on_grid(self):
        lams = np.linspace(-2.0, 1.5, 41)
        g = np.array([translated_pressure(l, FD0, D1) for l in lams])
        scale = np.max(np.abs(g))
        chords = 0.5 * (g[:-2] + g[2:])
        assert np.all(g[1:-1] <= chords + 1e-9 * scale)

    def test_monotone_derivatives(self):
        lams = np.linspace(-2.0, 1.5, 15)
        g1 = np.array([translated_pressure(l, FD0, D1, order=1) for l in lams])
        g2 = np.array([translated_pressure(l, FD0, D1, order=2) for l in lams])
        assert np.all(g1 > 0)
        assert np.all(g2 > 0)
        assert np.all(np.diff(g1) > 0)

    @pytest.mark.parametrize("lam", [-1.0, -0.3, 0.4, 1.2])
    def test_finite_difference_consistency(self, lam):
        h = 1e-4
        g = lambda l: translated_pressure(l, FD0, D1, tol=1e-12)
        fd1 = (g(lam + h) - g(lam - h)) / (2 * h)
        fd2 = (g(lam + h) - 2 * g(lam) + g(lam - h)) / h ** 2
        assert fd1 == pytest.approx(translated_pressure(lam, FD0, D1, order=1), rel=1e-5)
        assert fd2 == pytest.approx(translated_pressure(lam, FD0, D1, order=2), rel=1e-4)

    def test_large_negative_tilt_limits(self):
        p0 = pressure(FD0, D1)
        prev_g, prev_g1 = None, None
        for lam in (-5.0, -10.0, -20.0):
            g = translated_pressure(lam, FD0, D1)
            g1 = translated_pressure(lam, FD0, D1, order=1)
            assert g1 > 0
            if prev_g is not None:
                # monotone approach of g -> -p and g' -> 0
                assert abs(g + p0) < abs(prev_g + p0)
                assert g1 < prev_g1
            prev_g, prev_g1 = g, g1
        assert abs(prev_g + p0) < 1e-3 * p0
        assert prev_g1 < 1e-4

    def test_be_gprime_approaches_rho_c(self):
        rc = critical_density(1.0, D3)
        gaps = []
        for delta in (0.1, 0.01, 0.001):
            g1 = translated_pressure(1.0 - delta, BE1, D3, order=1)
            gaps.append(rc - g1)
        assert all(g > 0 for g in gaps)
        assert gaps[2] < gaps[1] < gaps[0]
        # sqrt(delta) approach for gamma=2 in d=3
        assert gaps[2] < 0.05 * rc

    def test_susceptibility_series_equivalence(self):
        st = ThermoState(1.0, -1.0, FD)
        got = translated_pressure(0.0, st, D1, order=2)
        assert got == pytest.approx(oracle.fd_susceptibility_d1(1.0, -1.0), rel=1e-8)


class TestRelativisticDispersions:
    def test_massive_pressure_against_mp_quadrature(self):
        import mpmath as mp

        disp = DispersionRelation.relativistic(mass=1.0, c=1.0, dimension=3)
        st = ThermoState(1.0, -0.5, BE)
        want = oracle.mp_pressure(1.0, -0.5, BE, lambda k: mp.hypot(1, k) - 1, 3)
        assert pressure(st, disp) == pytest.approx(want, rel=1e-8)

    def test_massless_density_against_mp_quadrature(self):
        disp = DispersionRelation.massless(c=1.0, dimension=3)
        st = ThermoState(1.0, 0.0, FD)
        want = oracle.mp_density(1.0, 0.0, FD, lambda k: k, 3)
        assert density(st, disp) == pytest.approx(want, rel=1e-8)


def test_custom_table_dispersion_eos(tmp_path):
    k = np.linspace(0.0, 40.0, 16001)
    path = tmp_path / "quad.txt"
    np.savetxt(path, np.column_stack([k, k ** 2]))
    d = DispersionRelation.load_table(path, dimension=1)
    # piecewise-linear energies put kinks in the integrand and an O(h^2)
    # interpolation bias: relax both budgets accordingly
    p_table = pressure(FD0, d, tol=1e-4)
    assert p_table == pytest.approx(oracle.FD_P_D1_MU0, rel=2e-5)


class TestIntegrandForms:
    """The BE occupation and log-weight against mpmath, free of 1 - e^{-w} cancellation."""

    @pytest.mark.parametrize("w", np.logspace(-15, -3, 13).tolist() + [0.5, 0.7, 1.0, 30.0, 700.0])
    def test_be_forms_against_mpmath(self, w):
        import mpmath as mp

        with mp.workdps(40):
            occ = 1 / mp.expm1(mp.mpf(w))
            log_weight = -mp.log1p(-mp.exp(-mp.mpf(w)))
        assert abs(_occ_from_w(w, BE) / float(occ) - 1.0) <= 1e-14
        assert abs(_log_weight_from_w(w, BE) / float(log_weight) - 1.0) <= 1e-14


class TestEngine:
    """The Gauss-Legendre radial engine behind every public thermo function."""

    @pytest.mark.parametrize("gas", ["FD1", "BE1", "BE3", "relFD3", "relBE3"])
    def test_array_call_equals_scalar_calls_bitwise(self, gas):
        rel = DispersionRelation.relativistic(1.0, 1.0, 3)
        disp, sigma, all_mus = {
            "FD1": (D1, FD, np.linspace(-6.0, 6.0, 25)),
            # mu = 0: the density diverges and is left out of the order-1 pass
            "BE1": (D1, BE, np.append(-np.logspace(-6.0, 1.0, 12), 0.0)),
            "BE3": (D3, BE, -np.logspace(-9.0, 1.0, 21)),
            # the domain needs the panel-doubling round: 4 panels, 8 from mu = 20
            "relFD3": (rel, FD, np.linspace(-4.0, 40.0, 12)),
            "relBE3": (rel, BE, -np.logspace(-6.0, 1.0, 15)),
        }[gas]
        for orders in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)):
            mus = all_mus[all_mus < 0] if sigma == BE and 2 in orders else all_mus
            batch = pressure_derivatives(mus, 1.0, sigma, disp, orders)
            one_by_one = np.stack([pressure_derivatives(mu, 1.0, sigma, disp, orders) for mu in mus], axis=-1)
            assert batch.shape == (len(orders), mus.size)
            assert np.array_equal(batch, one_by_one)
            assert np.array_equal(batch[:, ::-1], pressure_derivatives(mus[::-1], 1.0, sigma, disp, orders))

    def test_scalar_wrappers_match_the_engine(self):
        st = ThermoState(1.0, -0.7, BE)
        p, r, chi = pressure_derivatives(st.mu, 1.0, BE, D3)
        assert pressure(st, D3) == p and density(st, D3) == r
        assert translated_pressure(0.0, st, D3, order=1) == r
        assert translated_pressure(0.0, st, D3, order=2) == chi
        for order in (1, 2):
            want = pressure_derivatives(st.mu + 0.2, 1.0, BE, D3, (order,))[0]
            assert translated_pressure(0.2, st, D3, order=order) == want
        assert critical_density(1.0, D3) == pressure_derivatives(0.0, 1.0, BE, D3, (1,))[0]

    @pytest.mark.parametrize("mu", [-1e-8, 0.0])
    def test_be_d3_near_condensation_against_mpmath(self, mu):
        eps = lambda k: k * k / 2
        p, r = pressure_derivatives(mu, 1.0, BE, D3, (0, 1))
        assert p == pytest.approx(oracle.mp_pressure(1.0, mu, BE, eps, 3), rel=1e-10)
        assert r == pytest.approx(oracle.mp_density(1.0, mu, BE, eps, 3), rel=1e-10)
        if mu == 0.0:
            assert p == pytest.approx(oracle.BE_P_D3_MU0, rel=1e-10)
            assert critical_density(1.0, D3) == pytest.approx(oracle.BE_RHOC_D3, rel=1e-10)

    def test_relativistic_be_at_condensation_against_mpmath(self):
        import mpmath as mp

        disp = DispersionRelation.relativistic(mass=1.0, c=1.0, dimension=3)
        eps = lambda k: k * k / (mp.sqrt(1 + k * k) + 1)  # sqrt(1 + k^2) - 1 without cancellation
        p, r = pressure_derivatives(0.0, 1.0, BE, disp, (0, 1))
        assert p == pytest.approx(oracle.mp_pressure(1.0, 0.0, BE, eps, 3), rel=1e-10)
        assert r == pytest.approx(oracle.mp_density(1.0, 0.0, BE, eps, 3), rel=1e-10)
        assert critical_density(1.0, disp) == r

    def test_impossible_budget_raises_with_estimate(self):
        with pytest.raises(AccuracyError) as info:
            pressure(FD0, D1, tol=1e-20)
        assert info.value.estimate is not None and 0.0 < info.value.estimate < 1e-10

    def test_error_estimates_meet_the_budget(self):
        for tol in (1e-6, 1e-10, 1e-12):
            res = equation_of_state(BE1, D3, tol=tol)
            assert res.pressure_error <= tol * res.pressure
            assert res.density_error <= tol * res.density

    def test_domain(self):
        with pytest.raises(DomainError):
            pressure_derivatives(0.1, 1.0, BE, D3, (0,))
        with pytest.raises(DomainError):
            pressure_derivatives(0.0, 1.0, BE, D3, (2,))
        p, r = pressure_derivatives(np.array([-1.0, 0.0]), 1.0, BE, D1, (0, 1))
        assert np.isfinite(p).all() and r[1] == math.inf and np.isfinite(r[0])


def test_threads_extending_one_grid_agree_with_a_serial_run():
    import sys
    import threading

    mus = np.linspace(-5.0, 400.0, 12)
    reference = pressure_derivatives(mus, 1.0, FD, DispersionRelation.nonrelativistic(0.5, 1), (0, 1))
    disp = DispersionRelation.nonrelativistic(0.5, 1)  # a fresh grid, extended by the threads below
    results = [None] * 8

    def work(i):
        results[i] = pressure_derivatives(mus, 1.0, FD, disp, (0, 1))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for r in results:
        assert np.array_equal(r, reference)


# ---------------------------------------------------------------------------
# in-house numerics: Gauss-Legendre rule, Brent root-finder, integrator
# (scipy is an independent oracle here; the package does not import it)
# ---------------------------------------------------------------------------

class TestGaussLegendre:
    @pytest.mark.parametrize("n", [24, 48, 197])
    def test_matches_scipy(self, n):
        from scipy.special import roots_legendre

        x, w = thermo._gauss_legendre(n)
        xs, ws = roots_legendre(n)
        assert np.max(np.abs(x - xs)) <= 1e-15
        assert np.max(np.abs(w / ws - 1.0)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 394])
    def test_exact_for_polynomials_to_degree_2n_minus_1(self, n):
        x, w = thermo._gauss_legendre(n)
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for k in range(0, n, max(1, n // 5)):  # int_{-1}^1 x^{2k} = 2 / (2k + 1)
            assert np.dot(w, x ** (2 * k)) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)

    def test_weights_against_mpmath(self):
        import mpmath as mp

        n = 1000
        x, w = thermo._gauss_legendre(n)
        with mp.workdps(40):
            for i in (0, 3, n // 3, n // 2):  # near the end, where the weights are hardest
                r = mp.findroot(lambda t: mp.legendre(n, t), mp.mpf(x[i]))
                d = mp.diff(lambda t: mp.legendre(n, t), r)
                assert abs(x[i] - r) <= 1e-16
                assert w[i] == pytest.approx(float(2 / ((1 - r * r) * d * d)), rel=1e-11)

    def test_cached_and_read_only(self):
        x, w = thermo._gauss_legendre(24)
        assert thermo._gauss_legendre(24)[0] is x
        with pytest.raises(ValueError):
            w[0] = 1.0


class TestBrent:
    @staticmethod
    def _recorded(monkeypatch, module, call):
        """Run ``call`` and return the (f, lo, hi, options) it passed to ``module._brent``."""
        seen = []
        original = thermo._brent

        def recording(f, lo, hi, **options):
            seen.append((f, lo, hi, options))
            return original(f, lo, hi, **options)

        monkeypatch.setattr(module, "_brent", recording)
        result = call()
        assert len(seen) == 1
        return result, seen[0]

    @pytest.mark.parametrize("disp", [D1, D3, DispersionRelation.relativistic(1.0, 1.0, 3),
                                      DispersionRelation.massless(2.0, 3)])
    @pytest.mark.parametrize("beta", [0.3, 1.0, 40.0])
    def test_thermal_wavevector_against_brentq(self, monkeypatch, disp, beta):
        from scipy.optimize import brentq

        k1, (f, lo, hi, options) = self._recorded(
            monkeypatch, thermo, lambda: thermo._thermal_wavevector.__wrapped__(beta, disp))
        assert k1 == pytest.approx(brentq(f, lo, hi, **options), rel=0, abs=1e-14)
        assert beta * float(disp.evaluate(k1)) == pytest.approx(1.0, rel=1e-11)

    @pytest.mark.parametrize("a", [0.01, 0.1, 0.5])
    def test_solve_lambda_v_against_brentq(self, monkeypatch, a):
        from scipy.optimize import brentq

        from ldgas import modes

        lat = modes.ModeLattice.build(BE1, D3, 8.0)
        lam, (f, lo, hi, options) = self._recorded(
            monkeypatch, modes, lambda: modes.solve_lambda_V(lat, a))
        assert lam == pytest.approx(brentq(f, lo, hi, **options), rel=0, abs=1e-14)

    def test_raises_without_a_bracket(self):
        with pytest.raises(DomainError):
            thermo._brent(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-14, rtol=1e-12)

    def test_raises_when_steps_run_out(self):
        with pytest.raises(AccuracyError) as info:
            thermo._brent(lambda x: x ** 3 - 2.0, 0.0, 4.0, xtol=1e-14, rtol=1e-12, maxiter=3)
        assert info.value.estimate > 0.0


class TestIntegrate:
    @pytest.mark.parametrize("f, a, b, exact", [
        (np.sin, 0.0, math.pi, 2.0),
        (lambda x: x ** 5, 0.0, 1.0, 1.0 / 6.0),
        (lambda x: np.exp(-x), 0.0, 10.0, -math.expm1(-10.0)),
        (lambda x: np.exp(-0.5 * x * x), 0.0, 600.0, math.sqrt(0.5 * math.pi)),
        (lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, 200.0 * math.atan(100.0)),
    ])
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_meets_tol_on_closed_forms(self, f, a, b, exact, tol):
        value, error = thermo._integrate(f, a, b, tol)
        assert error <= tol * abs(value)
        assert abs(value - exact) <= tol * abs(exact)

    def test_uncertifiable_integrand_raises_with_estimate(self):
        with pytest.raises(AccuracyError) as info:  # needs thousands of panels, past the leaf cap
            thermo._integrate(lambda x: np.sin(1e5 * x), 0.0, 1.0, 1e-10)
        assert info.value.estimate > 1e-10 * (1.0 - math.cos(1e5)) / 1e5

    def test_leaf_cap_shared_with_radial_engine(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.sin(1e5 * x)

        with pytest.raises(AccuracyError):
            thermo._integrate(f, 0.0, 1.0, 1e-10)
        assert len(calls) <= 1 + thermo._MAX_LEAVES  # [a, b], then two panels per bisection

    def test_budget_below_rounding_raises(self):
        with pytest.raises(AccuracyError) as info:
            thermo._integrate(np.sin, 0.0, math.pi, 1e-20)
        assert 0.0 < info.value.estimate < 1e-12
