import math

import numpy as np
import pytest

from ldgas.dispersion import DispersionRelation
from ldgas.errors import DomainError
from ldgas.rate import RateContext, interval_rate, minimizer, rate_value
from ldgas.thermo import BE, FD, ThermoState, pressure, translated_pressure

D1 = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)
D3 = DispersionRelation.nonrelativistic(mass=1.0, dimension=3)


@pytest.fixture(scope="module")
def fd_ctx():
    return RateContext.build(ThermoState(1.0, 0.0, FD), D1)


@pytest.fixture(scope="module")
def be_ctx():
    return RateContext.build(ThermoState(1.0, -1.0, BE), D3)


def grid_minimization_oracle(ctx, x, lam_lo=-12.0, lam_hi=None):
    """Dense lambda-grid minimization of g(lam) - lam x (independent route).

    Convexity makes a coarse argmin's neighbours a rigorous bracket, so the
    1e-4-step grid only needs to cover that bracket."""
    if lam_hi is None:
        lam_hi = 3.0 if math.isinf(ctx.lambda_upper) else ctx.lambda_upper - 1e-6
    coarse = np.linspace(lam_lo, lam_hi, 121)
    vals = np.array([ctx.g(l) for l in coarse]) - coarse * x
    i = int(np.argmin(vals))
    lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, coarse.size - 1)]
    lams = np.arange(lo, hi, 1e-4)
    vals = np.array([ctx.g(l) for l in lams]) - lams * x
    i = int(np.argmin(vals))
    return float(vals[i]), float(lams[i])


class TestMinimizer:
    def test_mean_density_gives_zero(self, fd_ctx):
        lam0 = minimizer(fd_ctx.rho_bar, fd_ctx)
        assert abs(lam0) < 1e-9

    def test_nonpositive_density_sentinel(self, fd_ctx):
        assert minimizer(-1.0, fd_ctx) == -math.inf
        assert minimizer(0.0, fd_ctx) == -math.inf

    def test_be_condensed_branch(self, be_ctx):
        assert minimizer(2.0 * be_ctx.rho_c, be_ctx) == -be_ctx.state.mu

    @pytest.mark.parametrize("x", [0.05, 0.25, 0.4])
    def test_root_condition(self, fd_ctx, x):
        lam0 = minimizer(x, fd_ctx)
        assert fd_ctx.gprime(lam0) == pytest.approx(x, rel=1e-9)

    def test_nondecreasing_and_sign(self, fd_ctx):
        xs = [0.02, 0.1, fd_ctx.rho_bar, 0.25, 0.4]
        lams = [minimizer(x, fd_ctx) for x in xs]
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        for x, lam in zip(xs, lams):
            if x > fd_ctx.rho_bar + 1e-12:
                assert lam > 0
            elif x < fd_ctx.rho_bar - 1e-12:
                assert lam < 0

    def test_be_subcritical_root(self, be_ctx):
        x = 0.5 * be_ctx.rho_c
        lam0 = minimizer(x, be_ctx)
        assert lam0 < be_ctx.lambda_upper
        assert be_ctx.gprime(lam0) == pytest.approx(x, rel=1e-9)


class TestNewton:
    """The safeguarded Newton minimizer against its residual budget and the grid oracle."""

    @pytest.mark.parametrize("which, frac", [("fd", 0.05), ("fd", 0.6), ("fd", 2.5),
                                             ("be", 0.1), ("be", 3.0), ("be", 5.9)])
    def test_residual_within_tol(self, fd_ctx, be_ctx, which, frac):
        ctx = fd_ctx if which == "fd" else be_ctx
        x = frac * ctx.rho_bar
        for tol in (1e-10, 1e-12):
            at_tol = RateContext.build(ctx.state, ctx.disp, tol)
            lam0 = minimizer(x, at_tol)
            assert abs(at_tol.gprime(lam0) - x) <= tol * max(x, at_tol.rho_bar)

    @pytest.mark.parametrize("which, x", [("fd", 0.05), ("be", 0.01), ("be", 0.12)])
    def test_agrees_with_grid_oracle(self, fd_ctx, be_ctx, which, x):
        ctx = fd_ctx if which == "fd" else be_ctx
        pt = rate_value(x, ctx)
        f_oracle, lam_oracle = grid_minimization_oracle(ctx, x)
        assert pt.f == pytest.approx(f_oracle, abs=5e-8)
        assert pt.lam0 == pytest.approx(lam_oracle, abs=2e-4)

    def test_context_pressure_computed_once(self, be_ctx):
        assert be_ctx.p_mu == pressure(be_ctx.state, be_ctx.disp)
        assert be_ctx.g(0.0) == 0.0
        assert be_ctx.g(1.5) == math.inf


class TestRateValue:
    def test_zero_at_mean_density(self, fd_ctx):
        pt = rate_value(fd_ctx.rho_bar, fd_ctx)
        assert abs(pt.f) < 1e-10

    def test_negative_half_line(self, fd_ctx):
        pt = rate_value(-0.5, fd_ctx)
        assert pt.f == -math.inf and pt.lam0 == -math.inf

    def test_origin_value(self, fd_ctx):
        pt = rate_value(0.0, fd_ctx)
        assert pt.f == pytest.approx(-pressure(fd_ctx.state, fd_ctx.disp), rel=1e-10)

    def test_fd_against_grid_oracle(self, fd_ctx):
        pt = rate_value(0.25, fd_ctx)
        f_oracle, lam_oracle = grid_minimization_oracle(fd_ctx, 0.25)
        assert pt.f == pytest.approx(f_oracle, abs=5e-8)
        assert pt.lam0 == pytest.approx(lam_oracle, abs=2e-4)

    def test_be_condensed_affine(self, be_ctx):
        mu = be_ctx.state.mu
        g_edge = translated_pressure(-mu, be_ctx.state, be_ctx.disp)
        for x in (be_ctx.rho_c, 1.5 * be_ctx.rho_c, 2.0 * be_ctx.rho_c):
            pt = rate_value(x, be_ctx)
            assert pt.lam0 == -mu
            assert pt.f == pytest.approx(g_edge + mu * x, rel=1e-12)

    def test_condensation_segment_second_differences(self, be_ctx):
        xs = np.linspace(be_ctx.rho_c, 2.0 * be_ctx.rho_c, 9)
        fs = np.array([rate_value(x, be_ctx).f for x in xs])
        second = np.abs(np.diff(fs, 2))
        assert np.all(second < 1e-9)

    def test_strictly_negative_away_from_mean(self, fd_ctx):
        for x in (0.05, 0.1, 0.3, 0.6):
            assert rate_value(x, fd_ctx).f < 0


class TestDuality:
    def test_double_transform_recovers_g(self, fd_ctx):
        lam_grid = np.linspace(-1.5, 1.0, 11)
        # include each maximizer x*(lam) = g'(lam) in the x grid
        fine = np.linspace(-2.0, 1.2, 65)
        xs = sorted({fd_ctx.gprime(l) for l in np.concatenate([fine, lam_grid])})
        pts = [(x, rate_value(x, fd_ctx).f) for x in xs]
        for lam in lam_grid:
            dual = max(f + lam * x for x, f in pts)
            g = fd_ctx.g(lam)
            assert dual == pytest.approx(g, rel=1e-6)


class TestIntervalRate:
    def test_contains_mean(self, fd_ctx):
        r = fd_ctx.rho_bar
        assert interval_rate(r - 0.01, r + 0.01, fd_ctx) == 0.0

    def test_right_of_mean(self, fd_ctx):
        assert interval_rate(0.25, 0.30, fd_ctx) == pytest.approx(
            rate_value(0.25, fd_ctx).f, rel=1e-12
        )

    def test_left_of_mean(self, fd_ctx):
        assert interval_rate(0.05, 0.10, fd_ctx) == pytest.approx(
            rate_value(0.10, fd_ctx).f, rel=1e-12
        )

    def test_interval_ordering(self, fd_ctx):
        with pytest.raises(DomainError):
            interval_rate(0.3, 0.2, fd_ctx)
