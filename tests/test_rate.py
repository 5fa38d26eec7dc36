import dataclasses
import json
import math
import threading

import numpy as np
import pytest

from ldgas.dispersion import DispersionRelation
from ldgas.errors import AccuracyError, DomainError
from ldgas.rate import RateContext, interval_rate, minimizer, rate_value, rate_values
from ldgas.thermo import BE, FD, ThermoState, pressure, translated_pressure

D1 = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)
D3 = DispersionRelation.nonrelativistic(mass=1.0, dimension=3)


@pytest.fixture(scope="module")
def fd_ctx():
    return RateContext.build(ThermoState(1.0, 0.0, FD), D1)


@pytest.fixture(scope="module")
def be_ctx():
    return RateContext.build(ThermoState(1.0, -1.0, BE), D3)


@pytest.fixture
def fresh_contexts():
    """Clear the context memo before and after the test, so the test sees a build run."""
    RateContext.build.cache_clear()
    yield
    RateContext.build.cache_clear()


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

    @pytest.mark.parametrize("state, disp", [(ThermoState(1.0, 0.0, FD), D1),
                                             (ThermoState(1.0, -1.0, BE), D3)])
    def test_context_build_makes_one_engine_call(self, monkeypatch, fresh_contexts, state, disp):
        from ldgas import rate

        calls = []
        original = rate.pressure_derivatives

        def counted(*args):
            calls.append(args[4])
            return original(*args)

        monkeypatch.setattr(rate, "pressure_derivatives", counted)
        ctx = RateContext.build(state, disp, 1e-10)
        assert calls == [(0, 1)]
        assert repr(ctx.p_mu) == repr(pressure(state, disp, 1e-10))


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


REL = DispersionRelation.relativistic(mass=1.0, c=1.0, dimension=3)
LOCKSTEP_GASES = {
    "fd1": (ThermoState(1.0, 0.0, FD), D1),        # rho_bar 0.1706
    # rho_bar 0.0898; the rung lam = 1 lands on mu + lam = 0.1, where the order-2
    # row bisects, so there a (1,) pass and a (1, 2) pass differ in g' bits
    "fd1_shifted": (ThermoState(1.0, -0.9, FD), D1),
    "be3": (ThermoState(1.0, -1.0, BE), D3),       # rho_bar 0.0272, rho_c 0.1659
    "relfd3": (ThermoState(1.0, 0.0, FD), REL),    # rho_bar 0.190
    "relbe3": (ThermoState(1.0, -0.5, BE), REL),   # rho_bar 0.161, rho_c 0.373
}


def scalar_point(x, ctx):
    """rate_value's point with every engine request answered one tilt at a time."""
    from ldgas import rate

    ctx = dataclasses.replace(ctx, slopes={})  # no ladder slope read from earlier solves
    solve, rows = rate._solve(x, ctx), None
    while True:
        try:
            tilts, orders = solve.send(rows)
        except StopIteration as done:
            lam = done.value
            break
        rows = np.stack([ctx.derivatives(t, orders) for t in tilts], axis=-1)
    if x <= 0:
        return repr((x, -math.inf, -math.inf if x < 0 else -ctx.p_mu))
    return repr((x, lam, ctx.g(lam) - lam * x))


class TestLockstep:
    """``rate_values`` solves several x together and must equal one ``rate_value`` per x, bit for bit.

    Both must also equal each solve answered by scalar engine calls.
    """

    @pytest.mark.parametrize("gas, window", [
        ("fd1", (0.25, 0.30)), ("fd1", (0.05, 0.10)), ("fd1_shifted", (0.1, 0.2)),
        ("be3", (0.005, 0.015)),                  # dilute
        ("be3", (0.05, 0.12)),                    # between rho_bar and rho_c
        ("be3", (0.2, 0.35)),                     # condensed: both ends affine
        ("fd1", (0.1, 0.3)), ("be3", (0.01, 0.1)), ("relfd3", (0.1, 0.3)),  # around rho_bar
        ("be3", (0.1, 0.3)), ("relbe3", (0.3, 0.5)),                        # around rho_c
        ("fd1", (0.0, 0.1)), ("be3", (0.0, 0.3)),                           # x = 0
        ("relfd3", (0.21, 0.24)), ("relbe3", (0.02, 0.05)), ("relbe3", (0.18, 0.21)),
    ])
    def test_window_ends_equal_solo_solves(self, gas, window):
        ctx = RateContext.build(*LOCKSTEP_GASES[gas])
        together = rate_values(window, ctx)
        alone = [rate_value(x, ctx) for x in window]
        assert [repr((p.x, p.lam0, p.f)) for p in together] == [repr((p.x, p.lam0, p.f)) for p in alone]
        assert [repr((p.x, p.lam0, p.f)) for p in alone] == [scalar_point(x, ctx) for x in window]

    def test_many_points_equal_solo_solves(self, be_ctx):
        xs = [-0.1, 0.0, 0.004, 0.02, be_ctx.rho_bar, 0.1, be_ctx.rho_c, 0.3, 0.3]
        together = rate_values(xs, be_ctx)
        assert [repr((p.x, p.lam0, p.f)) for p in together] == [scalar_point(x, be_ctx) for x in xs]
        assert [p.lam0 for p in together] == [minimizer(x, be_ctx) for x in xs]

    def test_fd_window_engine_calls(self, monkeypatch):
        from ldgas import thermo
        from ldgas.harness import config_from_mapping, run_experiment

        calls = []
        original = thermo._derivatives

        def counted(*args):
            calls.append(args[4])
            return original(*args)

        cfg = config_from_mapping({"kind": "rate", "statistics": "FD", "dispersion": "nonrelativistic",
                                   "mass": "0.5", "dimension": "1", "beta": "1.0", "mu": "0.0",
                                   "interval": "0.25, 0.30"})
        monkeypatch.setattr(thermo, "_derivatives", counted)
        run_experiment(cfg)
        # rho_bar with p(mu), both ends' ladders, the Newton steps side by side, g at both minimizers
        assert len(calls) <= 9


def point_reprs(points):
    return [repr((p.x, p.lam0, p.f)) for p in points]


class TestSharedContext:
    """One memoized context per gas; its ladder-slope table changes no bit of any point."""

    def test_equal_gases_share_one_context(self, fresh_contexts):
        first = RateContext.build(ThermoState(1.0, -1.0, BE),
                                  DispersionRelation.nonrelativistic(mass=1.0, dimension=3), 1e-10)
        second = RateContext.build(ThermoState(1.0, -1.0, BE),
                                   DispersionRelation.nonrelativistic(mass=1.0, dimension=3), 1e-10)
        assert second is first
        info = RateContext.build.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("tol, refusal", [(-1.0, DomainError), (1e-30, AccuracyError)])
    def test_refused_build_is_not_cached(self, fresh_contexts, tol, refusal):
        state = ThermoState(1.0, -1.0, BE)
        for _ in range(2):
            with pytest.raises(refusal):  # the second build runs again and is refused again
                RateContext.build(state, D3, tol)
        info = RateContext.build.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    @pytest.mark.parametrize("gas, warm_x, new_x", [
        ("fd1", 0.25, 0.28), ("fd1", 0.05, 0.08),
        ("be3", 0.005, 0.008), ("be3", 0.05, 0.12),
    ])
    def test_warm_context_asks_for_no_ladder_rung(self, monkeypatch, fresh_contexts, gas, warm_x, new_x):
        from ldgas import rate

        ctx = RateContext.build(*LOCKSTEP_GASES[gas])
        rate_values((warm_x,), ctx)
        asked = []
        original = rate.pressure_derivatives

        def spied(mu, *args):
            asked.extend(np.atleast_1d(mu - ctx.state.mu).tolist())
            return original(mu, *args)

        monkeypatch.setattr(rate, "pressure_derivatives", spied)
        warm = rate_values((new_x,), ctx)
        doubling = 2.0 ** np.arange(rate._BRACKET_LIMIT_POW + 1) / ctx.state.beta
        rungs = set(np.concatenate([doubling, -doubling]).tolist())
        assert asked and not rungs.intersection(asked)
        monkeypatch.undo()
        assert point_reprs(warm) == [scalar_point(new_x, ctx)]

    @pytest.mark.parametrize("gas", ["fd1", "be3", "relfd3", "relbe3"])
    def test_cold_and_warm_contexts_give_equal_points(self, fresh_contexts, gas):
        state, disp = LOCKSTEP_GASES[gas]
        probe = RateContext.build(state, disp)
        rho_bar, rho_c = probe.rho_bar, probe.rho_c
        xs = [0.3 * rho_bar, 0.9 * rho_bar, 1.1 * rho_bar, 2.5 * rho_bar]
        if state.sigma == BE:
            xs = [x for x in xs if x < rho_c] + [0.5 * (rho_bar + rho_c), rho_c, 1.5 * rho_c]
        cold = []
        for x in xs:
            RateContext.build.cache_clear()
            cold += rate_values((x,), RateContext.build(state, disp))
        RateContext.build.cache_clear()
        ctx = RateContext.build(state, disp)
        rate_values([0.5 * rho_bar, 1.7 * rho_bar, 1e-3 * rho_bar, 3.0 * rho_bar], ctx)
        assert ctx.slopes
        assert point_reprs(rate_values(xs, ctx)) == point_reprs(cold)

    def test_threads_filling_one_table_give_serial_points(self, fresh_contexts):
        state, disp = LOCKSTEP_GASES["relfd3"]
        xs = [0.02, 0.1, 0.25, 0.4, 0.9, 2.0]
        serial = [point_reprs(rate_values((x,), RateContext.build(state, disp))) for x in xs]
        RateContext.build.cache_clear()
        ctx = RateContext.build(state, disp)
        threaded = [None] * len(xs)

        def solve(i):
            threaded[i] = point_reprs(rate_values((xs[i],), ctx))

        workers = [threading.Thread(target=solve, args=(i,)) for i in range(len(xs))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert threaded == serial

    @pytest.mark.parametrize("kind", [
        {"kind": "rate", "interval": "0.25, 0.30"},
        {"kind": "ldp", "interval": "0.25, 0.30", "sizes": "10, 20"},
    ], ids=["rate", "ldp"])
    def test_thread_count_does_not_change_payload(self, monkeypatch, fresh_contexts, kind):
        from ldgas.harness import config_from_mapping, run_experiment

        cfg = config_from_mapping({"statistics": "FD", "dispersion": "nonrelativistic", "mass": "0.5",
                                   "dimension": "1", "beta": "1.0", "mu": "0.0", **kind})
        payloads = []
        for threads in ("1", "2"):
            RateContext.build.cache_clear()
            monkeypatch.setenv("LDGAS_THREADS", threads)
            payloads.append(json.dumps(run_experiment(cfg).numeric_payload(), sort_keys=True))
        assert payloads[0] == payloads[1]
