import math
import tracemalloc

import numpy as np
import pytest

from ldgas import factors, modes
from ldgas.dispersion import DispersionRelation
from ldgas.errors import AccuracyError, DomainError, ResourceError
from ldgas.factors import (
    FactorLaw,
    chebyshev_bound,
    clt_cumulants,
    lambda_max,
    log_generating_function,
    window_log_prob,
)
from ldgas.modes import (
    ModeLattice,
    box_pmf,
    box_pressure,
    kac_test,
    sample_NV,
    solve_lambda_V,
)
from ldgas.rate import RateContext, interval_rate, rate_value
from ldgas.thermo import BE, FD, ThermoState, critical_density, pressure, translated_pressure

import oracle_series as oracle

D1 = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)
D2 = DispersionRelation.nonrelativistic(mass=1.0, dimension=2)
D3 = DispersionRelation.nonrelativistic(mass=1.0, dimension=3)
FD0 = ThermoState(1.0, 0.0, FD)
BE1 = ThermoState(1.0, -1.0, BE)


@pytest.fixture(scope="module")
def fd_lat40():
    return ModeLattice.build(FD0, D1, 40.0)


@pytest.fixture(scope="module")
def be_lat10():
    return ModeLattice.build(BE1, D3, 10.0)


@pytest.fixture
def fresh_lattices():
    """Clear the build memo before and after the test, so the test sees a build run."""
    ModeLattice.build.cache_clear()
    yield
    ModeLattice.build.cache_clear()


def single_mode_lattice(state, energy):
    return ModeLattice(
        state=state,
        disp=D1,
        ell=1.0,
        energies=np.array([energy]),
        multiplicities=np.array([1], dtype=np.int64),
        discarded_mass=0.0,
        tilt_ceiling=math.inf if state.sigma == FD else -state.mu,
    )


class TestBuild:
    def test_truncation_budget(self, fd_lat40):
        retained = float(np.sum(fd_lat40.multiplicities * fd_lat40.occupations()))
        assert fd_lat40.discarded_mass < 1e-9 * retained

    def test_be_requires_negative_mu_under_tilt(self, be_lat10):
        with pytest.raises(DomainError):
            be_lat10.law(1.0)  # mu + lam = 0 hits the ground mode

    def test_ground_shell_first(self, be_lat10):
        assert be_lat10.energies[0] == 0.0
        assert be_lat10.multiplicities[0] == 1

    @pytest.mark.parametrize("ell", [6.5, 10.0, 16.0, 24.0])
    @pytest.mark.parametrize("state", [FD0, BE1], ids=["fd", "be"])
    @pytest.mark.parametrize("disp", [D1, D2, D3], ids=["d1", "d2", "d3"])
    def test_shells_match_brute_force(self, disp, state, ell):
        assert_shells_match_brute_force(ModeLattice.build(state, disp, ell))

    @pytest.mark.parametrize("disp, ell", [(D1, 1e5), (D2, 320.0)], ids=["d1", "d2"])
    def test_low_dimensions_keep_the_direct_count_range(self, disp, ell):
        # n_max = 163841 (d = 1) and 641 (d = 2): the orthant count is linear
        # in its points, so both build as the cube enumeration did
        assert_shells_match_brute_force(ModeLattice.build(BE1, disp, ell))

    @pytest.mark.parametrize("disp, ell", [(D1, 1e8), (D2, 5000.0), (D3, 400.0)], ids=["d1", "d2", "d3"])
    def test_shell_count_guard_before_allocation(self, disp, ell):
        # n_max = 167772161, 10241 and 641: each orthant [0, n_max]^d holds
        # more than 1e8 points (and each cube of the direct enumeration more
        # than 2e8), so the guard refuses them before any array is made
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                ModeLattice.build(BE1, disp, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestMemo:
    def test_equal_gases_share_one_lattice(self, fresh_lattices):
        a = ModeLattice.build(ThermoState(1.0, -1.0, BE), DispersionRelation.nonrelativistic(1.0, 3), 12.0)
        b = ModeLattice.build(ThermoState(1.0, -1.0, BE), DispersionRelation.nonrelativistic(1.0, 3), 12.0)
        assert a is b
        info = ModeLattice.build.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_cached_shells_are_read_only(self, be_lat10):
        with pytest.raises(ValueError):
            be_lat10.energies[0] = 1.0
        with pytest.raises(ValueError):
            be_lat10.multiplicities[0] = 2

    def test_tables_key_on_their_samples(self, fresh_lattices):
        k = np.linspace(0.0, 20.0, 81)
        a = ModeLattice.build(FD0, DispersionRelation.from_table(k, k ** 2, dimension=1), 10.0)
        b = ModeLattice.build(FD0, DispersionRelation.from_table(k, 2.0 * k ** 2, dimension=1), 10.0)
        assert a is not b and not np.array_equal(a.energies, b.energies)
        info = ModeLattice.build.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)

    def test_a_refused_build_is_not_cached(self, fresh_lattices, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(modes, "_TAIL_BUDGET", 0.0)
            with pytest.raises(AccuracyError):
                ModeLattice.build(FD0, D1, 10.0)
        lat = ModeLattice.build(FD0, D1, 10.0)
        assert lat.discarded_mass < 1e-9 * float(np.sum(lat.multiplicities * lat.occupations()))
        info = ModeLattice.build.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 1)


def assert_shells_match_brute_force(lat):
    # the lattice's shells against a direct count of the integer points of a
    # cube (meshgrid and np.unique): the retained shells are the lowest ones
    disp = lat.disp
    dk = 2.0 * math.pi / lat.ell
    k_top = math.sqrt(lat.energies[-1] / disp.evaluate(1.0))  # eps = k^2 / 2m
    n_top = round((k_top / dk) ** 2)
    span = np.arange(-math.isqrt(n_top) - 1, math.isqrt(n_top) + 2)
    n2 = sum(a * a for a in np.meshgrid(*[span] * disp.dimension, indexing="ij")).ravel()
    shells, counts = np.unique(n2[n2 <= n_top], return_counts=True)
    assert np.array_equal(lat.multiplicities, counts)
    assert lat.multiplicities.dtype == np.int64
    energies = np.asarray(disp.evaluate(dk * np.sqrt(shells.astype(float))), dtype=float)
    assert np.array_equal(lat.energies, energies)


class TestBoxPressure:
    def test_dilute_limit(self):
        lat = ModeLattice.build(ThermoState(1.0, -50.0, BE), D3, 6.0)
        assert box_pressure(lat) < 1e-15

    def test_fd_d1_converges_to_bulk(self):
        target = oracle.FD_P_D1_MU0
        gaps = []
        for ell in (20.0, 40.0, 80.0):
            lat = ModeLattice.build(FD0, D1, ell)
            gaps.append(abs(box_pressure(lat) - target))
        # mode sums converge (exponentially here) down to roundoff
        floor = 1e-12 * target
        assert gaps[1] <= max(gaps[0], floor)
        assert gaps[2] <= max(gaps[1], floor)
        assert gaps[-1] < 1e-6 * target

    def test_translated_pressure_identity(self, fd_lat40):
        # (log Xi(mu+lam) - log Xi(mu)) / (beta V) equals the box generating
        # function of N at lam, at any finite size
        lam = 0.5
        beta = fd_lat40.state.beta
        lhs = log_generating_function(fd_lat40.law(), fd_lat40.volume, beta, lam) / beta
        shifted = ModeLattice.build(ThermoState(1.0, 0.5, FD), D1, 40.0)
        rhs = box_pressure(shifted) - box_pressure(fd_lat40)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestBoxPmf:
    def test_single_fd_mode(self):
        lat = single_mode_lattice(FD0, FD0.mu)  # eps = mu gives p = 1/2
        assert box_pmf(lat) == pytest.approx([0.5, 0.5])

    def test_mean_matches_mode_sum_exactly(self, fd_lat40):
        pmf = box_pmf(fd_lat40)
        mean = float(np.sum(np.arange(pmf.size) * pmf))
        exact = float(np.sum(fd_lat40.multiplicities * fd_lat40.occupations()))
        assert mean == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("zeta", [0.6, 0.9, 1.1, 1.3])
    def test_product_identity(self, fd_lat40, zeta):
        pmf = box_pmf(fd_lat40)
        lhs = math.log(float(np.sum(pmf * zeta ** np.arange(pmf.size))))
        assert lhs == pytest.approx(fd_lat40.law().log_pgf(zeta - 1.0), rel=1e-10)

    def test_be_product_identity(self, be_lat10):
        pmf = box_pmf(be_lat10)
        for zeta in (0.7, 1.1):
            lhs = math.log(float(np.sum(pmf * zeta ** np.arange(pmf.size))))
            assert lhs == pytest.approx(be_lat10.law().log_pgf(zeta - 1.0), rel=1e-10)

    def test_be_tail_budget(self):
        lat = ModeLattice.build(BE1, D3, 16.0)
        pmf, tail = FactorLaw(lat.occupations(), lat.multiplicities, BE).pmf()
        assert np.array_equal(pmf, box_pmf(lat))
        assert abs(1.0 - pmf.sum()) < 1e-14
        assert 0.0 < tail < 1e-14

    def test_mode_budget(self):
        lat = ModeLattice.build(BE1, D3, 26.0)
        assert lat.mode_count > 100_000
        with pytest.raises(ResourceError):
            box_pmf(lat)

    def test_finite_volume_ldp_approaches_rate(self):
        ctx = RateContext.build(FD0, D1)
        target = interval_rate(0.25, 0.30, ctx)
        gaps = []
        for ell in (20.0, 40.0, 80.0):
            lat = ModeLattice.build(FD0, D1, ell)
            pmf = box_pmf(lat)
            vol = lat.volume
            lo, hi = int(math.ceil(0.25 * vol - 1e-9)), int(math.floor(0.30 * vol + 1e-9))
            mass = float(np.sum(pmf[lo : hi + 1]))
            val = math.log(mass) / (FD0.beta * vol)
            gaps.append(abs(val - target))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.05


class TestSharedStatistics:
    """The box law through the ``factors`` statistics the interval route calls."""

    GASES = {"fd": (FD0, ((0.25, 0.30), (0.35, 0.40))),
             "be": (ThermoState(1.0, -0.5, BE), ((0.40, 0.45), (0.50, 0.55)))}

    @pytest.mark.parametrize("gas", ["fd", "be"])
    def test_second_cumulant_is_the_compressibility(self, gas):
        # in d = 1 the periodic box's C(2) reaches beta^{-1} d rho / d mu = g''(0) / beta
        # up to exponentially small terms already at L = 40
        state, _ = self.GASES[gas]
        lat = ModeLattice.build(state, D1, 40.0)
        c1, c2, _, _ = clt_cumulants(lat.law(), lat.volume)
        target = translated_pressure(0.0, state, D1, order=2) / state.beta
        assert c1 == 0.0
        assert abs(c2 - target) <= 1e-9 * target

    @pytest.mark.parametrize("gas", ["fd", "be"])
    def test_window_below_chebyshev_bound(self, gas):
        # every window lies above the mean density (FD 0.171, BE 0.324)
        state, windows = self.GASES[gas]
        for ell in (10.0, 20.0, 40.0, 80.0):
            lat = ModeLattice.build(state, D1, ell)
            for a, b in windows:
                value = window_log_prob(box_pmf(lat), lat.volume, state.beta, a, b)
                assert math.isfinite(value)
                assert value <= chebyshev_bound(lat.law(), lat.volume, state.beta, a)

    def test_be_tilt_ceiling_is_minus_mu(self):
        # the ground mode sits at eps = 0, so the box admits every tilt below -mu
        state, _ = self.GASES["be"]
        lat = ModeLattice.build(state, D1, 40.0)
        assert lambda_max(lat.law(), state.beta) == pytest.approx(-state.mu, rel=1e-12)
        assert lambda_max(ModeLattice.build(FD0, D1, 40.0).law(), FD0.beta) == math.inf


class TestLambdaV:
    def test_untilted_mean_gives_zero(self, fd_lat40):
        a = fd_lat40.law().mean() / fd_lat40.volume
        assert abs(solve_lambda_V(fd_lat40, a)) < 1e-10

    def test_fd_increasing_in_target(self, fd_lat40):
        lams = [solve_lambda_V(fd_lat40, a) for a in (0.1, 0.25, 0.4)]
        assert lams[0] < lams[1] < lams[2]

    def test_residual(self, fd_lat40):
        lam = solve_lambda_V(fd_lat40, 0.25)
        assert abs(fd_lat40.law(lam).mean() / fd_lat40.volume - 0.25) < 1e-10 * 0.25

    def test_be_condensation_regime(self):
        rc = critical_density(1.0, D3)
        a = 2.0 * rc
        mu_eff_prev = None
        rel_gaps = []
        for ell in (6.0, 10.0, 14.0):
            lat = ModeLattice.build(BE1, D3, ell)
            lam = solve_lambda_V(lat, a)
            mu_eff = BE1.mu + lam
            assert -1e-1 < mu_eff < 0.0
            if mu_eff_prev is not None:
                assert mu_eff > mu_eff_prev  # approaches 0 from below as V grows
            mu_eff_prev = mu_eff
            ground = lat.occupations(lam)[0] * lat.multiplicities[0]
            surplus = (a - rc) * lat.volume
            rel_gaps.append(abs(ground - surplus) / surplus)
        # the surplus lands in the ground mode, up to the O(1/ell) shift of
        # the box's normal capacity, which dies off with the volume
        assert rel_gaps[2] < rel_gaps[1] < rel_gaps[0]
        assert rel_gaps[2] < 0.25

    def test_condensation_lower_bound_route(self):
        # g(lam_V) - lam_V a approaches f(a) = p(0) - p(mu) + mu a from above
        rc = critical_density(1.0, D3)
        a = 2.0 * rc
        ctx = RateContext.build(BE1, D3)
        f_a = rate_value(a, ctx).f
        gaps = []
        for ell in (6.0, 10.0, 14.0):
            lat = ModeLattice.build(BE1, D3, ell)
            lam = solve_lambda_V(lat, a)
            val = translated_pressure(lam, BE1, D3) - lam * a
            gaps.append(val - f_a)
        assert all(g > 0 for g in gaps)
        assert gaps[2] < gaps[1] < gaps[0]


class TestSampling:
    def test_seed_determinism(self, fd_lat40):
        x1 = sample_NV(fd_lat40, 0.0, 400, seed=123)
        x2 = sample_NV(fd_lat40, 0.0, 400, seed=123)
        assert np.array_equal(x1, x2)
        x3 = sample_NV(fd_lat40, 0.0, 400, seed=124)
        assert not np.array_equal(x1, x3)

    def test_fd_unbiased(self, fd_lat40):
        n = 2000
        x = sample_NV(fd_lat40, 0.0, n, seed=5)
        exact_mean = fd_lat40.law().mean() / fd_lat40.volume
        occ = fd_lat40.occupations()
        var_n = float(np.sum(fd_lat40.multiplicities * occ * (1 - occ)))
        stderr = math.sqrt(var_n) / fd_lat40.volume / math.sqrt(n)
        assert abs(x.mean() - exact_mean) < 3 * stderr

    def test_fd_variance_matches_susceptibility(self, fd_lat40):
        lam = 0.3
        x = sample_NV(fd_lat40, lam, 10_000, seed=11)
        beta_var_density = FD0.beta * x.var() * fd_lat40.volume
        target = translated_pressure(lam, FD0, D1, order=2)
        assert beta_var_density == pytest.approx(target, rel=0.10)

    def test_be_condensed_variance_is_order_one(self):
        rc = critical_density(1.0, D3)
        a = 2.0 * rc
        variances = {}
        for ell in (6.0, 10.0):
            lat = ModeLattice.build(BE1, D3, ell)
            lam = solve_lambda_V(lat, a)
            x = sample_NV(lat, lam, 2000, seed=3)
            variances[ell] = x.var()
        # Theta(1) in the volume, not Theta(1/V): ratio stays near 1
        ratio = variances[10.0] / variances[6.0]
        assert 0.5 < ratio < 2.0

    def test_invalid_tilt(self, be_lat10):
        with pytest.raises(DomainError):
            sample_NV(be_lat10, 1.5, 10, seed=0)

    @staticmethod
    def case(name, fd_lat40):
        # fd40: FD d = 1; fd20: FD d = 3 (two inverted groups); beL: the
        # condensed BE d = 3 box of side L at 2 rho_c (be16 is criterion 12's
        # box, three groups; be24 eight groups)
        if name == "fd40":
            return fd_lat40, 0.3
        if name == "fd20":
            return ModeLattice.build(FD0, D3, 20.0), 0.0
        lat = ModeLattice.build(BE1, D3, float(name[2:]))
        return lat, solve_lambda_V(lat, 2.0 * critical_density(1.0, D3))

    @pytest.mark.parametrize("name", ["be6", "be10", "be16", "be24", "fd40", "fd20"])
    def test_exact_in_law(self, name, fd_lat40):
        # KS to the exact shell-convolution law, below the 1% Kolmogorov
        # critical value 1.63 / sqrt(n), for sample_NV and for an independent
        # reference: numpy's binomial / negative-binomial draws shell by shell
        lat, lam = self.case(name, fd_lat40)
        n = 10_000
        cdf = np.cumsum(box_pmf(lat, lam=lam))
        rng = np.random.default_rng(17)
        w = lat.state.beta * (lat.energies - (lat.state.mu + lam))
        if lat.state.sigma == FD:
            shells = rng.binomial(lat.multiplicities, lat.occupations(lam), (n, w.size))
        else:
            shells = rng.negative_binomial(lat.multiplicities, -np.expm1(-w), (n, w.size))
        for counts in (np.rint(sample_NV(lat, lam, n, seed=17) * lat.volume).astype(np.int64),
                       shells.sum(axis=1)):
            assert counts.max() < cdf.size
            ecdf = np.cumsum(np.bincount(counts, minlength=cdf.size)) / n
            assert float(np.max(np.abs(ecdf - cdf))) < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("statistics", [FD, BE])
    def test_prefix_stable(self, statistics, fd_lat40):
        lat, lam = self.case("fd40" if statistics == FD else "be16", fd_lat40)
        short = sample_NV(lat, lam, 100, seed=31)
        long = sample_NV(lat, lam, 300, seed=31)
        assert np.array_equal(long[:100], short)

    def test_rest_law_budget_miss_raises_before_drawing(self, be_lat10, monkeypatch):
        monkeypatch.setattr(factors, "_PMF_BUDGET", 0.0)
        drawn = []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: drawn.append(args))
        with pytest.raises(AccuracyError) as err:
            sample_NV(be_lat10, 0.5, 10, seed=0)
        assert err.value.estimate > 0.0
        assert drawn == []

    def test_summed_group_tails_are_budgeted(self, fd_lat40, monkeypatch):
        # be16's three group tails are 9.9e-18 (five heavy shells, convolved), 8.9e-18
        # and 9.2e-18 (power sums only) and sum to 2.8e-17: a budget between the
        # largest and the sum is met by each group and missed by the sum
        lat, lam = self.case("be16", fd_lat40)
        monkeypatch.setattr(modes, "_PMF_BUDGET", 2e-17)
        drawn, laws, pmf = [], [], FactorLaw.pmf
        monkeypatch.setattr(np.random, "default_rng", lambda *args: drawn.append(args))
        monkeypatch.setattr(FactorLaw, "pmf", lambda law: laws.append(pmf(law)) or laws[-1])
        with pytest.raises(AccuracyError) as err:
            sample_NV(lat, lam, 10, seed=0)
        assert len(laws) == 3 and max(tail for _, tail in laws) < 2e-17
        assert err.value.estimate > 2e-17
        assert drawn == []


class TestKac:
    def test_domain_errors(self, fd_lat40, be_lat10):
        with pytest.raises(DomainError):
            kac_test(fd_lat40, 0.5, 10, seed=0)  # FD, d=1
        rc = critical_density(1.0, D3)
        with pytest.raises(DomainError):
            kac_test(be_lat10, 0.5 * rc, 10, seed=0)  # below rho_c

    def test_box_location_oracle_frozen(self):
        # the lattice constant behind the finite-box Kac location
        assert float(oracle.epstein_zeta3_at_1()) == pytest.approx(oracle.Z3_AT_1, rel=1e-15)

    def test_limiting_mean_is_target_density(self, be_lat10):
        rc = critical_density(1.0, D3)
        res = kac_test(be_lat10, 2.0 * rc, 3000, seed=9)
        sem = math.sqrt(res.sample_variance / 3000)
        assert abs(res.sample_mean - 2.0 * rc) < 4 * sem
        assert res.location == pytest.approx(rc)
        assert res.scale == pytest.approx(rc)

    def test_degenerate_target_concentrates(self, be_lat10):
        rc = critical_density(1.0, D3)
        near = kac_test(be_lat10, 1.02 * rc, 1500, seed=13)
        wide = kac_test(be_lat10, 2.0 * rc, 1500, seed=13)
        # scale -> 0: the law collapses toward a point mass (the residual
        # spread at finite ell comes from the box's shifted normal capacity)
        assert math.sqrt(near.sample_variance) < 0.35 * math.sqrt(wide.sample_variance)
        assert near.sample_mean == pytest.approx(1.02 * rc, rel=0.1)

    def test_ks_distance_is_the_sup_gap_to_the_limit_law(self, be_lat10):
        rc = critical_density(1.0, D3)
        res = kac_test(be_lat10, 2.0 * rc, 500, seed=21)
        xs = res.samples
        assert xs.shape == (500,) and np.all(np.diff(xs) >= 0)
        limit = np.where(xs >= rc, -np.expm1(-(xs - rc) / rc), 0.0)
        # the ecdf steps from i / n to (i + 1) / n at the i-th sorted sample
        gap = max(np.max(np.arange(1, 501) / 500 - limit), np.max(limit - np.arange(500) / 500))
        assert res.ks_distance == pytest.approx(gap, rel=1e-12)
