import math

import numpy as np
import pytest

from ldgas import counting
from ldgas.counting import (
    CountingMatrix,
    build_counting_matrix,
    chebyshev_bound,
    counting_pmf,
    cumulants_clt,
    lambda_max,
    ldp_log_prob,
    log_generating_function,
    tilted_moments,
    trace_moments,
)
from ldgas.dispersion import DispersionRelation
from ldgas.errors import AccuracyError, DomainError
from ldgas.kernel import build_kernel
from ldgas.rate import RateContext, minimizer
from ldgas.thermo import BE, FD, ThermoState, density, translated_pressure

import oracle_series as oracle

D1 = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)
FD0 = ThermoState(1.0, 0.0, FD)
BE1 = ThermoState(1.0, -1.0, BE)


@pytest.fixture(scope="module")
def fd_kernel():
    return build_kernel(FD0, D1, h=0.05, extent=160.0)


@pytest.fixture(scope="module")
def be_kernel():
    return build_kernel(BE1, D1, h=0.05, extent=160.0)


@pytest.fixture(scope="module")
def fd_m40(fd_kernel):
    return build_counting_matrix(fd_kernel, 40.0)


@pytest.fixture(scope="module")
def be_m20(be_kernel):
    return build_counting_matrix(be_kernel, 20.0)


def synthetic_matrix(kernel, eigenvalues):
    """Matrix object with a prescribed spectrum (factor-level unit tests)."""
    eig = np.asarray(eigenvalues, dtype=float)
    return CountingMatrix(
        kernel=kernel, length=1.0, nodes=eig.size, matrix=np.diag(eig), eigenvalues=eig,
        discretization_error=0.0,
    )


class TestBuild:
    def test_single_point_interval(self, fd_kernel):
        # a short interval is the rank-one limit: one eigenvalue L d(0)
        m = build_counting_matrix(fd_kernel, 0.05)
        d0 = fd_kernel.at_offsets(np.array([0]))[0]
        assert np.trace(m.matrix) == pytest.approx(0.05 * d0, rel=1e-14)
        assert m.eigenvalues.max() == pytest.approx(0.05 * d0, rel=1e-3)

    def test_trace_identity_exact(self, fd_m40):
        # |I|^{-1} tr K = d(0) by construction
        d0 = fd_m40.kernel.at_offsets(np.array([0]))[0]
        assert np.trace(fd_m40.matrix) / fd_m40.volume == pytest.approx(d0, rel=1e-14)

    def test_fd_spectrum_containment(self, fd_kernel):
        for L in (10.0, 20.0, 40.0):
            m = build_counting_matrix(fd_kernel, L)
            tol = 1e-8 * m.norm
            assert m.eigenvalues.min() >= -tol
            assert m.eigenvalues.max() <= 0.5 + tol

    def test_be_spectrum_containment(self, be_kernel):
        lower = 1.0 / (1.0 - math.e)
        for L in (10.0, 20.0, 40.0):
            m = build_counting_matrix(be_kernel, L)
            tol = 1e-8 * m.norm
            assert m.eigenvalues.min() >= lower - tol
            assert m.eigenvalues.max() <= tol

    def test_any_positive_length_builds(self, fd_kernel):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                build_counting_matrix(fd_kernel, bad)
        assert build_counting_matrix(fd_kernel, 10.013).volume == 10.013

    def test_length_within_extent(self, fd_kernel):
        with pytest.raises(DomainError):
            build_counting_matrix(fd_kernel, 400.0)

    def test_nodes_grow_and_are_certified(self, fd_kernel):
        nodes = []
        for L in (10.0, 20.0, 40.0, 80.0):
            m = build_counting_matrix(fd_kernel, L)
            assert m.matrix.shape == (m.nodes, m.nodes)
            assert m.discretization_error <= 1e-10 * m.norm
            nodes.append(m.nodes)
        assert nodes == sorted(set(nodes))

    def test_doubles_nodes_until_certified(self, fd_kernel):
        # at L = 160 the band-limit rule misses the budget; doubling meets it
        m = build_counting_matrix(fd_kernel, 160.0)
        assert m.discretization_error <= 1e-10 * m.norm
        assert m.nodes > 2 * build_counting_matrix(fd_kernel, 80.0).nodes

    def test_budget_miss_raises(self, fd_kernel, monkeypatch):
        monkeypatch.setattr(counting, "_DISCRETIZATION_BUDGET", 0.0)
        monkeypatch.setattr(counting, "_MAX_NODES", 200)
        with pytest.raises(AccuracyError) as err:
            build_counting_matrix(fd_kernel, 10.0)
        assert err.value.estimate > 0.0

    def test_unresolved_symbol_raises(self):
        coarse = build_kernel(FD0, D1, h=0.5, extent=160.0)
        with pytest.raises(AccuracyError, match="smaller h"):
            build_counting_matrix(coarse, 10.0)


class TestGeneratingFunction:
    @pytest.mark.parametrize("statistics", ["FD", "BE"])
    def test_against_uniform_nystrom_oracle(self, fd_kernel, be_kernel, statistics):
        # eps = k^2, beta = 1: FD at mu = 0, BE at mu = -1 (symbol -1/(e^{k^2+1} - 1))
        if statistics == "FD":
            kernel, sign = fd_kernel, 1.0
            sym = lambda k: np.exp(-k * k) / (1.0 + np.exp(-k * k))
        else:
            kernel, sign = be_kernel, -1.0
            sym = lambda k: -np.exp(-k * k - 1.0) / (1.0 - np.exp(-k * k - 1.0))
        for L in (10.0, 20.0):
            m = build_counting_matrix(kernel, L)
            for lam in (-0.5, 0.5):
                want = sign * oracle.uniform_nystrom_log_det(sym, L, lam)
                assert abs(log_generating_function(m, lam) - want) < 1e-10

    def test_zero_tilt(self, fd_m40):
        assert log_generating_function(fd_m40, 0.0) == 0.0

    def test_monotone_convex_on_grid(self, fd_m40):
        lams = np.linspace(-1.5, 1.5, 21)
        phi = np.array([log_generating_function(fd_m40, l) for l in lams])
        assert np.all(np.diff(phi) > 0)
        assert np.all(np.diff(phi, 2) > -1e-12)

    def test_be_infinite_beyond_lambda_max(self, be_m20):
        top = lambda_max(be_m20)
        assert log_generating_function(be_m20, top) == math.inf
        assert log_generating_function(be_m20, top + 0.1) == math.inf
        assert math.isfinite(log_generating_function(be_m20, top - 1e-3))

    def test_derivative_at_zero_tracks_density(self, fd_kernel):
        rho = density(FD0, D1)
        h = 1e-5
        gaps = []
        for L in (20.0, 40.0, 80.0):
            m = build_counting_matrix(fd_kernel, L)
            fd1 = (log_generating_function(m, h) - log_generating_function(m, -h)) / (2 * h)
            gaps.append(abs(fd1 / m.beta - rho))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.01 * rho

    def test_second_derivative_tracks_susceptibility(self, fd_kernel):
        # phi''(0) -> beta * d(rho)/d(mu), gaps shrinking as L doubles
        target = translated_pressure(0.0, FD0, D1, order=2)
        h = 1e-3
        gaps = []
        for L in (20.0, 40.0, 80.0):
            m = build_counting_matrix(fd_kernel, L)
            phi = lambda l: log_generating_function(m, l)
            fd2 = (phi(h) - 2.0 * phi(0.0) + phi(-h)) / h ** 2
            gaps.append(abs(fd2 / m.beta ** 2 - target))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.02 * target


class TestLambdaMax:
    def test_fd_is_infinite(self, fd_m40):
        assert lambda_max(fd_m40) == math.inf

    def test_be_decreasing_above_minus_mu(self, be_kernel):
        values = [lambda_max(build_counting_matrix(be_kernel, L)) for L in (10.0, 20.0, 40.0)]
        assert values[0] > values[1] > values[2]
        assert all(v > 1.0 for v in values)

    def test_degenerate_warns(self, be_kernel):
        degenerate = synthetic_matrix(be_kernel, [0.0])
        with pytest.warns(UserWarning):
            assert lambda_max(degenerate) == math.inf


class TestTraceMoments:
    def test_first_moment_gap_is_kernel_accuracy(self, fd_m40):
        first = trace_moments(fd_m40, 1)[0]
        assert first.rel_gap < 1e-6

    def test_higher_moments_close_and_shrink(self, fd_kernel):
        at40 = trace_moments(build_counting_matrix(fd_kernel, 40.0), 4)
        at80 = trace_moments(build_counting_matrix(fd_kernel, 80.0), 4)
        for m40, m80 in zip(at40[1:], at80[1:]):
            assert m40.rel_gap < 0.05
            assert 0.3 <= m80.rel_gap / m40.rel_gap <= 0.8

    def test_order_cap(self, fd_m40):
        with pytest.raises(DomainError):
            trace_moments(fd_m40, 9)


class TestPmf:
    def test_single_half_eigenvalue(self, fd_kernel):
        m = synthetic_matrix(fd_kernel, [0.5])
        dist = counting_pmf(m)
        assert dist.pmf == pytest.approx([0.5, 0.5])

    def test_normalization_and_mean(self, fd_m40):
        dist = counting_pmf(fd_m40)
        assert abs(dist.pmf.sum() - 1.0) < 1e-12
        pmf_mean = float(np.sum(np.arange(dist.pmf.size) * dist.pmf))
        assert abs(pmf_mean - dist.mean) < 1e-10 * max(1.0, dist.mean)

    def test_mean_density_approaches_rho(self, fd_m40):
        dist = counting_pmf(fd_m40)
        assert dist.mean / fd_m40.volume == pytest.approx(oracle.FD_RHO_D1_MU0, rel=0.02)

    def test_be_normalization_with_tail_tracking(self, be_m20):
        dist = counting_pmf(be_m20)
        assert abs(dist.pmf.sum() - 1.0) < 1e-12
        assert dist.tail_mass < 1e-12

    @pytest.mark.parametrize("lam", [-0.7, -0.3, 0.1, 0.3, 0.5])
    def test_determinant_identity(self, fd_m40, lam):
        # pgf route and eigenvalue-product route agree on a 5-point zeta grid
        dist = counting_pmf(fd_m40)
        zeta = math.exp(fd_m40.beta * lam)
        via_det = math.exp(fd_m40.volume * log_generating_function(fd_m40, lam))
        assert dist.pgf(zeta) == pytest.approx(via_det, rel=1e-10)

    @pytest.mark.parametrize("lam", [-0.7, -0.3, 0.1, 0.25, 0.35])
    def test_determinant_identity_be(self, be_m20, lam):
        dist = counting_pmf(be_m20)
        zeta = math.exp(be_m20.beta * lam)
        via_det = math.exp(be_m20.volume * log_generating_function(be_m20, lam))
        assert dist.pgf(zeta) == pytest.approx(via_det, rel=1e-10)

    def test_variance_identity(self, be_m20):
        dist = counting_pmf(be_m20)
        n = np.arange(dist.pmf.size)
        var_pmf = float(np.sum(n * n * dist.pmf) - (np.sum(n * dist.pmf)) ** 2)
        assert var_pmf == pytest.approx(dist.variance, rel=1e-9)


class TestLdp:
    def test_typical_interval_vanishes(self, fd_kernel):
        rho = oracle.FD_RHO_D1_MU0
        vals = []
        for L in (20.0, 40.0, 80.0):
            m = build_counting_matrix(fd_kernel, L)
            vals.append(ldp_log_prob(m, rho - 0.03, rho + 0.03))
        assert abs(vals[-1]) < abs(vals[0])
        assert abs(vals[-1]) < 0.01

    def test_empty_window_sentinel(self, fd_m40):
        # [0.2501, 0.2549] * 40 = [10.004, 10.196]: no integer inside
        assert ldp_log_prob(fd_m40, 0.2501, 0.2549) == -math.inf

    def test_interval_ordering(self, fd_m40):
        with pytest.raises(DomainError):
            ldp_log_prob(fd_m40, 0.3, 0.2)

    def test_chebyshev_bound_holds_exactly(self, fd_kernel):
        for L in (10.0, 20.0, 40.0):
            m = build_counting_matrix(fd_kernel, L)
            value = ldp_log_prob(m, 0.25, 0.30)
            assert value <= chebyshev_bound(m, 0.25)


class TestCumulants:
    def test_first_cumulant_exact_zero(self, fd_m40):
        assert cumulants_clt(fd_m40).values[0] == 0.0

    def test_second_cumulant_target(self, fd_kernel):
        m = build_counting_matrix(fd_kernel, 80.0)
        report = cumulants_clt(m)
        assert report.variance_target == pytest.approx(oracle.FD_DRHO_D1_MU0, rel=1e-8)
        assert report.values[1] == pytest.approx(report.variance_target, rel=0.02)

    def test_third_cumulant_shrinks_like_sqrt(self, fd_kernel):
        c3 = {}
        for L in (20.0, 80.0):
            m = build_counting_matrix(fd_kernel, L)
            c3[L] = abs(cumulants_clt(m).values[2])
        # kappa_3(N) ~ L, so C(3) ~ L^{-1/2}: quadrupling L halves it
        assert c3[80.0] < 0.6 * c3[20.0]


class TestTilting:
    def test_zero_tilt_matches_untilted(self, fd_m40):
        dist = counting_pmf(fd_m40)
        mean_density, beta_var = tilted_moments(fd_m40, 0.0)
        assert mean_density == pytest.approx(dist.mean / fd_m40.volume, rel=1e-12)
        assert beta_var == pytest.approx(dist.variance / fd_m40.volume, rel=1e-12)

    def test_tilted_mean_hits_target_density(self, fd_kernel):
        ctx = RateContext.build(FD0, D1)
        lam0 = minimizer(0.25, ctx)
        m = build_counting_matrix(fd_kernel, 80.0)
        mean_density, beta_var = tilted_moments(m, lam0)
        assert mean_density == pytest.approx(0.25, rel=0.02)
        target_var = translated_pressure(lam0, FD0, D1, order=2)
        assert beta_var == pytest.approx(target_var, rel=0.10)

    def test_tilted_variance_size_stable(self, fd_kernel):
        ctx = RateContext.build(FD0, D1)
        lam0 = minimizer(0.25, ctx)
        _, v40 = tilted_moments(build_counting_matrix(fd_kernel, 40.0), lam0)
        _, v80 = tilted_moments(build_counting_matrix(fd_kernel, 80.0), lam0)
        assert 0.8 <= v80 / v40 <= 1.2

    def test_be_tilt_domain(self, be_m20):
        with pytest.raises(DomainError):
            tilted_moments(be_m20, lambda_max(be_m20) + 0.1)

    def test_be_tilted_moments_finite(self, be_m20):
        mean_density, beta_var = tilted_moments(be_m20, 0.5)
        assert mean_density > 0 and beta_var > 0


def test_exports(tmp_path, fd_m40):
    spectrum_path = tmp_path / "spectrum.csv"
    fd_m40.spectrum_to_csv(spectrum_path)
    lines = spectrum_path.read_text().splitlines()
    assert len(lines) == 1 + fd_m40.eigenvalues.size
    idx, kappa = lines[1].split(",")
    assert idx == "0" and float(kappa) == fd_m40.eigenvalues[0]

    dist = counting_pmf(fd_m40)
    pmf_path = tmp_path / "pmf.csv"
    dist.to_csv(pmf_path)
    rows = pmf_path.read_text().splitlines()
    assert len(rows) == 1 + dist.pmf.size
    assert float(rows[1].split(",")[1]) == dist.pmf[0]
