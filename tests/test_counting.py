import json
import math

import numpy as np
import pytest

from ldgas import counting, factors
from ldgas.counting import CountingMatrix, build_counting_matrix, counting_pmf, trace_moments
from ldgas.dispersion import DispersionRelation
from ldgas.errors import AccuracyError, DomainError
from ldgas.factors import (
    chebyshev_bound,
    clt_cumulants,
    lambda_max,
    log_generating_function,
    tilted_moments,
    window_log_prob,
)
from ldgas.kernel import build_kernel
from ldgas.rate import RateContext, minimizer
from ldgas.thermo import BE, FD, ThermoState, density, translated_pressure
from ldgas.thermo import _gauss_legendre as gauss_legendre

import oracle_series as oracle

D1 = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)
FD0 = ThermoState(1.0, 0.0, FD)
BE1 = ThermoState(1.0, -1.0, BE)


@pytest.fixture(scope="module")
def fd_m40():
    return build_counting_matrix(FD0, D1, 40.0)


@pytest.fixture(scope="module")
def be_m20():
    return build_counting_matrix(BE1, D1, 20.0)


def fd_table_d0():
    """d(0) of the FD gas's FFT kernel table, the position-space route to the trace."""
    return build_kernel(FD0, D1, h=0.05, extent=160.0).d0


def synthetic_matrix(state, eigenvalues):
    """Matrix object with a prescribed spectrum (factor-level unit tests)."""
    eig = np.asarray(eigenvalues, dtype=float)
    return CountingMatrix(
        state=state, disp=D1, length=1.0, nodes=eig.size, eigenvalues=eig, discretization_error=0.0,
    )


def stats_args(m):
    """(law, volume, beta) of a matrix: the leading arguments of the ``factors`` statistics."""
    return m.law, m.volume, m.state.beta


def pgf(dist, zeta):
    """sum_n pmf[n] zeta^n, the probability generating function of the pmf."""
    return float(np.polynomial.polynomial.polyval(zeta, dist.pmf))


def first_rule(state, disp, length):
    """(k_max, n_k, radius, n_r) of ``build_counting_matrix``'s first rule."""
    radius, k_max = 0.5 * length, counting._band_limit(state, disp)
    band = math.ceil(k_max * radius / math.pi)
    return k_max, 2 * (band + counting._K_MARGIN), radius, band + counting._R_MARGIN


def accepted_blocks(m):
    """The even and odd parity blocks (K, eigenvalues) of the rule ``m`` was accepted on.

    A matrix keeps only its spectrum; the blocks are rebuilt from its first
    rule, scaled by the doublings its node count records, and checked to give
    its eigenvalues bit for bit.
    """
    sign = 1.0 if m.state.sigma == FD else -1.0
    k_max, n_k, radius, n_r = first_rule(m.state, m.disp, m.length)
    scale = m.nodes // (2 * n_r)  # 2 ** (doublings past the first rule)
    blocks = counting._parity_blocks(m.state, m.disp, k_max, scale * n_k, radius, scale * n_r, sign)
    assert np.array_equal(m.eigenvalues, np.sort(np.concatenate([eig for _, eig in blocks])))
    return blocks


def block_trace(m):
    return sum(np.trace(block) for block, _ in accepted_blocks(m))


@pytest.fixture
def fresh_builds():
    """Clear the build memo before and after the test, so the test sees a build run."""
    counting.build_counting_matrix.cache_clear()
    yield
    counting.build_counting_matrix.cache_clear()


def full_nystrom_eigenvalues(state, disp, length):
    """Unsplit symmetric Nystrom matrix on the mirrored r-nodes of the build's rules.

    K[i, j] = sqrt(w_i w_j) d(x_i - x_j) with d(u) = (1/pi) sum_q omega_q s(k_q)
    cos(k_q u), the k-rule and the r-rule (reflected onto [-R, 0]) of
    ``build_counting_matrix``'s first, certified pass.
    """
    sym = lambda k: -state.sigma * state.occupation(k, disp)
    k_max, n_k, radius, n_r = first_rule(state, disp, length)
    t, w = gauss_legendre(n_r)
    x = 0.5 * radius * (t + 1.0)
    x, w = np.concatenate([-x, x]), np.tile(0.5 * radius * w, 2)
    t, omega = gauss_legendre(n_k)
    k, omega = 0.5 * k_max * (t + 1.0), 0.5 * k_max * omega
    d = np.cos(np.subtract.outer(x, x)[:, :, None] * k) @ (omega * sym(k)) / math.pi
    return np.linalg.eigvalsh(np.sqrt(np.outer(w, w)) * d)


class TestBuild:
    def test_single_point_interval(self):
        # a short interval is the rank-one limit: one eigenvalue L d(0)
        m = build_counting_matrix(FD0, D1, 0.05)
        d0 = fd_table_d0()
        assert block_trace(m) == pytest.approx(0.05 * d0, rel=1e-14)
        assert m.eigenvalues.max() == pytest.approx(0.05 * d0, rel=1e-3)

    def test_trace_identity_exact(self, fd_m40):
        # |I|^{-1} tr K = d(0) by construction, summed over both parity blocks
        d0 = fd_table_d0()
        assert block_trace(fd_m40) / fd_m40.volume == pytest.approx(d0, rel=1e-14)
        assert np.sum(fd_m40.eigenvalues) / fd_m40.volume == pytest.approx(d0, rel=1e-14)

    def test_fd_spectrum_containment(self):
        for L in (10.0, 20.0, 40.0):
            m = build_counting_matrix(FD0, D1, L)
            tol = 1e-8 * m.norm
            assert m.eigenvalues.min() >= -tol
            assert m.eigenvalues.max() <= 0.5 + tol

    def test_be_spectrum_containment(self):
        lower = 1.0 / (1.0 - math.e)
        for L in (10.0, 20.0, 40.0):
            m = build_counting_matrix(BE1, D1, L)
            tol = 1e-8 * m.norm
            assert m.eigenvalues.min() >= lower - tol
            assert m.eigenvalues.max() <= tol

    def test_any_positive_length_builds(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                build_counting_matrix(FD0, D1, bad)
        assert build_counting_matrix(FD0, D1, 10.013).volume == 10.013

    def test_band_limit_is_found_once_per_gas(self, fresh_builds):
        counting._band_limit.cache_clear()
        a = build_counting_matrix(FD0, D1, 10.0)
        searches = counting._band_limit.cache_info().misses
        counting.build_counting_matrix.cache_clear()  # the second build runs, too
        assert build_counting_matrix(FD0, D1, 10.0).nodes == a.nodes
        assert counting._band_limit.cache_info().misses == searches == 1

    @pytest.mark.parametrize("statistics", ["FD", "BE"])
    @pytest.mark.parametrize("length", [10.0, 40.0])
    def test_parity_blocks_match_full_matrix(self, statistics, length):
        state = FD0 if statistics == "FD" else BE1
        m = build_counting_matrix(state, D1, length)
        full = full_nystrom_eigenvalues(state, D1, length)
        assert full.size == m.eigenvalues.size
        assert np.max(np.abs(full - m.eigenvalues)) <= 1e-13 * m.norm

    def test_nodes_grow_and_are_certified(self):
        nodes = []
        for L in (10.0, 20.0, 40.0, 80.0):
            m = build_counting_matrix(FD0, D1, L)
            blocks = [K for K, _ in accepted_blocks(m)]
            assert sum(block.shape[0] for block in blocks) == m.nodes == m.eigenvalues.size
            assert all(block.shape[0] == block.shape[1] for block in blocks)
            assert m.discretization_error <= 1e-10 * m.norm
            nodes.append(m.nodes)
        assert nodes == sorted(set(nodes))

    def test_eigensolves_stay_within_a_block(self, fresh_builds, monkeypatch):
        # the partner rule of one parity block is the largest eigensolve:
        # ceil(5/4 (ceil(k_max R / pi) + 12)) = 124 at R = 40, where the
        # doubled rule was 198 and one unsplit matrix on it about 400
        orders = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            orders.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        m = build_counting_matrix(FD0, D1, 80.0)
        band = math.ceil(counting._band_limit(FD0, D1) * 40.0 / math.pi)
        assert orders and max(orders) <= math.ceil(1.25 * (band + counting._R_MARGIN)) <= 124
        assert m.nodes == 2 * (band + counting._R_MARGIN)

    def test_doubles_nodes_until_certified(self):
        # at L = 160 the band-limit rule misses the budget; doubling meets it
        m = build_counting_matrix(FD0, D1, 160.0)
        assert m.discretization_error <= 1e-10 * m.norm
        assert m.nodes > 2 * build_counting_matrix(FD0, D1, 80.0).nodes

    @pytest.mark.parametrize("length", [10.0 * i for i in range(1, 9)])
    @pytest.mark.parametrize("state", [FD0, BE1], ids=["FD", "BE"])
    def test_accepted_rule_is_the_first_rule(self, state, length):
        # the partner certifies the rule the build starts from, bit for bit
        m = build_counting_matrix(state, D1, length)
        sign = 1.0 if state.sigma == FD else -1.0
        blocks = counting._parity_blocks(state, D1, *first_rule(state, D1, length), sign)
        assert np.array_equal(m.eigenvalues, np.sort(np.concatenate([eig for _, eig in blocks])))

    @pytest.mark.parametrize(
        "gas, length",
        [(g, L) for g in ("FD", "BE") for L in (10.0, 40.0, 80.0, 160.0)]
        + [("FD-relativistic", L) for L in (10.0, 20.0)],
    )
    def test_estimate_covers_a_threefold_reference(self, gas, length):
        # the partner estimate is at least the distance of the accepted
        # spectra to a rule of three times the accepted node counts
        state, disp = {
            "FD": (FD0, D1),
            "BE": (BE1, D1),
            "FD-relativistic": (FD0, DispersionRelation.relativistic(mass=1.0, c=1.0, dimension=1)),
        }[gas]
        m = build_counting_matrix(state, disp, length)
        sign = 1.0 if state.sigma == FD else -1.0
        k_max, n_k, radius, n_r = first_rule(state, disp, length)
        scale = m.nodes // (2 * n_r)  # 2 ** (doublings past the first rule)
        reference = counting._parity_blocks(state, disp, k_max, 3 * scale * n_k, radius, 3 * scale * n_r, sign)
        distance = max(
            counting._spectral_distance(accepted, eig, sign)
            for (_, accepted), (_, eig) in zip(accepted_blocks(m), reference)
        )
        assert m.discretization_error >= distance - 1e-13 * m.norm

    def test_budget_miss_raises(self, fresh_builds, monkeypatch):
        monkeypatch.setattr(counting, "_DISCRETIZATION_BUDGET", 0.0)
        monkeypatch.setattr(counting, "_MAX_NODES", 200)
        with pytest.raises(AccuracyError) as err:
            build_counting_matrix(FD0, D1, 10.0)
        assert err.value.estimate > 0.0


class TestGeneratingFunction:
    @pytest.mark.parametrize("statistics", ["FD", "BE"])
    def test_against_uniform_nystrom_oracle(self, statistics):
        # eps = k^2, beta = 1: FD at mu = 0, BE at mu = -1 (symbol -1/(e^{k^2+1} - 1))
        if statistics == "FD":
            state, sign = FD0, 1.0
            sym = lambda k: np.exp(-k * k) / (1.0 + np.exp(-k * k))
        else:
            state, sign = BE1, -1.0
            sym = lambda k: -np.exp(-k * k - 1.0) / (1.0 - np.exp(-k * k - 1.0))
        for L in (10.0, 20.0):
            m = build_counting_matrix(state, D1, L)
            for lam in (-0.5, 0.5):
                want = sign * oracle.uniform_nystrom_log_det(sym, L, lam)
                assert abs(log_generating_function(*stats_args(m), lam) - want) < 1e-10

    def test_zero_tilt(self, fd_m40):
        assert log_generating_function(*stats_args(fd_m40), 0.0) == 0.0

    def test_monotone_convex_on_grid(self, fd_m40):
        lams = np.linspace(-1.5, 1.5, 21)
        phi = np.array([log_generating_function(*stats_args(fd_m40), l) for l in lams])
        assert np.all(np.diff(phi) > 0)
        assert np.all(np.diff(phi, 2) > -1e-12)

    def test_be_infinite_beyond_lambda_max(self, be_m20):
        top = lambda_max(be_m20.law, be_m20.state.beta)
        assert log_generating_function(*stats_args(be_m20), top) == math.inf
        assert log_generating_function(*stats_args(be_m20), top + 0.1) == math.inf
        assert math.isfinite(log_generating_function(*stats_args(be_m20), top - 1e-3))

    def test_derivative_at_zero_tracks_density(self):
        rho = density(FD0, D1)
        h = 1e-5
        gaps = []
        for L in (20.0, 40.0, 80.0):
            m = build_counting_matrix(FD0, D1, L)
            phi = lambda l: log_generating_function(*stats_args(m), l)
            fd1 = (phi(h) - phi(-h)) / (2 * h)
            gaps.append(abs(fd1 / m.state.beta - rho))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.01 * rho

    def test_second_derivative_tracks_susceptibility(self):
        # phi''(0) -> beta * d(rho)/d(mu), gaps shrinking as L doubles
        target = translated_pressure(0.0, FD0, D1, order=2)
        h = 1e-3
        gaps = []
        for L in (20.0, 40.0, 80.0):
            m = build_counting_matrix(FD0, D1, L)
            phi = lambda l: log_generating_function(*stats_args(m), l)
            fd2 = (phi(h) - 2.0 * phi(0.0) + phi(-h)) / h ** 2
            gaps.append(abs(fd2 / m.state.beta ** 2 - target))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.02 * target


class TestLambdaMax:
    def test_fd_is_infinite(self, fd_m40):
        assert lambda_max(fd_m40.law, fd_m40.state.beta) == math.inf

    def test_be_decreasing_above_minus_mu(self):
        values = [lambda_max(build_counting_matrix(BE1, D1, L).law, BE1.beta) for L in (10.0, 20.0, 40.0)]
        assert values[0] > values[1] > values[2]
        assert all(v > 1.0 for v in values)

    def test_degenerate_warns(self):
        degenerate = synthetic_matrix(BE1, [0.0])
        with pytest.warns(UserWarning):
            assert lambda_max(degenerate.law, degenerate.state.beta) == math.inf


class TestTraceMoments:
    def test_first_moment_gap_is_kernel_accuracy(self, fd_m40):
        first = trace_moments(fd_m40, 1)[0]
        assert first.rel_gap < 1e-6

    def test_higher_moments_close_and_shrink(self):
        at40 = trace_moments(build_counting_matrix(FD0, D1, 40.0), 4)
        at80 = trace_moments(build_counting_matrix(FD0, D1, 80.0), 4)
        for m40, m80 in zip(at40[1:], at80[1:]):
            assert m40.rel_gap < 0.05
            assert 0.3 <= m80.rel_gap / m40.rel_gap <= 0.8

    def test_order_cap(self, fd_m40):
        with pytest.raises(DomainError):
            trace_moments(fd_m40, 9)


class TestPmf:
    def test_single_half_eigenvalue(self):
        m = synthetic_matrix(FD0, [0.5])
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
        zeta = math.exp(fd_m40.state.beta * lam)
        via_det = math.exp(fd_m40.volume * log_generating_function(*stats_args(fd_m40), lam))
        assert pgf(dist, zeta) == pytest.approx(via_det, rel=1e-10)

    @pytest.mark.parametrize("lam", [-0.7, -0.3, 0.1, 0.25, 0.35])
    def test_determinant_identity_be(self, be_m20, lam):
        dist = counting_pmf(be_m20)
        zeta = math.exp(be_m20.state.beta * lam)
        via_det = math.exp(be_m20.volume * log_generating_function(*stats_args(be_m20), lam))
        assert pgf(dist, zeta) == pytest.approx(via_det, rel=1e-10)

    def test_tail_budget_miss_raises(self, fd_m40, be_m20, monkeypatch):
        monkeypatch.setattr(factors, "_PMF_BUDGET", 0.0)
        with pytest.raises(AccuracyError) as err:
            counting_pmf(be_m20)
        assert err.value.estimate > 0.0
        # FD keeps its full support: nothing is dropped, so nothing can miss
        assert counting_pmf(fd_m40).tail_mass == 0.0

    def test_variance_identity(self, be_m20):
        dist = counting_pmf(be_m20)
        n = np.arange(dist.pmf.size)
        var_pmf = float(np.sum(n * n * dist.pmf) - (np.sum(n * dist.pmf)) ** 2)
        assert var_pmf == pytest.approx(dist.variance, rel=1e-9)


class TestLdp:
    def test_typical_interval_vanishes(self):
        rho = oracle.FD_RHO_D1_MU0
        vals = []
        for L in (20.0, 40.0, 80.0):
            m = build_counting_matrix(FD0, D1, L)
            vals.append(window_log_prob(counting_pmf(m).pmf, m.volume, m.state.beta, rho - 0.03, rho + 0.03))
        assert abs(vals[-1]) < abs(vals[0])
        assert abs(vals[-1]) < 0.01

    def test_empty_window_sentinel(self, fd_m40):
        # [0.2501, 0.2549] * 40 = [10.004, 10.196]: no integer inside
        assert window_log_prob(counting_pmf(fd_m40).pmf, fd_m40.volume, fd_m40.state.beta, 0.2501, 0.2549) == -math.inf

    def test_interval_ordering(self, fd_m40):
        with pytest.raises(DomainError):
            window_log_prob(counting_pmf(fd_m40).pmf, fd_m40.volume, fd_m40.state.beta, 0.3, 0.2)

    def test_chebyshev_bound_holds_exactly(self):
        for L in (10.0, 20.0, 40.0):
            m = build_counting_matrix(FD0, D1, L)
            value = window_log_prob(counting_pmf(m).pmf, m.volume, m.state.beta, 0.25, 0.30)
            assert value <= chebyshev_bound(*stats_args(m), 0.25)

    @pytest.mark.parametrize("statistics", ["FD", "BE"])
    def test_chebyshev_bound_is_the_exact_infimum(self, statistics):
        # the infimum over lam of log <e^{lam N}> / L - lam a sits where the tilted mean is
        # a L: bisect for that tilt, independently of the solver; the bound is also no
        # weaker than the least of the 80 grid tilts on (0, 4] (FD) or (0, lambda_max)
        # that the bound took before (FD a = 0.9: -1.869 / -1.965 at L = 10 / 80)
        state = FD0 if statistics == "FD" else BE1
        for L in (10.0, 80.0):
            m = build_counting_matrix(state, D1, L)
            top = lambda_max(m.law, 1.0)
            grid = np.linspace(0.0, 4.0 if math.isinf(top) else top * (1.0 - 1e-6), 81)[1:]
            for a in ((0.3, 0.9) if statistics == "FD" else (0.3,)):
                lo, hi = 0.0, min(64.0, top)
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if m.law.tilted(math.exp(mid)).mean() < a * L else (lo, mid)
                exact = log_generating_function(*stats_args(m), lo) - lo * a
                bound = chebyshev_bound(*stats_args(m), a)
                assert bound == pytest.approx(exact, rel=0, abs=1e-12)
                assert bound <= min(log_generating_function(*stats_args(m), float(l)) - float(l) * a
                                    for l in grid)

    def test_chebyshev_bound_edges(self, fd_m40, be_m20):
        for m in (fd_m40, be_m20):
            mean = m.law.mean() / m.volume
            assert chebyshev_bound(*stats_args(m), mean) == 0.0
            assert chebyshev_bound(*stats_args(m), 0.5 * mean) == 0.0
        # FD: N <= sum r, so above it the probability is 0, and at it the lam -> inf limit
        # log P(N = sum r) / (beta V) = sum r log n / (beta V)
        law = factors.FactorLaw(np.array([0.3, 0.9, 0.5]), np.array([2, 1, 3]), FD)
        assert chebyshev_bound(law, 4.0, 2.0, 6.01 / 4.0) == -math.inf
        assert chebyshev_bound(law, 4.0, 2.0, 6.0 / 4.0) == pytest.approx(
            (2 * math.log(0.3) + math.log(0.9) + 3 * math.log(0.5)) / 8.0, rel=1e-15)


class TestCumulants:
    def test_first_cumulant_exact_zero(self, fd_m40):
        assert clt_cumulants(fd_m40.law, fd_m40.volume)[0] == 0.0

    def test_second_cumulant_target(self):
        m = build_counting_matrix(FD0, D1, 80.0)
        c2 = clt_cumulants(m.law, m.volume)[1]
        variance_target = translated_pressure(0.0, m.state, m.disp, order=2) / m.state.beta
        assert variance_target == pytest.approx(oracle.FD_DRHO_D1_MU0, rel=1e-8)
        assert c2 == pytest.approx(variance_target, rel=0.02)

    def test_third_cumulant_shrinks_like_sqrt(self):
        c3 = {}
        for L in (20.0, 80.0):
            m = build_counting_matrix(FD0, D1, L)
            c3[L] = abs(clt_cumulants(m.law, m.volume)[2])
        # kappa_3(N) ~ L, so C(3) ~ L^{-1/2}: quadrupling L halves it
        assert c3[80.0] < 0.6 * c3[20.0]


class TestTilting:
    def test_zero_tilt_matches_untilted(self, fd_m40):
        dist = counting_pmf(fd_m40)
        mean_density, beta_var = tilted_moments(*stats_args(fd_m40), 0.0)
        assert mean_density == pytest.approx(dist.mean / fd_m40.volume, rel=1e-12)
        assert beta_var == pytest.approx(dist.variance / fd_m40.volume, rel=1e-12)

    def test_tilted_mean_hits_target_density(self):
        ctx = RateContext.build(FD0, D1)
        lam0 = minimizer(0.25, ctx)
        m = build_counting_matrix(FD0, D1, 80.0)
        mean_density, beta_var = tilted_moments(*stats_args(m), lam0)
        assert mean_density == pytest.approx(0.25, rel=0.02)
        target_var = translated_pressure(lam0, FD0, D1, order=2)
        assert beta_var == pytest.approx(target_var, rel=0.10)

    def test_tilted_variance_size_stable(self):
        ctx = RateContext.build(FD0, D1)
        lam0 = minimizer(0.25, ctx)
        _, v40 = tilted_moments(*stats_args(build_counting_matrix(FD0, D1, 40.0)), lam0)
        _, v80 = tilted_moments(*stats_args(build_counting_matrix(FD0, D1, 80.0)), lam0)
        assert 0.8 <= v80 / v40 <= 1.2

    def test_be_tilt_domain(self, be_m20):
        with pytest.raises(DomainError):
            tilted_moments(*stats_args(be_m20), lambda_max(be_m20.law, be_m20.state.beta) + 0.1)

    def test_be_tilted_moments_finite(self, be_m20):
        mean_density, beta_var = tilted_moments(*stats_args(be_m20), 0.5)
        assert mean_density > 0 and beta_var > 0


class TestMemo:
    def test_equal_gases_share_one_matrix(self, fresh_builds):
        a = build_counting_matrix(ThermoState(1.0, 0.0, FD), DispersionRelation.nonrelativistic(0.5, 1), 20.0)
        b = build_counting_matrix(ThermoState(1.0, 0.0, FD), DispersionRelation.nonrelativistic(0.5, 1), 20.0)
        assert a is b
        info = counting.build_counting_matrix.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_cached_spectrum_is_read_only(self, fd_m40):
        with pytest.raises(ValueError):
            fd_m40.eigenvalues[0] = 0.0
        assert not hasattr(fd_m40, "blocks")

    def test_tables_key_on_their_samples(self, fresh_builds):
        # eps = c k with c = 1 and 2: linear across the band, so both certify
        k = np.array([0.0, 100.0, 200.0, 300.0])
        a = build_counting_matrix(FD0, DispersionRelation.from_table(k, k, dimension=1), 10.0)
        b = build_counting_matrix(FD0, DispersionRelation.from_table(k, 2.0 * k, dimension=1), 10.0)
        assert a is not b and not np.array_equal(a.eigenvalues, b.eigenvalues)
        info = counting.build_counting_matrix.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)

    def test_a_refused_build_is_not_cached(self, fresh_builds, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(counting, "_DISCRETIZATION_BUDGET", 0.0)
            patched.setattr(counting, "_MAX_NODES", 200)
            with pytest.raises(AccuracyError):
                build_counting_matrix(FD0, D1, 10.0)
        m = build_counting_matrix(FD0, D1, 10.0)
        assert m.discretization_error <= 1e-10 * m.norm
        info = counting.build_counting_matrix.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 1)

    def test_sweep_payloads_do_not_depend_on_threads(self, fresh_builds, monkeypatch):
        # the sweep pool's threads build the sizes concurrently into one memo
        from ldgas.harness import config_from_mapping, run_experiment

        gas = {"statistics": "FD", "dispersion": "nonrelativistic", "mass": "0.5",
               "dimension": "1", "beta": "1.0", "mu": "0.0", "sizes": "10, 20, 40"}
        raws = [dict(gas, kind="gf", **{"lambda": "0.5"}),
                dict(gas, kind="ldp", interval="0.25, 0.35"), dict(gas, kind="clt")]

        def payloads(threads):
            counting.build_counting_matrix.cache_clear()
            monkeypatch.setenv("LDGAS_THREADS", str(threads))
            return [json.dumps(run_experiment(config_from_mapping(raw)).numeric_payload(), sort_keys=True)
                    for raw in raws]

        one = payloads(1)
        assert payloads(2) == one
        assert counting.build_counting_matrix.cache_info().hits == 6  # ldp and clt reread gf's sizes
