import math

import numpy as np
import pytest
from scipy.integrate import quad

from ldgas.dispersion import DispersionRelation
from ldgas.errors import AccuracyError, DomainError
from ldgas.kernel import KernelTable, build_kernel, decay_exponent
from ldgas.thermo import BE, FD, ThermoState, density

import oracle_series as oracle

D1 = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)
D3M = DispersionRelation.massless(c=1.0, dimension=3)
FD0 = ThermoState(1.0, 0.0, FD)
BE1 = ThermoState(1.0, -1.0, BE)


def symbol(k, state, disp):
    """Momentum symbol the kernel transforms: -sigma times the occupation."""
    return -state.sigma * state.occupation(k, disp)


@pytest.fixture(scope="module")
def fd_table():
    return build_kernel(FD0, D1, h=0.05, extent=160.0)


@pytest.fixture(scope="module")
def be_table():
    return build_kernel(BE1, D1, h=0.05, extent=160.0)


class TestSymbol:
    def test_fd_at_origin(self):
        assert symbol(0.0, FD0, D1) == FD0.occupation(0.0, D1) == pytest.approx(0.5)

    def test_be_at_origin(self):
        assert symbol(0.0, BE1, D1) == -BE1.occupation(0.0, D1)
        assert symbol(0.0, BE1, D1) == pytest.approx(1.0 / (1.0 - math.e))

    def test_fd_decays_to_zero_from_above(self):
        vals = symbol(np.array([5.0, 8.0, 12.0]), FD0, D1)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-50

    def test_ranges(self):
        k = np.linspace(0, 10, 101)
        fd_vals = symbol(k, FD0, D1)
        assert np.all((fd_vals > 0) & (fd_vals <= 0.5))
        be_vals = symbol(k, BE1, D1)
        assert np.all((be_vals < 0) & (be_vals >= 1.0 / (1.0 - math.e)))


class TestBuild:
    def test_zero_value_matches_density(self, fd_table):
        assert fd_table.d0 == pytest.approx(oracle.FD_RHO_D1_MU0, rel=1e-8)

    def test_be_zero_value_is_minus_density(self, be_table):
        rho = density(BE1, D1)
        assert be_table.d0 == pytest.approx(-rho, rel=1e-8)

    def test_even_symmetry_exact(self, fd_table):
        zero = np.searchsorted(fd_table.x, 0.0)
        left = fd_table.values[zero - 1 :: -1]
        right = fd_table.values[zero + 1 : zero + 1 + left.size]
        n = min(left.size, right.size)
        assert np.array_equal(left[:n], right[:n])

    def test_boundary_decay_enforced(self):
        with pytest.raises(AccuracyError, match="extent"):
            build_kernel(FD0, D1, h=0.05, extent=4.0)

    def test_near_condensation_refused_by_boundary_decay(self):
        # approaching mu = 0- the Bose kernel decays on the diverging length
        # 1/sqrt(|mu|), far beyond this extent
        with pytest.raises(AccuracyError, match="extent") as err:
            build_kernel(ThermoState(1.0, -1e-3, BE), D1, h=0.05, extent=80.0)
        assert err.value.estimate > 0.1

    def test_l1_norm_two_resolutions(self, fd_table):
        finer = build_kernel(FD0, D1, h=0.025, extent=160.0)
        assert finer.l1_norm == pytest.approx(fd_table.l1_norm, rel=1e-4)

    def test_resolution_stability_of_d0(self, fd_table):
        finer = build_kernel(FD0, D1, h=0.025, extent=160.0)
        assert abs(fd_table.d0 - finer.d0) < 1e-8 * abs(fd_table.d0)

    def test_parseval(self, fd_table):
        lhs = fd_table.h * float(np.sum(fd_table.values ** 2))
        sym = lambda k: symbol(k, fd_table.state, fd_table.disp)
        rhs = (1.0 / math.pi) * quad(lambda k: sym(k) ** 2, 0, 60, limit=200)[0]
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_d3_zero_value(self):
        tab = build_kernel(FD0, D3M, h=0.05, extent=1024.0)
        rho = density(FD0, D3M)
        assert tab.values[0] == pytest.approx(rho, rel=1e-8)

    def test_d3_matches_direct_oscillatory_quadrature(self):
        # independent route: per-half-period quadrature of the sine transform
        tab = build_kernel(FD0, D3M, h=0.05, extent=1024.0)
        sym = lambda k: symbol(k, tab.state, tab.disp)
        for r in (1.0, 5.0, 20.0):
            period = math.pi / r
            edges = np.arange(0.0, 60.0, period)
            val = sum(
                quad(lambda k: k * sym(k) * math.sin(k * r), a, b)[0]
                for a, b in zip(edges[:-1], edges[1:])
            ) / (2.0 * math.pi ** 2 * r)
            j = int(round(r / tab.h))
            assert tab.values[j] == pytest.approx(val, rel=1e-5)

    @pytest.mark.parametrize("state", [FD0, BE1], ids=["FD", "BE"])
    def test_d3_matches_direct_sine_sum(self, state):
        # the FFT against the O(m^2) sine sum it evaluates, at every radius r = h n > 0,
        # to roundoff (the quadrature test above holds three radii to 1e-5)
        disp = DispersionRelation.nonrelativistic(mass=1.0, dimension=3)
        tab = build_kernel(state, disp, h=0.25, extent=40.0)
        m = tab.x.size
        assert m == 160
        dk = math.pi / (m * tab.h)
        kk = dk * np.arange(m)
        g = kk * symbol(kk, state, disp)
        n = np.arange(1, m)
        r = tab.h * n
        direct = np.sin(math.pi * np.outer(n, np.arange(m)) / m) @ g * dk / (2.0 * math.pi ** 2 * r)
        np.testing.assert_array_equal(tab.x[1:], r)
        assert np.max(np.abs(tab.values[1:] - direct)) <= 1e-13 * tab.sup_norm

    def test_dimension_guard(self):
        d2 = DispersionRelation.nonrelativistic(mass=1.0, dimension=2)
        with pytest.raises(DomainError):
            build_kernel(ThermoState(1.0, 0.0, FD), d2, h=0.05, extent=40.0)


class TestDecayExponent:
    def test_fd_d1_smooth_symbol(self, fd_table):
        slope = decay_exponent(fd_table, (2.0, 10.0))
        assert slope <= -1.5

    def test_d3_massless_corner_symbol(self):
        tab = build_kernel(FD0, D3M, h=0.05, extent=1024.0)
        slope = decay_exponent(tab, (2.0, 30.0))
        assert slope <= -3.5

    def test_gaussian_symbol_superpolynomial(self):
        # transform of e^{-k^2} is known in closed form; synthesize the table
        h, extent = 0.05, 40.0
        n_half = int(extent / h)
        x = (np.arange(2 * n_half) - n_half) * h
        vals = np.exp(-x ** 2 / 4.0) / (2.0 * math.sqrt(math.pi))
        tab = KernelTable(
            state=FD0, disp=D1, h=h, extent=extent, x=x, values=vals,
            l1_norm=h * float(np.abs(vals).sum()), sup_norm=float(vals.max()),
            boundary_ratio=0.0,
        )
        assert decay_exponent(tab, (2.0, 8.0)) <= -6.0

    def test_window_validation(self, fd_table):
        with pytest.raises(DomainError):
            decay_exponent(fd_table, (5.0, 2.0))
        with pytest.raises(DomainError):
            decay_exponent(fd_table, (2.0, 1000.0))

    def test_too_few_points(self, fd_table):
        with pytest.raises(AccuracyError):
            decay_exponent(fd_table, (100.0, 101.0))  # kernel below the zero floor
