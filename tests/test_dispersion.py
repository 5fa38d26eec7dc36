import numpy as np
import pytest

from ldgas import thermo
from ldgas.dispersion import DispersionRelation
from ldgas.errors import DomainError


def test_nonrelativistic_values():
    d = DispersionRelation.nonrelativistic(mass=0.5, dimension=1)
    assert d(0.0) == 0.0
    assert d(2.0) == pytest.approx(4.0)
    assert d.gamma == 2.0


def test_relativistic_small_k_is_quadratic():
    d = DispersionRelation.relativistic(mass=1.0, c=1.0)
    k = 1e-4
    assert float(d(k)) == pytest.approx(k * k / 2.0, rel=1e-6)


@pytest.mark.parametrize("mass, c", [(1.0, 1.0), (0.5, 2.0)])
def test_relativistic_against_mpmath_without_cancellation(mass, c):
    import mpmath as mp

    d = DispersionRelation.relativistic(mass=mass, c=c)
    k = np.logspace(-12, 3, 61)
    got = d(k)
    with mp.workdps(40):
        mc2 = mp.mpf(mass) * mp.mpf(c) ** 2
        want = np.array([float(mp.sqrt(mc2 ** 2 + (mp.mpf(float(x)) * c) ** 2) - mc2) for x in k])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-15


def test_massless_is_linear():
    d = DispersionRelation.massless(c=2.0, dimension=3)
    assert float(d(3.0)) == pytest.approx(6.0)
    assert d.gamma == 1.0


@pytest.mark.parametrize("dimension", [1, 3])
def test_relativistic_at_tiny_c_approaches_massless(dimension):
    # mc^2 = 1e-14 is far below the thermal scale, so the gas is massless to rounding
    c = 1e-7
    rel = DispersionRelation.relativistic(mass=1.0, c=c, dimension=dimension)
    lin = DispersionRelation.massless(c=c, dimension=dimension)
    p_rel, p_lin = (thermo.pressure(thermo.ThermoState(1.0, 0.0, thermo.FD), d) for d in (rel, lin))
    assert p_rel == pytest.approx(p_lin, rel=1e-12)


def test_invalid_parameters():
    with pytest.raises(DomainError):
        DispersionRelation.nonrelativistic(mass=-1.0)
    with pytest.raises(DomainError):
        DispersionRelation.massless(c=0.0)


def test_table_roundtrip(tmp_path):
    k = np.linspace(0.0, 10.0, 201)
    path = tmp_path / "disp.txt"
    np.savetxt(path, np.column_stack([k, k ** 2]))
    d = DispersionRelation.load_table(path, dimension=1)
    assert float(d(2.0)) == pytest.approx(4.0, rel=1e-3)
    assert d.gamma == pytest.approx(2.0, rel=1e-2)
    # beyond the table: linear continuation by the last slope
    assert float(d(20.0)) > float(d(10.0))


def test_table_rejects_bad_columns(tmp_path):
    path = tmp_path / "bad.txt"
    np.savetxt(path, np.linspace(0, 1, 10))
    with pytest.raises(DomainError):
        DispersionRelation.load_table(path)


def test_table_must_start_at_zero():
    k = np.linspace(1.0, 5.0, 10)
    with pytest.raises(DomainError):
        DispersionRelation.from_table(k, k ** 2, dimension=1)


@pytest.mark.parametrize("last", [8.5, 9.0], ids=["falling", "flat"])
def test_table_must_keep_growing(last):
    # the extension past the table follows the last slope: -0.5 and 0 are refused
    with pytest.raises(DomainError, match="last slope"):
        DispersionRelation.from_table([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 4.0, 9.0, last], dimension=3)


def test_equal_gases_share_cached_grids():
    # equality reads the parameters, not the fresh evaluate closure, so the caches
    # keyed on (beta, dispersion) hit for a separately built equal gas
    a, b = (DispersionRelation.nonrelativistic(0.5, 1) for _ in range(2))
    assert a.evaluate is not b.evaluate
    assert a == b and hash(a) == hash(b)
    assert thermo._grid(1.0, a, False) is thermo._grid(1.0, b, False)
    assert a != DispersionRelation.nonrelativistic(0.4, 1)
    assert a != DispersionRelation.nonrelativistic(0.5, 3)
    assert DispersionRelation.relativistic(1.0, c=1.0) != DispersionRelation.relativistic(2.0, c=1.0)
    assert DispersionRelation.massless(1.0) != DispersionRelation.massless(2.0)
    # equal params (1.0,): only the kind separates these two gases
    m, n = DispersionRelation.massless(1.0, 3), DispersionRelation.nonrelativistic(1.0, 3)
    assert m != n
    assert thermo._grid(1.0, m, False) is not thermo._grid(1.0, n, False)


def test_tables_compare_by_their_samples():
    k = np.linspace(0.0, 5.0, 11)
    a, b = (DispersionRelation.from_table(k, k ** 2, dimension=1) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    e = k ** 2
    e[-1] += 1.0
    other = DispersionRelation.from_table(k, e, dimension=1, gamma=a.gamma)
    assert other != a
