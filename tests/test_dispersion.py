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
    d.check_samples()


def test_relativistic_small_k_is_quadratic():
    d = DispersionRelation.relativistic(mass=1.0, c=1.0)
    k = 1e-4
    assert float(d(k)) == pytest.approx(k * k / 2.0, rel=1e-6)
    d.check_samples()


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
    d.check_samples()


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
    d.check_samples(k_max=9.0)


def test_table_rejects_bad_columns(tmp_path):
    path = tmp_path / "bad.txt"
    np.savetxt(path, np.linspace(0, 1, 10))
    with pytest.raises(DomainError):
        DispersionRelation.load_table(path)


def test_table_must_start_at_zero():
    k = np.linspace(1.0, 5.0, 10)
    with pytest.raises(DomainError):
        DispersionRelation.from_table(k, k ** 2, dimension=1)


def test_jump_detection():
    k = np.linspace(0.0, 5.0, 101)
    e = k ** 2
    e[50:] += 5.0  # step discontinuity
    d = DispersionRelation.from_table(k, e, dimension=1, gamma=2.0, alpha=1.0)
    with pytest.raises(DomainError, match="jump"):
        d.check_samples(k_max=5.0, n=101)


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


def test_tables_compare_by_their_samples():
    k = np.linspace(0.0, 5.0, 11)
    a, b = (DispersionRelation.from_table(k, k ** 2, dimension=1) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    e = k ** 2
    e[-1] += 1.0
    other = DispersionRelation.from_table(k, e, dimension=1, gamma=a.gamma, alpha=a.alpha)
    assert other != a
