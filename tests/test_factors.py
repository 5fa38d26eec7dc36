import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import binom, nbinom  # independent oracle; the package uses log-factorials

import ldgas
from ldgas import factors
from ldgas.factors import FactorLaw
from ldgas.thermo import BE, FD


def random_law(sigma, seed=5, size=12):
    rng = np.random.default_rng(seed)
    n = rng.uniform(0.02, 0.95, size) if sigma == FD else rng.uniform(0.02, 3.0, size)
    return FactorLaw(n, rng.integers(1, 7, size), sigma)


def expanded(law):
    """The same law with every factor repeated r times at multiplicity 1."""
    n = np.repeat(law.occupations, law.multiplicities)
    return FactorLaw(n, np.ones(n.size, dtype=np.int64), law.sigma)


@pytest.mark.parametrize("sigma", [FD, BE], ids=["FD", "BE"])
class TestMultiplicity:
    def test_pmf(self, sigma):
        law = random_law(sigma)
        (a, tail_a), (b, tail_b) = law.pmf(), expanded(law).pmf()
        size = max(a.size, b.size)
        a, b = np.pad(a, (0, size - a.size)), np.pad(b, (0, size - b.size))
        assert np.max(np.abs(a - b)) < 1e-13
        assert tail_a < 1e-14 and tail_b < 1e-14

    def test_log_pgf_and_cumulants(self, sigma):
        law = random_law(sigma)
        for zt in (-0.5, -0.1, 0.2):
            assert law.log_pgf(zt) == pytest.approx(expanded(law).log_pgf(zt), rel=1e-13)
        for got, want in zip(law.cumulants(), expanded(law).cumulants()):
            assert got == pytest.approx(want, rel=1e-13)


class TestBlocks:
    @pytest.mark.parametrize("r", [1, 2, 7, 40, 300])
    @pytest.mark.parametrize("n", [1e-6, 0.01, 0.3, 0.9])
    def test_binomial_against_scipy(self, n, r):
        block, dropped = factors._block(n, r, FD)
        assert len(block) == r + 1 and dropped == 0.0
        assert np.max(np.abs(np.asarray(block) - binom.pmf(np.arange(r + 1), r, n))) < 1e-13

    @pytest.mark.parametrize("r", [1, 2, 7, 40, 300])
    @pytest.mark.parametrize("n", [1e-6, 0.05, 0.6, 3.0, 40.0])
    def test_negative_binomial_against_scipy(self, n, r):
        block, dropped = factors._block(n, r, BE)
        p = 1.0 / (1.0 + n)
        k = np.arange(block.size)
        assert np.max(np.abs(block - nbinom.pmf(k, r, p))) < 1e-13
        # the reported bound covers the mass past the block, and is below the floor
        assert nbinom.sf(k[-1], r, p) <= dropped * (1.0 + 1e-9)
        assert dropped <= factors._FACTOR_TAIL

    @pytest.mark.parametrize("r", [1, 2, 40])
    def test_fully_occupied_fermion_block_is_a_point_mass(self, r):
        block, dropped = factors._block(1.0, r, FD)
        assert np.array_equal(block, np.eye(1, r + 1, r)[0]) and dropped == 0.0

    def test_log_factorial_table(self):
        table = factors._log_factorials(5000)
        assert table.size > 5000 and table[0] == table[1] == 0.0
        k = np.array([2, 10, 170, 5000])
        assert np.array_equal(table[k], [math.lgamma(j + 1.0) for j in k])

    def test_negligible_factor_is_dropped(self):
        block, dropped = factors._block(1e-23, 3, BE)
        assert block is None and dropped == pytest.approx(3e-23)


def test_fd_keeps_full_support():
    law = FactorLaw(np.array([0.3, 1e-3, 0.5]), np.array([2, 3, 1]), FD)
    pmf, tail = law.pmf()
    assert pmf.size == 7 and tail == 0.0
    assert pmf[-1] == pytest.approx(0.3 ** 2 * 1e-9 * 0.5, rel=1e-12)


@pytest.mark.parametrize("r", [2, 3, 6, 20])
@pytest.mark.parametrize("n", [0.01, 0.5, 5.0, 40.0, 300.0])
def test_be_block_tail(n, r):
    """The BE block's reported tail bounds nbinom.sf, and its length is all but minimal."""
    block, dropped = factors._block(n, r, BE)
    end = len(block) - 1
    tails = nbinom.sf(np.arange(end + 1), r, 1.0 / (1.0 + n))  # P(X > k)
    assert dropped >= tails[-1] * (1.0 - 1e-9)
    assert dropped <= factors._FACTOR_TAIL
    minimal = int(np.argmax(tails <= factors._FACTOR_TAIL))  # shortest end whose tail fits
    assert minimal <= end <= minimal + 3


def test_threads_growing_the_log_factorial_table_agree_with_a_serial_run(monkeypatch):
    import threading

    cases = [(0.5 + 0.1 * i, r, sigma) for i, r in enumerate((2, 30, 300, 900, 2000, 4000))
             for sigma in (FD, BE)]
    reference = [factors._block(*case)[0] for case in cases]
    monkeypatch.setattr(factors, "_LOG_FACTORIALS", np.zeros(1))  # every thread grows it anew
    results = [None] * 8

    def work(i):
        results[i] = [factors._block(*case)[0] for case in cases[i:] + cases[:i]]  # each its own order

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
    for i, got in enumerate(results):
        assert all(np.array_equal(g, w) for g, w in zip(got, reference[i:] + reference[:i]))


def test_import_loads_no_scipy():
    """The package runs on numpy and the standard library alone."""
    src = os.path.dirname(os.path.dirname(ldgas.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ldgas, ldgas.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env, timeout=120)
    assert out.stdout.strip() == "[]"
