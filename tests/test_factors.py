import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import binom, nbinom  # independent oracle; the package uses log-factorials

import ldgas
from ldgas import factors
from ldgas.counting import build_counting_matrix
from ldgas.dispersion import DispersionRelation
from ldgas.factors import FactorLaw
from ldgas.modes import ModeLattice, box_pmf, sample_NV, solve_lambda_V
from ldgas.thermo import BE, FD, ThermoState, critical_density

import oracle_series as oracle


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


def one_block(n, r, sigma):
    """The block and dropped bound of a single factor."""
    blocks, dropped = factors._blocks(np.array([float(n)]), np.array([r]), sigma)
    return blocks[0], dropped[0]


class TestBlocks:
    @pytest.mark.parametrize("r", [1, 2, 7, 40, 300])
    @pytest.mark.parametrize("n", [1e-6, 0.01, 0.3, 0.9])
    def test_binomial_against_scipy(self, n, r):
        block, dropped = one_block(n, r, FD)
        block, k = np.asarray(block), np.arange(r + 1)
        assert 1 <= block.size <= r + 1 and block[-1] > 0.0 and dropped == 0.0
        assert np.max(np.abs(np.pad(block, (0, r + 1 - block.size)) - binom.pmf(k, r, n))) < 1e-13
        # only entries that underflow to 0 are trimmed
        smallest_subnormal = np.nextafter(0.0, 1.0)
        assert np.all(binom.logpmf(k[block.size:], r, n) < math.log(smallest_subnormal))

    @pytest.mark.parametrize("r", [1, 2, 7, 40, 300])
    @pytest.mark.parametrize("n", [1e-6, 0.05, 0.6, 3.0, 40.0])
    def test_negative_binomial_against_scipy(self, n, r):
        block, dropped = one_block(n, r, BE)
        p = 1.0 / (1.0 + n)
        k = np.arange(block.size)
        assert np.max(np.abs(block - nbinom.pmf(k, r, p))) < 1e-13
        # the reported bound covers the mass past the block, and is below the floor
        assert nbinom.sf(k[-1], r, p) <= dropped * (1.0 + 1e-9)
        assert dropped <= factors._FACTOR_TAIL

    @pytest.mark.parametrize("r", [1, 2, 40])
    def test_fully_occupied_fermion_block_is_a_point_mass(self, r):
        block, dropped = one_block(1.0, r, FD)
        assert np.array_equal(block, np.eye(1, r + 1, r)[0]) and dropped == 0.0

    def test_log_factorial_table(self):
        table = factors._log_factorials(5000)
        assert table.size > 5000 and table[0] == table[1] == 0.0
        k = np.array([2, 10, 170, 5000])
        assert np.array_equal(table[k], [math.lgamma(j + 1.0) for j in k])

    @pytest.mark.parametrize("sigma", [FD, BE], ids=["FD", "BE"])
    def test_mixed_batch_against_scipy(self, sigma):
        if sigma == FD:
            n = [0.3, 0.0, 1.0, 0.7, 1e-4, 0.5, 0.02, 0.999]
            r = [1, 3, 5, 1, 4000, 2, 900, 30]
        else:  # heavy factors, n >= 2: the only ones FactorLaw.pmf passes
            n = [2.3, 12.5, 2.0, 40.0, 5.0, 2.4, 3.0]
            r = [1, 6, 3, 2, 4000, 900, 1]
        blocks, dropped = factors._blocks(np.array(n), np.array(r), sigma)
        assert len(blocks) == len(dropped) == len(n)
        for ni, ri, block, tail in zip(n, r, blocks, dropped):
            if block is None:  # FD n = 0: a point mass at 0
                assert sigma == FD and ni == 0.0 and tail == 0.0
                continue
            block, k = np.asarray(block), np.arange(len(block))
            law = binom(ri, ni) if sigma == FD else nbinom(ri, 1.0 / (1.0 + ni))
            # log-gamma rounding grows with r + k: about 1e-11 relative at r = 4000
            assert np.max(np.abs(block - law.pmf(k))) < 1e-10 * block.max()
            if sigma == FD:  # only entries that underflow to 0 are trimmed
                assert tail == 0.0 and law.sf(k[-1]) < 1e-300
            else:
                assert law.sf(k[-1]) <= tail * (1.0 + 1e-9) and tail <= factors._FACTOR_TAIL


def spy_paths(monkeypatch):
    """Record the route of each pmf: 'power' per power-sum law, 'blocks' per block pass,
    'convolve' per ``np.convolve`` call."""
    taken = []
    for owner, name, label in ((factors, "_power_sums", "power"), (factors, "_blocks", "blocks"),
                               (np, "convolve", "convolve")):
        def wrapper(*args, fn=getattr(owner, name), label=label):
            taken.append(label)
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)
    return taken


BE1 = ThermoState(1.0, -1.0, BE)
D3 = DispersionRelation.nonrelativistic(mass=1.0, dimension=3)


class TestPowerSums:
    """BE laws split at n = 2: the light factors through the power sums, each heavy one
    convolved on as a block, checked against the mpmath convolution.  Laws without a
    heavy factor are exact to the recurrence's rounding; heavy blocks add the rounding
    of their log-gamma values."""

    @staticmethod
    def check_against_oracle(law, pmf, tail, rtol=1e-13):
        n = np.clip(law.occupations, 0.0, None)
        ref, past = oracle.negative_binomial_law(n[n > 0], law.multiplicities[n > 0], pmf.size)
        normal = ref >= np.finfo(float).tiny  # the float law cannot resolve subnormal entries
        assert np.all(pmf[~normal] < 1e-300)
        assert np.max(np.abs(pmf[normal] / ref[normal] - 1.0)) < rtol
        assert past <= tail <= factors._PMF_BUDGET

    def test_box_pmf(self, monkeypatch):
        # ell = 8 at lam = 0: 77 shells, every one light (the ground mode has n = 0.58)
        lat = ModeLattice.build(BE1, D3, 8.0)
        law = FactorLaw(lat.occupations(0.0), lat.multiplicities, BE)
        assert law.occupations.max() < factors._LIGHT
        taken = spy_paths(monkeypatch)
        pmf, tail = law.pmf()
        assert taken == ["power"]
        assert np.array_equal(box_pmf(lat), pmf)
        self.check_against_oracle(law, pmf, tail)

    def test_interval_law(self, monkeypatch):
        # BE d = 1 at L = 20: 55 positive eigenvalues, all light
        law = build_counting_matrix(BE1, DispersionRelation.nonrelativistic(mass=0.5, dimension=1),
                                    20.0).law
        assert law.occupations.min() < 0.0  # eigenvalue noise, clipped to 0 and left out
        taken = spy_paths(monkeypatch)
        pmf, tail = law.pmf()
        assert taken == ["power"]
        self.check_against_oracle(law, pmf, tail)

    @pytest.mark.parametrize("index, heavy, rtol", [(0, 5, 1e-9), (1, 0, 1e-13)],
                             ids=["first", "second"])
    def test_sampling_group(self, index, heavy, rtol, monkeypatch):
        # be16 (criterion 12's box at 2 rho_c): the first of sample_NV's three groups has
        # five heavy shells (n = 2.1 to 12.3), the second 21 light ones, the largest at n = 1.69
        lat = ModeLattice.build(BE1, D3, 16.0)
        lam = solve_lambda_V(lat, 2.0 * critical_density(1.0, D3))
        laws, pmf = [], FactorLaw.pmf
        monkeypatch.setattr(FactorLaw, "pmf", lambda law: laws.append(law) or pmf(law))
        sample_NV(lat, lam, 1, seed=0)
        law = laws[index]
        assert [group.occupations.size for group in laws] == [5, 21, 275]
        assert np.sum(law.occupations >= factors._LIGHT) == heavy
        assert law.occupations.max() > 1.0
        self.check_against_oracle(law, *pmf(law), rtol=rtol)

    def test_p0_below_the_float_range(self, monkeypatch):
        # 2000 light factors at n = 1/2: p_0 = 1.5^-2000 = e^-811; the law is
        # NegativeBinomial(2000, 1/3)
        law = FactorLaw(np.full(2000, 0.5), np.ones(2000, dtype=np.int64), BE)
        assert -2000 * math.log1p(0.5) < -745.0
        taken = spy_paths(monkeypatch)
        pmf, tail = law.pmf()
        assert taken == ["power"] and np.all(np.isfinite(pmf)) and pmf[0] == 0.0
        self.check_against_oracle(FactorLaw(np.array([0.5]), np.array([2000]), BE), pmf, tail)
        assert pmf.sum() == pytest.approx(1.0 - tail, abs=1e-15)

    @pytest.mark.parametrize("sigma, n, r", [
        (FD, [0.3, 0.9, 0.5, 0.01], [40, 300, 2, 7]),       # FD power sums alternate in sign
        (BE, [50.0, 30.0, 2.0], [1, 2, 5]),                 # every BE factor heavy (n >= 2)
    ], ids=["FD", "BE-long"])
    def test_blocks_stay(self, sigma, n, r, monkeypatch):
        law = FactorLaw(np.array(n), np.array(r), sigma)
        taken = spy_paths(monkeypatch)
        law.pmf()
        assert taken == ["blocks"] + ["convolve"] * len(n)

    @pytest.mark.parametrize("n, r, route", [
        ([0.01] * 3 + [0.0] * 100, [1] * 103, ["power"]),  # zeros are dropped
        ([0.0, 1.9, 12.0, 0.3, 2.0], [4, 3, 1, 6, 2], ["power", "blocks", "convolve", "convolve"]),
        ([0.0, 0.0], [1, 5], []),                          # a point mass at 0
    ], ids=["BE-zeros", "BE-mixed", "BE-empty"])
    def test_route(self, n, r, route, monkeypatch):
        # one recurrence for the light factors, one np.convolve per heavy factor
        law = FactorLaw(np.array(n), np.array(r), BE)
        taken = spy_paths(monkeypatch)
        pmf, tail = law.pmf()
        assert taken == route
        if not route:
            assert np.array_equal(pmf, [1.0]) and tail == 0.0

    def test_mixed_law_against_the_full_convolution(self):
        # ten light factors on the power sums and two heavy ones convolved onto them,
        # against the mpmath convolution of all twelve
        law = FactorLaw(np.array([0.2, 0.9, 1.5, 0.05, 6.0, 0.6, 3.0, 0.01, 1.2, 0.4, 0.7, 1.99]),
                        np.array([3, 1, 2, 8, 1, 4, 2, 20, 1, 6, 2, 3]), BE)
        self.check_against_oracle(law, *law.pmf(), rtol=1e-9)


def test_fd_keeps_full_support():
    law = FactorLaw(np.array([0.3, 1e-3, 0.5]), np.array([2, 3, 1]), FD)
    pmf, tail = law.pmf()
    assert pmf.size == 7 and tail == 0.0
    assert pmf[-1] == pytest.approx(0.3 ** 2 * 1e-9 * 0.5, rel=1e-12)


@pytest.mark.parametrize("r", [2, 3, 6, 20])
@pytest.mark.parametrize("n", [0.01, 0.5, 5.0, 40.0, 300.0])
def test_be_block_tail(n, r):
    """The BE block's Chernoff bound is at least nbinom.sf at the cut, and the cut lies
    within 10% of the shortest block whose tail fits (the bound is up to about 100 times loose)."""
    block, dropped = one_block(n, r, BE)
    end = len(block) - 1
    tails = nbinom.sf(np.arange(end + 1), r, 1.0 / (1.0 + n))  # P(X > k)
    assert dropped >= tails[-1] * (1.0 - 1e-9)
    assert dropped <= factors._FACTOR_TAIL
    minimal = int(np.argmax(tails <= factors._FACTOR_TAIL))  # shortest end whose tail fits
    assert minimal <= end <= 1.1 * minimal


@pytest.mark.parametrize("sigma", [FD, BE], ids=["FD", "BE"])
def test_block_pass_cost_does_not_grow_with_the_factor_count(sigma, monkeypatch):
    rng = np.random.default_rng(3)
    calls = {"lgamma": 0, "exp": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def cost(size):
        n = rng.uniform(0.05, 0.9, size) if sigma == FD else rng.uniform(2.0, 5.0, size)  # BE heavy
        r = rng.integers(2, 60, size)
        factors._blocks(n, r, sigma)  # warms the log-factorial table
        calls.update(lgamma=0, exp=0)
        with monkeypatch.context() as patch:
            patch.setattr(math, "lgamma", counted("lgamma", math.lgamma))
            patch.setattr(np, "exp", counted("exp", np.exp))
            factors._blocks(n, r, sigma)
        return dict(calls)

    assert cost(10) == cost(1000) == {"lgamma": 0, "exp": 1}


def test_threads_growing_the_log_factorial_table_agree_with_a_serial_run(monkeypatch):
    import threading

    n = {FD: np.array([0.5 + 0.1 * i for i in range(6)])}
    n[BE] = n[FD] + 2.0  # heavy, as FactorLaw.pmf passes them
    r = np.array([2, 30, 300, 900, 2000, 4000])
    reference = {sigma: factors._blocks(n[sigma], r, sigma)[0] for sigma in (FD, BE)}
    monkeypatch.setattr(factors, "_LOG_FACTORIALS", np.zeros(1))  # every thread grows it anew
    results = [None] * 8

    def work(i):  # each its own order of statistics and of factors
        got = {}
        for sigma in (FD, BE) if i % 2 else (BE, FD):
            blocks = factors._blocks(np.roll(n[sigma], i), np.roll(r, i), sigma)[0]
            got[sigma] = blocks[i % 6 :] + blocks[: i % 6]  # undo the roll
        results[i] = got

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
    for got in results:
        for sigma, want in reference.items():
            assert all(np.array_equal(g, w) for g, w in zip(got[sigma], want))


@pytest.mark.parametrize("sigma", [FD, BE], ids=["FD", "BE"])
def test_log_pgf_of_an_array_equals_the_per_tilt_values(sigma):
    law = random_law(sigma, size=40)
    edge = 1.0 / law.occupations.max()  # BE diverges from zeta - 1 = 1 / max n on
    zt = np.array([-0.5, -0.1, 0.0, 0.2, 0.5 * edge, edge, 2.0 * edge])
    got = law.log_pgf(zt)
    assert got.shape == zt.shape
    assert np.array_equal(got, [law.log_pgf(float(z)) for z in zt])
    assert np.array_equal(law.log_pgf(zt.reshape(7, 1)), got.reshape(7, 1))
    if sigma == BE:
        assert got[-2] == got[-1] == math.inf and np.all(np.isfinite(got[:-2]))


def test_import_loads_no_scipy():
    """The package runs on numpy and the standard library alone."""
    src = os.path.dirname(os.path.dirname(ldgas.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ldgas, ldgas.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env, timeout=120)
    assert out.stdout.strip() == "[]"
