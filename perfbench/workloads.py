"""Seeded input generator for the benchmark workloads.

Each workload is a fixed list of experiments, written as the same
``key = value`` mappings an ``ldgas`` config file holds.  The seed changes
parameter values only (tilts, density windows, sampling seeds); kinds,
sweep sizes, grid spacings and sample counts are fixed, so the work per pass
does not depend on the seed.

This module imports nothing from ``ldgas`` or numpy, so generating inputs
costs the same whatever the program does at import time.
"""

from __future__ import annotations

import random

WORKLOADS = ("interval", "bulk", "box", "fanout")

# ``LDGAS_THREADS`` per workload; only ``fanout`` runs the sweep thread pool.
SWEEP_THREADS = {"interval": 1, "bulk": 1, "box": 1, "fanout": 2}

# eps = k^2 in d = 1 (mass 0.5), the acceptance suite's interval gas
_FD_D1 = {"statistics": "FD", "dispersion": "nonrelativistic", "mass": "0.5",
          "dimension": "1", "beta": "1.0", "mu": "0.0"}
_BE_D1 = dict(_FD_D1, statistics="BE", mu="-1.0")
# eps = k^2 / 2 in d = 3; rho_bar = 0.0272, rho_c = 0.1659
_BE_D3 = {"statistics": "BE", "dispersion": "nonrelativistic", "mass": "1.0",
          "dimension": "3", "beta": "1.0", "mu": "-1.0"}
# eps = sqrt(1 + k^2) - 1 in d = 3; FD rho_bar = 0.190, BE rho_bar = 0.161, rho_c = 0.373
_REL_FD = {"statistics": "FD", "dispersion": "relativistic", "mass": "1.0", "c": "1.0",
           "dimension": "3", "beta": "1.0", "mu": "0.0"}
_REL_BE = dict(_REL_FD, statistics="BE", mu="-0.5")
_INTERVAL_SIZES = "10, 20, 40, 80"


def _num(x: float) -> str:
    return repr(round(x, 4))


def _window(rng: random.Random, lo: float, hi: float, width: float) -> str:
    a = rng.uniform(lo, hi - width)
    return f"{_num(a)}, {_num(a + width)}"


def _interval(rng: random.Random) -> list[dict]:
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 1.0)
    sweep = dict(_FD_D1, h="0.05", extent="160.0", sizes=_INTERVAL_SIZES)
    return [
        dict(sweep, kind="gf", **{"lambda": _num(lam)}),
        # windows 0.1 wide hold an integer count at L = 10; both lie above
        # the mean density (FD 0.171, BE 0.143)
        dict(sweep, kind="ldp", interval=_window(rng, 0.22, 0.40, 0.1)),
        dict(sweep, kind="clt"),
        dict(_BE_D1, kind="ldp", h="0.05", extent="160.0", sizes="10, 20, 40",
             interval=_window(rng, 0.16, 0.36, 0.1)),
        dict(kind="kernel", statistics="FD", dispersion="massless", c="1.0",
             dimension="3", beta="1.0", mu="0.0", h="0.05", sizes="1024.0"),
    ]


def _bulk(rng: random.Random) -> list[dict]:
    windows = [
        # FD d = 1, both sides of rho_bar = 0.1706
        (_FD_D1, 0.03, 0.14, 0.03), (_FD_D1, 0.03, 0.14, 0.03),
        (_FD_D1, 0.20, 0.32, 0.03), (_FD_D1, 0.20, 0.32, 0.03),
        # BE d = 3: dilute side, between rho_bar and rho_c, condensed (affine)
        (_BE_D3, 0.004, 0.022, 0.004), (_BE_D3, 0.004, 0.022, 0.004),
        (_BE_D3, 0.035, 0.150, 0.010), (_BE_D3, 0.035, 0.150, 0.010),
        (_BE_D3, 0.180, 0.400, 0.050), (_BE_D3, 0.180, 0.400, 0.050),
        # relativistic d = 3
        (_REL_FD, 0.03, 0.17, 0.03), (_REL_FD, 0.03, 0.17, 0.03),
        (_REL_FD, 0.21, 0.35, 0.03), (_REL_FD, 0.21, 0.35, 0.03),
        (_REL_BE, 0.02, 0.14, 0.02), (_REL_BE, 0.18, 0.34, 0.03),
    ]
    rates = [dict(gas, kind="rate", interval=_window(rng, lo, hi, w))
             for gas, lo, hi, w in windows]
    eos = [dict(gas, kind="eos") for gas in (_FD_D1, _BE_D3, _REL_FD, _REL_BE)]
    return rates + eos


def _box(rng: random.Random) -> list[dict]:
    # box_pmf keeps a 1e-17 tail, so the window sits within a few standard
    # deviations of the ell = 24 mean density and keeps a finite log-mass
    return [
        dict(_BE_D3, kind="modes", sizes="8, 12, 16, 24",
             interval=_window(rng, 0.0282, 0.0322, 0.002)),
        dict(_BE_D3, kind="kac", sizes="12, 16", samples="10000",
             tolerance="0.05", seed=str(rng.randrange(1, 2 ** 31))),
    ]


_GENERATORS = {"interval": _interval, "bulk": _bulk, "box": _box, "fanout": _interval}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The experiments of one pass, as raw config mappings (strings)."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(seed))
