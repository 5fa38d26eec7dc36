"""One-particle dispersion relations ``energy = eps(|k|)``.

All dispersions are isotropic: the energy depends on the wavevector only
through its magnitude.  Each relation carries its dimension, the small-k
exponent that decides whether the critical density is finite, and a declared
large-k growth bound that ``check_samples`` verifies.
Units: hbar = 1, lengths dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["DispersionRelation"]


@dataclass(frozen=True)
class DispersionRelation:
    """Isotropic one-particle energy with growth metadata.

    Attributes
    ----------
    kind : str
        One of ``nonrelativistic``, ``relativistic``, ``massless``, ``table``.
    dimension : int
        Spatial dimension d >= 1.
    gamma : float
        Small-k exponent: eps(k) ~ k**gamma as k -> 0; the Bose critical
        density is finite iff dimension > gamma.
    alpha : float
        Large-k growth exponent: eps(k) >= k**alpha above ``large_k_threshold``,
        a declared bound that only ``check_samples`` reads.
    large_k_threshold : float
        Wavevector magnitude beyond which the growth bound is declared.
    evaluate : callable
        Maps |k| (scalar or ndarray, >= 0) to energy >= 0.
    """

    kind: str
    dimension: int
    gamma: float
    alpha: float
    large_k_threshold: float
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("dimension must be a positive integer")
        if self.gamma <= 0 or self.alpha <= 0:
            raise DomainError("growth exponents gamma, alpha must be positive")

    def __call__(self, k):
        return self.evaluate(k)

    @classmethod
    def nonrelativistic(cls, mass: float = 1.0, dimension: int = 3) -> "DispersionRelation":
        """eps(k) = k^2 / (2 m)."""
        if mass <= 0:
            raise DomainError("mass must be positive")
        if 2.0 * mass <= 1.0:
            alpha, threshold = 2.0, 0.0
        else:
            # k^2/(2m) >= k for k >= 2m
            alpha, threshold = 1.0, 2.0 * mass
        return cls(
            kind="nonrelativistic",
            dimension=dimension,
            gamma=2.0,
            alpha=alpha,
            large_k_threshold=threshold,
            evaluate=lambda k, m=mass: np.asarray(k) ** 2 / (2.0 * m),
        )

    @classmethod
    def relativistic(cls, mass: float, c: float = 1.0, dimension: int = 3) -> "DispersionRelation":
        """eps(k) = sqrt(m^2 c^4 + k^2 c^2) - m c^2.

        Linear growth at large k with sublinear offset, so the declared
        growth exponent is 1/2 above a threshold solving eps(k) = sqrt(k).
        """
        if mass <= 0 or c <= 0:
            raise DomainError("mass and c must be positive")

        def eps(k, m=mass, c=c):
            kc = np.asarray(k, dtype=float) * c
            # sqrt(a^2 + b^2) - a = b^2 / (sqrt(a^2 + b^2) + a): no cancellation at
            # small k, and b (b / (...)) cannot overflow at large k
            return kc * (kc / (np.hypot(m * c * c, kc) + m * c * c))

        # eps(k) ~ c k - m c^2 for large k; eps >= sqrt(k) once
        # c k - m c^2 >= sqrt(k); solve conservatively via doubling.
        thr = max(1.0, 2.0 * mass * c)
        while eps(thr) < np.sqrt(thr):
            thr *= 2.0
            if thr > 1e12:
                raise DomainError("cannot establish growth threshold")
        return cls(
            kind="relativistic",
            dimension=dimension,
            gamma=2.0,
            alpha=0.5,
            large_k_threshold=thr,
            evaluate=eps,
        )

    @classmethod
    def massless(cls, c: float = 1.0, dimension: int = 3) -> "DispersionRelation":
        """eps(k) = c |k| (relativistic, zero mass)."""
        if c <= 0:
            raise DomainError("c must be positive")
        if c >= 1.0:
            alpha, threshold = 1.0, 0.0
        else:
            # c k >= sqrt(k) for k >= 1/c^2
            alpha, threshold = 0.5, 1.0 / (c * c)
        return cls(
            kind="massless",
            dimension=dimension,
            gamma=1.0,
            alpha=alpha,
            large_k_threshold=threshold,
            evaluate=lambda k, c=c: c * np.abs(np.asarray(k, dtype=float)),
        )

    @classmethod
    def from_table(
        cls,
        k: np.ndarray,
        energy: np.ndarray,
        dimension: int = 3,
        gamma: float | None = None,
        alpha: float | None = None,
    ) -> "DispersionRelation":
        """Dispersion from sampled (|k|, eps) pairs with linear interpolation.

        The table must start at k = 0 with eps = 0 and be strictly increasing
        in k.  Beyond the last sample the energy is extended by the last
        table slope (growth must continue for truncation to be certifiable).
        Growth exponents default to log-log slopes fitted at the table ends.
        """
        k = np.asarray(k, dtype=float)
        energy = np.asarray(energy, dtype=float)
        if k.ndim != 1 or k.shape != energy.shape or k.size < 4:
            raise DomainError("table needs two equal-length columns, >= 4 rows")
        if k[0] != 0.0 or energy[0] != 0.0:
            raise DomainError("table must start at (0, 0): eps(0) = 0")
        if np.any(np.diff(k) <= 0):
            raise DomainError("table k column must be strictly increasing")
        if np.any(energy[1:] <= 0):
            raise DomainError("table energies must be positive for k != 0")

        slope_end = (energy[-1] - energy[-2]) / (k[-1] - k[-2])

        def eps(kk, kt=k, et=energy, s=slope_end):
            kk = np.abs(np.asarray(kk, dtype=float))
            out = np.interp(kk, kt, et)
            out = np.where(kk > kt[-1], et[-1] + s * (kk - kt[-1]), out)
            return out if out.ndim else float(out)

        if gamma is None:
            gamma = float(
                np.polyfit(np.log(k[1:4]), np.log(energy[1:4]), 1)[0]
            )
        if alpha is None:
            tail = slice(max(1, k.size - 4), k.size)
            alpha = min(
                1.0,
                float(np.polyfit(np.log(k[tail]), np.log(energy[tail]), 1)[0]),
            )
        # declared bound eps >= k^alpha checked on the table itself
        with np.errstate(divide="ignore"):
            ratio = energy[1:] / k[1:] ** alpha
        above = k[1:][ratio >= 1.0]
        threshold = float(above[0]) if above.size else float(k[-1])
        return cls(
            kind="table",
            dimension=dimension,
            gamma=float(gamma),
            alpha=float(alpha),
            large_k_threshold=threshold,
            evaluate=eps,
        )

    @classmethod
    def load_table(cls, path, dimension: int = 3, **kwargs) -> "DispersionRelation":
        """Read a two-column plain-text (|k|, eps) file."""
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError(f"{path}: expected two columns (|k|, energy)")
        return cls.from_table(data[:, 0], data[:, 1], dimension=dimension, **kwargs)

    def check_samples(self, k_max: float = 50.0, n: int = 2001) -> None:
        """Verify the dispersion invariants on a sampled grid.

        Checks eps(0) = 0, positivity for k != 0, absence of jumps beyond
        grid resolution, and the declared large-k growth bound.  Raises
        ``DomainError`` on violation.
        """
        k = np.linspace(0.0, k_max, n)
        e = np.asarray(self.evaluate(k), dtype=float)
        if abs(e[0]) > 1e-12:
            raise DomainError(f"eps(0) = {e[0]!r}, expected 0")
        if np.any(e[1:] <= 0):
            raise DomainError("eps(k) must be positive for k != 0")
        d = np.abs(np.diff(e))
        # a genuine jump dwarfs both neighbouring increments
        interior = d[1:-1]
        neighbours = d[:-2] + d[2:]
        if np.any(interior > 4.0 * neighbours + 1e-9 * max(1.0, e.max())):
            raise DomainError("sampled dispersion has a jump beyond grid resolution")
        grown = k >= max(self.large_k_threshold, k[1])
        if np.any(e[grown] < k[grown] ** self.alpha * (1.0 - 1e-12)):
            raise DomainError(
                "growth bound eps(k) >= k^alpha fails above the declared threshold"
            )
