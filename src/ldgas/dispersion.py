"""One-particle dispersion relations ``energy = eps(|k|)``.

All dispersions are isotropic: the energy depends on the wavevector only
through its magnitude.  Each relation carries its dimension and the small-k
exponent that decides whether the critical density is finite.
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
    """Isotropic one-particle energy with its small-k exponent.

    Attributes
    ----------
    kind : str
        One of ``nonrelativistic``, ``relativistic``, ``massless``, ``table``.
    dimension : int
        Spatial dimension d >= 1.
    gamma : float
        Small-k exponent: eps(k) ~ k**gamma as k -> 0; the Bose critical
        density is finite iff dimension > gamma.
    params : tuple
        What ``evaluate`` is built from: (mass,), (mass, c), (c,) or the
        table's sample bytes.  Equality and hashing read it in place of the
        ``evaluate`` closure, so equal gases share the caches keyed on them.
    evaluate : callable
        Maps |k| (scalar or ndarray, >= 0) to energy >= 0.
    """

    kind: str
    dimension: int
    gamma: float
    params: tuple
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("dimension must be a positive integer")
        if self.gamma <= 0:
            raise DomainError("small-k exponent gamma must be positive")

    def __call__(self, k):
        return self.evaluate(k)

    @classmethod
    def nonrelativistic(cls, mass: float = 1.0, dimension: int = 3) -> "DispersionRelation":
        """eps(k) = k^2 / (2 m)."""
        if mass <= 0:
            raise DomainError("mass must be positive")
        return cls(
            kind="nonrelativistic",
            dimension=dimension,
            gamma=2.0,
            params=(mass,),
            evaluate=lambda k, m=mass: np.asarray(k) ** 2 / (2.0 * m),
        )

    @classmethod
    def relativistic(cls, mass: float, c: float = 1.0, dimension: int = 3) -> "DispersionRelation":
        """eps(k) = sqrt(m^2 c^4 + k^2 c^2) - m c^2."""
        if mass <= 0 or c <= 0:
            raise DomainError("mass and c must be positive")

        def eps(k, m=mass, c=c):
            kc = np.asarray(k, dtype=float) * c
            # sqrt(a^2 + b^2) - a = b^2 / (sqrt(a^2 + b^2) + a): no cancellation at
            # small k, and b (b / (...)) cannot overflow at large k
            return kc * (kc / (np.hypot(m * c * c, kc) + m * c * c))

        return cls(
            kind="relativistic",
            dimension=dimension,
            gamma=2.0,
            params=(mass, c),
            evaluate=eps,
        )

    @classmethod
    def massless(cls, c: float = 1.0, dimension: int = 3) -> "DispersionRelation":
        """eps(k) = c |k| (relativistic, zero mass)."""
        if c <= 0:
            raise DomainError("c must be positive")
        return cls(
            kind="massless",
            dimension=dimension,
            gamma=1.0,
            params=(c,),
            evaluate=lambda k, c=c: c * np.abs(np.asarray(k, dtype=float)),
        )

    @classmethod
    def from_table(
        cls,
        k: np.ndarray,
        energy: np.ndarray,
        dimension: int = 3,
        gamma: float | None = None,
    ) -> "DispersionRelation":
        """Dispersion from sampled (|k|, eps) pairs with linear interpolation.

        The table must start at k = 0 with eps = 0 and be strictly increasing
        in k.  Beyond the last sample the energy is extended by the last
        table slope, which must be positive (growth must continue for
        truncation to be certifiable).
        ``gamma`` defaults to the log-log slope of the first three samples past 0.
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
        if not slope_end > 0:
            raise DomainError(
                f"table's last slope {slope_end:.6g} must be positive: the extension "
                "past the last row must grow"
            )

        def eps(kk, kt=k, et=energy, s=slope_end):
            kk = np.abs(np.asarray(kk, dtype=float))
            out = np.interp(kk, kt, et)
            out = np.where(kk > kt[-1], et[-1] + s * (kk - kt[-1]), out)
            return out if out.ndim else float(out)

        if gamma is None:
            gamma = float(
                np.polyfit(np.log(k[1:4]), np.log(energy[1:4]), 1)[0]
            )
        return cls(
            kind="table",
            dimension=dimension,
            gamma=float(gamma),
            params=(k.tobytes(), energy.tobytes()),
            evaluate=eps,
        )

    @classmethod
    def load_table(cls, path, dimension: int = 3, **kwargs) -> "DispersionRelation":
        """Read a two-column plain-text (|k|, eps) file."""
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError(f"{path}: expected two columns (|k|, energy)")
        return cls.from_table(data[:, 0], data[:, 1], dimension=dimension, **kwargs)
