"""Density fluctuations in ideal quantum gases.

Equation of state, translated pressure and the mean occupation
``ThermoState.occupation`` (``thermo``), the Legendre-dual rate function
(``rate``), the position-space occupation kernel (``kernel``),
determinantal counting statistics in an interval (``counting``), periodic
boxes with mode sampling (``modes``), their shared independent-factor law
and its finite-volume statistics (``factors``), and an experiment harness
with a CLI (``harness``, ``cli``).
"""

from .dispersion import DispersionRelation
from .errors import AccuracyError, ConfigError, DomainError, ResourceError
from .thermo import (
    BE,
    FD,
    EosResult,
    ThermoState,
    critical_density,
    density,
    equation_of_state,
    pressure,
    pressure_derivatives,
    translated_pressure,
)
from .rate import RateContext, RatePoint, interval_rate, minimizer, rate_value
from .kernel import KernelTable, build_kernel, decay_exponent
from .factors import (
    chebyshev_bound,
    clt_cumulants,
    lambda_max,
    log_generating_function,
    tilted_moments,
    window_log_prob,
)
from .counting import (
    CountingDistribution,
    CountingMatrix,
    build_counting_matrix,
    counting_pmf,
    trace_moments,
)
from .modes import (
    KacResult,
    ModeLattice,
    box_pmf,
    box_pressure,
    kac_test,
    sample_NV,
    solve_lambda_V,
)
from .harness import ExperimentConfig, ExperimentRecord, emit, run_experiment

__version__ = "0.1.0"
