"""Density fluctuations in ideal quantum gases.

Equation of state, translated pressure and the mean occupation
``ThermoState.occupation`` (``thermo``), the Legendre-dual rate function
(``rate``), the position-space occupation kernel (``kernel``),
determinantal counting statistics in an interval (``counting``), periodic
boxes with mode sampling (``modes``), their shared independent-factor law
(``factors``), and an experiment harness with a CLI (``harness``, ``cli``).
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
from .counting import (
    CountingDistribution,
    CountingMatrix,
    build_counting_matrix,
    chebyshev_bound,
    counting_pmf,
    cumulants_clt,
    lambda_max,
    ldp_log_prob,
    log_generating_function,
    tilted_moments,
    trace_moments,
)
from .modes import (
    KacResult,
    ModeLattice,
    box_log_pgf,
    box_pmf,
    box_pressure,
    kac_test,
    mean_density,
    sample_NV,
    solve_lambda_V,
)
from .harness import ExperimentConfig, ExperimentRecord, emit, run_experiment

__version__ = "0.1.0"
