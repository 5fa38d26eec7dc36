"""The warning policy of the test suite, and fixtures shared by its modules."""

import pathlib

import numpy as np
import pytest

from ldgas import factors
from ldgas.factors import FactorLaw

# a numpy overflow or invalid-value warning that escapes an errstate fails a test, and so do
# a file or socket that a test leaves open and a deprecated call.  They are marks on the
# tests collected here, not pyproject.toml filterwarnings, which would also hold for
# perfbench/selftest.py when it runs from the repository root
HERE = pathlib.Path(__file__).parent
WARNINGS_AS_ERRORS = (
    "error::RuntimeWarning",
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
    "error::DeprecationWarning",
    "error::FutureWarning",
)


def pytest_collection_modifyitems(items):
    # first among each test's marks, so a test's own filterwarnings mark takes precedence;
    # a session that also collects tests elsewhere leaves those alone
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(*WARNINGS_AS_ERRORS), append=False)


@pytest.fixture
def group_pmfs(monkeypatch):
    """Each group law that ``modes.sample_NV``'s table builds, with its (pmf, tail), in order.

    The table builds its group laws through the pmf memo's unmemoized builder,
    ``factors._exact_pmf.__wrapped__``, which this records.
    """
    built, build = [], factors._exact_pmf.__wrapped__

    def recording(sigma, occupations, multiplicities, dtype):
        law = FactorLaw(np.frombuffer(occupations), np.frombuffer(multiplicities, dtype=dtype), sigma)
        built.append((law, build(sigma, occupations, multiplicities, dtype)))
        return built[-1][1]

    monkeypatch.setattr(factors._exact_pmf, "__wrapped__", recording)
    return built
