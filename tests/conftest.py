"""Shared test settings.

Property tests run derandomized with a small example budget and no example
database, so the suite is deterministic, writes no files and the property
tests stay a few seconds in total.  Two small dialgebras shared by the
Hochschild and CLI tests are fixtures.
"""

import pytest
from hypothesis import settings

settings.register_profile(
    "uce", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("uce")


# the two products of Z x Z written on the unimodular basis (2, -1), (-1, 1);
# its bar-unit (2, 3) and (1, 1) form another basis
_SKEW_ZZ_TABLE = [[0, 0, 0, "5"], [0, 0, 1, "6"], [0, 1, 0, "-3"], [0, 1, 1, "-4"],
                  [1, 0, 0, "-3"], [1, 0, 1, "-4"], [1, 1, 0, "2"], [1, 1, 1, "3"]]


@pytest.fixture
def skew_zz_data() -> dict:
    """Z x Z on a basis its bar-unit is not in, as a dialgebra file's JSON."""
    return {"ring": {"kind": "integers"}, "dim": 2, "parity": [0, 0],
            "left": _SKEW_ZZ_TABLE, "right": _SKEW_ZZ_TABLE,
            "bar_unit": ["2", "3"], "name": "skew_zz"}


@pytest.fixture
def zero_dim_data() -> dict:
    """The zero dialgebra over Z: valid and unital, its bar-unit is empty."""
    return {"ring": {"kind": "integers"}, "dim": 0, "parity": [],
            "left": [], "right": [], "bar_unit": [], "name": "zero"}
