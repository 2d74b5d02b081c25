"""Shared test settings.

Property tests run derandomized with a small example budget and no example
database, so the suite is deterministic, writes no files and the property
tests stay a few seconds in total.
"""

from hypothesis import settings

settings.register_profile(
    "uce", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("uce")
