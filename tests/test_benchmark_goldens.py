"""Every benchmark case reproduces its golden output.

``perfbench/test_perfbench.py`` compares only a few of the fastest cases;
this runs one pass of every case of every workload in ``perfbench/``, each
output compared byte for byte with its file in ``perfbench/golden/``.
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (the benchmark's workloads)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_case_matches_its_golden(workload):
    prepared = workloads.setup(workloads.WORKLOADS[workload])
    done = workloads.run_pass(prepared, random.Random(0))
    assert done.failed == []
    assert len(done.outputs) == len(prepared)
