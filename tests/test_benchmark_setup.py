"""The benchmark's set-up children exit 0 under any hash seed.

``perfbench/run.py`` times ``setup_s`` with fresh interpreters that run
``--setup-only``: each one imports the program, then loads and validates
every dialgebra of the workload.  Every fresh interpreter draws its own
string hash seed, so a set-up that depends on set or dict order of strings
would fail only in some of them; two fixed seeds per workload run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (the benchmark's workloads)


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_setup_only_exits_0(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
