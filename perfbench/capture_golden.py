"""Write the golden output of every benchmark case.

    python3 perfbench/capture_golden.py [WORKLOAD ...]

Run it only at a commit whose outputs are known to be right: the benchmark
counts every later difference from these bytes as a failed case.  It refuses
to write a case whose own verdict (``pass`` / ``ok``) is false.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        out_dir = workloads.GOLDEN_DIR / name
        out_dir.mkdir(parents=True, exist_ok=True)
        for p in workloads.setup(wl):
            t0 = time.perf_counter()
            out, verdict = workloads.case_output(p)
            print(f"{name} {p.case.id}: {time.perf_counter() - t0:.2f} s, "
                  f"verdict {verdict}", flush=True)
            if not verdict:
                print(f"refusing to record a failing case: {p.case.id}", file=sys.stderr)
                return 1
            (out_dir / p.case.golden_name).write_bytes(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
