"""Exact-homology benchmark: one workload per process, outputs checked
against golden bytes.

    python3 perfbench/run.py --workload verify_q --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The load is a closed loop with one client: a pass runs every case
of the workload back to back in this process, with no threads or
subprocesses, in an order drawn from the seed (the seed changes nothing
else).  Passes repeat while another one is expected to end within
``--seconds``; at least one pass always runs.

Times are gated at a reference host speed (see ``hostspeed.py``): on a
shared host the wall time of one pass drifts by 15-30 % between runs of the
same code, which no regression bound can absorb.  ``--trace 0`` reports the
end-to-end metrics ``pass_ref_s`` and ``anchor_ref_s`` (pass and anchor-case
time, medians over passes), ``setup_s`` (median time of fresh interpreters
that only set up), all three at the reference speed, and ``peak_rss_mb``.
It also prints, ungated, the fail ratio and the wall times ``pass_s`` and
``anchor_case_s``.  ``--trace 1`` runs one untraced pass, then traced passes,
and reports the per-layer metrics of ``layertrace.PER_LAYER`` (their
``self_s`` figures are wall time).  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# single-threaded numeric libraries; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import HostSpeedProbe  # noqa: E402

SETUP_REPEATS = 5
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
TRACE_DIR = ROOT / ".bench_trace"


def _require_source():
    if not (SRC / "uce_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {SRC}")


def _import_program():
    """Import uce_lab from this checkout's src/ and nowhere else."""
    _require_source()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import uce_lab
    import uce_lab.cli  # noqa: F401

    if Path(uce_lab.__file__).resolve().parent != (SRC / "uce_lab").resolve():
        raise SystemExit(f"error: uce_lab imported from {uce_lab.__file__}, not {SRC}")


def _setup_seconds(workload: str) -> list:
    """Reference-speed time of fresh interpreters that import, set up and
    exit.  The host's speed is probed in this process just before and after
    each one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-only"]
    probe = HostSpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        before = time.perf_counter()
        for _ in range(SETUP_PROBES):
            probe.sample()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        t1 = time.perf_counter()
        if done.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{done.stderr}")
        for _ in range(SETUP_PROBES):
            probe.sample()
        times.append(probe.reference_seconds(t0, t1, outer=(before, time.perf_counter())))
    return times


def _machine() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _run_passes(prepared, rng, seconds, tracer=None):
    """Passes while another one is expected to end within ``seconds`` (at
    least one), with the layer metrics of each pass when traced."""
    passes, layer = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        passes.append(workloads.run_pass(prepared, rng, tracer))
        if tracer is not None:
            layer.append(tracer.layer_metrics())
        if time.perf_counter() - start + passes[-1].seconds > seconds:
            return passes, layer


def _pass_ref(probe, p):
    return probe.reference_seconds(p.start, p.end)


def _anchor_ref(probe, p, anchor):
    return probe.reference_seconds(*p.case_spans[anchor], outer=(p.start, p.end))


def _end_to_end(passes, probe, anchor, setup_times) -> dict:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "pass_ref_s": {
            "value": statistics.median(_pass_ref(probe, p) for p in passes), "unit": "s"},
        "anchor_ref_s": {
            "value": statistics.median(_anchor_ref(probe, p, anchor) for p in passes),
            "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }


def _traced(prepared, wl, rng, seconds, probe):
    """One untraced pass for the overhead base, then traced passes."""
    from layertrace import PER_LAYER, Tracer

    base = workloads.run_pass(prepared, rng)
    tracer = Tracer()
    with tracer:
        passes, layer = _run_passes(prepared, rng, seconds - base.seconds, tracer)
        missed = tracer.missed_patches(wl.name)
    for p, values in zip(passes, layer):
        values["trace.overhead_ratio"] = _pass_ref(probe, p) / _pass_ref(probe, base) - 1
        values["trace.missed_patches"] = len(missed)
    for span in tracer.missing:
        print(f"trace: entry point {span} not found; its metrics are absent")
    for span in missed:
        print(f"trace: missed patch: {span} recorded no call on {wl.name}")
    # traced outputs must be byte-identical to the untraced ones
    consistent = all(p.outputs == base.outputs for p in passes)
    metrics = {}
    for name, unit in PER_LAYER:
        vals = [v[name] for v in layer if name in v]
        if vals:
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    _write_trace(wl.name, tracer, layer)
    return [base, *passes], metrics, consistent


def _write_trace(workload, tracer, layer):
    """Per-pass layer metrics and the last pass's span sums by case."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"passes": layer, "last_pass_by_case": tracer.by_case()},
                               indent=1, sort_keys=True) + "\n")
    print(f"trace: span sums written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        _import_program()
        workloads.setup(wl)
        return 0

    _require_source()
    setup_times = [] if args.trace else _setup_seconds(wl.name)
    _import_program()
    machine = _machine()
    prepared = workloads.setup(wl)
    rng = random.Random(args.seed)

    with HostSpeedProbe() as probe:
        if args.trace:
            passes, metrics, consistent = _traced(prepared, wl, rng, args.seconds, probe)
        else:
            passes, _ = _run_passes(prepared, rng, args.seconds)
    if not args.trace:
        metrics, consistent = _end_to_end(passes, probe, wl.anchor.id, setup_times), True

    attempted = len(prepared) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    machine["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {wl.name}: {len(passes)} passes of {len(prepared)} cases, "
          f"anchor {wl.anchor.id}")
    for k, p in enumerate(passes, 1):
        cases = ", ".join(f"{c} {t:.3f}" for c, t in p.case_seconds.items())
        print(f"pass {k}: {p.seconds:.3f} s [{cases}]")
    print(f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
    if not args.trace:
        raw_pass = statistics.median(p.seconds for p in passes)
        raw_anchor = statistics.median(p.case_seconds[wl.anchor.id] for p in passes)
        print(f"pass_s {raw_pass:.6g} s (wall, ungated)")
        print(f"anchor_case_s {raw_anchor:.6g} s (wall, ungated)")
    probes = [d for _, d in probe.samples]
    print(f"host probe: {len(probes)} samples, median {statistics.median(probes) * 1e3:.4g} ms "
          f"(reference {hostspeed.PROBE_REF_S * 1e3:.4g} ms)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
