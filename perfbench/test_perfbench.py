"""Tests of the benchmark itself, on a few of its fastest cases.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

# fast cases covering Q (with a fracfield switch), F_p, Z, a file-loaded
# dialgebra and a splitting check
SMALL = {
    "verify_q": {"sl(2,1,rationals)", "sl(3,0,rationals)"},
    "verify_fpz": {"sl(3,0,f3)", "sl(2,1,f3)", "sl(2,1,dual_z)"},
    "splitting_mixed": {"sl(3,1,f2)"},
}


def small_cases(golden_dir=workloads.GOLDEN_DIR):
    out = []
    for name, ids in SMALL.items():
        out += [p for p in workloads.setup(workloads.WORKLOADS[name], golden_dir)
                if p.case.id in ids]
    return out


def module_bindings():
    """Every attribute of every uce_lab module and patched class, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "uce_lab" or name.startswith("uce_lab."):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
                if isinstance(val, type):
                    for cattr, cval in vars(val).items():
                        snap[(name, attr, cattr)] = cval
    return snap


def test_seeds_permute_order_but_not_outputs():
    prepared = small_cases()
    a = workloads.run_pass(prepared, random.Random(1))
    b = workloads.run_pass(prepared, random.Random(2))
    assert not a.failed and not b.failed
    assert list(a.outputs) != list(b.outputs)  # a different case order
    assert a.outputs == b.outputs


def test_traced_outputs_identical_and_patches_restored():
    prepared = small_cases()
    plain = workloads.run_pass(prepared, random.Random(3))
    import uce_lab.cli  # noqa: F401  (the tracer patches it too)

    before = module_bindings()
    tracer = layertrace.Tracer()
    with tracer:
        traced = workloads.run_pass(prepared, random.Random(3), tracer)
        assert module_bindings() != before
    assert module_bindings() == before
    assert not traced.failed
    assert traced.outputs == plain.outputs
    assert not tracer.missing
    agg = tracer.aggregate()
    assert agg["exactlin.Echelon._to_fracfield"]["calls"] > 0
    # kernel_basis is called through the names chain, tensorsq and
    # hochschild bound with "from .exactlin import kernel_basis"
    callers = {tracer.spans[s[3]][0] for s in tracer.spans
               if s[0] == "exactlin.kernel_basis" and s[3] >= 0}
    assert {"chain.hl", "hochschild.degree_one_homology"} <= callers
    for span in tracer.spans:
        assert span[4] in {p.case.id for p in prepared}


def test_call_counts_repeat_exactly():
    prepared = small_cases()
    counts = []
    for seed in (4, 5):
        tracer = layertrace.Tracer()
        with tracer:
            workloads.run_pass(prepared, random.Random(seed), tracer)
        counts.append({k: v for k, v in tracer.layer_metrics().items()
                       if not k.endswith("_s") and not k.endswith("useful_ratio")})
    assert counts[0] == counts[1]


def test_corrupted_golden_counts_as_failure(tmp_path, capsys):
    shutil.copytree(workloads.GOLDEN_DIR, tmp_path / "golden")
    victim = tmp_path / "golden" / "verify_fpz" / "sl_2_1_f3.json"
    victim.write_bytes(victim.read_bytes().replace(b"true", b"false", 1))
    result = workloads.run_pass(small_cases(tmp_path / "golden"), random.Random(6))
    assert result.failed == ["sl(2,1,f3)"]
    assert "Traceback" not in capsys.readouterr().err


def test_missing_entry_point_is_absent_not_zero():
    extra = (("exactlin", "Echelon._no_such_method"), ("no_such_module", "f"))
    tracer = layertrace.Tracer(entry_points=layertrace.ENTRY_POINTS + extra)
    with tracer:
        workloads.run_pass(small_cases()[:1], random.Random(7), tracer)
    assert tracer.missing == ["exactlin.Echelon._no_such_method", "no_such_module.f"]
    names = tracer.layer_metrics()
    assert not any("_no_such_method" in k or "no_such_module" in k for k in names)


def test_reference_seconds_rescale_by_probe_speed():
    probe = hostspeed.HostSpeedProbe()
    ref = hostspeed.PROBE_REF_S
    probe.samples = [(0.5, ref), (1.5, 2 * ref), (2.5, 2 * ref), (3.5, ref)]
    assert probe.reference_seconds(0.0, 1.0) == 1.0
    assert probe.reference_seconds(1.0, 3.0) == 1.0  # the host ran at half speed
    assert abs(probe.reference_seconds(3.6, 3.7, outer=(0.0, 4.0)) - 0.075) < 1e-12
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    with hostspeed.HostSpeedProbe() as live:
        sum(range(3_000_000))
        while not live.samples:
            signal.pause()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layertrace.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(layertrace.EXPECTED) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "pass_ref_s", "anchor_ref_s", "setup_s", "peak_rss_mb"}


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_fpz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
