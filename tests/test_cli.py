"""CLI exit codes, formats and determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uce_lab import cli
from uce_lab.cli import main
from uce_lab.hochschild import splitting_check
from uce_lab.superdialg import (
    builtin_dialgebra,
    dump_dialgebra,
    load_dialgebra,
    load_dialgebra_file,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (the benchmark's cases and golden outputs)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_builtin_valid(capsys):
    code, out, _ = run(capsys, "check", "rationals")
    assert code == 0 and "valid" in out


def test_check_broken_axiom_names_it(capsys, tmp_path):
    blob = dump_dialgebra(builtin_dialgebra("rationals"))
    blob["left"] = [[0, 0, 0, "2"]]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 1
    assert "mixed-axiom" in out


def test_check_malformed_json_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert str(p) in err


def test_verify_2_2_rationals(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "2",
                       "--builtin", "rationals")
    assert code == 0
    assert "pass" in out and "free^2" in out


def test_hhs1_integers(capsys):
    code, out, _ = run(capsys, "hhs1", "--builtin", "integers")
    assert code == 0
    assert "even: 0 | odd: 0" in out


def test_hl2_stable_case_is_zero(capsys):
    code, out, _ = run(capsys, "hl2", "--m", "3", "--n", "2",
                       "--builtin", "rationals")
    assert code == 0
    assert "even: 0 | odd: 0" in out


def test_unclassified_case_exits_4(capsys):
    code, _, err = run(capsys, "verify", "--m", "1", "--n", "2",
                       "--builtin", "rationals")
    assert code == 4


def test_guard_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "hl2", "--m", "4", "--n", "4",
                       "--builtin", "mat2_q", "--guard", "1000")
    assert code == 3


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run(capsys, "hhs1", "--builtin", "nope")
    assert code == 2


def test_catalog_lists_builtins(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("rationals", "bar_duplex_q", "mat2_q"):
        assert name in out


def test_json_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--m", "3", "--n", "0",
                         "--builtin", "f3", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "--m", "3", "--n", "0",
                         "--builtin", "f3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    blob = json.loads(out1)
    assert blob["pass"] is True
    assert "elapsed_ms" not in blob["report"]


def test_json_report_fields(capsys):
    code, out, _ = run(capsys, "hl2", "--m", "3", "--n", "0",
                       "--builtin", "f3", "--format", "json")
    blob = json.loads(out)
    assert blob["hl2"]["even_free_rank"] == 6


def test_dialgebra_file_source(capsys, tmp_path):
    p = tmp_path / "bd.json"
    p.write_text(json.dumps(dump_dialgebra(builtin_dialgebra("bar_duplex_q"))))
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "1",
                       "--dialgebra", str(p))
    assert code == 0 and "pass" in out


def test_verify_missing_arguments_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--builtin", "rationals")
    assert code == 2
    code, _, err = run(capsys, "verify", "--m", "2", "--n", "1")
    assert code == 2


def test_composite_modulus_exits_2(capsys, tmp_path):
    blob = dump_dialgebra(builtin_dialgebra("f2"))
    blob["ring"] = {"kind": "int_mod", "modulus": 6}
    p = tmp_path / "mod6.json"
    p.write_text(json.dumps(blob))
    # the file itself is valid data
    code, _, _ = run(capsys, "check", str(p))
    assert code == 0
    # elimination-backed commands refuse composite moduli
    code, _, err = run(capsys, "hl2", "--m", "2", "--n", "1",
                       "--dialgebra", str(p))
    assert code == 2 and "composite" in err


def test_non_unital_builtin_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--m", "2", "--n", "1",
                       "--builtin", "t3_dga_q")
    assert code == 2 and "unital" in err


def test_bar_unit_breaking_the_bar_unit_law_exits_2(capsys, tmp_path):
    # rejected on loading, before sl could raise its RuntimeError for it
    blob = dump_dialgebra(builtin_dialgebra("dual_numbers_q"))
    blob["bar_unit"] = ["0", "1"]
    p = tmp_path / "nilpotent_unit.json"
    p.write_text(json.dumps(blob))
    code, _, err = run(capsys, "verify", "--m", "2", "--n", "1", "--dialgebra", str(p))
    assert code == 2 and "bar-unit" in err


@pytest.mark.parametrize("command", [("hhs1",), ("verify", "--m", "2", "--n", "1"),
                                     ("verify", "--m", "3", "--n", "0")])
def test_zero_dimensional_dialgebra_exits_2(capsys, tmp_path, zero_dim_data, command):
    # a valid unital file, but no basis contains its (empty) bar-unit
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(zero_dim_data))
    code, out, err = run(capsys, *command, "--dialgebra", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.strip().count("\n") == 0
    assert "zero-dimensional" in err


def test_zero_dimensional_dialgebra_hl2_never_needs_the_basis(capsys, tmp_path,
                                                               zero_dim_data):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(zero_dim_data))
    assert run(capsys, "check", str(p))[0] == 0
    code, out, _ = run(capsys, "hl2", "--m", "3", "--n", "0", "--dialgebra", str(p))
    assert code == 0 and "even: 0 | odd: 0" in out


def test_dialgebra_whose_bar_unit_is_not_a_basis_vector(capsys, tmp_path, skew_zz_data):
    # Z x Z on the basis (2, -1), (-1, 1): computed on its own basis, with
    # no change of basis to complete
    p = tmp_path / "skew_zz.json"
    p.write_text(json.dumps(skew_zz_data))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0 and "skew_zz: valid" in out
    code, out, _ = run(capsys, "hhs1", "--dialgebra", str(p))
    assert code == 0 and "even: 0 | odd: 0" in out
    for m, n in ((2, 1), (3, 0)):
        code, out, _ = run(capsys, "verify", "--m", str(m), "--n", str(n),
                           "--dialgebra", str(p))
        assert code == 0 and " pass " in out
    assert splitting_check(2, 1, load_dialgebra(skew_zz_data)).ok


def _f2_with_modulus(tmp_path, modulus):
    blob = dump_dialgebra(builtin_dialgebra("f2"))
    blob["ring"] = {"kind": "int_mod", "modulus": modulus}
    p = tmp_path / f"mod{modulus}.json"
    p.write_text(json.dumps(blob))
    return p


def test_large_prime_modulus_is_decided_quickly(capsys, tmp_path):
    p = _f2_with_modulus(tmp_path, 2**61 - 1)
    code, out, _ = run(capsys, "hhs1", "--dialgebra", str(p))
    assert code == 0 and "even: 0 | odd: 0" in out


def test_carmichael_modulus_is_composite(capsys, tmp_path):
    p = _f2_with_modulus(tmp_path, 561)  # 3 * 11 * 17, a Fermat pseudoprime
    code, _, err = run(capsys, "hhs1", "--dialgebra", str(p))
    assert code == 2 and "composite" in err


def test_modulus_above_primality_bound_exits_2(capsys, tmp_path):
    p = _f2_with_modulus(tmp_path, 10**25 + 13)
    code, _, err = run(capsys, "hhs1", "--dialgebra", str(p))
    assert code == 2 and "primality" in err


@pytest.mark.parametrize("modulus", ["7", 7.5, [7]])
@pytest.mark.parametrize("command", [("check",), ("hhs1", "--dialgebra")])
def test_non_integer_modulus_exits_2(capsys, tmp_path, modulus, command):
    p = _f2_with_modulus(tmp_path, modulus)
    code, out, err = run(capsys, *command, str(p))
    assert code == 2 and out == ""
    assert err.strip().count("\n") == 0 and "integer modulus" in err


@pytest.mark.parametrize("content", [
    b'{"dim": ' + b"1" * 5000 + b"}",     # over Python's integer digit limit
    b"[" * 100_000 + b"]" * 100_000,      # nested deeper than the recursion limit
    b"\xff\xfe{",                         # not UTF-8
])
@pytest.mark.parametrize("command", [("check",), ("hhs1", "--dialgebra")])
def test_undecodable_file_exits_2(capsys, tmp_path, content, command):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    code, out, err = run(capsys, *command, str(p))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.strip().count("\n") == 0


# ---------------------------------------------------------------------------
# loader fuzz: one field of a valid file replaced by something malformed
# ---------------------------------------------------------------------------

_WRONG_TYPE = st.sampled_from([None, True, 1.5, "x", [], {}, -1, 10**400, [[0, 0]]])
_BAD_INDEX = st.sampled_from([-1, 2, 10**400, 1.0, True, "0", None, [0]])
_BAD_COEFF = st.sampled_from([
    "1/0", "x", "1/2/3", "", "1e3", "1.5", 1.5, None, [1], True, "1/-2",
    "1/" + "9" * 50, "9" * 400, "-0", " 3 ", "0x10",
])
_BAD_MODULUS = st.sampled_from([0, 1, 4, -7, 10**400, 2**61 - 1, "7", 7.5, [7], True])


@st.composite
def _mutated_dialgebra(draw):
    blob = dump_dialgebra(builtin_dialgebra(
        draw(st.sampled_from(["bar_duplex_f2", "dual_numbers_q", "grassmann_q", "integers"]))))
    where = draw(st.sampled_from(["field", "ring", "parity", "index", "coeff", "bar_unit"]))
    if where == "field":
        blob[draw(st.sampled_from(sorted(blob)))] = draw(_WRONG_TYPE)
    elif where == "ring":
        key = draw(st.sampled_from(["kind", "modulus"]))
        blob["ring"][key] = draw(_BAD_MODULUS if key == "modulus" else _WRONG_TYPE)
    elif where == "parity":
        blob["parity"][draw(st.integers(0, blob["dim"] - 1))] = draw(_BAD_INDEX)
    elif where == "bar_unit":
        blob["bar_unit"][draw(st.integers(0, blob["dim"] - 1))] = draw(_BAD_COEFF)
    else:
        row = draw(st.sampled_from(blob[draw(st.sampled_from(["left", "right"]))]))
        if where == "index":
            row[draw(st.integers(0, 2))] = draw(_BAD_INDEX)
        else:
            row[3] = draw(_BAD_COEFF)
    return blob


@given(_mutated_dialgebra())
def test_loader_fuzz_ends_in_a_documented_exit_code(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.json")
        Path(path).write_text(json.dumps(blob))
        for argv, allowed in ((["check", path], (0, 1, 2)),
                              (["hhs1", "--dialgebra", path], (0, 2))):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in allowed, (argv[0], err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize("argv", [
    ("hl2", "--m", "2", "--n", "1"),
    ("hhs1",),
    ("verify", "--m", "2", "--n", "1"),
])
def test_axiom_violating_file_is_rejected_before_computing(capsys, tmp_path, argv):
    blob = dump_dialgebra(builtin_dialgebra("rationals"))
    blob["left"] = [[0, 0, 0, "2"]]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(blob))
    code, out, err = run(capsys, *argv, "--dialgebra", str(p))
    assert code == 2 and out == ""
    assert "INVALID" in err and "  - mixed-axiom" in err
    assert "Traceback" not in err


def test_internal_invariant_breach_exits_5(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("d_1 o d_2 != 0; boundary signs drifted")

    monkeypatch.setattr(cli, "hhs1", broken)
    code, _, err = run(capsys, "hhs1", "--builtin", "integers")
    assert code == 5
    assert err.strip().count("\n") == 0 and "d_1 o d_2" in err


def test_main_builds_the_parser_once_and_reads_patches(capsys, monkeypatch):
    """Two ``main`` calls parse with one parser object, and a function a
    command calls is looked up at call time: a patch of ``cli.hhs1`` made
    after the parser was built still takes effect."""
    parsers = []
    real = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **kw: parsers.append(self) or real(self, *a, **kw))
    assert run(capsys, "hhs1", "--builtin", "integers")[0] == 0

    def broken(*args, **kwargs):
        raise RuntimeError("patched after the parser was built")

    monkeypatch.setattr(cli, "hhs1", broken)
    code, _, err = run(capsys, "hhs1", "--builtin", "integers")
    assert code == 5 and "patched after the parser was built" in err
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("argv", [
    ("hl2", "--m", "-1", "--n", "4"),
    ("hl2", "--m", "2", "--n", "-1"),
    ("verify", "--m", "-1", "--n", "4"),
    ("verify", "--m", "4", "--n", "-1"),
])
def test_negative_matrix_size_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--builtin", "rationals")
    assert code == 2 and out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_value_or_key_error_inside_hl_exits_5(capsys, monkeypatch, error):
    from uce_lab import chain

    def broken(*args, **kwargs):
        raise error("block bookkeeping went wrong")

    monkeypatch.setattr(chain, "subquotient_invariants", broken)
    code, out, err = run(capsys, "hl2", "--m", "2", "--n", "1",
                         "--builtin", "rationals")
    assert code == 5 and out == ""
    assert err.strip().count("\n") == 0 and error.__name__ in err


def test_text_verify_prints_stage_times_and_blocks(capsys):
    code, out, _ = run(capsys, "verify", "--m", "4", "--n", "0",
                       "--builtin", "integers")
    assert code == 0
    verdict, detail = out.splitlines()
    assert "pass" in verdict and verdict.endswith(" ms]")
    for stage in ("sl_build", "chain_path", "tensor_path", "expected", "w_cycles"):
        assert f"{stage} " in detail
    # sl(4, 0, Z) has dimension 15: 55 (weight, parity) blocks of L (x) L
    assert detail.endswith("L(x)L: 55 blocks, largest 21 of 225")


def _golden_cases(kind):
    cases = [(w.name, c) for w in workloads.WORKLOADS.values() for c in w.cases
             if c.kind == kind]
    return pytest.mark.parametrize(
        "workload,case", cases, ids=[f"{w}-{c.golden_name[:-5]}" for w, c in cases])


def _golden(workload, case):
    return (workloads.GOLDEN_DIR / workload / case.golden_name).read_bytes()


@_golden_cases("verify")
def test_json_verify_matches_the_golden_bytes(capsys, workload, case):
    argv = workloads.Prepared(case, None, None).argv()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == _golden(workload, case)


@_golden_cases("splitting")
def test_splitting_report_matches_the_golden_bytes(workload, case):
    # serialised as the benchmark serialises it
    if case.source in workloads.FILE_SOURCES:
        dlg = load_dialgebra_file(workloads.DATA_DIR / f"{case.source}.json")
    else:
        dlg = builtin_dialgebra(case.source)
    out, verdict = workloads.case_output(workloads.Prepared(case, dlg, None))
    assert verdict
    assert out == _golden(workload, case)


def _cli_subprocess(*argv, timeout=30):
    """uce-lab argv in a fresh interpreter; the timeout turns a hang into a
    failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, "-m", "uce_lab.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("command", ["hl2", "verify"])
def test_huge_invariant_factors_end_in_bounded_time(tmp_path, command):
    # Z[x]/(x^2 - p), p = 10^18 + 3: HHS_1 has the factor 2p, which trial
    # division could not split in reasonable time; a subprocess with a
    # timeout turns a hang into a failure
    p = 10**18 + 3
    mult = [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, str(p)]]
    path = tmp_path / "z_sqrt_p.json"
    path.write_text(json.dumps({
        "name": "z_sqrt_p", "ring": {"kind": "integers"}, "dim": 2,
        "parity": [0, 0], "bar_unit": ["1", "0"], "left": mult, "right": mult,
    }))
    done = _cli_subprocess(command, "--m", "3", "--n", "0", "--dialgebra", str(path),
                           "--format", "json")
    assert done.returncode == 0, done.stderr
    blob = json.loads(done.stdout)
    inv = blob["hl2"] if command == "hl2" else blob["report"]["computed"]
    assert inv["even_torsion"] == [3] * 10 + [6, 6 * p]


@pytest.mark.parametrize("command", ["hl2", "hhs1", "verify"])
def test_size_guard_comes_before_validation(tmp_path, command):
    # a unital dim-60 file, one product off the bar-unit laws: the guard
    # reads only m, n and dim, so the command exits 3 at once, before the
    # axioms are checked (which would exit 2)
    dim = 60
    left = [[i, 0, i, "1"] for i in range(dim)] + [[1, 1, 1, "1"]]
    right = [[0, i, i, "1"] for i in range(dim)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "name": "big", "ring": {"kind": "rationals"}, "dim": dim, "parity": [0] * dim,
        "bar_unit": ["1"] + ["0"] * (dim - 1), "left": left, "right": right,
    }))
    assert main(["check", str(path)]) == 1
    mn = [] if command == "hhs1" else ["--m", "2", "--n", "1"]
    done = _cli_subprocess(command, *mn, "--dialgebra", str(path))
    assert done.returncode == 3, done.stderr
    assert "size guard" in done.stderr


def test_check_of_a_large_zero_dialgebra_ends_in_bounded_time(tmp_path):
    # every product vanishes, so validation has no triple to multiply out
    dim = 80
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "name": "zero", "ring": {"kind": "rationals"}, "dim": dim, "parity": [0] * dim,
        "left": [], "right": [],
    }))
    done = _cli_subprocess("check", str(path), "--format", "json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"name": "zero", "valid": True, "violations": []}
