"""CLI exit codes, formats and determinism."""

import json

import pytest

from uce_lab import cli
from uce_lab.cli import main
from uce_lab.superdialg import builtin_dialgebra, dump_dialgebra


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
