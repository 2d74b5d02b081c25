"""Expected-value oracle, verification harness, and the characteristic-zero
counterexample report."""

import json

import pytest

from uce_lab import chain, theorems
from uce_lab.exactlin import module_iso_check, parity_shift
from uce_lab.superdialg import builtin_dialgebra
from uce_lab.theorems import (
    CaseLabel,
    UnclassifiedCaseError,
    default_cases,
    expected_hl2,
    expected_w,
    char_zero_counterexample_check,
    verify_case,
)


# ---------------------------------------------------------------------------
# expected W
# ---------------------------------------------------------------------------


def test_expected_w_stable_range_is_zero():
    for name in ("rationals", "f2", "integers", "grassmann_q", "mat2_q"):
        d = builtin_dialgebra(name)
        assert expected_w(3, 2, d).is_zero()
        assert expected_w(2, 1, d).is_zero()
        assert expected_w(5, 0, d).is_zero()


def test_expected_w_2_2_rationals():
    inv = expected_w(2, 2, builtin_dialgebra("rationals"))
    assert (inv.even_free_rank, inv.odd_free_rank) == (2, 0)


def test_expected_w_3_1_f2_is_parity_shifted():
    inv = expected_w(3, 1, builtin_dialgebra("f2"))
    assert (inv.even_free_rank, inv.odd_free_rank) == (0, 6)
    plain = expected_w(4, 0, builtin_dialgebra("f2"))
    assert module_iso_check(parity_shift(plain), inv)


def test_expected_w_4_0_integers_is_torsion():
    inv = expected_w(4, 0, builtin_dialgebra("integers"))
    assert inv.even_torsion == (2,) * 6 and inv.even_free_rank == 0


def test_expected_w_3_0():
    assert expected_w(3, 0, builtin_dialgebra("f3")).even_free_rank == 6
    assert expected_w(3, 0, builtin_dialgebra("rationals")).is_zero()
    assert expected_w(3, 0, builtin_dialgebra("f2")).is_zero()  # 3 = 1 mod 2


def test_expected_w_unclassified():
    with pytest.raises(UnclassifiedCaseError):
        expected_w(1, 2, builtin_dialgebra("rationals"))


def test_expected_hl2_values():
    assert expected_hl2(4, 0, builtin_dialgebra("integers")).even_torsion == (2,) * 6
    assert expected_hl2(3, 0, builtin_dialgebra("f3")).even_free_rank == 6
    assert expected_hl2(2, 1, builtin_dialgebra("rationals")).is_zero()
    g = expected_hl2(2, 2, builtin_dialgebra("grassmann_q"))
    assert (g.even_free_rank, g.odd_free_rank) == (3, 3)


# ---------------------------------------------------------------------------
# case labels
# ---------------------------------------------------------------------------


def test_case_label_rejects_small_and_unclassified():
    with pytest.raises(ValueError):
        CaseLabel(2, 0, "rationals")
    with pytest.raises(UnclassifiedCaseError):
        CaseLabel(1, 2, "rationals")
    with pytest.raises(UnclassifiedCaseError):
        CaseLabel(0, 4, "rationals")
    CaseLabel(0, 5, "rationals")  # stable range covers any split of >= 5


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", [
    CaseLabel(2, 2, "rationals"),
    CaseLabel(3, 0, "f3"),
    CaseLabel(4, 0, "f2"),
    CaseLabel(2, 1, "grassmann_q"),
])
def test_verify_case_passes(case):
    rep = verify_case(case)
    assert rep.passed and rep.paths_agree
    assert module_iso_check(rep.computed_chain, rep.computed_tensor)


@pytest.mark.parametrize("case", [
    CaseLabel(3, 0, "f3"), CaseLabel(2, 1, "grassmann_q"), CaseLabel(5, 0, "f2"),
])
def test_verify_builds_each_boundary_once(monkeypatch, case):
    # the chain path and the tensor square share delta_2 and delta_3, and
    # every boundary is assembled by chain._boundary_entries
    real, calls = chain._boundary_entries, []

    def counted(l, n):
        calls.append(n)
        return real(l, n)

    monkeypatch.setattr(chain, "_boundary_entries", counted)
    assert verify_case(case).passed
    assert sorted(calls) == [2, 3]


def test_verify_computes_w_once_besides_the_w_cycles(monkeypatch):
    # verify_dialgebra takes W once for the expected HL_2 and the Steinberg
    # summand; w_cycles takes its own.  Each W of a (2,2) case is D_2 and D_0.
    calls = {"expected_w": 0, "quotient_Dm": 0}
    for name in calls:
        real = getattr(theorems, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(theorems, name, counted)
    rep = verify_case(CaseLabel(2, 2, "f3"))
    assert calls == {"expected_w": 2, "quotient_Dm": 4}
    assert rep.passed and rep.steinberg_h2 == expected_w(2, 2, builtin_dialgebra("f3"))


def test_verify_report_json_shape():
    rep = verify_case(CaseLabel(2, 2, "rationals"))
    blob = rep.to_json()
    assert set(blob) >= {"case", "computed", "expected", "pass", "elapsed_ms",
                         "certificates"}
    assert blob["pass"] is True
    assert blob["steinberg_h2"]["provenance"] == "derived"
    assert blob["certificates"]  # kernel-class labels in a low-rank case
    json.dumps(blob)  # serializable


def test_verify_stable_case_has_no_certificates():
    rep = verify_case(CaseLabel(2, 1, "rationals"))
    assert rep.passed and rep.certificates == []
    assert rep.steinberg_h2.is_zero()


def test_default_cases_cover_all_shapes():
    shapes = {(c.m, c.n) for c in default_cases()}
    assert {(2, 2), (2, 1), (3, 0), (4, 0), (3, 1), (3, 2)} <= shapes


# ---------------------------------------------------------------------------
# the characteristic-zero counterexample
# ---------------------------------------------------------------------------


def test_char_zero_check_rationals():
    rep = char_zero_counterexample_check("rationals")
    assert rep.applicable and rep.ok
    assert rep.w_invariants.even_free_rank == 2
    assert rep.hhs1_invariants.is_zero()


def test_char_zero_check_mat2_inapplicable():
    # the bracket ideal of a simple algebra is everything, so D_0 = 0
    rep = char_zero_counterexample_check("mat2_q")
    assert not rep.applicable and not rep.ok


def test_char_zero_check_dual_numbers():
    # commutative D: D_0 = D, so the extra summand has dimension 2 dim D = 4
    rep = char_zero_counterexample_check("dual_numbers_q")
    assert rep.ok
    assert rep.w_invariants.even_free_rank == 4
    json.dumps(rep.to_json())


def test_fractional_structure_constants_end_to_end():
    # Q[x]/(x^2 - x/2) splits as Q x Q, so the degree-one homology vanishes
    # and the matrix homology is zero through both paths; this exercises the
    # genuinely fractional coefficient pipeline
    from fractions import Fraction

    from uce_lab.chain import hl
    from uce_lab.exactlin import QQ
    from uce_lab.hochschild import hhs1
    from uce_lab.leibniz import sl
    from uce_lab.superdialg import from_algebra
    from uce_lab.tensorsq import hl2

    prod = {
        (0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)],
        (1, 1): [(1, Fraction(1, 2))],
    }
    d = from_algebra(QQ, (0, 0), prod, (1, 0), "split_halfx")
    assert hhs1(d).is_zero()
    alg = sl(2, 1, d).algebra
    chain_inv = hl(alg, 2)
    tensor_inv = hl2(alg)
    assert chain_inv.is_zero() and tensor_inv.is_zero()
    assert module_iso_check(chain_inv, tensor_inv)
