"""Acceptance criteria for the whole library, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
quantitative case is computed through BOTH homology paths (chain complex and
tensor square) at exact arithmetic and compared with the expected
decomposition; the property suites gate the sign conventions and the
central-extension structure.
"""

import random
import time

import pytest

from uce_lab.chain import delta
from uce_lab.exactlin import combine, module_iso_check
from uce_lab.hochschild import d as hoch_d
from uce_lab.hochschild import splitting_check
from uce_lab.leibniz import sl
from uce_lab.superdialg import builtin_dialgebra, catalog_names, validate
from uce_lab.tensorsq import tensor_square, uce
from uce_lab.theorems import (
    CaseLabel,
    default_cases,
    char_zero_counterexample_check,
    verify_case,
)

UNITAL = [n for n in catalog_names() if builtin_dialgebra(n).is_unital]

# (case, budget seconds, expected (even_free, odd_free, even_torsion, odd_torsion))
QUANTITATIVE = [
    (CaseLabel(2, 2, "rationals"), 60, (2, 0, (), ())),
    (CaseLabel(2, 1, "rationals"), 10, (0, 0, (), ())),
    (CaseLabel(3, 0, "f3"), 10, (6, 0, (), ())),
    (CaseLabel(3, 0, "rationals"), 10, (0, 0, (), ())),
    (CaseLabel(4, 0, "f2"), 60, (6, 0, (), ())),
    (CaseLabel(4, 0, "integers"), 120, (0, 0, (2, 2, 2, 2, 2, 2), ())),
    (CaseLabel(3, 1, "f2"), 60, (0, 6, (), ())),
    (CaseLabel(3, 2, "rationals"), 300, (0, 0, (), ())),
]

_reports = {}


def _report(case, budget=None):
    key = (case.m, case.n, case.dialgebra)
    if key not in _reports:
        t0 = time.perf_counter()
        rep = verify_case(case)
        _reports[key] = (rep, time.perf_counter() - t0)
    return _reports[key]


def _line(text, ok):
    print(f"[{'pass' if ok else 'FAIL'}] {text}")
    assert ok, text


# ---------------------------------------------------------------------------
# criterion 1: the quantitative table, both computation paths, with budgets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case,budget,expect", QUANTITATIVE,
                         ids=[c.describe() for c, _, _ in QUANTITATIVE])
def test_criterion_1_quantitative(case, budget, expect):
    rep, elapsed = _report(case)
    inv = rep.computed_chain
    got = (inv.even_free_rank, inv.odd_free_rank,
           tuple(inv.even_torsion), tuple(inv.odd_torsion))
    ok = (
        rep.passed
        and rep.paths_agree
        and got == expect
        and module_iso_check(rep.computed_chain, rep.computed_tensor)
        and elapsed < budget
    )
    _line(
        f"criterion 1: HL2({case.describe()}) = {inv.describe()} via both "
        f"paths in {elapsed:.1f}s (< {budget}s)",
        ok,
    )


def test_criterion_1_char_zero_counterexample():
    rep = char_zero_counterexample_check("rationals")
    ok = rep.applicable and rep.w_nonzero and rep.strictly_larger
    _line(
        "criterion 1: W(2,2,Q) is nonzero in characteristic zero and "
        "HL2(sl(2,2,Q)) strictly contains HHS1(Q)",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence of the two homology paths
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    cases = default_cases() + [CaseLabel(2, 1, "mat2_q")]
    bad = []
    for case in cases:
        rep, _ = _report(case)
        if not rep.paths_agree:
            bad.append(case.describe())
    _line(
        f"criterion 2: chain-path HL2 equals tensor-square-path HL2 on all "
        f"{len(cases)} catalog cases within the guard",
        not bad,
    )


# ---------------------------------------------------------------------------
# criterion 3: property suites
# ---------------------------------------------------------------------------


def test_criterion_3_dialgebra_axioms():
    bad = [n for n in catalog_names() if validate(builtin_dialgebra(n))]
    _line("criterion 3: dialgebra axioms and bar-unit laws hold on every "
          "catalog structure", not bad)


def _random_homogeneous(dlg, rng):
    par = rng.choice(sorted(set(dlg.module.parity)))
    vec = [0] * dlg.dim
    for i in range(dlg.dim):
        if dlg.parity(i) == par:
            vec[i] = rng.randint(-3, 3)
    if all(v == 0 for v in vec):
        vec[[i for i in range(dlg.dim) if dlg.parity(i) == par][0]] = 1
    return [(i, dlg.ring.normalize(v)) for i, v in enumerate(vec) if v != 0], par


def test_criterion_3_bracket_identities_1000_triples():
    bad = []
    for name in UNITAL:
        dlg = builtin_dialgebra(name)
        ring = dlg.ring
        one = dlg.bar_unit
        rng = random.Random(20260810)
        for _ in range(1000):
            a, pa = _random_homogeneous(dlg, rng)
            b, pb = _random_homogeneous(dlg, rng)
            c, pc = _random_homogeneous(dlg, rng)
            sbc = -ring.one if (pb * pc) % 2 else ring.one
            sab = -ring.one if (pa * pb) % 2 else ring.one
            lhs = dlg.lmul(a, dlg.bracket(b, pb, c, pc))
            rhs = combine(ring, [
                (1, dlg.lmul(dlg.bracket(a, pa, b, pb), c)),
                (-sbc, dlg.lmul(dlg.bracket(dlg.lmul(a, c), (pa + pc) % 2, b, pb), one)),
            ])
            ok1 = lhs == rhs
            lhs = dlg.rmul(dlg.bracket(a, pa, b, pb), c)
            rhs = combine(ring, [
                (-sbc, dlg.rmul(a, dlg.bracket(c, pc, b, pb))),
                (sbc, dlg.rmul(one, dlg.bracket(dlg.rmul(a, c), (pa + pc) % 2, b, pb))),
            ])
            ok2 = lhs == rhs
            lhs = dlg.lmul(dlg.bracket(a, pa, b, pb), c)
            rhs = combine(ring, [
                (-sab, dlg.rmul(b, dlg.bracket(a, pa, c, pc))),
                (1, dlg.bracket(a, pa, dlg.rmul(b, c), (pb + pc) % 2)),
            ])
            ok3 = lhs == rhs
            if not (ok1 and ok2 and ok3):
                bad.append(name)
                break
    _line("criterion 3: the three unital bracket identities hold on 10^3 "
          "random homogeneous triples per catalog dialgebra", not bad)


def test_criterion_3_leibniz_identity_constructed_algebras():
    bad = []
    for case, _, _ in QUANTITATIVE:
        rep, _ = _report(case)
        alg = sl(case.m, case.n, builtin_dialgebra(case.dialgebra)).algebra
        if alg.leibniz_violations():
            bad.append(case.describe())
    _line("criterion 3: the Leibniz identity holds on all basis triples of "
          "every quantitative-case algebra", not bad)


def test_criterion_3_boundary_squares_to_zero():
    bad = []
    for case, _, _ in QUANTITATIVE:
        alg = sl(case.m, case.n, builtin_dialgebra(case.dialgebra)).algebra
        d2, d3 = delta(alg, 2), delta(alg, 3)
        if not (d2.matrix @ d3.matrix).is_zero():
            bad.append(case.describe())
    for name in UNITAL:
        dlg = builtin_dialgebra(name)
        h1, h2, h3 = hoch_d(dlg, 1), hoch_d(dlg, 2), hoch_d(dlg, 3)
        if not (h1.matrix @ h2.matrix).is_zero():
            bad.append(f"hochschild d1d2 {name}")
        if not (h2.matrix @ h3.matrix).is_zero():
            bad.append(f"hochschild d2d3 {name}")
    _line("criterion 3: delta o delta = 0 and d o d = 0 in all used degrees "
          "(gates the sign conventions)", not bad)


def test_criterion_3_lift_independence_100():
    bad = []
    for m, n, name in [(2, 2, "rationals"), (4, 0, "integers"), (3, 0, "f3")]:
        ts = tensor_square(sl(m, n, builtin_dialgebra(name)).algebra)
        if not ts.bracket_lift_independence():
            bad.append(f"({m},{n},{name})")
    _line("criterion 3: tensor-square bracket is independent of "
          "representative lifts (delta_2 kills every Im delta_3 row)", not bad)


def test_criterion_3_centrality_and_perfectness():
    bad = []
    for case, _, _ in QUANTITATIVE:
        rep = uce(sl(case.m, case.n, builtin_dialgebra(case.dialgebra)).algebra)
        if not (rep.kernel_central and rep.carrier_perfect
                and rep.projection_surjective):
            bad.append(case.describe())
    _line("criterion 3: the boundary kernel is central and the carrier "
          "perfect for every tensor square built", not bad)


def test_criterion_3_w_cycle_relations():
    bad = []
    for case, _, _ in QUANTITATIVE:
        rep, _ = _report(case)
        if rep.w_cycles is None:
            continue
        if not (rep.w_cycles.relations_hold and rep.w_cycles.torsion_relations_hold
                and rep.w_cycles.matches_expected):
            bad.append(case.describe())
    shapes = {(c.m, c.n) for c, _, _ in QUANTITATIVE
              if _report(c)[0].w_cycles is not None}
    ok = not bad and shapes == {(2, 2), (3, 0), (4, 0), (3, 1)}
    _line("criterion 3: kernel-class relations v_ijkl = -v_ilkj = -v_kjil "
          "= v_klij hold in all four low-rank cases", ok)


def test_criterion_3_splitting_for_every_quantitative_case():
    bad = []
    for case, _, _ in QUANTITATIVE:
        rep = splitting_check(case.m, case.n, builtin_dialgebra(case.dialgebra))
        if not rep.ok:
            bad.append(case.describe())
    _line("criterion 3: the splitting diagram (explicit graded isomorphism, "
          "with the trace section identities) passes for every quantitative "
          "case", not bad)
