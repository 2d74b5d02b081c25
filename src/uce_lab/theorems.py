"""Expected-value oracle for the degree-2 homology of sl(m, n, D), the
end-to-end verification harness, and the characteristic-zero counterexample
check for the (2, 2) case.

For a unital superdialgebra D with a basis containing the bar-unit,

    HL_2(sl(m, n, D)) = HHS_1(D) (+) W(m, n, D)

where W is 0 for m+n >= 5 or (m, n) = (2, 1), six copies of D_3 for (3, 0),
six copies of D_2 for (4, 0), six parity-shifted copies of D_2 for (3, 1) and
D_2^4 (+) D_0^2 for (2, 2); D_m = D / (mD + bracket ideal).  The degree-2
homology of the Steinberg presentation equals W alone; it is reported from
the formula (marked "derived"), never computed from the presentation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .exactlin import (
    GradedModuleInvariants,
    direct_sum_invariants,
    module_iso_check,
    parity_shift,
)
from .chain import DEFAULT_SIZE_GUARD, hl
from .leibniz import sl
from .superdialg import (
    InvalidInputError,
    SuperDialgebra,
    builtin_dialgebra,
    quotient_Dm,
)
from .tensorsq import (
    WCycleReport,
    low_rank_case,
    tensor_square,
    w_cycles,
)

__all__ = [
    "CaseLabel",
    "UnclassifiedCaseError",
    "expected_w",
    "expected_hl2",
    "VerificationReport",
    "verify_case",
    "verify_dialgebra",
    "default_cases",
    "char_zero_counterexample_check",
    "CharZeroReport",
]


class UnclassifiedCaseError(ValueError):
    """(m, n) falls outside the classified case list."""


@dataclass(frozen=True)
class CaseLabel:
    m: int
    n: int
    dialgebra: str  # builtin name

    def __post_init__(self):
        if self.m + self.n < 3:
            raise ValueError("theorem cases need m + n >= 3")
        if low_rank_case(self.m, self.n) is None:
            raise UnclassifiedCaseError(
                f"({self.m},{self.n}) is not covered: only m+n >= 5, (2,1), "
                "(3,0), (4,0), (3,1) and (2,2) are classified"
            )

    def describe(self):
        return f"sl({self.m},{self.n},{self.dialgebra})"


def expected_w(m: int, n: int, d: SuperDialgebra) -> GradedModuleInvariants:
    """The extra kernel summand W(m, n, D) as a graded module."""
    case = low_rank_case(m, n)
    if case is None:
        raise UnclassifiedCaseError(f"({m},{n}) is not classified")
    if case == "stable":
        return GradedModuleInvariants(d.ring)
    if case == "(3,0)":
        q = quotient_Dm(d, 3).invariants
        parts = [q] * 6
    elif case == "(4,0)":
        q = quotient_Dm(d, 2).invariants
        parts = [q] * 6
    elif case == "(3,1)":
        q = parity_shift(quotient_Dm(d, 2).invariants)
        parts = [q] * 6
    else:  # (2,2)
        q2 = quotient_Dm(d, 2).invariants
        q0 = quotient_Dm(d, 0).invariants
        parts = [q2] * 4 + [q0] * 2
    return direct_sum_invariants(parts)


def expected_hl2(m: int, n: int, d: SuperDialgebra,
                 guard: int = DEFAULT_SIZE_GUARD) -> GradedModuleInvariants:
    """HHS_1(D) (+) W(m, n, D)."""
    from .hochschild import hhs1

    return hhs1(d, guard).direct_sum(expected_w(m, n, d))


@dataclass(frozen=True)
class VerificationReport:
    case: CaseLabel
    computed_chain: GradedModuleInvariants
    computed_tensor: GradedModuleInvariants
    expected: GradedModuleInvariants
    passed: bool
    paths_agree: bool
    elapsed_ms: dict
    certificates: list = field(default_factory=list)
    w_cycles: WCycleReport | None = None
    steinberg_h2: GradedModuleInvariants | None = None
    square_blocks: tuple = ()  # sizes of the L (x) L blocks; not in to_json

    def to_json(self) -> dict:
        out = {
            "case": {
                "m": self.case.m,
                "n": self.case.n,
                "dialgebra": self.case.dialgebra,
            },
            "computed": self.computed_chain.to_json(),
            "computed_tensor_path": self.computed_tensor.to_json(),
            "expected": self.expected.to_json(),
            "pass": self.passed,
            "paths_agree": self.paths_agree,
            "elapsed_ms": {k: round(v, 1) for k, v in self.elapsed_ms.items()},
            "certificates": [
                {"pattern": list(pat), "coefficient": lab}
                for pat, lab in self.certificates
            ],
        }
        if self.steinberg_h2 is not None:
            out["steinberg_h2"] = {
                "provenance": "derived",
                "value": self.steinberg_h2.to_json(),
            }
        return out

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.case.describe():28s} {status}  "
            f"computed [{self.computed_chain.describe()}]  "
            f"expected [{self.expected.describe()}]"
        )


def verify_case(case: CaseLabel, guard: int = DEFAULT_SIZE_GUARD) -> VerificationReport:
    """Compute HL_2(sl(m, n, D)) via BOTH the chain complex and the tensor
    square, compare with the expected decomposition, and attach kernel-class
    certificates in the low-rank cases.

    The degree-2 homology of the Steinberg presentation is reported from the
    formula (W alone) and flagged "derived" in the JSON output; it is never
    computed from the presentation.
    """
    return verify_dialgebra(case, builtin_dialgebra(case.dialgebra), guard)


def verify_dialgebra(case: CaseLabel, d: SuperDialgebra,
                     guard: int = DEFAULT_SIZE_GUARD) -> VerificationReport:
    """verify_case for an explicitly supplied dialgebra (file-loaded ones).
    W(m, n, D) is computed once, for both the expected HL_2 and the
    Steinberg summand."""
    from .hochschild import hhs1

    if not d.is_unital:
        raise InvalidInputError(f"{case.dialgebra} is not unital")
    times = {}

    t0 = time.perf_counter()
    slalg = sl(case.m, case.n, d)
    times["sl_build"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    chain_inv = hl(slalg.algebra, 2, guard)
    times["chain_path"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    ts = tensor_square(slalg.algebra, guard)
    tensor_inv = ts.kernel_invariants()
    times["tensor_path"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    w = expected_w(case.m, case.n, d)
    expected = hhs1(d, guard).direct_sum(w)
    times["expected"] = (time.perf_counter() - t0) * 1000

    agree = module_iso_check(chain_inv, tensor_inv)
    passed = agree and module_iso_check(chain_inv, expected)

    certificates = []
    wrep = None
    if low_rank_case(case.m, case.n) != "stable":
        t0 = time.perf_counter()
        wrep = w_cycles(slalg, ts, guard)
        times["w_cycles"] = (time.perf_counter() - t0) * 1000
        certificates = wrep.labels
        passed = passed and wrep.ok

    return VerificationReport(
        case, chain_inv, tensor_inv, expected, passed, agree, times,
        certificates, wrep, w,
        square_blocks=tuple(ts.block_sizes()),
    )


def default_cases() -> list:
    """The standard verification battery: every quantitative acceptance case
    plus small super/noncommutative instances of each classified shape."""
    return [
        CaseLabel(2, 2, "rationals"),
        CaseLabel(2, 1, "rationals"),
        CaseLabel(3, 0, "f3"),
        CaseLabel(3, 0, "rationals"),
        CaseLabel(4, 0, "f2"),
        CaseLabel(4, 0, "integers"),
        CaseLabel(3, 1, "f2"),
        CaseLabel(3, 2, "rationals"),
        CaseLabel(2, 1, "dual_numbers_q"),
        CaseLabel(2, 1, "grassmann_q"),
        CaseLabel(2, 1, "bar_duplex_q"),
        CaseLabel(2, 1, "f3"),
        CaseLabel(3, 0, "f2"),
        CaseLabel(3, 0, "dual_numbers_q"),
        CaseLabel(3, 0, "bar_duplex_f2"),
        CaseLabel(4, 0, "f3"),
        CaseLabel(2, 2, "f3"),
        CaseLabel(2, 2, "grassmann_q"),
        CaseLabel(2, 2, "bar_duplex_q"),
    ]


@dataclass(frozen=True)
class CharZeroReport:
    dialgebra: str
    applicable: bool
    w_invariants: GradedModuleInvariants | None
    hhs1_invariants: GradedModuleInvariants | None
    hl2_invariants: GradedModuleInvariants | None
    w_nonzero: bool
    strictly_larger: bool

    @property
    def ok(self) -> bool:
        return self.applicable and self.w_nonzero and self.strictly_larger

    def to_json(self) -> dict:
        return {
            "dialgebra": self.dialgebra,
            "applicable": self.applicable,
            "w": self.w_invariants.to_json() if self.w_invariants else None,
            "hhs1": self.hhs1_invariants.to_json() if self.hhs1_invariants else None,
            "hl2": self.hl2_invariants.to_json() if self.hl2_invariants else None,
            "w_nonzero": self.w_nonzero,
            "hl2_strictly_contains_hhs1": self.strictly_larger,
        }


def char_zero_counterexample_check(name: str, guard: int = DEFAULT_SIZE_GUARD) -> CharZeroReport:
    """Witness that W(2, 2, D) can be nonzero in characteristic zero: for a
    dialgebra over a ring with 2 invertible and D_0 != 0, the computed
    HL_2(sl(2, 2, D)) strictly contains HHS_1(D)."""
    from .hochschild import hhs1

    d = builtin_dialgebra(name)
    if not d.is_unital:
        raise ValueError(f"{name} is not unital")
    if d.ring.kind not in ("rationals",) and not (
        d.ring.kind == "int_mod" and d.ring.modulus % 2 == 1
    ):
        raise ValueError("the check needs a ring with 2 invertible")
    d0 = quotient_Dm(d, 0).invariants
    if d0.is_zero():
        return CharZeroReport(name, False, None, None, None, False, False)
    w = expected_w(2, 2, d)
    h = hhs1(d, guard)
    slalg = sl(2, 2, d)
    computed = hl(slalg.algebra, 2, guard)
    strictly = module_iso_check(computed, h.direct_sum(w)) and not w.is_zero()
    return CharZeroReport(name, True, w, h, computed, not w.is_zero(), strictly)
