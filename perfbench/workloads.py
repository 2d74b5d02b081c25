"""The benchmark's workloads: case lists, anchors, set-up and one case run.

Each case is the user's own entry point: ``verify`` cases call
``uce_lab.cli.main([... "--format", "json"])`` in-process with stdout
captured, ``splitting`` cases call ``uce_lab.hochschild.splitting_check``.
Every output is compared byte for byte with the golden file captured at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE / "data"
GOLDEN_DIR = HERE / "golden"

# dialgebras supplied as JSON files (loaded through --dialgebra), not builtins
FILE_SOURCES = frozenset({"split_halfx", "dual_z", "grass_f3"})


@dataclass(frozen=True)
class Case:
    kind: str  # "verify" or "splitting"
    m: int
    n: int
    source: str  # builtin catalog name, or the stem of a file in data/

    @property
    def id(self) -> str:
        return f"sl({self.m},{self.n},{self.source})"

    @property
    def golden_name(self) -> str:
        return f"sl_{self.m}_{self.n}_{self.source}.json"


@dataclass(frozen=True)
class Workload:
    name: str
    anchor: Case
    cases: tuple


def _verify(*specs):
    return tuple(Case("verify", m, n, s) for m, n, s in specs)


def _splitting(*specs):
    return tuple(Case("splitting", m, n, s) for m, n, s in specs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_q",
            Case("verify", 3, 2, "rationals"),
            _verify(
                (3, 2, "rationals"), (2, 1, "split_halfx"), (2, 2, "rationals"),
                (2, 1, "grassmann_q"), (3, 0, "dual_numbers_q"),
                (2, 1, "dual_numbers_q"), (3, 0, "rationals"), (2, 1, "rationals"),
            ),
        ),
        Workload(
            "verify_fpz",
            Case("verify", 2, 2, "dual_z"),
            _verify(
                # the nine F_p / Z cases of theorems.default_cases()
                (3, 0, "f3"), (4, 0, "f2"), (4, 0, "integers"), (3, 1, "f2"),
                (2, 1, "f3"), (3, 0, "f2"), (3, 0, "bar_duplex_f2"), (4, 0, "f3"),
                (2, 2, "f3"),
                (3, 2, "f3"), (3, 2, "integers"), (5, 0, "integers"), (4, 1, "f2"),
                (2, 1, "dual_z"), (3, 0, "dual_z"), (2, 2, "grass_f3"),
                (2, 2, "dual_z"),
            ),
        ),
        Workload(
            "splitting_mixed",
            Case("splitting", 2, 2, "grassmann_q"),
            _splitting(
                (2, 2, "grassmann_q"), (3, 0, "dual_numbers_q"), (4, 0, "integers"),
                (3, 1, "f2"), (2, 2, "f3"),
            ),
        ),
    )
}


class SetupError(RuntimeError):
    """A workload input is missing or not a valid unital superdialgebra."""


@dataclass
class Prepared:
    case: Case
    dialgebra: object
    golden: bytes | None

    def argv(self) -> list:
        c = self.case
        if c.source in FILE_SOURCES:
            src = ["--dialgebra", str(DATA_DIR / f"{c.source}.json")]
        else:
            src = ["--builtin", c.source]
        return ["verify", "--m", str(c.m), "--n", str(c.n), *src, "--format", "json"]


def setup(workload: Workload, golden_dir: Path = GOLDEN_DIR) -> list:
    """Build or load and validate every case's dialgebra and read its golden
    output.  A missing golden file is not an error here: the case then fails
    its comparison on every pass."""
    from uce_lab.superdialg import builtin_dialgebra, load_dialgebra_file, validate

    prepared = []
    for case in workload.cases:
        if case.source in FILE_SOURCES:
            d = load_dialgebra_file(DATA_DIR / f"{case.source}.json")
        else:
            d = builtin_dialgebra(case.source)
        issues = validate(d)
        if issues or not d.is_unital:
            raise SetupError(f"{case.id}: invalid input dialgebra: {issues}")
        path = golden_dir / workload.name / case.golden_name
        golden = path.read_bytes() if path.is_file() else None
        prepared.append(Prepared(case, d, golden))
    return prepared


def case_output(p: Prepared) -> tuple:
    """(output bytes, the program's own verdict) for one case."""
    c = p.case
    if c.kind == "verify":
        from uce_lab.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(p.argv())
        text = out.getvalue()
        verdict = code == 0 and json.loads(text).get("pass") is True
        return text.encode(), verdict
    from uce_lab.hochschild import splitting_check

    report = splitting_check(c.m, c.n, p.dialgebra)
    text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    return text.encode(), report.ok is True


@dataclass
class PassResult:
    start: float
    end: float
    case_spans: dict  # case id -> (start, end), perf_counter seconds
    outputs: dict
    failed: list

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def case_seconds(self) -> dict:
        return {c: e - s for c, (s, e) in self.case_spans.items()}


def run_pass(prepared: list, rng: random.Random, tracer=None) -> PassResult:
    """Run every case once, back to back, in an order drawn from rng.

    A case fails on an exception, a nonzero exit code, ``pass: false``,
    ``ok: false`` or output that differs from its golden bytes; a failure is
    recorded and never stops the pass.
    """
    order = list(prepared)
    rng.shuffle(order)
    case_spans, outputs, failed = {}, {}, []
    start = time.perf_counter()
    for p in order:
        if tracer is not None:
            tracer.case = p.case.id
        t0 = time.perf_counter()
        try:
            out, verdict = case_output(p)
        except Exception:
            case_spans[p.case.id] = (t0, time.perf_counter())
            failed.append(p.case.id)
            print(f"{p.case.id}: exception\n{traceback.format_exc()}", end="", file=sys.stderr)
            continue
        case_spans[p.case.id] = (t0, time.perf_counter())
        outputs[p.case.id] = out
        if not verdict or out != p.golden:
            failed.append(p.case.id)
            why = "verdict false" if not verdict else "output differs from golden"
            print(f"{p.case.id}: {why}", file=sys.stderr)
    if tracer is not None:
        tracer.case = None
    return PassResult(start, time.perf_counter(), case_spans, outputs, failed)
