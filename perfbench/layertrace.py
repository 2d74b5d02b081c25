"""Span recording around the layer entry points of ``uce_lab``, from outside.

``Tracer.install`` replaces each entry point with a wrapper that records a
span (name, start, end, parent span, case id).  A function is patched on its
defining module *and* on every ``uce_lab`` module that bound it by
``from .x import y`` (any attribute holding the same object), otherwise calls
through that binding would be charged to the caller's span.  Methods are
patched on their class.  ``uninstall`` puts every original back.

An entry point that no longer exists is reported in ``missing`` and its
metrics are left out; it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "uce_lab"

# (module, attribute path) of every wrapped entry point.  The metric prefix
# is "<module>.<attribute path>", except where METRIC_NAME renames it.
ENTRY_POINTS = (
    ("superdialg", "quotient_Dm"),
    ("superdialg", "load_dialgebra_file"),
    ("leibniz", "sl"),
    ("chain", "delta"),
    ("chain", "hl"),
    ("exactlin", "Echelon.residue"),
    ("exactlin", "Echelon.insert"),
    ("exactlin", "Echelon._to_fracfield"),
    ("exactlin", "Echelon._escalate"),
    ("exactlin", "kernel_basis"),
    ("exactlin", "column_span_echelon"),
    ("exactlin", "subquotient_invariants"),
    ("exactlin", "SpanSolver.solve"),
    ("exactlin", "snf"),
    ("exactlin", "snf_with_transforms"),
    ("exactlin", "SparseMat.__matmul__"),
    ("tensorsq", "tensor_square"),
    ("tensorsq", "TensorSquare.kernel_invariants"),
    ("tensorsq", "TensorSquare.kernel_class_generators"),
    ("tensorsq", "TensorSquare.project"),
    ("tensorsq", "w_cycles"),
    ("hochschild", "splitting_check"),
    ("hochschild", "degree_one_homology"),
    ("theorems", "verify_dialgebra"),
    ("cli", "main"),
)

METRIC_NAME = {
    "exactlin.Echelon._to_fracfield": "exactlin.Echelon.fracfield_switches",
    "exactlin.Echelon._escalate": "exactlin.Echelon.object_escalations",
    "exactlin.SparseMat.__matmul__": "exactlin.SparseMat.matmul",
}

# counters taken from an entry point's result: span name -> (suffix, f(result))
COUNTERS = {
    "exactlin.Echelon.insert": ("grew", lambda grew: 1 if grew else 0),
    "chain.delta": ("nnz", lambda cm: cm.matrix.nnz()),
    "leibniz.sl": ("dim", lambda s: s.algebra.dim),
}

# Entry points each workload must reach at least once per pass; one that
# records no call there was patched on the wrong binding (a "missed patch").
_COMMON = {
    "leibniz.sl", "chain.delta", "exactlin.Echelon.residue",
    "exactlin.Echelon.insert", "exactlin.kernel_basis",
    "exactlin.subquotient_invariants", "exactlin.SparseMat.__matmul__",
    "superdialg.quotient_Dm", "tensorsq.tensor_square",
    "tensorsq.TensorSquare.kernel_invariants",
    "tensorsq.TensorSquare.project", "hochschild.degree_one_homology",
}
_VERIFY = _COMMON | {
    "chain.hl", "exactlin.column_span_echelon", "tensorsq.w_cycles",
    "theorems.verify_dialgebra", "cli.main",
}
EXPECTED = {
    "verify_q": _VERIFY | {
        "exactlin.Echelon._to_fracfield", "exactlin.SpanSolver.solve",
        "superdialg.load_dialgebra_file",
    },
    "verify_fpz": _VERIFY | {
        "exactlin.snf", "exactlin.snf_with_transforms",
        "superdialg.load_dialgebra_file", "exactlin.SpanSolver.solve",
    },
    "splitting_mixed": _COMMON | {
        "hochschild.splitting_check", "tensorsq.TensorSquare.kernel_class_generators",
        "exactlin.SpanSolver.solve",
    },
}

# The per-layer metrics the traced run reports, with their units.  Each
# comes from one entry point (its prefix) and one aggregate of its spans.
PER_LAYER = (
    ("exactlin.Echelon.residue.calls", "count"),
    ("exactlin.Echelon.residue.self_s", "s"),
    ("exactlin.Echelon.insert.calls", "count"),
    ("exactlin.Echelon.insert.self_s", "s"),
    ("exactlin.Echelon.insert.useful_ratio", "1"),
    ("exactlin.Echelon.fracfield_switches", "count"),
    ("exactlin.Echelon.object_escalations", "count"),
    ("exactlin.kernel_basis.self_s", "s"),
    ("exactlin.column_span_echelon.self_s", "s"),
    ("exactlin.subquotient_invariants.self_s", "s"),
    ("exactlin.SpanSolver.solve.calls", "count"),
    ("exactlin.SpanSolver.solve.self_s", "s"),
    ("exactlin.snf.self_s", "s"),
    ("exactlin.snf_with_transforms.self_s", "s"),
    ("exactlin.SparseMat.matmul.self_s", "s"),
    ("chain.delta.calls", "count"),
    ("chain.delta.self_s", "s"),
    ("chain.delta.nnz", "count"),
    ("chain.hl.self_s", "s"),
    ("leibniz.sl.self_s", "s"),
    ("leibniz.sl.dim", "count"),
    ("tensorsq.tensor_square.self_s", "s"),
    ("tensorsq.TensorSquare.kernel_invariants.self_s", "s"),
    ("tensorsq.TensorSquare.kernel_class_generators.self_s", "s"),
    ("tensorsq.TensorSquare.project.calls", "count"),
    ("tensorsq.w_cycles.self_s", "s"),
    ("hochschild.splitting_check.self_s", "s"),
    ("hochschild.degree_one_homology.self_s", "s"),
    ("superdialg.quotient_Dm.self_s", "s"),
    ("superdialg.load_dialgebra_file.self_s", "s"),
    ("theorems.verify_dialgebra.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "1"),
    ("trace.missed_patches", "count"),
)


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


class Tracer:
    """Records spans of the wrapped entry points while installed.

    Spans live in ``spans`` as tuples (name, start, end, parent index, case)
    until ``reset``; ``case`` is set by the caller before each case runs.
    """

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans: list = []
        self.counts: dict = {}
        self.case = None
        self.missing: list = []
        self.installed: list = []
        self._patches: list = []
        self._stack: list = []

    # -- patching -------------------------------------------------------------

    def install(self):
        # import every module first, so that no module binds a wrapper by
        # importing it while the patching is under way
        owners = {}
        for mod_name, _ in self.entry_points:
            try:
                owners[mod_name] = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                owners[mod_name] = None
        mods = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, path in self.entry_points:
            span = f"{mod_name}.{path}"
            mod = owners[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if not callable(raw):
                    self.missing.append(span)
                    continue
                self._patch(cls, attr, raw, self._wrap(span, raw))
            else:
                fn = getattr(mod, path, None)
                if not callable(fn):
                    self.missing.append(span)
                    continue
                wrapper = self._wrap(span, fn)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patch(m, attr, fn, wrapper)
            self.installed.append(span)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append(_Patch(owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for p in reversed(self._patches):
            setattr(p.owner, p.attr, p.original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ------------------------------------------------------------

    def _wrap(self, span, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, parent, self.case)
            if counter is not None:
                key = f"{span}.{counter[0]}"
                counts[key] = counts.get(key, 0) + counter[1](result)
            return result

        return wrapper

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- aggregation ----------------------------------------------------------

    def _sums(self, key) -> dict:
        """calls, total_s and self_s of the recorded spans, grouped by
        key(name, case).  Self time is a span's duration minus the durations
        of its direct children (which never overlap: one thread)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for k, (name, start, end, _, case) in enumerate(self.spans):
            agg = out.setdefault(key(name, case), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[k]
        return out

    def aggregate(self) -> dict:
        """Per installed entry point: calls, total_s and self_s."""
        sums = self._sums(lambda name, case: name)
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return {s: sums.get(s, dict(zero)) for s in self.installed}

    def by_case(self) -> dict:
        """{case: {entry point: calls, total_s, self_s}} for inspection."""
        out: dict = {}
        for (case, name), agg in self._sums(lambda name, case: (case, name)).items():
            out.setdefault(str(case), {})[name] = agg
        return out

    def layer_metrics(self) -> dict:
        """The PER_LAYER values of the current spans, except the trace.*
        metrics, which the caller adds.  Metrics of missing entry points are
        absent, never zero."""
        agg = self.aggregate()
        values = {}
        for span, a in agg.items():
            prefix = METRIC_NAME.get(span, span)
            if prefix != span:
                values[prefix] = a["calls"]
            for key in ("calls", "self_s", "total_s"):
                values[f"{prefix}.{key}"] = a[key]
        for key, total in self.counts.items():
            values[key] = total
        ins = agg.get("exactlin.Echelon.insert")
        if ins is not None and ins["calls"]:
            values["exactlin.Echelon.insert.useful_ratio"] = (
                self.counts.get("exactlin.Echelon.insert.grew", 0) / ins["calls"]
            )
        for span in COUNTERS:
            key = f"{span}.{COUNTERS[span][0]}"
            if span in agg:
                values.setdefault(key, 0)
        return values

    def missed_patches(self, workload: str) -> list:
        """Entry points EXPECTED on this workload that are installed but
        recorded no call."""
        agg = self.aggregate()
        return sorted(s for s in EXPECTED.get(workload, ())
                      if s in agg and agg[s]["calls"] == 0)
