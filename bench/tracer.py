"""Per-layer tracing by wrapping commlab's public functions from outside.

Each traced function is replaced, in every ``commlab`` module namespace that
holds it, by a timing wrapper; ``restore`` puts every original back. Calls
into the layers above ``core`` are recorded as spans (name, start, end,
parent, op id) kept in memory. ``core`` leaves run thousands of times per op
(``op_norm`` ~3k times per ``search`` op), so they are aggregated as counters
and never make spans.

A span's self time is its busy time minus the time of its child spans; the
time of ``core`` counters inside it stays in its self time. A counter's self
time is its busy time minus the counters nested in it (``classify`` calls
``op_norm``).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import commlab.cli  # noqa: F401  (imports every layer)
from commlab.core import HypothesisError

# (layer module, function, recorded as a span?)
TRACED = (
    ("cli", "main", True),
    ("catalog", "evaluate", True),
    ("catalog", "validate_hypotheses", True),
    ("instances", "make_instance", True),
    ("search", "maximize_ratio", True),
    ("search", "perturb", True),
    ("derivations", "check_fp_pair", True),
    ("derivations", "lift_derivation", True),
    ("derivations", "kernel_basis", True),
    ("derivations", "check_reduction", True),
    ("core", "op_norm", False),
    ("core", "classify", False),
    ("core", "hermitian_eig", False),
    ("core", "numerical_radius", False),
)
TRACED_NAMES = tuple(f"{layer}.{fn}" for layer, fn, _ in TRACED)

# Counts and ratios recorded at layer boundaries, with their units.
EXTRA_METRICS = {
    "catalog.evaluate.errors": "count/op",
    "search.valid_candidate_ratio": "ratio",
    "derivations.lift.bytes_computed": "B/op",
    "tracing.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.busy_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """``install()``, set ``op_id`` before each op, then ``restore()``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counter_under = defaultdict(float)  # (counter, enclosing span) -> self s
        self.counts = defaultdict(int)
        self.op_id = -1
        self._stack: list[list] = []  # [name, is_span, span id, child span s, child counter s]
        self._next_id = 0
        self._last_proposal = None
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("commlab")]
        for layer, fn_name, is_span in TRACED:
            original = getattr(sys.modules[f"commlab.{layer}"], fn_name)
            wrapper = self._wrap(original, f"{layer}.{fn_name}", is_span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, is_span: bool):
        stack = self._stack
        on_result = getattr(self, "_on_" + name.split(".", 1)[1], None)

        def wrapper(*args, **kwargs):
            span_id = self._next_id if is_span else None
            if is_span:
                self._next_id += 1
            frame = [name, is_span, span_id, 0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self._record(frame, start, end)
                if on_result is not None:
                    on_result(args, result, error)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, frame: list, start: float, end: float) -> None:
        name, is_span, span_id, child_spans, child_counters = frame
        duration = end - start
        self.calls[name] += 1
        self.busy[name] += duration
        parent = self._stack[-1] if self._stack else None
        if is_span:
            self.self_time[name] += duration - child_spans
            parent_id = self._enclosing_span_id()
            self.spans.append((span_id, name, start, end, parent_id, self.op_id))
            if parent is not None:
                parent[3] += duration
        else:
            own = duration - child_counters
            self.self_time[name] += own
            self.counter_under[(name, self._enclosing_span_name())] += own
            if parent is not None and not parent[1]:
                parent[4] += duration

    def _enclosing_span_id(self):
        for frame in reversed(self._stack):
            if frame[1]:
                return frame[2]
        return None

    def _enclosing_span_name(self):
        for frame in reversed(self._stack):
            if frame[1]:
                return frame[0]
        return None

    # -- counts read from arguments and results -----------------------------

    def _on_evaluate(self, args, report, error):
        if isinstance(error, HypothesisError):
            self.counts["evaluate.errors"] += 1
        if len(args) > 1 and args[1] is self._last_proposal:
            self.counts["search.proposals"] += 1
            if report is not None and not report.hypothesis_violations:
                self.counts["search.valid_proposals"] += 1

    def _on_perturb(self, args, instance, error):
        self._last_proposal = instance

    def _on_lift_derivation(self, args, op, error):
        if op is not None:
            self.counts["lift.bytes_computed"] += 16 * op.dim**4

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        """Per-op averages over ``ops`` traced ops, keyed as in metric_units()."""
        out = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.busy_s"] = self.busy[name] / ops
            out[f"{name}.self_s"] = self.self_time[name] / ops
        c = self.counts
        out["catalog.evaluate.errors"] = c["evaluate.errors"] / ops
        out["search.valid_candidate_ratio"] = _ratio(c["search.valid_proposals"], c["search.proposals"])
        out["derivations.lift.bytes_computed"] = c["lift.bytes_computed"] / ops
        out["tracing.overhead_ratio"] = overhead_ratio
        return out

    def bases(self) -> dict[str, int]:
        """The denominators behind the ratios, printed next to them."""
        return {"search.valid_candidate_ratio": self.counts["search.proposals"]}

    def hot_layer(self) -> tuple[str, float, str | None, float]:
        """Span with the most self time, and the core counter most busy under it."""
        span_names = [n for n, (_, _, is_span) in zip(TRACED_NAMES, TRACED) if is_span]
        hot = max(span_names, key=lambda n: self.self_time[n])
        under = {c: s for (c, parent), s in self.counter_under.items() if parent == hot}
        leaf = max(under, key=under.get) if under else None
        return hot, self.self_time[hot], leaf, under.get(leaf, 0.0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
