"""Spans around calls into metareason's public functions, from outside.

``instrument`` wraps the public functions of each layer and rebinds every
reference to them in the loaded ``metareason`` modules, so calls made
inside ``run_eval`` or the oracle backend are caught as well as the
benchmark's own. Spans stay in memory (id, parent, name, start, end,
thread, family, ok, size) and are written out after each traced phase,
outside the clock; the per-layer metrics are derived from that file. The program itself carries
no tracing code.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

FAMILIES = ("MA", "AS", "LLC", "CF", "WoL", "TSO3", "TSO5", "TSO7")

# span name, module, attribute (Class.method for methods), family of the
# item from the call's arguments (only at calls that start work on an item;
# nested spans inherit it), size of the result
_TARGETS = (
    ("taskgen.generate", "metareason.taskgen", "generate", lambda a: a[0].task, len),
    ("taskgen.oracle_answer", "metareason.taskgen", "oracle_answer", lambda a: a[0].task, None),
    ("resolution.resolve", "metareason.resolution", "resolve", lambda a: a[0].task, None),
    ("resolution.resolve_any", "metareason.resolution", "resolve_any", None, None),
    ("resolution.surface_answer", "metareason.resolution", "surface_answer", None, None),
    ("resolution.load_instances", "metareason.resolution", "load_instances", None, len),
    ("resolution.save_instances", "metareason.resolution", "save_instances", None, None),
    ("meta_lang.render_meta", "metareason.meta_lang.renderer", "render_meta", None, None),
    ("meta_lang.parse_meta", "metareason.meta_lang.parser", "parse_meta", None, None),
    ("meta_lang.eval_program", "metareason.meta_lang.interpreter", "eval_program", None,
     lambda r: len(r.steps)),
    ("demos.build", "metareason.demos", "build_completely_serial", None, lambda r: len(r.rationale)),
    ("demos.build", "metareason.demos", "build_cross_serial", None, lambda r: len(r.rationale)),
    ("demos.load_demonstrations", "metareason.demos", "load_demonstrations", None, len),
    ("demos.save_demonstrations", "metareason.demos", "save_demonstrations", None, None),
    ("demos.select_demos", "metareason.demos", "select_demos", None, None),
    ("harness.prompts.assemble_prompt", "metareason.harness.prompts", "assemble_prompt",
     lambda a: a[2].task, len),
    ("harness.backends.complete", "metareason.harness.backends", "complete", None, None),
    ("harness.extraction.extract_answer", "metareason.harness.extraction", "extract_answer",
     None, None),
    ("harness.extraction.is_correct", "metareason.harness.extraction", "is_correct", None, None),
    ("harness.runner.record_load", "metareason.harness.runner", "RecordStore.__init__", None, None),
    ("harness.runner.record_append", "metareason.harness.runner", "RecordStore.append", None, None),
    ("harness.runner.score", "metareason.harness.runner", "score", None, None),
    ("harness.runner.run_eval", "metareason.harness.runner", "run_eval", None, None),
    ("harness.reporting.report_json", "metareason.harness.reporting", "report_json", None, len),
    ("harness.reporting.render_table", "metareason.harness.reporting", "render_table", None, None),
)

# Container spans: their self time is glue, not a layer.
CONTAINERS = {"harness.runner.run_eval"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Spans on threads the runner starts are caused by whatever span is
        # open on the thread that created the tracer.
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def wrap(self, name, fn, family_of=None, size_of=None, rename=None):
        spans, ids, local, main_stack = self.spans, self._ids, self._local, self._main_stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else next(reversed(main_stack), None)
            if family_of is not None:
                local.family = family_of(args).value
            span_id = next(ids)
            stack.append(span_id)
            ok, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                family = getattr(local, "family", None)
                size = size_of(result) if ok and size_of is not None else None
                label = rename(args) if rename is not None else name
                spans.append(
                    (span_id, parent, label, start, end, threading.get_ident(), family, ok, size)
                )

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str, phase: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps((phase,) + span) + "\n")
        self.spans.clear()


def instrument(tracer: Tracer, loose_texts: frozenset[str] = frozenset()) -> None:
    """Wrap every target and rebind each reference to it in metareason's
    modules. Parses of a text in ``loose_texts`` are named ``.loose``."""
    import metareason.demos  # noqa: F401  (load every layer before rebinding)
    import metareason.harness  # noqa: F401
    import metareason.taskgen  # noqa: F401

    replacements = {}
    for name, module_name, attr, family_of, size_of in _TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(owner, class_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), family_of, size_of))
            continue
        fn = getattr(owner, attr)
        rename = None
        if attr == "parse_meta" and loose_texts:
            rename = lambda a: "meta_lang.parse_meta.loose" if a[0] in loose_texts else "meta_lang.parse_meta"  # noqa: E731
        replacements[id(fn)] = tracer.wrap(name, fn, family_of, size_of, rename)
    for module_name, module in list(sys.modules.items()):
        if module_name != "metareason" and not module_name.startswith("metareason."):
            continue
        for key, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                setattr(module, key, wrapper)


def read_spans(path: str) -> dict[str, list[tuple]]:
    phases: dict[str, list[tuple]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            phase, *span = json.loads(line)
            phases[phase].append(tuple(span))
    return phases


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span duration minus the part covered by children on the same thread."""
    by_id = {s[0]: s for s in spans}
    own = {s[0]: s[4] - s[3] for s in spans}
    for span_id, parent, _, start, end, thread, *_ in spans:
        up = by_id.get(parent)
        if up is not None and up[5] == thread:
            own[parent] -= end - start
    return own


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    fresh: list[tuple],
    resume: list[tuple],
    items: int,
    family_items: dict[str, int],
    loose_items: int,
    untraced_s: float,
    traced_s: float,
) -> dict[str, float]:
    """Per-layer metrics from one traced fresh run and its traced resume."""
    total = defaultdict(int)
    calls = defaultdict(int)
    sizes = defaultdict(int)
    durations = defaultdict(list)
    fam_total = defaultdict(int)
    for _, _, name, start, end, _, family, _, size in fresh:
        total[name] += end - start
        calls[name] += 1
        sizes[name] += size or 0
        durations[name].append(end - start)
        if family is not None:
            fam_total[name, family] += end - start

    def per(name: str, denom: int) -> float:
        return total[name] / 1000.0 / denom if denom else 0.0

    def per_call(name: str) -> float:
        return per(name, calls[name])

    def size_per_call(name: str) -> float:
        return sizes[name] / calls[name] if calls[name] else 0.0

    complete = "harness.backends.complete"
    m = {
        "taskgen.generate.us_per_item": per("taskgen.generate", items),
        "taskgen.oracle_answer.us_per_item": per("taskgen.oracle_answer", items),
        "resolution.resolve.us_per_item": per("resolution.resolve", items),
        "resolution.resolve_any.us_per_call": per_call("resolution.resolve_any"),
        "resolution.surface_answer.us_per_item": per("resolution.surface_answer", items),
        "meta_lang.render_meta.us_per_item": per("meta_lang.render_meta", items),
        "meta_lang.parse_meta.us_per_item": per("meta_lang.parse_meta", items),
        "meta_lang.parse_meta.loose.us_per_item": per("meta_lang.parse_meta.loose", loose_items),
        "meta_lang.eval_program.us_per_item": per("meta_lang.eval_program", items),
        "meta_lang.eval_program.steps_per_item": sizes["meta_lang.eval_program"] / items,
        "demos.build.us_per_item": per("demos.build", items),
        "demos.rationale_chars_per_item": size_per_call("demos.build"),
        "harness.prompts.assemble_prompt.us_per_call": per_call("harness.prompts.assemble_prompt"),
        "harness.prompts.prompt_chars_per_call": size_per_call("harness.prompts.assemble_prompt"),
        "harness.backends.complete.p50_us": _pct(durations[complete], 0.50) / 1000.0,
        "harness.backends.complete.p99_us": _pct(durations[complete], 0.99) / 1000.0,
        "harness.backends.complete.failures": sum(1 for s in fresh if s[2] == complete and not s[7]),
        "harness.extraction.extract_answer.us_per_call": per_call("harness.extraction.extract_answer"),
        "harness.extraction.is_correct.us_per_call": per_call("harness.extraction.is_correct"),
        "harness.runner.record_append.us_per_call": per_call("harness.runner.record_append"),
    }
    for layer in ("taskgen.generate", "resolution.resolve", "meta_lang.eval_program", "demos.build"):
        for family in FAMILIES:
            m[f"{layer}.us_per_item.{family}"] = (
                fam_total[layer, family] / 1000.0 / family_items[family] if family_items.get(family) else 0.0
            )

    resumed = defaultdict(int)
    for _, _, name, start, end, *_ in resume:
        resumed[name] += end - start
    m["harness.runner.record_load.us_per_record"] = (
        resumed["harness.runner.record_load"] / 1000.0 / items if resume else 0.0
    )
    m["harness.runner.score.ms"] = resumed["harness.runner.score"] / 1e6
    m["harness.reporting.report_json.ms"] = resumed["harness.reporting.report_json"] / 1e6
    m["harness.reporting.render_table.ms"] = resumed["harness.reporting.render_table"] / 1e6

    own = self_times(fresh)
    layer_ns = sum(own[s[0]] for s in fresh if s[2] not in CONTAINERS)
    m["trace.coverage_frac"] = layer_ns / 1e9 / untraced_s
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".ms") or "_ms_" in name:
        return "ms"
    for marker, unit in (("us_per_", "us"), ("_us", "us"), ("frac", "frac"), ("chars_", "chars"),
                         ("steps_", "steps"), ("bytes_", "bytes"), ("connections_", "conn/call"),
                         ("inflight", "requests")):
        if marker in name:
            return unit
    return "count"
