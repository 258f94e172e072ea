"""Spans and counts around latem's public functions, from outside the program.

`install` replaces each traced function with a wrapper wherever a latem module
binds it (so `cli.emit_nft_script`, `orchestrator.nws_graph` and the like are
covered, and nested calls become child spans). A span is
(name, start, end, parent index); spans stay in memory and `dump` writes them
with the counts once the process is done. `summarize` merges the dumps of all
processes of one traced chain into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

MODULES = (
    "latem.adapters",
    "latem.autoarpd",
    "latem.cli",
    "latem.delay_model",
    "latem.link_layer",
    "latem.manifest",
    "latem.nft_planner",
    "latem.orchestrator",
    "latem.tc_planner",
    "latem.time_inflation",
    "latem.topology",
)


def _pairs(classes) -> int:
    return sum(len(c.pairs) for c in classes)


def _count_build_classes(counts, args, kwargs, result):
    counts["delay_model.pairs"] += _pairs(result)
    counts["delay_model.classes"] += len(result)


def _count_nft(counts, args, kwargs, result):
    classes = args[0] if args else kwargs["classes"]
    counts["nft_planner.elements"] += 2 * _pairs(classes)


def _count_verify(counts, args, kwargs, result):
    counts["tc_planner.pairs_checked"] += result.pairs_checked


def _count_tc(counts, args, kwargs, result):
    counts["tc_planner.calls"] += 1


def _count_plan(counts, args, kwargs, result):
    counts["orchestrator.plan_lines"] += sum(len(s.script) for s in result.steps)


def _count_run(counts, args, kwargs, result):
    counts["adapters.run_calls"] += 1
    counts["adapters.failed"] += result.exit_code != 0


def _count_serve(counts, args, kwargs, result):
    counts["autoarpd.received"] += result.received
    counts["autoarpd.replied"] += result.replied


# (module, function or Class.method, span name, counter)
TARGETS = (
    ("latem.delay_model", "load_matrix", "delay_model.load_matrix", None),
    ("latem.delay_model", "build_classes", "delay_model.build_classes", _count_build_classes),
    ("latem.delay_model", "DelayClassMap.to_json_dict", "delay_model.to_json_dict", None),
    ("latem.delay_model", "DelayClassMap.from_json_dict", "delay_model.from_json_dict", None),
    ("latem.nft_planner", "emit_nft_script", "nft_planner.emit_nft_script", _count_nft),
    ("latem.tc_planner", "emit_tc_script", "tc_planner.emit_tc_script", _count_tc),
    ("latem.tc_planner", "verify_plan", "tc_planner.verify_plan", _count_verify),
    ("latem.manifest", "load_manifest", "manifest.load_manifest", None),
    ("latem.time_inflation", "inflate_manifest", "time_inflation.inflate_manifest", None),
    ("latem.topology", "nws_graph", "topology.nws_graph", None),
    ("latem.topology", "random_graph", "topology.random_graph", None),
    ("latem.link_layer", "emit_fdb_script", "link_layer.emit_fdb_script", None),
    ("latem.orchestrator", "build_startup_plan", "orchestrator.build_startup_plan", _count_plan),
    ("latem.orchestrator", "delay_classes_for_manifest",
     "orchestrator.delay_classes_for_manifest", None),
    ("latem.orchestrator", "execute", "orchestrator.execute", None),
    ("latem.orchestrator", "gather_interfaces", "orchestrator.gather_interfaces", None),
    ("latem.adapters", "ShellAdapter.run", "adapters.run", _count_run),
    ("latem.autoarpd", "serve", "autoarpd.serve", _count_serve),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)
COUNT_NAMES = (
    "delay_model.pairs",
    "delay_model.classes",
    "nft_planner.elements",
    "tc_planner.pairs_checked",
    "tc_planner.calls",
    "orchestrator.plan_lines",
    "adapters.run_calls",
    "adapters.failed",
    "autoarpd.received",
    "autoarpd.replied",
)


class Tracer:
    """In-memory spans for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, counter)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, counter))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: str | Path, trace_id: str) -> None:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        Path(path).write_text(json.dumps({
            "trace_id": trace_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "child_cpu_s": children.ru_utime + children.ru_stime,
        }))


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name sum of span duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Merge per-process dumps into `<layer>.<function>_s` self times and counts."""
    metrics: dict[str, float] = {f"{name}_s": 0.0 for name in SPAN_NAMES}
    counts: Counter = Counter()
    run_ms: list[float] = []
    child_cpu = 0.0
    for dump in dumps:
        for name, seconds in self_times(dump["spans"]).items():
            metrics[f"{name}_s"] += seconds
        counts.update(dump["counts"])
        run_ms += [(end - start) * 1000 for name, start, end, _ in dump["spans"]
                   if name == "adapters.run"]
        if dump["counts"].get("adapters.run_calls"):
            child_cpu += dump["child_cpu_s"]
    for key in COUNT_NAMES:
        metrics[key] = counts.get(key, 0)
    metrics["adapters.run_p50_ms"] = _quantile(run_ms, 50)
    metrics["adapters.run_p99_ms"] = _quantile(run_ms, 99)
    metrics["adapters.child_cpu_s"] = child_cpu
    return metrics
