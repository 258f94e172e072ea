"""The benchmark's hooks into latem still resolve.

`perfbench/tracer.py` wraps latem functions by name, and `perfbench/worker.py`
imports latem modules and reads names off them. A rename or deletion in
`src/latem` breaks them only when the benchmark runs, so this installs the
tracer and resolves every latem name the worker uses in a fresh interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

_CHECK = """
import importlib, json, sys
from tracer import SPAN_NAMES, Tracer

tracer = Tracer()
tracer.install()
for module, names in json.loads(sys.argv[1]):
    value = importlib.import_module(module)
    for name in names:
        value = getattr(value, name)
from latem.delay_model import DelayClassMap

pairs = [["10.0.0.2", "10.0.0.1"]]
cmap = DelayClassMap.from_json_dict({"classes": [{"mark": 1, "delay_ms": 10, "pairs": pairs}]})
assert cmap.classes[0].pairs == (("10.0.0.1", "10.0.0.2"),)
assert [s[0] for s in tracer.spans] == ["delay_model.from_json_dict"], tracer.spans
assert "delay_model.from_json_dict" in SPAN_NAMES
"""


# The CLI imports each command's modules when the command runs, so the
# wrappers `install` puts on the modules must be what those imports read.
_SPANS = """
import sys
from tracer import Tracer

tracer = Tracer()
tracer.install()
import worker
from latem import cli

classes, nft, tc = sys.argv[1:]
assert cli.main(["emit-nft", "--classes", classes, "--out", nft]) == 0
assert cli.main(["emit-tc", "--classes", classes, "--veth", "vetha1", "--out", tc]) == 0
assert worker.verify(classes, nft, tc)["ok"]
print(sorted({span[0] for span in tracer.spans}))
"""


def worker_latem_names() -> list[tuple[str, list[str]]]:
    """(module, attribute path) for every latem name `worker.py` imports or
    reads off an imported latem module or class."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    bound: dict[str, tuple[str, list[str]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("latem"):
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, [alias.name])
    names = list(bound.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            module, path = bound[node.value.id]
            names.append((module, path + [node.attr]))
    return names


def test_worker_reads_latem_names():
    names = worker_latem_names()
    assert ("latem", ["orchestrator", "execute"]) in names
    assert ("latem.delay_model", ["DelayClassMap", "from_json_dict"]) in names


def test_tracer_installs_and_worker_names_resolve():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK, json.dumps(worker_latem_names())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_commands_record_their_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    classes = ROOT / "tests" / "goldens" / "classes_5node3class.json"
    proc = subprocess.run(
        [sys.executable, "-c", _SPANS, str(classes), str(tmp_path / "nft"), str(tmp_path / "tc")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(ast.literal_eval(proc.stdout.strip().splitlines()[-1]))
    assert {
        "nft_planner.emit_nft_script", "tc_planner.emit_tc_script", "tc_planner.verify_plan",
    } <= spans
