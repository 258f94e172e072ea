"""One latem process of a benchmark chain, optionally traced.

    python3 perfbench/worker.py [--trace OUT] cli <latem arguments...>
    python3 perfbench/worker.py [--trace OUT] verify CLASSES NFT TC RESULT
    python3 perfbench/worker.py [--trace OUT] apply MANIFEST RESULT

`cli` runs `latem.cli.main` (the traced stand-in for `python3 -m latem.cli`).
`verify` runs `verify_plan` on emitted nft/tc text against a class-map file.
`apply` builds the startup plan of a manifest and applies it through
`ShellAdapter` (stub tools on PATH), then serves one neighbor solicitation per
directed node pair through `autoarpd.serve`. The preflight step runs on its
own first and its per-line outcome is reported as a separate field, because
on hosts below the plan's limits it cannot pass; the remaining steps of the
same plan are then executed. RESULT is a JSON file for the harness.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
from pathlib import Path

from tracer import Tracer

# Host-side ifindex of the first node's veth; the harness's `ip -o link show`
# listing numbers the veths from here.
FIRST_IFINDEX = 10


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def verify(classes_path: str, nft_path: str, tc_path: str) -> dict:
    from latem import tc_planner
    from latem.delay_model import DelayClassMap
    from latem.script import CommandScript

    classes = DelayClassMap.from_json_dict(json.loads(Path(classes_path).read_text()))
    nft = CommandScript(lines=tuple(Path(nft_path).read_text().splitlines()))
    tc = CommandScript(lines=tuple(Path(tc_path).read_text().splitlines()))
    report = tc_planner.verify_plan(nft, tc, classes)
    return {
        "ok": report.ok,
        "pairs_checked": report.pairs_checked,
        "mismatches": len(report.mismatches),
        "default_path_ok": report.default_path_ok,
    }


def apply(manifest_path: str) -> dict:
    from latem import autoarpd, orchestrator
    from latem.adapters import ShellAdapter
    from latem.manifest import load_manifest

    path = Path(manifest_path)
    manifest = load_manifest(path)
    classes, bands = orchestrator.delay_classes_for_manifest(manifest, path.parent)
    plan = orchestrator.build_startup_plan(manifest, classes=classes, bands=bands)
    adapter = ShellAdapter()

    preflight_step, rest = plan.steps[0], plan.steps[1:]
    if preflight_step.kind != orchestrator.STEP_PREFLIGHT:
        raise SystemExit(f"first plan step is {preflight_step.kind!r}, not preflight")
    preflight = []
    for line in preflight_step.script:
        result = adapter.run(line)
        preflight.append({"line": line, "exit": result.exit_code,
                          "stderr": result.stderr.strip()})

    report = orchestrator.execute(
        orchestrator.PhasedPlan(experiment=plan.experiment, steps=rest),
        "apply",
        adapter=adapter,
    )

    pending = [
        autoarpd.Solicitation(ip=dst.ip, ifindex=FIRST_IFINDEX + i)
        for i, src in enumerate(manifest.nodes)
        for dst in manifest.nodes
        if dst is not src
    ]
    stop = threading.Event()
    transport = autoarpd.MockSolicitTransport(pending=pending, stop_signal=stop)
    served = autoarpd.serve(transport, stop_signal=stop)

    commands = [c for s in report.steps for c in s.commands]
    return {
        "ok": report.ok,
        "preflight": preflight,
        "steps": [
            {"name": s.name, "kind": s.kind, "status": s.status, "detail": s.detail,
             "commands": len(s.commands),
             "failed": sum(c.exit_code != 0 for c in s.commands)}
            for s in report.steps
        ],
        "warnings": list(report.inventory.warnings) if report.inventory else [],
        "commands": len(commands),
        "failed_commands": sum(c.exit_code != 0 for c in commands),
        "command_bytes": sum(len(c.line) + 1 for c in commands),
        "solicited": len(pending),
        "received": served.received,
        "replied": served.replied,
        "replies": [[s.ip, e.mac] for s, e in transport.replies],
        "plan": [[s.name, list(s.script)] for s in plan.steps],
    }


def main(argv: list[str]) -> int:
    tracer = None
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    command, args = argv[0], argv[1:]
    try:
        if command == "cli":
            from latem import cli

            return cli.main(args)
        if command == "verify":
            result = verify(*args[:3])
        elif command == "apply":
            result = apply(args[0])
        else:
            print(f"unknown worker command {command!r}", file=sys.stderr)
            return 2
        result["maxrss_kib"] = _maxrss_kib()
        Path(args[-1]).write_text(json.dumps(result))
        return 0 if result["ok"] else 1
    finally:
        if tracer is not None:
            tracer.dump(trace_out, os.environ.get("PERFBENCH_TRACE_ID", ""))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
