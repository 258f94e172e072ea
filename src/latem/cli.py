"""Command-line entry point.

Subcommands mirror the planning pipeline: `preflight` for host limits,
`plan-delays` to turn a manifest's or a matrix's delays into a class map,
`emit-nft` / `emit-tc` / `emit-fdb` for the per-subsystem scripts,
`gen-topology` and `gen-bpf` for overlays and the RTO override, `plan-batches` for RAM-bounded scale-out,
`run` for whole-manifest dry-run or apply, `autoarpd` to serve neighbor
resolution, and `stats` to summarize memory samples.

Module level holds only what every command needs (argparse, the standard
library and `errors`); each command imports its own modules when it runs,
so a process loads only the modules of the command it was started for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import LatemError

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .manifest import ExperimentManifest


def _write_or_print(pieces: Iterable[str], out: str | None) -> None:
    """Write pieces of text to the file `out`, or to stdout without one.

    Each piece is written as it is made, so the whole text is never held; a
    script goes in as its `pieces()`, a plain string as a one-item list.
    """
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as f:
        f.writelines(pieces)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options the command line set, so the callee's defaults apply to the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _warn_bridge_capacity(port_count: int) -> None:
    from .link_layer import check_bridge_capacity

    diag = check_bridge_capacity(port_count)
    if not diag.ok:
        print(f"warning: {diag.message}", file=sys.stderr)


def _cmd_preflight(args: argparse.Namespace) -> int:
    from . import sys_preflight

    plan = sys_preflight.recommend(args.nodes)
    if args.readings:
        readings = sys_preflight.parse_readings(Path(args.readings).read_text())
        report = sys_preflight.audit(plan, readings)
        for row in report.rows:
            detail = f" ({row.detail})" if row.detail else ""
            current = row.current if row.current is not None else "-"
            print(f"{row.status:7s} {row.key} required={row.required} current={current}{detail}")
        print("audit:", "all-PASS" if report.all_pass else "FAILURES present")
        return 0 if report.all_pass else 1
    fragments = sys_preflight.emit_conf(plan)
    if args.limits_out:
        Path(args.limits_out).write_text(fragments.limits_conf)
    if args.sysctl_out:
        Path(args.sysctl_out).write_text(fragments.sysctl_conf)
    if not args.limits_out and not args.sysctl_out:
        print("# limits.conf")
        sys.stdout.write(fragments.limits_conf)
        print("# sysctl.conf")
        sys.stdout.write(fragments.sysctl_conf)
    return 0


def _load_inflated_manifest(args: argparse.Namespace) -> ExperimentManifest:
    """The manifest of `--manifest`, inflated by `--inflate` when given."""
    from .manifest import load_manifest, parse_fraction
    from .time_inflation import inflate_manifest

    manifest = load_manifest(args.manifest)
    if args.inflate is not None:
        manifest = inflate_manifest(manifest, parse_fraction(args.inflate))
    return manifest


def _cmd_plan_delays(args: argparse.Namespace) -> int:
    from . import delay_model

    matrix_options = _given(args, "matrix", "count", "seed", "ip_base")
    if args.manifest:
        if matrix_options:
            flag = "--" + next(iter(matrix_options)).replace("_", "-")
            print(f"error: {flag} is not used with --manifest", file=sys.stderr)
            return 2
        from .orchestrator import delay_classes_for_manifest

        manifest = _load_inflated_manifest(args)
        classes, _ = delay_classes_for_manifest(manifest, Path(args.manifest).parent)
        policy = manifest.delay.policy
        node_count = len(manifest.nodes)
    elif args.matrix:
        matrix = delay_model.load_matrix(args.matrix, **_given(args, "count", "seed"))
        if args.inflate is not None:
            from .manifest import parse_fraction

            matrix = delay_model.inflate(matrix, parse_fraction(args.inflate))
        policy = delay_model.QuantizationPolicy()
        quantized = delay_model.quantize(matrix, policy)
        node_count = matrix.n
        del matrix  # the class build reads only the quantized copy
        ips = delay_model.allocate_ips(args.ip_base or "10.1.0.1", node_count)
        classes = delay_model.build_classes(quantized, ips, policy)
        del quantized  # the write reads only the classes
    else:
        print("error: plan-delays needs --matrix or --manifest", file=sys.stderr)
        return 2
    _write_or_print(delay_model.class_map_json(classes, policy), args.out)
    bands = delay_model.compute_bands(len(classes)) if len(classes) else 2
    print(
        f"# {len(classes)} delay classes over {node_count} nodes "
        f"(quantum {policy.quantum_ms}ms, bands {bands})",
        file=sys.stderr,
    )
    return 0


def _cmd_emit_nft(args: argparse.Namespace) -> int:
    from .delay_model import load_class_map
    from .nft_planner import emit_nft_script

    _write_or_print(emit_nft_script(load_class_map(args.classes)).pieces(), args.out)
    return 0


def _cmd_emit_tc(args: argparse.Namespace) -> int:
    from .delay_model import compute_bands, load_class_map
    from .tc_planner import emit_tc_script

    classes = load_class_map(args.classes)
    script = emit_tc_script(classes.class_delays(), args.veth, compute_bands(len(classes)))
    _write_or_print(script.pieces(), args.out)
    return 0


def _cmd_emit_fdb(args: argparse.Namespace) -> int:
    from . import link_layer
    from .manifest import load_manifest
    from .orchestrator import veth_token

    if args.manifest:
        manifest = load_manifest(args.manifest)
        nodes = [(n.ip, veth_token(n.name)) for n in manifest.nodes]
    else:
        nodes = []
        for line_no, raw in enumerate(Path(args.nodes_file).read_text().splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                print(f"error: line {line_no}: expected 'ip veth'", file=sys.stderr)
                return 2
            nodes.append((parts[0], parts[1]))
    script = link_layer.emit_fdb_script(nodes)
    _write_or_print(script.pieces(), args.out)
    _warn_bridge_capacity(len(nodes))
    return 0


def _cmd_gen_topology(args: argparse.Namespace) -> int:
    from .topology import neighbor_lists, nws_graph, random_graph

    if args.kind == "nws":
        if args.k is None or args.p is None:
            print("error: --kind nws needs --k and --p", file=sys.stderr)
            return 2
        graph = nws_graph(args.n, args.k, args.p, args.seed)
    else:
        if args.degree is None:
            print("error: --kind random needs --degree", file=sys.stderr)
            return 2
        graph = random_graph(args.n, args.degree, args.seed)
    if args.neighbors:
        ids = {i: f"node{i:04d}" for i in range(graph.n)}
        lists = neighbor_lists(graph, ids)
        _write_or_print([json.dumps(lists, indent=2, sort_keys=True) + "\n"], args.out)
    else:
        _write_or_print([graph.to_edge_list_text()], args.out)
    print(f"# {graph.n} nodes, {len(graph.edges)} edges", file=sys.stderr)
    return 0


def _cmd_gen_bpf(args: argparse.Namespace) -> int:
    from . import time_inflation

    config = time_inflation.BpfRtoConfig(timeout_s=args.timeout_s, hz=args.hz)
    source = time_inflation.render_bpf_source(config)
    _write_or_print([source], args.source_out)
    commands = time_inflation.emit_bpf_commands(
        **_given(args, "obj_name", "pinned_path", "cgroup_path")
    )
    print("# load:", file=sys.stderr)
    for line in commands.load:
        print(f"#   {line}", file=sys.stderr)
    print("# unload:", file=sys.stderr)
    for line in commands.unload:
        print(f"#   {line}", file=sys.stderr)
    return 0


def _cmd_plan_batches(args: argparse.Namespace) -> int:
    from .manifest import ResourceModel, parse_fraction
    from .orchestrator import plan_batches

    resources = ResourceModel(
        ram_cap_fraction=parse_fraction(args.cap),
        per_node_startup_fraction=parse_fraction(args.startup),
        per_node_steady_fraction=parse_fraction(args.steady),
    )
    schedule = plan_batches(args.total, resources, args.paper_rounding)
    for i, (size, after, peak) in enumerate(
        zip(schedule.batches, schedule.occupancy_after, schedule.peak_during), start=1
    ):
        print(f"batch {i}: {size} nodes (peak {float(peak):.4f}, settles at {float(after):.4f})")
    print(f"total scheduled: {schedule.total_scheduled}")
    if schedule.unscheduled:
        print(f"unscheduled: {schedule.unscheduled} nodes do not fit under the cap")
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from . import orchestrator

    manifest = _load_inflated_manifest(args)
    _warn_bridge_capacity(len(manifest.nodes))
    base_dir = Path(args.manifest).parent
    classes = bands = None
    if manifest.delay is not None:
        classes, bands = orchestrator.delay_classes_for_manifest(manifest, base_dir)
    plan = orchestrator.build_startup_plan(manifest, classes=classes, bands=bands)
    if args.apply:
        from .adapters import ShellAdapter

        report = orchestrator.execute(plan, "apply", adapter=ShellAdapter())
    else:
        report = orchestrator.execute(plan, "dry-run", out_dir=args.out)
    for step in report.steps:
        wall = f"{step.wall_s:7.3f}s " if args.apply else ""
        print(f"{step.status:8s} {wall}{step.name}" + (f" ({step.detail})" if step.detail else ""))
        failing = next((c for c in step.commands if c.exit_code != 0), None)
        if failing is not None:
            line = failing.line if len(failing.line) <= 160 else failing.line[:157] + "..."
            print(f"{'':8s} exit {failing.exit_code}: {line}")
            for err in failing.stderr.splitlines():
                print(f"{'':8s} | {err}")
    return 0 if report.ok else 1


def _cmd_autoarpd(args: argparse.Namespace) -> int:
    import threading

    from . import autoarpd

    if args.emit_sysctls:
        _write_or_print(autoarpd.emit_neigh_sysctls(args.interface).pieces(), None)
        return 0
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    transport = autoarpd.NetlinkSolicitTransport()
    try:
        served = autoarpd.serve(transport, stop)
    finally:
        transport.close()
    print(f"received={served.received} replied={served.replied} overflows={served.overflows}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from decimal import Decimal

    from . import stats

    samples = {}
    for path in args.files:
        p = Path(path)
        samples[p.stem] = stats.parse_docker_stats(p.read_text())
    report = stats.summarize_stats(samples, args.available_mib)
    for cp in report.checkpoints:
        percent = cp.percent_of_available.quantize(Decimal("0.01"))
        print(
            f"{cp.name}: nodes={cp.nodes} min={cp.min_mib} max={cp.max_mib} "
            f"avg={cp.avg_mib} total={cp.total_mib} percent={percent}%"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latem",
        description="Plan and drive single-host network-emulation deployments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preflight", help="recommend/audit kernel and ulimit settings")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--readings", help="file of 'key = value' lines to audit against")
    p.add_argument("--limits-out")
    p.add_argument("--sysctl-out")
    p.set_defaults(func=_cmd_preflight)

    p = sub.add_parser("plan-delays", help="manifest or matrix -> delay-class map (JSON)")
    p.add_argument("--manifest",
                   help="plan the classes `run` plans for this manifest (its delay section)")
    p.add_argument("--matrix", help="plan under the default policy from this matrix file")
    p.add_argument("--count", type=int,
                   help="--matrix: subsample to this many nodes; only their rows are parsed")
    p.add_argument("--seed", type=int, help="--matrix: seed of the subsample draw (default 0)")
    p.add_argument("--ip-base", help="--matrix: first node address (default 10.1.0.1)")
    p.add_argument("--inflate", help="delay inflation factor (e.g. 2 or 4/3)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan_delays)

    p = sub.add_parser("emit-nft", help="class map -> packet-marking firewall script")
    p.add_argument("--classes", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_emit_nft)

    p = sub.add_parser("emit-tc", help="class map -> per-interface queueing tree script")
    p.add_argument("--classes", required=True)
    p.add_argument("--veth", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_emit_tc)

    p = sub.add_parser("emit-fdb", help="static forwarding-database script")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest")
    source.add_argument("--nodes-file", help="file of 'ip veth' lines")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_emit_fdb)

    p = sub.add_parser("gen-topology", help="deterministic overlay graphs")
    p.add_argument("--kind", choices=("nws", "random"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--degree", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--neighbors", action="store_true", help="emit per-node neighbor lists")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_topology)

    p = sub.add_parser("gen-bpf", help="TCP initial-RTO override source and commands")
    p.add_argument("--timeout-s", type=int, required=True)
    p.add_argument("--hz", type=int, required=True,
                   help="host kernel HZ; read it from /boot/config-$(uname -r)")
    p.add_argument("--obj", dest="obj_name")
    p.add_argument("--pinned", dest="pinned_path")
    p.add_argument("--cgroup", dest="cgroup_path")
    p.add_argument("--source-out")
    p.set_defaults(func=_cmd_gen_bpf)

    p = sub.add_parser("plan-batches", help="RAM-bounded scale-out schedule")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--cap", required=True)
    p.add_argument("--startup", required=True, help="per-node startup fraction, e.g. 0.8/750")
    p.add_argument("--steady", required=True, help="per-node steady fraction, e.g. 0.54/750")
    p.add_argument("--paper-rounding", action="store_true",
                   help="round settled occupancy to whole percent before sizing")
    p.set_defaults(func=_cmd_plan_batches)

    p = sub.add_parser("run", help="execute a manifest's startup plan")
    p.add_argument("--manifest", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dry-run", action="store_true")
    mode.add_argument("--apply", action="store_true")
    p.add_argument("--out", help="output directory for dry-run scripts")
    p.add_argument("--inflate", help="apply a time-inflation factor before planning")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("autoarpd", help="serve neighbor resolution (or emit its sysctls)")
    p.add_argument("--interface", required=True)
    p.add_argument("--emit-sysctls", action="store_true",
                   help="print the interface sysctl lines and exit")
    p.set_defaults(func=_cmd_autoarpd)

    p = sub.add_parser("stats", help="summarize per-checkpoint memory samples")
    p.add_argument("--available-mib", type=int, required=True)
    p.add_argument("files", nargs="+", help="docker-stats CSV files, one per checkpoint")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
