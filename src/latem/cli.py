"""Command-line entry point.

Subcommands mirror the planning pipeline: `preflight` for host limits,
`plan-delays` to turn a matrix into a class map, `emit-nft` / `emit-tc` /
`emit-fdb` for the per-subsystem scripts, `gen-topology` and `gen-bpf` for
overlays and the RTO override, `plan-batches` for RAM-bounded scale-out,
`run` for whole-manifest dry-run or apply, `autoarpd` to serve neighbor
resolution, and `stats` to summarize memory samples.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading
from decimal import Decimal
from pathlib import Path

from . import autoarpd as autoarpd_mod
from . import delay_model, link_layer, orchestrator, stats, sys_preflight, time_inflation
from .adapters import ShellAdapter
from .errors import LatemError
from .manifest import allocate_ips, load_manifest, parse_fraction
from .nft_planner import DEFAULT_CHAIN, DEFAULT_ELEMENT_CHUNK_PAIRS, DEFAULT_TABLE, emit_nft_script
from .script import Script
from .tc_planner import compute_bands, emit_tc_script
from .topology import neighbor_lists, nws_graph, random_graph


def _write_or_print(content: str | Script, out: str | None) -> None:
    """Write text or a script to the file `out`, or to stdout without one."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as f:
        if isinstance(content, Script):
            content.write_to(f)
        else:
            f.write(content)


def _warn_bridge_capacity(port_count: int) -> None:
    diag = link_layer.check_bridge_capacity(port_count)
    if not diag.ok:
        print(f"warning: {diag.message}", file=sys.stderr)


def _load_classes(path: str) -> delay_model.DelayClassMap:
    text = Path(path).read_text()
    with delay_model.gc_paused():
        data = json.loads(text)
    return delay_model.DelayClassMap.from_json_dict(data)


def _cmd_preflight(args: argparse.Namespace) -> int:
    plan = sys_preflight.recommend(
        args.nodes,
        sys_preflight.PerNodeUsage(files=args.files, procs=args.procs),
    )
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


def _cmd_plan_delays(args: argparse.Namespace) -> int:
    matrix = delay_model.load_matrix(args.matrix, fmt=args.format)
    if args.manifest:
        manifest = load_manifest(args.manifest)
        ips = [n.ip for n in manifest.nodes]
    elif args.count:
        ips = allocate_ips(args.ip_base, args.count)
    else:
        ips = allocate_ips(args.ip_base, matrix.n)
    if matrix.n < len(ips):
        print(f"error: matrix has {matrix.n} nodes, need {len(ips)}", file=sys.stderr)
        return 2
    if matrix.n > len(ips):
        matrix = delay_model.subsample(matrix, len(ips), args.seed)
    if args.inflate:
        matrix = delay_model.inflate(matrix, parse_fraction(args.inflate))
    policy = delay_model.QuantizationPolicy(
        quantum_ms=args.quantum,
        rounding=args.rounding,
        drop_zero_class=not args.keep_zero_class,
    )
    quantized = delay_model.quantize(matrix, policy)
    classes = delay_model.build_classes(quantized, ips, policy)
    _write_or_print(delay_model.class_map_json(classes, policy), args.out)
    bands = compute_bands(len(classes)) if len(classes) else 2
    print(
        f"# {len(classes)} delay classes over {len(ips)} nodes "
        f"(quantum {policy.quantum_ms}ms, bands {bands})",
        file=sys.stderr,
    )
    return 0


def _cmd_emit_nft(args: argparse.Namespace) -> int:
    classes = _load_classes(args.classes)
    script = emit_nft_script(
        classes,
        table_name=args.table,
        chain_name=args.chain,
        element_chunk_pairs=args.chunk_pairs,
    )
    _write_or_print(script, args.out)
    return 0


def _cmd_emit_tc(args: argparse.Namespace) -> int:
    classes = _load_classes(args.classes)
    bands = args.bands if args.bands else compute_bands(len(classes))
    script = emit_tc_script(classes.class_delays(), args.veth, bands)
    _write_or_print(script, args.out)
    return 0


def _cmd_emit_fdb(args: argparse.Namespace) -> int:
    pattern = link_layer.MacPattern.parse(args.mac_prefix)
    if args.manifest:
        manifest = load_manifest(args.manifest)
        nodes = [(n.ip, orchestrator.veth_token(n.name)) for n in manifest.nodes]
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
    script = link_layer.emit_fdb_script(nodes, pattern)
    _write_or_print(script, args.out)
    _warn_bridge_capacity(len(nodes))
    return 0


def _cmd_gen_topology(args: argparse.Namespace) -> int:
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
        _write_or_print(json.dumps(lists, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_or_print(graph.to_edge_list_text(), args.out)
    print(f"# {graph.n} nodes, {len(graph.edges)} edges", file=sys.stderr)
    return 0


def _cmd_gen_bpf(args: argparse.Namespace) -> int:
    config = time_inflation.BpfRtoConfig(timeout_s=args.timeout_s, hz=args.hz)
    source = time_inflation.render_bpf_source(config)
    _write_or_print(source, args.source_out)
    commands = time_inflation.emit_bpf_commands(
        obj_name=args.obj, pinned_path=args.pinned, cgroup_path=args.cgroup
    )
    print("# load:", file=sys.stderr)
    for line in commands.load:
        print(f"#   {line}", file=sys.stderr)
    print("# unload:", file=sys.stderr)
    for line in commands.unload:
        print(f"#   {line}", file=sys.stderr)
    return 0


def _cmd_plan_batches(args: argparse.Namespace) -> int:
    from .manifest import ResourceModel

    resources = ResourceModel(
        ram_cap_fraction=parse_fraction(args.cap),
        per_node_startup_fraction=parse_fraction(args.startup),
        per_node_steady_fraction=parse_fraction(args.steady),
    )
    schedule = orchestrator.plan_batches(args.total, resources, args.paper_rounding)
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
    manifest = load_manifest(args.manifest)
    _warn_bridge_capacity(len(manifest.nodes))
    if args.inflate:
        manifest = time_inflation.inflate_manifest(
            manifest, time_inflation.InflationFactor.parse(args.inflate)
        )
    base_dir = Path(args.manifest).parent
    classes = bands = None
    if manifest.delay is not None:
        classes, bands = orchestrator.delay_classes_for_manifest(manifest, base_dir)
    plan = orchestrator.build_startup_plan(
        manifest,
        classes=classes,
        bands=bands,
        paper_rounding=args.paper_rounding,
    )
    mode = "apply" if args.apply else "dry-run"
    adapter = ShellAdapter() if args.apply else None
    report = orchestrator.execute(plan, mode, adapter=adapter, out_dir=args.out)
    for step in report.steps:
        print(f"{step.status:8s} {step.name}" + (f" ({step.detail})" if step.detail else ""))
        failing = next((c for c in step.commands if c.exit_code != 0), None)
        if failing is not None:
            line = failing.line if len(failing.line) <= 160 else failing.line[:157] + "..."
            print(f"{'':8s} exit {failing.exit_code}: {line}")
            for err in failing.stderr.splitlines():
                print(f"{'':8s} | {err}")
    return 0 if report.ok else 1


def _cmd_autoarpd(args: argparse.Namespace) -> int:
    pattern = link_layer.MacPattern.parse(args.mac_prefix)
    sysctls = autoarpd_mod.emit_neigh_sysctls(args.interface, args.reachable_ms)
    if args.emit_sysctls:
        sys.stdout.write(sysctls.text())
        return 0
    if args.apply_sysctls:
        results = ShellAdapter().run_batch(sysctls.lines)
        if not results[-1].ok:
            line = sysctls.lines[len(results) - 1]
            print(f"error: {line} -> exit {results[-1].exit_code}", file=sys.stderr)
            return 1
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    transport = autoarpd_mod.NetlinkSolicitTransport()
    try:
        served = autoarpd_mod.serve(transport, pattern, stop)
    finally:
        transport.close()
    print(f"received={served.received} replied={served.replied}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
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
    p.add_argument("--files", type=int, default=sys_preflight.PerNodeUsage().files)
    p.add_argument("--procs", type=int, default=sys_preflight.PerNodeUsage().procs)
    p.add_argument("--readings", help="file of 'key = value' lines to audit against")
    p.add_argument("--limits-out")
    p.add_argument("--sysctl-out")
    p.set_defaults(func=_cmd_preflight)

    p = sub.add_parser("plan-delays", help="matrix -> delay-class map (JSON)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--format", choices=("auto", "whitespace", "csv"), default="auto")
    p.add_argument("--manifest", help="take node count and IPs from a manifest")
    p.add_argument("--count", type=int, help="subsample the matrix to this many nodes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inflate", help="delay inflation factor (e.g. 2 or 4/3)")
    p.add_argument("--quantum", type=int, default=10)
    p.add_argument("--rounding", choices=delay_model.ROUNDING_MODES, default="nearest-half-up")
    p.add_argument("--keep-zero-class", action="store_true")
    p.add_argument("--ip-base", default="10.1.0.1")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan_delays)

    p = sub.add_parser("emit-nft", help="class map -> packet-marking firewall script")
    p.add_argument("--classes", required=True)
    p.add_argument("--table", default=DEFAULT_TABLE)
    p.add_argument("--chain", default=DEFAULT_CHAIN)
    p.add_argument("--chunk-pairs", type=int, default=DEFAULT_ELEMENT_CHUNK_PAIRS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_emit_nft)

    p = sub.add_parser("emit-tc", help="class map -> per-interface queueing tree script")
    p.add_argument("--classes", required=True)
    p.add_argument("--veth", required=True)
    p.add_argument("--bands", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_emit_tc)

    p = sub.add_parser("emit-fdb", help="static forwarding-database script")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest")
    source.add_argument("--nodes-file", help="file of 'ip veth' lines")
    p.add_argument("--mac-prefix", default="02:42")
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
    p.add_argument("--obj", default=time_inflation.DEFAULT_OBJ_NAME)
    p.add_argument("--pinned", default=time_inflation.DEFAULT_PINNED_PATH)
    p.add_argument("--cgroup", default=time_inflation.DEFAULT_CGROUP_PATH)
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
    p.add_argument("--paper-rounding", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("autoarpd", help="serve neighbor resolution (or emit its sysctls)")
    p.add_argument("--interface", required=True)
    p.add_argument("--mac-prefix", default="02:42")
    p.add_argument("--reachable-ms", type=int, default=autoarpd_mod.DEFAULT_REACHABLE_MS)
    p.add_argument("--emit-sysctls", action="store_true",
                   help="print the interface sysctl lines and exit")
    p.add_argument("--apply-sysctls", action="store_true",
                   help="apply the sysctls before serving (privileged)")
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
