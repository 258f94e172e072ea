"""Phased startup orchestration: batch planning, plan building, execution.

A startup plan is an ordered list of steps, each carrying a command script:
host preflight gates, batched container launches sized by the RAM model,
interface inventory, static FDB entries, firewall marking, per-interface
queueing trees, and finally the signal phases that unfreeze the node agents
(staggered, because kernel-side setup of thousands of connections serializes
on shared locks). Each launch line also sets its container's neighbor
sysctls with `--sysctl`, so no step enters a running container to write them.

Interface names are only known once containers run, so the FDB and tc
steps carry `{veth:<node>}` placeholders; apply mode fills them from the
gathered inventory and sends every other step as it was planned. Dry-run
mode writes every script to a file, piece by piece, and touches nothing.
The nft and tc steps are held as what their lines are rendered from (the
class map, one tree of line templates), so no step's whole text is held.
"""

from __future__ import annotations

import json
import re
import shlex
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

from . import sys_preflight
from .delay_model import DelayClassMap, compute_bands
from .errors import ConfigError, InfeasibleError, InventoryError, ValidationError
from .link_layer import emit_fdb_script, mac_for_ip, neigh_settings
from .manifest import ExperimentManifest, NodeSpec, ResourceModel, render_number
from .nft_planner import emit_nft_script
from .script import CommandScript, Script
from .tc_planner import TreeScript, emit_tc_trees
from .topology import neighbor_lists, nws_graph, random_graph

if TYPE_CHECKING:  # only apply mode runs commands; it gets its adapter from the caller
    from .adapters import CommandResult, RuntimeAdapter

NODE_SPEC_ENV = "LATEM_NODE_SPEC"

STEP_PREFLIGHT = "preflight"
STEP_LAUNCH = "launch"
STEP_GATHER = "gather"
STEP_FDB = "fdb"
STEP_NFT = "nft"
STEP_TC = "tc"
STEP_SIGNAL = "signal"
STEP_HOST_SCRIPT = "host-script"
STEP_STATS = "stats"

STATS_COMMAND = "docker stats --no-stream --format '{{.Name}},{{.MemUsage}}'"


def veth_token(node_name: str) -> str:
    return f"{{veth:{node_name}}}"


# --- batched scale-out ------------------------------------------------------


@dataclass(frozen=True)
class BatchSchedule:
    """Launch batches sized so startup never pushes RAM past the cap."""

    batches: tuple[int, ...]
    occupancy_after: tuple[Fraction, ...]  # steady occupancy once a batch settles
    peak_during: tuple[Fraction, ...]  # occupancy while a batch is starting
    unscheduled: int
    cap: Fraction

    def __post_init__(self) -> None:
        for peak in self.peak_during:
            if peak > self.cap:
                raise InfeasibleError(f"batch peak {peak} exceeds cap {self.cap}")

    @property
    def total_scheduled(self) -> int:
        return sum(self.batches)


def plan_batches(
    total_nodes: int,
    resources: ResourceModel,
    paper_rounding: bool = False,
    running: int = 0,
) -> BatchSchedule:
    """Batch sizes under the RAM model, in exact rational arithmetic.

    `running` nodes are already up at their settled (steady) footprint. Each
    batch fills whatever the settled footprint of the running nodes leaves
    free at the startup footprint, so the first batch of an empty host fills
    the cap. With paper_rounding, the settled occupancy is rounded to a whole
    percent before sizing the next batch, reproducing hand calculations done
    on rounded percentages.
    """
    cap = resources.ram_cap_fraction
    startup = resources.per_node_startup_fraction
    steady = resources.per_node_steady_fraction
    if not startup >= steady > 0:
        raise ConfigError(
            f"need per-node startup >= steady > 0, got {startup} and {steady}"
        )
    if startup > cap:
        raise InfeasibleError(
            f"a single node's startup footprint {startup} exceeds the cap {cap}"
        )
    batches: list[int] = []
    after: list[Fraction] = []
    peaks: list[Fraction] = []
    started = running
    remaining = total_nodes
    while remaining > 0:
        occupied = started * steady
        if paper_rounding:
            occupied = Fraction(round(occupied * 100), 100)
        size = min(remaining, int((cap - occupied) // startup))
        if size <= 0:
            break
        batches.append(size)
        peaks.append(occupied + size * startup)
        started += size
        remaining -= size
        after.append(started * steady)
    return BatchSchedule(
        batches=tuple(batches),
        occupancy_after=tuple(after),
        peak_during=tuple(peaks),
        unscheduled=remaining,
        cap=cap,
    )


# --- interface inventory ----------------------------------------------------


@dataclass(frozen=True)
class InterfaceInventory:
    """Each node's host-side veth, in gather order, and the gather's warnings."""

    veths: dict[str, str]
    warnings: tuple[str, ...] = ()


_IP_LINK_LINE = re.compile(r"^(\d+):\s+([^:@\s]+)")
_HOST_LINKS_QUERY = "ip -o link show"


@dataclass(frozen=True)
class GatherScript(Script):
    """The interface inventory queries, the gather step's script.

    For each node, in order, it reads the container interface's peer ifindex
    (`iflink`) and then its MAC (`address`); one host link listing comes
    last. Without nodes it has no lines.
    """

    nodes: tuple[tuple[str, str], ...]  # (name, ip)
    container_iface: str

    def __post_init__(self) -> None:
        CommandScript(lines=tuple(self))  # the line rule every script keeps

    def __len__(self) -> int:
        return 2 * len(self.nodes) + 1 if self.nodes else 0

    def __iter__(self) -> Iterator[str]:
        for name, _ in self.nodes:
            for attr in ("iflink", "address"):
                yield f"docker exec {name} cat /sys/class/net/{self.container_iface}/{attr}"
        if self.nodes:
            yield _HOST_LINKS_QUERY


def gather_interfaces(adapter: RuntimeAdapter, script: GatherScript) -> InterfaceInventory:
    """Run the gather step's script and map each node to its host-side veth.

    The container's interface reports the peer ifindex (`iflink`), which maps
    to the host-side veth name via one `ip -o link show` listing. The
    script's lines go through `adapter.run_batch` in order. A failed MAC
    read only warns, so the next batch resumes at the line after it; any other
    failed query ends the gather. Each MAC is expected to be `mac_for_ip` of
    the node's address, the one its launch line sets with `--mac-address`.
    """
    nodes = script.nodes
    if not nodes:
        return InterfaceInventory(veths={}, warnings=("no nodes to inventory",))
    lines = list(script)
    results: list[CommandResult] = []
    while len(results) < len(lines):
        results += adapter.run_batch(lines[len(results):])
        last = len(results) - 1
        if results[last].ok or last % 2:  # odd lines read a MAC
            continue
        if last < len(lines) - 1:
            raise InventoryError(f"node {nodes[last // 2][0]!r}: cannot read peer ifindex")
        listing = results[last]
        raise InventoryError(f"cannot list host links: {listing.stderr or listing.stdout}")
    host_links: dict[int, str] = {}
    for line in results[-1].stdout.splitlines():
        if m := _IP_LINK_LINE.match(line.strip()):
            host_links[int(m.group(1))] = m.group(2)

    veths = {}
    warnings = []
    for (name, ip), iflink, mac_out in zip(nodes, results[0::2], results[1::2]):
        if not iflink.stdout.strip().isdigit():
            raise InventoryError(f"node {name!r}: cannot read peer ifindex")
        peer = int(iflink.stdout.strip())
        if peer not in host_links:
            raise InventoryError(
                f"node {name!r}: no host link with ifindex {peer} (stale inventory?)"
            )
        veths[name] = host_links[peer]
        mac = mac_out.stdout.strip().lower() if mac_out.ok else ""
        expected = mac_for_ip(ip)
        if mac != expected:
            warnings.append(
                f"node {name!r}: MAC {mac or '?'} does not match pattern-derived {expected}"
            )
    return InterfaceInventory(veths=veths, warnings=tuple(warnings))


# --- plan construction -------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    name: str
    kind: str
    script: Script


@dataclass(frozen=True)
class PhasedPlan:
    experiment: str
    steps: tuple[PlanStep, ...]


_TIMER_REF = re.compile(r"\{timer:([A-Za-z0-9_.-]+)\}")


def _render_arg(arg: str, timers: Mapping[str, str]) -> str:
    def sub(m: re.Match) -> str:
        name = m.group(1)
        if name not in timers:
            raise ValidationError(f"arg references undeclared timer {name!r}")
        return timers[name]

    return _TIMER_REF.sub(sub, arg)


def _node_overlays(manifest: ExperimentManifest) -> dict[str, dict[str, list[str]]]:
    """Per-node neighbor lists for every declared overlay network."""
    ids = {i: node.name for i, node in enumerate(manifest.nodes)}
    out: dict[str, dict[str, list[str]]] = {node.name: {} for node in manifest.nodes}
    for role, spec in sorted(manifest.networks.items()):
        if spec.kind == "nws":
            g = nws_graph(len(manifest.nodes), spec.k, float(spec.p), spec.seed)
        else:
            g = random_graph(len(manifest.nodes), spec.degree, spec.seed)
        for name, nbrs in neighbor_lists(g, ids).items():
            out[name][role] = nbrs
    return out


def _node_spec_env(
    node: NodeSpec,
    timers: Mapping[str, str],  # each manifest timer's rendered value
    overlays: Mapping[str, Mapping[str, list[str]]],
    signal_targets: list[tuple[str, set[str]]],  # (phase, names of nodes it signals)
) -> str:
    signal_phases = [name for name, targets in signal_targets if node.name in targets]
    spec = {
        "name": node.name,
        "ip": node.ip,
        "signal_phases": signal_phases,
        "processes": [
            {
                "binary": proc.binary,
                "args": [_render_arg(a, timers) for a in proc.args],
                "start_phase": proc.start_phase,
            }
            for proc in node.processes
        ],
        "neighbors": {role: list(nbrs) for role, nbrs in sorted(overlays[node.name].items())},
        "timers": timers,
    }
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _launch_line(
    node: NodeSpec, manifest: ExperimentManifest, sysctls: str, env_json: str
) -> str:
    mac = mac_for_ip(node.ip)
    return (
        f"docker run -d --name {node.name} --hostname {node.name} "
        f"--network {manifest.runtime.bridge} --ip {node.ip} --mac-address {mac} "
        f"--cap-add NET_ADMIN {sysctls}--env {NODE_SPEC_ENV}={shlex.quote(env_json)} "
        f"{node.image}"
    )


def build_startup_plan(
    manifest: ExperimentManifest,
    classes: DelayClassMap | None = None,
    bands: int | None = None,
) -> PhasedPlan:
    """Assemble the fixed-order startup plan for a manifest.

    Order: preflight, batched launches (each line also sets the node's
    neighbor sysctls), interface inventory, FDB, firewall marking,
    per-interface trees, then the manifest's signal and host-script phases.
    Marking always precedes tree setup, and both precede any signal.
    `classes` must be supplied when the manifest has a delay section (the
    CLI computes it from the matrix file); without a delay section the
    marking and tree steps are omitted entirely. The FDB and tree steps name
    each interface by its `{veth:<node>}` placeholder, which `execute` fills
    in from the gather step.
    """
    if manifest.delay is not None and classes is None:
        raise ConfigError(
            "manifest declares a delay section but no delay classes were supplied"
        )
    steps: list[PlanStep] = []

    def add(name: str, kind: str, script: Script) -> None:
        steps.append(PlanStep(name=name, kind=kind, script=script))

    plan = sys_preflight.recommend(max(len(manifest.nodes), 1))
    preflight = CommandScript(lines=sys_preflight.emit_audit_commands(plan))
    add(STEP_PREFLIGHT, STEP_PREFLIGHT, preflight)

    overlays = _node_overlays(manifest)
    # Every launch line and node spec shares these.
    timers = {name: render_number(t.value) for name, t in sorted(manifest.timers.items())}
    sysctls = "".join(
        f"--sysctl {shlex.quote(f'{key}={value}')} "
        for key, value in neigh_settings(manifest.runtime.container_iface)
    )
    signal_targets = [
        (p.name, {n.name for n in manifest.nodes_for_target(p.target)})
        for p in manifest.phases
        if p.action == "signal"
    ]
    launch_phases = [p for p in manifest.phases if p.action == "launch"]
    running = 0  # nodes that earlier launch phases started
    for phase in launch_phases:
        targets = manifest.nodes_for_target(phase.target)
        if manifest.resources is not None:
            schedule = plan_batches(len(targets), manifest.resources, running=running)
            if schedule.unscheduled:
                raise InfeasibleError(
                    f"RAM model cannot host {len(targets)} nodes: "
                    f"{schedule.unscheduled} nodes do not fit under the cap"
                )
            running += len(targets)
        else:
            schedule = None
        sizes = schedule.batches if schedule else (len(targets),)
        offset = 0
        for batch_no, size in enumerate(sizes, start=1):
            batch_nodes = targets[offset : offset + size]
            offset += size
            lines = tuple(
                _launch_line(
                    node,
                    manifest,
                    sysctls,
                    _node_spec_env(node, timers, overlays, signal_targets),
                )
                for node in batch_nodes
            )
            add(f"launch-{phase.name}-b{batch_no:02d}", STEP_LAUNCH, CommandScript(lines=lines))
        if phase.capture_stats:
            add(f"stats-{phase.name}", STEP_STATS, CommandScript(lines=(STATS_COMMAND,)))

    nodes = tuple((n.name, n.ip) for n in manifest.nodes)
    add(STEP_GATHER, STEP_GATHER, GatherScript(nodes, manifest.runtime.container_iface))

    add(
        STEP_FDB,
        STEP_FDB,
        emit_fdb_script([(n.ip, veth_token(n.name)) for n in manifest.nodes]),
    )

    if manifest.delay is not None and classes is not None and len(classes) > 0:
        add(STEP_NFT, STEP_NFT, emit_nft_script(classes))
        b = bands if bands is not None else compute_bands(len(classes))
        veths = [veth_token(node.name) for node in manifest.nodes]
        add(STEP_TC, STEP_TC, emit_tc_trees(classes.class_delays(), veths, b))

    for phase in manifest.phases:
        if phase.action == "signal":
            targets = manifest.nodes_for_target(phase.target)
            stagger_s = phase.stagger_ms / 1000
            lines: list[str] = []
            for i, node in enumerate(targets):
                if i > 0 and stagger_s > 0:
                    lines.append(f"sleep {render_number(stagger_s)}")
                lines.append(f"docker kill -s {phase.signal} {node.name}")
            add(f"signal-{phase.name}", STEP_SIGNAL, CommandScript(lines=tuple(lines)))
        elif phase.action == "run-host-script":
            add(f"host-{phase.name}", STEP_HOST_SCRIPT, CommandScript(lines=phase.script))
        if phase.capture_stats and phase.action != "launch":
            add(f"stats-{phase.name}", STEP_STATS, CommandScript(lines=(STATS_COMMAND,)))

    return PhasedPlan(experiment=manifest.name, steps=tuple(steps))


def delay_classes_for_manifest(
    manifest: ExperimentManifest, base_dir: str | Path = "."
) -> tuple[DelayClassMap, int]:
    """Load the manifest's matrix and derive its class map and band count.

    Only a seeded draw of node-count rows of the matrix is parsed (all rows
    when the counts match); `quantize` multiplies each of its entries by the
    accumulated inflation factor as it quantizes them under the manifest's
    policy. Relative matrix paths resolve against base_dir.
    """
    from . import delay_model

    if manifest.delay is None:
        raise ConfigError("manifest has no delay section")
    d = manifest.delay
    path = Path(base_dir) / d.matrix_path  # an absolute matrix_path replaces base_dir
    matrix = delay_model.load_matrix(path, count=len(manifest.nodes), seed=d.subsample_seed)
    quantized = delay_model.quantize(matrix, d.policy, d.inflation_factor)
    del matrix  # the class build reads only the quantized copy
    classes = delay_model.build_classes(quantized, [n.ip for n in manifest.nodes], d.policy)
    bands = compute_bands(len(classes)) if len(classes) else 2
    return classes, bands


# --- execution ----------------------------------------------------------------


@dataclass(frozen=True)
class CommandOutcome:
    line: str
    exit_code: int
    stdout: str = ""
    stderr: str = ""


@dataclass(frozen=True)
class StepResult:
    name: str
    kind: str
    status: str  # written | ok | failed | skipped
    commands: tuple[CommandOutcome, ...] = ()
    detail: str = ""
    wall_s: float = 0.0


@dataclass(frozen=True)
class ExecutionReport:
    steps: tuple[StepResult, ...]
    inventory: InterfaceInventory | None = None

    @property
    def ok(self) -> bool:
        return all(s.status in ("ok", "written") for s in self.steps)


_VETH_TOKEN = re.compile(r"\{veth:([^{}]+)\}")
_STEP_FILE = re.compile(r"\d+-.+\.sh")


def _substitute(line: str, veths: Mapping[str, str]) -> str:
    def sub(m: re.Match) -> str:
        node = m.group(1)
        if node not in veths:
            raise InventoryError(f"no gathered veth for node {node!r}")
        return veths[node]

    return _VETH_TOKEN.sub(sub, line)


def execute(
    plan: PhasedPlan,
    mode: str,
    adapter: RuntimeAdapter | None = None,
    out_dir: str | Path | None = None,
) -> ExecutionReport:
    """Run a plan in dry-run or apply mode.

    Dry-run writes step i's script to `<i>-<name>.sh` under out_dir, `i`
    zero-padded to the width of the last index (at least 2 digits) so the
    names sort in run order, and performs no other action; output is
    byte-deterministic. Each script goes to its file as its pieces, never
    joined whole. A directory holding a step file (`<digits>-<name>.sh`)
    this plan does not write is refused before anything is written; the
    same plan may be written over its own.

    Apply runs steps in order, each through the adapter's `run_batch`, and
    the step's kind picks the tool: the nft step is one `nft` batch, the tc
    step one `tc` batch per interface, in order, and every other step (host
    scripts included) goes to the shell. The gather step's inventory
    (`gather_interfaces`, kept in the report) fills the `{veth:<node>}`
    placeholders of the FDB and tc steps, the only ones that hold them: an
    FDB line at a time, each name quoted as one shell word, and each tc
    interface's name once, as it is, all before the first tree runs. A
    host-script line goes as `(eval <quoted line>)`, its own subshell, and is
    reported as written. Every other step's lines reach the adapter exactly as
    its dry-run file holds them. A failed MAC read in the gather only warns.
    Any other step stops at its first failing command, which is reported
    with its exit code, stdout and stderr; a failing interface ends the tc
    step. A timeout or an unresolvable placeholder fails the step with a
    detail. Steps after a failed one are reported as skipped.

    In both modes each step's `wall_s` is its time by `perf_counter`; a
    skipped step's is 0.
    """
    if mode not in ("dry-run", "apply"):
        raise ConfigError(f"mode must be 'dry-run' or 'apply', got {mode!r}")

    if mode == "dry-run":
        if out_dir is None:
            raise ConfigError("dry-run needs an output directory")
        root = Path(out_dir)
        width = max(2, len(str(len(plan.steps) - 1)))
        names = [f"{i:0{width}d}-{step.name}.sh" for i, step in enumerate(plan.steps)]
        if root.is_dir():
            stale = min((p.name for p in root.iterdir()
                         if _STEP_FILE.fullmatch(p.name) and p.name not in names), default=None)
            if stale is not None:
                raise ConfigError(
                    f"{root} holds {stale}, a step file this plan does not write; "
                    "use a new directory"
                )
        root.mkdir(parents=True, exist_ok=True)
        results = []
        for step, name in zip(plan.steps, names):
            start = time.perf_counter()
            path = root / name
            with path.open("w") as out:
                out.writelines(step.script.pieces())
            results.append(
                StepResult(name=step.name, kind=step.kind, status="written",
                           detail=str(path), wall_s=time.perf_counter() - start)
            )
        return ExecutionReport(steps=tuple(results))

    if adapter is None:
        raise ConfigError("apply mode needs a runtime adapter")
    import subprocess

    results = []
    veths: dict[str, str] = {}
    inventory: InterfaceInventory | None = None
    failed = False
    for step in plan.steps:
        if failed:
            results.append(StepResult(name=step.name, kind=step.kind, status="skipped"))
            continue
        start = time.perf_counter()
        try:
            if step.kind == STEP_GATHER:
                inventory = gather_interfaces(adapter, step.script)
                veths.update(inventory.veths)
                results.append(
                    StepResult(name=step.name, kind=step.kind, status="ok",
                               detail="; ".join(inventory.warnings),
                               wall_s=time.perf_counter() - start)
                )
                continue
            if step.kind == STEP_TC:  # every name is resolved before any tree runs
                trees = TreeScript(step.script.tree,
                                   tuple(_substitute(v, veths) for v in step.script.veths))
                batches = ((tree.split("\n")[:-1], "tc") for tree in trees.pieces())
            else:
                lines = list(step.script)
                if step.kind == STEP_FDB:  # each name one shell word, whatever it holds
                    quoted = {node: shlex.quote(veth) for node, veth in veths.items()}
                    lines = [_substitute(line, quoted) for line in lines]
                batches = [(lines, "nft" if step.kind == STEP_NFT else None)]
            outcomes = []
            for lines, tool in batches:
                # A user's line runs in a subshell, so it cannot reach the next.
                ran = adapter.run_batch([f"(eval {shlex.quote(line)})" for line in lines]
                                        if step.kind == STEP_HOST_SCRIPT else lines, tool)
                outcomes += [CommandOutcome(line, r.exit_code, r.stdout, r.stderr)
                             for line, r in zip(lines, ran)]
                if len(ran) < len(lines) or ran and not ran[-1].ok:
                    break
        except (InventoryError, subprocess.TimeoutExpired) as exc:
            failed = True
            results.append(
                StepResult(name=step.name, kind=step.kind, status="failed",
                           detail=str(exc), wall_s=time.perf_counter() - start)
            )
            continue
        failed = any(o.exit_code != 0 for o in outcomes)
        results.append(
            StepResult(name=step.name, kind=step.kind,
                       status="failed" if failed else "ok", commands=tuple(outcomes),
                       wall_s=time.perf_counter() - start)
        )
    return ExecutionReport(steps=tuple(results), inventory=inventory)
