"""Experiment manifest: the single structured input describing a deployment.

The manifest is a JSON document naming every node (address, image, process
table), the overlay networks to generate, the delay section (matrix path and
quantization policy), startup phases, timers subject to time inflation, and
the RAM model used for batched scale-out. Validation is strict: every
cross-reference is checked at load time and each violation raises a
distinct error naming its JSON path (a JSON syntax error names its line).

Exact rational arithmetic (fractions) is used for every time- or
RAM-fraction-valued field so inflation and batch planning compose without
rounding drift; JSON accepts them as integers, decimal numbers, or strings
like "0.54/750".
"""

from __future__ import annotations

import ipaddress
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Union

from .delay_model import QuantizationPolicy
from .errors import ConfigError, ValidationError

PHASE_ACTIONS = ("launch", "signal", "run-host-script")
TIMER_KINDS = ("duration", "rate")
TOPOLOGY_KINDS = ("nws", "random")

FractionLike = Union[int, float, str, Fraction]


def parse_fraction(value: FractionLike, path: str = "") -> Fraction:
    """Parse exact rationals from JSON scalars.

    Strings may carry a slash ("0.54/750"); floats go through their decimal
    repr so "0.8" means 4/5, not the nearest binary float.
    """
    try:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
        if isinstance(value, str):
            if "/" in value:
                num, _, den = value.partition("/")
                return Fraction(num.strip()) / Fraction(den.strip())
            return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {value!r} as a rational: {exc}", path=path)
    raise ValidationError(f"cannot parse {type(value).__name__} as a rational", path=path)


def render_number(value: Fraction) -> str:
    """Decimal text for command lines: exact when it ends within 9 decimals, else float."""
    if value.denominator == 1:
        return str(int(value))
    scaled = value * 10**9
    if scaled.denominator == 1:
        text = f"{value.numerator / value.denominator:.9f}".rstrip("0")
        return text[:-1] if text.endswith(".") else text
    return repr(float(value))


@dataclass(frozen=True)
class ProcessSpec:
    binary: str
    args: tuple[str, ...] = ()
    start_phase: str = ""


@dataclass(frozen=True)
class NodeSpec:
    name: str
    ip: str
    image: str
    processes: tuple[ProcessSpec, ...] = ()
    roles: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Phase:
    name: str
    action: str
    target: str = "all"  # "all" or "role:<name>"
    signal: str | None = None
    stagger_ms: Fraction = Fraction(0)
    script: tuple[str, ...] = ()
    capture_stats: bool = False  # snapshot per-node memory after this phase


@dataclass(frozen=True)
class TimerSpec:
    """A named quantity subject to time inflation.

    Durations multiply by the inflation factor, rates divide by it. A timer
    without a kind cannot be inflated and fails the inflation lint.
    """

    value: Fraction
    kind: str | None = None


@dataclass(frozen=True)
class TopologySpec:
    kind: str
    seed: int = 0
    k: int | None = None  # nws: ring-lattice degree
    p: Fraction | None = None  # nws: shortcut probability
    degree: int | None = None  # random: target degree


@dataclass(frozen=True)
class DelaySection:
    matrix_path: str
    policy: QuantizationPolicy = QuantizationPolicy()
    inflation_factor: Fraction = Fraction(1)
    subsample_seed: int = 0


@dataclass(frozen=True)
class ResourceModel:
    ram_cap_fraction: Fraction
    per_node_startup_fraction: Fraction
    per_node_steady_fraction: Fraction


@dataclass(frozen=True)
class RuntimeSection:
    bridge: str = "latbr0"
    container_iface: str = "eth0"


@dataclass(frozen=True)
class ExperimentManifest:
    name: str
    nodes: tuple[NodeSpec, ...]
    phases: tuple[Phase, ...]
    networks: Mapping[str, TopologySpec] = field(default_factory=dict)
    delay: DelaySection | None = None
    timers: Mapping[str, TimerSpec] = field(default_factory=dict)
    resources: ResourceModel | None = None
    runtime: RuntimeSection = RuntimeSection()

    def nodes_for_target(self, target: str) -> tuple[NodeSpec, ...]:
        if target == "all":
            return self.nodes
        if target.startswith("role:"):
            role = target[len("role:") :]
            return tuple(n for n in self.nodes if role in n.roles)
        raise ValidationError(f"unknown target {target!r}")


# Node names become container names (Docker's rule); images, signals and
# the runtime names are each one shell word. All of them reach plan lines
# unquoted, so nothing else may pass.
_CONTAINER_NAME = re.compile(r"[a-zA-Z0-9][a-zA-Z0-9_.-]+")
_SHELL_WORD = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.:/@+-]*")


def _word(value: Any, pattern: re.Pattern, path: str) -> str:
    text = str(value)
    if not pattern.fullmatch(text):
        raise ValidationError(f"{text!r} does not match {pattern.pattern}", path=path)
    return text


def _object(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValidationError(f"expected an object, got {type(value).__name__}", path=path)
    return value


def _array(value: Any, path: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"expected an array, got {type(value).__name__}", path=path)
    return value


def _require(data: Mapping, key: str, path: str) -> Any:
    if key not in data:
        raise ValidationError(f"missing required key {key!r}", path=path)
    return data[key]


def _policy(d: Mapping) -> QuantizationPolicy:
    """The delay section's quantization policy; absent keys take the policy's defaults."""
    given = {}
    for key, convert in (("quantum_ms", int), ("rounding", str), ("drop_zero_class", bool)):
        if key in d:
            try:
                given[key] = convert(d[key])
                QuantizationPolicy(**{key: given[key]})  # alone, so its error names the key
            except (ConfigError, TypeError, ValueError) as exc:
                raise ValidationError(str(exc), path=f"delay.{key}")
    return QuantizationPolicy(**given)


def parse_manifest(data: Mapping) -> ExperimentManifest:
    """Build and validate a manifest from parsed JSON.

    Every object and array is checked to be one before it is read, so a
    value of the wrong JSON type fails with its path.
    """
    data = _object(data, "manifest")
    name = str(data.get("name", "experiment"))

    nodes = []
    for i, nd in enumerate(_array(data.get("nodes", []), "nodes")):
        path = f"nodes[{i}]"
        nd = _object(nd, path)
        node_name = _word(_require(nd, "name", f"{path}.name"), _CONTAINER_NAME, f"{path}.name")
        ip = str(_require(nd, "ip", f"{path}.ip"))
        try:
            ipaddress.IPv4Address(ip)
        except ipaddress.AddressValueError as exc:
            raise ValidationError(f"node {node_name!r}: bad IPv4 {ip!r} ({exc})", f"{path}.ip")
        processes = []
        for j, p in enumerate(_array(nd.get("processes", []), f"{path}.processes")):
            proc_path = f"{path}.processes[{j}]"
            p = _object(p, proc_path)
            processes.append(ProcessSpec(
                binary=str(_require(p, "binary", f"{proc_path}.binary")),
                args=tuple(str(a) for a in _array(p.get("args", []), f"{proc_path}.args")),
                start_phase=str(_require(p, "start_phase", f"{proc_path}.start_phase")),
            ))
        nodes.append(
            NodeSpec(
                name=node_name,
                ip=ip,
                image=_word(nd.get("image", "latem/node:latest"), _SHELL_WORD, f"{path}.image"),
                processes=tuple(processes),
                roles=frozenset(str(r) for r in _array(nd.get("roles", []), f"{path}.roles")),
            )
        )

    phases = []
    for i, ph in enumerate(_array(data.get("phases", []), "phases")):
        path = f"phases[{i}]"
        ph = _object(ph, path)
        phase_name = str(_require(ph, "name", f"{path}.name"))
        action = str(_require(ph, "action", f"{path}.action"))
        if action not in PHASE_ACTIONS:
            raise ValidationError(
                f"phase {phase_name!r}: unknown action {action!r}", f"{path}.action"
            )
        signal = ph.get("signal")
        if action == "signal" and not signal:
            raise ValidationError(
                f"phase {phase_name!r}: action 'signal' requires a signal name", f"{path}.signal"
            )
        if action != "signal" and signal:
            raise ValidationError(
                f"phase {phase_name!r}: signal given but action is {action!r}", f"{path}.signal"
            )
        stagger = parse_fraction(ph.get("stagger_ms", 0), f"{path}.stagger_ms")
        if stagger < 0:
            raise ValidationError(f"phase {phase_name!r}: negative stagger", f"{path}.stagger_ms")
        phases.append(
            Phase(
                name=phase_name,
                action=action,
                target=str(ph.get("target", "all")),
                signal=_word(signal, _SHELL_WORD, f"{path}.signal") if signal else None,
                stagger_ms=stagger,
                script=tuple(str(s) for s in _array(ph.get("script", []), f"{path}.script")),
                capture_stats=bool(ph.get("capture_stats", False)),
            )
        )

    networks = {}
    for role, nw in _object(data.get("networks", {}), "networks").items():
        path = f"networks.{role}"
        nw = _object(nw, path)
        kind = str(_require(nw, "kind", f"{path}.kind"))
        if kind not in TOPOLOGY_KINDS:
            raise ValidationError(f"network {role!r}: unknown kind {kind!r}", f"{path}.kind")
        networks[str(role)] = TopologySpec(
            kind=kind,
            seed=int(nw.get("seed", 0)),
            k=int(nw["k"]) if "k" in nw else None,
            p=parse_fraction(nw["p"], f"{path}.p") if "p" in nw else None,
            degree=int(nw["degree"]) if "degree" in nw else None,
        )

    delay = None
    if "delay" in data and data["delay"] is not None:
        d = _object(data["delay"], "delay")
        delay = DelaySection(
            matrix_path=str(_require(d, "matrix_path", "delay.matrix_path")),
            policy=_policy(d),
            inflation_factor=parse_fraction(d.get("inflation_factor", 1), "delay.inflation_factor"),
            subsample_seed=int(d.get("subsample_seed", 0)),
        )

    timers = {}
    for timer_name, t in _object(data.get("timers", {}), "timers").items():
        path = f"timers.{timer_name}"
        if isinstance(t, Mapping):
            kind = t.get("kind")
            if kind is not None and kind not in TIMER_KINDS:
                raise ValidationError(
                    f"timer {timer_name!r}: unknown kind {kind!r}", f"{path}.kind"
                )
            timers[str(timer_name)] = TimerSpec(
                value=parse_fraction(_require(t, "value", f"{path}.value"), path),
                kind=kind,
            )
        else:
            # Bare scalars are accepted but untagged; inflation will refuse them.
            timers[str(timer_name)] = TimerSpec(value=parse_fraction(t, path), kind=None)

    resources = None
    if "resources" in data and data["resources"] is not None:
        r = _object(data["resources"], "resources")
        values = {}
        for fname in ("ram_cap_fraction", "per_node_startup_fraction", "per_node_steady_fraction"):
            path = f"resources.{fname}"
            value = values[fname] = parse_fraction(_require(r, fname, path), path)
            if not 0 < value <= 1:
                raise ValidationError(f"{path} must be in (0, 1], got {value}", path)
        resources = ResourceModel(**values)

    rt = _object(data.get("runtime", {}), "runtime")
    runtime = RuntimeSection(
        bridge=_word(rt.get("bridge", "latbr0"), _SHELL_WORD, "runtime.bridge"),
        container_iface=_word(
            rt.get("container_iface", "eth0"), _SHELL_WORD, "runtime.container_iface"
        ),
    )

    manifest = ExperimentManifest(
        name=name,
        nodes=tuple(nodes),
        phases=tuple(phases),
        networks=networks,
        delay=delay,
        timers=timers,
        resources=resources,
        runtime=runtime,
    )
    _validate_cross_references(manifest)
    return manifest


def _validate_cross_references(m: ExperimentManifest) -> None:
    first_of: dict[str, int] = {}
    for i, node in enumerate(m.nodes):
        if node.name in first_of:
            raise ValidationError(
                f"duplicate node name {node.name!r} (first at nodes[{first_of[node.name]}])",
                path=f"nodes[{i}].name",
            )
        first_of[node.name] = i

    by_ip: dict[str, str] = {}
    for i, node in enumerate(m.nodes):
        if node.ip in by_ip:
            raise ValidationError(
                f"duplicate IP {node.ip}: nodes {by_ip[node.ip]!r} and {node.name!r}",
                path=f"nodes[{i}].ip",
            )
        by_ip[node.ip] = node.name

    phase_names = [p.name for p in m.phases]
    if len(phase_names) != len(set(phase_names)):
        dupes = sorted({n for n in phase_names if phase_names.count(n) > 1})
        raise ValidationError(f"duplicate phase names {dupes}", path="phases")

    held = set().union(*(node.roles for node in m.nodes))
    for i, ph in enumerate(m.phases):
        role = ph.target[len("role:"):] if ph.target.startswith("role:") else None
        if ph.target != "all" and role not in held:
            raise ValidationError(
                f"phase {ph.name!r}: target {ph.target!r} is neither 'all' nor "
                "'role:<r>' for a role some node holds",
                path=f"phases[{i}].target",
            )

    # Launch phases, when there are any, split the nodes between them.
    launches = [(i, ph) for i, ph in enumerate(m.phases) if ph.action == "launch"]
    launched_by: dict[str, str] = {}
    for i, ph in launches:
        for node in m.nodes_for_target(ph.target):
            if node.name in launched_by:
                raise ValidationError(
                    f"node {node.name!r} is launched by phases "
                    f"{launched_by[node.name]!r} and {ph.name!r}",
                    path=f"phases[{i}].target",
                )
            launched_by[node.name] = ph.name
    for i, node in enumerate(m.nodes):
        if launches and node.name not in launched_by:
            names = ", ".join(repr(ph.name) for _, ph in launches)
            raise ValidationError(
                f"node {node.name!r} is in no launch phase's target ({names})",
                path=f"nodes[{i}]",
            )

    declared = set(phase_names)
    for i, node in enumerate(m.nodes):
        for j, proc in enumerate(node.processes):
            if proc.start_phase not in declared:
                raise ValidationError(
                    f"node {node.name!r} process {proc.binary!r} references "
                    f"undeclared phase {proc.start_phase!r}",
                    path=f"nodes[{i}].processes[{j}].start_phase",
                )

    for role, spec in m.networks.items():
        if spec.kind == "nws" and (spec.k is None or spec.p is None):
            raise ValidationError(
                f"network {role!r}: kind 'nws' needs k and p", path=f"networks.{role}"
            )
        if spec.kind == "random" and spec.degree is None:
            raise ValidationError(
                f"network {role!r}: kind 'random' needs degree", path=f"networks.{role}"
            )


def load_manifest(path: str | Path) -> ExperimentManifest:
    """Read, parse, and fully validate a manifest file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc.msg}", line=exc.lineno)
    return parse_manifest(data)

