"""Experiment manifest: the single structured input describing a deployment.

The manifest is a JSON document naming every node (address, image, process
table), the overlay networks to generate, the delay section (matrix path and
quantization policy), startup phases, timers subject to time inflation, and
the RAM model used for batched scale-out. Validation is strict: every
cross-reference is checked at load time and each violation raises a
distinct, line-located error.

Exact rational arithmetic (fractions) is used for every time- or
RAM-fraction-valued field so inflation and batch planning compose without
rounding drift; JSON accepts them as integers, decimal numbers, or strings
like "0.54/750".
"""

from __future__ import annotations

import ipaddress
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Union

from .errors import ValidationError

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
    quantum_ms: int = 10
    rounding: str = "nearest-half-up"
    drop_zero_class: bool = True
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

    def node_ips(self) -> dict[int, str]:
        return {i: node.ip for i, node in enumerate(self.nodes)}

    def phase(self, name: str) -> Phase:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    def nodes_for_target(self, target: str) -> tuple[NodeSpec, ...]:
        if target == "all":
            return self.nodes
        if target.startswith("role:"):
            role = target[len("role:") :]
            return tuple(n for n in self.nodes if role in n.roles)
        raise ValidationError(f"unknown target {target!r}")


def _line_of(source: str | None, needle: str) -> int | None:
    if source is None:
        return None
    for i, line in enumerate(source.splitlines(), start=1):
        if needle in line:
            return i
    return None


def _require(data: Mapping, key: str, path: str, source: str | None) -> Any:
    if key not in data:
        raise ValidationError(
            f"missing required key {key!r}", path=path, line=_line_of(source, f'"{path.split(".")[-1]}"')
        )
    return data[key]


def parse_manifest(data: Mapping, source_text: str | None = None) -> ExperimentManifest:
    """Build and validate a manifest from parsed JSON."""
    src = source_text

    def fail(message: str, path: str, needle: str | None = None) -> ValidationError:
        return ValidationError(message, path=path, line=_line_of(src, needle or ""))

    name = str(data.get("name", "experiment"))

    nodes = []
    for i, nd in enumerate(data.get("nodes", [])):
        path = f"nodes[{i}]"
        node_name = str(_require(nd, "name", f"{path}.name", src))
        ip = str(_require(nd, "ip", f"{path}.ip", src))
        try:
            ipaddress.IPv4Address(ip)
        except ipaddress.AddressValueError as exc:
            raise fail(f"node {node_name!r}: bad IPv4 {ip!r} ({exc})", f"{path}.ip", ip)
        processes = tuple(
            ProcessSpec(
                binary=str(_require(p, "binary", f"{path}.processes[{j}].binary", src)),
                args=tuple(str(a) for a in p.get("args", [])),
                start_phase=str(_require(p, "start_phase", f"{path}.processes[{j}].start_phase", src)),
            )
            for j, p in enumerate(nd.get("processes", []))
        )
        nodes.append(
            NodeSpec(
                name=node_name,
                ip=ip,
                image=str(nd.get("image", "latem/node:latest")),
                processes=processes,
                roles=frozenset(str(r) for r in nd.get("roles", [])),
            )
        )

    phases = []
    for i, ph in enumerate(data.get("phases", [])):
        path = f"phases[{i}]"
        phase_name = str(_require(ph, "name", f"{path}.name", src))
        action = str(_require(ph, "action", f"{path}.action", src))
        if action not in PHASE_ACTIONS:
            raise fail(
                f"phase {phase_name!r}: unknown action {action!r}", f"{path}.action", action
            )
        signal = ph.get("signal")
        if action == "signal" and not signal:
            raise fail(
                f"phase {phase_name!r}: action 'signal' requires a signal name",
                f"{path}.signal",
                phase_name,
            )
        if action != "signal" and signal:
            raise fail(
                f"phase {phase_name!r}: signal given but action is {action!r}",
                f"{path}.signal",
                str(signal),
            )
        stagger = parse_fraction(ph.get("stagger_ms", 0), f"{path}.stagger_ms")
        if stagger < 0:
            raise fail(f"phase {phase_name!r}: negative stagger", f"{path}.stagger_ms", phase_name)
        phases.append(
            Phase(
                name=phase_name,
                action=action,
                target=str(ph.get("target", "all")),
                signal=str(signal) if signal else None,
                stagger_ms=stagger,
                script=tuple(str(s) for s in ph.get("script", [])),
                capture_stats=bool(ph.get("capture_stats", False)),
            )
        )

    networks = {}
    for role, nw in dict(data.get("networks", {})).items():
        path = f"networks.{role}"
        kind = str(_require(nw, "kind", f"{path}.kind", src))
        if kind not in TOPOLOGY_KINDS:
            raise fail(f"network {role!r}: unknown kind {kind!r}", f"{path}.kind", kind)
        networks[str(role)] = TopologySpec(
            kind=kind,
            seed=int(nw.get("seed", 0)),
            k=int(nw["k"]) if "k" in nw else None,
            p=parse_fraction(nw["p"], f"{path}.p") if "p" in nw else None,
            degree=int(nw["degree"]) if "degree" in nw else None,
        )

    delay = None
    if "delay" in data and data["delay"] is not None:
        d = data["delay"]
        delay = DelaySection(
            matrix_path=str(_require(d, "matrix_path", "delay.matrix_path", src)),
            quantum_ms=int(d.get("quantum_ms", 10)),
            rounding=str(d.get("rounding", "nearest-half-up")),
            drop_zero_class=bool(d.get("drop_zero_class", True)),
            inflation_factor=parse_fraction(d.get("inflation_factor", 1), "delay.inflation_factor"),
            subsample_seed=int(d.get("subsample_seed", 0)),
        )

    timers = {}
    for timer_name, t in dict(data.get("timers", {})).items():
        path = f"timers.{timer_name}"
        if isinstance(t, Mapping):
            kind = t.get("kind")
            if kind is not None and kind not in TIMER_KINDS:
                raise fail(
                    f"timer {timer_name!r}: unknown kind {kind!r}", f"{path}.kind", str(kind)
                )
            timers[str(timer_name)] = TimerSpec(
                value=parse_fraction(_require(t, "value", f"{path}.value", src), path),
                kind=kind,
            )
        else:
            # Bare scalars are accepted but untagged; inflation will refuse them.
            timers[str(timer_name)] = TimerSpec(value=parse_fraction(t, path), kind=None)

    resources = None
    if "resources" in data and data["resources"] is not None:
        r = data["resources"]
        resources = ResourceModel(
            ram_cap_fraction=parse_fraction(
                _require(r, "ram_cap_fraction", "resources.ram_cap_fraction", src),
                "resources.ram_cap_fraction",
            ),
            per_node_startup_fraction=parse_fraction(
                _require(r, "per_node_startup_fraction", "resources.per_node_startup_fraction", src),
                "resources.per_node_startup_fraction",
            ),
            per_node_steady_fraction=parse_fraction(
                _require(r, "per_node_steady_fraction", "resources.per_node_steady_fraction", src),
                "resources.per_node_steady_fraction",
            ),
        )
        for fname in ("ram_cap_fraction", "per_node_startup_fraction", "per_node_steady_fraction"):
            value = getattr(resources, fname)
            if not 0 < value <= 1:
                raise fail(
                    f"resources.{fname} must be in (0, 1], got {value}",
                    f"resources.{fname}",
                    fname,
                )

    rt = data.get("runtime", {})
    runtime = RuntimeSection(
        bridge=str(rt.get("bridge", "latbr0")),
        container_iface=str(rt.get("container_iface", "eth0")),
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
    _validate_cross_references(manifest, src)
    return manifest


def _validate_cross_references(m: ExperimentManifest, src: str | None) -> None:
    names: dict[str, int] = {}
    for node in m.nodes:
        if node.name in names:
            raise ValidationError(
                f"duplicate node name {node.name!r}",
                path=f"nodes[{names[node.name]}]",
                line=_line_of(src, node.name),
            )
        names[node.name] = len(names)

    by_ip: dict[str, str] = {}
    for node in m.nodes:
        if node.ip in by_ip:
            raise ValidationError(
                f"duplicate IP {node.ip}: nodes {by_ip[node.ip]!r} and {node.name!r}",
                path=f"nodes.{node.name}.ip",
                line=_line_of(src, node.ip),
            )
        by_ip[node.ip] = node.name

    phase_names = [p.name for p in m.phases]
    if len(phase_names) != len(set(phase_names)):
        dupes = sorted({n for n in phase_names if phase_names.count(n) > 1})
        raise ValidationError(f"duplicate phase names {dupes}", path="phases")

    declared = set(phase_names)
    for node in m.nodes:
        for proc in node.processes:
            if proc.start_phase not in declared:
                raise ValidationError(
                    f"node {node.name!r} process {proc.binary!r} references "
                    f"undeclared phase {proc.start_phase!r}",
                    path=f"nodes.{node.name}.processes",
                    line=_line_of(src, proc.start_phase),
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
    return parse_manifest(data, source_text=text)


def allocate_ips(base: str, count: int) -> list[str]:
    """Sequential IPv4 allocation skipping .0 and .255 host octets."""
    out: list[str] = []
    addr = int(ipaddress.IPv4Address(base))
    while len(out) < count:
        if addr & 0xFF not in (0, 255):
            out.append(str(ipaddress.IPv4Address(addr)))
        addr += 1
    return out
