"""Experiment manifest: the single structured input describing a deployment.

The manifest is a JSON document naming every node (address, image, process
table), the overlay networks to generate, the delay section (matrix path and
class quantum), startup phases, timers subject to time inflation, and
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
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, Union

from .delay_model import INT64_MAX, QUANTUM_MS, ROUNDING, _short
from .errors import ValidationError
from .script import line_fault
from .topology import nws_faults, random_faults

PHASE_ACTIONS = ("launch", "signal", "run-host-script")
TIMER_KINDS = ("duration", "rate")
TIMER_NAME = re.compile(r"[A-Za-z0-9_.-]+")
TIMER_REF = re.compile(rf"\{{timer:({TIMER_NAME.pattern})\}}")  # in a process arg, a timer's value

FractionLike = Union[int, float, str, Fraction]


def parse_fraction(value: FractionLike, path: str = "") -> Fraction:
    """Parse exact rationals from JSON scalars.

    Strings may carry a slash ("0.54/750"); floats go through their decimal
    repr so "0.8" means 4/5, not the nearest binary float. A JSON true or
    false is no number.
    """
    try:
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
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
    """A time value as a plan writes it: exact when it ends within 9 decimals, else its
    float's repr. One below 0, past INT64_MAX, or not 0 with a float of 0 is a ValueError."""
    if not 0 <= value <= INT64_MAX:
        raise ValueError(f"value must be from 0 to {INT64_MAX}, got {_short(value)}")
    whole, part = divmod(value * 10**9, 10**9)
    if part.denominator == 1:
        return f"{whole}.{int(part):09d}".rstrip("0").rstrip(".")
    if not float(value):
        raise ValueError(f"value must be 0 or round to a float above 0, got {_short(value)}")
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
    quantum_ms: int = QUANTUM_MS
    inflation_factor: Fraction = Fraction(1)  # set by `inflate_manifest` only, never by JSON
    subsample_seed: int = 0


@dataclass(frozen=True)
class ResourceModel:
    ram_cap_fraction: Fraction  # the `resources` section: fractions of host RAM, in (0, 1]
    per_node_startup_fraction: Fraction  # at most the cap
    per_node_steady_fraction: Fraction  # at most the startup fraction

    def __post_init__(self) -> None:
        bound, label = Fraction(1), "1"
        for f in fields(self):
            if not 0 < (value := getattr(self, f.name)) <= bound:
                raise ValidationError(f"must be in (0, {label}], got {value}",
                                      f"resources.{f.name}")
            bound, label = value, f"{f.name} {value}"


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


def _check(value: Any, path: str, types: tuple, expected: str) -> Any:
    """value, when it is of one of `types`. A JSON true or false is a Python
    bool, and so an int: it passes only where `types` names bool."""
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        raise ValidationError(f"expected {expected}, got {type(value).__name__}", path=path)
    return value


_object = partial(_check, types=(Mapping,), expected="an object")
_array = partial(_check, types=(list, tuple), expected="an array")
_int = partial(_check, types=(int,), expected="an integer")
_bool = partial(_check, types=(bool,), expected="true or false")


def _text(value: Any, path: str) -> str:
    """A JSON string, or a number as its text."""
    return str(_check(value, path, (str, int, float), "a string"))


def _texts(value: Any, path: str, read: Callable[[Any, str], str] = _text) -> tuple[str, ...]:
    return tuple(read(v, f"{path}[{k}]") for k, v in enumerate(_array(value, path)))


def writable(value: Fraction, unit: int = 1) -> Fraction:
    """value, when `render_number` can write it and value / unit: a stagger is in ms
    (unit 1000), and a plan writes it in seconds. Else a ValueError."""
    render_number(value)
    try:
        render_number(value / unit)
    except ValueError as exc:
        raise ValueError(f"in seconds, {exc}")
    return value


def _time_value(value: Any, path: str, unit: int = 1) -> Fraction:
    """A timer value, or a stagger in ms (unit 1000), that a plan can write."""
    try:
        return writable(parse_fraction(value, path), unit)
    except ValueError as exc:
        raise ValidationError(str(exc), path=path)


def _script_line(value: Any, path: str) -> str:
    """A host-script line, which must keep the rule of every script line."""
    line = _text(value, path)
    if fault := line_fault(line):
        raise ValidationError(f"script line {fault}", path=path)
    return line


def _word(value: Any, path: str, pattern: re.Pattern) -> str:
    text = _text(value, path)
    if not pattern.fullmatch(text):
        raise ValidationError(f"{text!r} does not match {pattern.pattern}", path=path)
    return text


# Node names become container names (Docker's rule); images, signals and
# the runtime names are each one shell word. All of them reach plan lines
# unquoted, so nothing else may pass. Phase names name dry-run step files.
_container_name = partial(_word, pattern=re.compile(r"[a-zA-Z0-9][a-zA-Z0-9_.-]+"))
_shell_word = partial(_word, pattern=re.compile(r"[A-Za-z0-9][A-Za-z0-9_.:/@+-]*"))
_file_name = partial(_word, pattern=re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*"))


def _read(obj: Mapping, path: str, key: str, read: Callable[[Any, str], Any],
          default: Any = ...) -> Any:
    """`obj[key]`, or its default when absent, read at `path.key` (at `key`
    when path is empty); a key without a default is required."""
    at = f"{path}.{key}" if path else key
    if key not in obj and default is ...:
        raise ValidationError(f"missing required key {key!r}", path=at)
    return read(obj.get(key, default), at)


def parse_manifest(data: Mapping) -> ExperimentManifest:
    """Build and validate a manifest from parsed JSON.

    Every value is checked to be of its key's JSON type before it is read
    (a text key also takes a number, as its text), so a value of the wrong
    type fails with its path. Unknown keys are ignored.
    """
    data = _object(data, "manifest")
    name = _read(data, "", "name", _text, "experiment")

    nodes = []
    for i, nd in enumerate(_read(data, "", "nodes", _array, [])):
        path = f"nodes[{i}]"
        nd = _object(nd, path)
        node_name = _read(nd, path, "name", _container_name)
        ip = _read(nd, path, "ip", _text)
        try:
            ipaddress.IPv4Address(ip)
        except ipaddress.AddressValueError as exc:
            raise ValidationError(f"node {node_name!r}: bad IPv4 {ip!r} ({exc})", f"{path}.ip")
        processes = []
        for j, p in enumerate(_read(nd, path, "processes", _array, [])):
            proc_path = f"{path}.processes[{j}]"
            p = _object(p, proc_path)
            processes.append(ProcessSpec(
                binary=_read(p, proc_path, "binary", _text),
                args=_read(p, proc_path, "args", _texts, []),
                start_phase=_read(p, proc_path, "start_phase", _text),
            ))
        nodes.append(
            NodeSpec(
                name=node_name,
                ip=ip,
                image=_read(nd, path, "image", _shell_word, "latem/node:latest"),
                processes=tuple(processes),
                roles=frozenset(_read(nd, path, "roles", _texts, [])),
            )
        )

    phases = []
    for i, ph in enumerate(_read(data, "", "phases", _array, [])):
        path = f"phases[{i}]"
        ph = _object(ph, path)
        phase_name = _read(ph, path, "name", _file_name)
        action = _read(ph, path, "action", _text)
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
        phases.append(
            Phase(
                name=phase_name,
                action=action,
                target=_read(ph, path, "target", _text, "all"),
                signal=_read(ph, path, "signal", _shell_word) if signal else None,
                stagger_ms=_read(ph, path, "stagger_ms", partial(_time_value, unit=1000), 0),
                script=_read(ph, path, "script", partial(_texts, read=_script_line), []),
                capture_stats=_read(ph, path, "capture_stats", _bool, False),
            )
        )

    networks = {}
    for role, nw in _read(data, "", "networks", _object, {}).items():
        path = f"networks.{role}"
        nw = _object(nw, path)
        kind, seed = _read(nw, path, "kind", _text), _read(nw, path, "seed", _int, 0)
        if kind == "nws":
            spec = TopologySpec(kind, seed, k=_read(nw, path, "k", _int),
                                p=_read(nw, path, "p", parse_fraction))
            faults = nws_faults(len(nodes), spec.k, spec.p)
        elif kind == "random":
            spec = TopologySpec(kind, seed, degree=_read(nw, path, "degree", _int))
            faults = random_faults(len(nodes), spec.degree)
        else:
            raise ValidationError(f"network {role!r}: unknown kind {kind!r}", f"{path}.kind")
        for key, reason in faults:  # the generator's own rules: planning cannot refuse it
            raise ValidationError(f"network {role!r}: {reason}", f"{path}.{key}")
        networks[str(role)] = spec

    delay = None
    if "delay" in data and data["delay"] is not None:
        d = _object(data["delay"], "delay")
        if "inflation_factor" in d:  # delays alone inflated would leave timers at wall speed
            raise ValidationError("not a manifest key: `--inflate F` scales the delays, timers "
                                  "and staggers together", "delay.inflation_factor")
        if (rounding := _read(d, "delay", "rounding", _text, ROUNDING)) != ROUNDING:
            raise ValidationError(f"rounding must be {ROUNDING!r}, got {rounding!r}",
                                  "delay.rounding")
        delay = DelaySection(
            matrix_path=_read(d, "delay", "matrix_path", _text),
            quantum_ms=_read(d, "delay", "quantum_ms", _int, QUANTUM_MS),
            subsample_seed=_read(d, "delay", "subsample_seed", _int, 0),
        )
        if delay.quantum_ms < 1:
            raise ValidationError(f"quantum_ms must be >= 1, got {delay.quantum_ms}",
                                  "delay.quantum_ms")
        if delay.subsample_seed < 0:  # the seeded draw takes none
            raise ValidationError(
                f"subsample seed must be non-negative, got {delay.subsample_seed}",
                "delay.subsample_seed",
            )

    timers = {}
    for timer_name, t in _read(data, "", "timers", _object, {}).items():
        path = f"timers.{timer_name}"
        _word(timer_name, path, TIMER_NAME)  # a name `{timer:NAME}` can reference
        if isinstance(t, Mapping):
            kind = t.get("kind")
            if kind is not None and kind not in TIMER_KINDS:
                raise ValidationError(
                    f"timer {timer_name!r}: unknown kind {kind!r}", f"{path}.kind"
                )
            value = _read(t, path, "value", _time_value)
        else:
            # Bare scalars are accepted but untagged; inflation will refuse them.
            kind, value = None, _time_value(t, path)
        timers[str(timer_name)] = TimerSpec(value, kind)

    resources = None
    if "resources" in data and data["resources"] is not None:
        r = _object(data["resources"], "resources")
        resources = ResourceModel(**{f.name: _read(r, "resources", f.name, parse_fraction)
                                     for f in fields(ResourceModel)})

    rt = _read(data, "", "runtime", _object, {})
    runtime = RuntimeSection(
        bridge=_read(rt, "runtime", "bridge", _shell_word, "latbr0"),
        container_iface=_read(rt, "runtime", "container_iface", _shell_word, "eth0"),
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
            for k, arg in enumerate(proc.args):
                for timer in TIMER_REF.findall(arg):
                    if timer not in m.timers:  # the error planning would raise, at its path
                        raise ValidationError(f"arg references undeclared timer {timer!r}",
                                              path=f"nodes[{i}].processes[{j}].args[{k}]")


def load_manifest(path: str | Path) -> ExperimentManifest:
    """Read, parse, and fully validate a manifest file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc.msg}", line=exc.lineno)
    return parse_manifest(data)

