"""Kernel and ulimit preflight for launching thousands of containers.

Produces a parameter plan (what the host must allow), audits live readings
against it, and renders config-file fragments for limits.conf and
sysctl.conf. Settings are never applied here; applying is the orchestrator's
job, and persistence is the administrator's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

# Recommended floor for open files / process counts on a dedicated host.
DEFAULT_FILE_PROC_FLOOR = 1_574_415
# One pseudo-terminal per container, plus slack for the host itself.
DEFAULT_PTY_FLOOR = 11_000
DEFAULT_PTY_MARGIN = 1_000
SOCKET_BUFFER_BYTES = 2_147_483_647
TCP_BUFFER_TRIPLE = "10240 87380 16777216"
NEIGH_GC_THRESH = 200_000
# Upper estimates of one node's open files and processes.
FILES_PER_NODE = 400
PROCS_PER_NODE = 60

KIND_SYSCTL_NUM = "sysctl-num"
KIND_SYSCTL_TRIPLE = "sysctl-triple"
KIND_ULIMIT = "ulimit"

PASS = "PASS"
FAIL = "FAIL"
MISSING = "MISSING"


@dataclass(frozen=True)
class ParamEntry:
    key: str
    required: str
    kind: str
    rationale: str


@dataclass(frozen=True)
class ParameterPlan:
    entries: tuple[ParamEntry, ...]

    def __post_init__(self) -> None:
        keys = [e.key for e in self.entries]
        if len(keys) != len(set(keys)):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate plan keys: {dupes}")


def recommend(node_count: int) -> ParameterPlan:
    """Parameter plan for a target node count.

    Fixed recommended values act as floors; scaling by node count only ever
    tightens the file, process, and pty limits.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    nofile = max(node_count * FILES_PER_NODE, DEFAULT_FILE_PROC_FLOOR)
    nproc = max(node_count * PROCS_PER_NODE, DEFAULT_FILE_PROC_FLOOR)
    pty = max(node_count + DEFAULT_PTY_MARGIN, DEFAULT_PTY_FLOOR)
    entries = (
        ParamEntry("fs.nr_open", str(nofile), KIND_SYSCTL_NUM,
                   "the kernel caps the hard nofile limit at fs.nr_open"),
        ParamEntry("nofile", str(nofile), KIND_ULIMIT,
                   "every node holds sockets and files open concurrently"),
        ParamEntry("nproc", str(nproc), KIND_ULIMIT,
                   "all container processes run as root under the daemon"),
        ParamEntry("kernel.pty.max", str(pty), KIND_SYSCTL_NUM,
                   "each container normally consumes one pseudo-terminal"),
        ParamEntry("net.core.rmem_max", str(SOCKET_BUFFER_BYTES), KIND_SYSCTL_NUM,
                   "receive buffer ceiling for thousands of concurrent sockets"),
        ParamEntry("net.core.rmem_default", str(SOCKET_BUFFER_BYTES), KIND_SYSCTL_NUM,
                   "default receive buffer for newly created sockets"),
        ParamEntry("net.core.wmem_max", str(SOCKET_BUFFER_BYTES), KIND_SYSCTL_NUM,
                   "send buffer ceiling for thousands of concurrent sockets"),
        ParamEntry("net.core.wmem_default", str(SOCKET_BUFFER_BYTES), KIND_SYSCTL_NUM,
                   "default send buffer for newly created sockets"),
        ParamEntry("net.ipv4.tcp_rmem", TCP_BUFFER_TRIPLE, KIND_SYSCTL_TRIPLE,
                   "min/default/max TCP receive buffer sizing"),
        ParamEntry("net.ipv4.tcp_wmem", TCP_BUFFER_TRIPLE, KIND_SYSCTL_TRIPLE,
                   "min/default/max TCP send buffer sizing"),
        ParamEntry("net.ipv4.neigh.default.gc_thresh1", str(NEIGH_GC_THRESH),
                   KIND_SYSCTL_NUM,
                   "neighbor cache must hold an entry per node pair endpoint"),
        ParamEntry("net.ipv4.neigh.default.gc_thresh2", str(NEIGH_GC_THRESH),
                   KIND_SYSCTL_NUM,
                   "soft cap below which the neighbor GC leaves entries alone"),
        ParamEntry("net.ipv4.neigh.default.gc_thresh3", str(NEIGH_GC_THRESH),
                   KIND_SYSCTL_NUM,
                   "hard cap; above it the neighbor GC always runs"),
    )
    return ParameterPlan(entries=entries)


@dataclass(frozen=True)
class AuditRow:
    key: str
    status: str
    required: str
    current: str | None
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.status == PASS for r in self.rows)


def _normalize_triple(value: str) -> str:
    return " ".join(str(value).split())


def audit(plan: ParameterPlan, readings: Mapping[str, str | int]) -> AuditReport:
    """Compare live readings against the plan.

    Numeric limits are ceilings, so current >= required passes; the TCP
    buffer triples must match exactly because their middle (default) value
    matters. Keys absent from the readings come back MISSING.
    """
    rows = []
    for entry in plan.entries:
        if entry.key not in readings:
            rows.append(AuditRow(entry.key, MISSING, entry.required, None))
            continue
        current = str(readings[entry.key])
        if entry.kind == KIND_SYSCTL_TRIPLE:
            if _normalize_triple(current) == _normalize_triple(entry.required):
                rows.append(AuditRow(entry.key, PASS, entry.required, current))
            else:
                rows.append(
                    AuditRow(entry.key, FAIL, entry.required, current,
                             detail="triple must match exactly")
                )
            continue
        try:
            have = int(_normalize_triple(current))
        except ValueError:
            rows.append(
                AuditRow(entry.key, FAIL, entry.required, current,
                         detail="expected a numeric value")
            )
            continue
        need = int(entry.required)
        if have >= need:
            rows.append(AuditRow(entry.key, PASS, entry.required, current))
        else:
            rows.append(
                AuditRow(entry.key, FAIL, entry.required, current,
                         detail=f"short by {need - have}")
            )
    return AuditReport(rows=tuple(rows))


@dataclass(frozen=True)
class ConfFragments:
    limits_conf: str
    sysctl_conf: str


def emit_conf(plan: ParameterPlan) -> ConfFragments:
    """Render limits.conf and sysctl.conf fragments for the plan.

    Ulimit entries become `root {hard,soft} <name> <value>` lines; sysctl
    entries become `key=value` lines in plan order.
    """
    limits_lines = []
    sysctl_lines = []
    for entry in plan.entries:
        if entry.kind == KIND_ULIMIT:
            limits_lines.append(f"root hard {entry.key} {entry.required}")
            limits_lines.append(f"root soft {entry.key} {entry.required}")
        else:
            sysctl_lines.append(f"{entry.key}={entry.required}")
    limits = "\n".join(limits_lines) + ("\n" if limits_lines else "")
    sysctl = "\n".join(sysctl_lines) + ("\n" if sysctl_lines else "")
    return ConfFragments(limits_conf=limits, sysctl_conf=sysctl)


def parse_readings(text: str) -> dict[str, str]:
    """Ingest `sysctl -a` style output: `key = value` or `key=value` lines."""
    readings: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            readings[key.strip()] = value.strip()
    return readings


# Hard limits are read from /proc/self/limits, the column before the units:
# dash's `ulimit` has no -u, and its -p (processes) is bash's pipe size.
_LIMITS_ROWS = {"nofile": "Max open files", "nproc": "Max processes"}


def emit_audit_commands(plan: ParameterPlan) -> tuple[str, ...]:
    """Shell test lines that gate on the plan; nonzero exit means FAIL."""
    lines = []
    for entry in plan.entries:
        if entry.kind == KIND_ULIMIT:
            row = _LIMITS_ROWS.get(entry.key)
            if row:
                lines.append(
                    f"awk '/^{row} / {{ h = $(NF - 1) }} END {{ exit !(h == \"unlimited\" "
                    f"|| h + 0 >= {entry.required}) }}' /proc/self/limits"
                )
        elif entry.kind == KIND_SYSCTL_TRIPLE:
            lines.append(
                f"test \"$(sysctl -n {entry.key} | tr -s '[:space:]' ' ' | sed 's/ $//')\""
                f' = "{entry.required}"'
            )
        else:
            lines.append(f'test "$(sysctl -n {entry.key})" -ge {entry.required}')
    return tuple(lines)
