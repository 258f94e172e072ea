"""Memory-occupation summaries from container runtime stats.

Samples are per-node resident memory in MiB, grouped by named checkpoint
(e.g. after each startup phase). Sums and averages use decimal arithmetic so
the total is the exact sum of the samples, not a float approximation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Mapping

from .errors import StatsError

# docker stats --no-stream --format "{{.Name}},{{.MemUsage}}"
_STATS_LINE = re.compile(r"^(?P<name>\S+),(?P<mem>[0-9.]+)\s*(?P<unit>[KMGT]?i?B)\s*/")

_UNIT_TO_MIB = {
    "B": Decimal(1) / (1 << 20),
    "KB": Decimal(1000) / (1 << 20),
    "KiB": Decimal(1) / 1024,
    "MB": Decimal(1_000_000) / (1 << 20),
    "MiB": Decimal(1),
    "GB": Decimal(1_000_000_000) / (1 << 20),
    "GiB": Decimal(1024),
    "TiB": Decimal(1024 * 1024),
    "TB": Decimal(10**12) / (1 << 20),
}


def parse_docker_stats(text: str) -> dict[str, Decimal]:
    """Parse `docker stats` formatted output into node -> MiB."""
    samples: dict[str, Decimal] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.lower().startswith("name,"):
            continue
        m = _STATS_LINE.match(line)
        if not m:
            raise StatsError(f"line {line_no}: unrecognized stats line {line!r}")
        scale = _UNIT_TO_MIB.get(m.group("unit"))
        if scale is None:
            raise StatsError(f"line {line_no}: unknown memory unit {m.group('unit')!r}")
        samples[m.group("name")] = Decimal(m.group("mem")) * scale
    return samples


@dataclass(frozen=True)
class CheckpointStats:
    name: str
    nodes: int
    min_mib: Decimal
    max_mib: Decimal
    avg_mib: Decimal
    total_mib: Decimal
    percent_of_available: Decimal


def summarize_stats(
    samples: Mapping[str, Mapping[str, Decimal]], available_mib: int
) -> tuple[CheckpointStats, ...]:
    """Per-checkpoint min/max/avg per node, exact total, percent of available."""
    if available_mib < 1:
        raise StatsError(f"available_mib must be >= 1, got {available_mib}")
    checkpoints = []
    for name, per_node in samples.items():
        if not per_node:
            raise StatsError(f"checkpoint {name!r} has no samples")
        values = [Decimal(v) for v in per_node.values()]
        total = sum(values, Decimal(0))
        checkpoints.append(
            CheckpointStats(
                name=name,
                nodes=len(values),
                min_mib=min(values),
                max_mib=max(values),
                avg_mib=total / len(values),
                total_mib=total,
                percent_of_available=total / available_mib * 100,
            )
        )
    return tuple(checkpoints)
