"""MAC derivation, neighbor sysctls, static forwarding-database planning,
bridge capacity checks.

Every node's MAC is a fixed two-octet prefix followed by its four IPv4
octets, so layer-two addresses can be computed from layer-three ones without
any resolution protocol. The neighbor sysctls hand each interface's
unresolved solicitations to the daemon that answers them from that rule.
Static bridge FDB entries computed the same way stop the learning-phase
broadcast storm when thousands of containers boot.
"""

from __future__ import annotations

import functools
import ipaddress
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError
from .script import CommandScript

# Default Linux bridge port capacity is 2**BR_PORT_BITS with BR_PORT_BITS=10.
DEFAULT_BRIDGE_PORT_BITS = 10
DEFAULT_BRIDGE_PORT_LIMIT = 1 << DEFAULT_BRIDGE_PORT_BITS
# Field-tested rebuild value for deployments in the thousands of ports.
KNOWN_GOOD_PORT_BITS = 17
# The two octets before the IPv4 octets of every MAC; 0x02 marks the
# address locally administered.
MAC_PREFIX = (0x02, 0x42)
REACHABLE_MS = 72_000_000  # base_reachable_time_ms: 20 hours


# Each address is parsed once per process, for up to 65,536 addresses.
@functools.lru_cache(maxsize=65_536)
def mac_for_ip(ip: str) -> str:
    """Derive the MAC for an IPv4 address, lowercase colon-separated."""
    octets = ipaddress.IPv4Address(ip).packed
    return ":".join(f"{o:02x}" for o in (*MAC_PREFIX, *octets))


def neigh_settings(iface: str) -> tuple[tuple[str, str], ...]:
    """The per-interface (key, value) sysctls that reroute solicitations to
    the neighbor daemon. `autoarpd.emit_neigh_sysctls` and the orchestrator's
    launch lines both render this one table."""
    if not iface or iface != iface.strip():
        raise ValueError(f"invalid interface name {iface!r}")
    prefix = f"net.ipv4.neigh.{iface}"
    return (
        (f"{prefix}.mcast_solicit", "0"),
        (f"{prefix}.app_solicit", "1"),
        (f"{prefix}.base_reachable_time_ms", str(REACHABLE_MS)),
    )


def emit_fdb_script(nodes: Sequence[tuple[str, str]]) -> CommandScript:
    """One static FDB insertion per (ip, veth) node, in input order.

    MACs are `mac_for_ip` of each address; an address and an interface appear once each.
    """
    seen: set[tuple[str, str]] = set()
    lines = []
    for ip, veth in nodes:
        for key in (("interface name", veth), ("address", ip)):
            if key in seen:
                raise ConfigError(f"duplicate {key[0]} {key[1]!r}")
            seen.add(key)
        lines.append(f"bridge fdb add {mac_for_ip(ip)} dev {veth} master static")
    return CommandScript(lines=tuple(lines))


@dataclass(frozen=True)
class Diagnostic:
    ok: bool
    message: str


def check_bridge_capacity(port_count: int) -> Diagnostic:
    """Advisory check against the default bridge port limit.

    The limit is compiled into the kernel (BR_PORT_BITS); this toolkit never
    patches or rebuilds kernels, it only reports the minimal bits needed.
    """
    if port_count < 0:
        raise ConfigError(f"port_count must be non-negative, got {port_count}")
    if port_count <= DEFAULT_BRIDGE_PORT_LIMIT:
        return Diagnostic(
            ok=True,
            message=(
                f"{port_count} bridge ports fit the default limit of "
                f"{DEFAULT_BRIDGE_PORT_LIMIT} (BR_PORT_BITS={DEFAULT_BRIDGE_PORT_BITS})"
            ),
        )
    bits = math.ceil(math.log2(port_count))
    return Diagnostic(
        ok=False,
        message=(
            f"{port_count} bridge ports exceed the default limit of "
            f"{DEFAULT_BRIDGE_PORT_LIMIT}: a kernel rebuilt with BR_PORT_BITS>={bits} "
            f"is required (BR_PORT_BITS={KNOWN_GOOD_PORT_BITS} is a field-tested "
            "choice for multi-thousand-port bridges)"
        ),
    )
