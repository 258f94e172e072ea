"""MAC derivation, static forwarding-database planning, bridge capacity checks.

Every node's MAC is a fixed two-octet prefix followed by its four IPv4
octets, so layer-two addresses can be computed from layer-three ones without
any resolution protocol. Static bridge FDB entries computed the same way
stop the learning-phase broadcast storm when thousands of containers boot.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class MacPattern:
    """MAC layout: fixed prefix octets, then the four IPv4 octets appended."""

    prefix: tuple[int, ...] = (0x02, 0x42)

    def __post_init__(self) -> None:
        if len(self.prefix) + 4 != 6:
            raise ConfigError(
                f"prefix of {len(self.prefix)} octets plus 4 IP octets must total 6"
            )
        for octet in self.prefix:
            if not 0 <= octet <= 0xFF:
                raise ConfigError(f"prefix octet {octet:#x} out of range")
        if not self.prefix[0] & 0x02:
            raise ConfigError(
                f"first octet {self.prefix[0]:#04x} must have the "
                "locally-administered bit (0x02) set"
            )

    @classmethod
    def parse(cls, text: str) -> "MacPattern":
        """Parse a colon-separated prefix such as '02:42'."""
        return cls(prefix=tuple(int(part, 16) for part in text.split(":")))


def mac_for_ip(ip: str, pattern: MacPattern = MacPattern()) -> str:
    """Derive the MAC for an IPv4 address, lowercase colon-separated."""
    octets = ipaddress.IPv4Address(ip).packed
    return ":".join(f"{o:02x}" for o in (*pattern.prefix, *octets))


def emit_fdb_script(
    nodes: Sequence[tuple[str, str]], pattern: MacPattern = MacPattern()
) -> CommandScript:
    """One static FDB insertion per (ip, veth) node, in input order.

    MACs follow the pattern by construction; an interface may appear once.
    """
    seen: set[str] = set()
    lines = []
    for ip, veth in nodes:
        if veth in seen:
            raise ConfigError(f"duplicate interface name {veth!r}")
        seen.add(veth)
        lines.append(f"bridge fdb add {mac_for_ip(ip, pattern)} dev {veth} master static")
    return CommandScript(lines=tuple(lines))


@dataclass(frozen=True)
class Diagnostic:
    ok: bool
    suggested_bits: int | None
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
            suggested_bits=None,
            message=(
                f"{port_count} bridge ports fit the default limit of "
                f"{DEFAULT_BRIDGE_PORT_LIMIT} (BR_PORT_BITS={DEFAULT_BRIDGE_PORT_BITS})"
            ),
        )
    bits = math.ceil(math.log2(port_count))
    return Diagnostic(
        ok=False,
        suggested_bits=bits,
        message=(
            f"{port_count} bridge ports exceed the default limit of "
            f"{DEFAULT_BRIDGE_PORT_LIMIT}: a kernel rebuilt with BR_PORT_BITS>={bits} "
            f"is required (BR_PORT_BITS={KNOWN_GOOD_PORT_BITS} is a field-tested "
            "choice for multi-thousand-port bridges)"
        ),
    )
