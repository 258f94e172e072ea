"""Neighbor resolution without ARP traffic.

When an interface is configured with mcast_solicit=0 and app_solicit=1, the
kernel stops broadcasting ARP requests and instead hands each unresolved
neighbor solicitation to user space over a netlink channel. This daemon
answers every solicitation by computing the MAC from the IP (the addresses
follow a fixed prefix-plus-IP-octets pattern) and injecting the entry as
REACHABLE, so the kernel trusts and uses it with no reachability
confirmation. No cache or database is kept: computation replaces storage,
and no network query is ever performed.

Entries are injected REACHABLE, never STALE: a STALE entry would make the
kernel run a unicast reachability confirmation before first use, which is
exactly the traffic this daemon exists to remove. A very large
base_reachable_time_ms keeps entries from decaying to STALE mid-experiment.

The transport is pluggable: `NetlinkSolicitTransport` speaks the kernel
protocol (requires root and is exercised only in apply mode), while
`MockSolicitTransport` drives the same serve loop in tests.
"""

from __future__ import annotations

import ipaddress
import logging
import select
import socket
import struct
import threading
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol

from .errors import ServeError
from .link_layer import MacPattern, mac_for_ip
from .script import CommandScript

log = logging.getLogger(__name__)

DEFAULT_REACHABLE_MS = 72_000_000


class NudState(Enum):
    """Neighbor Unreachability Detection states this daemon deals in."""

    REACHABLE = 0x02


@dataclass(frozen=True)
class NeighborEntry:
    ip: str
    mac: str
    nud: NudState = NudState.REACHABLE


@dataclass(frozen=True)
class Solicitation:
    """A kernel request to resolve `ip`, raised on interface `ifindex`."""

    ip: str
    ifindex: int


class SolicitTransport(Protocol):
    def receive(self, timeout: float) -> Solicitation | None:
        """Next pending solicitation, or None if none arrived in time."""

    def reply(self, solicitation: Solicitation, entry: NeighborEntry) -> None:
        """Deliver the resolved entry for the solicited address."""


def resolve(ip: str, pattern: MacPattern = MacPattern()) -> NeighborEntry:
    """Compute the neighbor entry for an address; stateless and deterministic."""
    return NeighborEntry(ip=ip, mac=mac_for_ip(ip, pattern), nud=NudState.REACHABLE)


@dataclass(frozen=True)
class ServeStats:
    received: int
    replied: int


def serve(
    transport: SolicitTransport,
    pattern: MacPattern = MacPattern(),
    stop_signal: threading.Event | None = None,
    poll_interval: float = 0.2,
) -> ServeStats:
    """Answer solicitations until the stop signal is set.

    Exactly one reply per solicitation, for the solicited address. Transport
    failures are fatal after logging.
    """
    stop = stop_signal if stop_signal is not None else threading.Event()
    received = replied = 0
    while not stop.is_set():
        try:
            solicitation = transport.receive(timeout=poll_interval)
        except Exception as exc:
            log.error("transport receive failed: %s", exc)
            raise ServeError(f"transport receive failed: {exc}") from exc
        if solicitation is None:
            continue
        received += 1
        entry = resolve(solicitation.ip, pattern)
        try:
            transport.reply(solicitation, entry)
        except Exception as exc:
            log.error("transport reply failed: %s", exc)
            raise ServeError(f"transport reply failed: {exc}") from exc
        replied += 1
    return ServeStats(received=received, replied=replied)


def emit_neigh_sysctls(
    iface: str, reachable_ms: int = DEFAULT_REACHABLE_MS
) -> CommandScript:
    """Per-interface settings that reroute solicitations to the daemon.

    Values are quoted so the `key = value` triple reaches sysctl as one
    argument; the syntax matches sysctl.conf and procps accepts it on the
    command line.
    """
    if not iface or iface != iface.strip():
        raise ValueError(f"invalid interface name {iface!r}")
    prefix = f"net.ipv4.neigh.{iface}"
    return CommandScript(
        lines=(
            f"sysctl -w '{prefix}.mcast_solicit = 0'",
            f"sysctl -w '{prefix}.app_solicit = 1'",
            f"sysctl -w '{prefix}.base_reachable_time_ms = {reachable_ms}'",
        ),
    )


@dataclass
class MockSolicitTransport:
    """In-memory transport: feeds queued solicitations, records replies.

    When the queue drains it sets `stop_signal` (if given), so a serve loop
    over a finite workload terminates by itself.
    """

    pending: list[Solicitation] = field(default_factory=list)
    stop_signal: threading.Event | None = None
    replies: list[tuple[Solicitation, NeighborEntry]] = field(default_factory=list)
    _cursor: int = field(default=0, repr=False)

    def receive(self, timeout: float) -> Solicitation | None:
        if self._cursor < len(self.pending):
            self._cursor += 1
            return self.pending[self._cursor - 1]
        if self.stop_signal is not None:
            self.stop_signal.set()
        return None

    def reply(self, solicitation: Solicitation, entry: NeighborEntry) -> None:
        self.replies.append((solicitation, entry))


# --- netlink wire format ----------------------------------------------------
#
# The kernel channel is rtnetlink: solicitations arrive as RTM_GETNEIGH
# multicasts on the neighbor group, replies are RTM_NEWNEIGH requests
# carrying destination and link-layer address attributes.

NETLINK_ROUTE = 0
RTM_NEWNEIGH = 28
RTM_GETNEIGH = 30
NLM_F_REQUEST = 0x0001
NLM_F_CREATE = 0x0400
NLM_F_REPLACE = 0x0100
NDA_DST = 1
NDA_LLADDR = 2
RTNLGRP_NEIGH = 3
AF_INET = socket.AF_INET

_NLMSGHDR = struct.Struct("=IHHII")  # length, type, flags, seq, pid
_NDMSG = struct.Struct("=BBHiHBB")  # family, pad1, pad2, ifindex, state, flags, type
_RTATTR = struct.Struct("=HH")  # length, type


def _attr(rta_type: int, payload: bytes) -> bytes:
    header = _RTATTR.pack(_RTATTR.size + len(payload), rta_type)
    pad = (4 - (len(payload) % 4)) % 4
    return header + payload + b"\x00" * pad


def _parse_attrs(data: bytes) -> dict[int, bytes]:
    attrs: dict[int, bytes] = {}
    offset = 0
    while offset + _RTATTR.size <= len(data):
        length, rta_type = _RTATTR.unpack_from(data, offset)
        if length < _RTATTR.size or offset + length > len(data):
            break
        attrs[rta_type] = data[offset + _RTATTR.size : offset + length]
        offset += (length + 3) & ~3
    return attrs


def pack_neighbor_update(
    entry: NeighborEntry, ifindex: int, seq: int = 0, pid: int = 0
) -> bytes:
    """RTM_NEWNEIGH request installing `entry` on interface `ifindex`."""
    payload = _NDMSG.pack(AF_INET, 0, 0, ifindex, entry.nud.value, 0, 0)
    payload += _attr(NDA_DST, ipaddress.IPv4Address(entry.ip).packed)
    payload += _attr(NDA_LLADDR, bytes(int(p, 16) for p in entry.mac.split(":")))
    flags = NLM_F_REQUEST | NLM_F_CREATE | NLM_F_REPLACE
    header = _NLMSGHDR.pack(_NLMSGHDR.size + len(payload), RTM_NEWNEIGH, flags, seq, pid)
    return header + payload


def pack_solicitation(ip: str, ifindex: int, seq: int = 0) -> bytes:
    """RTM_GETNEIGH message as the kernel multicasts it; used by tests."""
    payload = _NDMSG.pack(AF_INET, 0, 0, ifindex, 0, 0, 0)
    payload += _attr(NDA_DST, ipaddress.IPv4Address(ip).packed)
    header = _NLMSGHDR.pack(
        _NLMSGHDR.size + len(payload), RTM_GETNEIGH, NLM_F_REQUEST, seq, 0
    )
    return header + payload


def parse_solicitations(buffer: bytes) -> list[Solicitation]:
    """Extract IPv4 solicitations from a raw netlink receive buffer."""
    out: list[Solicitation] = []
    offset = 0
    while offset + _NLMSGHDR.size <= len(buffer):
        length, msg_type, _flags, _seq, _pid = _NLMSGHDR.unpack_from(buffer, offset)
        if length < _NLMSGHDR.size or offset + length > len(buffer):
            break
        if msg_type == RTM_GETNEIGH and length >= _NLMSGHDR.size + _NDMSG.size:
            body = buffer[offset + _NLMSGHDR.size : offset + length]
            family, _, _, ifindex, _, _, _ = _NDMSG.unpack_from(body, 0)
            if family == AF_INET:
                attrs = _parse_attrs(body[_NDMSG.size :])
                dst = attrs.get(NDA_DST)
                if dst is not None and len(dst) == 4:
                    out.append(
                        Solicitation(ip=str(ipaddress.IPv4Address(dst)), ifindex=ifindex)
                    )
        offset += (length + 3) & ~3
    return out


class NetlinkSolicitTransport:
    """Kernel neighbor channel; requires CAP_NET_ADMIN (apply mode only)."""

    def __init__(self) -> None:
        self._sock = socket.socket(
            socket.AF_NETLINK, socket.SOCK_RAW, NETLINK_ROUTE  # type: ignore[attr-defined]
        )
        self._sock.bind((0, 1 << (RTNLGRP_NEIGH - 1)))
        self._seq = 0
        self._backlog: deque[Solicitation] = deque()

    def receive(self, timeout: float) -> Solicitation | None:
        if self._backlog:
            return self._backlog.popleft()
        ready, _, _ = select.select([self._sock], [], [], timeout)
        if not ready:
            return None
        solicitations = parse_solicitations(self._sock.recv(65536))
        if not solicitations:
            return None
        first, *rest = solicitations
        self._backlog.extend(rest)
        return first

    def reply(self, solicitation: Solicitation, entry: NeighborEntry) -> None:
        self._seq += 1
        self._sock.send(pack_neighbor_update(entry, solicitation.ifindex, seq=self._seq))

    def close(self) -> None:
        self._sock.close()
