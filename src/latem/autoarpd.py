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

import contextlib
import errno
import ipaddress
import logging
import shlex
import socket
import struct
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Protocol

from .errors import ServeError
from .link_layer import mac_for_ip, neigh_settings
from .script import CommandScript

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NeighborEntry:
    ip: str
    mac: str


@dataclass(frozen=True)
class Solicitation:
    """A kernel request to resolve `ip`, raised on interface `ifindex`."""

    ip: str
    ifindex: int


class SolicitTransport(Protocol):
    def receive(self) -> Solicitation | None:
        """Next solicitation, waiting for one; None when there is none to wait for."""

    def reply(self, solicitation: Solicitation, entry: NeighborEntry) -> None:
        """Deliver the resolved entry for the solicited address."""


def resolve(ip: str) -> NeighborEntry:
    """Compute the neighbor entry for an address; stateless and deterministic."""
    return NeighborEntry(ip=ip, mac=mac_for_ip(ip))


@dataclass(frozen=True)
class ServeStats:
    received: int
    replied: int
    overflows: int  # receives that failed with ENOBUFS: the kernel dropped solicitations


def serve(
    transport: SolicitTransport, stop_signal: threading.Event | None = None
) -> ServeStats:
    """Answer solicitations until the stop signal is set or an interrupt lands.

    Exactly one reply per solicitation, for the solicited address. A receive
    that fails with ENOBUFS (the socket's buffer overflowed during a burst,
    and the kernel dropped solicitations) is counted and logged, and serving
    goes on; every other transport failure is fatal after logging. A
    KeyboardInterrupt (SIGINT, or SIGTERM routed to
    `signal.default_int_handler`) ends serving with the counts so far; a
    solicitation in flight when it lands may go unanswered or uncounted.
    """
    received = replied = overflows = 0
    with contextlib.suppress(KeyboardInterrupt):
        while stop_signal is None or not stop_signal.is_set():
            try:
                solicitation = transport.receive()
            except Exception as exc:
                if isinstance(exc, OSError) and exc.errno == errno.ENOBUFS:
                    overflows += 1
                    log.warning("receive buffer overflowed, solicitations dropped (%d so far)",
                                overflows)
                    continue
                log.error("transport receive failed: %s", exc)
                raise ServeError(f"transport receive failed: {exc}") from exc
            if solicitation is None:
                continue
            received += 1
            entry = resolve(solicitation.ip)
            try:
                transport.reply(solicitation, entry)
            except Exception as exc:
                log.error("transport reply failed: %s", exc)
                raise ServeError(f"transport reply failed: {exc}") from exc
            replied += 1
    return ServeStats(received=received, replied=replied, overflows=overflows)


def emit_neigh_sysctls(iface: str) -> CommandScript:
    """`neigh_settings` as `sysctl -w` lines (`latem autoarpd --emit-sysctls`).

    Each `key = value` triple is quoted so it reaches sysctl as one
    argument; the syntax matches sysctl.conf and procps accepts it on the
    command line.
    """
    return CommandScript(
        lines=tuple(f"sysctl -w {shlex.quote(f'{key} = {value}')}"
                    for key, value in neigh_settings(iface)),
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

    def receive(self) -> Solicitation | None:
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
NUD_REACHABLE = 0x02  # the state of every entry the daemon injects
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


def pack_neighbor_update(entry: NeighborEntry, ifindex: int, seq: int = 0) -> bytes:
    """RTM_NEWNEIGH request installing `entry` REACHABLE on interface `ifindex`."""
    payload = _NDMSG.pack(AF_INET, 0, 0, ifindex, NUD_REACHABLE, 0, 0)
    payload += _attr(NDA_DST, ipaddress.IPv4Address(entry.ip).packed)
    payload += _attr(NDA_LLADDR, bytes(int(p, 16) for p in entry.mac.split(":")))
    flags = NLM_F_REQUEST | NLM_F_CREATE | NLM_F_REPLACE
    header = _NLMSGHDR.pack(_NLMSGHDR.size + len(payload), RTM_NEWNEIGH, flags, seq, 0)
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

    def receive(self) -> Solicitation:
        """Blocks until the socket yields a solicitation; other messages are skipped."""
        while not self._backlog:
            self._backlog.extend(parse_solicitations(self._sock.recv(65536)))
        return self._backlog.popleft()

    def reply(self, solicitation: Solicitation, entry: NeighborEntry) -> None:
        self._seq += 1
        self._sock.send(pack_neighbor_update(entry, solicitation.ifindex, seq=self._seq))

    def close(self) -> None:
        self._sock.close()
