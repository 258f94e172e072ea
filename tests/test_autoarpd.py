import socket
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latem import autoarpd
from latem.autoarpd import (
    MockSolicitTransport,
    NeighborEntry,
    NetlinkSolicitTransport,
    NudState,
    Solicitation,
    emit_neigh_sysctls,
    pack_neighbor_update,
    pack_solicitation,
    parse_solicitations,
    resolve,
    serve,
)
from latem.errors import ServeError
from latem.link_layer import MacPattern, mac_for_ip

ip_strategy = st.tuples(*([st.integers(0, 255)] * 4)).map(lambda t: ".".join(map(str, t)))


class TestResolve:
    def test_vector(self):
        entry = resolve("10.0.0.7")
        assert entry == NeighborEntry("10.0.0.7", "02:42:0a:00:00:07", NudState.REACHABLE)

    def test_zero_address(self):
        assert resolve("0.0.0.0").mac == "02:42:00:00:00:00"

    def test_idempotent(self):
        assert resolve("192.168.1.9") == resolve("192.168.1.9")

    @given(ip_strategy)
    def test_never_stale(self, ip):
        assert resolve(ip).nud is NudState.REACHABLE

    @given(ip_strategy)
    def test_mac_matches_pattern(self, ip):
        assert resolve(ip).mac == mac_for_ip(ip)


class TestServe:
    def test_three_solicitations_three_replies(self):
        stop = threading.Event()
        transport = MockSolicitTransport(
            pending=[Solicitation(f"10.0.0.{i}", ifindex=2) for i in (1, 2, 3)],
            stop_signal=stop,
        )
        stats = serve(transport, stop_signal=stop)
        assert (stats.received, stats.replied) == (3, 3)
        assert [e.ip for _, e in transport.replies] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_zero_solicitations(self):
        stop = threading.Event()
        transport = MockSolicitTransport(pending=[], stop_signal=stop)
        stats = serve(transport, stop_signal=stop)
        assert (stats.received, stats.replied) == (0, 0)

    def test_reply_ip_equals_solicitation_ip(self):
        stop = threading.Event()
        transport = MockSolicitTransport(
            pending=[Solicitation("172.17.3.4", ifindex=5)], stop_signal=stop
        )
        serve(transport, stop_signal=stop)
        ((solicitation, entry),) = transport.replies
        assert entry.ip == solicitation.ip

    def test_custom_pattern(self):
        stop = threading.Event()
        transport = MockSolicitTransport(
            pending=[Solicitation("10.1.2.3", ifindex=2)], stop_signal=stop
        )
        serve(transport, pattern=MacPattern(prefix=(0x06, 0x00)), stop_signal=stop)
        assert transport.replies[0][1].mac == "06:00:0a:01:02:03"

    def test_transport_failure_is_fatal(self):
        class BrokenTransport:
            def receive(self, timeout):
                raise OSError("socket gone")

            def reply(self, solicitation, entry):
                pass

        with pytest.raises(ServeError):
            serve(BrokenTransport(), stop_signal=threading.Event())

    def test_exactly_one_reply_per_solicitation(self):
        stop = threading.Event()
        pending = [Solicitation(f"10.0.{i // 250}.{i % 250 + 1}", 2) for i in range(500)]
        transport = MockSolicitTransport(pending=list(pending), stop_signal=stop)
        stats = serve(transport, stop_signal=stop)
        assert stats.received == stats.replied == 500
        assert len(transport.replies) == 500


class TestNeighSysctls:
    def test_lines_for_eth0(self):
        script = emit_neigh_sysctls("eth0")
        assert len(script) == 3
        assert "net.ipv4.neigh.eth0.mcast_solicit = 0" in script.lines[0]
        assert "app_solicit = 1" in script.lines[1]
        assert "base_reachable_time_ms = 72000000" in script.lines[2]

    def test_custom_reachable_time(self):
        script = emit_neigh_sysctls("eth0", reachable_ms=1000)
        assert "base_reachable_time_ms = 1000" in script.lines[2]

    def test_interface_name_in_keys(self):
        script = emit_neigh_sysctls("enp0s3")
        assert all("net.ipv4.neigh.enp0s3." in l for l in script)

    def test_empty_interface_rejected(self):
        with pytest.raises(ValueError):
            emit_neigh_sysctls("")


class TestNetlinkCodec:
    def test_solicitation_round_trip(self):
        raw = pack_solicitation("10.9.8.7", ifindex=42, seq=3)
        parsed = parse_solicitations(raw)
        assert parsed == [Solicitation(ip="10.9.8.7", ifindex=42)]

    def test_multiple_messages_in_buffer(self):
        raw = pack_solicitation("10.0.0.1", 2) + pack_solicitation("10.0.0.2", 3)
        assert [s.ip for s in parse_solicitations(raw)] == ["10.0.0.1", "10.0.0.2"]

    def test_garbage_ignored(self):
        assert parse_solicitations(b"\x00\x01\x02") == []

    def test_truncated_message_ignored(self):
        raw = pack_solicitation("10.0.0.1", 2)
        assert parse_solicitations(raw[: len(raw) - 4]) == []

    def test_update_carries_reachable_state(self):
        import struct

        entry = resolve("10.0.0.7")
        raw = pack_neighbor_update(entry, ifindex=9, seq=1)
        length, msg_type, flags, seq, _pid = struct.unpack_from("=IHHII", raw, 0)
        assert length == len(raw)
        assert msg_type == 28  # RTM_NEWNEIGH
        assert flags & 0x0001 and flags & 0x0400 and flags & 0x0100
        family, _, _, ifindex, state, _, _ = struct.unpack_from("=BBHiHBB", raw, 16)
        assert ifindex == 9
        assert state == NudState.REACHABLE.value

    def test_update_attributes(self):
        entry = resolve("172.17.0.2")
        raw = pack_neighbor_update(entry, ifindex=1)
        assert bytes([172, 17, 0, 2]) in raw
        assert bytes([0x02, 0x42, 0xAC, 0x11, 0x00, 0x02]) in raw


class TestNetlinkTransport:
    def test_one_buffer_comes_back_in_order(self, monkeypatch):
        # A datagram socket pair stands in for the netlink socket.
        kernel, daemon = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)

        class FakeNetlinkSocket:
            def __init__(self, *args):
                pass

            def bind(self, address):
                pass

            def fileno(self):
                return daemon.fileno()

            def recv(self, size):
                return daemon.recv(size)

            def close(self):
                daemon.close()

        monkeypatch.setattr(autoarpd.socket, "socket", FakeNetlinkSocket)
        transport = NetlinkSolicitTransport()
        try:
            ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
            kernel.send(b"".join(pack_solicitation(ip, i) for i, ip in enumerate(ips, 2)))
            got = [transport.receive(timeout=1.0) for _ in ips]
            assert got == [Solicitation(ip, i) for i, ip in enumerate(ips, 2)]
            assert transport.receive(timeout=0.0) is None
        finally:
            transport.close()
            kernel.close()
