import errno
import os
import queue
import re
import shlex
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latem import autoarpd
from latem.autoarpd import (
    MockSolicitTransport,
    NeighborEntry,
    NUD_REACHABLE,
    NetlinkSolicitTransport,
    Solicitation,
    emit_neigh_sysctls,
    pack_neighbor_update,
    parse_solicitations,
    resolve,
    serve,
)
from latem.errors import ServeError
from latem.link_layer import mac_for_ip, neigh_settings

from conftest import OverflowOnceTransport, pack_solicitation

WAIT_S = 10

ip_strategy = st.tuples(*([st.integers(0, 255)] * 4)).map(lambda t: ".".join(map(str, t)))


class TestResolve:
    def test_vector(self):
        entry = resolve("10.0.0.7")
        assert entry == NeighborEntry("10.0.0.7", "02:42:0a:00:00:07")

    def test_zero_address(self):
        assert resolve("0.0.0.0").mac == "02:42:00:00:00:00"

    def test_idempotent(self):
        assert resolve("192.168.1.9") == resolve("192.168.1.9")

    @given(ip_strategy)
    def test_never_stale(self, ip):
        raw = pack_neighbor_update(resolve(ip), ifindex=2)
        assert struct.unpack_from("=BBHiHBB", raw, 16)[4] == NUD_REACHABLE

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

    def test_transport_failure_is_fatal(self):
        class BrokenTransport:
            def receive(self):
                raise OSError("socket gone")

            def reply(self, solicitation, entry):
                pass

        with pytest.raises(ServeError):
            serve(BrokenTransport(), stop_signal=threading.Event())

    def test_enobufs_burst_is_counted_and_serving_goes_on(self, caplog):
        stop = threading.Event()
        pending = [Solicitation(f"10.0.0.{i}", ifindex=2) for i in (1, 2, 3)]
        inner = MockSolicitTransport(pending=list(pending), stop_signal=stop)
        stats = serve(OverflowOnceTransport(inner, at=2), stop_signal=stop)
        assert (stats.received, stats.replied, stats.overflows) == (3, 3, 1)
        assert [s for s, _ in inner.replies] == pending
        assert "overflowed" in caplog.text

    def test_other_receive_errors_stay_fatal(self):
        class BadSocketTransport:
            def receive(self):
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))

            def reply(self, solicitation, entry):
                pass

        with pytest.raises(ServeError, match="transport receive failed"):
            serve(BadSocketTransport(), stop_signal=threading.Event())

    def test_a_failed_reply_is_fatal(self):
        class RefusingTransport(MockSolicitTransport):
            def reply(self, solicitation, entry):
                raise OSError(errno.EPERM, os.strerror(errno.EPERM))

        transport = RefusingTransport(pending=[Solicitation("10.0.0.1", ifindex=2)])
        with pytest.raises(ServeError, match=r"^transport reply failed: \[Errno 1\] "):
            serve(transport, stop_signal=threading.Event())

    def test_an_interrupt_ends_serving_with_the_counts(self):
        class Interrupt:  # the drained transport raises what SIGINT raises in a blocking read
            def set(self):
                raise KeyboardInterrupt

        pending = [Solicitation("10.0.0.1", 2)] * 2
        transport = MockSolicitTransport(pending=pending, stop_signal=Interrupt())
        try:
            stats = serve(transport)
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped serve")
        assert (stats.received, stats.replied, stats.overflows) == (2, 2, 0)

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

    def test_interface_name_in_keys(self):
        script = emit_neigh_sysctls("enp0s3")
        assert all("net.ipv4.neigh.enp0s3." in l for l in script)

    def test_empty_interface_rejected(self):
        with pytest.raises(ValueError):
            emit_neigh_sysctls("")

    def test_each_setting_is_one_quoted_argument(self):
        script = emit_neigh_sysctls("a'b")
        assert [shlex.split(line) for line in script] == [
            ["sysctl", "-w", f"{key} = {value}"] for key, value in neigh_settings("a'b")
        ]


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
        entry = resolve("10.0.0.7")
        raw = pack_neighbor_update(entry, ifindex=9, seq=1)
        length, msg_type, flags, seq, _pid = struct.unpack_from("=IHHII", raw, 0)
        assert length == len(raw)
        assert msg_type == 28  # RTM_NEWNEIGH
        assert flags & 0x0001 and flags & 0x0400 and flags & 0x0100
        family, _, _, ifindex, state, _, _ = struct.unpack_from("=BBHiHBB", raw, 16)
        assert ifindex == 9
        assert state == NUD_REACHABLE

    def test_update_attributes(self):
        entry = resolve("172.17.0.2")
        raw = pack_neighbor_update(entry, ifindex=1)
        assert bytes([172, 17, 0, 2]) in raw
        assert bytes([0x02, 0x42, 0xAC, 0x11, 0x00, 0x02]) in raw


@pytest.fixture
def netlink(monkeypatch):
    """A NetlinkSolicitTransport over a datagram socket pair, and the pair's kernel end."""
    kernel, daemon = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
    for end in (kernel, daemon):
        end.settimeout(WAIT_S)  # a read that would hang fails instead

    class FakeNetlinkSocket:
        def __init__(self, *args):
            pass

        def bind(self, address):
            pass

        def recv(self, size):
            return daemon.recv(size)

        def send(self, data):
            return daemon.send(data)

        def close(self):
            daemon.close()

    monkeypatch.setattr(autoarpd.socket, "socket", FakeNetlinkSocket)
    transport = NetlinkSolicitTransport()
    yield transport, kernel
    transport.close()
    kernel.close()


class TestNetlinkTransport:
    def test_one_buffer_comes_back_in_order(self, netlink):
        transport, kernel = netlink
        ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        kernel.send(b"".join(pack_solicitation(ip, i) for i, ip in enumerate(ips, 2)))
        got = [transport.receive() for _ in ips]
        assert got == [Solicitation(ip, i) for i, ip in enumerate(ips, 2)]
        # A read that holds no RTM_GETNEIGH message is skipped, not returned.
        kernel.send(pack_neighbor_update(resolve("10.0.0.9"), ifindex=2))
        kernel.send(pack_solicitation("10.0.0.4", 5))
        assert transport.receive() == Solicitation("10.0.0.4", 5)

    def test_each_reply_is_one_update_with_the_next_sequence_number(self, netlink):
        transport, kernel = netlink
        first, second = Solicitation("10.0.0.1", 2), Solicitation("10.0.0.2", 3)
        transport.reply(first, resolve(first.ip))
        transport.reply(second, resolve(second.ip))
        assert [kernel.recv(65536) for _ in range(2)] == [
            pack_neighbor_update(resolve("10.0.0.1"), 2, seq=1),
            pack_neighbor_update(resolve("10.0.0.2"), 3, seq=2),
        ]


# `latem autoarpd` with `socket.socket` replaced, as in the fixture above, by
# a stand-in over a socket pair whose daemon end is inherited as fd argv[1].
# It writes "recv" to stderr each time it is about to block on that end.
DAEMON = """
import socket, sys
from latem import autoarpd
from latem.cli import main

daemon = socket.socket(fileno=int(sys.argv[1]))

class FakeNetlinkSocket:
    def __init__(self, *args):
        pass

    def bind(self, address):
        pass

    def recv(self, size):
        print("recv", file=sys.stderr, flush=True)
        return daemon.recv(size)

    def send(self, data):
        return daemon.send(data)

    def close(self):
        daemon.close()

autoarpd.socket.socket = FakeNetlinkSocket
sys.exit(main(["autoarpd"]))
"""


class Daemon:
    """One daemon process and the kernel end of its socket pair."""

    def __init__(self):
        self.kernel, daemon = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
        self.kernel.settimeout(WAIT_S)
        env = dict(os.environ, PYTHONPATH=str(Path(autoarpd.__file__).parents[1]))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", DAEMON, str(daemon.fileno())], pass_fds=[daemon.fileno()],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        daemon.close()
        self.reads: queue.Queue[str] = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.reads.put(line.strip())

    def wait_reads(self, count: int) -> None:
        """Wait until the daemon has begun `count` socket reads in all."""
        for _ in range(count):
            assert self.reads.get(timeout=WAIT_S) == "recv"

    def voluntary_switches(self) -> int:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"^voluntary_ctxt_switches:\s+(\d+)$", status, re.M).group(1))

    def terminate(self) -> tuple[int, float, str]:
        """SIGTERM; the exit code, the seconds to exit and what it printed."""
        sent = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        rc = self.proc.wait(timeout=WAIT_S)
        return rc, time.monotonic() - sent, self.proc.stdout.read()

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=WAIT_S)
        self.reader.join(timeout=WAIT_S)
        self.proc.stdout.close()
        self.proc.stderr.close()
        self.kernel.close()


@pytest.fixture
def daemon():
    d = Daemon()
    yield d
    d.cleanup()


class TestDaemonProcess:
    def test_an_idle_daemon_sleeps_until_sigterm(self, daemon):
        daemon.wait_reads(1)
        before = daemon.voluntary_switches()
        time.sleep(1)
        assert daemon.voluntary_switches() - before <= 1
        rc, seconds, out = daemon.terminate()
        assert (rc, out) == (0, "received=0 replied=0 overflows=0\n")
        assert seconds < 1

    def test_sigterm_after_a_burst_prints_every_reply(self, daemon):
        ips = [f"10.0.{i // 250}.{i % 250 + 1}" for i in range(1000)]
        replies = []
        for start in range(0, len(ips), 50):  # one datagram of 50, then its replies
            daemon.kernel.send(b"".join(pack_solicitation(ip, 2) for ip in ips[start:start + 50]))
            replies += [daemon.kernel.recv(65536) for _ in range(50)]
        assert replies == [
            pack_neighbor_update(resolve(ip), 2, seq=i) for i, ip in enumerate(ips, 1)
        ]
        daemon.wait_reads(len(ips) // 50 + 1)  # every datagram, then the idle wait
        rc, _, out = daemon.terminate()
        assert (rc, out) == (0, "received=1000 replied=1000 overflows=0\n")
