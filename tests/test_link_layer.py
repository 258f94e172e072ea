import pytest
from hypothesis import given
from hypothesis import strategies as st

from latem.errors import ConfigError
from latem.link_layer import (
    check_bridge_capacity,
    emit_fdb_script,
    mac_for_ip,
)

from conftest import GOLDENS, text_of

ip_octets = st.tuples(*([st.integers(0, 255)] * 4))


def test_default_pattern_vectors():
    assert mac_for_ip("172.17.0.2") == "02:42:ac:11:00:02"
    assert mac_for_ip("0.0.0.0") == "02:42:00:00:00:00"
    assert mac_for_ip("255.255.255.255") == "02:42:ff:ff:ff:ff"


@given(ip_octets, ip_octets)
def test_injective_for_fixed_prefix(a, b):
    ip_a = ".".join(map(str, a))
    ip_b = ".".join(map(str, b))
    if ip_a != ip_b:
        assert mac_for_ip(ip_a) != mac_for_ip(ip_b)
    else:
        assert mac_for_ip(ip_a) == mac_for_ip(ip_b)


@given(ip_octets)
def test_cached_mac_is_the_derived_one(octets):
    ip = ".".join(map(str, octets))
    assert mac_for_ip(ip) == mac_for_ip(ip) == mac_for_ip.__wrapped__(ip)


def test_mac_cache_is_bounded_and_keeps_no_error():
    assert mac_for_ip.cache_info().maxsize is not None
    size = mac_for_ip.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError):
            mac_for_ip("10.0.0.256")
    assert mac_for_ip.cache_info().currsize == size


def test_fdb_single_line():
    script = emit_fdb_script([("10.0.0.1", "vetha1")])
    assert script.lines == ("bridge fdb add 02:42:0a:00:00:01 dev vetha1 master static",)


def test_fdb_empty():
    assert emit_fdb_script([]).lines == ()


def test_fdb_one_line_per_node_in_order():
    nodes = [(f"10.0.{i // 250}.{i % 250 + 1}", f"veth{i}") for i in range(3000)]
    script = emit_fdb_script(nodes)
    assert len(script) == 3000
    for (ip, veth), line in zip(nodes, script):
        assert f" dev {veth} " in line
        assert line.startswith(f"bridge fdb add {mac_for_ip(ip)} ")


def test_fdb_duplicate_veth_rejected():
    with pytest.raises(ConfigError):
        emit_fdb_script([("10.0.0.1", "veth0"), ("10.0.0.2", "veth0")])


def test_fdb_duplicate_address_rejected():
    # one MAC on two ports: the bridge would forward to one node only
    with pytest.raises(ConfigError, match=r"^duplicate address '10\.0\.0\.1'$"):
        emit_fdb_script([("10.0.0.1", "veth0"), ("10.0.0.1", "veth1")])


def test_fdb_golden():
    nodes = [(f"10.0.0.{i}", f"vetha{i}") for i in range(1, 6)]
    golden = (GOLDENS / "fdb_5node.txt").read_text()
    assert text_of(emit_fdb_script(nodes)) == golden


class TestBridgeCapacity:
    def test_at_limit_ok(self):
        diag = check_bridge_capacity(1024)
        assert diag.ok
        assert "BR_PORT_BITS>=" not in diag.message

    def test_one_over_limit(self):
        diag = check_bridge_capacity(1025)
        assert not diag.ok
        assert "BR_PORT_BITS>=11 " in diag.message
        assert "BR_PORT_BITS" in diag.message

    def test_thousands(self):
        diag = check_bridge_capacity(3500)
        assert "BR_PORT_BITS>=12 " in diag.message
        assert "17" in diag.message

    def test_zero_ports(self):
        assert check_bridge_capacity(0).ok

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            check_bridge_capacity(-1)
