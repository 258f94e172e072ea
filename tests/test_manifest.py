from fractions import Fraction

import pytest

from latem.delay_model import allocate_ips
from latem.errors import ValidationError
from latem.manifest import (
    load_manifest,
    parse_fraction,
    parse_manifest,
    render_number,
)

from conftest import minimal_manifest_dict, phase, write_manifest


class TestParseFraction:
    def test_scalars(self):
        assert parse_fraction(2) == 2
        assert parse_fraction("0.80") == Fraction(4, 5)
        assert parse_fraction(0.5) == Fraction(1, 2)
        assert parse_fraction("0.54/750") == Fraction(54, 100) / 750

    def test_bad_input(self):
        with pytest.raises(ValidationError):
            parse_fraction("three")
        with pytest.raises(ValidationError):
            parse_fraction("1/0")

    def test_render_number(self):
        assert render_number(Fraction(24)) == "24"
        assert render_number(Fraction(1, 2)) == "0.5"
        assert render_number(Fraction(1, 3)).startswith("0.333")


class TestLoadManifest:
    def test_minimal_two_nodes_valid(self, tmp_path):
        path = write_manifest(tmp_path, minimal_manifest_dict())
        manifest = load_manifest(path)
        assert len(manifest.nodes) == 2
        assert phase(manifest, "start-proc").signal == "SIGUSR1"
        assert phase(manifest, "start-proc").stagger_ms == 500

    def test_duplicate_ip_names_both_nodes(self, tmp_path):
        data = minimal_manifest_dict()
        data["nodes"][1]["ip"] = data["nodes"][0]["ip"]
        path = write_manifest(tmp_path, data)
        with pytest.raises(ValidationError) as exc:
            load_manifest(path)
        message = str(exc.value)
        assert "node001" in message and "node002" in message
        assert (exc.value.path, exc.value.line) == ("nodes[1].ip", None)

    def test_duplicate_node_name(self, tmp_path):
        data = minimal_manifest_dict()
        data["nodes"][1]["name"] = "node001"
        with pytest.raises(ValidationError) as exc:
            load_manifest(write_manifest(tmp_path, data))
        assert "node001" in str(exc.value)

    def test_undeclared_phase_reference(self, tmp_path):
        data = minimal_manifest_dict()
        data["nodes"][0]["processes"][0]["start_phase"] = "warp-speed"
        with pytest.raises(ValidationError) as exc:
            load_manifest(write_manifest(tmp_path, data))
        assert "warp-speed" in str(exc.value)

    def test_signal_action_requires_signal(self):
        data = minimal_manifest_dict()
        del data["phases"][1]["signal"]
        with pytest.raises(ValidationError):
            parse_manifest(data)

    def test_signal_forbidden_on_launch(self):
        data = minimal_manifest_dict()
        data["phases"][0]["signal"] = "SIGUSR1"
        with pytest.raises(ValidationError):
            parse_manifest(data)

    def test_bad_ip(self):
        data = minimal_manifest_dict()
        data["nodes"][0]["ip"] = "10.0.0.999"
        with pytest.raises(ValidationError):
            parse_manifest(data)

    def test_duplicate_phase_names(self):
        data = minimal_manifest_dict()
        data["phases"].append(dict(data["phases"][1]))
        with pytest.raises(ValidationError):
            parse_manifest(data)

    def test_fraction_out_of_range(self):
        data = minimal_manifest_dict()
        data["resources"] = {
            "ram_cap_fraction": "1.5",
            "per_node_startup_fraction": "0.001",
            "per_node_steady_fraction": "0.0005",
        }
        with pytest.raises(ValidationError):
            parse_manifest(data)

    def test_unknown_action(self):
        data = minimal_manifest_dict()
        data["phases"][0]["action"] = "explode"
        with pytest.raises(ValidationError):
            parse_manifest(data)

    def test_unknown_timer_kind(self):
        data = minimal_manifest_dict()
        data["timers"] = {"t": {"value": 1, "kind": "sidereal"}}
        with pytest.raises(ValidationError):
            parse_manifest(data)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "name": "x",\n  oops\n}\n')
        with pytest.raises(ValidationError) as exc:
            load_manifest(path)
        assert exc.value.line == 3

    def test_network_parameter_checks(self):
        data = minimal_manifest_dict()
        data["networks"] = {"blocks": {"kind": "nws", "seed": 1}}
        with pytest.raises(ValidationError):
            parse_manifest(data)
        data["networks"] = {"blocks": {"kind": "random", "seed": 1}}
        with pytest.raises(ValidationError):
            parse_manifest(data)


def test_allocate_ips_skips_broadcast_octets():
    ips = allocate_ips("10.1.0.250", 10)
    assert "10.1.0.255" not in ips
    assert "10.1.1.0" not in ips
    assert len(ips) == len(set(ips)) == 10


# Each value reaches a plan line unquoted, so one that is not a single
# shell word would run as commands in apply mode.
@pytest.mark.parametrize("value", ["c;id", "a b", "$(id)"])
@pytest.mark.parametrize(
    "path, put",
    [
        ("nodes[1].name", lambda d, v: d["nodes"][1].update(name=v)),
        ("nodes[1].image", lambda d, v: d["nodes"][1].update(image=v)),
        ("phases[1].signal", lambda d, v: d["phases"][1].update(signal=v)),
        ("runtime.bridge", lambda d, v: d.update(runtime={"bridge": v})),
        ("runtime.container_iface", lambda d, v: d.update(runtime={"container_iface": v})),
    ],
)
def test_values_that_reach_plan_lines_must_be_one_word(path, put, value):
    data = minimal_manifest_dict()
    put(data, value)
    with pytest.raises(ValidationError) as exc:
        parse_manifest(data)
    assert exc.value.path == path
    assert repr(value) in str(exc.value)


@pytest.mark.parametrize(
    "change, path",
    [
        (lambda d: d["nodes"][1].pop("ip"), "nodes[1].ip"),
        (lambda d: d["nodes"][1]["processes"][0].pop("binary"), "nodes[1].processes[0].binary"),
        (lambda d: d["nodes"][1].update(name="node001"), "nodes[1].name"),
        (lambda d: d["nodes"][1].update(ip="10.1.0.1"), "nodes[1].ip"),
        (lambda d: d["nodes"][1]["processes"][0].update(start_phase="x"),
         "nodes[1].processes[0].start_phase"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "quantum_ms": 0}), "delay.quantum_ms"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "quantum_ms": "ten"}),
         "delay.quantum_ms"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "rounding": "stochastic"}),
         "delay.rounding"),
    ],
)
def test_errors_name_the_json_path_of_the_offending_value(tmp_path, change, path):
    data = minimal_manifest_dict()
    change(data)
    with pytest.raises(ValidationError) as exc:
        load_manifest(write_manifest(tmp_path, data))
    assert (exc.value.path, exc.value.line) == (path, None)
    assert str(exc.value).startswith(f"[{path}] ")


@pytest.mark.parametrize(
    "change, path",
    [
        (lambda d: d["nodes"].__setitem__(0, 1), "nodes[0]"),
        (lambda d: d.update(nodes=5), "nodes"),
        (lambda d: d["nodes"][1].update(processes=[["x"]]), "nodes[1].processes[0]"),
        (lambda d: d["nodes"][1].update(processes="x"), "nodes[1].processes"),
        (lambda d: d["nodes"][1]["processes"][0].update(args=3), "nodes[1].processes[0].args"),
        (lambda d: d["nodes"][1].update(roles=None), "nodes[1].roles"),
        (lambda d: d["phases"].__setitem__(1, None), "phases[1]"),
        (lambda d: d["phases"][0].update(script=7), "phases[0].script"),
        (lambda d: d.update(networks=[1]), "networks"),
        (lambda d: d.update(networks={"gossip": "random"}), "networks.gossip"),
        (lambda d: d.update(delay=["m.txt"]), "delay"),
        (lambda d: d.update(timers=[1]), "timers"),
        (lambda d: d.update(resources=0.5), "resources"),
        (lambda d: d.update(runtime=["x"]), "runtime"),
    ],
)
def test_entries_of_the_wrong_json_type_name_their_path(change, path):
    data = minimal_manifest_dict()
    change(data)
    with pytest.raises(ValidationError) as exc:
        parse_manifest(data)
    assert exc.value.path == path
    assert str(exc.value).startswith(f"[{path}] expected an ")


def test_manifest_that_is_not_an_object_rejected():
    with pytest.raises(ValidationError, match=r"^\[manifest\] expected an object, got list$"):
        parse_manifest([1])
