from fractions import Fraction

import pytest

from latem.delay_model import allocate_ips
from latem.errors import ConfigError, RetryExhausted, ValidationError
from latem.manifest import (
    load_manifest,
    parse_fraction,
    parse_manifest,
    render_number,
)
from latem.orchestrator import build_startup_plan
from latem.topology import nws_graph, random_graph

from conftest import minimal_manifest_dict, phase, write_manifest


class TestParseFraction:
    def test_scalars(self):
        assert parse_fraction(2) == 2
        assert parse_fraction("0.80") == Fraction(4, 5)
        assert parse_fraction(0.5) == Fraction(1, 2)
        assert parse_fraction("0.54/750") == Fraction(54, 100) / 750

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_is_no_number(self, value):
        with pytest.raises(ValidationError, match=r"^\[x\] cannot parse bool as a rational$"):
            parse_fraction(value, "x")

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
        # a target is "all" or "role:<r>" for a role some node holds
        (lambda d: d["phases"][1].update(target="role:validatr"), "phases[1].target"),
        (lambda d: d["phases"][1].update(target="rol:validator"), "phases[1].target"),
        (lambda d: d["phases"][1].update(target="validator"), "phases[1].target"),
        (lambda d: d["phases"][0].update(target="role:nobody"), "phases[0].target"),
        # each overlay kind needs its parameters
        (lambda d: d.update(networks={"blocks": {"kind": "nws", "p": 0.2}}), "networks.blocks.k"),
        (lambda d: d.update(networks={"blocks": {"kind": "nws", "k": 0}}), "networks.blocks.p"),
        (lambda d: d.update(networks={"blocks": {"kind": "random"}}), "networks.blocks.degree"),
        # a phase name names a dry-run step file
        (lambda d: d["phases"][1].update(name="go/now"), "phases[1].name"),
        (lambda d: d["phases"][1].update(name=".."), "phases[1].name"),
        (lambda d: d["phases"][1].update(name="-x"), "phases[1].name"),
        # integer keys take JSON integers only: no float, boolean or string
        (lambda d: d.update(networks={"b": {"kind": "nws", "k": 2.9, "p": 0.2}}),
         "networks.b.k"),
        (lambda d: d.update(networks={"b": {"kind": "nws", "k": True, "p": 0.2}}),
         "networks.b.k"),
        (lambda d: d.update(networks={"g": {"kind": "random", "degree": "1"}}),
         "networks.g.degree"),
        (lambda d: d.update(networks={"g": {"kind": "random", "degree": 1, "seed": 1.7}}),
         "networks.g.seed"),
        (lambda d: d.update(networks={"g": {"kind": "random", "degree": 1, "seed": "x"}}),
         "networks.g.seed"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "subsample_seed": 1.7}),
         "delay.subsample_seed"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "subsample_seed": False}),
         "delay.subsample_seed"),
        # a seeded draw takes a non-negative seed
        (lambda d: d.update(delay={"matrix_path": "m.txt", "subsample_seed": -1}),
         "delay.subsample_seed"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "quantum_ms": 12.9}),
         "delay.quantum_ms"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "quantum_ms": True}),
         "delay.quantum_ms"),
        # boolean keys take JSON booleans only
        (lambda d: d.update(delay={"matrix_path": "m.txt", "drop_zero_class": "false"}),
         "delay.drop_zero_class"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "drop_zero_class": 0}),
         "delay.drop_zero_class"),
        (lambda d: d["phases"][0].update(capture_stats="no"), "phases[0].capture_stats"),
        (lambda d: d["phases"][0].update(capture_stats=1), "phases[0].capture_stats"),
        # a rational is no boolean
        (lambda d: d["phases"][1].update(stagger_ms=True), "phases[1].stagger_ms"),
        (lambda d: d.update(networks={"b": {"kind": "nws", "k": 0, "p": False}}),
         "networks.b.p"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "inflation_factor": True}),
         "delay.inflation_factor"),
        (lambda d: d.update(timers={"t": {"value": True, "kind": "duration"}}),
         "timers.t.value"),
        # an inflation factor is positive
        (lambda d: d.update(delay={"matrix_path": "m.txt", "inflation_factor": 0}),
         "delay.inflation_factor"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "inflation_factor": "-2"}),
         "delay.inflation_factor"),
        # text keys take no array, object, boolean or null
        (lambda d: d.update(name=["mini"]), "name"),
        (lambda d: d["nodes"][1].update(ip=None), "nodes[1].ip"),
        (lambda d: d["nodes"][1].update(roles=["validator", True]), "nodes[1].roles[1]"),
        (lambda d: d["nodes"][1]["processes"][0].update(binary=["a"]),
         "nodes[1].processes[0].binary"),
        (lambda d: d["nodes"][0]["processes"][0].update(args=["--x", {"x": 1}]),
         "nodes[0].processes[0].args[1]"),
        (lambda d: d["nodes"][0]["processes"][0].update(start_phase=None),
         "nodes[0].processes[0].start_phase"),
        (lambda d: d["phases"][0].update(action=["launch"]), "phases[0].action"),
        (lambda d: d["phases"][1].update(target={"role": "validator"}), "phases[1].target"),
        (lambda d: d["phases"][0].update(script=["true", False]), "phases[0].script[1]"),
        (lambda d: d.update(networks={"g": {"kind": None}}), "networks.g.kind"),
        (lambda d: d.update(delay={"matrix_path": ["m.txt"]}), "delay.matrix_path"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "rounding": False}),
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


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["nodes"][1].update(ip=None), "[nodes[1].ip] expected a string, got NoneType"),
        (lambda d: d["nodes"][0]["processes"][0].update(start_phase=None),
         "[nodes[0].processes[0].start_phase] expected a string, got NoneType"),
        (lambda d: d["phases"][0].update(action=["launch"]),
         "[phases[0].action] expected a string, got list"),
        (lambda d: d["phases"][1].update(target={"role": "validator"}),
         "[phases[1].target] expected a string, got dict"),
        (lambda d: d.update(networks={"g": {"kind": None}}),
         "[networks.g.kind] expected a string, got NoneType"),
        (lambda d: d.update(delay={"matrix_path": "m.txt", "rounding": False}),
         "[delay.rounding] expected a string, got bool"),
        (lambda d: d.update(networks={"b": {"kind": "nws", "k": 2.9, "p": 0.2}}),
         "[networks.b.k] expected an integer, got float"),
        (lambda d: d["phases"][0].update(capture_stats="no"),
         "[phases[0].capture_stats] expected true or false, got str"),
        (lambda d: d["nodes"][1].update(name=True), "[nodes[1].name] expected a string, got bool"),
    ],
)
def test_a_value_of_the_wrong_json_type_is_refused_for_its_type(change, message):
    data = minimal_manifest_dict()
    change(data)
    with pytest.raises(ValidationError) as exc:
        parse_manifest(data)
    assert str(exc.value) == message


def test_text_keys_read_a_number_as_its_text_and_unknown_keys_are_ignored():
    data = minimal_manifest_dict(runtime={"adapter": "docker"}, colour="blue")
    data["nodes"][0]["processes"][0].update(binary=7, args=[1, 2.5])
    process = parse_manifest(data).nodes[0].processes[0]
    assert (process.binary, process.args) == ("7", ("1", "2.5"))


def test_manifest_that_is_not_an_object_rejected():
    with pytest.raises(ValidationError, match=r"^\[manifest\] expected an object, got list$"):
        parse_manifest([1])


def test_two_launch_phases_may_not_launch_one_node(tmp_path):
    data = minimal_manifest_dict()
    data["phases"].insert(1, {"name": "launch-again", "action": "launch"})
    with pytest.raises(ValidationError) as exc:
        load_manifest(write_manifest(tmp_path, data))
    assert exc.value.path == "phases[1].target"
    assert str(exc.value) == (
        "[phases[1].target] node 'node001' is launched by phases 'launch' and 'launch-again'"
    )


def test_every_node_is_in_a_launch_phase(tmp_path):
    data = minimal_manifest_dict()
    data["phases"][0]["target"] = "role:validator"
    with pytest.raises(ValidationError) as exc:
        load_manifest(write_manifest(tmp_path, data))
    assert str(exc.value) == "[nodes[0]] node 'node001' is in no launch phase's target ('launch')"


def test_launch_phases_that_split_the_nodes_load(tmp_path):
    data = minimal_manifest_dict()
    data["nodes"][0]["roles"] = ["observer"]
    data["phases"][:1] = [
        {"name": "launch-validators", "action": "launch", "target": "role:validator"},
        {"name": "launch-observers", "action": "launch", "target": "role:observer"},
    ]
    manifest = load_manifest(write_manifest(tmp_path, data))
    assert [p.target for p in manifest.phases[:2]] == ["role:validator", "role:observer"]


def test_a_manifest_without_a_launch_phase_loads(tmp_path):
    data = minimal_manifest_dict()
    del data["phases"][0]
    assert len(load_manifest(write_manifest(tmp_path, data)).nodes) == 2


def _with_nodes(count: int, networks: dict) -> dict:
    data = minimal_manifest_dict(networks=networks)
    data["nodes"] = [{"name": f"n{i}", "ip": f"10.1.0.{i + 1}"} for i in range(count)]
    data["phases"] = [{"name": "launch", "action": "launch"}]
    return data


@pytest.mark.parametrize(
    "network, key, reason",
    [
        ({"kind": "nws", "k": 4, "p": 0.2}, "k", "need n > k, got n=3, k=4"),
        ({"kind": "nws", "k": 3, "p": 0.2}, "k", "k must be even and >= 2, got 3"),
        ({"kind": "nws", "k": 0, "p": 0.2}, "k", "k must be even and >= 2, got 0"),
        ({"kind": "nws", "k": 2, "p": 1.5}, "p", "p must be a probability, got 3/2"),
        ({"kind": "nws", "k": 2, "p": "-1/10"}, "p", "p must be a probability, got -1/10"),
        ({"kind": "random", "degree": 3}, "degree", "degree 3 must be smaller than n=3"),
        ({"kind": "random", "degree": -2}, "degree", "degree must be >= 0, got -2"),
        ({"kind": "random", "degree": 1}, "degree", "n*degree must be even, got 3*1"),
    ],
)
def test_an_overlay_its_generator_refuses_fails_at_its_key(tmp_path, network, key, reason):
    data = _with_nodes(3, {"blocks": {**network, "seed": 1}})
    with pytest.raises(ValidationError) as exc:
        load_manifest(write_manifest(tmp_path, data))
    assert str(exc.value) == f"[networks.blocks.{key}] network 'blocks': {reason}"


def test_an_overlay_loads_exactly_when_its_generator_accepts_it():
    for n in (1, 2, 3, 5):
        for k in (-2, 0, 1, 2, 3, 4, 6):
            for p in (Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2)):
                _agree(n, {"kind": "nws", "k": k, "p": str(p)}, lambda: nws_graph(n, k, p, 1))
        for degree in (-1, 0, 1, 2, 3, 4, 5):
            _agree(n, {"kind": "random", "degree": degree},
                   lambda: random_graph(n, degree, 1))


def _agree(n: int, network: dict, generate) -> None:
    """The manifest loads exactly when `generate` accepts the parameters, and then plans."""
    data = _with_nodes(n, {"blocks": {**network, "seed": 1}})
    try:
        generate()
    except ConfigError:
        with pytest.raises(ValidationError):
            parse_manifest(data)
        return
    except RetryExhausted:  # no connected graph exists: not a rule on the parameters
        parse_manifest(data)
        return
    build_startup_plan(parse_manifest(data))
