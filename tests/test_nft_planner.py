import pytest

from latem import delay_model as dm
from latem import nft_planner
from latem.errors import ConfigError, EmptyPlanError
from latem.nft_planner import emit_nft_script

from conftest import GOLDENS
from reference_classes import delay_classes

PAIR = ("10.0.0.1", "10.0.0.2")


def single_class_map(pairs=(PAIR,)):
    return dm.DelayClassMap(classes=delay_classes((1, 20, pairs)))


def test_single_class_layout():
    # hand expansion of one class: table, chain, set, element, rule
    script = emit_nft_script(single_class_map())
    assert len(script) == 2 + 3 * 1
    assert script.lines[0] == "nft add table ip latem"
    assert script.lines[1] == (
        "nft add chain latem latem_chain { type filter hook forward priority 0 \\; }"
    )
    assert script.lines[2] == "nft add set latem nodes_1 { type ipv4_addr . ipv4_addr \\; }"


def test_element_line_has_both_orders():
    script = emit_nft_script(single_class_map())
    element = next(l for l in script if "element" in l)
    assert "10.0.0.1 . 10.0.0.2, 10.0.0.2 . 10.0.0.1" in element


def test_rule_line_references_set_and_mark():
    script = emit_nft_script(single_class_map())
    assert script.lines[4] == (
        "nft add rule latem latem_chain ip saddr . ip daddr @nodes_1 meta mark set 1"
    )


def test_line_count_formula():
    classes = delay_classes(
        (1, 20, (("10.0.0.1", "10.0.0.2"),)), (2, 40, (("10.0.0.3", "10.0.0.4"),))
    )
    script = emit_nft_script(dm.DelayClassMap(classes=classes))
    assert len(script) == 2 + 3 * 2


def test_element_count_is_twice_pairs(five_node_classes):
    script = emit_nft_script(five_node_classes)
    for cls in five_node_classes:
        element = next(l for l in script if f"element latem nodes_{cls.mark} " in l)
        body = element.split("{", 1)[1].rsplit("}", 1)[0].strip()
        assert len(body.split(", ")) == 2 * len(cls.pairs)


def test_empty_map_rejected():
    with pytest.raises(EmptyPlanError):
        emit_nft_script(dm.DelayClassMap(classes=()))


def test_sets_declared_before_rules(five_node_classes):
    script = emit_nft_script(five_node_classes)
    declared = set()
    for line in script:
        if " add set " in line:
            declared.add(line.split()[4])
        if "@" in line:
            referenced = line.split("@")[1].split()[0]
            assert referenced in declared


def test_deterministic(five_node_classes):
    a = emit_nft_script(five_node_classes).text()
    b = emit_nft_script(five_node_classes).text()
    assert a == b


def test_chunked_elements(monkeypatch):
    monkeypatch.setattr(nft_planner, "ELEMENT_CHUNK_PAIRS", 2)
    pairs = tuple((f"10.0.1.{i+1}", f"10.0.2.{i+1}") for i in range(5))
    cmap = dm.DelayClassMap(classes=delay_classes((1, 10, pairs)))
    script = emit_nft_script(cmap)
    element_lines = [l for l in script if "add element" in l]
    assert len(element_lines) == 3  # 2 + 2 + 1 pairs
    assert len(script) == 2 + 1 + 3 + 1


def test_class_without_pairs_rejected():
    # A set with no elements would match nothing; no map holds such a class.
    with pytest.raises(ConfigError, match="class with mark 1 has no pairs"):
        dm.DelayClassMap(classes=delay_classes((1, 20, ())))


def test_golden_five_node(five_node_classes):
    golden = (GOLDENS / "nft_5node3class.txt").read_text()
    assert emit_nft_script(five_node_classes).text() == golden


@pytest.mark.parametrize("seed", range(10))
def test_directed_pairs_unique_with_reverse_in_same_set(seed):
    from conftest import random_class_map

    classes = random_class_map(seed, max_nodes=20)
    if len(classes) == 0:
        return
    script = emit_nft_script(classes)
    sets: dict[str, set[tuple[str, str]]] = {}
    for line in script:
        if "add element" not in line:
            continue
        set_name = line.split()[4]
        body = line.split("{", 1)[1].rsplit("}", 1)[0].strip()
        for element in body.split(", "):
            src, dst = element.split(" . ")
            sets.setdefault(set_name, set()).add((src, dst))
    seen: set[tuple[str, str]] = set()
    for members in sets.values():
        assert not (members & seen)
        seen |= members
        for src, dst in members:
            assert (dst, src) in members
