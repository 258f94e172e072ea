from itertools import combinations

import numpy as np
import pytest

from latem import delay_model as dm
from latem import nft_planner
from latem.errors import ConfigError, EmptyPlanError
from latem.nft_planner import emit_nft_script

from conftest import GOLDENS, text_of
from reference_classes import delay_classes
from reference_render import class_map_json_per_pair, nft_lines_per_pair

PAIR = ("10.0.0.1", "10.0.0.2")


def single_class_map(pairs=(PAIR,)):
    return dm.DelayClassMap(classes=delay_classes((1, 20, pairs)))


def test_single_class_layout():
    # hand expansion of one class: table, chain, set, element, rule
    script = emit_nft_script(single_class_map())
    lines = tuple(script)
    assert len(script) == 2 + 3 * 1
    assert lines[0] == "nft add table ip latem"
    assert lines[1] == (
        "nft add chain latem latem_chain { type filter hook forward priority 0 \\; }"
    )
    assert lines[2] == "nft add set latem nodes_1 { type ipv4_addr . ipv4_addr \\; }"


def test_element_line_has_both_orders():
    script = emit_nft_script(single_class_map())
    element = next(l for l in script if "element" in l)
    assert "10.0.0.1 . 10.0.0.2, 10.0.0.2 . 10.0.0.1" in element


def test_rule_line_references_set_and_mark():
    script = emit_nft_script(single_class_map())
    assert tuple(script)[4] == (
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
    a = text_of(emit_nft_script(five_node_classes))
    b = text_of(emit_nft_script(five_node_classes))
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
    assert text_of(emit_nft_script(five_node_classes)) == golden


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


# Pair counts on both sides of the 1000-pair element line.
CHUNK_EDGES = (1, 999, 1000, 1001, 2001)


def map_of_sizes(ips, pairs, sizes):
    """One class per size, taking the index pairs in order."""
    rows, start = [], 0
    for mark, size in enumerate(sizes, start=1):
        rows.append((mark, 10 * mark, [(ips[a], ips[b]) for a, b in pairs[start : start + size]]))
        start += size
    return dm.DelayClassMap(classes=delay_classes(*rows))


def shuffled_map(table_size, seed):
    """Every address in one pair, pairs in a shuffled order; the classes
    past the chunk edges take the rest."""
    ips = dm.allocate_ips("10.0.0.1", table_size)
    order = np.random.default_rng(seed).permutation(table_size).tolist()
    pairs = list(zip(order[0::2], order[1::2]))
    return map_of_sizes(ips, pairs, (*CHUNK_EDGES, len(pairs) - sum(CHUNK_EDGES)))


@pytest.fixture(scope="module", params=["chunk edges", "40000 addresses", "70000 addresses"])
def reference_case(request):
    if request.param == "chunk edges":
        ips = dm.allocate_ips("10.0.0.1", 101)
        pairs = list(combinations(range(101), 2))  # 5050
        np.random.default_rng(3).shuffle(pairs)
        classes = map_of_sizes(ips, pairs, CHUNK_EDGES)
        assert [len(c.lo) for c in classes] == list(CHUNK_EDGES)
    elif request.param == "40000 addresses":
        classes = shuffled_map(40_000, 4)
        # uint16 positions whose offset by the table size passes 65,535
        assert classes.classes[0].lo.dtype == np.uint16
        assert max(int(c.hi.max()) for c in classes) + len(classes.addrs) > 65_535
    else:
        classes = shuffled_map(70_000, 5)
        assert classes.classes[0].lo.dtype == np.uint32
    return classes


class TestMatchesPerPairReference:
    """The gathered renderers against the per-pair f-strings they replaced."""

    def test_nft_text(self, reference_case):
        script = emit_nft_script(reference_case)
        lines = list(script)
        assert lines == nft_lines_per_pair(reference_case)
        assert len(script) == sum(1 for _ in script) == len(lines)
        assert text_of(script) == text_of(script) == "".join(line + "\n" for line in lines)

    def test_class_map_text(self, reference_case):
        quantum_ms = dm.QUANTUM_MS
        text = "".join(dm.class_map_json(reference_case, quantum_ms))
        assert text == class_map_json_per_pair(reference_case, quantum_ms)
        assert "".join(dm.class_map_json(reference_case, quantum_ms)) == text
