import gc
import io
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latem import delay_model as dm
from latem.errors import ConfigError, ShapeError, SizeError, SymmetryError

from conftest import random_class_map, random_symmetric_matrix
from reference_classes import build_classes_loop


def matrix(rows):
    return dm.DelayMatrix(np.array(rows, dtype=float))


class TestLoadMatrix:
    def test_minimal_symmetric(self):
        m = dm.load_matrix(io.StringIO("0 7\n7 0"))
        assert m.n == 2
        assert m.entries[0, 1] == 7

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            dm.load_matrix(io.StringIO("0 7\n8 0"))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            dm.load_matrix(io.StringIO("0 7 1\n7 0 2"))

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            dm.load_matrix(io.StringIO("0 7\n7"))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dm.load_matrix(io.StringIO("0 -1\n-1 0"))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dm.load_matrix(io.StringIO("0 nan\nnan 0"))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            dm.load_matrix(io.StringIO("1 7\n7 0"))

    def test_csv_autodetect(self):
        m = dm.load_matrix(io.StringIO("0,12.5\n12.5,0"))
        assert m.entries[1, 0] == 12.5

    def test_blank_lines_and_trailing_whitespace(self):
        m = dm.load_matrix(io.StringIO("0 7 \n7 0\n\n"))
        assert m.n == 2

    def test_explicit_format(self):
        m = dm.load_matrix(io.StringIO("0,3\n3,0"), fmt="csv")
        assert m.entries[0, 1] == 3

    def test_from_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 1\n1 0\n")
        assert dm.load_matrix(path).n == 2

    @pytest.mark.parametrize(
        "text",
        [
            "0, 12.5\n12.5, 0",  # a space after each comma
            "0,12.5\n   \n12.5,0\n",  # whitespace-only line between CSV rows
            "0\t12.5\n12.5\t0",  # tab-separated
        ],
    )
    def test_separator_variants(self, text):
        assert dm.load_matrix(io.StringIO(text)).entries.tolist() == [[0, 12.5], [12.5, 0]]

    def test_single_cell(self):
        assert dm.load_matrix(io.StringIO("0")).entries.tolist() == [[0]]

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("\n\n0 7\n\n7 x\n", 5),  # blank lines count toward the line number
            ("# delays\n0 7\n7 0\n", 1),  # '#' starts no comment
            ("0,7\n,0\n", 2),  # empty CSV cell
        ],
    )
    def test_non_numeric_cell_names_its_line(self, text, line_no):
        with pytest.raises(ValueError, match=rf"^line {line_no}: non-numeric cell"):
            dm.load_matrix(io.StringIO(text))

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_no_rows_rejected(self, text):
        with pytest.raises(ShapeError):
            dm.load_matrix(io.StringIO(text))

    def test_ragged_row_named(self):
        with pytest.raises(ShapeError, match="row 2 has 1 cells, expected 2"):
            dm.load_matrix(io.StringIO("0 7\n\n7 0\n7\n"))


class TestSubsample:
    def test_full_selection_is_identity(self):
        rng = np.random.default_rng(7)
        m = random_symmetric_matrix(rng, 12)
        assert dm.subsample(m, m.n, seed=99) == m

    def test_single_node(self):
        m = matrix([[0, 5], [5, 0]])
        assert dm.subsample(m, 1, seed=3) == matrix([[0]])

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(11)
        m = random_symmetric_matrix(rng, 30)
        assert dm.subsample(m, 12, seed=42) == dm.subsample(m, 12, seed=42)

    def test_count_too_large(self):
        with pytest.raises(SizeError):
            dm.subsample(matrix([[0]]), 2, seed=0)

    def test_preserves_invariants(self):
        rng = np.random.default_rng(5)
        m = random_symmetric_matrix(rng, 20)
        sub = dm.subsample(m, 9, seed=1)
        assert sub.n == 9  # construction re-validates symmetry and diagonal


class TestInflate:
    def test_identity_factor(self):
        m = matrix([[0, 30], [30, 0]])
        assert dm.inflate(m, 1) == m

    def test_factor_four(self):
        m = dm.inflate(matrix([[0, 30], [30, 0]]), 4)
        assert m.entries[0, 1] == 120

    def test_factor_two(self):
        m = dm.inflate(matrix([[0, 30], [30, 0]]), 2)
        assert m.entries[0, 1] == 60

    def test_fraction_factor(self):
        m = dm.inflate(matrix([[0, 30], [30, 0]]), Fraction(1, 2))
        assert m.entries[0, 1] == 15

    @pytest.mark.parametrize("factor", [0, -1, Fraction(-1, 2)])
    def test_nonpositive_rejected(self, factor):
        with pytest.raises(ValueError):
            dm.inflate(matrix([[0]]), factor)

    def test_composition(self):
        rng = np.random.default_rng(3)
        m = random_symmetric_matrix(rng, 8)
        twice = dm.inflate(dm.inflate(m, 2), 3)
        once = dm.inflate(m, 6)
        assert np.allclose(twice.entries, once.entries)


class TestQuantize:
    def test_nearest_rounds_down(self):
        q = dm.quantize(matrix([[0, 23], [23, 0]]), dm.QuantizationPolicy())
        assert q[0, 1] == 20

    def test_half_up_tie(self):
        q = dm.quantize(matrix([[0, 25], [25, 0]]), dm.QuantizationPolicy())
        assert q[0, 1] == 30

    def test_zero_fixed_point(self):
        q = dm.quantize(matrix([[0, 0], [0, 0]]), dm.QuantizationPolicy())
        assert q[0, 1] == 0

    def test_floor_mode(self):
        pol = dm.QuantizationPolicy(rounding="floor")
        q = dm.quantize(matrix([[0, 29], [29, 0]]), pol)
        assert q[0, 1] == 20

    def test_ceil_mode(self):
        pol = dm.QuantizationPolicy(rounding="ceil")
        q = dm.quantize(matrix([[0, 21], [21, 0]]), pol)
        assert q[0, 1] == 30

    def test_custom_quantum(self):
        pol = dm.QuantizationPolicy(quantum_ms=25)
        q = dm.quantize(matrix([[0, 37], [37, 0]]), pol)
        assert q[0, 1] == 25

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            dm.QuantizationPolicy(quantum_ms=0)
        with pytest.raises(ConfigError):
            dm.QuantizationPolicy(rounding="stochastic")

    @given(st.integers(0, 10_000), st.sampled_from(dm.ROUNDING_MODES))
    def test_idempotent(self, value, mode):
        pol = dm.QuantizationPolicy(rounding=mode)
        m = matrix([[0, value], [value, 0]])
        once = dm.quantize(m, pol)
        again = dm.quantize(dm.DelayMatrix(once.astype(float)), pol)
        assert np.array_equal(once, again)

    def test_result_symmetric(self):
        rng = np.random.default_rng(17)
        m = random_symmetric_matrix(rng, 15)
        q = dm.quantize(m, dm.QuantizationPolicy())
        assert np.array_equal(q, q.T)


class TestBuildClasses:
    IPS3 = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_single_class(self):
        q = np.full((3, 3), 50, dtype=np.int64)
        np.fill_diagonal(q, 0)
        cmap = dm.build_classes(q, self.IPS3, dm.QuantizationPolicy())
        assert len(cmap) == 1
        assert cmap.classes[0].mark == 1
        assert cmap.classes[0].delay_ms == 50
        assert len(cmap.classes[0].pairs) == 3

    def test_two_classes_by_hand(self):
        # AB=20, AC=50, BC=50
        q = np.array([[0, 20, 50], [20, 0, 50], [50, 50, 0]], dtype=np.int64)
        cmap = dm.build_classes(q, self.IPS3, dm.QuantizationPolicy())
        assert cmap.class_delays() == {1: 20, 2: 50}
        assert cmap.classes[0].pairs == (("10.0.0.1", "10.0.0.2"),)
        assert set(cmap.classes[1].pairs) == {
            ("10.0.0.1", "10.0.0.3"),
            ("10.0.0.2", "10.0.0.3"),
        }

    def test_duplicate_ips_rejected(self):
        q = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(ConfigError):
            dm.build_classes(q, ["10.0.0.1", "10.0.0.1", "10.0.0.3"], dm.QuantizationPolicy())

    def test_zero_pairs_dropped_by_default(self):
        q = np.array([[0, 0, 20], [0, 0, 20], [20, 20, 0]], dtype=np.int64)
        cmap = dm.build_classes(q, self.IPS3, dm.QuantizationPolicy())
        assert len(cmap) == 1
        assert ("10.0.0.1", "10.0.0.2") not in cmap.all_pairs()

    def test_zero_class_kept_when_configured(self):
        q = np.array([[0, 0, 20], [0, 0, 20], [20, 20, 0]], dtype=np.int64)
        pol = dm.QuantizationPolicy(drop_zero_class=False)
        cmap = dm.build_classes(q, self.IPS3, pol)
        assert cmap.class_delays() == {1: 0, 2: 20}

    @pytest.mark.parametrize("bad", ["10.0.0.256", "10.0.0", "10.0.0.01", "host"])
    def test_malformed_ip_rejected(self, bad):
        q = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            dm.build_classes(q, ["10.0.0.1", bad, "10.0.0.3"], dm.QuantizationPolicy())

    def test_non_finite_delay_rejected(self):
        q = np.array([[0, np.nan], [np.nan, 0]])
        with pytest.raises(ValueError):
            dm.build_classes(q, ["10.0.0.1", "10.0.0.2"], dm.QuantizationPolicy())

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @example(seed=0, n=1, drop_zero=True, as_mapping=False, as_float=False)
    @example(seed=1, n=2, drop_zero=False, as_mapping=True, as_float=True)
    @example(seed=2, n=2, drop_zero=True, as_mapping=False, as_float=False)
    def test_matches_pair_loop_reference(self, seed, n, drop_zero, as_mapping, as_float):
        rng = np.random.default_rng(seed)
        # 10.0.0.9, 10.0.0.10 and 10.0.1.2 sort differently as text and as
        # numbers; the other candidates span three octet boundaries.
        extra = rng.choice(np.arange(259, 1024), size=9, replace=False)
        keys = rng.permutation(np.concatenate(([9, 10, 258], extra)))[:n]
        ips = [f"10.0.{k // 256}.{k % 256}" for k in keys.tolist()]
        if as_float:
            # fractional delays, truncated by int() into classes of 10 ms
            upper = rng.choice([0.0, 0.4, 10.2, 10.9, 20.0, 20.5, 250.7], size=(n, n))
        else:
            upper = rng.choice([0, 10, 20, 30, 250], size=(n, n))
        q = np.triu(upper, k=1)
        q = q + q.T
        ips_arg = dict(enumerate(ips)) if as_mapping else ips
        pol = dm.QuantizationPolicy(drop_zero_class=drop_zero)
        got = dm.build_classes(q, ips_arg, pol)
        want = build_classes_loop(q, ips_arg, pol)
        assert got == want
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())

    def test_ips_as_mapping(self):
        q = np.array([[0, 10], [10, 0]], dtype=np.int64)
        cmap = dm.build_classes(q, {0: "10.0.0.9", 1: "10.0.0.4"}, dm.QuantizationPolicy())
        assert cmap.classes[0].pairs == (("10.0.0.4", "10.0.0.9"),)

    @given(st.integers(0, 2**32 - 1))
    def test_partition_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        m = random_symmetric_matrix(rng, n, max_ms=120)
        pol = dm.QuantizationPolicy()
        q = dm.quantize(m, pol)
        ips = [f"10.9.0.{i + 1}" for i in range(n)]
        cmap = dm.build_classes(q, ips, pol)
        # round trip: every assigned pair quantizes to its class delay
        index = {ip: i for i, ip in enumerate(ips)}
        for cls in cmap:
            for a, b in cls.pairs:
                assert q[index[a], index[b]] == cls.delay_ms
        # partition: class pairs plus zero pairs cover all pairs exactly once
        zero_pairs = {
            dm.make_pair(ips[i], ips[j])
            for i in range(n)
            for j in range(i + 1, n)
            if q[i, j] == 0
        }
        assert cmap.all_pairs() | zero_pairs == {
            dm.make_pair(ips[i], ips[j]) for i in range(n) for j in range(i + 1, n)
        }
        assert sum(len(c.pairs) for c in cmap) == len(cmap.all_pairs())
        # monotonic marks
        delays = [c.delay_ms for c in cmap]
        assert delays == sorted(delays)
        assert [c.mark for c in cmap] == list(range(1, len(cmap) + 1))

    def test_class_count_bound(self):
        rng = np.random.default_rng(23)
        m = random_symmetric_matrix(rng, 25, max_ms=400)
        pol = dm.QuantizationPolicy()
        cmap = dm.build_classes(dm.quantize(m, pol), [f"10.8.0.{i+1}" for i in range(25)], pol)
        assert len(cmap) <= int(m.max_delay_ms // pol.quantum_ms) + 1


class TestDelayMatrixType:
    def test_entries_are_immutable(self):
        m = matrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            m.entries[0, 1] = 5

    def test_caller_array_not_frozen(self):
        source = np.array([[0.0, 1.0], [1.0, 0.0]])
        dm.DelayMatrix(source)
        source[0, 1] = 9  # still writable; the matrix holds its own copy

    def test_matrix_owns_its_data(self):
        source = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = dm.DelayMatrix(source)
        source[0, 1] = 9
        assert m.entries[0, 1] == 1
        assert not m.entries.flags.writeable

    def test_frozen_float_array_is_kept(self):
        source = np.array([[0.0, 1.0], [1.0, 0.0]])
        source.setflags(write=False)
        assert dm.DelayMatrix(source).entries is source

    @pytest.mark.parametrize("kind", ["view", "int"])
    def test_other_read_only_arrays_are_copied(self, kind):
        base = np.array([[0, 1], [1, 0]], dtype=np.float64 if kind == "view" else np.int64)
        source = base.view() if kind == "view" else base.copy()
        source.setflags(write=False)
        m = dm.DelayMatrix(source)
        base[0, 1] = 9
        assert m.entries[0, 1] == 1
        assert m.entries.dtype == np.float64 and not m.entries.flags.writeable

    def test_loaded_matrix_is_read_only(self):
        m = dm.load_matrix(io.StringIO("0 1\n1 0\n"))
        assert m.entries.flags.owndata and not m.entries.flags.writeable


class TestGcPaused:
    @pytest.fixture(autouse=True)
    def restore_gc(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    def test_enabled_collector_is_enabled_again(self):
        gc.enable()
        with dm.gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_enabled_again_after_an_exception(self):
        gc.enable()
        with pytest.raises(KeyError):
            with dm.gc_paused():
                raise KeyError("x")
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self):
        gc.disable()
        with dm.gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_use_keeps_the_outer_pause(self):
        gc.enable()
        with dm.gc_paused():
            with dm.gc_paused():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_decorated_function_runs_paused(self):
        @dm.gc_paused()
        def enabled_inside():
            return gc.isenabled()

        gc.enable()
        assert enabled_inside() is False
        assert enabled_inside() is False  # each call pauses afresh
        assert gc.isenabled()


class TestClassMapValidation:
    def test_marks_must_be_contiguous(self):
        with pytest.raises(ConfigError):
            dm.DelayClassMap(
                classes=(dm.DelayClass(mark=2, delay_ms=10, pairs=(("10.0.0.1", "10.0.0.2"),)),)
            )

    def test_delays_must_increase(self):
        c1 = dm.DelayClass(mark=1, delay_ms=20, pairs=(("10.0.0.1", "10.0.0.2"),))
        c2 = dm.DelayClass(mark=2, delay_ms=20, pairs=(("10.0.0.1", "10.0.0.3"),))
        with pytest.raises(ConfigError):
            dm.DelayClassMap(classes=(c1, c2))

    def test_pair_sets_disjoint(self):
        c1 = dm.DelayClass(mark=1, delay_ms=20, pairs=(("10.0.0.1", "10.0.0.2"),))
        c2 = dm.DelayClass(mark=2, delay_ms=30, pairs=(("10.0.0.1", "10.0.0.2"),))
        with pytest.raises(ConfigError):
            dm.DelayClassMap(classes=(c1, c2))

    def test_first_repeated_pair_in_class_order_named(self):
        a, b, c = ("10.0.0.1", "10.0.0.2"), ("10.0.0.1", "10.0.0.3"), ("10.0.0.2", "10.0.0.3")
        c1 = dm.DelayClass(mark=1, delay_ms=10, pairs=(a, b))
        c2 = dm.DelayClass(mark=2, delay_ms=20, pairs=(c, b, a))
        with pytest.raises(ConfigError, match=r"pair \('10.0.0.1', '10.0.0.3'\) appears"):
            dm.DelayClassMap(classes=(c1, c2))

    def test_repeat_within_one_class_rejected(self):
        pair = ("10.0.0.1", "10.0.0.2")
        with pytest.raises(ConfigError, match="more than one class"):
            dm.DelayClassMap(classes=(dm.DelayClass(mark=1, delay_ms=10, pairs=(pair, pair)),))

    def test_repeat_reported_before_a_later_class_is_checked(self):
        pair = ("10.0.0.1", "10.0.0.2")
        c1 = dm.DelayClass(mark=1, delay_ms=10, pairs=(pair,))
        c2 = dm.DelayClass(mark=2, delay_ms=20, pairs=(pair,))
        c3 = dm.DelayClass(mark=5, delay_ms=30, pairs=())
        with pytest.raises(ConfigError, match="more than one class"):
            dm.DelayClassMap(classes=(c1, c2, c3))

    def test_json_round_trip(self, five_node_classes):
        data = five_node_classes.to_json_dict()
        assert dm.DelayClassMap.from_json_dict(data) == five_node_classes

    @pytest.mark.parametrize("seed", range(5))
    def test_json_round_trip_random(self, seed):
        cmap = random_class_map(seed)
        data = json.loads(json.dumps(cmap.to_json_dict()))
        assert dm.DelayClassMap.from_json_dict(data) == cmap


def json_dumps_reference(cmap, policy):
    """The class-map file text as `json.dumps` renders it."""
    payload = cmap.to_json_dict()
    payload["quantum_ms"] = policy.quantum_ms
    payload["rounding"] = policy.rounding
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def octet_spanning_ips(rng, n):
    """n distinct addresses spread over 10.0.0.x-10.0.3.x, in random order."""
    keys = rng.choice(np.arange(1, 1024), size=n, replace=False)
    return [f"10.0.{k // 256}.{k % 256}" for k in keys.tolist()]


class TestClassMapJson:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.booleans(),
        st.integers(1, 60),
        st.sampled_from(dm.ROUNDING_MODES),
    )
    @example(seed=0, n=1, keep_zero=False, quantum=10, rounding="nearest-half-up")  # no class
    @example(seed=3, n=6, keep_zero=True, quantum=10, rounding="nearest-half-up")
    def test_built_maps_match_json_dumps(self, seed, n, keep_zero, quantum, rounding):
        rng = np.random.default_rng(seed)
        policy = dm.QuantizationPolicy(
            quantum_ms=quantum, rounding=rounding, drop_zero_class=not keep_zero
        )
        # about a third of the pairs have no delay, so a kept zero class shows
        upper = np.triu(rng.uniform(0, 200, size=(n, n)) * (rng.random((n, n)) < 0.7), k=1)
        m = dm.DelayMatrix(upper + upper.T)
        q = dm.quantize(m, policy)
        cmap = dm.build_classes(q, octet_spanning_ips(rng, n), policy)
        has_zero = bool((q[np.triu_indices(n, k=1)] == 0).any())
        assert (len(cmap) > 0 and cmap.classes[0].delay_ms == 0) == (keep_zero and has_zero)
        assert dm.class_map_json(cmap, policy) == json_dumps_reference(cmap, policy)

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 4), max_size=6))
    @example(seed=0, sizes=[])
    @example(seed=1, sizes=[0])
    @example(seed=2, sizes=[2, 0, 1])
    def test_read_maps_match_json_dumps(self, seed, sizes):
        # from_json_dict accepts what build_classes never returns: zero
        # classes and classes with an empty pair list
        rng = np.random.default_rng(seed)
        ips = octet_spanning_ips(rng, 8)
        pool = [(ips[i], ips[j]) for i in range(8) for j in range(i + 1, 8)]
        order = rng.permutation(len(pool)).tolist()
        delays = np.sort(rng.choice(np.arange(0, 3000, 10), size=len(sizes), replace=False))
        classes, start = [], 0
        for mark, (size, delay) in enumerate(zip(sizes, delays.tolist()), start=1):
            pairs = [list(pool[k]) for k in order[start : start + size]]
            start += size
            classes.append({"mark": mark, "delay_ms": delay, "pairs": pairs})
        cmap = dm.DelayClassMap.from_json_dict({"classes": classes})
        policy = dm.QuantizationPolicy(quantum_ms=int(rng.integers(1, 100)))
        assert dm.class_map_json(cmap, policy) == json_dumps_reference(cmap, policy)

    def test_reads_back_to_the_same_map(self, five_node_classes):
        text = dm.class_map_json(five_node_classes, dm.QuantizationPolicy())
        assert dm.DelayClassMap.from_json_dict(json.loads(text)) == five_node_classes


def one_class_json(*pairs):
    return {"classes": [{"mark": 1, "delay_ms": 10, "pairs": [list(p) for p in pairs]}]}


class TestPairs:
    def test_reversed_pair_normalized(self):
        assert dm.make_pair("10.0.0.10", "10.0.0.9") == ("10.0.0.9", "10.0.0.10")
        cmap = dm.DelayClassMap.from_json_dict(
            one_class_json(("10.0.0.10", "10.0.0.9"), ("10.0.0.9", "10.0.1.2"))
        )
        assert cmap.classes[0].pairs == (("10.0.0.9", "10.0.0.10"), ("10.0.0.9", "10.0.1.2"))

    def test_same_address_rejected(self):
        with pytest.raises(ConfigError):
            dm.make_pair("10.0.0.1", "10.0.0.1")
        with pytest.raises(ConfigError):
            dm.DelayClassMap.from_json_dict(one_class_json(("10.0.0.1", "10.0.0.1")))

    @pytest.mark.parametrize("bad", ["10.0.0.256", "10.0.0", "node1"])
    def test_malformed_address_rejected(self, bad):
        with pytest.raises(ValueError):
            dm.make_pair("10.0.0.1", bad)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            dm.DelayClassMap.from_json_dict(one_class_json(("10.0.0.1", bad)))

    @pytest.mark.parametrize(
        "pair", [(), ("10.0.0.1",), ("10.0.0.1", "10.0.0.2", "10.0.0.3")]
    )
    def test_pair_of_other_than_two_addresses_rejected(self, pair):
        data = one_class_json(("10.0.0.4", "10.0.0.5"))
        data["classes"].append({"mark": 7, "delay_ms": 70, "pairs": [list(pair)]})
        with pytest.raises(ConfigError, match="class with mark 7: a pair must hold exactly two"):
            dm.DelayClassMap.from_json_dict(data)

    def test_non_string_address_rejected(self):
        with pytest.raises(ConfigError):
            dm.DelayClassMap.from_json_dict(one_class_json((["10.0.0.1"], "10.0.0.2")))

    @pytest.mark.parametrize(
        "pair, bad", [((1, 2), 1), (("10.0.0.1", 167772162), 167772162), ((True, "10.0.0.3"), True)]
    )
    def test_number_or_bool_address_rejected(self, pair, bad):
        data = one_class_json(("10.0.0.4", "10.0.0.5"))
        data["classes"].append({"mark": 7, "delay_ms": 70, "pairs": [list(pair)]})
        message = f"class with mark 7: address {bad!r} is not a string"
        with pytest.raises(ConfigError, match=re.escape(message)):
            dm.DelayClassMap.from_json_dict(data)

    def test_pair_reversed_in_two_classes_rejected(self):
        data = {
            "classes": [
                {"mark": 1, "delay_ms": 10, "pairs": [["10.0.0.1", "10.0.0.2"]]},
                {"mark": 2, "delay_ms": 20, "pairs": [["10.0.0.2", "10.0.0.1"]]},
            ]
        }
        with pytest.raises(ConfigError, match="more than one class"):
            dm.DelayClassMap.from_json_dict(data)
