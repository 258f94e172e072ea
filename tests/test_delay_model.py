import gc
import io
import ipaddress
import json
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from latem import delay_model as dm
from latem.errors import ConfigError, ShapeError, SizeError, SymmetryError

from conftest import FIVE_NODE_ENTRIES, random_class_map, random_symmetric_matrix, text_of
from reference_classes import all_pairs, build_classes_loop, delay_classes, make_pair


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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_each_line_break_counts_one_line(self, newline):
        text = newline.join(["", "", "0 7", "", "7 x", ""])
        with pytest.raises(ValueError, match=r"^line 5: non-numeric cell"):
            dm.load_matrix(io.StringIO(text))
        good = newline.join(["0 7", "", "7 0", ""])
        assert dm.load_matrix(io.BytesIO(good.encode())).entries.tolist() == [[0, 7], [7, 0]]

    @pytest.mark.parametrize("separator", ["\f", "\v"])
    def test_form_feed_and_vertical_tab_do_not_end_a_row(self, separator):
        # Lines end only at \n, \r\n and \r: these are whitespace inside a row.
        with pytest.raises(ShapeError, match=r"^matrix is 1x4, expected square$"):
            dm.load_matrix(io.StringIO(f"0 7{separator}7 0\n"))

    def test_binary_file_object(self):
        assert dm.load_matrix(io.BytesIO(b"0,7\r\n7,0\r\n")).entries.tolist() == [[0, 7], [7, 0]]

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"0 7\n\n7 \xff0\n")
        with pytest.raises(ValueError, match=r"^line 3: not UTF-8 text \("):
            dm.load_matrix(path)


@given(st.lists(st.sampled_from([b"0", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0c"]),
                max_size=30).map(b"".join))
@example(data=b"0\r")
@example(data=b"\r\n\r")
def test_line_bounds_split_as_bytes_splitlines(data):
    assert [data[start:end] for start, end in dm._line_bounds(data)] == data.splitlines()


def kept_rows(n, count, seed):
    """The rows a seeded draw keeps: `subsample`'s draw, computed here independently."""
    return np.sort(np.random.default_rng(seed).choice(n, size=count, replace=False)).tolist()


def seed_keeping(n, count, predicate):
    """The first seed whose kept rows satisfy `predicate`."""
    return next(s for s in range(1000) if predicate(kept_rows(n, count, s)))


@st.composite
def matrix_texts(draw):
    """(n, text) of a symmetric matrix in tenths of a ms, blank lines in between."""
    n = draw(st.integers(1, 8))
    upper = draw(st.lists(st.integers(1, 3000), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    tenths = np.zeros((n, n), dtype=np.int64)
    tenths[np.triu_indices(n, 1)] = upper
    tenths += tenths.T
    sep = draw(st.sampled_from([" ", "  ", "\t", ",", ", "]))
    blank = st.lists(st.sampled_from(["", " ", "\t "]), max_size=2)
    lines = []
    for row in tenths.tolist():
        lines += draw(blank)
        lines.append(sep.join(f"{v // 10}.{v % 10}" for v in row))
    lines += draw(blank)
    return n, "\n".join(lines)


def five_node_rows():
    return [[f"{v:g}" for v in r] for r in FIVE_NODE_ENTRIES.tolist()]


def five_node_text(cells=None):
    """Rows 0..4 at text lines 2, 4, 6, 8 and 10."""
    return "".join(f"\n{' '.join(row)}\n" for row in cells or five_node_rows())


class TestLoadMatrixCount:
    @given(matrix_texts(), st.sampled_from(["1", "n-1", "n"]), st.integers(0, 2**32 - 1))
    def test_equals_subsample_of_the_full_load(self, case, which, seed):
        n, text = case
        count = {"1": 1, "n-1": n - 1, "n": n}[which]
        assume(count >= 1)
        full = dm.load_matrix(io.StringIO(text))
        got = dm.load_matrix(io.StringIO(text), count=count, seed=seed)
        assert got == dm.subsample(full, count, seed)
        assert not got.entries.flags.writeable

    def test_full_count_reads_every_row(self):
        assert dm.load_matrix(io.StringIO(five_node_text()), count=5, seed=3) == matrix(
            FIVE_NODE_ENTRIES
        )

    @pytest.mark.parametrize("count", [6, 0, -2])
    def test_count_out_of_range(self, count):
        with pytest.raises(SizeError, match=rf"^cannot select {count} of 5 nodes$"):
            dm.load_matrix(io.StringIO(five_node_text()), count=count)

    def test_non_numeric_cell_in_a_kept_row_names_its_line(self):
        seed = seed_keeping(5, 2, lambda kept: kept[1] == 3)
        cells = five_node_rows()
        cells[3][1] = "x"
        with pytest.raises(ValueError, match=r"^line 8: non-numeric cell \('x'"):
            dm.load_matrix(io.StringIO(five_node_text(cells)), count=2, seed=seed)

    def test_ragged_kept_row_named_by_its_index_among_all_rows(self):
        # row 3 is the second kept row, so its index among the kept ones is 1
        seed = seed_keeping(5, 3, lambda kept: kept[:2] in ([0, 3], [1, 3], [2, 3]))
        cells = five_node_rows()
        del cells[3][4]
        with pytest.raises(ShapeError, match=r"^row 3 has 4 cells, expected 5$"):
            dm.load_matrix(io.StringIO(five_node_text(cells)), count=3, seed=seed)

    def test_kept_rows_of_the_wrong_width(self):
        cells = [row + ["0"] for row in five_node_rows()]
        with pytest.raises(ShapeError, match=r"^matrix is 5x6, expected square$"):
            dm.load_matrix(io.StringIO(five_node_text(cells)), count=3, seed=0)

    @pytest.mark.parametrize(
        "bad, message",
        [("nan", "NaN or infinite"), ("inf", "NaN or infinite"), ("-1", "negative delays")],
    )
    def test_bad_value_in_a_dropped_column_of_a_kept_row(self, bad, message):
        # column 4 is dropped but row 1's cell in it is parsed, so it is checked;
        # row 4, which holds the mirror cell, is not parsed
        seed = seed_keeping(5, 3, lambda kept: 1 in kept and 4 not in kept)
        cells = five_node_rows()
        cells[1][4] = bad
        with pytest.raises(ValueError, match=message):
            dm.load_matrix(io.StringIO(five_node_text(cells)), count=3, seed=seed)

    def test_diagonal_and_symmetry_checked_on_the_kept_submatrix(self):
        seed = seed_keeping(5, 3, lambda kept: kept[:2] == [0, 2])
        cells = five_node_rows()
        cells[2][2] = "1"
        with pytest.raises(ValueError, match="diagonal"):
            dm.load_matrix(io.StringIO(five_node_text(cells)), count=3, seed=seed)
        cells = five_node_rows()
        cells[2][0] = "34"
        with pytest.raises(SymmetryError, match=r"\[0\]\[1\]=33\.0 differs from \[1\]\[0\]=34\.0"):
            dm.load_matrix(io.StringIO(five_node_text(cells)), count=3, seed=seed)

    def test_bad_cell_in_a_dropped_row_is_not_reported(self):
        # Deliberate: rows that are not kept are not parsed, so nothing in
        # them is checked. The seed is picked so that row 2 is known dropped.
        seed = seed_keeping(5, 3, lambda kept: 2 not in kept)
        cells = five_node_rows()
        cells[2][3] = "x"
        text = five_node_text(cells)
        with pytest.raises(ValueError, match="^line 6: non-numeric cell"):
            dm.load_matrix(io.StringIO(text))  # the full load does see it
        got = dm.load_matrix(io.StringIO(text), count=3, seed=seed)
        assert got == dm.subsample(matrix(FIVE_NODE_ENTRIES), 3, seed)

    def test_bytes_that_are_not_utf8_are_checked_in_kept_rows_only(self):
        seed = seed_keeping(5, 3, lambda kept: 2 not in kept and 3 in kept)
        cells = five_node_rows()
        cells[2][3] = "\udcff"  # encodes, with surrogateescape, to the byte 0xff
        data = five_node_text(cells).encode("utf-8", "surrogateescape")
        got = dm.load_matrix(io.BytesIO(data), count=3, seed=seed)
        assert got == dm.subsample(matrix(FIVE_NODE_ENTRIES), 3, seed)
        cells = five_node_rows()
        cells[3][1] = "\udcff"
        data = five_node_text(cells).encode("utf-8", "surrogateescape")
        with pytest.raises(ValueError, match=r"^line 8: not UTF-8 text"):
            dm.load_matrix(io.BytesIO(data), count=3, seed=seed)


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

    def test_overflow_to_infinity_rejected(self):
        m = matrix([[0, 1e308], [1e308, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error alone reports it, with no warning
            with pytest.raises(ValueError, match="NaN or infinite"):
                dm.inflate(m, 10)

    def test_product_is_held_without_a_second_copy(self):
        m = dm.inflate(matrix([[0, 30], [30, 0]]), 3)
        assert m.entries.flags.owndata and not m.entries.flags.writeable


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

    @staticmethod
    def whole_matrix_formula(m, policy):
        """quantize as three matrix-sized float expressions, the form it replaced."""
        ratio = m.entries / policy.quantum_ms
        if policy.rounding == "nearest-half-up":
            steps = np.floor(ratio + 0.5)
        elif policy.rounding == "floor":
            steps = np.floor(ratio)
        else:
            steps = np.ceil(ratio)
        return steps.astype(np.int64) * policy.quantum_ms

    @pytest.mark.parametrize("mode", dm.ROUNDING_MODES)
    @pytest.mark.parametrize("quantum", [1, 7, 10])
    @pytest.mark.parametrize("n", [1, 2, 300])  # 300 rows take two blocks
    def test_equals_the_whole_matrix_formula(self, n, quantum, mode):
        rng = np.random.default_rng(n * quantum)
        # every third row exact .5 steps, the rest spread over 0..400 ms
        upper = rng.uniform(0, 400, size=(n, n))
        upper[::3] = (rng.integers(0, 80, size=upper[::3].shape) + 0.5) * quantum
        m = dm.DelayMatrix(np.triu(upper, 1) + np.triu(upper, 1).T)
        before = m.entries.copy()
        policy = dm.QuantizationPolicy(quantum_ms=quantum, rounding=mode)
        got = dm.quantize(m, policy)
        assert got.dtype == np.int64
        assert np.array_equal(got, self.whole_matrix_formula(m, policy))
        assert np.array_equal(m.entries, before)
        again = dm.quantize(dm.DelayMatrix(got.astype(float)), policy)
        assert np.array_equal(again, got)


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
        assert ("10.0.0.1", "10.0.0.2") not in all_pairs(cmap)

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

    def test_negative_delay_rejected(self):
        q = np.array([[0, -10], [-10, 0]], dtype=np.int64)
        with pytest.raises(ConfigError, match="non-negative, got -10"):
            dm.build_classes(q, ["10.0.0.1", "10.0.0.2"], dm.QuantizationPolicy())

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.booleans(),
        st.booleans(),
    )
    @example(seed=0, n=1, drop_zero=True, as_float=False)
    @example(seed=1, n=2, drop_zero=False, as_float=True)
    @example(seed=2, n=2, drop_zero=True, as_float=False)
    def test_matches_pair_loop_reference(self, seed, n, drop_zero, as_float):
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
        pol = dm.QuantizationPolicy(drop_zero_class=drop_zero)
        got = dm.build_classes(q, ips, pol)
        want = build_classes_loop(q, ips, pol)
        assert got == want
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())

    @pytest.mark.parametrize("drop_zero", [True, False])
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 256, 257])  # n - 1 crosses a power of two
    def test_matches_pair_loop_reference_at_rank_widths(self, n, shuffled, drop_zero):
        rng = np.random.default_rng(n)
        ips = [f"10.5.{i // 200}.{i % 200 + 1}" for i in range(n)]
        if shuffled:
            ips = [ips[i] for i in rng.permutation(n)]
        upper = np.triu(rng.choice([0, 10, 20, 40, 1900], size=(n, n)), k=1)
        q = upper + upper.T
        pol = dm.QuantizationPolicy(drop_zero_class=drop_zero)
        assert dm.build_classes(q, ips, pol) == build_classes_loop(q, ips, pol)

    @pytest.mark.parametrize("n, width", [(2, 1), (5, 3), (257, 9)])
    @pytest.mark.parametrize("as_float", [False, True])
    def test_delay_that_overflows_the_pair_code_rejected(self, n, width, as_float):
        # A code holds the delay above two ranks of `width` bits in 63 bits.
        limit = 1 << (63 - 2 * width)
        ips = [f"10.6.{i // 200}.{i % 200 + 1}" for i in range(n)]
        q = np.full((n, n), 10, dtype=np.int64)
        np.fill_diagonal(q, 0)
        q[0, n - 1] = q[n - 1, 0] = limit - 1
        cmap = dm.build_classes(q, ips, dm.QuantizationPolicy())
        assert cmap.classes[-1].delay_ms == limit - 1
        q[0, n - 1] = q[n - 1, 0] = limit
        with pytest.raises(ConfigError, match=f"delay {limit} ms is too large"):
            dm.build_classes(q.astype(float) if as_float else q, ips, dm.QuantizationPolicy())

    def test_huge_float_delay_rejected_as_too_large(self):
        q = np.array([[0, 1e30], [1e30, 0]])
        with pytest.raises(ConfigError, match="too large"):
            dm.build_classes(q, ["10.0.0.1", "10.0.0.2"], dm.QuantizationPolicy())

    def test_non_finite_reported_before_a_negative_delay(self):
        q = np.array([[0, -10, 0], [-10, 0, np.inf], [0, np.inf, 0]])
        with pytest.raises(ValueError, match="must be finite"):
            dm.build_classes(q, ["10.0.0.1", "10.0.0.2", "10.0.0.3"], dm.QuantizationPolicy())

    def test_negative_float_delay_truncates_as_int_does(self):
        q = np.array([[0, -0.5, -10.7], [-0.5, 0, 10], [-10.7, 10, 0]])
        ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        with pytest.raises(ConfigError, match="non-negative, got -10$"):
            dm.build_classes(q, ips, dm.QuantizationPolicy())
        q[0, 2] = q[2, 0] = 20
        assert dm.build_classes(q, ips, dm.QuantizationPolicy()).class_delays() == {1: 10, 2: 20}

    def test_ips_listed_out_of_address_order(self):
        q = np.array([[0, 10], [10, 0]], dtype=np.int64)
        cmap = dm.build_classes(q, ["10.0.0.9", "10.0.0.4"], dm.QuantizationPolicy())
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
            make_pair(ips[i], ips[j])
            for i in range(n)
            for j in range(i + 1, n)
            if q[i, j] == 0
        }
        assert all_pairs(cmap) | zero_pairs == {
            make_pair(ips[i], ips[j]) for i in range(n) for j in range(i + 1, n)
        }
        assert sum(len(c.pairs) for c in cmap) == len(all_pairs(cmap))
        # monotonic marks
        delays = [c.delay_ms for c in cmap]
        assert delays == sorted(delays)
        assert [c.mark for c in cmap] == list(range(1, len(cmap) + 1))

    def test_class_count_bound(self):
        rng = np.random.default_rng(23)
        m = random_symmetric_matrix(rng, 25, max_ms=400)
        pol = dm.QuantizationPolicy()
        cmap = dm.build_classes(dm.quantize(m, pol), [f"10.8.0.{i+1}" for i in range(25)], pol)
        assert len(cmap) <= int(m.entries.max() // pol.quantum_ms) + 1


class TestClassColumns:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 14), st.booleans())
    @example(seed=0, n=1, drop_zero=True)  # no class at all
    def test_built_maps_pass_the_validating_constructor(self, seed, n, drop_zero):
        # build_classes skips the disjointness set; the full check must agree
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.choice([0, 10, 20, 30, 250, 2550], size=(n, n)), k=1)
        q = upper + upper.T
        ips = octet_spanning_ips(rng, n)
        pol = dm.QuantizationPolicy(drop_zero_class=drop_zero)
        built = dm.build_classes(q, ips, pol)
        rebuilt = dm.DelayClassMap(classes=built.classes)
        assert rebuilt == built == build_classes_loop(q, ips, pol)

    def test_table_shares_the_callers_address_strings(self):
        ips = [f"10.3.{i // 250}.{i % 250 + 1}" for i in range(30)]
        q = np.triu(np.random.default_rng(4).choice([10, 20], size=(30, 30)), k=1)
        cmap = dm.build_classes(q + q.T, ips, dm.QuantizationPolicy())
        given = {id(ip) for ip in ips}
        assert len(cmap.addrs) == 30 and all(id(ip) in given for ip in cmap.addrs)
        assert all(c.addrs is cmap.addrs for c in cmap)
        assert sum(len(c.lo) for c in cmap) == 30 * 29 // 2

    def test_pairs_are_built_once_from_the_columns(self):
        (cls,) = delay_classes((1, 10, [("10.0.0.1", "10.0.0.2"), ("10.0.0.1", "10.0.0.3")]))
        assert cls.addrs == ("10.0.0.1", "10.0.0.2", "10.0.0.3")
        assert list(cls.lo) == [0, 0] and list(cls.hi) == [1, 2]
        assert cls.pairs == (("10.0.0.1", "10.0.0.2"), ("10.0.0.1", "10.0.0.3"))
        assert cls.pairs is cls.pairs

    @pytest.mark.parametrize("size, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.uint32)])
    def test_columns_are_read_only_arrays_sized_to_the_table(self, size, dtype):
        # synthetic addresses 10.0.0.0 upward, given in reverse order
        addrs = tuple(str(ipaddress.IPv4Address(0x0A000000 + k)) for k in range(size))[::-1]
        cmap = dm.DelayClassMap(classes=(dm.DelayClass(1, 10, [0], [size - 1], addrs),))
        assert cmap.addrs == addrs[::-1]
        cls = cmap.classes[0]
        assert cls.lo.dtype == dtype and cls.hi.dtype == dtype
        assert cls.pairs == (("10.0.0.0", addrs[0]),)
        for column in (cls.lo, cls.hi):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    @pytest.mark.parametrize("lo, hi", [([0], [2]), ([-1], [1]), ([0, 1], [1, 5])])
    def test_position_outside_the_table_rejected(self, lo, hi):
        addrs = ("10.0.0.1", "10.0.0.2")
        first, cls = dm.DelayClass(1, 10, [0], [1], addrs), dm.DelayClass(2, 20, lo, hi, addrs)
        message = "class with mark 2 holds an address position outside the table"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dm.DelayClassMap(classes=(first, cls))

    def test_classes_of_one_map_hold_one_table(self):
        addrs = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
        first = dm.DelayClass(1, 10, [0], [1], addrs)
        equal = dm.DelayClass(2, 20, [0], [2], tuple(list(addrs)))  # an equal copy
        other = dm.DelayClass(2, 20, [0], [1], ("10.0.0.3", "10.0.0.4"))
        cmap = dm.DelayClassMap(classes=(first, equal))
        assert cmap.addrs == addrs and all(c.addrs is cmap.addrs for c in cmap)
        message = "class with mark 2 holds another address table than the first class"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dm.DelayClassMap(classes=(first, other))

    def test_equal_table_entries_share_a_position(self):
        addrs = ("10.0.0.2", "10.0.0.1", "10.0.0.2")
        cmap = dm.DelayClassMap(classes=(dm.DelayClass(1, 10, [0], [1], addrs),))
        assert cmap.addrs == ("10.0.0.1", "10.0.0.2")
        with pytest.raises(ConfigError, match="got 10.0.0.2 twice"):
            dm.DelayClassMap(classes=(dm.DelayClass(1, 10, [0], [2], addrs),))

    def test_built_map_with_an_undelayed_node_equals_its_reload(self):
        # 10.0.0.2 has no delayed pair, so the table leaves it out
        q = np.array([[0, 0, 20], [0, 0, 0], [20, 0, 0]], dtype=np.int64)
        ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        built = dm.build_classes(q, ips, dm.QuantizationPolicy())
        assert built.addrs == ("10.0.0.1", "10.0.0.3")
        assert list(built.classes[0].lo) == [0] and list(built.classes[0].hi) == [1]
        assert dm.DelayClassMap.from_json_dict(built.to_json_dict()) == built

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ConfigError, match="mark 3 has 2 lower and 1 higher addresses"):
            dm.DelayClass(3, 10, [0, 0], [1], ("10.0.0.1", "10.0.0.2"))

    def test_build_holds_no_tuple_per_pair(self):
        # A (lo, hi) tuple costs 56 bytes and its set entry more; the columns
        # cost two references per pair. numpy's temporaries set the peak.
        n = 300
        upper = np.triu(np.random.default_rng(9).integers(1, 40, size=(n, n)) * 10, k=1)
        q = upper + upper.T
        ips = [f"10.4.{i // 250}.{i % 250 + 1}" for i in range(n)]
        pol = dm.QuantizationPolicy()
        dm.build_classes(q, ips, pol)  # first-call allocations stay out of the count
        pairs = n * (n - 1) // 2
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cmap = dm.build_classes(q, ips, pol)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(c.lo) for c in cmap) == pairs
        assert (held - before) / pairs < 40
        assert (peak - before) / pairs < 100


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
            dm.DelayClassMap(classes=delay_classes((2, 10, (("10.0.0.1", "10.0.0.2"),))))

    def test_delays_must_increase(self):
        c1, c2 = delay_classes(
            (1, 20, (("10.0.0.1", "10.0.0.2"),)), (2, 20, (("10.0.0.1", "10.0.0.3"),))
        )
        with pytest.raises(ConfigError):
            dm.DelayClassMap(classes=(c1, c2))

    def test_pair_sets_disjoint(self):
        c1, c2 = delay_classes(
            (1, 20, (("10.0.0.1", "10.0.0.2"),)), (2, 30, (("10.0.0.1", "10.0.0.2"),))
        )
        with pytest.raises(ConfigError):
            dm.DelayClassMap(classes=(c1, c2))

    def test_first_repeated_pair_in_class_order_named(self):
        a, b, c = ("10.0.0.1", "10.0.0.2"), ("10.0.0.1", "10.0.0.3"), ("10.0.0.2", "10.0.0.3")
        c1, c2 = delay_classes((1, 10, (a, b)), (2, 20, (c, b, a)))
        with pytest.raises(ConfigError, match=r"pair \('10.0.0.1', '10.0.0.3'\) appears"):
            dm.DelayClassMap(classes=(c1, c2))

    def test_repeat_within_one_class_rejected(self):
        pair = ("10.0.0.1", "10.0.0.2")
        with pytest.raises(ConfigError, match="more than one class"):
            dm.DelayClassMap(classes=delay_classes((1, 10, (pair, pair))))

    def test_repeat_reported_before_a_later_class_is_checked(self):
        pair = ("10.0.0.1", "10.0.0.2")
        c1, c2, c3 = delay_classes((1, 10, (pair,)), (2, 20, (pair,)), (5, 30, ()))
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
    """The class-map file text as compact `json.dumps` renders it."""
    payload = cmap.to_json_dict()
    payload["quantum_ms"] = policy.quantum_ms
    payload["rounding"] = policy.rounding
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


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
        assert "".join(dm.class_map_json(cmap, policy)) == json_dumps_reference(cmap, policy)

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 4), max_size=6))
    @example(seed=0, sizes=[])
    @example(seed=1, sizes=[1])
    @example(seed=2, sizes=[2, 4, 1])
    def test_read_maps_match_json_dumps(self, seed, sizes):
        # pairs in no particular order, some reversed, and zero classes
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
        assert "".join(dm.class_map_json(cmap, policy)) == json_dumps_reference(cmap, policy)

    @pytest.mark.parametrize("seed", range(3))
    def test_yields_a_head_one_piece_per_class_and_a_tail(self, seed):
        cmap = random_class_map(seed)
        pieces = list(dm.class_map_json(cmap, dm.QuantizationPolicy()))
        assert len(pieces) == len(cmap) + 2
        assert pieces[0] == '{"classes":['
        for i, (piece, c) in enumerate(zip(pieces[1:], cmap)):
            cls = json.loads(piece.removeprefix(","))
            assert piece.startswith(",") == (i > 0)
            assert (cls["mark"], cls["delay_ms"]) == (c.mark, c.delay_ms)
            assert cls["pairs"] == [list(p) for p in c.pairs]

    def test_reads_back_to_the_same_map(self, five_node_classes):
        text = "".join(dm.class_map_json(five_node_classes, dm.QuantizationPolicy()))
        assert dm.DelayClassMap.from_json_dict(json.loads(text)) == five_node_classes

    def test_class_without_pairs_cannot_be_read(self):
        data = one_class_json(("10.0.0.1", "10.0.0.2"))
        data["classes"].append({"mark": 2, "delay_ms": 20, "pairs": []})
        with pytest.raises(ConfigError, match="^class with mark 2 has no pairs$"):
            dm.DelayClassMap.from_json_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"quantum_ms": 10}, "the class map has no 'classes'"),
        ({"classes": [{"delay_ms": 10, "pairs": []}]}, "the class at position 0 has no 'mark'"),
        ({"classes": [{"mark": 1, "pairs": []}]}, "the class at position 0 has no 'delay_ms'"),
        ({"classes": [{"mark": 1, "delay_ms": 10, "pairs": [["10.0.0.1", "10.0.0.2"]]},
                      {"mark": 2, "delay_ms": 20}]}, "the class at position 1 has no 'pairs'"),
    ])
    def test_missing_key_named_with_its_class_position(self, data, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dm.DelayClassMap.from_json_dict(data)

    @pytest.mark.parametrize("key, value, shown", [
        ("delay_ms", 10.7, "10.7"), ("delay_ms", 10.0, "10.0"), ("delay_ms", True, "true"),
        ("mark", "1", '"1"'), ("mark", False, "false"), ("delay_ms", None, "null"),
    ])
    def test_mark_and_delay_must_be_json_integers(self, key, value, shown):
        data = one_class_json(("10.0.0.1", "10.0.0.2"))
        data["classes"][0][key] = value
        message = f"the class at position 0: {key} must be a JSON integer, got {shown}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dm.DelayClassMap.from_json_dict(data)


def one_class_json(*pairs):
    return {"classes": [{"mark": 1, "delay_ms": 10, "pairs": [list(p) for p in pairs]}]}


class TestPairs:
    def test_reversed_pair_normalized(self):
        assert make_pair("10.0.0.10", "10.0.0.9") == ("10.0.0.9", "10.0.0.10")
        cmap = dm.DelayClassMap.from_json_dict(
            one_class_json(("10.0.0.10", "10.0.0.9"), ("10.0.0.9", "10.0.1.2"))
        )
        assert cmap.classes[0].pairs == (("10.0.0.9", "10.0.0.10"), ("10.0.0.9", "10.0.1.2"))

    def test_same_address_rejected(self):
        with pytest.raises(ConfigError):
            make_pair("10.0.0.1", "10.0.0.1")
        with pytest.raises(ConfigError):
            dm.DelayClassMap.from_json_dict(one_class_json(("10.0.0.1", "10.0.0.1")))

    @pytest.mark.parametrize("bad", ["10.0.0.256", "10.0.0", "node1"])
    def test_malformed_address_rejected(self, bad):
        with pytest.raises(ValueError):
            make_pair("10.0.0.1", bad)
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

    def test_repeat_within_one_class_rejected(self):
        data = one_class_json(("10.0.0.1", "10.0.0.2"), ("10.0.0.3", "10.0.0.4"),
                              ("10.0.0.2", "10.0.0.1"))
        with pytest.raises(ConfigError, match=r"pair \('10.0.0.1', '10.0.0.2'\) appears"):
            dm.DelayClassMap.from_json_dict(data)

    def test_first_repeated_pair_in_class_order_named(self):
        a, b, c = ["10.0.0.1", "10.0.0.2"], ["10.0.0.1", "10.0.0.3"], ["10.0.0.2", "10.0.0.3"]
        data = {
            "classes": [
                {"mark": 1, "delay_ms": 10, "pairs": [c, a]},
                {"mark": 2, "delay_ms": 20, "pairs": [b]},
                {"mark": 3, "delay_ms": 30, "pairs": [b, a]},
                {"mark": 9, "delay_ms": 40, "pairs": []},  # reported after the repeat
            ]
        }
        with pytest.raises(ConfigError, match=r"pair \('10.0.0.1', '10.0.0.3'\) appears"):
            dm.DelayClassMap.from_json_dict(data)

    def test_bad_mark_before_a_repeat_reported_first(self):
        pair = ["10.0.0.1", "10.0.0.2"]
        data = {
            "classes": [
                {"mark": 2, "delay_ms": 10, "pairs": [pair]},
                {"mark": 3, "delay_ms": 20, "pairs": [pair]},
            ]
        }
        with pytest.raises(ConfigError, match="marks must be contiguous"):
            dm.DelayClassMap.from_json_dict(data)

    def test_highest_addresses_keep_distinct_pair_codes(self):
        # The codes put the lower address's 32 bits above the higher's.
        data = one_class_json(("0.0.0.1", "255.255.255.255"), ("0.0.0.2", "0.0.0.255"),
                              ("0.0.0.1", "0.0.0.255"), ("0.0.0.0", "255.255.255.254"))
        assert len(dm.DelayClassMap.from_json_dict(data).classes[0].lo) == 4


# Pairs for the differential test: valid ones in both orders, between
# addresses whose text and numeric orders differ, then a self-pair and pairs
# with a string that is not IPv4 (one holding the " . " nft joins a pair with).
_VALID = ["10.0.0.2", "10.0.0.10", "10.0.1.1", "10.0.1.20", "10.1.0.3", "9.255.255.255"]
_DIFF_PAIRS = [(a, b) for a in _VALID for b in _VALID if a != b] + [
    ("10.0.0.2", "10.0.0.2"), ("x", "10.0.0.2"), ("10.0.0.10", "10.0.0.256"),
    ("x .", "10.0.1.1")]


def _outcome(build):
    """The map `build` returns, or the type and message of what it raises."""
    try:
        return build()
    except (ConfigError, ValueError) as exc:
        return type(exc), str(exc)


def _both_ways(classes):
    """Build one map from (mark, delay_ms, pairs) rows in code and from JSON."""
    in_code = _outcome(lambda: dm.DelayClassMap(classes=delay_classes(*classes)))
    data = {"classes": [{"mark": mark, "delay_ms": delay, "pairs": [list(p) for p in pairs]}
                        for mark, delay, pairs in classes]}
    return in_code, _outcome(lambda: dm.DelayClassMap.from_json_dict(data))


@st.composite
def class_rows(draw):
    """Classes of random pairs: some reversed, repeated, self-paired, empty or
    not IPv4, and now and then a mark or delay out of order."""
    rows, delay = [], 0
    for mark in range(1, draw(st.integers(0, 4)) + 1):
        delay += draw(st.sampled_from(19 * [10] + [0]))
        empty = draw(st.integers(0, 19)) == 0
        pairs = [] if empty else draw(st.lists(st.sampled_from(_DIFF_PAIRS), min_size=1,
                                               max_size=3))
        rows.append((draw(st.sampled_from(19 * [mark] + [mark + 1])), delay, pairs))
    return rows


class TestOneRuleSet:
    @given(class_rows())
    @example([(1, 10, [("10.0.0.2", "10.0.0.1")]), (2, 20, [("10.0.0.1", "10.0.0.2")])])
    def test_code_and_json_agree(self, rows):
        in_code, from_json = _both_ways(rows)
        assert in_code == from_json
        if isinstance(in_code, dm.DelayClassMap):
            given_pairs = [frozenset(p) for _, _, pairs in rows for p in pairs]
            held = [pair for c in in_code for pair in c.pairs]
            assert [frozenset(p) for p in held] == given_pairs
            assert len(set(held)) == len(held)
            assert all(make_pair(lo, hi) == (lo, hi) for lo, hi in held)

    @pytest.mark.parametrize("rows, message", [
        ([(1, 10, [("10.0.0.2", "10.0.0.1")]), (2, 20, [("10.0.0.1", "10.0.0.2")])],
         "pair ('10.0.0.1', '10.0.0.2') appears in more than one class"),
        ([(1, 10, [("10.0.0.1", "10.0.0.1")])],
         "a pair needs two distinct addresses, got 10.0.0.1 twice"),
        ([(1, 10, [("x", "y")])], "Expected 4 octets in 'x'"),
    ])
    def test_built_in_code_rejected_with_the_readers_message(self, rows, message):
        in_code, from_json = _both_ways(rows)
        assert in_code == from_json
        assert in_code[1] == message

    def test_reversed_pair_put_in_order(self):
        addrs = ("10.0.0.10", "10.0.0.9")
        cmap = dm.DelayClassMap(classes=(dm.DelayClass(1, 10, [0], [1], addrs),))
        assert cmap.addrs == ("10.0.0.9", "10.0.0.10")
        assert cmap.classes[0].pairs == (("10.0.0.9", "10.0.0.10"),)


class TestReadersOnReloadedMaps:
    @given(st.integers(0, 2**32 - 1))
    @example(seed=0)
    def test_built_and_reloaded_maps_read_the_same(self, seed):
        from latem import nft_planner
        from latem.tc_planner import emit_tc_script, verify_plan

        built = random_class_map(seed, max_nodes=30)
        policy = dm.QuantizationPolicy()
        text = "".join(dm.class_map_json(built, policy))
        reloaded = dm.DelayClassMap.from_json_dict(json.loads(text))
        assert "".join(dm.class_map_json(reloaded, policy)) == text
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nft_planner, "ELEMENT_CHUNK_PAIRS", 7)
            nft = nft_planner.emit_nft_script(built)
            assert text_of(nft_planner.emit_nft_script(reloaded)) == text_of(nft)
        tc = emit_tc_script(built.class_delays(), "veth0", dm.compute_bands(len(built)))
        assert verify_plan(nft, tc, reloaded) == verify_plan(nft, tc, built)
        assert verify_plan(nft, tc, built).ok
