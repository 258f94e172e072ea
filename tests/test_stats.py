from decimal import Decimal

import pytest

from latem.errors import StatsError
from latem.stats import parse_docker_stats, summarize_stats

from conftest import FIXTURES


class TestParseDockerStats:
    def test_fixture_corpus(self):
        samples = parse_docker_stats((FIXTURES / "stats_sample.csv").read_text())
        assert samples["node0001"] == Decimal("28.93")
        assert samples["node0005"] == Decimal("1.2") * 1024
        assert samples["node0006"] == Decimal("512") / 1024
        assert len(samples) == 6

    def test_header_line_skipped(self):
        samples = parse_docker_stats("NAME,MEM USAGE\nnodeA,100MiB / 1GiB\n")
        assert samples == {"nodeA": Decimal(100)}

    def test_malformed_line_rejected(self):
        with pytest.raises(StatsError):
            parse_docker_stats("nodeA;100MiB\n")

    def test_unknown_unit_rejected(self):
        with pytest.raises(StatsError):
            parse_docker_stats("nodeA,100QiB / 1GiB\n")


class TestSummarize:
    def test_single_node_percent(self):
        (cp,) = summarize_stats({"boot": {"n1": Decimal(100)}}, available_mib=1000)
        assert cp.percent_of_available == Decimal(10)
        assert cp.total_mib == Decimal(100)
        assert cp.min_mib == cp.max_mib == cp.avg_mib == Decimal(100)

    def test_total_is_exact_sum(self):
        samples = {f"n{i}": Decimal("327.211") for i in range(750)}
        (cp,) = summarize_stats({"exec-started": samples}, available_mib=393216)
        assert cp.total_mib == Decimal("245408.25")
        assert cp.avg_mib == Decimal("327.211")

    def test_count_times_avg_equals_total(self):
        samples = {"a": Decimal("1.25"), "b": Decimal("2.5"), "c": Decimal("0.75")}
        (cp,) = summarize_stats({"cp": samples}, available_mib=100)
        assert cp.avg_mib * cp.nodes == cp.total_mib

    def test_avg_reconstruction_bounded_by_division_precision(self):
        samples = {"a": Decimal(1), "b": Decimal(1), "c": Decimal(2)}
        (cp,) = summarize_stats({"cp": samples}, available_mib=100)
        assert abs(cp.avg_mib * cp.nodes - cp.total_mib) < Decimal("1e-20")

    def test_empty_checkpoint_rejected(self):
        with pytest.raises(StatsError):
            summarize_stats({"cp": {}}, available_mib=100)

    def test_bad_available(self):
        with pytest.raises(StatsError):
            summarize_stats({"cp": {"n": Decimal(1)}}, available_mib=0)

    def test_multiple_checkpoints_ordered(self):
        checkpoints = summarize_stats(
            {
                "boot": {"n1": Decimal(10), "n2": Decimal(30)},
                "steady": {"n1": Decimal(20), "n2": Decimal(40)},
            },
            available_mib=1000,
        )
        assert [cp.name for cp in checkpoints] == ["boot", "steady"]
        assert checkpoints[0].min_mib == 10
        assert checkpoints[1].max_mib == 40
