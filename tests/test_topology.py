import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latem.errors import ConfigError, RetryExhausted
from latem.topology import (
    CONNECTIVITY_ATTEMPTS,
    Graph,
    neighbor_lists,
    nws_graph,
    random_graph,
)

from conftest import degrees, is_connected

ORACLE_SEEDS = range(300)


def _nx_edges(g: nx.Graph) -> frozenset[tuple[int, int]]:
    return frozenset((min(u, v), max(u, v)) for u, v in g.edges())


def _nx_random_edges(n: int, degree: int, seed: int) -> frozenset[tuple[int, int]] | None:
    """networkx's regular graph under random_graph's retry rule; None if none connected."""
    for attempt in range(CONNECTIVITY_ATTEMPTS):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            return _nx_edges(g)
    return None


class TestNwsGraph:
    def test_pure_ring(self):
        g = nws_graph(4, 2, 0, seed=1)
        assert len(g.edges) == 4
        assert degrees(g) == [2] * 4
        assert is_connected(g)

    def test_lattice_edge_count(self):
        g = nws_graph(6, 4, 0, seed=1)
        assert len(g.edges) == 6 * 4 // 2
        assert degrees(g) == [4] * 6

    def test_full_shortcut_probability_bounds(self):
        g = nws_graph(100, 2, 1, seed=5)
        assert 100 <= len(g.edges) <= 200
        assert is_connected(g)

    def test_lattice_is_subgraph(self):
        base = nws_graph(30, 4, 0, seed=9)
        augmented = nws_graph(30, 4, 0.5, seed=9)
        assert base.edges <= augmented.edges

    def test_deterministic_per_seed(self):
        assert nws_graph(40, 4, 0.3, seed=7) == nws_graph(40, 4, 0.3, seed=7)

    def test_seed_changes_shortcuts(self):
        a = nws_graph(60, 4, 0.8, seed=1)
        b = nws_graph(60, 4, 0.8, seed=2)
        assert a != b  # overwhelmingly likely at p=0.8 over 120 lattice edges

    @pytest.mark.parametrize(
        "n,k,p",
        [(4, 3, 0.1), (4, 0, 0.1), (3, 4, 0.1), (10, 2, -0.1), (10, 2, 1.5)],
    )
    def test_parameter_validation(self, n, k, p):
        with pytest.raises(ConfigError):
            nws_graph(n, k, p, seed=0)

    @given(st.integers(0, 2**31 - 1))
    def test_connected_for_k2(self, seed):
        g = nws_graph(20, 2, 0.3, seed=seed)
        assert is_connected(g)

    @pytest.mark.parametrize(
        "n,k,p",
        [
            (12, 2, 0.0),
            (12, 2, 1.0),
            (7, 2, 0.5),
            (30, 4, 0.3),
            (41, 8, 0.1),
            (5, 4, 0.7),  # k = n - 1: every shortcut hits the saturation break
            (9, 8, 1.0),
            (10, 6, 0.9),  # near-saturated nodes retry the choice many times
        ],
    )
    def test_edges_equal_networkx(self, n, k, p):
        for seed in ORACLE_SEEDS:
            expected = _nx_edges(nx.newman_watts_strogatz_graph(n, k, p, seed=seed))
            assert nws_graph(n, k, p, seed).edges == expected, seed


class TestRandomGraph:
    def test_two_nodes_single_edge(self):
        g = random_graph(2, 1, seed=0)
        assert g.edges == frozenset({(0, 1)})

    def test_deterministic(self):
        assert random_graph(10, 3, seed=4) == random_graph(10, 3, seed=4)

    def test_negative_degree_rejected(self):
        with pytest.raises(ConfigError, match="degree must be >= 0, got -2"):
            random_graph(10, -2, seed=0)

    def test_degree_at_least_n_rejected(self):
        with pytest.raises(ConfigError):
            random_graph(5, 5, seed=0)

    def test_odd_product_rejected(self):
        with pytest.raises(ConfigError):
            random_graph(5, 3, seed=0)

    def test_never_connected_exhausts_retries(self):
        # every 1-regular graph on four nodes is two disjoint edges
        with pytest.raises(RetryExhausted):
            random_graph(4, 1, seed=0)

    def test_regular_and_connected(self):
        g = random_graph(24, 4, seed=11)
        assert degrees(g) == [4] * 24
        assert is_connected(g)

    @pytest.mark.parametrize(
        "n,degree",
        [
            (1, 0),
            (2, 0),  # never connected: every attempt fails
            (2, 1),
            (6, 1),  # never connected: every attempt fails
            (10, 3),  # odd degree on an even n
            (8, 7),  # degree = n - 1: the complete graph
            (12, 2),  # first attempt often disconnected, so retries run
            (20, 4),
            (16, 5),
        ],
    )
    def test_edges_equal_networkx(self, n, degree):
        for seed in ORACLE_SEEDS:
            expected = _nx_random_edges(n, degree, seed)
            if expected is None:
                with pytest.raises(RetryExhausted):
                    random_graph(n, degree, seed)
                continue
            assert random_graph(n, degree, seed).edges == expected, seed

    def test_oracle_seeds_exercise_the_retry(self):
        first_attempts = (nx.random_regular_graph(2, 12, seed=s) for s in ORACLE_SEEDS)
        assert not all(nx.is_connected(g) for g in first_attempts)


class TestNeighborLists:
    def test_ring_adjacency(self):
        g = nws_graph(4, 2, 0, seed=0)
        ids = dict(enumerate(["a", "b", "c", "d"]))
        lists = neighbor_lists(g, ids)
        assert lists["a"] == ["b", "d"]

    def test_single_node(self):
        lists = neighbor_lists(Graph(n=1, edges=frozenset()), {0: "a"})
        assert lists == {"a": []}

    def test_missing_id_rejected(self):
        g = nws_graph(4, 2, 0, seed=0)
        with pytest.raises(ConfigError):
            neighbor_lists(g, {0: "a", 1: "b", 2: "c"})

    @given(st.integers(0, 2**31 - 1))
    def test_symmetry(self, seed):
        g = random_graph(12, 3, seed=seed)
        ids = {i: f"n{i}" for i in range(12)}
        lists = neighbor_lists(g, ids)
        for name, nbrs in lists.items():
            for other in nbrs:
                assert name in lists[other]

    def test_lists_sorted(self):
        g = random_graph(16, 5, seed=3)
        lists = neighbor_lists(g, {i: f"n{i:02d}" for i in range(16)})
        for nbrs in lists.values():
            assert nbrs == sorted(nbrs)


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            Graph(n=3, edges=frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            Graph(n=3, edges=frozenset({(0, 3)}))

    def test_rejects_unordered_pair(self):
        with pytest.raises(ConfigError):
            Graph(n=3, edges=frozenset({(2, 1)}))

    def test_edge_list_text(self):
        g = Graph(n=3, edges=frozenset({(0, 2), (0, 1)}))
        assert g.to_edge_list_text() == "0 1\n0 2\n"
