import itertools

import numpy as np
import pytest

from thinlab.elements import identity_permutation, multiply
from thinlab.groups import (
    BudgetExceeded,
    GeneratorSet,
    bfs_closure,
    cyclic_generators,
    direct_product_of_cyclic,
    symmetric_generators,
)
from thinlab.graphs import components
from thinlab.pra import (
    PraMove,
    all_moves,
    apply_move,
    enumerate_epi,
    pra_graph,
    pra_walk,
    transitivity_report,
)
from thinlab.spectra import lambda1


def brute_epi_count(group, n):
    """Oracle: test every tuple with a set-based closure over GroupElements."""
    count = 0
    for tup in itertools.product(range(group.order), repeat=n):
        gens = [group.element(i) for i in tup]
        elems = {group.element(0)}
        frontier = [group.element(0)]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    for y in (multiply(x, g), multiply(g, x)):
                        if y not in elems:
                            elems.add(y)
                            nxt.append(y)
            frontier = nxt
        if len(elems) == group.order:
            count += 1
    return count


@pytest.fixture(scope="module")
def v4():
    return bfs_closure(direct_product_of_cyclic([2, 2]))


@pytest.fixture(scope="module")
def s3():
    return bfs_closure(symmetric_generators(3))


class TestEnumerate:
    def test_v4_has_six_pairs(self, v4):
        epis = enumerate_epi(v4, 2)
        assert len(epis) == 6 == brute_epi_count(v4, 2)

    def test_s3_matches_brute_force(self, s3):
        assert len(enumerate_epi(s3, 2)) == brute_epi_count(s3, 2)

    @pytest.mark.parametrize("gens", [cyclic_generators(6), direct_product_of_cyclic([2, 3])])
    def test_six_element_groups_match_brute_force(self, gens):
        group = bfs_closure(gens)
        assert len(enumerate_epi(group, 2)) == brute_epi_count(group, 2)

    def test_z2_single_generator(self):
        group = bfs_closure(cyclic_generators(2))
        epis = enumerate_epi(group, 1)
        assert len(epis) == 1
        assert epis[0].elements()[0].data.tolist() == [1, 0]

    def test_trivial_group_unique_epimorphism(self):
        group = bfs_closure(GeneratorSet([identity_permutation(1)]))
        epis = enumerate_epi(group, 2)
        assert len(epis) == 1 and epis[0].indices == (0, 0)

    def test_sorted_by_encoding(self, s3):
        epis = enumerate_epi(s3, 2)
        encodings = [t.encoding for t in epis]
        assert encodings == sorted(encodings)

    def test_budget_refuses_to_start(self, s3):
        with pytest.raises(BudgetExceeded):
            enumerate_epi(s3, 2, budget=10)


class TestMoves:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_move_count(self, n):
        moves = all_moves(n)
        assert len(moves) == 4 * n * (n - 1)
        assert len(set(moves)) == len(moves)

    def test_move_inverse_roundtrip(self, v4):
        epis = enumerate_epi(v4, 2)
        rng = np.random.default_rng(0)
        moves = all_moves(2)
        for _ in range(100):
            t = epis[int(rng.integers(len(epis)))]
            m = moves[int(rng.integers(len(moves)))]
            assert apply_move(apply_move(t, m), m.inverse()).indices == t.indices

    def test_moves_preserve_generation(self, s3):
        epis = enumerate_epi(s3, 2)
        valid = {t.indices for t in epis}
        rng = np.random.default_rng(1)
        moves = all_moves(2)
        t = epis[0]
        for _ in range(1000):
            t = apply_move(t, moves[int(rng.integers(len(moves)))])
            assert t.indices in valid

    def test_invalid_move_rejected(self):
        with pytest.raises(ValueError):
            PraMove(1, 1, "left", 1)
        with pytest.raises(ValueError):
            PraMove(0, 1, "sideways", 1)
        with pytest.raises(ValueError):
            PraMove(0, 1, "left", 2)

    def test_move_out_of_range(self, v4):
        t = enumerate_epi(v4, 2)[0]
        with pytest.raises(ValueError, match="out of range"):
            apply_move(t, PraMove(0, 5, "left", 1))


class TestGraph:
    def test_v4_graph_shape(self, v4):
        graph = pra_graph(v4, 2)
        assert graph.n_vertices == 6
        assert graph.degree == 8
        assert len(components(graph)) == 1

    def test_arity_one_degenerate(self):
        group = bfs_closure(cyclic_generators(2))
        with pytest.warns(UserWarning, match="arity 1"):
            graph = pra_graph(group, 1)
        assert graph.n_vertices == 1 and graph.degree == 0

    @pytest.mark.parametrize("spec", [[2, 2], [5], [6]])
    def test_components_match_union_find_orbits(self, spec):
        group = bfs_closure(direct_product_of_cyclic(spec))
        graph = pra_graph(group, 2)
        orbits = transitivity_report(group, 2)
        assert len(components(graph)) == len(orbits)
        assert sum(orbits) == graph.n_vertices

    def test_s3_components_match_orbits(self, s3):
        graph = pra_graph(s3, 2)
        orbits = transitivity_report(s3, 2)
        assert len(components(graph)) == len(orbits)
        comp_sizes = sorted((len(c) for c in components(graph)), reverse=True)
        assert comp_sizes == orbits

    def test_non_transitive_instance_cross_oracle(self):
        # arity 1 admits no moves, so every generator is its own orbit
        group = bfs_closure(cyclic_generators(5))
        with pytest.warns(UserWarning):
            graph = pra_graph(group, 1)
        orbits = transitivity_report(group, 1)
        assert orbits == [1, 1, 1, 1]
        assert len(components(graph)) == len(orbits) == 4

    def test_connectivity_bridges_to_lambda1(self, v4, s3):
        for group in (v4, s3):
            graph = pra_graph(group, 2)
            report = lambda1(graph, method="dense")
            connected = len(components(graph)) == 1
            assert (report.lambda1 > 1e-12) == connected


class TestWalk:
    def test_identical_seed_identical_stats(self, v4):
        a = pra_walk(v4, 2, 5000, seed=42)
        b = pra_walk(v4, 2, 5000, seed=42)
        assert np.array_equal(a.visits, b.visits)
        assert a.tv_distance == b.tv_distance
        assert a.tv_checkpoints == b.tv_checkpoints

    def test_different_seed_differs(self, v4):
        a = pra_walk(v4, 2, 5000, seed=1)
        b = pra_walk(v4, 2, 5000, seed=2)
        assert not np.array_equal(a.visits, b.visits)

    def test_zero_steps_is_point_mass(self, v4):
        stats = pra_walk(v4, 2, 0, seed=0)
        assert stats.tv_distance == pytest.approx(1 - 1 / 6)
        assert stats.visits.sum() == 0

    def test_visits_sum_to_steps(self, s3):
        stats = pra_walk(s3, 2, 12345, seed=9)
        assert int(stats.visits.sum()) == 12345
        assert stats.visits[np.setdiff1d(np.arange(len(stats.visits)), stats.component)].sum() == 0

    def test_mixing_on_connected_component(self, v4):
        stats = pra_walk(v4, 2, 100_000, seed=7)
        assert len(stats.component) == 6
        assert stats.tv_distance < 0.05

    def test_tv_roughly_monotone(self, s3):
        # TV at 2T should not exceed TV at T by more than the stated slack
        stats = pra_walk(s3, 2, 80_000, seed=3, checkpoints=[10_000, 20_000, 40_000, 80_000])
        tvs = dict(stats.tv_checkpoints)
        for t in (10_000, 20_000, 40_000):
            assert tvs[2 * t] <= tvs[t] + 0.02

    def test_start_is_lex_least(self, v4):
        stats = pra_walk(v4, 2, 10, seed=0)
        assert stats.start_index == 0

    def test_arity_one_walk_checkpoints_in_range(self):
        group = bfs_closure(cyclic_generators(5))
        stats = pra_walk(group, 1, 100, seed=0)
        assert stats.tv_distance == 0.0  # singleton component, point mass
        assert all(0.0 <= tv <= 1.0 for _, tv in stats.tv_checkpoints)
        assert int(stats.visits.sum()) == 100
