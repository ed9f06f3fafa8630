import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from thinlab.elements import identity_permutation, multiply
from thinlab.groups import (
    BudgetExceeded,
    GeneratorSet,
    bfs_closure,
    cyclic_generators,
    direct_product_of_cyclic,
    sl2_generators,
    symmetric_generators,
)
from thinlab import pra as pra_mod
from thinlab.graphs import components, schreier_graph
from thinlab.pra import (
    EpiTuple,
    PraMove,
    _tv_to_uniform,
    all_moves,
    apply_move,
    enumerate_epi,
    pra_graph,
    pra_walk,
    transitivity_report,
)
from thinlab.spectra import lambda1


def brute_epi(group, n):
    """Oracle: the generating tuples, each tested with a set-based closure
    over GroupElements, in itertools.product order."""
    out = []
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
            out.append(tup)
    return out


def brute_epi_count(group, n):
    return len(brute_epi(group, n))


def apply_move_columns(group, n):
    """The move graph's columns as the per-tuple loop built them: column t
    holds the Epi position of apply_move(tuple, all_moves(n)[t])."""
    epis = enumerate_epi(group, n)
    position = {t.indices: idx for idx, t in enumerate(epis)}
    moves = []
    for move in all_moves(n):
        images = np.empty(len(epis), dtype=np.int32)
        for idx, t in enumerate(epis):
            images[idx] = position[apply_move(t, move).indices]
        moves.append(images)
    return moves


def walk(group, n, steps, seed, checkpoints=None):
    """pra_walk on the move graph of Epi(F_n, G)."""
    graph = pra_graph(group, n)
    return pra_walk(graph, components(graph), steps, seed, checkpoints)


def numpy_scalar_walk(graph, steps, seed, checkpoints=None):
    """The walk loop as it stepped on numpy scalars, kept verbatim as the
    oracle: returns (visits, tv_distance, tv_checkpoints)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not graph.n_vertices:
        raise ValueError("Epi set is empty")
    start = 0  # epis are sorted by encoding
    component = components(graph)[0]

    if checkpoints is None:
        marks = sorted({steps // 4, steps // 2, (3 * steps) // 4, steps} - {0})
    else:
        marks = sorted({int(c) for c in checkpoints if 0 < int(c) <= steps})

    rng = np.random.default_rng(seed)
    visits = np.zeros(graph.n_vertices, dtype=np.int64)
    tv_marks = []
    state = start
    if steps and graph.degree:
        coins = rng.integers(0, 2, size=steps)
        picks = rng.integers(0, graph.degree, size=steps)
        markset = set(marks)
        nbrs = graph.neighbors
        for t in range(steps):
            if coins[t]:
                state = int(nbrs[state, picks[t]])
            visits[state] += 1
            if (t + 1) in markset:
                tv_marks.append((t + 1, _tv_to_uniform(visits, t + 1, component)))
    elif steps:
        # no moves (arity 1): the walk sits still
        visits[state] = steps
        for m in marks:
            partial = np.zeros_like(visits)
            partial[state] = m
            tv_marks.append((m, _tv_to_uniform(partial, m, component)))

    tv = _tv_to_uniform(visits, steps, component)
    return visits, tv, tuple(tv_marks)


ORACLE_CASES = [
    (direct_product_of_cyclic([2, 2]), 2),
    (symmetric_generators(3), 2),
    (cyclic_generators(6), 2),
    (symmetric_generators(3), 3),
    (symmetric_generators(4), 2),
]
ORACLE_IDS = ["V4_n2", "S3_n2", "Z6_n2", "S3_n3", "S4_n2"]


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

    @pytest.fixture
    def closed_sets(self, monkeypatch):
        """Records the sets array of every closure_orders call of the scan."""
        calls = []
        original = pra_mod.closure_orders

        def counting(columns, sets):
            calls.append(sets)
            return original(columns, sets)

        monkeypatch.setattr(pra_mod, "closure_orders", counting)
        return calls

    def test_one_closure_per_generator_set(self, s3, closed_sets):
        # the 6^3 triples of S3 hold C(6,1) + C(6,2) + C(6,3) = 41 distinct
        # sets, all closed in the one chunk's closure_orders call
        enumerate_epi(s3, 3)
        (sets,) = closed_sets
        assert sets.shape == (41, 3)
        assert len({frozenset(row) for row in sets.tolist()}) == 41

    def test_sets_closed_by_an_earlier_chunk_are_not_closed_again(
        self, s3, closed_sets, monkeypatch
    ):
        # 10 triples per chunk: 22 chunks, each closing only its sets that
        # no earlier chunk closed, so the 41 sets are still closed once each
        expected = [t.indices for t in enumerate_epi(s3, 3)]
        closed_sets.clear()
        monkeypatch.setattr(pra_mod, "CHUNK", 30)
        assert [t.indices for t in enumerate_epi(s3, 3)] == expected
        closed = [frozenset(row) for sets in closed_sets for row in sets.tolist()]
        assert len(closed) == len(set(closed)) == 41
        assert len(closed_sets) == 22

    @pytest.mark.parametrize("gens,n", ORACLE_CASES, ids=ORACLE_IDS)
    def test_order_is_encoding_order_of_brute_force_tuples(self, gens, n):
        group = bfs_closure(gens)
        expected = sorted(brute_epi(group, n), key=lambda tup: EpiTuple(group, tup).encoding)
        assert [t.indices for t in enumerate_epi(group, n)] == expected

    def test_encoding_order_is_not_index_order(self):
        # Z257's encodings are little-endian u32 images, so their byte order
        # differs from the elements' index order; 257 is prime, so every
        # element but the identity (index 0) generates
        group = bfs_closure(cyclic_generators(257))
        gens = [(i,) for i in range(1, group.order)]
        expected = sorted(gens, key=lambda tup: EpiTuple(group, tup).encoding)
        assert expected != sorted(gens)
        assert [t.indices for t in enumerate_epi(group, 1)] == expected

    def test_huge_arity_refused_without_the_power(self):
        group = bfs_closure(symmetric_generators(4))
        began = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="enumerate_epi"):
            enumerate_epi(group, 10_000_000)
        assert time.perf_counter() - began < 4.0  # 24^(10^7) alone takes seconds


class TestMoves:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_move_count(self, n):
        moves = all_moves(n)
        assert len(moves) == 4 * n * (n - 1)
        assert len(set(moves)) == len(moves)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_move_arrays_are_the_fields_of_all_moves(self, n):
        i, j, left, negative = pra_mod._move_arrays(n)
        moves = all_moves(n)
        assert i.tolist() == [m.i for m in moves]
        assert j.tolist() == [m.j for m in moves]
        assert left.tolist() == [m.side == "left" for m in moves]
        assert negative.tolist() == [m.sign == -1 for m in moves]

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
    @pytest.mark.parametrize("gens,n", ORACLE_CASES, ids=ORACLE_IDS)
    def test_columns_are_epi_positions_of_apply_move(self, gens, n):
        group = bfs_closure(gens)
        expected = apply_move_columns(group, n)
        graph = pra_graph(group, n)
        assert graph.degree == len(expected) == 4 * n * (n - 1)
        for t, column in enumerate(expected):
            assert np.array_equal(graph.neighbors[:, t], column)

    @pytest.mark.parametrize(
        "gens", [symmetric_generators(3), symmetric_generators(4), sl2_generators(3)],
        ids=["S3", "S4", "SL2(F3)"],
    )
    def test_oracle_does_not_read_the_multiplication_table(self, gens):
        # a transposed table swaps left and right moves in the columns; the
        # oracle multiplies the elements, so it must catch that
        group = bfs_closure(gens)
        group._mul_table = group.multiplication_table().T.copy()
        expected = np.stack(apply_move_columns(group, 2), axis=1)
        assert not np.array_equal(pra_graph(group, 2).neighbors, expected)

    def test_empty_epi_gives_empty_graph(self):
        # Z2^3 needs three generators
        group = bfs_closure(direct_product_of_cyclic([2, 2, 2]))
        graph = pra_graph(group, 2)
        assert graph.neighbors.shape == (0, 8) and enumerate_epi(group, 2) == []

    def test_move_graph_entries_capped_before_any_column(self, v4, monkeypatch):
        # 6 tuples x 8 moves = 48 neighbor entries; the scan's 16 candidates fit
        assert pra_graph(v4, 2, budget=48).neighbors.size == 48

        def no_columns(n):
            raise AssertionError("moves listed after the budget check failed")

        monkeypatch.setattr(pra_mod, "_move_arrays", no_columns)
        with pytest.raises(BudgetExceeded, match="move graph"):
            pra_graph(v4, 2, budget=47)

    def test_trivial_group_refused_before_the_scan_decodes(self, monkeypatch):
        # Z1 passes the candidate budget at any arity; its one tuple's
        # 4n(n-1) moves do not
        group = bfs_closure(cyclic_generators(1))

        def no_decode(codes, size, n):
            raise AssertionError("Epi scan decoded after the move budget check failed")

        monkeypatch.setattr(pra_mod, "_digits", no_decode)
        with pytest.raises(BudgetExceeded, match="move graph"):
            pra_graph(group, 10**6)

    def test_trivial_group_at_large_arity_refused(self):
        # one tuple, 4 * 2000 * 1999 loops
        group = bfs_closure(cyclic_generators(1))
        began = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="move graph"):
            pra_graph(group, 2000)
        assert time.perf_counter() - began < 4.0

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
        orbits = transitivity_report(graph)
        assert len(components(graph)) == len(orbits)
        assert sum(orbits) == graph.n_vertices

    def test_s3_components_match_orbits(self, s3):
        graph = pra_graph(s3, 2)
        orbits = transitivity_report(graph)
        assert len(components(graph)) == len(orbits)
        comp_sizes = sorted((len(c) for c in components(graph)), reverse=True)
        assert comp_sizes == orbits

    def test_non_transitive_instance_cross_oracle(self):
        # arity 1 admits no moves, so every generator is its own orbit
        group = bfs_closure(cyclic_generators(5))
        with pytest.warns(UserWarning):
            graph = pra_graph(group, 1)
        orbits = transitivity_report(graph)
        assert orbits == [1, 1, 1, 1]
        assert len(components(graph)) == len(orbits) == 4

    def test_connectivity_bridges_to_lambda1(self, v4, s3):
        for group in (v4, s3):
            graph = pra_graph(group, 2)
            report = lambda1(graph)
            connected = len(components(graph)) == 1
            assert (report.lambda1 > 1e-12) == connected


def quiet_pra_graph(gens, n):
    """pra_graph of the group gens generate, without the arity-1 warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pra_graph(bfs_closure(gens), n)


def doubled_cycle(n):
    """The n-cycle with every edge doubled: each row repeats both its
    neighbors."""
    x = np.arange(n)
    return schreier_graph(np.stack([(x + 1) % n, (x - 1) % n] * 2, axis=1))


WALK_GRAPHS = {
    "S4_n3": lambda: quiet_pra_graph(symmetric_generators(4), 3),
    "S3_n3": lambda: quiet_pra_graph(symmetric_generators(3), 3),
    "V4_n2": lambda: quiet_pra_graph(direct_product_of_cyclic([2, 2]), 2),
    "Z5_n1": lambda: quiet_pra_graph(cyclic_generators(5), 1),
    "doubled_C7": lambda: doubled_cycle(7),
}


class TestWalk:
    @pytest.mark.parametrize(
        "name,steps,checkpoints",
        [
            ("S4_n3", 100_000, None),
            ("S4_n3", 99_999, None),
            ("S3_n3", 30_000, [1, 7, 999, 30_000, 40_000]),
            ("S3_n3", 1, None),
            ("V4_n2", 5_000, None),
            ("V4_n2", 5_001, [0, 3, 3, 17, 5_001, 5_001, 5_002, 10**6]),
            ("Z5_n1", 100, None),
            ("Z5_n1", 101, [0, 1, 1, 50, 101, 200]),
            ("doubled_C7", 1_001, [0, 1, 1, 2, 500, 1_001, 2_000]),
            ("doubled_C7", 1, [0, 1, 2]),
        ],
        ids=[
            "S4_n3",
            "S4_n3_odd",
            "S3_n3",
            "S3_n3_one_step",
            "V4_n2",
            "V4_n2_odd_marks",
            "Z5_n1",
            "Z5_n1_odd_marks",
            "doubled_C7",
            "doubled_C7_one_step",
        ],
    )
    def test_bit_identical_to_numpy_scalar_walk(self, name, steps, checkpoints):
        graph = WALK_GRAPHS[name]()
        for seed in (0, 1, 2**40 + 3):
            stats = pra_walk(graph, components(graph), steps, seed, checkpoints)
            visits, tv, tv_marks = numpy_scalar_walk(graph, steps, seed, checkpoints)
            assert np.array_equal(stats.visits, visits) and stats.visits.dtype == visits.dtype
            assert stats.tv_distance == tv
            assert stats.tv_checkpoints == tv_marks

    def test_comps_must_start_with_the_start_vertex(self):
        # Z5 at arity 1: four singleton components, vertex 0 in the first
        graph = WALK_GRAPHS["Z5_n1"]()
        comps = components(graph)
        with pytest.raises(ValueError, match="start vertex 0"):
            pra_walk(graph, comps[::-1], 1000, 0)
        with pytest.raises(ValueError, match="start vertex 0"):
            pra_walk(graph, [], 10, 0)

    @pytest.mark.parametrize(
        "name,steps,limit",
        [
            # the Python lists of the 10,080 x 24 move table peaked at 12.2 MB
            ("S4_n3", 100_000, 4_000_000),
            # 24 bytes a step when the coins and picks were kept whole
            ("V4_n2", 10**6, 24 * 10**6),
        ],
        ids=["S4_n3", "V4_n2_per_step"],
    )
    def test_peak_memory(self, name, steps, limit):
        graph = WALK_GRAPHS[name]()
        comps = components(graph)
        pra_walk(graph, comps, 100, 0)
        tracemalloc.start()
        try:
            pra_walk(graph, comps, steps, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_identical_seed_identical_stats(self, v4):
        a = walk(v4, 2, 5000, seed=42)
        b = walk(v4, 2, 5000, seed=42)
        assert np.array_equal(a.visits, b.visits)
        assert a.tv_distance == b.tv_distance
        assert a.tv_checkpoints == b.tv_checkpoints

    def test_different_seed_differs(self, v4):
        a = walk(v4, 2, 5000, seed=1)
        b = walk(v4, 2, 5000, seed=2)
        assert not np.array_equal(a.visits, b.visits)

    def test_zero_steps_is_point_mass(self, v4):
        stats = walk(v4, 2, 0, seed=0)
        assert stats.tv_distance == pytest.approx(1 - 1 / 6)
        assert stats.visits.sum() == 0

    def test_visits_sum_to_steps(self, s3):
        stats = walk(s3, 2, 12345, seed=9)
        assert int(stats.visits.sum()) == 12345
        assert stats.visits[np.setdiff1d(np.arange(len(stats.visits)), stats.component)].sum() == 0

    def test_mixing_on_connected_component(self, v4):
        stats = walk(v4, 2, 100_000, seed=7)
        assert len(stats.component) == 6
        assert stats.tv_distance < 0.05

    def test_tv_roughly_monotone(self, s3):
        # TV at 2T should not exceed TV at T by more than the stated slack
        stats = walk(s3, 2, 80_000, seed=3, checkpoints=[10_000, 20_000, 40_000, 80_000])
        tvs = dict(stats.tv_checkpoints)
        for t in (10_000, 20_000, 40_000):
            assert tvs[2 * t] <= tvs[t] + 0.02

    def test_start_is_lex_least(self, v4):
        stats = walk(v4, 2, 10, seed=0)
        assert stats.start_index == 0

    def test_arity_one_walk_checkpoints_in_range(self):
        group = bfs_closure(cyclic_generators(5))
        with pytest.warns(UserWarning, match="arity 1"):
            stats = walk(group, 1, 100, seed=0)
        assert stats.tv_distance == 0.0  # singleton component, point mass
        assert all(0.0 <= tv <= 1.0 for _, tv in stats.tv_checkpoints)
        assert int(stats.visits.sum()) == 100
