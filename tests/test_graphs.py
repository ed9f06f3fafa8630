import gc
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinlab.elements import GroupElement, identity_matrix, inverse, multiply
from thinlab.groups import (
    BudgetExceeded,
    GeneratorSet,
    bfs_closure,
    cyclic_generators,
    primitive_root,
    sl2_generators,
    symmetric_generators,
)
from thinlab import graphs as graphs_mod
from thinlab import origami as origami_mod
from thinlab.monodromy import standard_symplectic_generators
from thinlab.origami import origami_graph
from thinlab.pra import _UnionFind, pra_graph
from thinlab.graphs import (
    MultiGraph,
    cayley_graph,
    check_torsion_states,
    components,
    from_edges,
    load_graph,
    quotient_check,
    save_graph,
    schreier_graph,
    to_dot,
    torsion_action,
    torsion_projection,
)
from thinlab.spectra import _symmetry, _symmetry_orbits

TWO_TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


def reference_dump(graph: MultiGraph) -> bytes:
    """Independent oracle for save_graph: one LEB128 varint at a time."""
    buf = bytearray(b"TLG1") + np.array([graph.n_vertices, graph.degree], dtype="<u4").tobytes()
    for row in graph.neighbors:
        prev = 0
        for v in sorted(int(x) for x in row):
            x, prev = v - prev, v
            while x >= 0x80:
                buf.append(x & 0x7F | 0x80)
                x >>= 7
            buf.append(x)
    return bytes(buf)


def components_oracle(g: MultiGraph) -> list[np.ndarray]:
    """Independent oracle for components: a frontier BFS from each unvisited
    vertex in order."""
    n = g.n_vertices
    comp = np.full(n, -1, dtype=np.int64)
    out: list[np.ndarray] = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        cid = len(out)
        comp[start] = cid
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            nxt = np.unique(g.neighbors[frontier].ravel().astype(np.int64))
            nxt = nxt[comp[nxt] < 0]
            comp[nxt] = cid
            frontier = nxt
        out.append(np.flatnonzero(comp == cid))
    return out


def dense_adjacency_oracle(g: MultiGraph) -> np.ndarray:
    """Independent oracle for dense_adjacency: every endpoint added with
    np.add.at."""
    n, k = g.neighbors.shape
    A = np.zeros((n, n), dtype=np.float64)
    rows = np.repeat(np.arange(n), k)
    np.add.at(A, (rows, g.neighbors.ravel()), 1.0)
    return A


# n vertices, r random permutations and their inverses: a 2r-regular
# multigraph with loops and parallel edges, empty for n = 0 and 0-regular
# for r = 0
REGULAR_MULTIGRAPH_ARGS = dict(
    n=st.integers(0, 400),
    r=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)


def random_regular_multigraph(n: int, r: int, seed: int) -> MultiGraph:
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(r):
        perm = rng.permutation(n)
        cols += [perm, np.argsort(perm)]
    return schreier_graph(np.stack(cols, axis=1) if cols else np.empty((n, 0), dtype=np.int32))


def projection_oracle(group, v0) -> np.ndarray:
    """Independent oracle for torsion_projection: invert each element."""
    m = group.modulus
    powers = m ** np.arange(len(v0), dtype=np.int64)
    return np.array(
        [int(((inverse(group.element(i)).data @ v0) % m) @ powers) - 1 for i in range(group.order)]
    )


class TestCayley:
    def test_cyclic_group_gives_cycle(self):
        gens = cyclic_generators(8)
        graph = cayley_graph(bfs_closure(gens), gens)
        assert graph.n_vertices == 8 and graph.degree == 2
        assert len(components(graph)) == 1
        # every vertex has exactly two distinct neighbors on an 8-cycle
        for u in range(8):
            assert len(set(graph.neighbors[u].tolist())) == 2

    def test_sl2_f3(self):
        gens = sl2_generators(3)
        graph = cayley_graph(bfs_closure(gens), gens)
        assert graph.n_vertices == 24 and graph.degree == 4

    def test_trivial_group_all_loops(self):
        e = identity_matrix(2, 5)
        gens = GeneratorSet([e])
        graph = cayley_graph(bfs_closure(gens), gens)
        assert graph.n_vertices == 1 and graph.degree == 2
        assert graph.neighbors.tolist() == [[0, 0]]

    def test_generator_not_in_group(self):
        group = bfs_closure(GeneratorSet([identity_matrix(2, 5)]))
        with pytest.raises(ValueError, match="not in group"):
            cayley_graph(group, sl2_generators(5))

    def test_handshake(self):
        for gens in (sl2_generators(5), cyclic_generators(9)):
            graph = cayley_graph(bfs_closure(gens), gens)
            endpoint_count = graph.neighbors.size
            assert endpoint_count == graph.n_vertices * graph.degree
            assert endpoint_count == 2 * graph.n_edges

    @pytest.mark.parametrize("p", [3, 5])
    def test_vertex_transitive(self, p):
        gens = sl2_generators(p)
        group = bfs_closure(gens)
        graph = cayley_graph(group, gens)
        rng = np.random.default_rng(p)
        for _ in range(5):
            g = group.element(int(rng.integers(group.order)))
            translate = np.array(
                [group.index_of(multiply(g, group.element(q))) for q in range(group.order)]
            )
            # left translation is a graph automorphism
            assert quotient_check(graph, graph, translate)


def lookup_table(group, gens) -> np.ndarray:
    """The Cayley neighbor table by multiplying every element by every
    generator and looking the products up: cayley_graph's oracle."""
    return np.stack([group.right_multiplication_indices(s) for s in gens.symmetrized], axis=1)


def left_products(group, g) -> np.ndarray:
    """g * x for every element x, multiplied out: (g x)(i) = g(x(i)) for
    permutations, the matrix product mod m for matrices."""
    if group.kind == "matrix":
        return np.matmul(g.data, group.stack) % group.modulus
    return g.data[group.stack]


def element_order(g) -> int:
    e = g ** 0
    return next(h for h in itertools.count(1) if g**h == e)


class TestCayleyMoveTable:
    @pytest.mark.parametrize(
        "gens",
        [sl2_generators(13), symmetric_generators(6), standard_symplectic_generators(2, 3)],
        ids=["sl2_13", "S6", "sp4_3"],
    )
    def test_own_generators_share_the_bfs_table(self, gens):
        group = bfs_closure(gens)
        graph = cayley_graph(group, gens)
        assert graph.neighbors is group.moves
        assert not graph.neighbors.flags.writeable
        assert np.array_equal(graph.neighbors, lookup_table(group, gens))

    @pytest.mark.parametrize("p", [5, 13])
    def test_permuted_generators(self, p):
        group = bfs_closure(sl2_generators(p))
        T, S = sl2_generators(p).elements
        for gens in (GeneratorSet([S, T]), GeneratorSet([T]), GeneratorSet([S, S, T])):
            graph = cayley_graph(group, gens)
            assert not np.shares_memory(graph.neighbors, group.moves)
            assert np.array_equal(graph.neighbors, lookup_table(group, gens))

    def test_subgroup_generators_inside_a_larger_group(self):
        full = bfs_closure(sl2_generators(7))
        T = sl2_generators(7).elements[0]
        t_squared = GroupElement.matrix([[1, 2], [0, 1]], 7)
        minus_i = GroupElement.matrix([[6, 0], [0, 6]], 7)
        # none, one and all of the symmetrized generators are the group's own
        for gens in (
            GeneratorSet([t_squared, minus_i]),
            GeneratorSet([T, minus_i]),
            GeneratorSet([T, inverse(T)]),
        ):
            graph = cayley_graph(full, gens)
            assert np.array_equal(graph.neighbors, lookup_table(full, gens))
            assert len(components(graph)) == full.order // bfs_closure(gens).order

    @pytest.mark.parametrize(
        "gens,order",
        [(sl2_generators(7), 7), (symmetric_generators(6), 6), (standard_symplectic_generators(2, 3), 3)],
        ids=["sl2_7", "S6", "sp4_3"],
    )
    def test_symmetry_is_left_multiplication_by_the_longest_generator(self, gens, order):
        # T of order 7, the 6-cycle, and the first of the order-3
        # transvections: the graph names g, and the sigma lambda1 carries
        # down a BFS tree from it is g * x multiplied out and looked up
        group = bfs_closure(gens)
        orders = [element_order(g) for g in gens.elements]
        assert max(orders) == order
        g = gens.elements[orders.index(order)]
        graph = cayley_graph(group, gens)
        assert graph.symmetry == group.index_of(g)
        assert np.array_equal(_symmetry(graph), group.indices(left_products(group, g)))
        assert _symmetry_orbits(graph)[3] == order

    @pytest.mark.parametrize("gens", [sl2_generators(7), symmetric_generators(5)], ids=["sl2_7", "S5"])
    def test_any_start_names_left_multiplication(self, gens):
        # left multiplication by any element commutes with every right
        # multiplication, so every vertex names one: element(i) * x
        group = bfs_closure(gens)
        graph = cayley_graph(group, gens)
        for start in np.random.default_rng(7).choice(group.order, 8, replace=False).tolist():
            graph.symmetry = start
            want = group.indices(left_products(group, group.element(start)))
            assert np.array_equal(_symmetry(graph), want)

    def test_symmetry_of_other_generators(self):
        # t^2 (order 7) and -I (order 2) inside SL2(F7): the graph's own
        # listed generator of largest order, not the group's; the graph has
        # 24 components, so no sigma is carried from vertex 0 to all of it
        full = bfs_closure(sl2_generators(7))
        t_squared = GroupElement.matrix([[1, 2], [0, 1]], 7)
        minus_i = GroupElement.matrix([[6, 0], [0, 6]], 7)
        graph = cayley_graph(full, GeneratorSet([minus_i, t_squared]))
        assert graph.symmetry == full.index_of(t_squared)
        assert _symmetry(graph) is None

    def test_graph_holds_neither_the_elements_nor_the_bfs_tree(self):
        # the symmetry is one vertex: the graph keeps the shared move table
        # and nothing else of the group
        gens = sl2_generators(13)
        group = bfs_closure(gens)
        graph = cayley_graph(group, gens)
        held = [weakref.ref(a) for a in (group.stack, group._parents, group._steps)]
        del group
        gc.collect()
        assert [ref() for ref in held] == [None] * 3
        assert graph.symmetry == 1  # T, the first element of the BFS after the identity

    def test_no_symmetry_from_the_identity(self):
        # the identity names sigma = identity: every orbit one vertex, h = 1
        gens = cyclic_generators(1)
        graph = cayley_graph(bfs_closure(gens), gens)
        assert graph.symmetry == 0
        assert _symmetry_orbits(graph)[3] == 1

    def test_other_modulus_is_not_the_groups_own(self):
        # T mod 5 and T mod 7 have the same entries but are not the same element
        group = bfs_closure(sl2_generators(5))
        with pytest.raises(ValueError, match="not in group"):
            cayley_graph(group, sl2_generators(7))

    def test_closure_and_cayley_peak_memory(self):
        # the graph shares the group's move table: neither the columns of
        # right_multiplication_indices nor a second table are built
        gens = sl2_generators(47)
        tracemalloc.start()
        try:
            group = bfs_closure(gens)
            graph = cayley_graph(group, gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.order == 103_776 and graph.neighbors is group.moves
        assert peak <= 17_000_000


class TestComponents:
    def test_search_is_kept_on_the_graph(self, monkeypatch):
        # lambda1's search is the graph's: components builds no sparse
        # adjacency after it, and the arrays it shares are read-only
        from thinlab.spectra import lambda1

        gens = sl2_generators(5)
        graph = cayley_graph(bfs_closure(gens), gens)
        lambda1(graph)
        monkeypatch.setattr(graph, "adjacency", lambda: pytest.fail("adjacency rebuilt"))
        comps = components(graph)
        assert len(comps) == 1 and np.array_equal(comps[0], np.arange(120))
        assert not comps[0].flags.writeable
        comps.clear()
        assert len(components(graph)) == 1
        two = from_edges(6, TWO_TRIANGLES)
        assert [c.tolist() for c in components(two)] == [[0, 1, 2], [3, 4, 5]]
        assert not any(c.flags.writeable for c in components(two))

    def test_cycle_connected(self):
        gens = cyclic_generators(10)
        assert len(components(cayley_graph(bfs_closure(gens), gens))) == 1

    def test_two_triangles(self):
        comps = components(from_edges(6, TWO_TRIANGLES))
        assert len(comps) == 2
        assert sorted(tuple(c.tolist()) for c in comps) == [(0, 1, 2), (3, 4, 5)]

    def test_strong_approximation_bridge(self):
        # connectivity of the Cayley graph over the full group coincides
        # with surjectivity of the generator image
        full = bfs_closure(sl2_generators(3))
        t_squared = GroupElement.matrix([[1, 2], [0, 1]], 3)
        minus_i = GroupElement.matrix([[2, 0], [0, 2]], 3)
        subgens = GeneratorSet([t_squared, minus_i])
        subgroup = bfs_closure(subgens)
        assert subgroup.order == 6  # proper subgroup
        graph = cayley_graph(full, subgens)
        comps = components(graph)
        assert len(comps) == full.order // subgroup.order == 4

        graph_full = cayley_graph(full, sl2_generators(3))
        assert len(components(graph_full)) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 23), min_size=1, max_size=3))
    def test_bridge_holds_for_random_generator_subsets(self, indices):
        # any subset of SL2(F3) elements: connectivity of the Cayley graph
        # over the full group must coincide with generating the full group
        full = bfs_closure(sl2_generators(3))
        gens = GeneratorSet([full.element(i) for i in indices])
        closure = bfs_closure(gens)
        graph = cayley_graph(full, gens)
        comps = components(graph)
        assert (len(comps) == 1) == (closure.order == full.order)
        assert len(comps) == full.order // closure.order
        assert all(len(c) == closure.order for c in comps)

    @settings(max_examples=60, deadline=None)
    @given(**REGULAR_MULTIGRAPH_ARGS)
    @example(n=1, r=0, seed=0)  # N = 1 and k = 0
    @example(n=1, r=2, seed=0)  # N = 1: loops only
    @example(n=7, r=0, seed=0)  # k = 0: one component per vertex
    @example(n=3, r=3, seed=0)  # loops and parallel edges
    @example(n=12, r=1, seed=0)  # interleaved cycle components
    def test_matches_union_find(self, n, r, seed):
        graph = random_regular_multigraph(n, r, seed)
        uf = _UnionFind(n)
        for x, row in enumerate(graph.neighbors.tolist()):
            for y in row:
                uf.union(x, y)
        members: dict[int, list[int]] = {}
        for x in range(n):
            members.setdefault(uf.find(x), []).append(x)
        assert [c.tolist() for c in components(graph)] == list(members.values())

    @staticmethod
    def long_graph(shape: str, n: int) -> MultiGraph:
        """A cycle through the n vertices in random order, or the path
        0, 2, 4, ..., 1, 3, 5, ... as two involutions whose fixed points
        are its ends: both are far from a labelling that min-label
        propagation would settle in few rounds."""
        if shape == "random cycle":
            order = np.random.default_rng(3).permutation(n)
            succ = np.empty(n, dtype=np.int64)
            succ[order] = np.roll(order, -1)
            return schreier_graph(np.stack([succ, np.argsort(succ)], axis=1))
        order = np.r_[0:n:2, 1:n:2]
        moves = []
        for first in (0, 1):
            move = np.arange(n)
            a, b = order[first:-1:2], order[first + 1 :: 2]
            move[a], move[b] = b, a
            moves.append(move)
        return schreier_graph(np.stack(moves, axis=1))

    @pytest.mark.parametrize("shape", ["random cycle", "evens then odds path"])
    def test_rounds_are_logarithmic(self, shape, monkeypatch):
        # plain min-label propagation took 26,089 rounds (108 s) on the
        # random cycle; hooking with contraction takes 2 ceil(log2 N)
        # rounds at most, the first of them the row minimum
        n = 100_000
        graph = self.long_graph(shape, n)
        rounds = [1]
        contract = graphs_mod._contract

        def counted(*args):
            rounds.append(1)
            return contract(*args)

        monkeypatch.setattr(graphs_mod, "_contract", counted)
        t0 = time.perf_counter()
        comps = components(graph)
        elapsed = time.perf_counter() - t0
        assert len(comps) == 1 and np.array_equal(comps[0], np.arange(n))
        assert len(rounds) <= 2 * math.ceil(math.log2(n)) + 2
        assert elapsed < 5.0

    def test_no_sparse_graph_or_solver_modules_imported(self):
        # components need no scipy.sparse.csgraph, which would pull in
        # scipy.sparse.linalg, and nothing else of thinlab imports either
        script = "import sys, thinlab.cli; print([m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') if m in sys.modules])"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @settings(max_examples=60, deadline=None)
    @given(**REGULAR_MULTIGRAPH_ARGS)
    @example(n=0, r=2, seed=0)  # empty graph
    @example(n=7, r=0, seed=0)  # k = 0: one component per vertex
    @example(n=3, r=3, seed=0)  # loops and parallel edges
    @example(n=12, r=1, seed=0)  # interleaved cycle components
    def test_matches_bfs_oracle(self, n, r, seed):
        graph = random_regular_multigraph(n, r, seed)
        got, want = components(graph), components_oracle(graph)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == np.int64 and np.array_equal(a, b)
        assert np.array_equal(graph.dense_adjacency(), dense_adjacency_oracle(graph))


def per_move_rule(moves):
    """Oracle for schreier_graph's checks, one move (column) at a time:
    every move is a bijection of range(n), and each move's inverse occurs
    as often as the move itself."""
    n = moves.shape[0]
    moves = list(moves.T)
    ident = np.arange(n)
    for m in moves:
        if m.shape != (n,) or not np.array_equal(np.sort(m), ident):
            return False
    counts = {}
    for m in moves:
        counts[m.tobytes()] = counts.get(m.tobytes(), 0) + 1
    return all(
        counts.get(np.argsort(m).astype(np.int64).tobytes(), 0) == counts[m.tobytes()]
        for m in moves
    )


@st.composite
def move_arrays(draw):
    """An (n, k) int64 move array: permutations, some of their inverses (so
    that the set is often closed), and at times an arbitrary column that may
    be out of range."""
    n = draw(st.integers(0, 4))
    perms = draw(st.lists(st.permutations(range(n)), max_size=4))
    moves = perms + [list(np.argsort(p)) for p in perms if draw(st.booleans())]
    moves += draw(st.lists(st.lists(st.integers(-1, n), min_size=n, max_size=n), max_size=1))
    moves = draw(st.permutations(moves))
    return np.array(moves, dtype=np.int64).reshape(len(moves), n).T


class TestSchreier:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_torsion_vertex_count(self, ell):
        graph = schreier_graph(torsion_action(sl2_generators(ell)))
        assert graph.n_vertices == ell**2 - 1
        assert graph.degree == 4
        assert len(components(graph)) == 1  # SL2 transitive on nonzero vectors

    @pytest.mark.parametrize("p,dim", [(3, 2), (5, 2), (31, 2), (3, 4)])
    def test_torsion_symmetry_is_scalar_multiplication(self, p, dim):
        # the least r whose powers are all of F_p^*: r e_1 has base-p code
        # r, and the sigma carried from vertex r - 1 is r times each state's
        # vector, coded as torsion_action codes it
        r = next(r for r in range(2, p) if len({pow(r, e, p) for e in range(p - 1)}) == p - 1)
        assert primitive_root(p) == r
        gens = sl2_generators(p) if dim == 2 else standard_symplectic_generators(dim // 2, p)
        graph = schreier_graph(torsion_action(gens), symmetry=r - 1)
        expected = []
        for x in range(p**dim - 1):
            digits = [(x + 1) // p**i % p for i in range(dim)]
            expected.append(sum(r * d % p * p**i for i, d in enumerate(digits)) - 1)
        assert _symmetry(graph).tolist() == expected
        assert _symmetry_orbits(graph)[3] == p - 1

    @pytest.mark.parametrize("m", [2, 9, 15])
    def test_no_torsion_symmetry_off_odd_primes(self, m):
        # the sweep names r e_1 for the least primitive root r mod p: at
        # p = 2 that is 1, so sigma is the identity and h = 1, and off the
        # primes there is no primitive root to name
        if m != 2:
            with pytest.raises(ValueError, match="not prime"):
                primitive_root(m)
            return
        graph = schreier_graph(torsion_action(sl2_generators(m)), symmetry=primitive_root(m) - 1)
        assert graph.symmetry == 0
        assert _symmetry(graph).tolist() == [0, 1, 2]
        assert _symmetry_orbits(graph)[3] == 1

    def test_torsion_states_capped_by_budget(self, monkeypatch):
        gens = sl2_generators(31)  # 31^2 - 1 = 960 states
        with pytest.raises(BudgetExceeded, match="torsion_action"):
            torsion_action(gens, budget=959)
        assert torsion_action(gens, budget=960).shape == (960, 4)
        monkeypatch.setenv("THINLAB_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            torsion_action(gens)

    def test_torsion_state_check_is_exact_at_the_budget(self):
        assert check_torsion_states(31, 2, budget=960) == 960
        with pytest.raises(BudgetExceeded) as exc_info:
            check_torsion_states(31, 2, budget=959)
        assert str(exc_info.value) == "torsion_action: 31^2 - 1 states over the limit of 959"
        assert exc_info.value.budget == 959
        assert check_torsion_states(2, 1, budget=1) == 1

    def test_torsion_state_check_never_forms_a_huge_power(self):
        # 3^(2 * 10^7) has 9.5 million digits; forming it took seconds
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc_info:
            check_torsion_states(3, 2 * 10**7, budget=2_000_000)
        assert time.perf_counter() - start < 0.1
        assert str(exc_info.value) == (
            "torsion_action: 3^20000000 - 1 states over the limit of 2000000"
        )

    def test_identity_moves_give_loops(self):
        n = 5
        ident = np.arange(n, dtype=np.int32)
        graph = schreier_graph(np.stack([ident, ident], axis=1), label="trivial")
        assert graph.degree == 2 and graph.label == "trivial"
        assert all(graph.neighbors[u].tolist() == [u, u] for u in range(n))
        assert len(components(graph)) == n

    def test_move_must_be_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            schreier_graph(np.array([[0], [0]]))

    def test_moves_must_be_inversion_closed(self):
        three_cycle = np.array([1, 2, 0])
        with pytest.raises(ValueError, match="inversion"):
            schreier_graph(three_cycle[:, np.newaxis])
        # fine once the inverse is included
        schreier_graph(np.stack([three_cycle, np.argsort(three_cycle)], axis=1))

    def test_move_ids_beyond_int32_rejected_before_the_cast(self):
        # 2^32 would wrap to state 0, the identity on one state
        with pytest.raises(ValueError, match="out of range"):
            schreier_graph(np.array([[2**32]]))
        with pytest.raises(ValueError, match="2-d"):
            schreier_graph(np.array([0]))

    @settings(max_examples=300, deadline=None)
    @given(move_arrays())
    def test_whole_array_checks_match_the_per_move_rule(self, moves):
        try:
            schreier_graph(moves)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == per_move_rule(moves)


class TestQuotient:
    @pytest.mark.parametrize("ell", [3, 5])
    def test_cayley_to_torsion_schreier(self, ell):
        gens = sl2_generators(ell)
        group = bfs_closure(gens)
        cay = cayley_graph(group, gens)
        sch = schreier_graph(torsion_action(gens))
        proj = torsion_projection(group)
        assert quotient_check(cay, sch, proj)

    @pytest.mark.parametrize(
        "gens,v0",
        [
            (sl2_generators(5), [1, 0]),
            (sl2_generators(7), [3, 5]),
            (sl2_generators(11), [0, 1]),
            (standard_symplectic_generators(2, 2), [1, 0, 1, 1]),
        ],
    )
    def test_projection_matches_per_element_inverses(self, gens, v0):
        group = bfs_closure(gens)
        cay, sch = cayley_graph(group, gens), schreier_graph(torsion_action(gens))
        e1 = np.eye(group.stack.shape[1], dtype=np.int64)[0]
        proj = torsion_projection(group)
        assert np.array_equal(proj, projection_oracle(group, e1))
        assert quotient_check(cay, sch, proj)
        # any nonzero base vector gives a quotient map onto the orbit graph
        assert quotient_check(cay, sch, projection_oracle(group, np.array(v0)))

    def test_quotient_check_peak_memory(self):
        # bytes per Cayley neighbor entry on the p = 41 torsion pair
        # (275,520 entries): both sides as int32 tables sorted in place, and
        # a mark per Schreier vertex; six int64 (N, k) arrays and np.unique
        # took 24 B
        gens = sl2_generators(41)
        group = bfs_closure(gens)
        cay, sch = cayley_graph(group, gens), schreier_graph(torsion_action(gens))
        proj = torsion_projection(group)
        tracemalloc.start()
        try:
            assert quotient_check(cay, sch, proj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 14 * cay.neighbors.size

    def test_identity_projection(self):
        gens = cyclic_generators(6)
        graph = cayley_graph(bfs_closure(gens), gens)
        assert quotient_check(graph, graph, np.arange(6))

    def test_projection_to_point(self):
        gens = cyclic_generators(6)
        graph = cayley_graph(bfs_closure(gens), gens)
        point = from_edges(1, [(0, 0)])  # one vertex, one loop, k = 2
        assert quotient_check(graph, point, np.zeros(6, dtype=int))

    def test_non_surjective_rejected(self):
        gens = cyclic_generators(4)
        graph = cayley_graph(bfs_closure(gens), gens)
        with pytest.raises(ValueError, match="surjective"):
            quotient_check(graph, graph, np.zeros(4, dtype=int))

    def test_wrong_quotient_detected(self):
        # project the 6-cycle onto the triangle by reduction mod 3, then
        # mangle one fiber; vertices are in BFS discovery order, so recover
        # each shift amount from the permutation itself
        hex_group = bfs_closure(cyclic_generators(6))
        hexagon = cayley_graph(hex_group, cyclic_generators(6))
        tri_group = bfs_closure(cyclic_generators(3))
        triangle = cayley_graph(tri_group, cyclic_generators(3))

        def tri_index(shift):
            images = [(i + shift) % 3 for i in range(3)]
            return tri_group.index_of(GroupElement.permutation(images))

        shifts = [int(hex_group.element(q).data[0]) for q in range(6)]
        good = np.array([tri_index(k % 3) for k in shifts])
        assert quotient_check(hexagon, triangle, good)
        # send shift 1 to the wrong fiber: still surjective, no longer a quotient
        bad = good.copy()
        bad[shifts.index(1)] = tri_index(2)
        assert not quotient_check(hexagon, triangle, bad)


class TestMultiGraph:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MultiGraph(np.array([[1], [0], [0]], dtype=np.int32))

    def test_from_edges_regularity(self):
        with pytest.raises(ValueError, match="regular"):
            from_edges(3, [(0, 1)])

    def test_adjacency_matrix_loops_count_twice(self):
        graph = from_edges(2, [(0, 0), (0, 1), (0, 1), (1, 1)])
        A = graph.dense_adjacency()
        assert A.tolist() == [[2.0, 2.0], [2.0, 2.0]]
        assert graph.degree == 4

    def test_adjacency_is_the_canonical_csr_of_the_rows(self):
        gens = sl2_generators(5)
        graphs = [
            cayley_graph(bfs_closure(gens), gens),
            schreier_graph(torsion_action(gens)),
            from_edges(2, [(0, 0), (0, 1), (0, 1), (1, 1)]),
            MultiGraph(np.empty((3, 0), dtype=np.int32)),
        ]
        for graph in graphs:
            A = graph.adjacency()
            assert A.has_canonical_format  # sorted, parallel edges summed
            assert A.indices.dtype == A.indptr.dtype == np.int32
            assert np.array_equal(A.toarray(), dense_adjacency_oracle(graph))

    def test_adjacency_build_peak_memory(self):
        # row u's k entries are the CSR row: no int64 COO triplets, which
        # peaked at 22.5 N-vectors here
        gens = sl2_generators(23)
        graph = cayley_graph(bfs_closure(gens), gens)
        tracemalloc.start()
        try:
            graph.adjacency()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * graph.n_vertices * 8

    def test_symmetry_check_peak_memory(self):
        # bytes per neighbor entry: an int32 copy of the rows and the one
        # int64 array of reversed keys, the forward keys a block at a time;
        # two int64 key arrays and a comparison mask took 20 B, and sorting
        # both out of place 40 B
        gens = sl2_generators(41)
        neighbors = cayley_graph(bfs_closure(gens), gens).neighbors.copy()
        tracemalloc.start()
        try:
            MultiGraph(neighbors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 17 * neighbors.size

    def test_empty_graph(self):
        graph = MultiGraph(np.empty((0, 4), dtype=np.int32))
        assert graph.n_vertices == 0
        assert components(graph) == []

    def test_ids_beyond_int32_rejected_before_the_cast(self):
        # 2^32 would wrap to vertex 0 of a 1-vertex graph, a loop
        with pytest.raises(ValueError, match="out of range"):
            MultiGraph(np.array([[2**32, 2**32]]))

    def test_checked_move_arrays_skip_the_symmetry_check(self, monkeypatch, tmp_path):
        # schreier_graph's bijection and inversion-closure checks imply a
        # symmetric adjacency; edge lists and dumps are still checked
        def build():
            origami_mod._sweep.cache_clear()
            gens = sl2_generators(5)
            return [
                cayley_graph(bfs_closure(gens), gens),
                schreier_graph(torsion_action(gens)),
                pra_graph(bfs_closure(symmetric_generators(3)), 2),
                origami_graph(4, (3, 1)),
            ]

        expected = [graph.neighbors.copy() for graph in build()]

        def refuse(self):
            raise AssertionError("symmetry checked again")

        monkeypatch.setattr(MultiGraph, "_check_symmetric", refuse)
        graphs = build()
        for graph, neighbors in zip(graphs, expected):
            assert graph.n_vertices and np.array_equal(graph.neighbors, neighbors)
            assert graph.neighbors.dtype == np.int32 and not graph.neighbors.flags.writeable
        with pytest.raises(AssertionError, match="checked again"):
            from_edges(2, [(0, 1)])
        save_graph(graphs[0], tmp_path / "g.tlg")
        with pytest.raises(AssertionError, match="checked again"):
            load_graph(tmp_path / "g.tlg")


class TestDotExport:
    def test_small_graph(self):
        text = to_dot(from_edges(3, [(0, 1), (1, 2), (0, 2)], label="tri"))
        assert text.startswith('graph "tri" {')
        assert text.count("--") == 3

    def test_loops_rendered_once_per_loop(self):
        text = to_dot(from_edges(1, [(0, 0)]))
        assert text.count("0 -- 0;") == 1

    def test_limit_enforced(self):
        gens = cyclic_generators(501)
        graph = cayley_graph(bfs_closure(gens), gens)
        with pytest.raises(ValueError, match="500"):
            to_dot(graph)


class TestBinaryDump:
    def test_roundtrip(self, tmp_path):
        gens = sl2_generators(5)
        graph = cayley_graph(bfs_closure(gens), gens)
        path = tmp_path / "g.bin"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.n_vertices == graph.n_vertices
        assert loaded.degree == graph.degree
        # rows are sorted in the dump; compare as sorted multisets
        assert np.array_equal(np.sort(loaded.neighbors, axis=1), np.sort(graph.neighbors, axis=1))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_graph(path)

    @staticmethod
    def _dump_bytes(tmp_path):
        graph = from_edges(6, TWO_TRIANGLES)
        path = tmp_path / "g.bin"
        save_graph(graph, path)
        return path.read_bytes()

    @pytest.mark.parametrize("keep", [10, -1, -3])
    def test_truncated_dump_rejected(self, tmp_path, keep):
        # 10 bytes end inside the header; -1 and -3 drop the last varints
        path = tmp_path / "cut.bin"
        path.write_bytes(self._dump_bytes(tmp_path)[:keep])
        with pytest.raises(ValueError, match="truncated"):
            load_graph(path)

    def test_truncated_mid_varint_rejected(self, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(b"TLG1" + np.array([2, 1], dtype="<u4").tobytes() + b"\x01\x80")
        with pytest.raises(ValueError, match="truncated"):
            load_graph(path)

    @pytest.mark.parametrize("tail", [b"\x00", b"\x81"])
    def test_trailing_bytes_rejected(self, tmp_path, tail):
        path = tmp_path / "tail.bin"
        path.write_bytes(self._dump_bytes(tmp_path) + tail)
        with pytest.raises(ValueError, match="trailing"):
            load_graph(path)

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(b"TLG1" + np.array([2**31, 2**20], dtype="<u4").tobytes() + b"\x00" * 64)
        with pytest.raises(ValueError, match="truncated"):
            load_graph(path)

    def test_zero_degree_header_allocates_nothing(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"TLG1" + np.array([2**31 - 1, 0], dtype="<u4").tobytes())
        graph = load_graph(path)
        assert graph.n_vertices == 2**31 - 1 and graph.degree == 0

    def test_neighbor_out_of_range_rejected(self, tmp_path):
        # two vertices joined by an edge, but the second row points at vertex 2
        path = tmp_path / "range.bin"
        path.write_bytes(b"TLG1" + np.array([2, 1], dtype="<u4").tobytes() + b"\x01\x02")
        with pytest.raises(ValueError, match="out of range"):
            load_graph(path)

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("width", [6, 256, 260, 261])
    def test_long_varint_rejected(self, tmp_path, first, width):
        # widths are narrowed to uint8 as they are found: 256 and 260 wrap
        # to 0 and 4, and only the widths' sum tells them from real ones
        long = b"\x80" * (width - 1) + b"\x00"
        body = long + b"\x00" if first else b"\x00" + long
        path = tmp_path / "long.bin"
        path.write_bytes(b"TLG1" + np.array([2, 1], dtype="<u4").tobytes() + body)
        with pytest.raises(ValueError, match="longer than 5 bytes"):
            load_graph(path)

    @pytest.mark.parametrize("value", [2**7 - 1, 2**14, 2**28 - 1, 2**28, 2**31 - 2])
    def test_wide_varint_decoded(self, tmp_path, value):
        # the one neighbor of a one-vertex graph, read back in the range
        # error: 1 to 4 groups decode in uint32, a fifth in uint64
        body, rest = bytearray(), value
        while rest >= 0x80:
            body.append(rest & 0x7F | 0x80)
            rest >>= 7
        body.append(rest)
        path = tmp_path / "wide.bin"
        path.write_bytes(b"TLG1" + np.array([1, 1], dtype="<u4").tobytes() + bytes(body))
        with pytest.raises(ValueError, match=f"neighbor {value} out of range"):
            load_graph(path)

    @settings(max_examples=40, deadline=None)
    @given(**REGULAR_MULTIGRAPH_ARGS)
    def test_roundtrip_random_regular_multigraphs(self, tmp_path_factory, n, r, seed):
        graph = random_regular_multigraph(n, r, seed)
        path = tmp_path_factory.mktemp("dump") / "g.bin"
        save_graph(graph, path)
        assert path.read_bytes() == reference_dump(graph)
        loaded = load_graph(path)
        assert np.array_equal(loaded.neighbors, np.sort(graph.neighbors, axis=1))

    def test_wide_varints_match_reference(self, tmp_path):
        # deltas needing 1 to 5 bytes; save_graph reads only these three
        # attributes and does not validate neighbors
        row = [0, 2**7 - 1, 2**7, 2**14, 2**21 - 1, 2**28, 2**31 - 2]
        graph = SimpleNamespace(neighbors=np.array([row, row[::-1]]), n_vertices=2, degree=7)
        path = tmp_path / "wide.bin"
        save_graph(graph, path)
        assert path.read_bytes() == reference_dump(graph)

    @pytest.mark.parametrize("shape", [(0, 4), (5, 0), (0, 0)])
    def test_roundtrip_without_entries(self, tmp_path, shape):
        graph = MultiGraph(np.empty(shape, dtype=np.int32))
        path = tmp_path / "empty.bin"
        save_graph(graph, path)
        assert path.read_bytes() == reference_dump(graph)
        loaded = load_graph(path)
        assert loaded.neighbors.shape == shape and loaded.neighbors.dtype == np.int32

    def test_dump_peak_memory(self, tmp_path):
        # bytes per neighbor entry on SL2(F41) (275,520 entries): the varints
        # are coded one seven-bit group at a time in uint32 and uint8 arrays,
        # with no int64 position array but the varint ends the reader finds;
        # with int64 positions they took 34 B to save and 39 B to load, and
        # int64 (N*k, 5) temporaries 149 B and 98 B
        gens = sl2_generators(41)
        graph = cayley_graph(bfs_closure(gens), gens)
        entries = graph.n_vertices * graph.degree
        path = tmp_path / "sl2_41.bin"
        tracemalloc.start()
        try:
            save_graph(graph, path)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loaded = load_graph(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == reference_dump(graph)
        assert np.array_equal(loaded.neighbors, np.sort(graph.neighbors, axis=1))
        assert save_peak <= 20 * entries
        assert load_peak <= 30 * entries
