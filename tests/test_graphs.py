import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab.elements import GroupElement, identity_matrix, inverse, multiply
from thinlab.groups import GeneratorSet, bfs_closure, cyclic_generators, sl2_generators
from thinlab.monodromy import standard_symplectic_generators
from thinlab.graphs import (
    ActionSpec,
    MultiGraph,
    cayley_graph,
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


class TestComponents:
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


class TestSchreier:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_torsion_vertex_count(self, ell):
        action = torsion_action(sl2_generators(ell))
        graph = schreier_graph(action)
        assert graph.n_vertices == ell**2 - 1
        assert graph.degree == 4
        assert len(components(graph)) == 1  # SL2 transitive on nonzero vectors

    def test_identity_moves_give_loops(self):
        n = 5
        ident = np.arange(n, dtype=np.int32)
        action = ActionSpec([str(i) for i in range(n)], [ident, ident], label="trivial")
        graph = schreier_graph(action)
        assert graph.degree == 2
        assert all(graph.neighbors[u].tolist() == [u, u] for u in range(n))
        assert len(components(graph)) == n

    def test_move_must_be_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            ActionSpec(["a", "b"], [np.array([0, 0])])

    def test_moves_must_be_inversion_closed(self):
        three_cycle = np.array([1, 2, 0])
        with pytest.raises(ValueError, match="inversion"):
            ActionSpec(["a", "b", "c"], [three_cycle])
        # fine once the inverse is included
        ActionSpec(["a", "b", "c"], [three_cycle, np.argsort(three_cycle)])


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
        proj = torsion_projection(group, v0)
        assert np.array_equal(proj, projection_oracle(group, np.array(v0)))
        # any nonzero base vector gives a quotient map onto the orbit graph
        assert quotient_check(cayley_graph(group, gens), schreier_graph(torsion_action(gens)), proj)

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

    def test_empty_graph(self):
        graph = MultiGraph(np.empty((0, 4), dtype=np.int32))
        assert graph.n_vertices == 0
        assert components(graph) == []


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

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 400),
        r=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_random_regular_multigraphs(self, tmp_path_factory, n, r, seed):
        # r random permutations and their inverses give a 2r-regular
        # multigraph with loops and parallel edges
        rng = np.random.default_rng(seed)
        cols = []
        for _ in range(r):
            perm = rng.permutation(n)
            cols += [perm, np.argsort(perm)]
        nbrs = np.stack(cols, axis=1) if cols else np.empty((n, 0), dtype=np.int32)
        graph = MultiGraph(nbrs)
        path = tmp_path_factory.mktemp("dump") / "g.bin"
        save_graph(graph, path)
        assert path.read_bytes() == reference_dump(graph)
        loaded = load_graph(path)
        assert np.array_equal(loaded.neighbors, np.sort(graph.neighbors, axis=1))

    def test_wide_varints_match_reference(self, tmp_path):
        # deltas needing 1 to 5 bytes; save_graph does not validate neighbors
        row = [0, 2**7 - 1, 2**7, 2**14, 2**21 - 1, 2**28, 2**31 - 2]
        graph = MultiGraph(np.array([row, row[::-1]]), check=False)
        path = tmp_path / "wide.bin"
        save_graph(graph, path)
        assert path.read_bytes() == reference_dump(graph)
