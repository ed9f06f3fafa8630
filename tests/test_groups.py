import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinlab.elements import GroupElement, identity_matrix, inverse, is_symplectic, multiply
from thinlab import groups as groups_mod
from thinlab.groups import (
    BudgetExceeded,
    GeneratorSet,
    bfs_closure,
    _batch_multiply,
    _bfs,
    _find,
    _key_powers,
    _keys,
    check_budget,
    check_vector_keys,
    closure_orders,
    cyclic_generators,
    direct_product_of_cyclic,
    first_occurrences,
    is_prime,
    matrix_group_order,
    primitive_root,
    resolve_budget,
    sl2_generators,
    sp_order,
    sp_order_factors,
    symmetric_generators,
)
from thinlab.monodromy import (
    braid_to_matrix,
    build_chain,
    full_braid_generators,
    point_pushing_generators,
    standard_symplectic_generators,
)


def naive_closure_order(gens: GeneratorSet, limit: int = 10**5) -> int:
    """Independent oracle: all-pairs product fixpoint, no BFS layering."""
    elems = {gens.identity()} | set(gens.symmetrized)
    while True:
        new = {multiply(a, b) for a in elems for b in elems} - elems
        if not new:
            return len(elems)
        elems |= new
        if len(elems) > limit:
            raise RuntimeError("oracle exceeded its own limit")


def dict_bfs_order(gens: GeneratorSet) -> list[GroupElement]:
    """Independent oracle for the discovery order: one element at a time
    through a set, frontier rows in order within each generator in order."""
    frontier = [gens.identity()]
    order, seen = list(frontier), set(frontier)
    while frontier:
        new = []
        for s in gens.symmetrized:
            for q in frontier:
                x = multiply(q, s)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        order += new
        frontier = new
    return order


def unique_batch_bfs(gens: GeneratorSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bfs_closure as it was when each batch was deduped with the stable
    sort of np.unique(return_index=True): its stack, parents and steps."""
    e = gens.identity()
    kind, modulus = e.kind, e.modulus
    powers = _key_powers(kind, e.data.shape, modulus)
    frontier = e.data[np.newaxis, ...]
    layers, parents, steps = [frontier], [np.array([-1])], [np.array([-1])]
    seen = _keys(frontier, kind, modulus, powers)
    start, count = 0, 1
    while True:
        rows, fresh = [], []
        for j, s in enumerate(gens.symmetrized):
            prods = _batch_multiply(kind, modulus, frontier, s.data)
            uniq, first = np.unique(_keys(prods, kind, modulus, powers), return_index=True)
            new = ~_find(seen, uniq)[1]
            for earlier in fresh:
                new &= ~_find(earlier, uniq)[1]
            at = np.sort(first[new])
            if at.size:
                fresh.append(uniq[new])
                rows.append(prods[at])
                parents.append(start + at)
                steps.append(np.full(at.size, j))
        if not rows:
            break
        start = count
        frontier = np.concatenate(rows)
        layers.append(frontier)
        count += frontier.shape[0]
        seen = np.sort(np.concatenate([seen, *fresh]), kind="stable")
    return np.concatenate(layers), np.concatenate(parents), np.concatenate(steps)


def z_sl2_s() -> GeneratorSet:
    """S = [[0, -1], [1, 0]] over the integers (modulus 0): a group of order 4."""
    return GeneratorSet([GroupElement.matrix([[0, -1], [1, 0]], 0)])


class TestSpOrder:
    def test_known_values(self):
        assert sp_order(1, 2) == 6
        assert sp_order(1, 5) == 120
        assert sp_order(2, 3) == 51840

    def test_formula_matches_sl2(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert sp_order(1, p) == p * (p**2 - 1)

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_is_the_product_of_its_factors(self, g, p):
        # the sweep's budget gate reads the factors, congruence_report the order
        closed_form = p ** (g * g) * math.prod(p ** (2 * i) - 1 for i in range(1, g + 1))
        assert sp_order(g, p) == math.prod(sp_order_factors(g, p)) == closed_form

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sp_order(0, 5)
        with pytest.raises(ValueError):
            sp_order(1, 6)


class TestBfsClosure:
    @pytest.mark.parametrize("p,order", [(2, 6), (3, 24), (5, 120), (7, 336)])
    def test_sl2_orders(self, p, order):
        group = bfs_closure(sl2_generators(p))
        assert group.order == order == sp_order(1, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_naive_closure(self, p):
        assert bfs_closure(sl2_generators(p)).order == naive_closure_order(sl2_generators(p))

    def test_identity_generator(self):
        group = bfs_closure(GeneratorSet([identity_matrix(2, 5)]))
        assert group.order == 1
        assert group.element(0) == identity_matrix(2, 5)

    def test_element_zero_is_identity(self):
        group = bfs_closure(sl2_generators(5))
        assert group.element(0) == identity_matrix(2, 5)

    def test_budget_exceeded_carries_budget(self):
        with pytest.raises(BudgetExceeded) as exc_info:
            bfs_closure(sl2_generators(11), budget=100)
        assert exc_info.value.budget == 100
        assert str(exc_info.value) == "bfs_closure: elements over the limit of 100"

    def test_env_budget_override(self, monkeypatch):
        monkeypatch.setenv("THINLAB_BUDGET", "50")
        assert resolve_budget() == 50
        with pytest.raises(BudgetExceeded):
            bfs_closure(sl2_generators(11))
        monkeypatch.delenv("THINLAB_BUDGET")
        assert resolve_budget() == 2_000_000

    @pytest.mark.parametrize("value", ["-5", "0", "abc", "1.5"])
    def test_env_budget_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("THINLAB_BUDGET", value)
        with pytest.raises(ValueError, match="THINLAB_BUDGET"):
            resolve_budget()
        assert resolve_budget(10) == 10  # an explicit budget does not read it

    def test_index_roundtrip(self):
        group = bfs_closure(sl2_generators(7))
        rng = np.random.default_rng(7)
        for i in rng.integers(0, group.order, size=50):
            assert group.index_of(group.element(int(i))) == int(i)

    def test_contains(self):
        group = bfs_closure(sl2_generators(3))
        assert identity_matrix(2, 3) in group
        assert GroupElement.matrix([[2, 0], [0, 1]], 3) not in group  # det 2, not in SL2

    def test_closure_under_multiplication_spot_check(self):
        group = bfs_closure(sl2_generators(5))
        rng = np.random.default_rng(5)
        for _ in range(1000):
            i, j = rng.integers(0, group.order, size=2)
            prod = multiply(group.element(int(i)), group.element(int(j)))
            assert prod in group

    @pytest.mark.parametrize("gens", [sl2_generators(5), symmetric_generators(4)])
    def test_group_axioms_thousand_triples(self, gens):
        group = bfs_closure(gens)
        ident = gens.identity()
        rng = np.random.default_rng(group.order)
        from thinlab.elements import inverse

        for _ in range(1000):
            a, b, c = (group.element(int(i)) for i in rng.integers(0, group.order, size=3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, inverse(a)) == ident

    def test_right_multiplication_indices(self):
        group = bfs_closure(sl2_generators(5))
        s = group.element(group.generator_indices[0])
        idx = group.right_multiplication_indices(s)
        for i in (0, 1, 17, group.order - 1):
            assert int(idx[i]) == group.index_of(multiply(group.element(i), s))

    def test_permutation_groups(self):
        assert bfs_closure(symmetric_generators(4)).order == 24
        assert bfs_closure(cyclic_generators(12)).order == 12
        assert bfs_closure(direct_product_of_cyclic([2, 2])).order == 4


class TestCodedGroups:
    @pytest.mark.parametrize(
        "gens",
        [
            sl2_generators(11),
            symmetric_generators(5),
            direct_product_of_cyclic([2, 3, 5, 7]),
            z_sl2_s(),
            standard_symplectic_generators(2, 2),
        ],
        ids=["sl2_11", "S5", "Z2xZ3xZ5xZ7", "sl2Z_S", "sp4_2"],
    )
    def test_discovery_order_matches_dict_bfs(self, gens):
        group = bfs_closure(gens)
        assert list(group.elements()) == dict_bfs_order(gens)

    @pytest.mark.parametrize(
        "gens",
        [sl2_generators(7), symmetric_generators(4), direct_product_of_cyclic([2, 3, 5, 7]), z_sl2_s()],
        ids=["sl2_7", "S4", "Z2xZ3xZ5xZ7", "sl2Z_S"],
    )
    def test_inverse_indices(self, gens):
        group = bfs_closure(gens)
        inv = group.inverse_indices()
        assert all(group.mul(i, int(inv[i])) == 0 for i in range(group.order))

    @pytest.mark.parametrize(
        "gens,order",
        [(direct_product_of_cyclic([2, 3, 5, 7]), 210), (z_sl2_s(), 4)],
        ids=["degree17", "modulus0"],
    )
    def test_bytes_key_path(self, gens, order):
        # 17^17 > 2^63 and modulus 0 have no int64 code: keys are bytes
        group = bfs_closure(gens)
        assert group._sorted_keys.dtype == object
        assert group.order == order
        for i in range(order):
            assert group.index_of(group.element(i)) == i
            assert group.encoding(i) == group.element(i).encoding
        for s in gens.symmetrized:
            idx = group.right_multiplication_indices(s)
            assert [int(j) for j in idx] == [
                group.index_of(multiply(group.element(i), s)) for i in range(order)
            ]

    @pytest.mark.parametrize(
        "gens",
        [
            sl2_generators(13),
            standard_symplectic_generators(2, 3),
            symmetric_generators(6),
            direct_product_of_cyclic([2, 3, 5, 7]),
        ],
        ids=["sl2_13", "sp4_3", "S6", "Z2xZ3xZ5xZ7"],
    )
    def test_tree_matches_unique_batch_bfs(self, gens):
        group = bfs_closure(gens)
        stack, parents, steps = unique_batch_bfs(gens)
        assert np.array_equal(group.stack, stack)
        assert np.array_equal(group._parents, parents)
        assert np.array_equal(group._steps, steps)

    @pytest.mark.parametrize(
        "gens",
        [
            sl2_generators(13),
            standard_symplectic_generators(2, 3),
            symmetric_generators(6),
            direct_product_of_cyclic([2, 3, 5, 7]),
        ],
        ids=["sl2_13", "sp4_3", "S6", "Z2xZ3xZ5xZ7"],
    )
    def test_engine_order_does_not_depend_on_batch(self, gens):
        # one move per batch and all k moves in one batch find what
        # bfs_closure finds with its own batch rule, and the same move table
        group = bfs_closure(gens)
        e = gens.identity()
        powers = _key_powers(e.kind, e.data.shape, e.modulus)
        sym = [s.data for s in gens.symmetrized]

        def act(rows, moves):
            # one move at a time, int64 entries
            parts = [_batch_multiply(e.kind, e.modulus, rows[moves == j], sym[j]) for j in np.unique(moves)]
            return np.concatenate(parts)

        def key(rows):
            return _keys(rows, e.kind, e.modulus, powers)

        tables = []
        for chunk in (1, None):  # batches of 1 and of k moves
            found = _bfs(e.data[np.newaxis], act, key, gens.k, chunk, 10**6, "", gens.inverse_positions())
            points, sorted_keys, key_index, parents, steps, table, starts = found
            assert np.array_equal(points, group.stack)
            assert np.array_equal(sorted_keys, group._sorted_keys)
            assert np.array_equal(key_index, group._key_index)
            assert np.array_equal(key(points)[key_index], sorted_keys)
            assert np.array_equal(parents, group._parents)
            assert np.array_equal(steps, group._steps)
            assert starts == group._layer_starts
            assert table.dtype == np.int32 and table.shape == (group.order, gens.k)
            tables.append(table)
        lookups = np.stack([group.right_multiplication_indices(s) for s in gens.symmetrized], axis=1)
        assert all(np.array_equal(table, lookups) for table in tables)
        assert np.array_equal(group.moves, lookups)
        assert not group.moves.flags.writeable

    def test_batch_rule_follows_the_frontier(self, monkeypatch):
        # SL2(F47)'s layers (at most 15,886 elements) take all 4 moves at
        # once; with CHUNK at 2,000 the big layers take one move at a time
        # and the small ones up to four.  A batch multiplies out and keys
        # only the slots whose image is not in the previous layer: those
        # are the previous layer's edges, read back through the inverse
        # move (44.7 % of SL2(F47)'s table)
        gens = sl2_generators(47)
        group = bfs_closure(gens)
        starts = group._layer_starts  # ends at the order
        sizes = np.diff(starts)
        assert sizes.max() == 15_886 and 4 * sizes.max() <= groups_mod.CHUNK
        layer = np.repeat(np.arange(sizes.size), sizes)
        back = layer[group.moves] == layer[:, np.newaxis] - 1
        assert round(back.mean(), 3) == 0.447
        keyed = []
        engine = groups_mod._bfs

        def spy(start, act, key, *args):
            def counted(rows):
                keyed.append(rows.shape[0])
                return key(rows)

            return engine(start, act, counted, *args)

        monkeypatch.setattr(groups_mod, "_bfs", spy)
        monkeypatch.setattr(groups_mod, "CHUNK", 2_000)
        small = bfs_closure(gens)
        want, batches = [1], set()  # the identity's key first
        for a, b in zip(starts[:-1], starts[1:]):
            batch = max(1, min(4, 2_000 // (b - a)))
            batches.add(batch)
            for j in range(0, 4, batch):
                slots = int(np.count_nonzero(~back[a:b, j : j + batch]))
                if slots:
                    want.append(slots)
        assert keyed == want
        assert {1, 4} < batches
        assert np.array_equal(small.stack, group.stack)
        assert np.array_equal(small.moves, group.moves)

    @pytest.mark.parametrize(
        "gens,dtype",
        [
            (sl2_generators(47), np.int8),
            (GeneratorSet([GroupElement.matrix([[1, 1], [0, 1]], 127)]), np.int8),
            (symmetric_generators(6), np.int8),
            (GeneratorSet([GroupElement.matrix([[1, 1], [0, 1]], 131)]), np.int16),
            (cyclic_generators(200), np.int16),
        ],
        ids=["sl2_47", "unipotent_127", "S6", "unipotent_131", "Z200"],
    )
    def test_stack_is_narrow(self, gens, dtype):
        # entries 0..m-1 (or the images 0..d-1) in the narrowest signed
        # dtype, whatever the group's size: a unipotent cyclic group sits
        # on either side of the int8 boundary.  Parents int32 and steps
        # int8 (k - 1 <= 127); the elements handed out are int64 again
        group = bfs_closure(gens)
        assert group.stack.dtype == dtype
        assert group._parents.dtype == np.int32 and group._steps.dtype == np.int8
        assert group.element(group.order - 1).data.dtype == np.int64
        assert group.element(group.order - 1) == multiply(
            group.element(int(group._parents[-1])), gens.symmetrized[group._steps[-1]]
        )

    def test_lookups_do_not_depend_on_the_stack_dtype(self):
        # the lookup columns from the int8 stack of SL2(F47) equal those of
        # the same group over an int64 stack
        from thinlab.graphs import torsion_projection

        gens = sl2_generators(47)
        group = bfs_closure(gens)
        wide = bfs_closure(gens)
        wide.stack = group.stack.astype(np.int64)
        assert group.stack.dtype == np.int8
        g = group.element(12_345)
        for s in (*gens.symmetrized, g):
            assert np.array_equal(group.right_multiplication_indices(s), wide.right_multiplication_indices(s))
        assert np.array_equal(group.conjugation_indices(g), wide.conjugation_indices(g))
        assert np.array_equal(group.inverse_indices(), wide.inverse_indices())
        assert np.array_equal(torsion_projection(group), torsion_projection(wide))

    def test_closure_peak_memory(self):
        # int8 elements, int32 parents and int8 steps, and no product
        # formed for an edge back into the previous layer: the peak of
        # SL2(F47)'s closure went 15.0 -> 8.4 MB here
        gens = sl2_generators(47)
        bfs_closure(gens)
        tracemalloc.start()
        try:
            group = bfs_closure(gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.order == 103_776
        assert peak <= 10_000_000

    def test_key_kind_boundary(self):
        # degree 15: 15^15 < 2^63 fits the int64 code; degree 16: 16^16 = 2^64 does not
        assert bfs_closure(cyclic_generators(15))._sorted_keys.dtype == np.int64
        assert bfs_closure(cyclic_generators(16))._sorted_keys.dtype == object
        assert bfs_closure(sl2_generators(7))._sorted_keys.dtype == np.int64

    def test_foreign_elements_not_in_group(self):
        group = bfs_closure(sl2_generators(5))
        foreign = [
            GroupElement.matrix([[1, 1], [0, 1]], 7),  # other modulus
            identity_matrix(3, 5),  # other dimension
            GroupElement.permutation([1, 0]),  # other kind
        ]
        for g in foreign:
            assert g not in group
            with pytest.raises(ValueError, match="not in group"):
                group.index_of(g)

    def test_product_outside_group_raises(self):
        group = bfs_closure(sl2_generators(3))
        with pytest.raises(ValueError, match="not in the group"):
            group.right_multiplication_indices(GroupElement.matrix([[2, 0], [0, 1]], 3))

    def test_budget_exceeded_mid_layer(self):
        # layer 1 of SL2(F11) is T, S, T^-1, S^-1, all four in one batch:
        # budget 2 stops at that batch
        with pytest.raises(BudgetExceeded) as exc_info:
            bfs_closure(sl2_generators(11), budget=2)
        assert exc_info.value.budget == 2
        assert bfs_closure(sl2_generators(11), budget=1320).order == 1320

    def test_sl2_f101_order(self):
        assert bfs_closure(sl2_generators(101)).order == 1_030_200 == sp_order(1, 101)


def factors_then_fail(factors):
    """The factors, then an error if one more is asked for."""
    yield from factors
    raise AssertionError("a factor was read after the crossing")


class TestCheckBudget:
    def test_returns_the_product(self):
        assert check_budget("x", [2, 3, 7], 42) == 42
        assert check_budget("x", [], 1) == 1
        assert check_budget("x", [5, 0], 5) == 0

    def test_stops_at_the_first_crossing(self):
        with pytest.raises(BudgetExceeded) as exc_info:
            check_budget("census(d=30): S_30's 30! elements", factors_then_fail([2, 3, 4, 5]), 100)
        assert exc_info.value.budget == 100
        assert str(exc_info.value) == "census(d=30): S_30's 30! elements over the limit of 100"

    def test_ones_never_cross(self):
        assert check_budget("x", itertools.repeat(1, 10**5), 1) == 1

    def test_multiplication_table_refused_by_entries(self):
        group = bfs_closure(symmetric_generators(7))
        with pytest.raises(BudgetExceeded, match=r"5040\^2 entries over the limit of 4000000"):
            group.multiplication_table()


def assert_inverse_matches_np_unique(keys):
    uniq, first, inverse = first_occurrences(keys, return_inverse=True)
    assert np.array_equal(first, first_occurrences(keys)[1])
    expected = np.unique(keys, return_inverse=True)[1]
    assert np.array_equal(inverse, expected) and inverse.dtype == expected.dtype
    assert list(uniq[inverse]) == list(keys)


class TestFirstOccurrences:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(0, 5), max_size=60))
    def test_matches_np_unique_on_int64(self, values):
        keys = np.array(values, dtype=np.int64)
        uniq, first = first_occurrences(keys)
        expected_uniq, expected_first = np.unique(keys, return_index=True)
        assert np.array_equal(uniq, expected_uniq) and uniq.dtype == expected_uniq.dtype
        assert np.array_equal(first, expected_first) and first.dtype == expected_first.dtype
        assert_inverse_matches_np_unique(keys)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.binary(max_size=3), max_size=60))
    def test_matches_np_unique_on_bytes_objects(self, values):
        keys = np.empty(len(values), dtype=object)
        keys[:] = values
        uniq, first = first_occurrences(keys)
        expected_uniq, expected_first = np.unique(keys, return_index=True)
        assert uniq.dtype == object and list(uniq) == list(expected_uniq)
        assert np.array_equal(first, expected_first) and first.dtype == expected_first.dtype
        assert_inverse_matches_np_unique(keys)

    @pytest.mark.parametrize(
        "keys",
        [
            np.zeros(0, np.int64),
            np.array([7]),
            np.array([], dtype=object),
            np.array([b"k"], dtype=object),
        ],
        ids=["int64_0", "int64_1", "bytes_0", "bytes_1"],
    )
    def test_lengths_zero_and_one(self, keys):
        uniq, first = first_occurrences(keys)
        expected_uniq, expected_first = np.unique(keys, return_index=True)
        assert list(uniq) == list(expected_uniq) and uniq.dtype == expected_uniq.dtype
        assert np.array_equal(first, expected_first) and first.dtype == expected_first.dtype
        assert_inverse_matches_np_unique(keys)


SL2_F5 = bfs_closure(sl2_generators(5))
S5 = bfs_closure(symmetric_generators(5))


# a batch of 1 to 40 generator sets of 1 to 3 element indices each; the
# identity (index 0) and a small pool (1 to 5) make held identities and
# repeated elements common
SET_BATCHES = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 5), st.integers(0, 119)), min_size=k, max_size=k
        ),
        min_size=1,
        max_size=40,
    )
)


def one_at_a_time(columns, sets):
    return [int(closure_orders(columns, row[np.newaxis])[0]) for row in sets]


class TestClosureOrder:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([SL2_F5, S5]),
        st.lists(st.integers(0, 119), min_size=1, max_size=3),
    )
    def test_matches_bfs_closure_of_the_subset(self, group, indices):
        # both groups have 120 elements; the oracle enumerates the subgroup
        # from scratch, closure_orders closes it inside the enumerated group
        elems = [group.element(i) for i in indices]
        columns = np.stack([group.right_multiplication_indices(g) for g in elems], axis=1)
        expected = bfs_closure(GeneratorSet(elems)).order
        assert closure_orders(columns, np.arange(len(indices))[np.newaxis]).tolist() == [expected]
        table = group.multiplication_table()
        assert closure_orders(table, np.array([indices])).tolist() == [expected]

    def test_identity_and_generators(self):
        table = SL2_F5.multiplication_table()
        assert closure_orders(table, np.array([[0]])).tolist() == [1]
        assert closure_orders(table, np.array([SL2_F5.generator_indices])).tolist() == [120]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([SL2_F5, S5]), SET_BATCHES)
    @example(S5, [[0], [1], [1], [0]])
    @example(SL2_F5, [[0, 0, 0], [3, 3, 0], [1, 2, 1], list(SL2_F5.generator_indices) + [0]])
    def test_batch_matches_bfs_closure_of_each_set(self, group, sets):
        expected = [bfs_closure(GeneratorSet([group.element(i) for i in s])).order for s in sets]
        assert closure_orders(group.multiplication_table(), np.array(sets)).tolist() == expected

    def test_empty_batch(self):
        orders = closure_orders(S5.multiplication_table(), np.zeros((0, 2), dtype=np.intp))
        assert orders.shape == (0,)

    @pytest.mark.parametrize("chunk", [None, 120, 240, 360])
    def test_sub_batch_boundaries(self, chunk, monkeypatch):
        # CHUNK // 120 sets fit under the cap: 546 by default, else 1, 2, 3,
        # so the 1,100 sets span several sub-batches, the last one partial
        if chunk is not None:
            monkeypatch.setattr(groups_mod, "CHUNK", chunk)
        table = S5.multiplication_table()
        sets = np.random.default_rng(0).integers(0, 120, size=(1100, 2))
        assert 1100 > groups_mod.CHUNK // 120
        assert closure_orders(table, sets).tolist() == one_at_a_time(table, sets)

    def test_sub_batches_bound_the_peak(self):
        # 20,000 sets of S5 are 2.4 million (set, element) entries; closed
        # unsplit, seen alone is that many bytes, and the peak was 15 MB;
        # under the cap it is about 1.3 CHUNKs of int64s (0.68 MB)
        table = S5.multiplication_table()
        sets = np.random.default_rng(1).integers(0, 120, size=(20_000, 2))
        tracemalloc.start()
        try:
            orders = closure_orders(table, sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sets.shape[0] * 120 > 30 * groups_mod.CHUNK
        assert peak < 3 * groups_mod.CHUNK * 8
        assert orders[:50].tolist() == one_at_a_time(table, sets[:50])


class TestSymplecticClosure:
    @pytest.mark.parametrize("g,p", [(1, 3), (1, 5), (1, 7), (2, 3)])
    def test_chain_transvections_generate_full_group(self, g, p):
        group = bfs_closure(standard_symplectic_generators(g, p))
        assert group.order == sp_order(g, p)

    def test_every_element_symplectic_exhaustive(self):
        from thinlab.elements import SymplecticForm

        # exhaustive up to order 1e5, which covers Sp4(F3)
        for g, p in [(1, 5), (1, 7), (2, 3)]:
            group = bfs_closure(standard_symplectic_generators(g, p))
            assert group.order <= 10**5
            form = SymplecticForm(g)
            for elem in group.elements():
                assert is_symplectic(elem, form)


def braid_images(genus, p, words):
    chain = build_chain(genus)
    return GeneratorSet([GroupElement.matrix(braid_to_matrix(w, chain).data, p) for w in words])


def is_invertible(a):
    try:
        inverse(a)
    except ValueError:
        return False
    return True


def invertible_pairs(n, m):
    """Generator sets of two matrices invertible mod m; the smallest draw
    is the identity, twice."""
    matrix = st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n).map(
        lambda entries: GroupElement.matrix(np.reshape(entries, (n, n)) + np.eye(n, dtype=np.int64), m)
    )
    return st.tuples(matrix.filter(is_invertible), matrix.filter(is_invertible)).map(GeneratorSet)


class TestMatrixGroupOrder:
    """The stabilizer-chain order against the BFS enumeration."""

    @pytest.mark.parametrize(
        "genus,p",
        [(1, p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)]
        + [(2, 3)],
    )
    def test_benchmark_pointpush_primes(self, genus, p):
        gens = braid_images(genus, p, point_pushing_generators(genus))
        assert matrix_group_order(gens) == bfs_closure(gens).order == sp_order(genus, p)

    def test_full_braid_generators_genus_two(self):
        gens = braid_images(2, 3, full_braid_generators(2))
        assert matrix_group_order(gens) == bfs_closure(gens).order == 51840

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("count", [1, 2])
    def test_some_point_pushing_generators(self, p, count):
        gens = braid_images(2, p, point_pushing_generators(2)[:count])
        assert matrix_group_order(gens) == bfs_closure(gens).order

    def test_identity(self):
        for m in (1, 2, 7):
            assert matrix_group_order(GeneratorSet([identity_matrix(3, m)])) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_gl2_pairs(self, data):
        m = data.draw(st.sampled_from([2, 3, 4, 5, 6, 7]))
        gens = data.draw(invertible_pairs(2, m))
        assert matrix_group_order(gens) == bfs_closure(gens).order

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_gl3_pairs(self, data):
        m = data.draw(st.sampled_from([2, 3]))
        gens = data.draw(invertible_pairs(3, m))
        assert matrix_group_order(gens) == bfs_closure(gens).order

    def test_bytes_key_path(self):
        # 7^25 > 2^63: matrices have no int64 code, and the keys are bytes
        cycle = GroupElement.matrix(np.roll(np.eye(5, dtype=np.int64), 1, axis=0), 7)
        scale = GroupElement.matrix(np.diag([3, 1, 1, 1, 1]), 7)
        gens = GeneratorSet([cycle, scale])
        assert _key_powers("matrix", (5, 5), 7) is None
        assert matrix_group_order(gens) == bfs_closure(gens).order == 6**5 * 5

    def test_budget_names_what_it_counted(self):
        # SL2(F11): 120 orbit points times 4 generators are 480 Schreier
        # products; the first orbit batch is 4 vectors of 2 entries
        assert matrix_group_order(sl2_generators(11), budget=480) == 1320
        with pytest.raises(BudgetExceeded, match="Schreier products at base point 0 over the limit of 479$"):
            matrix_group_order(sl2_generators(11), budget=479)
        with pytest.raises(BudgetExceeded, match="orbit product entries at base point 0 over the limit of 7$"):
            matrix_group_order(sl2_generators(11), budget=7)

    def test_orbit_points_counted_before_kept(self):
        # 2 generates (Z/101)^*: one base point, 100 orbit points, few products per layer
        gens = GeneratorSet([GroupElement.matrix([[2]], 101)])
        assert matrix_group_order(gens, budget=100) == bfs_closure(gens).order == 100
        with pytest.raises(BudgetExceeded, match="orbit points at base point 0 over the limit of 10$"):
            matrix_group_order(gens, budget=10)

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("THINLAB_BUDGET", "479")
        with pytest.raises(BudgetExceeded):
            matrix_group_order(sl2_generators(11))

    def test_refuses_what_it_cannot_key(self):
        with pytest.raises(BudgetExceeded, match="vector keys"):
            matrix_group_order(GeneratorSet([identity_matrix(4, 2**20)]))
        # 3^39 fits below 2^63, 3^40 does not; refused in closed form at any n
        assert check_vector_keys(3, 39) == 3**39
        for n in (40, 2 * 10**6, 10**30):
            message = f"matrix_group_order: 3^{n} vector keys over the limit of {2**63 - 1}"
            with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
                check_vector_keys(3, n)
        with pytest.raises(ValueError, match="positive modulus"):
            matrix_group_order(z_sl2_s())
        with pytest.raises(ValueError, match="positive modulus"):
            matrix_group_order(symmetric_generators(3))


class TestGeneratorSet:
    def test_symmetrized_size_is_doubled(self):
        gens = sl2_generators(5)
        assert gens.k == 4 == 2 * len(gens.elements)

    def test_involution_listed_twice(self):
        s = GroupElement.permutation([1, 0])
        gens = GeneratorSet([s])
        assert gens.k == 2
        assert gens.symmetrized[0] == gens.symmetrized[1] == s

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet([])

    def test_mixed_rejected(self):
        mismatches = [
            (identity_matrix(2, 5), GroupElement.permutation([0, 1])),  # kind
            (GroupElement.permutation([0, 1]), GroupElement.permutation([0, 1, 2])),  # degree
            (identity_matrix(2, 5), identity_matrix(2, 7)),  # modulus
            (identity_matrix(2, 5), identity_matrix(3, 5)),  # dimension
        ]
        for a, b in mismatches:
            with pytest.raises(ValueError, match="incompatible"):
                GeneratorSet([a, b])


def test_is_prime():
    assert [n for n in range(50) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]


def test_primitive_root():
    # the least r of multiplicative order p - 1
    for p in [n for n in range(2, 200) if is_prime(n)]:
        r = primitive_root(p)
        orders = [next(h for h in range(1, p) if pow(a, h, p) == 1) for a in range(1, r + 1)]
        assert orders[-1] == p - 1 and max(orders[:-1], default=0) < p - 1
    with pytest.raises(ValueError, match="not prime"):
        primitive_root(9)
