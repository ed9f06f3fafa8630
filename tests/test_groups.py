import numpy as np
import pytest

from thinlab.elements import GroupElement, identity_matrix, is_symplectic, multiply
from thinlab.groups import (
    BudgetExceeded,
    GeneratorSet,
    bfs_closure,
    cyclic_generators,
    direct_product_of_cyclic,
    is_prime,
    resolve_budget,
    sl2_generators,
    sp_order,
    symmetric_generators,
)
from thinlab.monodromy import standard_symplectic_generators


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


class TestSpOrder:
    def test_known_values(self):
        assert sp_order(1, 2) == 6
        assert sp_order(1, 5) == 120
        assert sp_order(2, 3) == 51840

    def test_formula_matches_sl2(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert sp_order(1, p) == p * (p**2 - 1)

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

    def test_budget_exceeded_carries_partial_count(self):
        with pytest.raises(BudgetExceeded) as exc_info:
            bfs_closure(sl2_generators(11), budget=100)
        assert exc_info.value.partial_count == 101
        assert exc_info.value.budget == 100

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
        with pytest.raises(ValueError):
            GeneratorSet([identity_matrix(2, 5), GroupElement.permutation([0, 1])])


def test_is_prime():
    assert [n for n in range(50) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]
