import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab.elements import (
    GroupElement,
    _det_adjugate,
    SymplecticForm,
    act_on_vectors,
    identity_like,
    identity_matrix,
    identity_permutation,
    inverse,
    is_symplectic,
    multiply,
    reduce_mod,
)
from thinlab.groups import bfs_closure, sl2_generators


def laplace_det(rows):
    """Oracle: determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


# small entries make singular matrices common; large ones test exactness
square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-2, 2) | st.integers(-(10**12), 10**12), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def brute_compose(a, b):
    """Independent oracle: left-action composition of image tuples."""
    return tuple(a[b[x]] for x in range(len(a)))


class TestPermutations:
    def test_s3_multiplication_table_matches_function_composition(self):
        perms = list(itertools.permutations(range(3)))
        mismatches_right = 0
        for a in perms:
            for b in perms:
                got = multiply(GroupElement.permutation(a), GroupElement.permutation(b))
                assert tuple(got.data.tolist()) == brute_compose(a, b)
                if tuple(got.data.tolist()) != brute_compose(b, a):
                    mismatches_right += 1
        # the opposite convention really is a different table
        assert mismatches_right > 0

    def test_transposition_product_is_three_cycle(self):
        # (0 1) after (1 2): 0 -> 1, 1 -> 2, 2 -> 0 under the left convention
        a = GroupElement.permutation([1, 0, 2])
        b = GroupElement.permutation([0, 2, 1])
        assert multiply(a, b).data.tolist() == [1, 2, 0]

    @given(st.permutations(list(range(6))))
    def test_inverse_roundtrip(self, images):
        g = GroupElement.permutation(images)
        assert multiply(g, inverse(g)) == identity_permutation(6)
        assert multiply(inverse(g), g) == identity_permutation(6)

    @given(
        st.permutations(list(range(5))),
        st.permutations(list(range(5))),
        st.permutations(list(range(5))),
    )
    def test_associativity(self, a, b, c):
        ga, gb, gc = (GroupElement.permutation(x) for x in (a, b, c))
        assert multiply(multiply(ga, gb), gc) == multiply(ga, multiply(gb, gc))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            GroupElement.permutation([0, 0, 1])


class TestMatrices:
    def test_unipotent_square_mod_5(self):
        t = GroupElement.matrix([[1, 1], [0, 1]], 5)
        assert multiply(t, t).data.tolist() == [[1, 2], [0, 1]]

    def test_identity_absorbs(self):
        rng = np.random.default_rng(0)
        e = identity_matrix(2, 7)
        for _ in range(100):
            x = GroupElement.matrix(rng.integers(0, 7, size=(2, 2)), 7)
            assert multiply(e, x) == x
            assert multiply(x, e) == x

    def test_unipotent_inverse_mod_7(self):
        t = GroupElement.matrix([[1, 1], [0, 1]], 7)
        assert inverse(t).data.tolist() == [[1, 6], [0, 1]]

    def test_inverse_property_sl2_f11(self):
        group = bfs_closure(sl2_generators(11))
        rng = np.random.default_rng(11)
        e = identity_matrix(2, 11)
        for i in rng.integers(0, group.order, size=1000):
            x = group.element(int(i))
            assert multiply(x, inverse(x)) == e

    @settings(max_examples=300, deadline=None)
    @given(square_matrices)
    def test_det_adjugate_against_laplace(self, rows):
        det, adj = _det_adjugate([row[:] for row in rows])
        assert det == laplace_det(rows)
        n = len(rows)
        if det:  # adj(A) A = A adj(A) = det(A) I
            a, b = np.array(rows, dtype=object), np.array(adj, dtype=object)
            scalar = [[det * (i == j) for j in range(n)] for i in range(n)]
            assert np.dot(b, a).tolist() == scalar and np.dot(a, b).tolist() == scalar

    @settings(max_examples=300, deadline=None)
    @given(square_matrices, st.sampled_from([2, 3, 4, 6, 7, 12, 101]))
    def test_inverse_mod_m(self, rows, m):
        a = GroupElement.matrix(rows, m)
        det = laplace_det(a.data.tolist())  # of the reduced entries, as reported
        if gcd(det, m) != 1:
            with pytest.raises(ValueError, match=f"det = {det} shares a factor with modulus {m}$"):
                inverse(a)
        else:
            e = identity_matrix(len(rows), m)
            assert multiply(a, inverse(a)) == e and multiply(inverse(a), a) == e

    @settings(max_examples=200, deadline=None)
    @given(square_matrices)
    def test_inverse_over_z(self, rows):
        a = GroupElement.matrix(rows, 0)
        det = laplace_det(rows)
        if det not in (1, -1):
            with pytest.raises(ValueError, match=f"not invertible over Z: det = {det}$"):
                inverse(a)
        else:
            e = identity_matrix(len(rows), 0)
            assert multiply(a, inverse(a)) == e and multiply(inverse(a), a) == e

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_inverse_of_unimodular_over_z(self, n, seed):
        # a product of elementary row operations and a sign: det = +-1
        rng = np.random.default_rng(seed)
        rows = np.eye(n, dtype=object)
        for _ in range(12):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                rows[i] += int(rng.integers(-9, 10)) * rows[j]
        rows[0] *= int(rng.choice([1, -1]))
        a = GroupElement.matrix(rows, 0)
        e = identity_matrix(n, 0)
        assert multiply(a, inverse(a)) == e and multiply(inverse(a), a) == e

    def test_non_invertible_rejected(self):
        with pytest.raises(ValueError, match="not invertible"):
            inverse(GroupElement.matrix([[2, 0], [0, 1]], 4))
        with pytest.raises(ValueError, match="not invertible"):
            inverse(GroupElement.matrix([[2, 0], [0, 1]], 0))

    def test_integer_matrices_are_exact(self):
        # entries overflow int64 if arithmetic is not exact

        def py_matmul(a, b):
            return [
                [sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)]
                for i in range(2)
            ]

        rows = [[10**12, 1], [1, 1]]
        expected = py_matmul(py_matmul(rows, rows), rows)
        big = GroupElement.matrix(rows, 0)
        prod = multiply(multiply(big, big), big)
        assert prod.data.tolist() == expected
        assert prod.data[0, 0] > 2**63  # would have wrapped in int64

    def test_integer_inverse_unimodular(self):
        m = GroupElement.matrix([[2, 1], [1, 1]], 0)
        assert multiply(m, inverse(m)) == identity_matrix(2, 0)

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 6), min_size=12, max_size=12))
    def test_associativity_mod_7(self, entries):
        a = GroupElement.matrix(np.array(entries[0:4]).reshape(2, 2), 7)
        b = GroupElement.matrix(np.array(entries[4:8]).reshape(2, 2), 7)
        c = GroupElement.matrix(np.array(entries[8:12]).reshape(2, 2), 7)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_incompatible_elements_rejected(self):
        perm = identity_permutation(3)
        mat = identity_matrix(2, 5)
        with pytest.raises(ValueError, match="incompatible"):
            multiply(perm, mat)
        with pytest.raises(ValueError, match="incompatible"):
            multiply(mat, identity_matrix(2, 7))
        with pytest.raises(ValueError, match="incompatible"):
            multiply(perm, identity_permutation(4))

    def test_reduce_mod(self):
        m = GroupElement.matrix([[5, -1], [12, 3]], 0)
        r = reduce_mod(m, 4)
        assert r.modulus == 4 and r.data.tolist() == [[1, 3], [0, 3]]
        with pytest.raises(ValueError):
            reduce_mod(GroupElement.matrix([[1, 0], [0, 1]], 6), 4)


class TestSymplecticForm:
    def test_gram_matrix_g1(self):
        form = SymplecticForm(1)
        assert form.gram.tolist() == [[0, 1], [-1, 0]]
        assert form.pairing([1, 0], [0, 1]) == 1
        assert form.pairing([0, 1], [1, 0]) == -1

    def test_gram_properties_any_genus(self):
        for g in (1, 2, 3):
            form = SymplecticForm(g)
            J = form.gram
            assert (J.T == -J).all()
            assert (J @ J == -np.eye(2 * g, dtype=np.int64)).all()

    def test_identity_is_symplectic(self):
        assert is_symplectic(identity_matrix(2, 5), SymplecticForm(1))

    def test_sl2_equals_sp2(self):
        assert is_symplectic(GroupElement.matrix([[1, 1], [0, 1]], 5), SymplecticForm(1))

    def test_diagonal_not_symplectic(self):
        # det = 2 != 1 mod 5, so a^T J a = 2J != J
        assert not is_symplectic(GroupElement.matrix([[2, 0], [0, 1]], 5), SymplecticForm(1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            is_symplectic(identity_matrix(2, 5), SymplecticForm(2))


class TestVectorAction:
    def test_identity_action(self):
        rng = np.random.default_rng(1)
        e = identity_matrix(3, 7)
        for _ in range(20):
            v = rng.integers(0, 7, size=3)
            assert act_on_vectors(e, v).tolist() == v.tolist()

    def test_shear_action(self):
        t = GroupElement.matrix([[1, 1], [0, 1]], 5)
        assert act_on_vectors(t, [0, 1]).tolist() == [1, 1]

    def test_orbit_of_e1_under_sl2_f5(self):
        # brute-force orbit oracle: transitivity on nonzero vectors
        group = bfs_closure(sl2_generators(5))
        orbit = {tuple(act_on_vectors(g, [1, 0]).tolist()) for g in group.elements()}
        expected = {(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)}
        assert orbit == expected
        assert len(orbit) == 24

    def test_action_is_homomorphism(self):
        group = bfs_closure(sl2_generators(7))
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = group.element(int(rng.integers(group.order)))
            b = group.element(int(rng.integers(group.order)))
            v = rng.integers(0, 7, size=2)
            lhs = act_on_vectors(multiply(a, b), v)
            rhs = act_on_vectors(a, act_on_vectors(b, v))
            assert lhs.tolist() == rhs.tolist()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            act_on_vectors(identity_matrix(2, 5), [1, 0, 0])


def test_identity_like():
    assert identity_like(GroupElement.permutation([2, 0, 1])) == identity_permutation(3)
    assert identity_like(GroupElement.matrix([[1, 2], [3, 4]], 5)) == identity_matrix(2, 5)


def test_encoding_distinguishes_modulus():
    a = GroupElement.matrix([[1, 1], [0, 1]], 5)
    b = GroupElement.matrix([[1, 1], [0, 1]], 7)
    assert a != b
    assert hash(a) != hash(b)
