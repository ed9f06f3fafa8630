import re
import time

import numpy as np
import pytest

from thinlab.elements import (
    GroupElement,
    SymplecticForm,
    act_on_vectors,
    identity_matrix,
    inverse,
    is_symplectic,
    multiply,
)
from thinlab.groups import BudgetExceeded, bfs_closure, sp_order
from thinlab.monodromy import (
    BraidWord,
    ChainConfiguration,
    CongruenceLevelReport,
    braid_to_matrix,
    build_chain,
    catalog_json,
    congruence_report,
    full_braid_generators,
    point_pushing_generators,
    pure_braid_generators,
    standard_symplectic_generators,
    transvection,
)


class TestChain:
    def test_genus_one_vectors(self):
        chain = build_chain(1)
        assert [v.tolist() for v in chain.vectors] == [[1, 0], [0, 1], [-1, 0]]
        form = chain.form
        assert form.pairing(chain.vectors[0], chain.vectors[1]) == 1
        assert form.pairing(chain.vectors[1], chain.vectors[2]) == 1
        assert form.pairing(chain.vectors[0], chain.vectors[2]) == 0

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_pattern_holds_any_genus(self, g):
        chain = build_chain(g)  # constructor re-verifies the pattern
        assert len(chain.vectors) == 2 * g + 1

    def test_bad_chain_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            ChainConfiguration(1, [[1, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError, match="primitive"):
            ChainConfiguration(1, [[2, 0], [0, 1], [-1, 0]])


class TestTransvection:
    def test_fixes_its_vector(self):
        rng = np.random.default_rng(2)
        form = SymplecticForm(2)
        for _ in range(50):
            v = rng.integers(-3, 4, size=4)
            if not v.any():
                continue
            from math import gcd

            g = gcd(*(abs(int(x)) for x in v))
            v = v // g if g else v
            t = transvection(v, form)
            assert act_on_vectors(t, v).tolist() == v.tolist()

    def test_matrix_for_e1(self):
        # frozen from T_v(x) = x + <x, v> v with <e, f> = +1
        t = transvection([1, 0], SymplecticForm(1))
        assert t.data.tolist() == [[1, -1], [0, 1]]

    def test_unipotent_torus_example(self):
        # the universal-torus loop: e1 -> e1 + e2, e2 fixed
        t = transvection([0, 1], SymplecticForm(1))
        assert act_on_vectors(t, [1, 0]).tolist() == [1, 1]
        assert act_on_vectors(t, [0, 1]).tolist() == [0, 1]

    def test_always_symplectic(self):
        rng = np.random.default_rng(7)
        form = SymplecticForm(2)
        for _ in range(100):
            v = rng.integers(0, 7, size=4)
            if not v.any():
                continue
            assert is_symplectic(transvection(v, form, 7), form)

    def test_square_doubles_coefficient(self):
        form = SymplecticForm(2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.integers(-2, 3, size=4)
            if not v.any():
                continue
            t = transvection(v, form)
            t2 = multiply(t, t)
            doubled = np.eye(4, dtype=np.int64) - 2 * np.outer(v, v) @ form.gram
            assert t2.data.tolist() == doubled.tolist()

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_inverse_is_two_minus_t(self, g):
        # braid_to_matrix inverts a letter's transvection as 2I - T, which
        # must be the exact inverse over Z and mod m
        chain = build_chain(g)
        two = 2 * np.eye(2 * g, dtype=np.int64)
        for v in chain.vectors:
            for modulus in (0, 7):
                t = transvection(v, chain.form, modulus)
                assert GroupElement.matrix(two - t.data, modulus) == inverse(t)


class TestBraidWords:
    def test_empty_word_is_identity(self):
        chain = build_chain(2)
        word = BraidWord((), 5)
        assert braid_to_matrix(word, chain) == identity_matrix(4, 0)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_braid_relations_over_z(self, g):
        chain = build_chain(g)
        strands = 2 * g + 1
        for i in range(1, 2 * g):
            lhs = braid_to_matrix(BraidWord((i, i + 1, i), strands), chain)
            rhs = braid_to_matrix(BraidWord((i + 1, i, i + 1), strands), chain)
            assert lhs == rhs

    @pytest.mark.parametrize("g", [2, 3])
    def test_far_commutation(self, g):
        chain = build_chain(g)
        strands = 2 * g + 1
        for i in range(1, 2 * g + 1):
            for j in range(i + 2, 2 * g + 1):
                lhs = braid_to_matrix(BraidWord((i, j), strands), chain)
                rhs = braid_to_matrix(BraidWord((j, i), strands), chain)
                assert lhs == rhs

    def test_images_are_symplectic(self):
        rng = np.random.default_rng(9)
        for g in (1, 2):
            chain = build_chain(g)
            form = chain.form
            width = 2 * g
            for modulus in (0, 5):
                for _ in range(25):
                    letters = [
                        int(s) * int(i)
                        for s, i in zip(
                            rng.choice([-1, 1], size=6), rng.integers(1, width + 1, size=6)
                        )
                    ]
                    m = braid_to_matrix(BraidWord(tuple(letters), 2 * g + 1), chain, modulus)
                    assert is_symplectic(m, form)

    def test_word_inverse(self):
        chain = build_chain(1)
        w = BraidWord((1, -2, 1), 3)
        prod = multiply(braid_to_matrix(w, chain), braid_to_matrix(w.inverse(), chain))
        assert prod == identity_matrix(2, 0)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            BraidWord((3,), 3)
        with pytest.raises(ValueError):
            BraidWord((0,), 3)


class TestPureBraid:
    def test_genus_one_expansion(self):
        words = {w.letters for w in pure_braid_generators(1)}
        assert words == {(1, 1), (-2, 1, 1, 2), (2, 2)}

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_count(self, g):
        assert len(pure_braid_generators(g)) == (2 * g + 1) * g

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_images_trivial_mod_2(self, g):
        chain = build_chain(g)
        for w in pure_braid_generators(g):
            m = braid_to_matrix(w, chain, 2)
            assert m == identity_matrix(2 * g, 2)

    def test_conjugated_square_is_conjugate_of_square(self):
        chain = build_chain(2)
        # A_{1,4} must equal C sigma_1^2 C^{-1} with C = sigma_3 sigma_2
        a = braid_to_matrix([w for w in pure_braid_generators(2) if w.letters[-1] == 3][0], chain)
        c = braid_to_matrix(BraidWord((2, 3), 5), chain)
        s11 = braid_to_matrix(BraidWord((1, 1), 5), chain)
        from thinlab.elements import inverse

        assert a == multiply(multiply(c, s11), inverse(c))


class TestPointPushing:
    def test_genus_one_words(self):
        words = {w.letters for w in point_pushing_generators(1)}
        assert words == {(-2, 1, 1, 2), (2, 2)}

    @pytest.mark.parametrize("g", [1, 2])
    def test_count_and_mod2(self, g):
        words = point_pushing_generators(g)
        assert len(words) == 2 * g
        chain = build_chain(g)
        for w in words:
            assert braid_to_matrix(w, chain, 2) == identity_matrix(2 * g, 2)

    @pytest.mark.parametrize("g,ell", [(1, 3), (1, 5), (2, 3)])
    def test_surjects_mod_odd_primes(self, g, ell):
        chain = build_chain(g)
        mats = [braid_to_matrix(w, chain) for w in point_pushing_generators(g)]
        report = congruence_report(mats, [ell])
        assert report.mod2_trivial
        assert report.surjective[ell]
        assert report.prime_orders[ell] == (sp_order(g, ell), sp_order(g, ell))


class TestCongruenceReport:
    def test_identity_trivial_everywhere(self):
        report = congruence_report([identity_matrix(2, 0)], [3, 5])
        assert report.mod2_trivial and report.mod4_trivial
        assert report.prime_orders[3] == (1, 24)
        assert not report.surjective[3]

    def test_full_braid_group_surjective_g2_p3(self):
        chain = build_chain(2)
        mats = [braid_to_matrix(w, chain) for w in full_braid_generators(2)]
        report = congruence_report(mats, [3])
        assert not report.mod2_trivial
        assert report.prime_orders[3] == (51840, 51840)

    def test_genus_two_mod_five_past_the_element_budget(self, monkeypatch):
        # |Sp4(F5)| = 9,360,000 elements, over the default budget of 2,000,000
        monkeypatch.delenv("THINLAB_BUDGET", raising=False)
        chain = build_chain(2)
        mats = [braid_to_matrix(w, chain) for w in point_pushing_generators(2)]
        start = time.perf_counter()
        report = congruence_report(mats, [5])
        assert time.perf_counter() - start < 5
        assert report.prime_orders[5] == (9360000, 9360000)

    def test_genus_three_mod_three_refused(self, monkeypatch):
        monkeypatch.delenv("THINLAB_BUDGET", raising=False)
        chain = build_chain(3)
        mats = [braid_to_matrix(w, chain) for w in point_pushing_generators(3)]
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc_info:
            congruence_report(mats, [3])
        assert time.perf_counter() - start < 5
        assert exc_info.value.budget == 2_000_000
        assert re.fullmatch(
            r"matrix_group_order: (orbit|Schreier) products at base point \d over the limit of 2000000",
            str(exc_info.value),
        )

    def test_mod4_implies_mod2(self):
        with pytest.raises(ValueError):
            CongruenceLevelReport(mod2_trivial=False, mod4_trivial=True, prime_orders={})

    def test_rejects_modular_input(self):
        with pytest.raises(ValueError):
            congruence_report([identity_matrix(2, 5)], [3])


class TestStandardGenerators:
    def test_generate_full_symplectic_quotients(self):
        # duplicated-by-design with test_groups: these seeds are the ones the
        # whole lab leans on
        assert bfs_closure(standard_symplectic_generators(1, 3)).order == 24
        assert bfs_closure(standard_symplectic_generators(2, 3)).order == 51840

    def test_catalog_json_shape(self):
        chain = build_chain(1)
        mats = [braid_to_matrix(w, chain) for w in point_pushing_generators(1)]
        payload = catalog_json(mats, label="pp1")
        assert payload["label"] == "pp1"
        assert payload["dimension"] == 2 and payload["modulus"] == 0
        assert len(payload["matrices"]) == 2
        assert all(len(m) == 2 and len(m[0]) == 2 for m in payload["matrices"])
