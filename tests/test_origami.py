import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab import origami as origami_mod
from thinlab.cli import run, validate_config
from thinlab.elements import GroupElement
from thinlab.graphs import components
from thinlab.groups import BudgetExceeded, GeneratorSet, bfs_closure, direct_product_of_cyclic
from thinlab.origami import (
    CensusClass,
    OrigamiPair,
    census,
    commutator,
    cycle_type,
    encode_pair,
    genus,
    is_transitive,
    lex_least_of_type,
    nielsen_moves,
    origami_graph,
    parse_pair,
    partitions,
    subgroup_order,
)
from thinlab.spectra import lambda1


# a pair of permutations of one random degree from 1 to 8
PAIRS_UP_TO_8 = st.integers(1, 8).flatmap(
    lambda d: st.tuples(st.permutations(range(d)), st.permutations(range(d)))
)


def _conj(g, p):
    """g p g^(-1), computed without forming g^(-1)."""
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[g[i]] = g[pi]
    return tuple(out)


def all_perms(d):
    return list(itertools.permutations(range(d)))


def brute_orbits(d):
    """Oracle: union-find over all simultaneous conjugations of all
    transitive pairs."""
    perms = all_perms(d)
    pairs = [(s, t) for s in perms for t in perms if is_transitive(s, t)]
    pos = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (s, t), i in pos.items():
        for g in perms:
            j = pos[(_conj(g, s), _conj(g, t))]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

    orbits = {}
    for p, i in pos.items():
        orbits.setdefault(find(i), []).append(p)
    return sorted((min(members), len(members)) for members in orbits.values()), len(pairs)


def brute_canonical(pair):
    """Oracle canonical form: minimum over all d! conjugators."""
    perms = all_perms(pair.degree)
    return min((_conj(g, pair.sigma), _conj(g, pair.tau)) for g in perms)


class TestCensusAgainstBruteForce:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_classes_and_orbit_sizes(self, d):
        # d = 1: no centralizer generator, an empty conjugation column stack
        oracle, n_transitive = brute_orbits(d)
        mine = census(d)
        assert [(c.rep.sigma, c.rep.tau) for c in mine] == [rep for rep, _ in oracle]
        assert [c.orbit_size for c in mine] == [size for _, size in oracle]
        assert sum(c.orbit_size for c in mine) == n_transitive

    def test_d5_partition_of_transitive_pairs(self):
        perms = all_perms(5)
        n_transitive = sum(
            1 for s in perms for t in perms if is_transitive(s, t)
        )
        assert sum(c.orbit_size for c in census(5)) == n_transitive

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_orbit_sizes_sum_to_transitive_count(self, d):
        # counting oracle via the exponential formula: the block containing
        # point 1 has size k and acts transitively, the rest is arbitrary
        import math

        def transitive_pair_count(m_top):
            a = lambda k: math.factorial(k) ** 2
            t = {}
            for m in range(1, m_top + 1):
                t[m] = a(m) - sum(
                    math.comb(m - 1, k - 1) * t[k] * a(m - k) for k in range(1, m)
                )
            return t[m_top]

        assert sum(c.orbit_size for c in census(d)) == transitive_pair_count(d)

    def test_d2_all_trivial_commutator(self):
        classes = census(2)
        assert len(classes) == 3
        for c in classes:
            assert c.mu == (1, 1)
            assert c.genus == 1

    def test_d3_mu3_filter(self):
        classes = census(3, mu=(3,))
        full = [c for c in census(3) if c.mu == (3,)]
        assert classes == full
        for c in classes:
            assert c.genus == 2

    def test_canonical_reps_are_orbit_minima(self):
        for d in (3, 4):
            for c in census(d):
                assert (c.rep.sigma, c.rep.tau) == brute_canonical(c.rep)

    def test_image_order_via_independent_closure(self):
        for c in census(4) + census(5):
            gens = GeneratorSet(
                [
                    GroupElement.permutation(c.rep.sigma),
                    GroupElement.permutation(c.rep.tau),
                ]
            )
            assert bfs_closure(gens).order == c.image_order

    @pytest.mark.parametrize("d,every", [(6, 1), (7, 10)])
    def test_image_order_is_each_class_own_closure(self, d, every):
        # the census closes one class per move-graph component
        for c in census(d)[::every]:
            assert c.image_order == subgroup_order(c.rep.sigma, c.rep.tau)

    def test_degree_cap(self, monkeypatch):
        with pytest.raises(BudgetExceeded, match="census\\(d=9\\): degree over the limit of 8"):
            census(9)
        # the cap is read at call time
        monkeypatch.setattr(origami_mod, "DEFAULT_DEGREE_CAP", 3)
        with pytest.raises(BudgetExceeded):
            census(4)

    def test_cap_is_not_a_parameter(self):
        for fn in (census, origami_graph):
            assert "cap" not in inspect.signature(fn).parameters
        with pytest.raises(TypeError):
            census(4, cap=3)

    def test_bad_mu_rejected(self):
        with pytest.raises(ValueError):
            census(4, mu=(3,))


class TestSubgroupOrder:
    @settings(max_examples=80, deadline=None)
    @given(PAIRS_UP_TO_8)
    def test_matches_bfs_closure(self, pair):
        # transitive or not: the order of <sigma, tau> closed inside S_d
        sigma, tau = (tuple(p) for p in pair)
        gens = GeneratorSet([GroupElement.permutation(sigma), GroupElement.permutation(tau)])
        assert subgroup_order(sigma, tau) == bfs_closure(gens).order


class TestGenus:
    def test_trivial_commutator_genus_one(self):
        for d in (2, 3, 4):
            cycle = tuple(range(1, d)) + (0,)
            pair = OrigamiPair(cycle, cycle)
            assert pair.commutator_type == (1,) * d
            assert genus(pair) == 1

    def test_three_cycle_commutator(self):
        found = [c for c in census(3) if c.mu == (3,)]
        assert found and all(c.genus == 2 for c in found)

    def test_d4_two_two_commutator_exists_and_genus_two(self):
        # brute-force existence before citing
        hits = [
            OrigamiPair(s, t)
            for s in all_perms(4)
            for t in all_perms(4)
            if is_transitive(s, t) and cycle_type(commutator(s, t)) == (2, 2)
        ]
        assert hits
        for pair in hits[:5]:
            assert genus(pair) == 2

    def test_degree_zero_pair_rejected(self):
        with pytest.raises(ValueError, match="degree >= 1"):
            OrigamiPair((), ())

    @pytest.mark.parametrize(
        "derived", [{"commutator": (9, 9, 9)}, {"commutator_type": (42,)}, {"transitive": False}]
    )
    def test_derived_fields_are_not_arguments(self, derived):
        # they were silently overwritten; now passing one is an error
        with pytest.raises(TypeError):
            OrigamiPair((1, 0, 2), (0, 2, 1), **derived)
        pair = OrigamiPair((1, 0, 2), (0, 2, 1))
        assert (pair.commutator, pair.commutator_type, pair.transitive) == ((2, 0, 1), (3,), True)
        assert "commutator_type=(3,)" in repr(pair)

    @pytest.mark.parametrize("sigma,tau", [((), ()), ((1, 0), (0,)), ((0,), (1, 0))])
    def test_transitivity_of_unequal_or_empty_degrees_refused(self, sigma, tau):
        with pytest.raises(ValueError, match="same degree >= 1"):
            is_transitive(sigma, tau)

    @pytest.mark.parametrize(
        "sigma,tau,bad", [((5,), (0,), "sigma"), ((0, 0), (1, 0), "sigma"), ((1, 0), (1, 1), "tau")]
    )
    def test_transitivity_of_non_permutations_refused(self, sigma, tau, bad):
        # refused before the BFS, which would index out of range or count
        # the repeated image's point as reached
        with pytest.raises(ValueError, match=f"{bad} is not a permutation"):
            is_transitive(sigma, tau)

    def test_non_transitive_rejected(self):
        pair = OrigamiPair((0, 1, 2), (0, 2, 1))
        assert not pair.transitive
        with pytest.raises(ValueError, match="transitive"):
            genus(pair)

    def test_genus_formula_against_definition(self):
        for c in census(5):
            excess = sum(e - 1 for e in c.mu)
            assert c.genus == 1 + excess // 2
            assert excess % 2 == 0


class TestNielsenMoves:
    def test_t_then_t_inverse(self):
        pair = OrigamiPair((1, 2, 0), (0, 2, 1))
        t, t_inv, s, s_inv = nielsen_moves(pair)
        assert nielsen_moves(t)[1] == pair
        assert nielsen_moves(t_inv)[0] == pair
        assert nielsen_moves(s)[3] == pair
        assert nielsen_moves(s_inv)[2] == pair

    @settings(max_examples=300)
    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    def test_mu_preserved(self, sigma, tau):
        pair = OrigamiPair(tuple(sigma), tuple(tau))
        for moved in nielsen_moves(pair):
            assert moved.commutator_type == pair.commutator_type

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_mu_and_image_order_invariant_exhaustive(self, d):
        for c in census(d):
            base_order = subgroup_order(c.rep.sigma, c.rep.tau)
            for moved in nielsen_moves(c.rep):
                assert moved.commutator_type == c.mu
                assert subgroup_order(moved.sigma, moved.tau) == base_order

    def test_abelianized_action_is_unimodular(self):
        # read the induced map on exponent vectors off a free abelian proxy
        n = 31
        gens = direct_product_of_cyclic([n, n])
        sigma0 = tuple(gens.elements[0].data.tolist())
        tau0 = tuple(gens.elements[1].data.tolist())

        def exponents(perm):
            return np.array([perm[0] % n, perm[n] - n]) % n

        pair = OrigamiPair(sigma0, tau0)
        matrices = []
        for moved in nielsen_moves(pair):
            cols = [exponents(moved.sigma), exponents(moved.tau)]
            matrices.append(np.stack(cols, axis=1) % n)
        t, t_inv, s, s_inv = matrices
        assert t.tolist() == [[1, 1], [0, 1]]
        assert t_inv.tolist() == [[1, n - 1], [0, 1]]
        assert s.tolist() == [[0, 1], [n - 1, 0]]
        assert s_inv.tolist() == [[0, n - 1], [1, 0]]
        for m in matrices:
            assert (int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0])) % n == 1
        assert np.array_equal(np.linalg.matrix_power(s, 4) % n, np.eye(2, dtype=np.int64))


class TestOrigamiGraph:
    def brute_component_count(self, d, mu):
        classes = census(d, mu=mu)
        reps = [(c.rep.sigma, c.rep.tau) for c in classes]
        pos = {rep: i for i, rep in enumerate(reps)}
        parent = list(range(len(reps)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, c in enumerate(classes):
            for moved in nielsen_moves(c.rep):
                j = pos[brute_canonical(moved)]
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
        return len({find(i) for i in range(len(reps))})

    @pytest.mark.parametrize("d,mu", [(3, (3,)), (4, (2, 2)), (4, (3, 1)), (4, (1, 1, 1, 1))])
    def test_components_match_union_find(self, d, mu):
        graph = origami_graph(d, mu)
        assert graph.degree == 4
        assert len(components(graph)) == self.brute_component_count(d, mu)

    def test_degree_one_is_one_vertex_with_four_loops(self):
        assert origami_graph(1, (1,)).neighbors.tolist() == [[0, 0, 0, 0]]

    def test_empty_mu_gives_empty_graph(self):
        graph = origami_graph(3, (2, 1))  # odd class, never a commutator here
        assert graph.n_vertices == 0

    def test_feeds_spectra(self):
        graph = origami_graph(3, (3,))
        report = lambda1(graph)
        assert report.n_vertices == graph.n_vertices
        assert report.zero_multiplicity == len(components(graph))

    def test_genus_constant_on_components(self):
        for d in (3, 4):
            for mu in {c.mu for c in census(d)}:
                classes = census(d, mu=mu)
                graph = origami_graph(d, mu)
                for comp in components(graph):
                    genera = {classes[int(v)].genus for v in comp}
                    assert len(genera) == 1

    @pytest.mark.parametrize(
        "degrees,with_order,every",
        [
            pytest.param((4, 5), False, 1, id="False"),
            pytest.param((4, 5), True, 1, id="True"),
            # a deterministic sample: 720 conjugators per moved pair
            pytest.param((6,), False, 20, id="d6-every-20th"),
        ],
    )
    def test_columns_are_census_positions_of_moved_reps(self, degrees, with_order, every):
        # vertex i is the i-th class of census(d, mu) with the image order;
        # column t holds the position of the brute-force canonical form of
        # move t applied to vertex i's representative
        for d, mu in sorted({(d, c.mu) for d in degrees for c in census(d)}):
            classes = census(d, mu=mu)
            orders = sorted({c.image_order for c in classes}) if with_order else [None]
            for order in orders:
                kept = [c for c in classes if order is None or c.image_order == order]
                pos = {(c.rep.sigma, c.rep.tau): i for i, c in enumerate(kept)}
                graph = origami_graph(d, mu, image_order=order)
                assert graph.n_vertices == len(kept)
                for v, c in list(enumerate(kept))[::every]:
                    for t, moved in enumerate(nielsen_moves(c.rep)):
                        assert graph.neighbors[v, t] == pos[brute_canonical(moved)]

    @pytest.mark.parametrize("d", [6, 7])
    def test_inverse_moves_are_inverse_columns(self, d):
        # schreier_graph checks only that the columns are inversion-closed
        # as a multiset; T_inv undoes T and S_inv undoes S vertex by vertex
        for mu in sorted({m for _, _, m, _ in origami_mod._sweep(d)[0]}):
            n = origami_graph(d, mu).neighbors
            assert np.array_equal(n[n[:, 0], 1], np.arange(len(n)))
            assert np.array_equal(n[n[:, 2], 3], np.arange(len(n)))

    def test_builds_no_per_pair_objects(self, monkeypatch):
        expected = origami_graph(5, (3, 1, 1))
        origami_mod._sweep.cache_clear()
        origami_mod._moves.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError("per-pair object built")

        monkeypatch.setattr(origami_mod, "OrigamiPair", refuse)
        monkeypatch.setattr(origami_mod, "nielsen_moves", refuse)
        graph = origami_graph(5, (3, 1, 1))
        assert graph.label == expected.label
        assert np.array_equal(graph.neighbors, expected.neighbors)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_conjugator_table(self, d):
        # conj[x] conjugates x to the sigma0 of row[x], which has x's cycle type
        _, labels, row, conj = origami_mod._sweep(d)
        sigma0s = sorted(lex_least_of_type(lam, d) for lam in partitions(d))
        assert labels.shape == (len(sigma0s), len(all_perms(d)))
        stack = origami_mod._symmetric_group(d).stack.tolist()
        for x, perm in enumerate(stack):
            sigma0 = sigma0s[row[x]]
            assert _conj(stack[conj[x]], perm) == sigma0
            assert cycle_type(sigma0) == cycle_type(perm)

    def test_image_order_filter(self):
        classes = census(4, mu=(1, 1, 1, 1))
        orders = {c.image_order for c in classes}
        some_order = min(orders)
        graph = origami_graph(4, (1, 1, 1, 1), image_order=some_order)
        assert graph.n_vertices == sum(1 for c in classes if c.image_order == some_order)


class TestOneSweepPerDegree:
    @pytest.fixture
    def closures(self, monkeypatch):
        """Empty census caches; records the number of sets each batched
        image-group closure closes."""
        calls = []
        closure = origami_mod.closure_orders

        def counted(columns, sets):
            calls.append(len(sets))
            return closure(columns, sets)

        origami_mod._sweep.cache_clear()
        origami_mod._moves.cache_clear()
        monkeypatch.setattr(origami_mod, "closure_orders", counted)
        return calls

    @pytest.mark.parametrize("d,n_components", [(5, 8), (6, 28), (7, 41)])
    def test_census_closes_once_per_component(self, closures, d, n_components):
        # one batched call closes one set per component
        classes = census(d)
        assert closures == [n_components]
        strata = {c.mu for c in classes}
        assert sum(len(components(origami_graph(d, mu))) for mu in strata) == n_components
        for mu in strata:
            assert census(d, mu=mu) == [c for c in classes if c.mu == mu]
            for order in {c.image_order for c in classes if c.mu == mu}:
                origami_graph(d, mu, image_order=order)
        assert closures == [n_components]

    def test_moves_close_every_component_in_one_call(self, closures):
        neighbors, _ = origami_mod._moves(6)
        assert closures == [28]
        assert len(components(origami_mod.schreier_graph(neighbors))) == 28

    def test_census_run_closes_once_per_component(self, tmp_path, closures):
        config = {"kind": "origami-census", "degree": 5, "image_order": 60, "dot": True}
        manifest = run(validate_config(config), out_dir=tmp_path)
        assert not manifest.failed
        assert closures == [8]

    def test_filters_share_one_sweep(self, closures):
        full = census(4)
        for mu in {c.mu for c in full}:
            assert census(4, mu=mu) == [c for c in full if c.mu == mu]
            origami_graph(4, mu)
        info = origami_mod._sweep.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_degree_above_element_budget_refused_before_the_sweep(self, closures, monkeypatch):
        # 10! = 3,628,800 is above the default element budget of 2,000,000
        monkeypatch.setattr(origami_mod, "DEFAULT_DEGREE_CAP", 10)
        with pytest.raises(BudgetExceeded, match="10!"):
            census(10)
        monkeypatch.setenv("THINLAB_BUDGET", "100")
        with pytest.raises(BudgetExceeded, match="5!"):
            census(5)
        with pytest.raises(BudgetExceeded):
            origami_graph(5, (1,) * 5)
        assert origami_mod._sweep.cache_info().misses == 0
        assert closures == []
        assert len(census(4)) == 26  # 4! = 24 fits

    def test_requests_checked_before_the_sweep(self, closures, monkeypatch):
        with pytest.raises(ValueError):
            origami_graph(4, (3,))
        with pytest.raises(ValueError, match="needs a commutator type mu"):
            origami_graph(4, None)
        monkeypatch.setattr(origami_mod, "DEFAULT_DEGREE_CAP", 4)
        with pytest.raises(BudgetExceeded):
            origami_graph(5, (1,) * 5)
        with pytest.raises(ValueError):
            census(0)
        assert origami_mod._sweep.cache_info().misses == 0


class TestEncoding:
    def test_encode_known(self):
        assert encode_pair((1, 0, 2), (0, 2, 1)) == "(0,1)(2)|(0)(1,2)"

    @given(PAIRS_UP_TO_8)
    def test_roundtrip(self, pair):
        sigma, tau = (tuple(p) for p in pair)
        back = parse_pair(encode_pair(sigma, tau))
        assert (back.sigma, back.tau) == (sigma, tau)

    @settings(max_examples=300)
    @given(st.text(alphabet="()|,0123456789 -", max_size=40))
    def test_arbitrary_strings_raise_only_value_error(self, text):
        try:
            pair = parse_pair(text)
        except ValueError:
            return
        assert parse_pair(pair.encode()) == pair

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_pair("(0,1)")
        with pytest.raises(ValueError):
            parse_pair("(0,1)|(0,2)")


def test_d6_census_csv_matches_the_benchmark_reference(tmp_path):
    # the reference is read only; it was written by the census before its
    # sweep moved into S_d's index space
    reference = Path(__file__).parents[1] / "perfbench/reference/combinatorial/origami_d6/census.csv"
    manifest = run(validate_config({"kind": "origami-census", "degree": 6, "seed": 0}), out_dir=tmp_path)
    assert not manifest.failed
    assert (tmp_path / "census.csv").read_bytes() == reference.read_bytes()


def test_census_class_fields_consistent():
    for c in census(4):
        assert isinstance(c, CensusClass)
        assert c.rep.transitive
        assert c.orbit_size >= 1 and c.image_order >= 1 and c.genus >= 1
