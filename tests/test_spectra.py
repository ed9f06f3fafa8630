import json
import tracemalloc

import numpy as np
import pytest

from thinlab.groups import bfs_closure, cyclic_generators, sl2_generators, symmetric_generators, direct_product_of_cyclic
from thinlab.graphs import cayley_graph, components, from_edges, schreier_graph, torsion_action
from thinlab import spectra
from thinlab.spectra import (
    ITERATIVE_TOL,
    ConvergenceError,
    esperantist_fit,
    family_sweep,
    fit_from_json,
    fit_to_json,
    lambda1,
    write_reports_csv,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TWO_TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


def cyclic_graph(n):
    gens = cyclic_generators(n)
    return cayley_graph(bfs_closure(gens), gens)


def two_cycles(n):
    """Two disjoint n-cycles: 2n vertices, two components."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return from_edges(2 * n, edges + [(n + u, n + v) for u, v in edges], label=f"2C{n}")


def sl2_graph(p):
    gens = sl2_generators(p)
    return cayley_graph(bfs_closure(gens), gens)


def spectrum_zero_count(graph, tol=1e-9):
    """Oracle: full dense spectrum, count eigenvalues at zero."""
    A = graph.dense_adjacency()
    L = np.eye(graph.n_vertices) - A / graph.degree
    w = np.linalg.eigvalsh(L)
    return int((np.abs(w) < tol).sum())


def graph_pool():
    """Twenty-plus graphs spanning all four construction routes."""
    from thinlab import origami, pra

    pool = [from_edges(4, K4_EDGES, label="K4"), from_edges(6, TWO_TRIANGLES, label="2K3")]
    pool += [cyclic_graph(n) for n in range(4, 12)]
    pool += [sl2_graph(p) for p in (3, 5, 7)]
    pool += [schreier_graph(torsion_action(sl2_generators(p))) for p in (3, 5, 7)]
    pool += [
        pra.pra_graph(bfs_closure(direct_product_of_cyclic([2, 2])), 2),
        pra.pra_graph(bfs_closure(symmetric_generators(3)), 2),
        pra.pra_graph(bfs_closure(cyclic_generators(5)), 2),
    ]
    pool += [origami.origami_graph(3, (3,)), origami.origami_graph(4, (2, 2)), origami.origami_graph(4, (1, 1, 1, 1))]
    return pool


class TestLambda1Exact:
    def test_k4(self):
        graph = from_edges(4, K4_EDGES, label="K4")
        dense = lambda1(graph, method="dense")
        iterative = lambda1(graph, method="iterative")
        assert abs(dense.lambda1 - 4 / 3) < 1e-9
        assert abs(iterative.lambda1 - 4 / 3) < 1e-6
        assert abs(dense.lambda1 - iterative.lambda1) < 1e-8

    @pytest.mark.parametrize("n", [4, 5, 8, 12, 20])
    def test_cycle(self, n):
        want = 1 - np.cos(2 * np.pi / n)
        graph = cyclic_graph(n)
        assert abs(lambda1(graph, method="dense").lambda1 - want) < 1e-9
        assert abs(lambda1(graph, method="iterative").lambda1 - want) < 1e-6

    def test_four_cycle_is_one(self):
        assert abs(lambda1(cyclic_graph(4), method="dense").lambda1 - 1.0) < 1e-12

    def test_triangle(self):
        graph = from_edges(3, [(0, 1), (1, 2), (0, 2)], label="K3")
        for method in ("dense", "iterative"):
            assert abs(lambda1(graph, method=method).lambda1 - 1.5) < 1e-9

    def test_single_edge_lambda_two(self):
        graph = from_edges(2, [(0, 1)], label="K2")
        assert abs(lambda1(graph, method="dense").lambda1 - 2.0) < 1e-12
        assert abs(lambda1(graph, method="iterative").lambda1 - 2.0) < 1e-9

    def test_disconnected(self):
        # exactly zero: eigh's rounding noise can be positive (+2.6e-17 on
        # two 40-cycles), which would pass as a connected graph's gap
        for graph in (from_edges(6, TWO_TRIANGLES, label="2K3"), two_cycles(40)):
            for method in ("dense", "iterative"):
                report = lambda1(graph, method=method)
                assert report.lambda1 == 0.0, (graph.label, method)
                assert report.zero_multiplicity == 2

    def test_all_loops_action(self):
        n = 7
        ident = np.arange(n, dtype=np.int32)
        graph = schreier_graph(np.stack([ident, ident], axis=1))
        report = lambda1(graph, method="dense")
        assert report.lambda1 == pytest.approx(0.0, abs=1e-12)
        assert report.zero_multiplicity == n


class TestInvariants:
    def test_zero_multiplicity_matches_components_on_pool(self):
        pool = [g for g in graph_pool() if g.n_vertices >= 2]
        assert len(pool) >= 20
        for graph in pool:
            report = lambda1(graph, method="dense")
            assert report.zero_multiplicity == len(components(graph))
            assert report.zero_multiplicity == spectrum_zero_count(graph)
            assert -1e-9 <= report.lambda1 <= 2 + 1e-9

    def test_dense_iterative_agreement_on_pool(self):
        pool = [g for g in graph_pool() if g.n_vertices >= 2]
        checked = 0
        for graph in pool:
            dense = lambda1(graph, method="dense")
            iterative = lambda1(graph, method="iterative")
            assert abs(dense.lambda1 - iterative.lambda1) < 1e-8, graph.label
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("p", [11, 13])
    def test_iterative_matches_dense_on_degenerate_sl2(self, p):
        # N = 1320 and 2184; lambda1 has multiplicity p + 1 (12 and 14)
        graph = sl2_graph(p)
        dense = lambda1(graph, method="dense")
        iterative = lambda1(graph, method="iterative")
        assert abs(dense.lambda1 - iterative.lambda1) <= 1e-8
        assert abs(iterative.eigenvector.sum()) <= 1e-8
        assert iterative.residual <= ITERATIVE_TOL

    def test_rayleigh_certificate(self):
        for graph in (sl2_graph(7), cyclic_graph(30)):
            for method in ("dense", "iterative"):
                report = lambda1(graph, method=method)
                A = graph.dense_adjacency()
                L = np.eye(graph.n_vertices) - A / graph.degree
                x = report.eigenvector
                res = np.linalg.norm(L @ x - report.lambda1 * x) / np.linalg.norm(x)
                assert res <= max(1e-6, report.residual * 1.01)

    def test_generator_relabeling_invariance(self):
        from thinlab.groups import GeneratorSet

        gens = sl2_generators(5)
        swapped = GeneratorSet([gens.elements[1], gens.elements[0]], label="swapped")
        group = bfs_closure(gens)
        lam1 = lambda1(cayley_graph(group, gens), method="dense").lambda1
        lam2 = lambda1(cayley_graph(group, swapped), method="dense").lambda1
        assert abs(lam1 - lam2) < 1e-10

    @pytest.mark.parametrize("ell", [3, 5, 7, 11])
    def test_schreier_gap_at_least_cayley_gap(self, ell):
        gens = sl2_generators(ell)
        group = bfs_closure(gens)
        cay = lambda1(cayley_graph(group, gens), method="dense").lambda1
        sch = lambda1(schreier_graph(torsion_action(gens)), method="dense").lambda1
        assert sch >= cay - 1e-9


class TestEdgesAndErrors:
    def test_single_vertex_rejected(self):
        graph = from_edges(1, [(0, 0)])
        with pytest.raises(ValueError, match="single-vertex"):
            lambda1(graph)

    def test_zero_degree_rejected(self):
        graph = from_edges(3, [])
        with pytest.raises(ValueError, match="degree"):
            lambda1(graph)

    def test_convergence_error_carries_estimate(self):
        graph = sl2_graph(11)  # N = 1320, forced iterative
        with pytest.raises(ConvergenceError) as exc_info:
            lambda1(graph, method="iterative", maxiter=1, tol=1e-14)
        assert exc_info.value.iterations == 1

    def test_auto_switches_on_cutoff(self, monkeypatch):
        graph = cyclic_graph(12)
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 20)
        assert lambda1(graph, method="auto").solver == "dense"
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 5)
        assert lambda1(graph, method="auto").solver == "iterative"


class TestFamilySweep:
    def test_sl2_family(self):
        def builder(p):
            return sl2_graph(p)

        sweep = family_sweep(builder, [3, 5, 7, 11, 13])
        assert sweep.ok
        assert len(sweep.reports) == 5
        assert all(r.zero_multiplicity == 1 for r in sweep.reports)
        assert min(r.lambda1 for r in sweep.reports) > 0

    def test_single_prime(self):
        sweep = family_sweep(lambda p: sl2_graph(p), [5])
        assert len(sweep.reports) == 1 and sweep.ok

    def test_failures_isolated(self):
        def builder(p):
            if p == 5:
                raise RuntimeError("boom")
            return sl2_graph(p)

        sweep = family_sweep(builder, [3, 5, 7])
        assert len(sweep.reports) == 2
        assert set(sweep.errors) == {5}
        assert "boom" in sweep.errors[5]

    def test_empty_primes_rejected(self):
        with pytest.raises(ValueError):
            family_sweep(lambda p: sl2_graph(p), [])

    def test_one_worker_runs_in_the_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker sweep started a thread pool")

        monkeypatch.setattr(spectra, "ThreadPoolExecutor", no_pool)

        def builder(p):
            if p == 5:
                raise RuntimeError("boom")
            return sl2_graph(p)

        sweep = family_sweep(builder, [7, 5, 3], jobs=1)
        assert [r.n_vertices for r in sweep.reports] == [336, 24]
        assert set(sweep.errors) == {5} and "boom" in sweep.errors[5]
        with pytest.raises(AssertionError, match="thread pool"):
            family_sweep(builder, [7, 5, 3], jobs=2)


class TestMemory:
    def test_dense_solve_holds_one_dense_matrix(self):
        # numpy and LAPACK work arrays are traced; eigh factors L in place
        # instead of copying it, so the peak is one N x N float64 array
        graph = sl2_graph(11)  # N = 1320
        n = graph.n_vertices
        tracemalloc.start()
        try:
            lambda1(graph, method="dense")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_family_sweep_reports_carry_no_eigenvector(self):
        sweep = family_sweep(lambda p: sl2_graph(p), [3, 5, 7])
        assert len(sweep.reports) == 3
        assert all(r.eigenvector is None for r in sweep.reports)


class TestEsperantist:
    def test_flat_series(self):
        fit = esperantist_fit([(n, 0.5) for n in (10, 100, 1000, 10000)])
        assert abs(fit.exponent) < 1e-9
        assert abs(fit.c - 0.5) < 1e-9

    def test_planted_exponent(self):
        fit = esperantist_fit([(n, float(np.log(n)) ** -2) for n in (100, 1000, 10**4, 10**5)])
        assert abs(fit.exponent - 2) < 1e-6
        assert abs(fit.c - 1) < 1e-6
        assert fit.residual_norm < 1e-9

    def test_sl2_family_diagnostic(self):
        sweep = family_sweep(lambda p: sl2_graph(p), [3, 5, 7, 11])
        fit = esperantist_fit(sweep.reports)
        assert fit.c > 0 and np.isfinite(fit.exponent)
        assert fit.min_lambda1 > 0

    def test_disconnected_filtered(self):
        pts = [(10, 0.5), (100, 0.4), (1000, 0.3), (50, 0.0)]
        fit = esperantist_fit(pts)
        assert len(fit.points) == 3

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            esperantist_fit([(10, 0.5), (100, 0.4)])

    def test_json_roundtrip(self):
        fit = esperantist_fit([(n, float(np.log(n)) ** -1.5) for n in (10, 100, 1000)])
        assert fit_from_json(fit_to_json(fit)) == fit


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        reports = [lambda1(cyclic_graph(n), method="dense") for n in (5, 6)]
        path = tmp_path / "out.csv"
        write_reports_csv(reports, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "graph_id,N,k,lambda1,zero_mult,solver,residual,seconds"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "5"

    def test_seconds_suppressed(self, tmp_path):
        reports = [lambda1(cyclic_graph(5), method="dense")]
        path = tmp_path / "out.csv"
        write_reports_csv(reports, path, include_seconds=False)
        assert path.read_text().strip().split("\n")[1].endswith(",")
