import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

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


def arpack_oracle(graph, tol=ITERATIVE_TOL):
    """Independent oracle for the iterative lambda1 of a connected graph: the
    ARPACK solve the iterative path ran before it became Lanczos on 1-perp,
    kept verbatim (implicitly restarted Lanczos on A/k for its two largest
    eigenvalues, from the same seeded start)."""
    n, k = graph.n_vertices, graph.degree
    A = graph.adjacency() / k
    maxiter = 10 * n
    v0 = np.random.default_rng(spectra._V0_SEED ^ n).standard_normal(n)
    # ARPACK stops at ||r|| <= tol * |theta| with |theta| <= 1
    theta, vecs = scipy.sparse.linalg.eigsh(A, k=2, which="LA", tol=tol, maxiter=maxiter, v0=v0)
    if abs(theta[1] - 1.0) > 1e-6:
        raise RuntimeError(f"kernel mismatch: connected graph, top eigenvalue {theta[1]} of A/k")
    return 1.0 - float(theta[0])


def complete_graph(n):
    return from_edges(n, list(itertools.combinations(range(n), 2)), label=f"K{n}")


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
        checked = connected = 0
        for graph in pool:
            dense = lambda1(graph, method="dense")
            iterative = lambda1(graph, method="iterative")
            assert abs(dense.lambda1 - iterative.lambda1) < 1e-8, graph.label
            checked += 1
            if dense.zero_multiplicity == 1:
                assert abs(arpack_oracle(graph) - iterative.lambda1) <= 1e-8, graph.label
                connected += 1
        assert checked >= 20 and connected >= 15

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


class TestLanczosOracles:
    """The Lanczos path against ARPACK (``arpack_oracle``) and dense eigh,
    its residual guarantee, and its stop on an invariant Krylov space."""

    @pytest.mark.parametrize("p", [17, 19, 23])
    def test_matches_arpack_on_sl2(self, p):
        graph = sl2_graph(p)  # N = 4896, 6840, 12144
        report = lambda1(graph, method="iterative")
        assert abs(report.lambda1 - arpack_oracle(graph)) <= 1e-8
        assert report.residual <= ITERATIVE_TOL

    def test_matches_arpack_on_pra_move_graph(self):
        from thinlab import pra

        graph = pra.pra_graph(bfs_closure(symmetric_generators(3)), 3)  # N = 168, k = 24
        assert len(components(graph)) == 1
        report = lambda1(graph, method="iterative")
        assert abs(report.lambda1 - arpack_oracle(graph)) <= 1e-8
        assert abs(report.lambda1 - lambda1(graph, method="dense").lambda1) <= 1e-8

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-9])
    def test_reported_residual_within_tol(self, tol):
        graph = sl2_graph(17)
        report = lambda1(graph, method="iterative", tol=tol)
        assert report.residual <= tol
        assert abs(np.linalg.norm(report.eigenvector) - 1.0) <= 1e-12
        assert abs(report.eigenvector.sum()) <= 1e-8
        # the eigenvalue error is about residual^2 / gap
        assert abs(report.lambda1 - arpack_oracle(graph)) <= max(1e-8, 10 * tol * tol)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", list(range(3, 13)))
    def test_clean_breakdown(self, n, monkeypatch):
        # A/k on 1-perp has floor(n/2) distinct eigenvalues on the n-cycle and
        # one on K_n, so beta vanishes at that step: the solve stops there,
        # exactly, with no division by ~0
        steps = []
        top_ritz = spectra._top_ritz

        def record(alpha, beta):
            steps.append(len(alpha))
            return top_ritz(alpha, beta)

        monkeypatch.setattr(spectra, "_top_ritz", record)
        cycle = lambda1(cyclic_graph(n), method="iterative")
        assert steps == [n // 2]
        assert abs(cycle.lambda1 - (1 - np.cos(2 * np.pi / n))) <= 1e-12
        steps.clear()
        kn = lambda1(complete_graph(n), method="iterative")
        assert steps == [1]
        assert abs(kn.lambda1 - n / (n - 1)) <= 1e-12

    def test_residual_above_tol_resumes(self, monkeypatch):
        # a Ritz pair whose true residual fails tol is not reported: the
        # recurrence resumes from its saved state and rebuilds a longer one
        builds = []
        ritz_vector = spectra._ritz_vector
        residual = spectra._residual

        def record(A, start, alpha, beta, s):
            builds.append(len(s))
            return ritz_vector(A, start, alpha, beta, s)

        def fail_first(A, lam, x):
            return 1.0 if len(builds) == 1 else residual(A, lam, x)

        monkeypatch.setattr(spectra, "_ritz_vector", record)
        monkeypatch.setattr(spectra, "_residual", fail_first)
        graph = sl2_graph(13)
        report = lambda1(graph, method="iterative")
        assert len(builds) == 2 and builds[1] > builds[0]
        assert report.residual <= ITERATIVE_TOL
        assert abs(report.lambda1 - arpack_oracle(graph)) <= 1e-8


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
        exc = exc_info.value
        assert exc.iterations == 1
        # after one step T is 1 x 1: a Ritz value and its estimate exist
        assert np.isfinite(exc.best_estimate) and 0.0 <= exc.best_estimate <= 2.0
        assert np.isfinite(exc.residual) and exc.residual > 1e-14

    def test_row_sum_drift_refused(self, monkeypatch):
        # the deflation of the constant vector rests on every row sum of A/k
        # being 1; a matrix that breaks it is refused, not solved
        graph = cyclic_graph(12)
        A = graph.adjacency().tolil()
        A[0, 1] += 1e-6
        monkeypatch.setattr(graph, "adjacency", lambda: A.tocsr())
        with pytest.raises(RuntimeError, match="row sum"):
            lambda1(graph, method="iterative")

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

    def test_dense_solve_of_disconnected_graph_forms_no_eigenvectors(self):
        # 1,500 components: eigh checks the kernel's dimension with
        # eigenvalues only, so no nearly N x N eigenvector block is formed
        n = 1500
        ident = np.arange(n, dtype=np.int32)
        graph = schreier_graph(np.stack([ident, ident], axis=1))
        tracemalloc.start()
        try:
            report = lambda1(graph, method="dense")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.lambda1 == 0.0 and report.zero_multiplicity == n
        assert peak < 1.2 * n * n * 8

    def test_iterative_solve_stores_no_basis(self):
        # counted in N-vectors of float64: building the sparse A/k peaks near
        # 23 on this graph, and the recurrence with its residual check holds
        # about 8 more than A/k; ARPACK's 20-vector basis and work arrays
        # took the whole solve near 55
        graph = sl2_graph(23)  # N = 12144
        n = graph.n_vertices
        tracemalloc.start()
        try:
            lambda1(graph, method="iterative")
            _, peak = tracemalloc.get_traced_memory()
            A = graph.adjacency() / graph.degree
            tracemalloc.reset_peak()
            spectra._lambda1_lanczos(A, n, ITERATIVE_TOL, 10 * n)
            _, lanczos_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * n * 8
        # the recurrence alone, A/k already built: no stored basis
        assert lanczos_peak < A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 10 * n * 8

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
