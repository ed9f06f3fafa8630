import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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


def eigvalsh_lambda1(graph):
    """Independent oracle for the dense lambda1: the second-smallest value
    of numpy's full symmetric spectrum of L = I - A/k."""
    L = np.eye(graph.n_vertices) - graph.dense_adjacency() / graph.degree
    return float(np.linalg.eigvalsh(L)[1])


def random_connected_multigraph(n, seed, cycles, involutions, bipartite):
    """Connected regular multigraph on n vertices (n even if bipartite): the
    Schreier graph of a random Hamiltonian cycle, ``cycles`` more random
    permutations, each with its inverse, and ``involutions`` random
    involutions.  Fixed points make loops and repeated images parallel
    edges; with ``bipartite`` every move swaps the evens and the odds."""
    rng = np.random.default_rng(seed)
    evens, odds = np.arange(0, n, 2), np.arange(1, n, 2)

    def swapping():
        perm = np.empty(n, dtype=np.int64)
        perm[evens], perm[odds] = rng.permutation(odds), rng.permutation(evens)
        return perm

    if bipartite:
        order = np.empty(n, dtype=np.int64)
        order[0::2], order[1::2] = rng.permutation(evens), rng.permutation(odds)
    else:
        order = rng.permutation(n)
    cycle = np.empty(n, dtype=np.int64)
    cycle[order] = np.roll(order, -1)
    perms = [cycle] + [swapping() if bipartite else rng.permutation(n) for _ in range(cycles)]
    moves = [m for perm in perms for m in (perm, np.argsort(perm))]
    for _ in range(involutions):
        inv = np.arange(n)
        if bipartite:
            pairs = np.stack([rng.permutation(evens), odds], axis=1)
        else:
            pairs = rng.permutation(n)[: 2 * int(rng.integers(0, n // 2 + 1))].reshape(-1, 2)
        inv[pairs[:, 0]], inv[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        moves.append(inv)
    return schreier_graph(np.stack(moves, axis=1), label=f"random{n}")


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


def spectral_dense_graphs():
    """The graphs the spectral benchmark solves densely: SL2(F_p) Cayley
    graphs for p = 3..13 and the genus-1 torsion Schreier graphs for
    p = 31, 37, 41."""
    return [(f"sl2_{p}", lambda p=p: sl2_graph(p)) for p in (3, 5, 7, 11, 13)] + [
        (f"torsion_{p}", lambda p=p: schreier_graph(torsion_action(sl2_generators(p))))
        for p in (31, 37, 41)
    ]


def shifted_laplacian(graph, shift):
    """L + 2 11^T / N - shift I, the matrix the dense certificate factors."""
    n = graph.n_vertices
    M = spectra._dense_laplacian(graph)
    M += 2.0 / n
    M.flat[:: n + 1] -= shift
    return M


def count_eigh(monkeypatch):
    """Count scipy.linalg.eigh calls; the calls still run."""
    calls = []
    eigh = scipy.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    return calls


class TestCertifiedDense:
    """The dense path's Lanczos value and its Cholesky certificate, against
    numpy's full spectrum (``eigvalsh_lambda1``), which shares no code with
    either of thinlab's solvers."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 300),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2),
        st.integers(0, 2),
        st.booleans(),
    )
    def test_matches_eigvalsh_on_random_multigraphs(self, n, seed, cycles, involutions, bipartite):
        graph = random_connected_multigraph(n - n % 2 if bipartite else n, seed, cycles, involutions, bipartite)
        assert len(components(graph)) == 1
        report = lambda1(graph)
        assert report.solver == "dense"
        assert abs(report.lambda1 - eigvalsh_lambda1(graph)) <= 1e-12
        assert report.residual <= 1e-10

    @pytest.mark.parametrize("name,build", spectral_dense_graphs(), ids=[n for n, _ in spectral_dense_graphs()])
    def test_certified_on_the_benchmark_graphs(self, name, build, monkeypatch):
        graph = build()
        calls = count_eigh(monkeypatch)
        report = lambda1(graph)
        assert report.solver == "dense" and report.zero_multiplicity == 1
        assert calls == []  # the certificate accepted the Lanczos value
        assert abs(report.lambda1 - eigvalsh_lambda1(graph)) <= 1e-12
        assert report.residual <= 1e-10

    def test_certificate_is_not_vacuous(self):
        # SL2(F13), N = 2184: lambda1 has multiplicity 14, and the blocked
        # factorisation separates shifts 2e-9 apart around it
        graph = sl2_graph(13)
        lam = lambda1(graph).lambda1
        assert spectra._cholesky_in_place(shifted_laplacian(graph, lam - 1e-9))
        assert not spectra._cholesky_in_place(shifted_laplacian(graph, lam + 1e-9))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 150])
    def test_blocked_cholesky_factors(self, n):
        # block edges on both sides of the width 64; the factor is dpotrf's
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, n))
        S = X @ X.T + n * np.eye(n)
        M = S.copy()
        assert spectra._cholesky_in_place(M)
        U = np.triu(M)
        assert np.abs(U - np.linalg.cholesky(S).T).max() <= 1e-12 * n
        indefinite = S - (np.linalg.eigvalsh(S)[0] + 1e-6) * np.eye(n)
        assert not spectra._cholesky_in_place(indefinite)

    def test_non_bottom_eigenpair_falls_back_to_eigh(self, monkeypatch):
        graph = sl2_graph(5)  # N = 120
        L = np.eye(graph.n_vertices) - graph.dense_adjacency() / graph.degree
        w, V = np.linalg.eigh(L)
        bottom = w[1]
        j = int(np.flatnonzero(w > bottom + 1e-3)[0])  # an eigenpair above lambda1
        A = graph.adjacency() / graph.degree
        wrong = (float(w[j]), spectra._residual(A, float(w[j]), V[:, j]), V[:, j])
        monkeypatch.setattr(spectra, "_lambda1_lanczos", lambda *args: wrong)
        calls = count_eigh(monkeypatch)
        report = lambda1(graph, method="dense")
        assert wrong[1] <= 1e-10  # a true eigenpair, only not the bottom one
        assert calls == [1]
        assert abs(report.lambda1 - bottom) <= 1e-12
        assert report.residual <= 1e-12

    def test_convergence_error_falls_back_to_eigh(self, monkeypatch):
        def fail(A, n, tol, maxiter):
            raise ConvergenceError(0.5, 1.0, maxiter)

        graph = sl2_graph(7)
        monkeypatch.setattr(spectra, "_lambda1_lanczos", fail)
        calls = count_eigh(monkeypatch)
        report = lambda1(graph, method="dense")
        assert calls == [1]
        assert report.solver == "dense"
        assert abs(report.lambda1 - eigvalsh_lambda1(graph)) <= 1e-12
        assert report.residual <= 1e-12


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

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0},
            {"tol": -1.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": "1e-6"},
            {"maxiter": 0},
            {"maxiter": -5},
            {"maxiter": 2.5},
            {"maxiter": True},
        ],
    )
    def test_bad_tol_or_maxiter_rejected_before_any_solve(self, method, kwargs, monkeypatch):
        # tol = 0 or NaN ran every Lanczos step before failing, tol = inf
        # reported an unconverged value and maxiter < 1 a one-step estimate
        def no_solve(graph):
            raise AssertionError("a solve started")

        monkeypatch.setattr(spectra, "components", no_solve)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            lambda1(sl2_graph(11), method=method, **kwargs)

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

    def test_dense_solve_stays_in_the_blas_buffer(self):
        # OpenBLAS's GEMM buffer is outside tracemalloc, so the process's
        # ru_maxrss is read in a fresh single-threaded process.  A small
        # solve first loads the libraries' code; the base is then the peak
        # with L built.  A dpotrf of the whole matrix measured about +6.4 MB
        # here, the 64-wide blocked factorisation +1.9 MB and eigh +1.3 MB.
        script = textwrap.dedent(
            """
            import resource
            from thinlab.graphs import cayley_graph
            from thinlab.groups import bfs_closure, sl2_generators
            from thinlab.spectra import _dense_laplacian, lambda1

            def sl2_graph(p):
                gens = sl2_generators(p)
                return cayley_graph(bfs_closure(gens), gens)

            lambda1(sl2_graph(5), method="dense")
            graph = sl2_graph(13)
            L = _dense_laplacian(graph)
            base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            del L
            report = lambda1(graph, method="dense")
            assert report.solver == "dense" and report.n_vertices == 2184
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        grown_kb = int(proc.stdout.split()[-1])  # ru_maxrss is in KiB on Linux
        assert grown_kb <= 5 * 1024

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
