import inspect
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
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab.groups import bfs_closure, cyclic_generators, sl2_generators, symmetric_generators, direct_product_of_cyclic
from thinlab.graphs import MultiGraph, cayley_graph, components, from_edges, schreier_graph, torsion_action, torsion_symmetry
from thinlab import spectra
from thinlab.spectra import (
    DENSE_CUTOFF,
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


def solve(graph, solver):
    """lambda1(graph) by the named solver: DENSE_CUTOFF is set to just
    admit the graph to the dense path, or just keep it out."""
    cutoff = graph.n_vertices if solver == "dense" else graph.n_vertices - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "DENSE_CUTOFF", cutoff)
        report = lambda1(graph)
    assert report.solver == solver
    return report


def lanczos(graph, tol=ITERATIVE_TOL, maxiter=None):
    """The iterative solver on a connected graph's A/k, with its tolerance
    and step cap set directly."""
    n = graph.n_vertices
    A = graph.adjacency() / graph.degree
    return spectra._lambda1_lanczos(A, n, tol, 10 * n if maxiter is None else maxiter)


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
        dense = solve(graph, "dense")
        iterative = solve(graph, "iterative")
        assert abs(dense.lambda1 - 4 / 3) < 1e-9
        assert abs(iterative.lambda1 - 4 / 3) < 1e-6
        assert abs(dense.lambda1 - iterative.lambda1) < 1e-8

    @pytest.mark.parametrize("n", [4, 5, 8, 12, 20])
    def test_cycle(self, n):
        want = 1 - np.cos(2 * np.pi / n)
        graph = cyclic_graph(n)
        assert abs(solve(graph, "dense").lambda1 - want) < 1e-9
        assert abs(solve(graph, "iterative").lambda1 - want) < 1e-6

    def test_four_cycle_is_one(self):
        assert abs(solve(cyclic_graph(4), "dense").lambda1 - 1.0) < 1e-12

    def test_triangle(self):
        graph = from_edges(3, [(0, 1), (1, 2), (0, 2)], label="K3")
        for solver in ("dense", "iterative"):
            assert abs(solve(graph, solver).lambda1 - 1.5) < 1e-9

    def test_single_edge_lambda_two(self):
        graph = from_edges(2, [(0, 1)], label="K2")
        assert abs(solve(graph, "dense").lambda1 - 2.0) < 1e-12
        assert abs(solve(graph, "iterative").lambda1 - 2.0) < 1e-9

    def test_disconnected(self):
        # exactly zero: eigh's rounding noise can be positive (+2.6e-17 on
        # two 40-cycles), which would pass as a connected graph's gap
        for graph in (from_edges(6, TWO_TRIANGLES, label="2K3"), two_cycles(40)):
            for solver in ("dense", "iterative"):
                report = solve(graph, solver)
                assert report.lambda1 == 0.0, (graph.label, solver)
                assert report.zero_multiplicity == 2

    def test_all_loops_action(self):
        n = 7
        ident = np.arange(n, dtype=np.int32)
        graph = schreier_graph(np.stack([ident, ident], axis=1))
        report = solve(graph, "dense")
        assert report.lambda1 == pytest.approx(0.0, abs=1e-12)
        assert report.zero_multiplicity == n


class TestInvariants:
    def test_zero_multiplicity_matches_components_on_pool(self):
        pool = [g for g in graph_pool() if g.n_vertices >= 2]
        assert len(pool) >= 20
        for graph in pool:
            report = solve(graph, "dense")
            assert report.zero_multiplicity == len(components(graph))
            assert report.zero_multiplicity == spectrum_zero_count(graph)
            assert -1e-9 <= report.lambda1 <= 2 + 1e-9

    def test_dense_iterative_agreement_on_pool(self):
        pool = [g for g in graph_pool() if g.n_vertices >= 2]
        checked = connected = 0
        for graph in pool:
            dense = solve(graph, "dense")
            iterative = solve(graph, "iterative")
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
        dense = solve(graph, "dense")
        iterative = solve(graph, "iterative")
        assert abs(dense.lambda1 - iterative.lambda1) <= 1e-8
        assert abs(iterative.eigenvector.sum()) <= 1e-8
        assert iterative.residual <= ITERATIVE_TOL

    def test_rayleigh_certificate(self):
        for graph in (sl2_graph(7), cyclic_graph(30)):
            for solver in ("dense", "iterative"):
                report = solve(graph, solver)
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
        lam1 = solve(cayley_graph(group, gens), "dense").lambda1
        lam2 = solve(cayley_graph(group, swapped), "dense").lambda1
        assert abs(lam1 - lam2) < 1e-10

    @pytest.mark.parametrize("ell", [3, 5, 7, 11])
    def test_schreier_gap_at_least_cayley_gap(self, ell):
        gens = sl2_generators(ell)
        group = bfs_closure(gens)
        cay = solve(cayley_graph(group, gens), "dense").lambda1
        sch = solve(schreier_graph(torsion_action(gens)), "dense").lambda1
        assert sch >= cay - 1e-9


class TestLanczosOracles:
    """The Lanczos path against ARPACK (``arpack_oracle``) and dense eigh,
    its residual guarantee, and its stop on an invariant Krylov space."""

    @pytest.mark.parametrize("p", [17, 19, 23])
    def test_matches_arpack_on_sl2(self, p):
        graph = sl2_graph(p)  # N = 4896, 6840, 12144
        report = solve(graph, "iterative")
        assert abs(report.lambda1 - arpack_oracle(graph)) <= 1e-8
        assert report.residual <= ITERATIVE_TOL

    def test_matches_arpack_on_pra_move_graph(self):
        from thinlab import pra

        graph = pra.pra_graph(bfs_closure(symmetric_generators(3)), 3)  # N = 168, k = 24
        assert len(components(graph)) == 1
        report = solve(graph, "iterative")
        assert abs(report.lambda1 - arpack_oracle(graph)) <= 1e-8
        assert abs(report.lambda1 - solve(graph, "dense").lambda1) <= 1e-8

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-9])
    def test_reported_residual_within_tol(self, tol):
        graph = sl2_graph(17)
        lam, res, x = lanczos(graph, tol)
        assert res <= tol
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert abs(x.sum()) <= 1e-8
        # the eigenvalue error is about residual^2 / gap
        assert abs(lam - arpack_oracle(graph)) <= max(1e-8, 10 * tol * tol)

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
        cycle = solve(cyclic_graph(n), "iterative")
        assert steps == [n // 2]
        assert abs(cycle.lambda1 - (1 - np.cos(2 * np.pi / n))) <= 1e-12
        steps.clear()
        kn = solve(complete_graph(n), "iterative")
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
        report = solve(graph, "iterative")
        assert len(builds) == 2 and builds[1] > builds[0]
        assert report.residual <= ITERATIVE_TOL
        assert abs(report.lambda1 - arpack_oracle(graph)) <= 1e-8


def torsion_graph(p):
    """The genus-1 torsion Schreier graph with the symmetry a schreier-sweep
    gives it."""
    return schreier_graph(torsion_action(sl2_generators(p)), symmetry=torsion_symmetry(p, 2))


def spectral_dense_graphs():
    """The graphs the spectral benchmark solves densely: SL2(F_p) Cayley
    graphs for p = 3..13 and the genus-1 torsion Schreier graphs for
    p = 31, 37, 41, each with the symmetry its builder gives it."""
    return [(f"sl2_{p}", lambda p=p: sl2_graph(p)) for p in (3, 5, 7, 11, 13)] + [
        (f"torsion_{p}", lambda p=p: torsion_graph(p)) for p in (31, 37, 41)
    ]


def turned_cycle(n, turn):
    """The n-cycle with the rotation by ``turn`` as its symmetry."""
    x = np.arange(n)
    return schreier_graph(np.stack([(x + 1) % n, (x - 1) % n], axis=1), symmetry=(x + turn) % n)


def cycled_complete_graph(n):
    """K_n with an n-cycle as its symmetry: one orbit, so 1 x 1 blocks,
    each padded to 2 x 2, of which j = 0..n/2 are factored."""
    graph = complete_graph(n)
    graph.symmetry = np.roll(np.arange(n), -1)
    return graph


def symmetric_dense_graphs():
    """spectral_dense_graphs, the Cayley graphs of S5, S6 and Z2xZ3xZ5xZ7,
    the 12-cycle, whose symmetry has one orbit: 1 x 1 blocks, the 12-cycle
    turned by 6 and by 4, where lambda1 lies only in the last block
    decided, j = h/2 = 1 (real) and j = 1 of h = 3 (complex), the 15-cycle
    turned by 3 (h = 5, complex blocks of odd order 3) and K7 with a
    7-cycle."""
    more = [
        ("S5", symmetric_generators(5)),
        ("S6", symmetric_generators(6)),
        ("Z2xZ3xZ5xZ7", direct_product_of_cyclic([2, 3, 5, 7])),
    ]
    return (
        spectral_dense_graphs()
        + [(name, lambda g=g: cayley_graph(bfs_closure(g), g)) for name, g in more]
        + [("C12", lambda: cyclic_graph(12))]
        + [(f"C12 turned by {t}", lambda t=t: turned_cycle(12, t)) for t in (6, 4)]
        + [("C15 turned by 3", lambda: turned_cycle(15, 3)), ("K7 cycled", lambda: cycled_complete_graph(7))]
    )


def shifted_laplacian(graph, shift):
    """L + 2 11^T / N - shift I, the matrix the dense certificate factors."""
    n = graph.n_vertices
    M = spectra._dense_laplacian(graph.adjacency() / graph.degree)
    M += 2.0 / n
    M.flat[:: n + 1] -= shift
    return M


def packed_padded(S):
    """Independent oracle for the certificate's packing: S padded to even
    order by an identity row and column, upper triangle packed by LAPACK's
    dtrttf or, for a complex S, ztrttf (TRANSR = 'N', UPLO = 'U'), and the
    padded order."""
    n = len(S)
    m = n + n % 2
    P = np.eye(m, dtype=S.dtype)
    P[:n, :n] = S
    rfp, info = (lapack.ztrttf if S.dtype.kind == "c" else lapack.dtrttf)(np.asfortranarray(P))
    assert info == 0
    return rfp, m


def explicit_block(graph, orbits, j, shift):
    """Independent oracle for block j of the shifted Laplacian on the
    orbits: I - B_j / k - shift I, plus 2/n on block 0, with B_j[c, c']
    summed neighbor by neighbor in Python; real where it is, by dtype."""
    reps, orbit, power, h = orbits
    n, k = reps.size, graph.degree
    B = np.zeros((n, n), dtype=complex)
    for c, r in enumerate(reps.tolist()):
        for w in graph.neighbors[r].tolist():
            B[c, orbit[w]] += np.exp(2j * np.pi * j * power[w] / h)
    M = (1.0 - shift) * np.eye(n) - B / k + (2.0 / n if j == 0 else 0.0)
    return M.real.copy() if 2 * j % h == 0 else M


def packed_blocks(graph, orbits, shift, monkeypatch):
    """The RFP buffers ``_blocks_cholesky`` hands to ``_rfp_cholesky``,
    copied before the factorisation, which still runs."""
    buffers = []
    factor = spectra._rfp_cholesky

    def recorded(rfp, m):
        buffers.append(rfp.copy())
        return factor(rfp, m)

    monkeypatch.setattr(spectra, "_rfp_cholesky", recorded)
    spectra._blocks_cholesky(graph, orbits, shift)
    return buffers


def trivial_orbits(graph):
    """The one-block decomposition: every vertex its own orbit, h = 1."""
    return spectra._symmetry_orbits(without_symmetry(graph))


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
        # SL2(F13), N = 2184: lambda1 has multiplicity 14, and the one
        # packed block separates shifts 2e-9 apart around it
        graph = sl2_graph(13)
        orbits = trivial_orbits(graph)
        lam = lambda1(graph).lambda1
        assert spectra._blocks_cholesky(graph, orbits, lam - 1e-9)
        assert not spectra._blocks_cholesky(graph, orbits, lam + 1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 150])
    def test_blocked_cholesky_factors(self, n):
        # real and complex; odd n is padded to even; the factor is written
        # into the buffer passed, so f2py made no copy of it
        rng = np.random.default_rng(n)
        real = rng.standard_normal((n, n))
        for X, tfttr in ((real, lapack.dtfttr), (real + 1j * rng.standard_normal((n, n)), lapack.ztfttr)):
            S = X @ X.conj().T + n * np.eye(n)
            rfp, m = packed_padded(S)
            assert spectra._rfp_cholesky(rfp, m)
            U, info = tfttr(m, rfp)
            assert info == 0
            assert np.abs(np.triu(U)[:n, :n] - np.linalg.cholesky(S).conj().T).max() <= 1e-12 * n
            indefinite = S - (np.linalg.eigvalsh(S)[0] + 1e-6) * np.eye(n)
            assert not spectra._rfp_cholesky(*packed_padded(indefinite))

    @pytest.mark.parametrize("n", [120, 15])
    def test_packed_shifted_laplacian_matches_lapack_packing(self, n, monkeypatch):
        # the one block of SL2(F5), and of a 15-vertex multigraph with
        # loops and parallel edges whose odd order is padded
        graph = sl2_graph(5) if n == 120 else random_connected_multigraph(n, 3, 1, 2, False)
        [rfp] = packed_blocks(graph, trivial_orbits(graph), 0.25, monkeypatch)
        expected, _ = packed_padded(shifted_laplacian(graph, 0.25))
        assert rfp.dtype == np.float64
        assert np.abs(rfp - expected).max() <= 1e-15

    BLOCKED = {
        "C15 turned by 3": lambda: turned_cycle(15, 3),
        "K7 cycled": lambda: cycled_complete_graph(7),
        "C12 turned by 4": lambda: turned_cycle(12, 4),
        "sl2_5": lambda: sl2_graph(5),
    }

    @pytest.mark.parametrize("name", list(BLOCKED))
    def test_blocks_match_lapack_packing(self, name, monkeypatch):
        # each block j = 0..h/2, real or complex, odd orders padded, against
        # dtrttf or ztrttf of the block summed entry by entry
        graph = self.BLOCKED[name]()
        orbits = spectra._symmetry_orbits(graph)
        h = orbits[3]
        # a negative shift: every block is positive definite, so all run
        buffers = packed_blocks(graph, orbits, -0.25, monkeypatch)
        assert len(buffers) == h // 2 + 1
        for j, rfp in enumerate(buffers):
            expected, _ = packed_padded(explicit_block(graph, orbits, j, -0.25))
            assert rfp.dtype == expected.dtype
            assert np.abs(rfp - expected).max() <= 1e-14

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
        report = solve(graph, "dense")
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
        report = solve(graph, "dense")
        assert calls == [1]
        assert report.solver == "dense"
        assert abs(report.lambda1 - eigvalsh_lambda1(graph)) <= 1e-12
        assert report.residual <= 1e-12


def count_certificates(monkeypatch, verdict=None):
    """Record the h of each certificate ``lambda1`` runs, h = 1 for the one
    block; they still run, unless a ``verdict`` is given to return."""
    calls = []
    certificate = spectra._blocks_cholesky

    def counted(graph, orbits, shift):
        calls.append(orbits[3])
        return certificate(graph, orbits, shift) if verdict is None else verdict

    monkeypatch.setattr(spectra, "_blocks_cholesky", counted)
    return calls


def without_symmetry(graph):
    """The same graph with no symmetry: the one block decides."""
    return MultiGraph(graph.neighbors, label=graph.label)


def report_fields(report):
    return report.lambda1, report.residual, report.zero_multiplicity, report.solver


class TestSymmetryBlocks:
    """The dense certificate on the blocks of a verified graph symmetry,
    against the one packed N x N block of the same graphs."""

    @pytest.mark.parametrize("name,build", symmetric_dense_graphs(), ids=[n for n, _ in symmetric_dense_graphs()])
    def test_blocks_decide_as_the_packed_matrix(self, name, build):
        graph = build()
        orbits = spectra._symmetry_orbits(graph)
        assert orbits[3] > 1
        lam = lambda1(graph).lambda1
        for shift, definite in ((lam - 1e-9, True), (lam + 1e-9, False)):
            assert spectra._blocks_cholesky(graph, orbits, shift) is definite
            assert spectra._blocks_cholesky(graph, trivial_orbits(graph), shift) is definite

    def test_cycle_blocks_are_one_by_one(self):
        reps, orbit, power, h = spectra._symmetry_orbits(cyclic_graph(12))
        assert h == 12 and reps.tolist() == [0] and orbit.tolist() == [0] * 12
        assert sorted(power.tolist()) == list(range(12))

    @pytest.mark.parametrize("name,build", symmetric_dense_graphs(), ids=[n for n, _ in symmetric_dense_graphs()])
    def test_blocks_report_equals_the_packed_report(self, name, build, monkeypatch):
        graph = build()
        plain = lambda1(without_symmetry(graph))
        certificates, eigh_calls = count_certificates(monkeypatch), count_eigh(monkeypatch)
        report = lambda1(graph)
        assert certificates == [spectra._symmetry_orbits(graph)[3]] and eigh_calls == []
        assert report_fields(report) == report_fields(plain)
        assert np.array_equal(report.eigenvector, plain.eigenvector)

    # name: (graph, sigma of N, whether sigma commutes with the adjacency)
    REFUSED = {
        # a bijection with one orbit, but not an automorphism
        "shift": (lambda: sl2_graph(5), lambda n: np.roll(np.arange(n), 1), False),
        "identity": (lambda: sl2_graph(5), lambda n: np.arange(n), True),
        # the reflection x -> -x of the 11-cycle fixes 0
        "reflection": (lambda: from_edges(11, [(i, (i + 1) % 11) for i in range(11)]), lambda n: -np.arange(n) % n, True),
        # every permutation commutes with K7 and K5: a fixed point and a
        # 6-cycle, then orbits of two sizes and no fixed point
        "K7 fixed point": (lambda: complete_graph(7), lambda n: np.array([0, 2, 3, 4, 5, 6, 1]), True),
        "K5 sizes 2 and 3": (lambda: complete_graph(5), lambda n: np.array([1, 0, 3, 4, 2]), True),
        "out of range": (lambda: sl2_graph(5), lambda n: np.arange(1, n + 1), False),
        "not a bijection": (lambda: sl2_graph(5), lambda n: np.zeros(n, dtype=np.int64), False),
        "wrong length": (lambda: sl2_graph(5), lambda n: np.arange(n - 1), False),
        "not integers": (lambda: sl2_graph(5), lambda n: np.arange(n) + 0.0, False),
    }

    @pytest.mark.parametrize("name", list(REFUSED))
    def test_refused_symmetry_falls_back_to_the_packed_matrix(self, name, monkeypatch):
        build, sigma, commutes = self.REFUSED[name]
        graph = without_symmetry(build())
        plain = lambda1(graph)
        graph.symmetry = sigma(graph.n_vertices)
        if commutes:  # refused for its orbits alone
            nbrs = graph.neighbors
            image = graph.symmetry
            assert np.array_equal(np.sort(image[nbrs], axis=1), np.sort(nbrs[image], axis=1))
        reps, orbit, power, h = spectra._symmetry_orbits(graph)
        assert h == 1 and np.array_equal(reps, np.arange(graph.n_vertices)) and not power.any()
        certificates, eigh_calls = count_certificates(monkeypatch), count_eigh(monkeypatch)
        report = lambda1(graph)
        assert certificates == [1] and eigh_calls == []
        assert report_fields(report) == report_fields(plain)

    def test_only_the_dense_certificate_builds_the_cayley_symmetry(self, monkeypatch):
        # a Cayley graph's sigma is a function until its first read; an
        # iterative solve never reads it, a dense one does
        graph = sl2_graph(7)
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 100)
        assert lambda1(graph).solver == "iterative"
        assert callable(graph._symmetry)
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", DENSE_CUTOFF)
        assert lambda1(graph).solver == "dense"
        assert isinstance(graph._symmetry, np.ndarray)

    def test_any_symmetry_of_k7_is_used(self, monkeypatch):
        # a 7-cycle commutes with K7's adjacency: one orbit, so 1 x 1
        # blocks, of which j = 0..3 are factored
        graph = complete_graph(7)
        plain = lambda1(graph)
        graph.symmetry = np.array([1, 2, 3, 4, 5, 6, 0])
        certificates = count_certificates(monkeypatch)
        assert report_fields(lambda1(graph)) == report_fields(plain)
        assert certificates == [7]

    def test_refused_certificate_goes_straight_to_eigh(self, monkeypatch):
        # a failed block is not retried on the one N x N block: eigh decides
        graph = sl2_graph(7)
        certificates = count_certificates(monkeypatch, verdict=False)
        eigh_calls = count_eigh(monkeypatch)
        report = lambda1(graph)
        assert certificates == [7] and eigh_calls == [1]
        assert report.solver == "dense"
        assert abs(report.lambda1 - eigvalsh_lambda1(graph)) <= 1e-12
        assert report.residual <= 1e-12

    def test_non_bottom_eigenpair_refused_by_the_blocks(self, monkeypatch):
        # the blocks, as the one block, refuse an eigenvalue above lambda1,
        # so eigh decides
        graph = sl2_graph(5)
        L = np.eye(graph.n_vertices) - graph.dense_adjacency() / graph.degree
        w = np.linalg.eigvalsh(L)
        above = float(w[np.flatnonzero(w > w[1] + 1e-3)[0]])
        for orbits in (spectra._symmetry_orbits(graph), trivial_orbits(graph)):
            assert not spectra._blocks_cholesky(graph, orbits, above - 1e-9)


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
        graph = sl2_graph(11)  # N = 1320
        with pytest.raises(ConvergenceError) as exc_info:
            lanczos(graph, tol=1e-14, maxiter=1)
        exc = exc_info.value
        assert exc.iterations == 1
        # after one step T is 1 x 1: a Ritz value and its estimate exist
        assert np.isfinite(exc.best_estimate) and 0.0 <= exc.best_estimate <= 2.0
        assert np.isfinite(exc.residual) and exc.residual > 1e-14

    @pytest.mark.parametrize("solver", ["dense", "iterative"])
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
    def test_bad_tol_or_maxiter_rejected_before_any_solve(self, solver, kwargs, monkeypatch):
        # lambda1 takes no tol or maxiter: ITERATIVE_TOL and 10 N steps are
        # fixed, so no value of either reaches a solve on either side of
        # DENSE_CUTOFF (tol = 0 or NaN once ran every Lanczos step)
        def no_solve(A):
            raise AssertionError("a solve started")

        monkeypatch.setattr(spectra, "_components", no_solve)
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", DENSE_CUTOFF if solver == "dense" else 1000)
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            lambda1(sl2_graph(11), **kwargs)

    @pytest.mark.parametrize("solver", ["dense", "iterative"])
    def test_row_sum_drift_refused(self, solver, monkeypatch):
        # the deflation of the constant vector rests on every row sum of A/k
        # being 1; a matrix that breaks it is refused, not solved, by both
        # solvers
        graph = cyclic_graph(12)
        A = graph.adjacency().tolil()
        A[0, 1] += 1e-6
        monkeypatch.setattr(graph, "adjacency", lambda: A.tocsr())
        with pytest.raises(RuntimeError, match="row sum"):
            solve(graph, solver)

    @pytest.mark.parametrize("solver", ["dense", "iterative"])
    def test_partition_crossed_by_an_edge_refused(self, solver, monkeypatch):
        # two paths of the 12-cycle: two pieces, as a two-component graph
        # has, but edges join them, so the split is refused, not reported
        # as lambda1 = 0 with zero_mult 2
        halves = [np.arange(6, dtype=np.int64), np.arange(6, 12, dtype=np.int64)]
        monkeypatch.setattr(spectra, "_components", lambda A: halves)
        with pytest.raises(RuntimeError, match="kernel mismatch"):
            solve(cyclic_graph(12), solver)

    def test_auto_switches_on_cutoff(self, monkeypatch):
        graph = cyclic_graph(12)
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 20)
        assert lambda1(graph).solver == "dense"
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 5)
        assert lambda1(graph).solver == "iterative"

    def test_above_cutoff_never_enters_the_dense_path(self, monkeypatch):
        # the one packed block is about N^2 / 2 doubles: 43 GB for
        # SL2(F47), so nothing above DENSE_CUTOFF may reach the certificate,
        # nor the eigh fallback
        def dense_path(*args, **kwargs):
            raise AssertionError("the dense path was entered")

        for name in ("_blocks_cholesky", "_dense_laplacian"):
            monkeypatch.setattr(spectra, name, dense_path)
        monkeypatch.setattr(scipy.linalg, "eigh", dense_path)
        monkeypatch.setattr(spectra, "DENSE_CUTOFF", 100)
        graph = sl2_graph(7)  # N = 336
        report = lambda1(graph)
        assert report.solver == "iterative"
        assert abs(report.lambda1 - eigvalsh_lambda1(graph)) <= 1e-8
        with pytest.raises(TypeError, match="method"):
            lambda1(graph, method="dense")

    def test_the_graph_alone_picks_the_solver(self):
        assert list(inspect.signature(lambda1).parameters) == ["graph"]
        assert list(inspect.signature(family_sweep).parameters) == ["builder", "primes", "jobs"]


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
        # numpy and LAPACK work arrays are traced; the certificate factors
        # M's packed upper triangle in place, so the peak is about half an
        # N x N float64 array (the full M peaked near 1.04 of one).  With
        # no symmetry, the one packed block decides.
        graph = without_symmetry(sl2_graph(11))  # N = 1320
        n = graph.n_vertices
        tracemalloc.start()
        try:
            solve(graph, "dense")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * n * n * 8

    @pytest.mark.parametrize("solver", ["dense", "iterative"])
    def test_disconnected_graph_needs_no_dense_matrix(self, solver, monkeypatch):
        # 1,500 components: the edges are checked against the components in
        # O(Nk), so neither solver calls eigh or forms an N x N array; the
        # peak is about 24 N-vectors
        n = 1500
        ident = np.arange(n, dtype=np.int32)
        graph = schreier_graph(np.stack([ident, ident], axis=1))
        calls = count_eigh(monkeypatch)
        tracemalloc.start()
        try:
            report = solve(graph, solver)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.lambda1 == 0.0 and report.zero_multiplicity == n
        assert calls == []
        assert peak < 100 * n * 8
        two = solve(two_cycles(40), solver)
        assert two.zero_multiplicity == 2 and calls == []

    def test_iterative_solve_stores_no_basis(self):
        # counted in N-vectors of float64: building the sparse A/k peaks near
        # 23 on this graph, and the recurrence with its residual check holds
        # about 8 more than A/k; ARPACK's 20-vector basis and work arrays
        # took the whole solve near 55
        graph = sl2_graph(23)  # N = 12144
        n = graph.n_vertices
        tracemalloc.start()
        try:
            solve(graph, "iterative")
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

    def test_dense_blocks_solve_holds_no_dense_matrix(self):
        # the twin of the packed test above: SL2(F13) with left
        # multiplication by T, of order 13, is certified on 7 blocks of
        # 168 x 168, at most one held at a time (0.45 MB complex); the
        # whole solve peaked near 0.05 of N^2 / 2 doubles
        graph = sl2_graph(13)  # N = 2184
        n = graph.n_vertices
        tracemalloc.start()
        try:
            report = solve(graph, "dense")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.solver == "dense"
        assert peak < 0.1 * n * n / 2 * 8

    @staticmethod
    def dense_solve_growth(keep_symmetry):
        """VmHWM growth, in bytes, of the SL2(F13) dense solve in a fresh
        single-threaded process, with the graph's symmetry or without."""
        script = textwrap.dedent(
            f"""
            from thinlab.graphs import cayley_graph
            from thinlab.groups import bfs_closure, sl2_generators
            from thinlab.spectra import lambda1

            def sl2_graph(p):
                gens = sl2_generators(p)
                return cayley_graph(bfs_closure(gens), gens)

            def high_water_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

            lambda1(sl2_graph(5))
            graph = sl2_graph(13)
            if not {keep_symmetry}:
                graph.symmetry = None
            base = high_water_kb()
            report = lambda1(graph)
            assert report.solver == "dense" and report.n_vertices == 2184
            print(high_water_kb() - base)
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.split()[-1]) * 1024

    def test_dense_solve_stays_in_the_blas_buffer(self):
        # OpenBLAS's GEMM buffer is outside tracemalloc, so the high-water
        # RSS of a fresh single-threaded process is read.  It is VmHWM, not
        # ru_maxrss, which a spawned process inherits from its parent's RSS.
        # A small solve first loads the libraries' code; the solve of
        # SL2(F13) without its symmetry may then grow the mark by the packed
        # half matrix and 5 MB of BLAS buffers and vectors.  Building the
        # full N x N matrix grew it by 38.3 MB here, the packed certificate
        # by 21.9 MB.
        n = 2184
        assert self.dense_solve_growth(keep_symmetry=False) <= n * n / 2 * 8 + 5 * 1024 * 1024

    def test_dense_blocks_solve_stays_below_the_packed_matrix(self):
        # the twin with the symmetry: the blocks and the Lanczos vectors
        # grew the mark by 1.1-1.3 MB here, about 6 % of the packed half
        # matrix's 19.1 MB
        n = 2184
        assert self.dense_solve_growth(keep_symmetry=True) <= 0.15 * n * n / 2 * 8

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
        reports = [solve(cyclic_graph(n), "dense") for n in (5, 6)]
        path = tmp_path / "out.csv"
        write_reports_csv(reports, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "graph_id,N,k,lambda1,zero_mult,solver,residual,seconds"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "5"

    def test_seconds_suppressed(self, tmp_path):
        reports = [solve(cyclic_graph(5), "dense")]
        path = tmp_path / "out.csv"
        write_reports_csv(reports, path, include_seconds=False)
        assert path.read_text().strip().split("\n")[1].endswith(",")
