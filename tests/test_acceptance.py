"""Acceptance suite: every exit criterion with its stated tolerance and
runtime budget, one printed pass line per criterion (run with -s to see
them on success; a failure prints in the failure report)."""

import itertools
import time
from pathlib import Path

import numpy as np

from thinlab.cli import load_config, run
from thinlab.elements import GroupElement
from thinlab.groups import (
    GeneratorSet,
    bfs_closure,
    cyclic_generators,
    direct_product_of_cyclic,
    is_prime,
    sl2_generators,
    symmetric_generators,
)
from thinlab.graphs import (
    cayley_graph,
    components,
    from_edges,
    quotient_check,
    schreier_graph,
    torsion_action,
    torsion_projection,
)
from thinlab.monodromy import (
    BraidWord,
    braid_to_matrix,
    build_chain,
    point_pushing_generators,
    pure_braid_generators,
    standard_symplectic_generators,
)
from thinlab.origami import census, is_transitive, nielsen_moves, subgroup_order
from thinlab.pra import all_moves, apply_move, enumerate_epi, pra_graph, transitivity_report
from thinlab.spectra import esperantist_fit, family_sweep, lambda1

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number, elapsed, detail):
    print(f"[PASS] criterion {number}: {detail} ({elapsed:.1f}s)")


def test_criterion_1_group_enumeration_exactness():
    t0 = time.time()
    for p, want in [(2, 6), (3, 24), (5, 120), (7, 336), (11, 1320)]:
        assert want == p * (p**2 - 1)  # closed-form oracle
        group = bfs_closure(sl2_generators(p))
        assert group.order == want, f"SL2(F{p}): got {group.order}, want {want}"
    sp4 = bfs_closure(standard_symplectic_generators(2, 3))
    assert sp4.order == 51840
    elapsed = time.time() - t0
    assert elapsed < 30
    report(1, elapsed, "SL2(F_p) orders 6,24,120,336,1320 and |Sp4(F3)|=51840, exact")


def test_criterion_2_spectral_combinatorial_agreement(monkeypatch):
    t0 = time.time()
    from thinlab import origami, pra, spectra

    def both_solvers(graph):
        """The dense and the iterative report: DENSE_CUTOFF just admits the
        graph to the dense path, then just keeps it out."""
        reports = []
        for cutoff in (graph.n_vertices, graph.n_vertices - 1):
            monkeypatch.setattr(spectra, "DENSE_CUTOFF", cutoff)
            reports.append(lambda1(graph))
        assert [r.solver for r in reports] == ["dense", "iterative"]
        return reports

    pool = [from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], label="2K3")]
    for n in range(4, 12):
        gens = cyclic_generators(n)
        pool.append(cayley_graph(bfs_closure(gens), gens))
    for p in (3, 5, 7):
        gens = sl2_generators(p)
        pool.append(cayley_graph(bfs_closure(gens), gens))
        pool.append(schreier_graph(torsion_action(gens)))
    pool.append(pra.pra_graph(bfs_closure(direct_product_of_cyclic([2, 2])), 2))
    pool.append(pra.pra_graph(bfs_closure(symmetric_generators(3)), 2))
    pool.append(pra.pra_graph(bfs_closure(cyclic_generators(6)), 2))
    pool.append(origami.origami_graph(3, (3,)))
    pool.append(origami.origami_graph(4, (2, 2)))
    pool.append(origami.origami_graph(4, (1, 1, 1, 1)))
    k4 = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], label="K4")
    pool.append(k4)
    pool = [g for g in pool if g.n_vertices >= 2]
    assert len(pool) >= 20

    for graph in pool:
        dense, iterative = both_solvers(graph)
        ncomp = len(components(graph))
        assert dense.zero_multiplicity == ncomp == iterative.zero_multiplicity
        # independent spectral count of the zero eigenvalue
        L = np.eye(graph.n_vertices) - graph.dense_adjacency() / graph.degree
        assert int((np.abs(np.linalg.eigvalsh(L)) < 1e-9).sum()) == ncomp
        assert abs(dense.lambda1 - iterative.lambda1) <= 1e-8, graph.label

    dense, iterative = both_solvers(k4)
    assert abs(dense.lambda1 - 4 / 3) <= 1e-9
    assert abs(iterative.lambda1 - 4 / 3) <= 1e-6
    for n in (4, 6, 9, 11):
        gens = cyclic_generators(n)
        cyc = cayley_graph(bfs_closure(gens), gens)
        want = 1 - np.cos(2 * np.pi / n)
        dense, iterative = both_solvers(cyc)
        assert abs(dense.lambda1 - want) <= 1e-9
        assert abs(iterative.lambda1 - want) <= 1e-6
    elapsed = time.time() - t0
    report(2, elapsed, f"{len(pool)} graphs: zero-mult = components, K4 and cycles exact, cross <= 1e-8")


def test_criterion_3_strong_approximation_bridge():
    t0 = time.time()
    cases = []
    for p in (3, 5, 7):
        gens = sl2_generators(p)
        cases.append((bfs_closure(gens), gens, p))
    # a proper subgroup: <T^2, -I> mod 3 has order 6 inside SL2(F3)
    sub_gens = GeneratorSet(
        [GroupElement.matrix([[1, 2], [0, 1]], 3), GroupElement.matrix([[2, 0], [0, 2]], 3)]
    )
    full3 = bfs_closure(sl2_generators(3))
    cases.append((full3, sub_gens, 3))
    # unipotent alone mod 5: order 5 subgroup
    t_only = GeneratorSet([GroupElement.matrix([[1, 1], [0, 1]], 5)])
    full5 = bfs_closure(sl2_generators(5))
    cases.append((full5, t_only, 5))

    for group, gens, p in cases:
        closure = bfs_closure(gens)
        surjective = closure.order == group.order
        graph = cayley_graph(group, gens)
        connected = len(components(graph)) == 1
        assert connected == surjective, f"bridge broken for p={p}, gens={gens.label}"
        if not surjective:
            assert len(components(graph)) == group.order // closure.order
    elapsed = time.time() - t0
    assert elapsed < 10
    report(3, elapsed, f"{len(cases)} (group, gens, p) cases: connected iff surjective")


def test_criterion_4_torsion_cover_schreier_structure():
    t0 = time.time()
    for ell in (3, 5, 7, 11, 13, 17, 19, 23):
        gens = sl2_generators(ell)
        group = bfs_closure(gens)
        action = torsion_action(gens)
        sch = schreier_graph(action)
        assert sch.n_vertices == ell**2 - 1, f"ell={ell}"
        cay = cayley_graph(group, gens)
        assert quotient_check(cay, sch, torsion_projection(group)), f"ell={ell}"
        lam_s = lambda1(sch).lambda1
        lam_c = lambda1(cay).lambda1
        assert lam_s >= lam_c - 1e-9, f"ell={ell}: {lam_s} < {lam_c}"
    elapsed = time.time() - t0
    assert elapsed < 120
    report(4, elapsed, "ell in 3..23: ell^2-1 vertices, quotient verified, gap(Schreier) >= gap(Cayley)")


def test_criterion_5_braid_representation_soundness():
    t0 = time.time()
    for g in (1, 2, 3):
        chain = build_chain(g)
        strands = 2 * g + 1
        for i in range(1, 2 * g):
            lhs = braid_to_matrix(BraidWord((i, i + 1, i), strands), chain)
            rhs = braid_to_matrix(BraidWord((i + 1, i, i + 1), strands), chain)
            assert lhs == rhs, f"braid relation fails at g={g}, i={i}"
        for i in range(1, 2 * g + 1):
            for j in range(i + 2, 2 * g + 1):
                lhs = braid_to_matrix(BraidWord((i, j), strands), chain)
                rhs = braid_to_matrix(BraidWord((j, i), strands), chain)
                assert lhs == rhs, f"far commutation fails at g={g}, ({i},{j})"
        ident = GroupElement.matrix(np.eye(2 * g, dtype=np.int64), 2)
        for w in pure_braid_generators(g):
            assert braid_to_matrix(w, chain, 2) == ident, f"not in level-2 kernel: g={g}, {w.letters}"

    for g, ell in [(1, 3), (1, 5), (2, 3)]:
        chain = build_chain(g)
        mats = [braid_to_matrix(w, chain, ell) for w in point_pushing_generators(g)]
        group = bfs_closure(GeneratorSet(mats))
        from thinlab.groups import sp_order

        assert group.order == sp_order(g, ell), f"(g,ell)=({g},{ell})"
    elapsed = time.time() - t0
    assert elapsed < 120
    report(5, elapsed, "braid relations exact over Z (g<=3), Gamma(2) containment mod 2, Sp surjectivity")


def test_criterion_6_pra_exact_counts_and_invariance():
    t0 = time.time()
    v4 = bfs_closure(direct_product_of_cyclic([2, 2]))
    assert len(enumerate_epi(v4, 2)) == 6

    s3 = bfs_closure(symmetric_generators(3))
    brute = 0
    for tup in itertools.product(range(s3.order), repeat=2):
        elems = {0}
        frontier = [0]
        table = s3.multiplication_table()
        while frontier:
            nxt = []
            for x in frontier:
                for gidx in tup:
                    for y in (int(table[x, gidx]), int(table[gidx, x])):
                        if y not in elems:
                            elems.add(y)
                            nxt.append(y)
            frontier = nxt
        if len(elems) == s3.order:
            brute += 1
    assert len(enumerate_epi(s3, 2)) == brute

    for n in (2, 3, 4):
        assert len(all_moves(n)) == 4 * n * (n - 1)

    rng = np.random.default_rng(6)
    epis = enumerate_epi(s3, 2)
    valid = {t.indices for t in epis}
    moves = all_moves(2)
    t = epis[0]
    for _ in range(1000):
        t = apply_move(t, moves[int(rng.integers(len(moves)))])
        assert t.indices in valid

    for group in (v4, s3, bfs_closure(cyclic_generators(8))):
        graph = pra_graph(group, 2)
        assert len(components(graph)) == len(transitivity_report(graph))
    elapsed = time.time() - t0
    assert elapsed < 60
    report(6, elapsed, "|Epi| counts exact, 4n(n-1) moves, generation preserved, orbits = components")


def test_criterion_7_origami_census_integrity():
    t0 = time.time()
    for d in (2, 3, 4, 5):
        perms = list(itertools.permutations(range(d)))
        n_transitive = sum(1 for s in perms for t in perms if is_transitive(s, t))
        classes = census(d)
        assert sum(c.orbit_size for c in classes) == n_transitive, f"d={d}"
        for c in classes:
            base_order = subgroup_order(c.rep.sigma, c.rep.tau)
            assert base_order == c.image_order
            for moved in nielsen_moves(c.rep):
                assert moved.commutator_type == c.mu, f"mu broken at d={d}"
                assert subgroup_order(moved.sigma, moved.tau) == base_order, f"order broken at d={d}"
        for c in classes:
            assert (c.genus == 1) == (c.mu == (1,) * d)
    assert all(c.genus == 2 for c in census(3, mu=(3,)))
    assert census(3, mu=(3,))
    elapsed = time.time() - t0
    assert elapsed < 180
    report(7, elapsed, "census partitions pair space (d<=5), mu and image order Nielsen-invariant, genus checks")


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    for name in ("pra_v4.json", "cayley_sweep_small.json"):
        config = load_config(CONFIG_DIR / name)
        a = tmp_path / f"{name}-a"
        b = tmp_path / f"{name}-b"
        run(config, out_dir=a)
        run(config, out_dir=b)
        names_a = sorted(p.name for p in a.iterdir())
        assert names_a == sorted(p.name for p in b.iterdir())
        compared = 0
        for out_name in names_a:
            if out_name == "manifest.json":
                continue  # run metadata: carries wall-clock timestamps
            assert (a / out_name).read_bytes() == (b / out_name).read_bytes(), (name, out_name)
            compared += 1
        assert compared >= 2
    elapsed = time.time() - t0
    report(8, elapsed, "shipped configs give byte-identical CSV/JSON data outputs across reruns")


def test_criterion_9_expansion_evidence():
    t0 = time.time()
    primes = [p for p in range(3, 48) if is_prime(p)]

    def builder(p):
        gens = sl2_generators(p)
        return cayley_graph(bfs_closure(gens), gens, label=f"sl2_p{p}")

    sweep = family_sweep(builder, primes)
    assert not sweep.errors, sweep.errors
    assert len(sweep.reports) == len(primes)
    for r in sweep.reports:
        assert r.zero_multiplicity == 1
        assert r.lambda1 > 0, r.graph_id
    fit = esperantist_fit(sweep.reports)
    assert fit.c > 0 and np.isfinite(fit.exponent) and fit.min_lambda1 > 0
    elapsed = time.time() - t0
    assert elapsed < 600
    report(
        9,
        elapsed,
        f"SL2 sweep p=3..47 complete, min lambda1 = {fit.min_lambda1:.4f} > 0, "
        f"fit ~ {fit.c:.2f}(log N)^(-{fit.exponent:.2f})",
    )
