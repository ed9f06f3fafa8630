#!/usr/bin/env python3
"""Sweep the SL2(F_p) Cayley family with the standard {T, S} generators,
print per-prime spectral gaps, and fit the esperantist model.

Usage: python scripts/sl2_family_sweep.py [max_prime] [out_dir]

A max_prime that is not an integer >= 3 prints the refusal and exits 1
before any group is built; so does a sweep that solves fewer than the
three primes the fit needs, after spectra.csv is written.
"""

import sys
from pathlib import Path

from thinlab import bfs_closure, cayley_graph, sl2_generators
from thinlab.groups import is_prime
from thinlab.spectra import esperantist_fit, family_sweep, fit_to_json, write_reports_csv


def main() -> int:
    arg = sys.argv[1] if len(sys.argv) > 1 else "47"
    try:
        max_prime = int(arg)
    except ValueError:
        max_prime = 0
    if max_prime < 3:
        print(f"refused: max_prime {arg!r} is not an integer >= 3", file=sys.stderr)
        return 1
    out_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("sl2-sweep-out")
    primes = [p for p in range(3, max_prime + 1) if is_prime(p)]

    def builder(p):
        gens = sl2_generators(p)
        return cayley_graph(bfs_closure(gens), gens, label=f"sl2_p{p}")

    sweep = family_sweep(builder, primes)
    for r in sweep.reports:
        print(
            f"{r.graph_id}: N={r.n_vertices} k={r.degree} lambda1={r.lambda1:.6f} "
            f"components={r.zero_multiplicity} solver={r.solver} ({r.seconds:.2f}s)"
        )
    for p, err in sweep.errors.items():
        print(f"p={p}: FAILED {err}")

    out_dir.mkdir(parents=True, exist_ok=True)
    write_reports_csv(sweep.reports, out_dir / "spectra.csv")
    try:
        fit = esperantist_fit(sweep.reports)
    except ValueError as exc:  # fewer than three primes solved
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    (out_dir / "esperantist.json").write_text(fit_to_json(fit))
    print(
        f"esperantist fit: lambda1 ~ {fit.c:.4f} * (log N)^(-{fit.exponent:.4f}), "
        f"min lambda1 = {fit.min_lambda1:.6f}"
    )
    return 1 if sweep.errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
