#!/usr/bin/env python3
"""Tabulate the square-tiled census for a range of degrees: class counts,
branching data, genera, and move-graph connectivity per stratum.

Usage: python scripts/origami_census_summary.py [max_degree]

A max_degree that is not an integer in 1..DEFAULT_DEGREE_CAP (8) prints
the refusal and exits 1 before any census runs; so does a degree whose d!
elements are over the element budget (THINLAB_BUDGET), when it is reached.
"""

import sys
from collections import Counter

from thinlab import BudgetExceeded, census, components, origami_graph
from thinlab.origami import DEFAULT_DEGREE_CAP


def main() -> int:
    arg = sys.argv[1] if len(sys.argv) > 1 else "5"
    try:
        max_degree = int(arg)
    except ValueError:
        max_degree = 0
    if not 1 <= max_degree <= DEFAULT_DEGREE_CAP:
        refusal = f"max_degree {arg!r} is not an integer in 1..{DEFAULT_DEGREE_CAP}"
        print(f"refused: {refusal}", file=sys.stderr)
        return 1
    try:
        for d in range(2, max_degree + 1):
            classes = census(d)
            total = sum(c.orbit_size for c in classes)
            print(f"d={d}: {len(classes)} classes, {total} transitive pairs")
            by_mu = Counter(c.mu for c in classes)
            for mu in sorted(by_mu, reverse=True):
                graph = origami_graph(d, mu)
                ncomp = len(components(graph))
                genera = sorted({c.genus for c in classes if c.mu == mu})
                print(
                    f"  mu={','.join(map(str, mu))}: {by_mu[mu]} classes, "
                    f"genera {genera}, move graph components {ncomp}"
                )
    except BudgetExceeded as exc:  # THINLAB_BUDGET below d!
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
