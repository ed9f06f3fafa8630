#!/usr/bin/env python3
"""Tabulate the square-tiled census for a range of degrees: class counts,
branching data, genera, and move-graph connectivity per stratum.

Usage: python scripts/origami_census_summary.py [max_degree]
"""

import sys
from collections import Counter

from thinlab import census, components, origami_graph


def main() -> int:
    max_degree = int(sys.argv[1]) if len(sys.argv) > 1 else 5
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
