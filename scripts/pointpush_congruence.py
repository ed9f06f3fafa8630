#!/usr/bin/env python3
"""Congruence-level diagnostics for the point-pushing braid images: the
genus-g hyperelliptic monodromy example, checked mod 2, mod 4, and against
the full symplectic quotients at small odd primes.

Usage: python scripts/pointpush_congruence.py [genus] [primes...]

A quotient refused by the element budget (THINLAB_BUDGET) prints the
refusal and exits 1.
"""

import sys

from thinlab import (
    BudgetExceeded,
    braid_to_matrix,
    build_chain,
    congruence_report,
    point_pushing_generators,
)


def main() -> int:
    genus = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    primes = [int(x) for x in sys.argv[2:]] or ([3, 5] if genus <= 2 else [3])

    chain = build_chain(genus)
    words = point_pushing_generators(genus)
    mats = [braid_to_matrix(w, chain) for w in words]
    print(f"genus {genus}: {len(mats)} point-pushing generators in Sp_{2 * genus}(Z)")
    for w, m in zip(words, mats):
        print(f"  word {list(w.letters)} ->")
        for row in m.data.tolist():
            print(f"    {row}")

    try:
        report = congruence_report(mats, primes)
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    print(f"all images trivial mod 2: {report.mod2_trivial}")
    print(f"all images trivial mod 4: {report.mod4_trivial}")
    for p, (got, want) in report.prime_orders.items():
        verdict = "surjective" if got == want else "PROPER SUBGROUP"
        print(f"mod {p}: order {got} vs |Sp_{2 * genus}(F_{p})| = {want} -> {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
