#!/usr/bin/env python3
"""Congruence-level diagnostics for the point-pushing braid images: the
genus-g hyperelliptic monodromy example, checked mod 2, mod 4, and against
the full symplectic quotients at small odd primes.

Usage: python scripts/pointpush_congruence.py [genus] [primes...]

A genus that is not an integer >= 1, or a listed prime that is not a
prime, prints the refusal and exits 1 before anything is built; so does a
quotient refused by the element budget (THINLAB_BUDGET), when it is
reached.
"""

import sys

from thinlab import (
    BudgetExceeded,
    braid_to_matrix,
    build_chain,
    congruence_report,
    point_pushing_generators,
)
from thinlab.groups import is_prime


def refuse(why: str) -> int:
    print(f"refused: {why}", file=sys.stderr)
    return 1


def main() -> int:
    try:
        genus = int(sys.argv[1]) if len(sys.argv) > 1 else 1
        primes = [int(x) for x in sys.argv[2:]] or ([3, 5] if genus <= 2 else [3])
    except ValueError as exc:
        return refuse(f"arguments must be integers: {exc}")
    if genus < 1:
        return refuse(f"genus {genus} is not >= 1")
    bad = [p for p in primes if not is_prime(p)]
    if bad:
        return refuse(f"{bad[0]} is not prime")

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
        return refuse(str(exc))
    print(f"all images trivial mod 2: {report.mod2_trivial}")
    print(f"all images trivial mod 4: {report.mod4_trivial}")
    for p, (got, want) in report.prime_orders.items():
        verdict = "surjective" if got == want else "PROPER SUBGROUP"
        print(f"mod {p}: order {got} vs |Sp_{2 * genus}(F_{p})| = {want} -> {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
