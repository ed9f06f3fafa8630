"""Product replacement: generating n-tuples, Nielsen-type moves, the PRA
Schreier graph, and lazy random-walk mixing diagnostics.

Epi(F_n, G) is the set of n-tuples that generate G; the 4n(n-1) moves
replace g_i by g_j^(+-1) g_i or g_i g_j^(+-1) (i != j) and are closed under
inversion as a set, so the move graph is an honest 4n(n-1)-regular
Schreier graph.

A tuple is numbered by its code: the base-|G| number whose digits, most
significant first, are its entries' encoding ranks (the position of an
element's encoding among all of G's).  Epi(F_n, G) is held as its sorted
codes, so the tuples are in lexicographic order of their encoding ranks,
which is the byte order of ``EpiTuple.encoding`` wherever every element
encoding has one width (permutations, matrices mod m).  The scan, the move
graph and the walk are whole-array or plain-list code; ``apply_move`` and
``transitivity_report`` stay as their per-tuple oracles.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import MultiGraph, schreier_graph
from .groups import CHUNK, FiniteGroup, _find, check_budget, closure_orders, resolve_budget

DEFAULT_CANDIDATE_BUDGET = 10_000_000

SIDES = ("left", "right")


@dataclass(frozen=True)
class PraMove:
    """Replace g_i by g_j^sign * g_i (left) or g_i * g_j^sign (right)."""

    i: int
    j: int
    side: str
    sign: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("move requires i != j")
        if self.i < 0 or self.j < 0:
            raise ValueError("indices are 0-based and nonnegative")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def inverse(self) -> "PraMove":
        return PraMove(self.i, self.j, self.side, -self.sign)


def all_moves(n: int) -> list[PraMove]:
    """The full move set, 4n(n-1) in deterministic order."""
    return [
        PraMove(i, j, side, sign)
        for i in range(n)
        for j in range(n)
        if i != j
        for side in SIDES
        for sign in (1, -1)
    ]


def _move_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """all_moves(n) as four arrays, in its order: i, j, side == "left" and
    sign == -1."""
    i, j = np.nonzero(~np.eye(n, dtype=bool))  # i ascending, then j != i ascending
    pairs = n * (n - 1)
    left = np.tile([True, True, False, False], pairs)
    negative = np.tile([False, True, False, True], pairs)
    return np.repeat(i, 4), np.repeat(j, 4), left, negative


@dataclass(frozen=True)
class EpiTuple:
    """A generating n-tuple, stored as element indices into its group."""

    group: FiniteGroup
    indices: tuple[int, ...]

    @property
    def encoding(self) -> bytes:
        return b"".join(self.group.encoding(i) for i in self.indices)

    def elements(self):
        return tuple(self.group.element(i) for i in self.indices)


def _digits(codes: np.ndarray, size: int, n: int) -> np.ndarray:
    """The len(codes) x n base-``size`` digits of tuple codes, most
    significant first."""
    return codes[:, np.newaxis] // _place_values(size, n) % size


def _place_values(size: int, n: int) -> np.ndarray:
    return size ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _candidate_count(size: int, n: int, budget: int) -> int:
    """|G|^n, the Epi scan's candidate count, refused above the candidate
    budget (or int64).  |G| >= 2 crosses the limit within its bit_length
    factors, and |G| = 1 never does, so no more factors are read."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    limit = min(budget, 2**63 - 1)
    factors = itertools.repeat(size, min(n, limit.bit_length()))
    return check_budget(f"enumerate_epi: {size}^{n} candidate tuples", factors, limit)


def _epi_codes(
    group: FiniteGroup, n: int, budget: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Epi(F_n, G) as its sorted codes, and the element index of each
    encoding rank.

    The |G|^n candidate codes are decoded in chunks of about CHUNK
    digits.  Each row is reduced to its generator set, and each distinct
    set is closed once, inside G's multiplication table: a chunk's sets
    that no earlier chunk closed go through one ``closure_orders`` call,
    and the sorted keys of the closed sets, with their verdicts, answer
    the rest.  Refuses to start when |G|^n exceeds the candidate budget
    (or int64).
    """
    budget = resolve_budget(budget, default=DEFAULT_CANDIDATE_BUDGET)
    size = group.order
    candidates = _candidate_count(size, n, budget)
    by_rank = np.array(sorted(range(size), key=group.encoding), dtype=np.int64)
    table = group.multiplication_table()
    place = _place_values(size, n)
    found = []
    # the closed sets' sorted keys and verdicts, from a sentinel no key equals
    closed, verdicts = np.array([-1], dtype=np.int64), np.array([False])
    rows = max(1, CHUNK // n)
    for lo in range(0, candidates, rows):
        codes = np.arange(lo, min(lo + rows, candidates), dtype=np.int64)
        digits = np.sort(_digits(codes, size, n), axis=1)
        # a set's key: its sorted ranks with every repeat replaced by the least
        repeat = digits[:, 1:] == digits[:, :-1]
        digits[:, 1:] = np.where(repeat, digits[:, :1], digits[:, 1:])
        digits.sort(axis=1)
        keys, first, inverse = np.unique(digits @ place, return_index=True, return_inverse=True)
        pos, known = _find(closed, keys)
        generates = verdicts[pos]
        new = np.flatnonzero(~known)
        generates[new] = closure_orders(table, by_rank[digits[first[new]]]) == size
        at = np.searchsorted(closed, keys[new])
        closed, verdicts = np.insert(closed, at, keys[new]), np.insert(verdicts, at, generates[new])
        found.append(codes[generates[inverse]])
    return np.concatenate(found), by_rank


def enumerate_epi(
    group: FiniteGroup, n: int, budget: int | None = None
) -> list[EpiTuple]:
    """All generating n-tuples, in lexicographic order of their entries'
    encoding ranks: the byte order of their encodings wherever every
    element encoding has one width.

    Scans |G|^n candidates; refuses to start above the candidate budget.
    """
    codes, by_rank = _epi_codes(group, n, budget=budget)
    indices = by_rank[_digits(codes, group.order, n)]
    return [EpiTuple(group, tup) for tup in map(tuple, indices.tolist())]


def apply_move(t: EpiTuple, move: PraMove) -> EpiTuple:
    """Nielsen move on a tuple; the result still generates (moves are
    invertible, so the generated subgroup is unchanged)."""
    group = t.group
    if move.i >= len(t.indices) or move.j >= len(t.indices):
        raise ValueError(f"move {move} out of range for arity {len(t.indices)}")
    gi, gj = t.indices[move.i], t.indices[move.j]
    if move.sign < 0:
        gj = int(group.inverse_indices()[gj])
    if move.side == "left":
        new = group.mul(gj, gi)
    else:
        new = group.mul(gi, gj)
    indices = list(t.indices)
    indices[move.i] = new
    return EpiTuple(group, tuple(indices))


def pra_graph(group: FiniteGroup, n: int, budget: int | None = None) -> MultiGraph:
    """The 4n(n-1)-regular move graph on Epi(F_n, G): vertex v is
    enumerate_epi's v-th tuple, and neighbor column t is the image array of
    all_moves(n)[t].

    The columns are built as whole arrays, as many at once as fit in
    CHUNK entries: each moved entry's new encoding rank comes from G's
    multiplication table and inverses, the tuple's code changes in that
    one digit, and a ``searchsorted`` finds the new code among the Epi
    codes.  Refuses to build more neighbor entries than the candidate
    budget.
    """
    if n == 1:
        warnings.warn(
            "arity 1 admits no product replacement moves; returning a 0-regular graph",
            stacklevel=2,
        )
    budget = resolve_budget(budget, default=DEFAULT_CANDIDATE_BUDGET)
    # refuse before the scan decodes n-wide rows if one tuple's moves exceed
    # the budget.  That refuses nothing the exact check below passes: if Epi
    # is empty, n < d(G), so |G|^n >= 2^(n(n+1)) >= degree and the scan's
    # candidate check (run first, to keep its message) fires.
    _candidate_count(group.order, n, budget)
    degree = check_budget(f"move graph: 4n(n-1) moves per tuple at n = {n}", (4, n, n - 1), budget)
    codes, by_rank = _epi_codes(group, n, budget=budget)
    check_budget(
        f"move graph: neighbor entries of {codes.size} tuples x {degree} moves",
        (codes.size, degree),
        budget,
    )
    # the move table's build arrays are freed before schreier_graph checks it
    moves = _move_table(group, n, codes, by_rank)
    return schreier_graph(moves, label=f"pra({group.label or group.order};n={n})")


def _move_table(group: FiniteGroup, n: int, codes: np.ndarray, by_rank: np.ndarray) -> np.ndarray:
    """The (len(codes), 4n(n-1)) int32 table of pra_graph's neighbor
    columns, built as many columns at once as fit in CHUNK entries."""
    i, j, left, negative = _move_arrays(n)
    rank = np.argsort(by_rank)  # group arithmetic on encoding ranks
    product = rank[group.multiplication_table()[np.ix_(by_rank, by_rank)]]
    inverse = rank[group.inverse_indices()[by_rank]]
    place = _place_values(group.order, n)
    digits = _digits(codes, group.order, n)
    moves = np.empty((codes.size, i.size), dtype=np.int32)
    step = max(1, CHUNK // max(1, codes.size))  # moves per whole-array step
    for lo in range(0, i.size, step):
        t = slice(lo, lo + step)
        gi, gj = digits[:, i[t]], digits[:, j[t]]
        gj = np.where(negative[t], inverse[gj], gj)
        new = product[np.where(left[t], gj, gi), np.where(left[t], gi, gj)]
        moved = codes[:, np.newaxis] + (new - gi) * place[i[t]]
        images, found = _find(codes, moved)
        stray = np.flatnonzero(~found.all(axis=0))
        if stray.size:
            raise ValueError(f"move {all_moves(n)[lo + stray[0]]} leaves Epi(F_{n}, G)")
        moves[:, t] = images
    return moves


@dataclass
class WalkStats:
    """Occupancy statistics of a lazy product-replacement walk."""

    steps: int
    seed: int
    start_index: int
    component: np.ndarray
    visits: np.ndarray
    tv_distance: float
    tv_checkpoints: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if int(self.visits.sum()) != self.steps:
            raise ValueError("visit counts must sum to the step count")
        for tv in (self.tv_distance, *(tv for _, tv in self.tv_checkpoints)):
            if not 0.0 <= tv <= 1.0:
                raise ValueError("total variation distance must lie in [0, 1]")


def _tv_to_uniform(visits: np.ndarray, total: int, component: np.ndarray) -> float:
    size = len(component)
    if total == 0:
        return 1.0 - 1.0 / size
    emp = visits[component] / total
    return float(0.5 * np.abs(emp - 1.0 / size).sum())


def pra_walk(
    graph: MultiGraph,
    comps: list[np.ndarray],
    steps: int,
    seed: int,
    checkpoints: Sequence[int] | None = None,
) -> WalkStats:
    """Lazy walk (hold 1/2, else uniform move) on a built move graph from
    vertex 0, the lexicographically least generating tuple; reports visit
    counts and the total-variation distance to uniform on the start tuple's
    component.  ``comps`` are the graph's components, so ``comps[0]`` must
    be the start's; an empty ``comps``, or one whose first entry misses
    vertex 0, raises ``ValueError``.

    The coins and picks are drawn up front, one whole array each, and only
    the steps whose coin says "move" are kept.  Those steps are taken in
    Python on the int32 neighbor table, read in place; each state the walk
    enters is held with its run, the steps until the next move.  Every
    visit count, at a checkpoint or at the end, is a ``bincount`` of the
    states weighted by their runs, so the walk holds about 16 bytes a step
    at its peak and no Python object per vertex."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not graph.n_vertices:
        raise ValueError("Epi set is empty")
    start = 0  # the least tuple in encoding order
    if not len(comps) or not np.any(comps[0] == start):
        raise ValueError(f"comps[0] must be the component of the start vertex {start}")
    component = comps[0]

    if checkpoints is None:
        marks = sorted({steps // 4, steps // 2, (3 * steps) // 4, steps} - {0})
    else:
        marks = sorted({int(c) for c in checkpoints if 0 < int(c) <= steps})

    rng = np.random.default_rng(seed)
    if steps and graph.degree:
        moves = np.flatnonzero(rng.integers(0, 2, size=steps))  # the steps that move
        picks = rng.integers(0, graph.degree, size=steps)[moves]
    else:
        # no moves (arity 1): the walk sits still
        moves = picks = np.empty(0, dtype=np.int64)
    states = _walk_states(graph, start, picks)
    del picks
    # states[i] is entered at step moves[i - 1] (the start at step 0) and
    # held until the next move, or to the end
    runs = np.empty(states.size)
    runs[:-1] = moves
    runs[-1] = steps
    runs[1:] -= moves

    n = graph.n_vertices
    counts = np.zeros(n)
    counted = 0  # states[:counted] are in counts with their whole runs
    tv_marks = []
    for m in marks:
        last = int(np.searchsorted(moves, m))  # states[: last + 1] are entered before step m
        counts += np.bincount(states[counted : last + 1], runs[counted : last + 1], minlength=n)
        counted = last + 1
        partial = counts.copy()
        partial[states[last]] -= (moves[last] if last < moves.size else steps) - m
        tv_marks.append((m, _tv_to_uniform(partial, m, component)))
    counts += np.bincount(states[counted:], runs[counted:], minlength=n)
    visits = counts.astype(np.int64)

    tv = _tv_to_uniform(visits, steps, component)
    return WalkStats(
        steps=steps,
        seed=seed,
        start_index=start,
        component=component,
        visits=visits,
        tv_distance=tv,
        tv_checkpoints=tuple(tv_marks),
    )


def _walk_states(graph: MultiGraph, start: int, picks: np.ndarray) -> np.ndarray:
    """The start, then the state after each move: from state s, pick p goes
    to ``graph.neighbors[s, p]``, read through a flat memoryview."""
    nbrs = memoryview(graph.neighbors.reshape(-1))
    k = graph.degree
    states = array("q", [start])
    append = states.append
    state = start
    for pick in memoryview(picks):
        state = nbrs[state * k + pick]
        append(state)
    return np.frombuffer(states, dtype=np.int64)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def transitivity_report(graph: MultiGraph) -> list[int]:
    """Orbit sizes of the move action on Epi(F_n, G), largest first,
    computed by union-find over the columns of the built move graph: the
    independent oracle for its components."""
    uf = _UnionFind(graph.n_vertices)
    for m in graph.neighbors.T:
        for x in range(graph.n_vertices):
            uf.union(x, int(m[x]))
    sizes: dict[int, int] = {}
    for x in range(graph.n_vertices):
        r = uf.find(x)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)
