"""Product replacement: generating n-tuples, Nielsen-type moves, the PRA
Schreier graph, and lazy random-walk mixing diagnostics.

Epi(F_n, G) is the set of n-tuples that generate G; the 4n(n-1) moves
replace g_i by g_j^(+-1) g_i or g_i g_j^(+-1) (i != j) and are closed under
inversion as a set, so the move graph is an honest 4n(n-1)-regular
Schreier graph.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import ActionSpec, MultiGraph, components, schreier_graph
from .groups import BudgetExceeded, FiniteGroup, closure_order, resolve_budget

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


def enumerate_epi(
    group: FiniteGroup, n: int, budget: int | None = None
) -> list[EpiTuple]:
    """All generating n-tuples, sorted by canonical encoding.

    Scans |G|^n candidates; refuses to start above the candidate budget.
    """
    if n < 1:
        raise ValueError("arity must be >= 1")
    budget = resolve_budget(budget, default=DEFAULT_CANDIDATE_BUDGET)
    candidates = group.order**n
    if candidates > budget:
        raise BudgetExceeded(0, budget, f"enumerate_epi({group.order}^{n} candidates)")
    table = group.multiplication_table()
    generates: dict[frozenset[int], bool] = {}  # one closure per generator set
    out = []
    for tup in itertools.product(range(group.order), repeat=n):
        gens = frozenset(tup)
        ok = generates.get(gens)
        if ok is None:
            ok = generates[gens] = closure_order(table[:, list(gens)]) == group.order
        if ok:
            out.append(EpiTuple(group, tup))
    out.sort(key=lambda t: t.encoding)
    return out


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


def _move_graph(group: FiniteGroup, n: int, budget: int | None = None) -> MultiGraph:
    """The move graph on Epi(F_n, G); neighbor column t is the image array
    of all_moves(n)[t]."""
    epis = enumerate_epi(group, n, budget=budget)
    position = {t.indices: idx for idx, t in enumerate(epis)}
    moves = []
    for move in all_moves(n):
        images = np.empty(len(epis), dtype=np.int32)
        for idx, t in enumerate(epis):
            images[idx] = position[apply_move(t, move).indices]
        moves.append(images)
    label = f"pra({group.label or group.order};n={n})"
    return schreier_graph(ActionSpec(range(len(epis)), moves, label=label))


def pra_graph(group: FiniteGroup, n: int, budget: int | None = None) -> MultiGraph:
    """The 4n(n-1)-regular move graph on Epi(F_n, G)."""
    if n == 1:
        warnings.warn(
            "arity 1 admits no product replacement moves; returning a 0-regular graph",
            stacklevel=2,
        )
    return _move_graph(group, n, budget=budget)


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
    group: FiniteGroup,
    n: int,
    steps: int,
    seed: int,
    budget: int | None = None,
    checkpoints: Sequence[int] | None = None,
) -> WalkStats:
    """Lazy walk (hold 1/2, else uniform move) from the lexicographically
    least generating tuple; reports visit counts and the total-variation
    distance to uniform on the start tuple's component."""
    return _walk(_move_graph(group, n, budget=budget), steps, seed, checkpoints)


def _walk(
    graph: MultiGraph, steps: int, seed: int, checkpoints: Sequence[int] | None = None
) -> WalkStats:
    """pra_walk on an already built move graph."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not graph.n_vertices:
        raise ValueError("Epi set is empty")
    start = 0  # epis are sorted by encoding
    component = components(graph)[0]

    if checkpoints is None:
        marks = sorted({steps // 4, steps // 2, (3 * steps) // 4, steps} - {0})
    else:
        marks = sorted({int(c) for c in checkpoints if 0 < int(c) <= steps})

    rng = np.random.default_rng(seed)
    visits = np.zeros(graph.n_vertices, dtype=np.int64)
    tv_marks = []
    state = start
    if steps and graph.degree:
        coins = rng.integers(0, 2, size=steps)
        picks = rng.integers(0, graph.degree, size=steps)
        markset = set(marks)
        nbrs = graph.neighbors
        for t in range(steps):
            if coins[t]:
                state = int(nbrs[state, picks[t]])
            visits[state] += 1
            if (t + 1) in markset:
                tv_marks.append((t + 1, _tv_to_uniform(visits, t + 1, component)))
    elif steps:
        # no moves (arity 1): the walk sits still
        visits[state] = steps
        for m in marks:
            partial = np.zeros_like(visits)
            partial[state] = m
            tv_marks.append((m, _tv_to_uniform(partial, m, component)))

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


def transitivity_report(
    group: FiniteGroup, n: int, budget: int | None = None
) -> list[int]:
    """Orbit sizes of the move action on Epi(F_n, G), largest first,
    computed by union-find over all moves: the independent oracle for the
    move graph's components."""
    graph = _move_graph(group, n, budget=budget)
    uf = _UnionFind(graph.n_vertices)
    for m in graph.neighbors.T:
        for x in range(graph.n_vertices):
            uf.union(x, int(m[x]))
    sizes: dict[int, int] = {}
    for x in range(graph.n_vertices):
        r = uf.find(x)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)
