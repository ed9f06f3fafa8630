"""Square-tiled surface census: transitive permutation pairs up to
simultaneous conjugation, mapping-class moves, and the move graph.

A degree-d square-tiled surface is a transitive pair (sigma, tau) in S_d;
its branching datum is the cycle type mu of the commutator, and its genus
comes from Riemann-Hurwitz over the torus.  The census enumerates one
canonical representative per simultaneous-conjugation orbit: sigma is the
lex-least permutation of its cycle type, and the tau orbits under its
centralizer are the components of conjugation acting on S_d's index space.
S_d is enumerated once per degree under the element budget (a d! above the
budget is refused before a sweep), and each degree is swept once per
process (cached).  census(d, mu) and origami_graph filter that one sweep.
The sweep also tabulates, for every element of S_d, a conjugator onto the
lex-least permutation of its cycle type, so the move graph stays in S_d's
index space: whole-array products give the moved pairs, and two index
lookups give each one's class id.  nielsen_moves and OrigamiPair are the
per-pair form of the same moves.  They keep the image group <sigma, tau>
and conjugation keeps its order, so closing each move-graph component's
first pair inside the same S_d, every component in one batched closure,
gives every class its image order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterator, Sequence

import numpy as np

from .elements import GroupElement
from .graphs import MultiGraph, components, schreier_graph
from .groups import FiniteGroup, _batch_multiply, bfs_closure, check_budget, closure_orders
from .groups import first_occurrences, resolve_budget, symmetric_generators

DEFAULT_DEGREE_CAP = 8  # read at call time; a safety gate, not a setting

Perm = tuple[int, ...]
SweptClass = tuple[Perm, Perm, tuple[int, ...], int]  # sigma0, least tau, mu, orbit size


def _mul(a: Perm, b: Perm) -> Perm:
    """Left-action composition: (a*b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def _inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def commutator(sigma: Perm, tau: Perm) -> Perm:
    return _mul(_mul(sigma, tau), _mul(_inv(sigma), _inv(tau)))


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Cycles (fixed points included), each starting at its minimum,
    ordered by minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Partition of d in canonical descending order."""
    return tuple(sorted((len(c) for c in cycles_of(p)), reverse=True))


def is_transitive(sigma: Perm, tau: Perm) -> bool:
    """Whether <sigma, tau> acts transitively on 0..d-1, by a BFS from 0.
    Both must be permutations of one degree d >= 1 (ValueError naming the
    bad one otherwise)."""
    d = len(sigma)
    if d == 0 or len(tau) != d:
        raise ValueError("sigma and tau must have the same degree >= 1")
    for name, p in (("sigma", sigma), ("tau", tau)):
        if sorted(p) != list(range(d)):
            raise ValueError(f"{name} is not a permutation of 0..{d - 1}: {tuple(p)}")
    seen = [False] * d
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for x in frontier:
            for y in (sigma[x], tau[x]):
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    nxt.append(y)
        frontier = nxt
    return count == d


@lru_cache(maxsize=8)
def _symmetric_group(d: int) -> FiniteGroup:
    """S_d, enumerated once per degree under the element budget."""
    return bfs_closure(symmetric_generators(d))


def _image_orders(pairs: Sequence[tuple[Perm, Perm]]) -> np.ndarray:
    """Orders of <sigma, tau> for pairs of one degree d, closed together
    inside the enumerated S_d: one ``closure_orders`` call on the
    right-multiplication columns of the pairs' distinct permutations."""
    d = len(pairs[0][0])
    group = _symmetric_group(d)
    members, sets = np.unique(group.indices(np.reshape(pairs, (-1, d))), return_inverse=True)
    cols = np.empty((group.order, members.size), dtype=np.int32)
    for j, i in enumerate(members.tolist()):
        cols[:, j] = group.right_multiplication_indices(group.element(i))
    return closure_orders(cols, sets.reshape(-1, 2))


def subgroup_order(sigma: Perm, tau: Perm) -> int:
    """Order of <sigma, tau>, closed inside the enumerated S_d."""
    return int(_image_orders([(sigma, tau)])[0])


def encode_pair(sigma: Perm, tau: Perm) -> str:
    """Stable textual form: cycle notation with fixed points kept,
    the two permutations joined by '|'."""

    def one(p: Perm) -> str:
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycles_of(p))

    return one(sigma) + "|" + one(tau)


def parse_pair(text: str) -> "OrigamiPair":
    """Inverse of encode_pair; the degree is the number of points listed."""
    halves = text.strip().split("|")
    if len(halves) != 2:
        raise ValueError("pair encoding must have exactly one '|'")

    def one(s: str) -> dict[int, int]:
        images: dict[int, int] = {}
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"bad cycle string {s!r}")
        for chunk in s[1:-1].split(")("):
            pts = [int(x) for x in chunk.split(",")]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if a in images:
                    raise ValueError(f"point {a} repeated in {s!r}")
                images[a] = b
        return images

    m1, m2 = one(halves[0]), one(halves[1])
    if set(m1) != set(m2):
        raise ValueError("the two permutations move different point sets")
    d = len(m1)
    if set(m1) != set(range(d)):
        raise ValueError(f"points must be exactly 0..{d - 1}")
    return OrigamiPair(
        tuple(m1[i] for i in range(d)), tuple(m2[i] for i in range(d))
    )


@dataclass(frozen=True)
class OrigamiPair:
    """A pair of permutations with its commutator data, computed at init."""

    sigma: Perm
    tau: Perm
    commutator: Perm = field(init=False)
    commutator_type: tuple[int, ...] = field(init=False)
    transitive: bool = field(init=False)

    def __post_init__(self):
        sigma = tuple(int(x) for x in self.sigma)
        tau = tuple(int(x) for x in self.tau)
        d = len(sigma)
        if d == 0 or sorted(sigma) != list(range(d)) or sorted(tau) != list(range(d)):
            raise ValueError("sigma and tau must be permutations of the same degree >= 1")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)
        comm = commutator(sigma, tau)
        object.__setattr__(self, "commutator", comm)
        object.__setattr__(self, "commutator_type", cycle_type(comm))
        object.__setattr__(self, "transitive", is_transitive(sigma, tau))

    @property
    def degree(self) -> int:
        return len(self.sigma)

    def encode(self) -> str:
        return encode_pair(self.sigma, self.tau)


def genus(pair: OrigamiPair) -> int:
    """Riemann-Hurwitz genus of the cover: 1 + sum(e_i - 1)/2 over the
    commutator cycle lengths; integral because commutators are even."""
    if not pair.transitive:
        raise ValueError("genus requires a transitive pair (a connected cover)")
    excess = sum(e - 1 for e in pair.commutator_type)
    if excess % 2:
        raise RuntimeError("odd branching excess: commutator not even? (unreachable)")
    return 1 + excess // 2


@dataclass(frozen=True)
class CensusClass:
    """One simultaneous-conjugation orbit of transitive pairs."""

    rep: OrigamiPair
    orbit_size: int
    image_order: int
    genus: int

    @property
    def mu(self) -> tuple[int, ...]:
        return self.rep.commutator_type


def partitions(d: int) -> Iterator[tuple[int, ...]]:
    """Partitions of d in descending-part canonical form."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(d, d, ())


def lex_least_of_type(lam: Sequence[int], d: int) -> Perm:
    """Lexicographically least permutation with cycle type lam: cycles in
    ascending length on consecutive blocks, each a forward shift."""
    if sum(lam) != d:
        raise ValueError(f"partition {lam} does not sum to {d}")
    images = []
    start = 0
    for length in sorted(lam):
        images.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(images)


def _centralizer_generators(sigma0: Perm, lam_sorted: list[int]) -> list[Perm]:
    """Generators of the centralizer of the block-form permutation: each
    block's own rotation, plus pointwise swaps of adjacent equal blocks."""
    d = len(sigma0)
    ident = list(range(d))
    gens: list[Perm] = []
    starts = []
    pos = 0
    for length in lam_sorted:
        starts.append(pos)
        rot = ident.copy()
        for t in range(length):
            rot[pos + t] = pos + (t + 1) % length
        if length > 1:
            gens.append(tuple(rot))
        pos += length
    for idx in range(len(lam_sorted) - 1):
        if lam_sorted[idx] == lam_sorted[idx + 1]:
            swap = ident.copy()
            a, b = starts[idx], starts[idx + 1]
            for t in range(lam_sorted[idx]):
                swap[a + t], swap[b + t] = b + t, a + t
            gens.append(tuple(swap))
    out = []
    for g in gens:
        out.append(g)
        gi = _inv(g)
        if gi != g:
            out.append(gi)
    return out


def _check_request(d: int, mu: Sequence[int] | None) -> tuple[int, ...] | None:
    """Validate a census request before any sweep; returns mu in
    canonical descending order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    check_budget(f"census(d={d}): degree", (d,), DEFAULT_DEGREE_CAP)
    # image groups close inside S_d: its d! elements must fit the budget
    check_budget(f"census(d={d}): S_{d}'s {d}! elements", range(2, d + 1), resolve_budget())
    mu_key = tuple(sorted(mu, reverse=True)) if mu is not None else None
    if mu_key is not None and (sum(mu_key) != d or any(p < 1 for p in mu_key)):
        raise ValueError(f"mu {mu_key} is not a partition of {d}")
    return mu_key


@lru_cache(maxsize=8)
def _sweep(d: int) -> tuple[list[SweptClass], np.ndarray, np.ndarray, np.ndarray]:
    """The whole degree-d census, one sweep over every cycle type of sigma.
    The taus are S_d's elements renumbered in lex order, so each orbit under
    the centralizer of the lex-least sigma0 is led by its least tau.  Each
    transitive orbit is one class (sigma0, least tau, commutator type, full
    orbit size); sigma0 ascends, so the list is sorted and its index is the
    class id.  Row r of the (types x d!) labels gives, for the r-th sigma0,
    the class id of every S_d index as tau, -1 where the pair is not in the
    census.  For each S_d index x, row[x] is the row of x's cycle type and
    conj[x] the first g with g x g^-1 = sigma0 (0, the identity, for
    x = sigma0), read off x = g^-1 sigma0 g over every g."""
    group = _symmetric_group(d)
    mul = partial(_batch_multiply, group.kind, group.modulus)
    lex = np.lexsort(group.stack.T[::-1])  # S_d's indices in lex order
    rank = np.argsort(lex)
    taus = group.stack[lex].tolist()
    found: list[SweptClass] = []
    sigma0s = sorted(lex_least_of_type(lam, d) for lam in partitions(d))
    labels = np.full((len(sigma0s), group.order), -1, dtype=np.int32)
    row = np.empty(group.order, dtype=np.int32)
    conj = np.empty(group.order, dtype=np.int32)
    inverses = np.argsort(group.stack, axis=1)
    for r, sigma0 in enumerate(sigma0s):
        members, first = first_occurrences(
            group.indices(mul(inverses, mul(np.array(sigma0), group.stack)))
        )
        row[members], conj[members] = r, first
        cgens = _centralizer_generators(sigma0, sorted(cycle_type(sigma0)))
        cols = [rank[group.conjugation_indices(GroupElement.permutation(c))[lex]] for c in cgens]
        action = schreier_graph(np.array(cols, dtype=np.int32).reshape(len(cgens), group.order).T)
        for orbit in components(action):
            tau = tuple(taus[orbit[0]])
            if is_transitive(sigma0, tau):  # conjugation preserves transitivity
                labels[r, lex[orbit]] = len(found)
                mu = cycle_type(commutator(sigma0, tau))
                found.append((sigma0, tau, mu, orbit.size * members.size))
    return found, labels, row, conj


MOVE_NAMES = ("T", "T_inv", "S", "S_inv")


@lru_cache(maxsize=8)
def _moves(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree-d move graph on class ids, and each class's image order.
    Row c of the (classes x 4) array is the class ids of nielsen_moves of
    class c's rep, in MOVE_NAMES order; every move is checked to land on a
    census class of c's stratum.  The image order is constant on each
    component, so it is closed at each component's first class, every
    component's in one batch."""
    classes, labels, row, conj = _sweep(d)
    group = _symmetric_group(d)
    mul = partial(_batch_multiply, group.kind, group.modulus)
    s, t = (np.array(perms) for perms in zip(*(c[:2] for c in classes)))
    s_inv, t_inv = np.argsort(s, axis=1), np.argsort(t, axis=1)
    # the moved pairs of nielsen_moves, class-major and in MOVE_NAMES order
    sigma = np.stack([s, s, t_inv, t], axis=1).reshape(-1, d)
    tau = np.stack([mul(t, s), mul(t, s_inv), s, s_inv], axis=1).reshape(-1, d)
    x = group.indices(sigma)
    g = group.stack[conj[x]]  # g sigma g^-1 is sigma0 of row[x]
    tau0 = group.indices(mul(g, mul(tau, np.argsort(g, axis=1))))
    images = labels[row[x], tau0].reshape(len(classes), len(MOVE_NAMES))
    stratum = np.unique([str(m) for _, _, m, _ in classes], return_inverse=True)[1]
    if (images < 0).any() or (stratum[images] != stratum[:, np.newaxis]).any():
        raise RuntimeError("move left the census stratum: convention bug (unreachable)")
    graph = schreier_graph(images)
    comps = components(graph)
    orders = np.empty(len(classes), dtype=np.int64)
    for comp, order in zip(comps, _image_orders([classes[comp[0]][:2] for comp in comps])):
        orders[comp] = order
    return graph.neighbors, orders


def census(d: int, mu: Sequence[int] | None = None) -> list[CensusClass]:
    """One CensusClass per simultaneous-conjugation orbit of transitive
    pairs of degree d, optionally filtered by commutator cycle type.  Every
    call filters the one cached degree-d sweep; the image orders come from
    the cached move graph, one closed set per component."""
    mu_key = _check_request(d, mu)
    return [
        CensusClass(rep := OrigamiPair(sigma, tau), orbit_size, order, genus(rep))
        for (sigma, tau, m, orbit_size), order in zip(_sweep(d)[0], _moves(d)[1].tolist())
        if mu_key is None or m == mu_key
    ]


def nielsen_moves(p: OrigamiPair) -> list[OrigamiPair]:
    """Images under T: (s,t) -> (s,ts), S: (s,t) -> (t^-1,s) and their
    inverses, in MOVE_NAMES order.  The commutator cycle type is checked to
    survive each move."""
    s, t = p.sigma, p.tau
    out = [
        OrigamiPair(s, _mul(t, s)),
        OrigamiPair(s, _mul(t, _inv(s))),
        OrigamiPair(_inv(t), s),
        OrigamiPair(t, _inv(s)),
    ]
    for name, q in zip(MOVE_NAMES, out):
        if q.commutator_type != p.commutator_type:
            raise RuntimeError(f"puncture class changed under {name}: convention bug (unreachable)")
    return out


def origami_graph(d: int, mu: Sequence[int], image_order: int | None = None) -> MultiGraph:
    """The 4-regular move graph on census classes with commutator type mu,
    optionally restricted to classes with a given image-group order.
    Vertex i is the i-th class of census(d, mu) with that image order.

    A mu with no admissible pairs gives an explicit empty graph.
    """
    if mu is None:
        raise ValueError("origami_graph needs a commutator type mu")
    mu_key = _check_request(d, mu)
    neighbors, orders = _moves(d)
    keep = np.array([m == mu_key for _, _, m, _ in _sweep(d)[0]])
    keep = np.flatnonzero(keep if image_order is None else keep & (orders == image_order))
    # stratum and image order are constant on components: whole ones are kept
    position = np.full(len(orders), -1)
    position[keep] = np.arange(keep.size)
    label = f"origami(d={d};mu={'+'.join(map(str, mu_key))}" + (
        f";|G|={image_order})" if image_order is not None else ")"
    )
    return schreier_graph(position[neighbors[keep]], label=label)
