"""k-regular multigraphs: Cayley graphs of finite quotients and Schreier
graphs of group actions.

Adjacency is stored as an (N, k) int32 array: row u lists the k edge
endpoints incident to u, with parallel edges repeated and each loop
appearing twice in its own row.  Rows therefore all have length k, the
adjacency matrix diagonal counts loops twice, and the normalized Laplacian
I - A/k has exact zero row sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .elements import encode_matrix
from .groups import FiniteGroup, GeneratorSet

MAX_VERTICES = 2**31 - 1
DOT_VERTEX_LIMIT = 500
_DUMP_MAGIC = b"TLG1"


class MultiGraph:
    """k-regular undirected multigraph in fixed-width adjacency form."""

    def __init__(
        self,
        neighbors: np.ndarray,
        label: str = "",
        vertex_labels: Sequence[str] | None = None,
        check: bool = True,
    ):
        nbrs = np.asarray(neighbors, dtype=np.int32)
        if nbrs.ndim != 2:
            raise ValueError("neighbors must be a 2-d (N, k) array")
        self.neighbors = nbrs
        self.label = label
        self.vertex_labels = list(vertex_labels) if vertex_labels is not None else None
        if self.vertex_labels is not None and len(self.vertex_labels) != nbrs.shape[0]:
            raise ValueError("vertex_labels length does not match vertex count")
        if nbrs.shape[0] > MAX_VERTICES:
            raise ValueError("too many vertices for 32-bit ids")
        if check:
            self._check_symmetric()
        self.neighbors.flags.writeable = False

    def _check_symmetric(self):
        n, k = self.neighbors.shape
        if n == 0 or k == 0:
            return
        if self.neighbors.min(initial=0) < 0 or self.neighbors.max(initial=0) >= n:
            raise ValueError("neighbor index out of range")
        # adjacency must be symmetric as a multiset of ordered pairs
        u = np.repeat(np.arange(n, dtype=np.int64), k)
        v = self.neighbors.ravel().astype(np.int64)
        fwd = np.sort(u * n + v)
        bwd = np.sort(v * n + u)
        if not np.array_equal(fwd, bwd):
            raise ValueError("adjacency is not symmetric as a multiset")

    @property
    def n_vertices(self) -> int:
        return self.neighbors.shape[0]

    @property
    def degree(self) -> int:
        return self.neighbors.shape[1]

    @property
    def n_edges(self) -> int:
        """Undirected edge count; each loop counts once (two endpoints)."""
        return self.n_vertices * self.degree // 2

    def adjacency(self) -> scipy.sparse.csr_matrix:
        n, k = self.neighbors.shape
        rows = np.repeat(np.arange(n, dtype=np.int64), k)
        cols = self.neighbors.ravel().astype(np.int64)
        data = np.ones(n * k, dtype=np.float64)
        return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n))

    def dense_adjacency(self) -> np.ndarray:
        n, k = self.neighbors.shape
        A = np.zeros((n, n), dtype=np.float64)
        rows = np.repeat(np.arange(n), k)
        np.add.at(A, (rows, self.neighbors.ravel()), 1.0)
        return A

    def __repr__(self) -> str:
        return (
            f"MultiGraph(N={self.n_vertices}, k={self.degree}, label={self.label!r})"
        )


def from_edges(
    n: int, edges: Sequence[tuple[int, int]], label: str = "", check: bool = True
) -> MultiGraph:
    """Build a regular multigraph from an explicit undirected edge list.

    Loops are given once as (u, u) and contribute two endpoints.  Raises if
    the result is not regular.
    """
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    lengths = {len(r) for r in rows}
    if len(lengths) > 1:
        raise ValueError(f"edge list is not regular: endpoint counts {sorted(lengths)}")
    k = lengths.pop() if lengths else 0
    nbrs = np.array(rows, dtype=np.int32).reshape(n, k)
    return MultiGraph(nbrs, label=label, check=check)


def cayley_graph(group: FiniteGroup, gens: GeneratorSet, label: str | None = None) -> MultiGraph:
    """Cayley graph with right-multiplication edges q -- q*s over the
    symmetrized generator multiset; k = multiset size."""
    for g in gens.symmetrized:
        if g not in group:
            raise ValueError(f"generator not in group: {g!r}")
    cols = [group.right_multiplication_indices(s) for s in gens.symmetrized]
    nbrs = np.stack(cols, axis=1)
    if label is None:
        label = f"cayley({gens.label or group.label})"
    return MultiGraph(nbrs, label=label)


@dataclass
class ActionSpec:
    """A state set plus an inversion-closed multiset of bijective moves."""

    states: Sequence[str]
    moves: Sequence[np.ndarray]
    label: str = ""

    def __post_init__(self):
        self.states = list(self.states)
        self.moves = [np.asarray(m, dtype=np.int32) for m in self.moves]
        n = len(self.states)
        ident = np.arange(n, dtype=np.int32)
        for t, m in enumerate(self.moves):
            if m.shape != (n,):
                raise ValueError(f"move {t} has wrong shape {m.shape}")
            if not np.array_equal(np.sort(m), ident):
                raise ValueError(f"move {t} is not a bijection on the state set")
        # inversion closure, with multiplicity
        counts: dict[bytes, int] = {}
        for m in self.moves:
            counts[m.tobytes()] = counts.get(m.tobytes(), 0) + 1
        for m in self.moves:
            inv = np.argsort(m).astype(np.int32)
            if counts.get(inv.tobytes(), 0) != counts[m.tobytes()]:
                raise ValueError("move multiset is not closed under inversion")

    @property
    def n_states(self) -> int:
        return len(self.states)


def schreier_graph(action: ActionSpec, label: str | None = None) -> MultiGraph:
    """Graph of the action: x -- m(x) for every move m; k = number of moves."""
    n = action.n_states
    if action.moves:
        nbrs = np.stack(action.moves, axis=1)
    else:
        nbrs = np.empty((n, 0), dtype=np.int32)
    return MultiGraph(
        nbrs,
        label=label if label is not None else action.label,
        vertex_labels=list(action.states),
    )


def components(g: MultiGraph) -> list[np.ndarray]:
    """Connected components by BFS; returned as sorted vertex index arrays."""
    n = g.n_vertices
    comp = np.full(n, -1, dtype=np.int64)
    out: list[np.ndarray] = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        cid = len(out)
        comp[start] = cid
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            nxt = np.unique(g.neighbors[frontier].ravel().astype(np.int64))
            nxt = nxt[comp[nxt] < 0]
            comp[nxt] = cid
            frontier = nxt
        out.append(np.flatnonzero(comp == cid))
    return out


def quotient_check(
    cayley: MultiGraph, schreier: MultiGraph, projection: np.ndarray
) -> bool:
    """True iff the projection carries the Cayley adjacency onto the
    Schreier adjacency with aggregate multiplicity: for every vertex u the
    projected neighbor multiset of u equals the neighbor multiset of
    projection[u]."""
    proj = np.asarray(projection, dtype=np.int64)
    if proj.shape != (cayley.n_vertices,):
        raise ValueError("projection must assign one Schreier vertex per Cayley vertex")
    if proj.min() < 0 or proj.max() >= schreier.n_vertices:
        raise ValueError("projection value out of range")
    if np.unique(proj).size != schreier.n_vertices:
        raise ValueError("projection is not surjective")
    if cayley.degree != schreier.degree:
        return False
    lhs = np.sort(proj[cayley.neighbors.astype(np.int64)], axis=1)
    rhs = np.sort(schreier.neighbors[proj].astype(np.int64), axis=1)
    return bool(np.array_equal(lhs, rhs))


def _vector_codes(vectors: np.ndarray, modulus: int) -> np.ndarray:
    powers = modulus ** np.arange(vectors.shape[1], dtype=np.int64)
    return vectors.astype(np.int64) @ powers


def _all_nonzero_vectors(dim: int, modulus: int) -> np.ndarray:
    """All nonzero vectors of (Z/m)^dim ordered by their base-m code."""
    codes = np.arange(1, modulus**dim, dtype=np.int64)
    digits = np.empty((codes.size, dim), dtype=np.int64)
    rem = codes.copy()
    for i in range(dim):
        digits[:, i] = rem % modulus
        rem //= modulus
    return digits


def torsion_action(gens: GeneratorSet, label: str | None = None) -> ActionSpec:
    """Action of the symmetrized generators on the nonzero vectors of
    (Z/m)^n by left multiplication x -> s.x; the vertex set has m^n - 1
    states, one per nontrivial torsion point."""
    first = gens.elements[0]
    if first.kind != "matrix" or first.modulus == 0:
        raise ValueError("torsion_action needs matrix generators with positive modulus")
    m, dim = first.modulus, first.dimension
    vecs = _all_nonzero_vectors(dim, m)
    states = [encode_matrix(v.reshape(1, -1), m).hex() for v in vecs]
    moves = []
    for s in gens.symmetrized:
        images = (vecs @ s.data.T) % m
        codes = _vector_codes(images, m)
        if (codes == 0).any():
            raise ValueError("generator sends a nonzero vector to zero")
        moves.append((codes - 1).astype(np.int32))
    return ActionSpec(
        states, moves, label=label or f"torsion({gens.label};m={m})"
    )


def torsion_projection(
    group: FiniteGroup, base_vector: Sequence[int] | None = None
) -> np.ndarray:
    """Projection q -> index of q^(-1).v0 from Cayley vertices onto torsion
    Schreier vertices.

    With right-multiplication Cayley edges q -- q*s and left-action Schreier
    moves x -> s.x, the inverse in the projection is what makes edges map to
    edges: (q*s)^(-1).v0 = s^(-1).(q^(-1).v0).
    """
    if group.kind != "matrix" or group.modulus == 0:
        raise ValueError("torsion_projection needs a matrix group with positive modulus")
    m = group.modulus
    dim = group.stack.shape[1]
    if base_vector is None:
        v0 = np.zeros(dim, dtype=np.int64)
        v0[0] = 1
    else:
        v0 = np.asarray(base_vector, dtype=np.int64) % m
        if not v0.any():
            raise ValueError("base vector must be nonzero")
    w = (group.stack[group.inverse_indices()] @ v0) % m
    return _vector_codes(w, m) - 1


def to_dot(g: MultiGraph, name: str | None = None) -> str:
    """GraphViz text for small graphs; hard-capped at 500 vertices."""
    if g.n_vertices > DOT_VERTEX_LIMIT:
        raise ValueError(
            f"DOT export limited to {DOT_VERTEX_LIMIT} vertices, graph has {g.n_vertices}"
        )
    lines = [f'graph "{name or g.label or "multigraph"}" {{']
    n, k = g.neighbors.shape
    for u in range(n):
        row = g.neighbors[u]
        loop_endpoints = int((row == u).sum())
        for _ in range(loop_endpoints // 2):
            lines.append(f"  {u} -- {u};")
        for v in row[row > u]:
            lines.append(f"  {u} -- {int(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_graph(g: MultiGraph, path) -> None:
    """Binary adjacency dump: magic, u32 N, u32 k, then each row sorted
    ascending and delta-encoded as unsigned LEB128 varints."""
    rows = np.sort(g.neighbors, axis=1).astype(np.int64)
    deltas = np.diff(rows, axis=1, prepend=0).ravel()
    # each delta (below 2^31) as 1 to 5 seven-bit groups, least significant
    # first, with the high bit set on every group but the last
    shifted = deltas[:, np.newaxis] >> (7 * np.arange(5))
    widths = np.maximum((shifted > 0).sum(axis=1), 1)[:, np.newaxis]
    digit = np.arange(5)
    varints = (shifted & 0x7F) | np.where(digit < widths - 1, 0x80, 0)
    body = varints[digit < widths].astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(np.array([g.n_vertices, g.degree], dtype="<u4").tobytes())
        fh.write(body.tobytes())


def load_graph(path, label: str = "") -> MultiGraph:
    """Inverse of save_graph.  A malformed dump (truncated, trailing bytes,
    neighbor out of range) raises ValueError, and the header is checked
    against the file length before anything it sizes is allocated."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _DUMP_MAGIC:
        raise ValueError(f"not a graph dump: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise ValueError("graph dump truncated inside its header")
    n, k = (int(x) for x in np.frombuffer(data[4:12], dtype="<u4"))
    body = np.frombuffer(data, dtype=np.uint8, offset=12)
    # every varint takes at least one byte
    if n * k > body.size:
        raise ValueError(
            f"graph dump truncated: header claims {n} x {k} entries, {body.size} bytes follow"
        )
    ends = np.flatnonzero(body < 0x80)  # last byte of each varint
    if ends.size < n * k:
        raise ValueError(f"graph dump truncated: {ends.size} of {n * k} entries present")
    used = int(ends[n * k - 1]) + 1 if n * k else 0
    if used != body.size:
        raise ValueError(f"graph dump has {body.size - used} trailing bytes")
    deltas = np.zeros(0, dtype=np.int64)
    if n * k:
        starts = np.concatenate(([0], ends[:-1] + 1))
        widths = ends - starts + 1
        if widths.max() > 5:
            raise ValueError("graph dump holds a varint longer than 5 bytes")
        shifts = 7 * (np.arange(body.size) - np.repeat(starts, widths))
        deltas = np.add.reduceat((body & 0x7F).astype(np.int64) << shifts, starts)
    nbrs = np.cumsum(deltas.reshape(n, k), axis=1)
    if nbrs.size and nbrs.max() >= n:
        raise ValueError(f"graph dump neighbor {int(nbrs.max())} out of range for {n} vertices")
    return MultiGraph(nbrs, label=label)
