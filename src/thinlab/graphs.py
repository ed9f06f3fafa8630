"""k-regular multigraphs: Cayley graphs of finite quotients and Schreier
graphs of group actions.

Adjacency is stored as an (N, k) int32 array: row u lists the k edge
endpoints incident to u, with parallel edges repeated and each loop
appearing twice in its own row.  Rows therefore all have length k, the
adjacency matrix diagonal counts loops twice, and the normalized Laplacian
I - A/k has exact zero row sums.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np
import scipy.sparse

from .elements import GroupElement, identity_like
from .groups import (
    CHUNK,
    BudgetExceeded,
    FiniteGroup,
    GeneratorSet,
    check_budget,
    resolve_budget,
)

MAX_VERTICES = 2**31 - 1
DOT_VERTEX_LIMIT = 500
_DUMP_MAGIC = b"TLG1"


class MultiGraph:
    """k-regular undirected multigraph in fixed-width adjacency form.

    ``symmetry``, if a builder knows one, is sigma(0) for a vertex
    permutation sigma with sigma(neighbors[u, t]) = neighbors[sigma(u), t]
    for every u and t, which on a connected graph it fixes.  Nothing checks
    it here; ``spectra.lambda1`` builds and verifies sigma before it splits
    the Laplacian along its orbits, and ignores it otherwise.

    The graph is immutable, so its components, once a search has found
    them (``components`` or ``lambda1``), are kept in ``_comps`` and not
    searched for again."""

    symmetry: int | None = None
    _comps: list[np.ndarray] | None = None

    def __init__(self, neighbors: np.ndarray, label: str = ""):
        nbrs = np.asarray(neighbors)
        if nbrs.ndim != 2:
            raise ValueError("neighbors must be a 2-d (N, k) array")
        self.neighbors = nbrs
        self.label = label
        if nbrs.shape[0] > MAX_VERTICES:
            raise ValueError("too many vertices for 32-bit ids")
        self._check_symmetric()  # in the input's dtype: the int32 cast would wrap big ids
        self.neighbors = nbrs.astype(np.int32, copy=False)
        self.neighbors.flags.writeable = False

    @classmethod
    def _symmetric(cls, neighbors: np.ndarray, label: str, symmetry: int | None) -> "MultiGraph":
        """The graph on an int32 (N, k) array already known to be a
        symmetric adjacency in range, as schreier_graph's checked move
        arrays are: skips _check_symmetric."""
        graph = cls.__new__(cls)
        graph.neighbors, graph.label, graph.symmetry = neighbors, label, symmetry
        neighbors.flags.writeable = False
        return graph

    def _check_symmetric(self):
        n, k = self.neighbors.shape
        if n == 0 or k == 0:
            return
        if self.neighbors.min(initial=0) < 0 or self.neighbors.max(initial=0) >= n:
            raise ValueError("neighbor index out of range")
        # adjacency must be symmetric as a multiset of ordered pairs: the
        # keys u n + v are ascending once each row is sorted, so only the
        # reversed keys v n + u are held, in int64, and sorted; the forward
        # ones are formed from the sorted int32 rows a block at a time
        rows = self.neighbors.astype(np.int32)  # in range, so below 2^31
        rows.sort(axis=1)
        bwd = np.multiply(rows, n, dtype=np.int64)
        bwd += np.arange(n, dtype=np.int64)[:, np.newaxis]
        bwd = bwd.ravel()
        bwd.sort()
        block = max(1, CHUNK // k)
        for lo in range(0, n, block):
            fwd = rows[lo : lo + block].astype(np.int64)
            fwd += np.arange(lo, lo + fwd.shape[0], dtype=np.int64)[:, np.newaxis] * n
            if not np.array_equal(fwd.ravel(), bwd[lo * k : lo * k + fwd.size]):
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
        """Sparse A, parallel edges summed: row u's k entries are already
        the CSR row, so no COO triplets are formed."""
        n, k = self.neighbors.shape
        data = np.ones(n * k, dtype=np.float64)
        indptr = k * np.arange(n + 1, dtype=np.int64)
        # a copy: sum_duplicates sorts the indices in place
        A = scipy.sparse.csr_matrix((data, self.neighbors.ravel().copy(), indptr), shape=(n, n))
        A.sum_duplicates()
        return A

    def dense_adjacency(self) -> np.ndarray:
        return self.adjacency().toarray()

    def __repr__(self) -> str:
        return (
            f"MultiGraph(N={self.n_vertices}, k={self.degree}, label={self.label!r})"
        )


def from_edges(n: int, edges: Sequence[tuple[int, int]], label: str = "") -> MultiGraph:
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
    return MultiGraph(nbrs, label=label)


def cayley_graph(group: FiniteGroup, gens: GeneratorSet, label: str | None = None) -> MultiGraph:
    """Cayley graph with right-multiplication edges q -- q*s over the
    symmetrized generator multiset; k = multiset size.

    A generator that is one of the group's own symmetrized generators takes
    its column from the group's BFS move table, and the group's own
    generator set takes the whole table, shared read-only; any other
    generator is multiplied out and looked up.

    The graph's ``symmetry`` is the index of the listed generator g of
    largest order h (the first such): the image of the identity, vertex 0,
    under left multiplication by g, which commutes with every right
    multiplication.  Its orbits are the N / h right cosets of g's cyclic
    group."""
    for g in gens.symmetrized:
        if g not in group:
            raise ValueError(f"generator not in group: {g!r}")
    if gens.symmetrized == group.symmetrized:
        moves = group.moves
    else:
        own = {s: t for t, s in enumerate(group.symmetrized)}
        cols = [
            group.moves[:, own[s]] if s in own else group.right_multiplication_indices(s)
            for s in gens.symmetrized
        ]
        moves = np.stack(cols, axis=1)
    if label is None:
        label = f"cayley({gens.label or group.label})"
    orders = [_element_order(g) for g in gens.elements]
    symmetry = group.index_of(gens.elements[orders.index(max(orders))])
    return schreier_graph(moves, label=label, symmetry=symmetry)


def _element_order(g: GroupElement) -> int:
    """The order of an element of a finite group, by repeated product."""
    e, power, h = identity_like(g), g, 1
    while power != e:
        power, h = power * g, h + 1
    return h


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two C-contiguous 2-d arrays of one shape, with at least one
    column, hold the same multiset of rows: each is ordered by its rows'
    bytes, and the rows are compared in that order, one pair at a time, so
    no sorted copy of either array is made."""
    row = np.dtype((np.void, a.itemsize * a.shape[1]))
    order_a, order_b = (np.argsort(x.view(row).ravel()) for x in (a, b))
    return all(np.array_equal(a[i], b[j]) for i, j in zip(order_a, order_b))


def schreier_graph(moves: np.ndarray, label: str = "", symmetry: int | None = None) -> MultiGraph:
    """Graph of a group action: x -- m(x) for every move m; k = number of
    moves.  ``moves`` is the (N, k) array in ``MultiGraph.neighbors``
    layout: row x lists x's image under each move.  Each column must be a
    bijection of range(N), and the columns an inversion-closed multiset.
    ``symmetry``, a vertex or None, becomes the graph's, unchecked (see
    ``MultiGraph``)."""
    moves = np.asarray(moves)
    if moves.ndim != 2:
        raise ValueError("moves must be a 2-d (N, k) array")
    n, k = moves.shape
    if n > MAX_VERTICES:
        raise ValueError("too many vertices for 32-bit ids")
    # in the input's dtype: the int32 cast would wrap big ids
    if moves.size and (moves.min() < 0 or moves.max() >= n):
        raise ValueError("move image out of range for the state set")
    moves = moves.astype(np.int32, copy=False)
    images = np.ascontiguousarray(moves.T)  # one row per move
    inverses = np.full_like(images, -1)
    inverses[np.arange(k)[:, np.newaxis], images] = np.arange(n, dtype=np.int32)
    # n images of n states are a bijection iff they hit every state
    bad = np.flatnonzero((inverses < 0).any(axis=1))
    if bad.size:
        raise ValueError(f"move {bad[0]} is not a bijection on the state set")
    # inversion closure, with multiplicity: the moves and their inverses
    # are the same multiset of rows
    if n and not _same_rows(images, inverses):
        raise ValueError("move multiset is not closed under inversion")
    # bijective moves closed under inversion make a symmetric adjacency
    return MultiGraph._symmetric(moves, label, symmetry)


def components(g: MultiGraph) -> list[np.ndarray]:
    """Connected components as sorted read-only vertex index arrays, ordered
    by their smallest vertex, searched from the neighbor table.  A graph's
    first search is kept, so after ``lambda1`` none is repeated here."""
    if not g.n_vertices:
        return []
    if g._comps is None:
        g._comps = _components(g.neighbors)
    return list(g._comps)


def _components(neighbors: np.ndarray) -> list[np.ndarray]:
    """The components of the graph on N >= 1 vertices with the (N, k)
    symmetric neighbor table ``neighbors``, as ``components`` gives them; a
    connected graph's one component is returned without a sort.

    Hooking and pointer jumping (Shiloach and Vishkin, J. Algorithms 3,
    1982), with the edges contracted after each round.  roots[v] is the
    vertex v's tree hangs from, and a vertex only ever hooks onto a smaller
    one, so the trees stay a forest whose roots are their least vertices.
    Round one hooks every vertex onto its smallest neighbor, the row
    minimum, with no edge list, and pointer jumping takes every vertex to
    its tree's root.  The edges that still join two roots are contracted
    onto them for the next round (``_contract``), until none is left.  A
    root that survives a round has no smaller root next to it, and within
    two rounds it either gains a child or hooks, so each component's roots
    at least halve every two rounds: at most 2 ceil(log2 N) rounds.  Each
    component ends as one tree, rooted at its least vertex."""
    n, k = neighbors.shape
    vertices = np.arange(n, dtype=np.int32)
    roots = _jump(np.minimum(neighbors.min(axis=1), vertices) if k else vertices)
    # one tree already where every vertex but 0 has a smaller neighbor, as
    # in the BFS order of a group's Cayley graph on its own generators
    if np.count_nonzero(roots == vertices) > 1:
        # each edge between two trees once, from the larger root
        b = roots.take(neighbors)
        crossing = roots[:, np.newaxis] > b
        a, b = np.repeat(roots, np.count_nonzero(crossing, axis=1)), b[crossing]
        del crossing
        while a.size:
            a, b = _contract(roots, a, b)
        roots = _jump(roots)
    if np.count_nonzero(roots == vertices) == 1:
        members = np.arange(n, dtype=np.int64)
        members.flags.writeable = False
        return [members]
    # roots[v] is the least vertex of v's component
    members = np.argsort(roots, kind="stable").astype(np.int64)
    members.flags.writeable = False
    return np.split(members, np.flatnonzero(np.diff(roots[members])) + 1)


def _jump(roots: np.ndarray) -> np.ndarray:
    """Pointer jumping: roots = roots[roots] until it stops changing, which
    takes every vertex to the root of its tree."""
    while True:
        up = roots[roots]
        if np.array_equal(up, roots):
            return roots
        roots = up


def _contract(roots: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round after the first, in place on ``roots``: each edge joins
    two roots and is listed once, as a -- b with a > b, so each root a
    hooks onto the smallest b next to it, and the edges that still join
    two roots are returned, contracted onto them and listed the same way.
    A root only hooks as an a, onto a root that is an a or stays a root,
    so pointer jumping among the a's alone takes each to its new root.
    The other vertices still point to the roots they had, which a last
    ``_jump`` resolves."""
    np.minimum.at(roots, a, b)
    live = np.zeros(roots.size, dtype=bool)
    live[a] = True
    live = np.flatnonzero(live)
    up = roots[live]
    while True:
        grand = roots[up]
        if np.array_equal(grand, up):
            break
        roots[live] = up = grand
    a, b = roots[a], roots[b]
    crossing = a != b
    a, b = a[crossing], b[crossing]
    return np.maximum(a, b), np.minimum(a, b)


def quotient_check(
    cayley: MultiGraph, schreier: MultiGraph, projection: np.ndarray
) -> bool:
    """True iff the projection carries the Cayley adjacency onto the
    Schreier adjacency with aggregate multiplicity: for every vertex u the
    projected neighbor multiset of u equals the neighbor multiset of
    projection[u].  Both sides are int32 (N, k) tables, each sorted in
    place row by row."""
    proj = np.asarray(projection, dtype=np.int64)
    if proj.shape != (cayley.n_vertices,):
        raise ValueError("projection must assign one Schreier vertex per Cayley vertex")
    if proj.min() < 0 or proj.max() >= schreier.n_vertices:
        raise ValueError("projection value out of range")
    proj = proj.astype(np.int32)  # in range, so below 2^31
    hit = np.zeros(schreier.n_vertices, dtype=bool)
    hit[proj] = True
    if not hit.all():
        raise ValueError("projection is not surjective")
    if cayley.degree != schreier.degree:
        return False
    lhs = proj.take(cayley.neighbors)
    lhs.sort(axis=1)
    rhs = schreier.neighbors.take(proj, axis=0)
    rhs.sort(axis=1)
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


def check_torsion_states(m: int, dim: int, budget: int | None = None) -> int:
    """The m^dim - 1 nonzero vectors of (Z/m)^dim, refused above the element
    budget.  Known before any generator is built, so a schreier-sweep checks
    it first, with the message torsion_action would give.  m^dim - 1 is over
    the budget iff m^dim is over budget + 1, which is checked factor by
    factor, so m^dim is never formed at a huge dim."""
    what = f"torsion_action: {m}^{dim} - 1 states"
    budget = resolve_budget(budget)
    try:
        return check_budget(what, itertools.repeat(m, dim), budget + 1) - 1
    except BudgetExceeded:
        raise BudgetExceeded(what, budget) from None


def torsion_action(gens: GeneratorSet, budget: int | None = None) -> np.ndarray:
    """The (m^n - 1, k) int32 move array of the symmetrized generators
    acting on the nonzero vectors of (Z/m)^n by left multiplication
    x -> s.x: row x lists the images of the torsion point with base-m code
    x + 1, one column per generator.  Refuses to allocate the states above
    the element budget."""
    first = gens.elements[0]
    if first.kind != "matrix" or first.modulus == 0:
        raise ValueError("torsion_action needs matrix generators with positive modulus")
    m, dim = first.modulus, first.dimension
    check_torsion_states(m, dim, budget)
    vecs = _all_nonzero_vectors(dim, m)
    moves = np.empty((len(vecs), gens.k), dtype=np.int32)
    for t, s in enumerate(gens.symmetrized):
        codes = _vector_codes((vecs @ s.data.T) % m, m)
        if (codes == 0).any():
            raise ValueError("generator sends a nonzero vector to zero")
        moves[:, t] = codes - 1
    return moves


def torsion_projection(group: FiniteGroup) -> np.ndarray:
    """Projection q -> index of q^(-1).v0, v0 = (1, 0, ..., 0), from Cayley
    vertices onto torsion Schreier vertices.

    With right-multiplication Cayley edges q -- q*s and left-action Schreier
    moves x -> s.x, the inverse in the projection is what makes edges map to
    edges: (q*s)^(-1).v0 = s^(-1).(q^(-1).v0).
    """
    if group.kind != "matrix" or group.modulus == 0:
        raise ValueError("torsion_projection needs a matrix group with positive modulus")
    m = group.modulus
    w = group.stack[group.inverse_indices(), :, 0] % m  # q^(-1).v0 is q^(-1)'s first column
    return _vector_codes(w, m) - 1


def to_dot(g: MultiGraph) -> str:
    """GraphViz text for small graphs; hard-capped at 500 vertices."""
    if g.n_vertices > DOT_VERTEX_LIMIT:
        raise ValueError(
            f"DOT export limited to {DOT_VERTEX_LIMIT} vertices, graph has {g.n_vertices}"
        )
    lines = [f'graph "{g.label or "multigraph"}" {{']
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
    ascending and delta-encoded as unsigned LEB128 varints.  Each delta's
    seven-bit groups are written one group at a time into a row of an
    (N*k, w) uint8 matrix, w the widest varint, and the first width bytes
    of every row, read in row order, are the varint stream: no temporary
    wider than the uint32 deltas."""
    deltas = g.neighbors.astype(np.uint32)  # ids lie below 2^31
    deltas.sort(axis=1)
    np.subtract(deltas[:, 1:], deltas[:, :-1], out=deltas[:, 1:])
    deltas = deltas.ravel()
    # each delta as 1 to 5 seven-bit groups, least significant first, with
    # the high bit set on every group but the last
    widths = np.ones(deltas.size, dtype=np.uint8)
    for t in range(1, 5):
        widths += deltas >= 1 << (7 * t)
    w = int(widths.max(initial=0))
    groups = np.empty((deltas.size, w), dtype=np.uint8)
    shifted = np.empty_like(deltas)
    for t in range(w):
        np.right_shift(deltas, 7 * t, out=shifted)
        shifted &= 0x7F
        np.bitwise_or(shifted, 0x80, out=shifted, where=widths > t + 1)
        groups[:, t] = shifted
    del deltas, shifted
    body = groups[np.arange(w) < widths[:, np.newaxis]]
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(np.array([g.n_vertices, g.degree], dtype="<u4").tobytes())
        fh.write(body)


def load_graph(path, label: str = "") -> MultiGraph:
    """Inverse of save_graph.  A malformed dump (truncated, trailing bytes,
    a varint longer than 5 bytes, neighbor out of range) raises ValueError,
    and the header is checked against the file length before anything it
    sizes is allocated.  Like the writer, the reader decodes one seven-bit
    group at a time: group t of every varint is read at its first byte's
    position, offset by t, with no position array, and the groups past a
    varint's width are masked off.  The file's bytes and the decode arrays
    are dropped before ``MultiGraph`` checks the table."""
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
    deltas = np.zeros(0, dtype=np.uint32)
    if n * k:
        # the widths, cast straight to uint8: a width that wraps is smaller
        # than it was, so the widths sum to the body's length only if none
        # wrapped
        widths = np.empty(n * k, dtype=np.uint8)
        np.add(ends[:1], 1, out=widths[:1], casting="unsafe")
        np.subtract(ends[1:], ends[:-1], out=widths[1:], casting="unsafe")
        groups = int(widths.max())
        if groups > 5 or int(widths.sum(dtype=np.int64)) != used:
            raise ValueError("graph dump holds a varint longer than 5 bytes")
        starts = ends  # in place: the first byte of each varint
        starts -= widths
        starts += 1
        # four groups fill 28 bits; a fifth needs 35
        deltas = np.zeros(n * k, dtype=np.uint32 if groups < 5 else np.uint64)
        for t in range(groups):
            # body[t:][start] is byte t of the varint at start; past the
            # body's end it is clipped, and past the width masked off
            group = body[t:].take(starts, mode="clip")
            group &= 0x7F
            group[widths <= t] = 0
            deltas |= np.left_shift(group, 7 * t, dtype=deltas.dtype)
        del starts, ends, widths, group
    del data, body
    deltas = deltas.reshape(n, k)
    # deltas are >= 0, so a row's sum is its largest neighbor; summed in
    # int64 before the narrow cumsum could wrap
    if deltas.size:
        top = int(deltas.sum(axis=1, dtype=np.int64).max())
        if top >= n:
            raise ValueError(f"graph dump neighbor {top} out of range for {n} vertices")
    nbrs = np.cumsum(deltas, axis=1, out=deltas)
    return MultiGraph(nbrs, label=label)
