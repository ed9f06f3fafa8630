"""Breadth-first enumeration of finite groups from generator sets.

One engine, ``_bfs``, does every keyed orbit search: a layered BFS from one
point under k moves, each layer a stacked numpy array mapped a batch of
moves at a time.  It returns the orbit with its (N, k) int32 move table,
the index of every point's image under every move, which it learns while
deduplicating.  ``bfs_closure`` runs it on the identity under right
multiplication, max(1, min(k, CHUNK // F)) generators per batch on a layer
of F elements, and keeps the table as the group's ``moves``: the Cayley
graph of the group's own generators is that table, with no product formed
twice.  ``matrix_group_order`` runs it on the basis rows of its stabilizer
chain, all generators per batch.  Both callers' moves are closed under
inversion, and the engine is told each move's inverse, so an edge x*s = y
found into the next layer also gives y*s^(-1) = x, which is not
multiplied out or searched again.

A group's elements are stored in the narrowest signed integer dtype that
holds 0..m-1 (or 0..d-1 for permutations of d points): int8 for SL2(F_p)
with p <= 127 and for S_d with d <= 128.  Products are formed in int64 and
reduced mod m straight into that dtype.  The BFS tree's parents are int32
and its steps the narrowest dtype that holds k - 1.  Every point
has one key: an element's is its mixed-radix int64 code (the base-m digits
of a matrix's entries, or the base-d digits of a permutation's images);
where m^(n^2) or d^d does not fit below 2^63, or the modulus is 0, the key
is the element's bytes encoding in an object array.
Both kinds go through the same np.argsort / np.searchsorted code
(``first_occurrences`` dedupes a batch), so deduplication, index lookup,
Cayley neighbor tables and inverses are whole-array operations with no
per-element Python work on the int64 path.
That is what makes SL2(F_p) for p ~ 100 (order ~10^6) a matter of seconds
at desk scale.

Inside an enumerated group, ``closure_orders`` gives the orders of the
subgroups that a batch of generator sets generate, closing every set of
the batch in one whole-array BFS over a (sets x elements) boolean array;
the Epi(F_n, G) scan closes each chunk's distinct sets in one call, and the
census closes one set per move-graph component in one call.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .elements import (
    PERMUTATION,
    GroupElement,
    _check_composable,
    encode_matrix,
    encode_permutation,
    identity_like,
    inverse,
    multiply,
)

DEFAULT_ELEMENT_BUDGET = 2_000_000
BUDGET_ENV_VAR = "THINLAB_BUDGET"
MULTIPLICATION_TABLE_ENTRIES = 4_000_000
# entries per whole-array step of bfs_closure, matrix_group_order's orbit
# batches, closure_orders, the pra module, MultiGraph's symmetry check and
# the Lanczos residual
CHUNK = 1 << 16


class BudgetExceeded(RuntimeError):
    """A size check refused work above a limit, before doing it.

    ``what`` names where and what was counted, with its unit; the message
    adds the limit, and ``budget`` carries it."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} over the limit of {budget}")
        self.budget = budget


def check_budget(what: str, factors: Iterable[int], budget: int) -> int:
    """The product of ``factors``, refused with BudgetExceeded(what,
    budget) as soon as a partial product passes ``budget``.  No factor
    after the crossing is read, so a closed-form size such as d! or |G|^n
    is checked without computing it; nonnegative factors are assumed."""
    product = 1
    for factor in factors:
        product *= factor
        if product > budget:
            raise BudgetExceeded(what, budget)
    return product


def resolve_budget(budget: int | None = None, default: int = DEFAULT_ELEMENT_BUDGET) -> int:
    """Explicit argument wins, then THINLAB_BUDGET, then the default."""
    if budget is not None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return default
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {env!r}")
    return value


@dataclass
class GeneratorSet:
    """Listed generators plus the inversion-closed symmetrized multiset.

    Every generator contributes itself and its inverse, involutions
    included, so the multiset always has size 2 * len(elements) and every
    Cayley graph built from it is exactly 2r-regular.
    """

    elements: Sequence[GroupElement]
    label: str = ""
    symmetrized: tuple[GroupElement, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.elements = tuple(self.elements)
        if not self.elements:
            raise ValueError("generator set must be nonempty")
        for g in self.elements[1:]:
            _check_composable(self.elements[0], g)
        self.symmetrized = self.elements + tuple(inverse(g) for g in self.elements)

    @property
    def k(self) -> int:
        return len(self.symmetrized)

    def identity(self) -> GroupElement:
        return identity_like(self.elements[0])

    def inverse_positions(self) -> np.ndarray:
        """inv[t] is the position of symmetrized[t]'s inverse: t + r mod 2r
        for r listed generators."""
        return (np.arange(self.k) + self.k // 2) % self.k


@lru_cache
def _narrowest(top: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -1..top."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)


def _base(kind: str, shape: tuple[int, ...], modulus: int) -> int:
    """The number of values an entry takes: the degree d of a permutation,
    the modulus m of a matrix (0 for exact integer matrices)."""
    return shape[0] if kind == PERMUTATION else modulus


def _batch_multiply(kind: str, modulus: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Products of stacked elements, row by row: either side is one element
    or a stack (one more axis than an element), and two stacks broadcast.

    Permutations compose as (a*b)(x) = a(b(x)), so a stack on the left
    fancy-indexes its image rows, a stack on the right is looked up in the
    single element's images, and two stacks take along their last axis; the
    images keep the left side's dtype.  Matrices: batched matmul in int64,
    reduced mod m into the narrowest dtype that holds 0..m-1 in the same
    pass, or exact object arithmetic where the modulus is 0.
    """
    if kind == PERMUTATION:
        if left.ndim == right.ndim:
            return np.take_along_axis(left, right, axis=-1)
        return left[:, right] if left.ndim == 2 else left[right]
    if not modulus:
        return np.matmul(left, right)
    prods = np.matmul(left, right, dtype=np.int64)
    narrow = np.empty(prods.shape, dtype=_narrowest(modulus - 1))
    return np.remainder(prods, modulus, out=narrow, casting="unsafe")


def _key_powers(kind: str, shape: tuple[int, ...], modulus: int) -> np.ndarray | None:
    """Radix powers of the int64 element code, or None where there is none.

    The code is the mixed-radix number whose base-m digits are a matrix's
    entries (row-major, least significant first), or whose base-d digits are
    a permutation's images.  It needs m^(n^2) or d^d below 2^63, and a
    positive modulus.
    """
    base = _base(kind, shape, modulus)
    digits = int(np.prod(shape))
    if base == 0 or base**digits >= 2**63:
        return None
    return base ** np.arange(digits, dtype=np.int64)


def _encode(data: np.ndarray, kind: str, modulus: int) -> bytes:
    """The element's bytes encoding, as GroupElement.encoding."""
    return encode_permutation(data) if kind == PERMUTATION else encode_matrix(data, modulus)


def _keys(stack: np.ndarray, kind: str, modulus: int, powers: np.ndarray | None) -> np.ndarray:
    """One sortable key per stacked element: the int64 code, or, where
    ``powers`` is None, the element's bytes encoding in an object array."""
    if powers is not None:
        return stack.reshape(stack.shape[0], -1) @ powers
    keys = np.empty(stack.shape[0], dtype=object)
    keys[:] = [_encode(row, kind, modulus) for row in stack]
    return keys


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` in the nonempty ``sorted_keys`` and a mask of
    the keys that are there."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.shape[0] - 1)
    return pos, sorted_keys[pos] == keys


def first_occurrences(keys: np.ndarray, return_inverse: bool = False) -> tuple[np.ndarray, ...]:
    """The sorted distinct keys and the index of each one's first
    occurrence, and with ``return_inverse`` the position of each key among
    the distinct ones: exactly ``np.unique(keys, return_index=True,
    return_inverse=...)``, but from the default argsort rather than a
    stable one.  Equal keys form runs in the sorted order, and a run's
    smallest original index is its first occurrence."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.ones(keys.shape[0], dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    heads = np.flatnonzero(new)
    found = ordered[heads], np.minimum.reduceat(order, heads)
    if not return_inverse:
        return found
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return (*found, inverse)


class FiniteGroup:
    """A fully enumerated group: elements in BFS discovery order, index 0
    the identity, plus the BFS tree that found them and its move table.

    The elements' keys, sorted, with the index of each, are the one
    membership structure: every lookup is a ``searchsorted`` against them.
    ``moves`` is the read-only (N, k) int32 table of right multiplication
    by the symmetrized generators: moves[i, t] is the index of
    element(i) * symmetrized[t].  ``stack`` holds the elements in the
    narrowest integer dtype their entries fit (see the module docstring);
    ``element`` gives each back as int64 data.
    """

    def __init__(
        self,
        gens: GeneratorSet,
        stack: np.ndarray,
        sorted_keys: np.ndarray,
        key_index: np.ndarray,
        parents: np.ndarray,
        steps: np.ndarray,
        moves: np.ndarray,
        layer_starts: tuple[int, ...],
    ):
        e = gens.identity()
        self.kind = e.kind
        self.modulus = e.modulus
        self.label = gens.label
        self.stack = stack
        self.stack.flags.writeable = False
        self._powers = _key_powers(self.kind, e.data.shape, self.modulus)
        self._sorted_keys = sorted_keys
        self._key_index = key_index
        self.symmetrized = gens.symmetrized
        self._inverse_moves = gens.inverse_positions()
        self.moves = moves
        self.moves.flags.writeable = False
        # element i = element(parents[i]) * symmetrized[steps[i]], layer by layer
        self._parents = parents
        self._steps = steps
        self._layer_starts = layer_starts
        self.generator_indices = tuple(self.index_of(g) for g in gens.elements)
        self._mul_table: np.ndarray | None = None
        self._inv_indices: np.ndarray | None = None

    @property
    def order(self) -> int:
        return self.stack.shape[0]

    def __len__(self) -> int:
        return self.order

    def element(self, i: int) -> GroupElement:
        row = self.stack[i]
        data = np.array(row) if row.dtype == object else row.astype(np.int64)
        return GroupElement(self.kind, data, self.modulus)

    def elements(self) -> Iterator[GroupElement]:
        for i in range(self.order):
            yield self.element(i)

    def encoding(self, i: int) -> bytes:
        """element(i).encoding, without building the element."""
        return _encode(self.stack[i], self.kind, self.modulus)

    def _lookup(self, stack: np.ndarray) -> np.ndarray:
        """Indices of stacked elements, -1 for those not in the group."""
        keys = _keys(stack, self.kind, self.modulus, self._powers)
        order = np.argsort(keys)  # searchsorted is several times faster on sorted queries
        pos, found = _find(self._sorted_keys, keys[order])
        idx = np.empty_like(order)
        idx[order] = np.where(found, self._key_index[pos], -1)
        return idx

    def indices(self, stack: np.ndarray) -> np.ndarray:
        """Indices of stacked elements, all of which must be in the group."""
        idx = self._lookup(stack)
        if (idx < 0).any():
            raise ValueError(f"{int((idx < 0).sum())} products are not in the group")
        return idx.astype(np.int32)

    def _position(self, g: GroupElement) -> int:
        if g.kind != self.kind or g.modulus != self.modulus or g.data.shape != self.stack.shape[1:]:
            return -1
        return int(self._lookup(g.data[np.newaxis])[0])

    def index_of(self, g: GroupElement) -> int:
        i = self._position(g)
        if i < 0:
            raise ValueError(f"element not in group: {g!r}")
        return i

    def __contains__(self, g: GroupElement) -> bool:
        return isinstance(g, GroupElement) and self._position(g) >= 0

    def right_multiplication_indices(self, s: GroupElement) -> np.ndarray:
        """Index array of q -> q*s over all elements q, in one batch."""
        return self.indices(_batch_multiply(self.kind, self.modulus, self.stack, s.data))

    def conjugation_indices(self, s: GroupElement) -> np.ndarray:
        """Index array of q -> s*q*s^(-1) over all elements q, in one batch."""
        q_s_inv = _batch_multiply(self.kind, self.modulus, self.stack, inverse(s).data)
        return self.indices(_batch_multiply(self.kind, self.modulus, s.data, q_s_inv))

    def multiplication_table(self) -> np.ndarray:
        """Full N x N index table, refused above MULTIPLICATION_TABLE_ENTRIES
        entries."""
        check_budget(
            f"multiplication table of {self.order}^2 entries",
            (self.order, self.order),
            MULTIPLICATION_TABLE_ENTRIES,
        )
        if self._mul_table is None:
            cols = [
                self.right_multiplication_indices(self.element(j))
                for j in range(self.order)
            ]
            self._mul_table = np.stack(cols, axis=1)
        return self._mul_table

    def inverse_indices(self) -> np.ndarray:
        """inv[i] = index of element(i)^(-1), propagated down the BFS tree
        in one batch per layer: the inverse of q*s is s^(-1) * q^(-1)."""
        if self._inv_indices is None:
            inv = np.zeros(self.order, dtype=np.int32)
            s_inv = np.stack([s.data for s in self.symmetrized]).take(self._inverse_moves, axis=0)
            for a, b in zip(self._layer_starts[1:], self._layer_starts[2:]):
                q_inv = self.stack.take(inv.take(self._parents[a:b]), axis=0)
                s_step = s_inv.take(self._steps[a:b], axis=0)
                prods = _batch_multiply(self.kind, self.modulus, s_step, q_inv)
                inv[a:b] = self.indices(prods)
            self._inv_indices = inv
        return self._inv_indices

    def mul(self, i: int, j: int) -> int:
        """Index of element(i) * element(j), multiplied out: the table's oracle."""
        return self.index_of(multiply(self.element(i), self.element(j)))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, kind={self.kind}, label={self.label!r})"


def _bfs(
    start: np.ndarray,
    act: Callable,
    key: Callable,
    k: int,
    chunk: int | None,
    budget: int,
    what: str,
    inverse_moves: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Breadth-first orbit of the one-point stack ``start`` under k moves.

    ``act(rows, moves)`` maps each point rows[i] under move moves[i] (the
    moves come in nondecreasing order), and ``key(rows)`` gives one
    sortable key per point.  Move ``inverse_moves[t]`` undoes move t, so
    each edge into the next layer is looked up once: x under move t is y
    gives y under move inverse_moves[t] is x, and that entry of the next
    layer's table is filled in advance.  A layer of F points is taken
    max(1, min(k, chunk // F)) moves at a time, or all k at once where
    ``chunk`` is None, and a batch maps the (move, point) slots of its
    moves whose image is not known yet, move-major, in one ``act`` call.
    Every edge back into the previous layer is one of those filled in
    advance, so an unknown slot's image lies in this layer or the next:
    of a batch's images, the first occurrence of each key is new unless
    this layer or an earlier batch of this layer holds it, so within a
    layer points are found move-major, then in parent order, whatever the
    batch; the slots skipped all lead into the previous layer, so they do
    not change that order.  New points are counted against ``budget``
    (BudgetExceeded(what)) before they are kept.  Next to the sorted keys
    of this layer runs the index of each, so every image's index is known
    as soon as its batch is deduped: a new image gets its discovery
    index, a known one the stored index.  The keys of all layers are
    sorted once, at the end.

    Returns the points in discovery order, their keys sorted and the index
    of each, their int32 parents and narrow steps (point i is point
    parents[i] under move steps[i]), the (N, k) int32 move table (row x
    holds the index of x's image under each move) and the layer starts.
    """
    step_dtype = _narrowest(k - 1)
    frontier = start
    root = np.array([-1])
    points, parents, steps, tables = [start], [root.astype(np.int32)], [root.astype(step_dtype)], []
    starts, count = [0, 1], 1
    # the sorted keys of this layer, and the index of each; and those of
    # every layer, in layer order
    layer, layer_at = key(start), np.zeros(1, dtype=np.int32)
    keys, keys_at = [layer], [layer_at]
    # the layer's table, move-major: cols[t, x] is the index of point x's
    # image under move t, -1 until it is known
    cols = np.full((k, 1), -1, dtype=np.int32)

    while True:
        f = frontier.shape[0]
        flat = cols.reshape(-1)
        batch = k if chunk is None else max(1, min(k, chunk // f))
        rows, fresh = [], []  # fresh: the sorted keys new in this layer, with their indices
        for j in range(0, k, batch):
            # the (move, point) slots still unknown, move-major
            slots = np.flatnonzero(flat[j * f : min(j + batch, k) * f] < 0) + j * f
            if not slots.size:
                continue
            move, point = np.divmod(slots, f)
            images = act(frontier.take(point, axis=0), move)
            uniq, first, inverse = first_occurrences(key(images), return_inverse=True)
            # the index of each distinct image; the key arrays searched are
            # disjoint, so each one searches only what the earlier ones lack
            pos, found = _find(layer, uniq)
            at = np.where(found, layer_at[pos], -1)
            new = np.flatnonzero(~found)
            for earlier, earlier_at in fresh:
                pos, found = _find(earlier, uniq[new])
                at[new[found]] = earlier_at[pos[found]]
                new = new[~found]
            if count + new.size > budget:
                raise BudgetExceeded(what, budget)
            if new.size:
                in_order = new[np.argsort(first[new])]  # the new images, in discovery order
                at[in_order] = np.arange(count, count + new.size)
                taken = first[in_order]  # their first positions among the images
                fresh.append((uniq[new], at[new]))
                rows.append(images.take(taken, axis=0))
                parents.append((starts[-2] + point[taken]).astype(np.int32))
                steps.append(move[taken].astype(step_dtype))
                count += new.size
            flat[slots] = at[inverse]
        tables.append(cols.T)
        if not rows:
            break
        frontier = np.concatenate(rows)
        nxt = np.full((k, frontier.shape[0]), -1, dtype=np.int32)
        ahead = np.flatnonzero(flat >= starts[-1])  # the slots whose image is in the next layer
        t, x = np.divmod(ahead, f)
        nxt[inverse_moves[t], flat[ahead] - starts[-1]] = starts[-2] + x
        cols = nxt
        points.append(frontier)
        starts.append(count)
        # a stable sort is a timsort here: it merges the batches' sorted runs
        fresh_keys, fresh_at = zip(*fresh)
        layer = np.concatenate(fresh_keys)
        by_key = np.argsort(layer, kind="stable")
        layer, layer_at = layer[by_key], np.concatenate(fresh_at)[by_key]
        keys.append(layer)
        keys_at.append(layer_at)

    # joined one list at a time, so only one is ever held twice; each
    # layer's keys are a sorted run, which the stable sort merges
    seen = np.concatenate(keys)
    del keys
    by_key = np.argsort(seen, kind="stable")
    seen, seen_at = seen[by_key], np.concatenate(keys_at)[by_key]
    del keys_at, by_key
    points = np.concatenate(points)
    tables = np.concatenate(tables)
    parents = np.concatenate(parents)
    steps = np.concatenate(steps)
    return points, seen, seen_at, parents, steps, tables, tuple(starts)


def bfs_closure(gens: GeneratorSet, budget: int | None = None) -> FiniteGroup:
    """Enumerate the subgroup generated by ``gens`` breadth-first from the
    identity, aborting with BudgetExceeded above the element budget.

    The orbit of the identity under right multiplication by the symmetrized
    generators.  A layer of F elements is multiplied by max(1, min(k,
    CHUNK // F)) generators at a time, so small layers take all k at once
    and the peak is about one frontier of products; new elements are
    counted before they are kept.  The BFS's move table is the group's
    ``moves``, which ``cayley_graph`` reads.  Each edge into the next layer
    is multiplied out once, from its end in the earlier layer (see
    ``_bfs``).  The elements are stored in the
    narrowest dtype their entries fit, except exact integer matrices
    (modulus 0), which stay object arrays.
    """
    e = gens.identity()
    kind, modulus = e.kind, e.modulus
    powers = _key_powers(kind, e.data.shape, modulus)
    sym = [s.data for s in gens.symmetrized]
    start = e.data[np.newaxis]
    base = _base(kind, e.data.shape, modulus)
    if base:
        start = start.astype(_narrowest(base - 1))

    def act(rows: np.ndarray, moves: np.ndarray) -> np.ndarray:
        # one product per run of equal moves, with no generator copied per row
        runs = [0, *(np.flatnonzero(moves[1:] != moves[:-1]) + 1).tolist(), moves.size]
        parts = [_batch_multiply(kind, modulus, rows[a:b], sym[moves[a]]) for a, b in zip(runs, runs[1:])]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def key(rows: np.ndarray) -> np.ndarray:
        return _keys(rows, kind, modulus, powers)

    budget = resolve_budget(budget)
    found = _bfs(start, act, key, gens.k, CHUNK, budget, "bfs_closure: elements", gens.inverse_positions())
    return FiniteGroup(gens, *found)


def check_vector_keys(m: int, n: int) -> int:
    """The m^n vector keys ``matrix_group_order`` codes as int64, refused at
    2^63; a ``pointpush`` prime checks it before any matrix is built."""
    what = f"matrix_group_order: {m}^{n} vector keys"
    return check_budget(what, (m for _ in range(n)), 2**63 - 1)


def matrix_group_order(gens: GeneratorSet, budget: int | None = None) -> int:
    """Order of the group of matrices mod m that ``gens`` generate, from an
    exact stabilizer chain along the basis rows e_0, ..., e_(n-1), without
    enumerating the group.

    |G| is the product of the orbit sizes along the chain.  At each base
    point the orbit of e_i under the current generators comes with a
    transversal u; by Schreier's lemma the products u_x * s * u_(x*s)^(-1),
    formed in one batch, deduplicated by key and with the identity dropped,
    generate the stabilizer of e_i, the next level's group.  A matrix that
    fixes every basis row is the identity, so the chain ends at the last
    base point, or earlier once no generator is left.  Each level's
    generators stay inversion-closed: the product for (x, s) is inverted by
    the one for (x*s, s^(-1)), so no matrix is ever inverted here.

    The orbit is ``_bfs`` on e_i, all generators per batch, told each
    generator's inverse; a batch copies the generators it multiplies by a
    block of at most CHUNK matrix entries at a time.  The transversal
    follows its BFS tree, and its move table gives the position of each
    x*s.  Checked against the element budget before they are formed: the
    n entries of each vector of every orbit batch (the slots of a layer
    not already known from the one before), and each level's |orbit| *
    |generators| Schreier products; each orbit's points are checked
    before they are kept.  Vector keys need m^n below 2^63.
    ``bfs_closure(gens).order`` is the independent oracle.
    """
    e = gens.identity()
    if e.kind != "matrix" or not e.modulus:
        raise ValueError("matrix_group_order needs matrices mod a positive modulus")
    budget = resolve_budget(budget)
    m, n = e.modulus, e.dimension
    check_vector_keys(m, n)
    vector_powers = m ** np.arange(n, dtype=np.int64)
    powers = _key_powers("matrix", (n, n), m)
    identity_key = _keys(e.data[np.newaxis], "matrix", m, powers)[0]

    level = np.stack([s.data for s in gens.symmetrized])
    inv = gens.inverse_positions()  # level[inv[j]] is level[j]^(-1)
    order = 1
    for base in range(n):
        k = level.shape[0]

        def act(rows: np.ndarray, moves: np.ndarray) -> np.ndarray:
            what = f"matrix_group_order: orbit product entries at base point {base}"
            check_budget(what, rows.shape, budget)
            # each point's generator is copied to multiply it, so a block of
            # points at a time: at most CHUNK matrix entries are copied at once
            block = max(1, CHUNK // (n * n))
            parts = [
                np.matmul(rows[a : a + block, np.newaxis], level.take(moves[a : a + block], axis=0))[:, 0] % m
                for a in range(0, rows.shape[0], block)
            ]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        what = f"matrix_group_order: orbit points at base point {base}"
        # moved[x, j]: the orbit position of point x times generator j
        points, _, _, parents, steps, moved, starts = _bfs(
            e.data[base][np.newaxis], act, lambda rows: rows @ vector_powers, k, None, budget, what, inv
        )
        order *= points.shape[0]
        if base == n - 1:
            break
        what = f"matrix_group_order: Schreier products at base point {base}"
        check_budget(what, (points.shape[0], k), budget)
        # the transversal, down the BFS tree: e_base * u[x] = point x
        u = np.empty((points.shape[0], n, n), dtype=np.int64)
        u_inv = np.empty_like(u)
        u[0] = u_inv[0] = np.eye(n, dtype=np.int64) % m
        for a, b in zip(starts[1:], starts[2:]):
            up, step = parents[a:b], steps[a:b]
            u[a:b] = np.matmul(u.take(up, axis=0), level.take(step, axis=0)) % m
            u_inv[a:b] = np.matmul(level.take(inv[step], axis=0), u_inv.take(up, axis=0)) % m
        prods = np.matmul(np.matmul(u[:, np.newaxis], level) % m, u_inv.take(moved, axis=0)) % m
        prods = prods.reshape(-1, n, n)
        keys = _keys(prods, "matrix", m, powers)
        uniq, first = first_occurrences(keys)
        kept = uniq != identity_key
        uniq, first = uniq[kept], first[kept]
        if not first.size:
            break
        x, j = np.divmod(first, k)
        inv = _find(uniq, keys[moved[x, j].astype(np.int64) * k + inv[j]])[0]
        level = prods.take(first, axis=0)
    return order


def closure_orders(columns: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Orders of the subgroups that B generator sets inside an enumerated
    group generate.  ``columns`` is an N x M array of right-multiplication
    index columns, and row b of the B x k array ``sets`` names set b's
    columns.  Each order is the size of the identity's (index 0's) orbit;
    the group is finite, so no inverse columns are needed.

    All the sets are closed in one BFS over a B x N boolean ``seen`` array.
    The frontier is held as its (set, element) pairs b, x: the nonzero
    entries of a boolean frontier, without the B x N array.  A layer marks
    seen[b, columns[x, sets[b, s]]] one slot s at a time, and the pairs it
    newly marks are the next frontier.  Right multiplication by one element
    is a bijection, so a slot's images are distinct, and a pair two slots
    reach is new only to the first.  The work is the subgroups' orders
    times k, with no (B, N, k) array.  The sets go through in sub-batches
    of max(1, CHUNK // N) rows, so ``seen`` and the frontier stay within
    about CHUNK entries."""
    n = columns.shape[0]
    orders = np.empty(sets.shape[0], dtype=np.int64)
    rows = max(1, CHUNK // n)
    for lo in range(0, sets.shape[0], rows):
        part = sets[lo : lo + rows]
        seen = np.zeros(part.shape[0] * n, dtype=bool)  # row-major B x N
        b = np.arange(part.shape[0])
        x = np.zeros_like(b)
        seen[b * n] = True
        while b.size:
            new_b, new_x = [], []
            for slot in part.T:
                y = columns[x, slot[b]]
                flat = b * n + y
                new = ~seen[flat]
                seen[flat[new]] = True
                new_b.append(b[new])
                new_x.append(y[new])
            b, x = np.concatenate(new_b), np.concatenate(new_x)
        orders[lo : lo + part.shape[0]] = np.count_nonzero(seen.reshape(-1, n), axis=1)
    return orders


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p: the
    least r with r^((p - 1) / q) != 1 for every prime q dividing p - 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    factors, rest, q = [], p - 1, 2
    while q * q <= rest:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        factors.append(rest)
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in factors))


def sp_order_factors(g: int, p: int) -> Iterator[int]:
    """|Sp_2g(F_p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1), as lazy factors."""
    powers = (p for _ in range(g * g))
    return itertools.chain(powers, (p ** (2 * i) - 1 for i in range(1, g + 1)))


def sp_order(g: int, p: int) -> int:
    """|Sp_2g(F_p)|, exact: the product of ``sp_order_factors``."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return math.prod(sp_order_factors(g, p))


def sl2_generators(modulus: int) -> GeneratorSet:
    """The standard pair T = [[1,1],[0,1]], S = [[0,-1],[1,0]]."""
    T = GroupElement.matrix([[1, 1], [0, 1]], modulus)
    S = GroupElement.matrix([[0, -1], [1, 0]], modulus)
    return GeneratorSet([T, S], label=f"sl2(mod {modulus})" if modulus else "sl2(Z)")


def cyclic_generators(n: int) -> GeneratorSet:
    """Z/nZ as the shift permutation on n points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = GroupElement.permutation([(i + 1) % n for i in range(n)])
    return GeneratorSet([shift], label=f"Z{n}")


def symmetric_generators(d: int) -> GeneratorSet:
    """S_d from a transposition and a d-cycle."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return GeneratorSet([GroupElement.permutation([0])], label="S1")
    cycle = GroupElement.permutation([(i + 1) % d for i in range(d)])
    swap = GroupElement.permutation([1, 0] + list(range(2, d)))
    return GeneratorSet([swap, cycle], label=f"S{d}")


def direct_product_of_cyclic(orders: Sequence[int]) -> GeneratorSet:
    """Z/n1 x ... x Z/nk as block shift permutations on disjoint points."""
    if not orders or any(n < 1 for n in orders):
        raise ValueError("orders must be positive")
    total = sum(orders)
    gens = []
    offset = 0
    for n in orders:
        images = list(range(total))
        for i in range(n):
            images[offset + i] = offset + (i + 1) % n
        gens.append(GroupElement.permutation(images))
        offset += n
    label = "x".join(f"Z{n}" for n in orders)
    return GeneratorSet(gens, label=label)
