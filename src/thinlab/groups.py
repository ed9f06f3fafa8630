"""Breadth-first enumeration of finite groups from generator sets.

The enumeration is layered: each BFS layer is a stacked numpy array of
elements, multiplied against one symmetrized generator at a time in a
batched operation.  Every element has one key, its mixed-radix int64 code
(the base-m digits of a matrix's entries, or the base-d digits of a
permutation's images); where m^(n^2) or d^d does not fit below 2^63, or the
modulus is 0, the key is the element's bytes encoding in an object array.
Both kinds go through the same np.unique / np.sort / np.searchsorted code,
so deduplication, index lookup, Cayley neighbor tables and inverses are
whole-array operations with no per-element Python work on the int64 path.
That is what makes SL2(F_p) for p ~ 100 (order ~10^6) a matter of seconds
at desk scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .elements import (
    MATRIX,
    PERMUTATION,
    GroupElement,
    encode_matrix,
    encode_permutation,
    identity_like,
    inverse,
    multiply,
)

DEFAULT_ELEMENT_BUDGET = 2_000_000
BUDGET_ENV_VAR = "THINLAB_BUDGET"


class BudgetExceeded(RuntimeError):
    """Enumeration crossed the element budget; carries the partial count."""

    def __init__(self, partial_count: int, budget: int, what: str = "enumeration"):
        super().__init__(
            f"{what} exceeded budget: {partial_count} elements seen, budget {budget}"
        )
        self.partial_count = partial_count
        self.budget = budget


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
        first = self.elements[0]
        for g in self.elements[1:]:
            if (
                g.kind != first.kind
                or (g.kind == PERMUTATION and g.degree != first.degree)
                or (g.kind == MATRIX and (g.modulus != first.modulus or g.dimension != first.dimension))
            ):
                raise ValueError("generators are not mutually composable")
        self.symmetrized = self.elements + tuple(inverse(g) for g in self.elements)

    @property
    def k(self) -> int:
        return len(self.symmetrized)

    def identity(self) -> GroupElement:
        return identity_like(self.elements[0])


def _batch_multiply(kind: str, modulus: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Products of a stack of elements with one element, on either side.

    Exactly one of ``left``/``right`` is a stack (one more axis than an
    element).  Permutations compose as (a*b)(x) = a(b(x)), so a stack on the
    left fancy-indexes its image rows and a stack on the right is looked up
    in the single element's images.  Matrices: batched matmul, reduced mod m
    unless the modulus is 0 (exact object arithmetic).
    """
    if kind == PERMUTATION:
        return left[:, right] if left.ndim == 2 else left[right]
    prods = np.matmul(left, right)
    return prods % modulus if modulus else prods


def _key_powers(kind: str, shape: tuple[int, ...], modulus: int) -> np.ndarray | None:
    """Radix powers of the int64 element code, or None where there is none.

    The code is the mixed-radix number whose base-m digits are a matrix's
    entries (row-major, least significant first), or whose base-d digits are
    a permutation's images.  It needs m^(n^2) or d^d below 2^63, and a
    positive modulus.
    """
    base = shape[0] if kind == PERMUTATION else modulus
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


class FiniteGroup:
    """A fully enumerated group: elements in BFS discovery order, index 0
    the identity, plus the BFS tree that found them.

    The elements' keys, sorted, with the index of each, are the one
    membership structure: every lookup is a ``searchsorted`` against them.
    """

    def __init__(
        self,
        gens: GeneratorSet,
        stack: np.ndarray,
        keys: np.ndarray,
        parents: np.ndarray,
        steps: np.ndarray,
        layer_starts: tuple[int, ...],
    ):
        e = gens.identity()
        self.kind = e.kind
        self.modulus = e.modulus
        self.label = gens.label
        self.stack = stack
        self.stack.flags.writeable = False
        self._powers = _key_powers(self.kind, e.data.shape, self.modulus)
        self._key_index = np.argsort(keys)
        self._sorted_keys = keys[self._key_index]
        # element i = element(parents[i]) * symmetrized[steps[i]], layer by layer
        self._symmetrized = gens.symmetrized
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
        return GroupElement(self.kind, np.array(self.stack[i]), self.modulus)

    def elements(self) -> Iterator[GroupElement]:
        for i in range(self.order):
            yield self.element(i)

    def encoding(self, i: int) -> bytes:
        """element(i).encoding, without building the element."""
        return _encode(self.stack[i], self.kind, self.modulus)

    def _lookup(self, stack: np.ndarray) -> np.ndarray:
        """Indices of stacked elements, -1 for those not in the group."""
        pos, found = _find(self._sorted_keys, _keys(stack, self.kind, self.modulus, self._powers))
        return np.where(found, self._key_index[pos], -1)

    def _indices(self, stack: np.ndarray) -> np.ndarray:
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
        return self._indices(_batch_multiply(self.kind, self.modulus, self.stack, s.data))

    def multiplication_table(self, max_entries: int = 4_000_000) -> np.ndarray:
        """Full N x N index table; only sensible for small groups."""
        if self.order**2 > max_entries:
            raise ValueError(
                f"multiplication table would need {self.order ** 2} entries"
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
        one layer at a time: the inverse of q*s is s^(-1) * q^(-1)."""
        if self._inv_indices is None:
            inv = np.zeros(self.order, dtype=np.int32)
            s_inv = [inverse(s).data for s in self._symmetrized]
            starts = self._layer_starts
            for a, b in zip(starts[1:], starts[2:]):
                for j in range(len(s_inv)):
                    sel = a + np.flatnonzero(self._steps[a:b] == j)
                    if sel.size:
                        q_inv = self.stack[inv[self._parents[sel]]]
                        prods = _batch_multiply(self.kind, self.modulus, s_inv[j], q_inv)
                        inv[sel] = self._indices(prods)
            self._inv_indices = inv
        return self._inv_indices

    def mul(self, i: int, j: int) -> int:
        if self._mul_table is not None:
            return int(self._mul_table[i, j])
        return self.index_of(multiply(self.element(i), self.element(j)))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, kind={self.kind}, label={self.label!r})"


def bfs_closure(gens: GeneratorSet, budget: int | None = None) -> FiniteGroup:
    """Enumerate the subgroup generated by ``gens`` breadth-first from the
    identity, aborting with BudgetExceeded above the element budget.

    Each layer is multiplied by one symmetrized generator at a time.  Of a
    batch of products, the first occurrence of each key survives unless an
    earlier layer or an earlier batch of this layer holds it; survivors are
    appended in the order they were found, after the budget check.
    """
    budget = resolve_budget(budget)
    e = gens.identity()
    kind, modulus = e.kind, e.modulus
    powers = _key_powers(kind, e.data.shape, modulus)

    frontier = e.data[np.newaxis, ...]
    layers = [frontier]
    layer_keys = [_keys(frontier, kind, modulus, powers)]
    parents = [np.array([-1])]
    steps = [np.array([-1])]
    starts = [0, 1]
    seen = layer_keys[0]  # sorted keys of all finished layers
    count = 1

    while True:
        rows, keys, fresh = [], [], []  # fresh: sorted keys new in this layer
        for j, s in enumerate(gens.symmetrized):
            prods = _batch_multiply(kind, modulus, frontier, s.data)
            prod_keys = _keys(prods, kind, modulus, powers)
            uniq, first = np.unique(prod_keys, return_index=True)
            new = ~_find(seen, uniq)[1]
            for earlier in fresh:
                new &= ~_find(earlier, uniq)[1]
            at = np.sort(first[new])
            if count + at.size > budget:
                raise BudgetExceeded(budget + 1, budget, "bfs_closure")
            if at.size:
                fresh.append(uniq[new])
                rows.append(prods[at])
                keys.append(prod_keys[at])
                parents.append(starts[-2] + at)
                steps.append(np.full(at.size, j))
                count += at.size
        if not rows:
            break
        frontier = np.concatenate(rows)
        layers.append(frontier)
        layer_keys.append(np.concatenate(keys))
        starts.append(count)
        # a stable sort is a timsort here: it merges the sorted runs in linear time
        seen = np.sort(np.concatenate([seen, *fresh]), kind="stable")

    return FiniteGroup(
        gens,
        np.concatenate(layers),
        np.concatenate(layer_keys),
        np.concatenate(parents),
        np.concatenate(steps),
        tuple(starts),
    )


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


def sp_order(g: int, p: int) -> int:
    """|Sp_2g(F_p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1), exact."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = p ** (g * g)
    for i in range(1, g + 1):
        out *= p ** (2 * i) - 1
    return out


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
