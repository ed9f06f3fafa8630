"""Breadth-first enumeration of finite groups from generator sets.

The enumeration is layered: each BFS layer is a stacked numpy array of
elements, multiplied against every symmetrized generator in one batched
operation.  That keeps the per-element Python overhead down to one encode
plus one hash lookup, which is what makes Sp4(F3) (order 51840) and
SL2(F47) (order 103776) comfortable at desk scale.
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


def _batch_right_multiply(stack: np.ndarray, s: GroupElement) -> np.ndarray:
    """Right-multiply every stacked element by s.

    Permutations: (q*s)(x) = q(s(x)), i.e. fancy-index the image rows.
    Matrices: batched matmul reduced mod m.
    """
    if s.kind == PERMUTATION:
        return stack[:, s.data]
    if s.modulus:
        return np.matmul(stack, s.data) % s.modulus
    # object dtype (exact integers): matmul unsupported, go row by row
    return np.stack([np.dot(stack[i], s.data) for i in range(stack.shape[0])])


def _encode_rows(kind: str, stack: np.ndarray, modulus: int) -> list[bytes]:
    if kind == PERMUTATION:
        flat = stack.astype("<u4")
        row_bytes = flat.shape[1] * 4
        blob = flat.tobytes()
        return [blob[i * row_bytes : (i + 1) * row_bytes] for i in range(flat.shape[0])]
    if modulus:
        flat = stack.reshape(stack.shape[0], -1).astype("<u4")
        row_bytes = flat.shape[1] * 4
        blob = flat.tobytes()
        return [blob[i * row_bytes : (i + 1) * row_bytes] for i in range(flat.shape[0])]
    return [encode_matrix(stack[i], 0) for i in range(stack.shape[0])]


class FiniteGroup:
    """A fully enumerated group: elements in BFS discovery order, index 0
    the identity, plus an encoding -> position map as multiplication oracle."""

    def __init__(
        self,
        kind: str,
        stack: np.ndarray,
        modulus: int,
        encodings: list[bytes],
        generator_indices: tuple[int, ...],
        label: str = "",
    ):
        self.kind = kind
        self._stack = stack
        self.modulus = modulus
        self._encodings = encodings
        self._index = {enc: i for i, enc in enumerate(encodings)}
        if len(self._index) != len(encodings):
            raise ValueError("duplicate encodings in element list")
        self.generator_indices = generator_indices
        self.label = label
        self._mul_table: np.ndarray | None = None
        self._inv_indices: np.ndarray | None = None

    @property
    def order(self) -> int:
        return len(self._encodings)

    def __len__(self) -> int:
        return self.order

    def element(self, i: int) -> GroupElement:
        return GroupElement(self.kind, np.array(self._stack[i]), self.modulus)

    def elements(self) -> Iterator[GroupElement]:
        for i in range(self.order):
            yield self.element(i)

    def encoding(self, i: int) -> bytes:
        return self._encodings[i]

    def index_of(self, g: GroupElement) -> int:
        try:
            return self._index[g.encoding]
        except KeyError:
            raise ValueError(f"element not in group: {g!r}") from None

    def __contains__(self, g: GroupElement) -> bool:
        return isinstance(g, GroupElement) and g.encoding in self._index

    def right_multiplication_indices(self, s: GroupElement) -> np.ndarray:
        """Index array of q -> q*s over all elements q, in one batch."""
        prods = _batch_right_multiply(self._stack, s)
        encs = _encode_rows(self.kind, prods, self.modulus)
        return np.fromiter((self._index[e] for e in encs), dtype=np.int32, count=len(encs))

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
        if self._inv_indices is None:
            inv = np.empty(self.order, dtype=np.int32)
            for i in range(self.order):
                inv[i] = self.index_of(inverse(self.element(i)))
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
    identity, aborting with BudgetExceeded above the element budget."""
    budget = resolve_budget(budget)
    e = gens.identity()
    kind, modulus = e.kind, e.modulus
    gen_data = [s.data for s in gens.symmetrized]

    layers = [e.data[np.newaxis, ...]]
    encodings = [e.encoding]
    index = {e.encoding: 0}
    frontier = layers[0]

    while frontier.shape[0]:
        new_rows = []
        for sdata in gen_data:
            if kind == PERMUTATION:
                prods = frontier[:, sdata]
            elif modulus:
                prods = np.matmul(frontier, sdata) % modulus
            else:
                prods = np.stack([np.dot(frontier[i], sdata) for i in range(frontier.shape[0])])
            encs = _encode_rows(kind, prods, modulus)
            for row, enc in zip(prods, encs):
                if enc not in index:
                    if len(encodings) == budget:
                        raise BudgetExceeded(budget + 1, budget, "bfs_closure")
                    index[enc] = len(encodings)
                    encodings.append(enc)
                    new_rows.append(row)
        frontier = np.stack(new_rows) if new_rows else np.empty((0,) + frontier.shape[1:], dtype=frontier.dtype)
        if new_rows:
            layers.append(frontier)

    stack = np.concatenate(layers, axis=0)
    gen_indices = tuple(index[g.encoding] for g in gens.elements)
    return FiniteGroup(kind, stack, modulus, encodings, gen_indices, label=gens.label)


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
