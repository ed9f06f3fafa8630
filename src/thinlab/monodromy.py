"""Generator catalogs for hyperelliptic-type braid monodromy.

A chain of 2g+1 vectors in Z^(2g) with the A-chain intersection pattern
(consecutive pairings 1, distant pairings 0) turns each braid generator
into the transvection along its chain vector; words in the braid group
become integer symplectic matrices, and reductions mod small numbers feed
the congruence-level diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .elements import (
    GroupElement,
    SymplecticForm,
    identity_matrix,
    multiply,
)
from .groups import GeneratorSet, matrix_group_order, sp_order


@dataclass
class ChainConfiguration:
    """2g+1 vanishing-cycle vectors with the chain intersection pattern."""

    genus: int
    vectors: Sequence[np.ndarray]
    form: SymplecticForm | None = None

    def __post_init__(self):
        if self.form is None:
            self.form = SymplecticForm(self.genus)
        self.vectors = tuple(np.asarray(v, dtype=np.int64) for v in self.vectors)
        n = len(self.vectors)
        if n != 2 * self.genus + 1:
            raise ValueError(f"chain needs {2 * self.genus + 1} vectors, got {n}")
        for i, v in enumerate(self.vectors):
            if v.shape != (2 * self.genus,):
                raise ValueError(f"vector {i} has wrong length")
            if gcd(*(abs(int(x)) for x in v)) != 1:
                raise ValueError(f"vector {i} is not primitive: {v.tolist()}")
        for i in range(n):
            for j in range(i + 1, n):
                got = self.form.pairing(self.vectors[i], self.vectors[j])
                want = 1 if j == i + 1 else 0
                if got != want:
                    raise ValueError(
                        f"chain pattern violated: <c{i + 1}, c{j + 1}> = {got}, expected {want}"
                    )


def build_chain(genus: int) -> ChainConfiguration:
    """The explicit chain c_(2i-1) = e_i, c_(2i) = f_i - f_(i+1), and
    c_(2g+1) = -(e_1 + ... + e_g); the constructor re-verifies the pattern."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    form = SymplecticForm(genus)
    vectors = []
    for i in range(1, genus + 1):
        vectors.append(form.basis_e(i))
        fi = form.basis_f(i)
        if i < genus:
            fi = fi - form.basis_f(i + 1)
        vectors.append(fi)
    vectors.append(-sum(form.basis_e(i) for i in range(1, genus + 1)))
    return ChainConfiguration(genus, vectors, form)


def transvection(v, form: SymplecticForm, modulus: int = 0) -> GroupElement:
    """Matrix of x -> x + <x, v> v, reduced mod ``modulus`` when nonzero.

    Always symplectic; fixes v; unipotent.
    """
    vec = np.asarray(v, dtype=np.int64)
    if vec.shape != (form.dimension,):
        raise ValueError(f"vector length {vec.shape} does not match form dimension {form.dimension}")
    mat = np.eye(form.dimension, dtype=np.int64) - np.outer(vec, vec) @ form.gram
    return GroupElement.matrix(mat, modulus)


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid generators, letters +-1..+-2g, leftmost acts first."""

    letters: tuple[int, ...]
    strands: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        width = self.strands - 1
        for x in self.letters:
            if x == 0 or abs(x) > width:
                raise ValueError(f"letter {x} out of range for {self.strands} strands")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.letters + other.letters, self.strands)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple(-x for x in reversed(self.letters)), self.strands)


def braid_to_matrix(word: BraidWord, chain: ChainConfiguration, modulus: int = 0) -> GroupElement:
    """Image of a braid word under sigma_i -> T_(c_i).

    Leftmost letter applied first, so the returned matrix is
    T(last) ... T(first).  Empty word gives the identity.  A transvection
    is T = I - v v^T J with (v v^T J)^2 = 0, so T^(-1) = 2I - T exactly.
    """
    if word.strands != 2 * chain.genus + 1:
        raise ValueError(
            f"word has {word.strands} strands, chain expects {2 * chain.genus + 1}"
        )
    two = 2 * np.eye(2 * chain.genus, dtype=np.int64)
    result = identity_matrix(2 * chain.genus, modulus)
    for letter in word.letters:
        t = transvection(chain.vectors[abs(letter) - 1], chain.form, modulus)
        if letter < 0:
            t = GroupElement.matrix(two - t.data, modulus)
        result = multiply(t, result)
    return result


def _conjugated_square(i: int, j: int, strands: int) -> BraidWord:
    """A_(i,j) = (sigma_(j-1) ... sigma_(i+1)) sigma_i^2 (...)^(-1) as a word
    in apply-order (first letter acts first)."""
    conj_desc = [-(t) for t in range(j - 1, i, -1)]
    back = list(range(i + 1, j))
    return BraidWord(tuple(conj_desc + [i, i] + back), strands)


def pure_braid_generators(genus: int) -> list[BraidWord]:
    """The standard generators A_(i,j), 1 <= i < j <= 2g+1, of the pure
    braid group; their matrix images land in the level-2 congruence kernel."""
    strands = 2 * genus + 1
    return [
        _conjugated_square(i, j, strands)
        for i in range(1, strands)
        for j in range(i + 1, strands + 1)
    ]


def point_pushing_generators(genus: int) -> list[BraidWord]:
    """The 2g words A_(i, 2g+1): the last strand winding around each other."""
    strands = 2 * genus + 1
    return [_conjugated_square(i, strands, strands) for i in range(1, strands)]


def full_braid_generators(genus: int) -> list[BraidWord]:
    strands = 2 * genus + 1
    return [BraidWord((i,), strands) for i in range(1, strands)]


def standard_symplectic_generators(genus: int, modulus: int) -> GeneratorSet:
    """Chain transvections of build_chain(genus) mod ``modulus``; these
    generate the full symplectic congruence quotient (verified by BFS in
    the test suite for small parameters)."""
    chain = build_chain(genus)
    gens = [transvection(v, chain.form, modulus) for v in chain.vectors]
    return GeneratorSet(gens, label=f"sp{2 * genus}(mod {modulus})")


@dataclass
class CongruenceLevelReport:
    """Level data for a list of integer symplectic matrices."""

    mod2_trivial: bool
    mod4_trivial: bool
    prime_orders: dict[int, tuple[int, int]]  # p -> (image order, full order)

    def __post_init__(self):
        if self.mod4_trivial and not self.mod2_trivial:
            raise ValueError("mod-4 triviality implies mod-2 triviality")

    @property
    def surjective(self) -> dict[int, bool]:
        return {p: got == want for p, (got, want) in self.prime_orders.items()}


def _trivial_mod(mats: Sequence[GroupElement], k: int) -> bool:
    for m in mats:
        diff = (m.data - np.eye(m.dimension, dtype=object)) % k
        if diff.any():
            return False
    return True


def congruence_report(
    mats: Sequence[GroupElement],
    primes: Sequence[int],
    budget: int | None = None,
) -> CongruenceLevelReport:
    """Mod-2 / mod-4 triviality flags plus, per prime p, the order of the
    image mod p (``matrix_group_order``, a stabilizer chain that never
    enumerates the group) versus |Sp_2g(F_p)|."""
    if not mats:
        raise ValueError("need at least one matrix")
    for m in mats:
        if m.kind != "matrix" or m.modulus != 0:
            raise ValueError("congruence_report expects integer matrices (modulus 0)")
    dim = mats[0].dimension
    if dim % 2:
        raise ValueError("matrices must have even dimension 2g")
    genus = dim // 2

    prime_orders = {}
    for p in primes:
        reduced = GeneratorSet([GroupElement.matrix(m.data, p) for m in mats])
        prime_orders[p] = (matrix_group_order(reduced, budget=budget), sp_order(genus, p))

    return CongruenceLevelReport(
        mod2_trivial=_trivial_mod(mats, 2),
        mod4_trivial=_trivial_mod(mats, 4),
        prime_orders=prime_orders,
    )


def catalog_json(mats: Sequence[GroupElement], label: str) -> dict:
    """JSON-ready catalog of matrices with modulus metadata, for the CLI."""
    if not mats:
        raise ValueError("empty catalog")
    dim = mats[0].dimension
    modulus = mats[0].modulus
    return {
        "label": label,
        "dimension": dim,
        "modulus": modulus,
        "matrices": [[[int(x) for x in row] for row in m.data.tolist()] for m in mats],
    }
