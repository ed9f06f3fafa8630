"""Exact arithmetic for the two element kinds used everywhere downstream.

An element is either a permutation of ``{0, ..., d-1}`` (stored as its image
array) or a square integer matrix with entries reduced mod ``m``.  Modulus 0
means "over the integers": entries are arbitrary Python ints and arithmetic
is exact (object-dtype arrays, never wrapping int64).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

import numpy as np

PERMUTATION = "permutation"
MATRIX = "matrix"

# int64 products n * m^2 must not wrap.  The int64 element code of
# groups.py needs m^(n^2) < 2^63 as well; above that a group falls back to
# bytes keys.  Moduli in practice are small primes.
MAX_MODULUS = 1 << 20


def encode_permutation(images: np.ndarray) -> bytes:
    """Canonical byte key: the image array, little-endian u32 each."""
    return images.astype("<u4").tobytes()


def encode_matrix(entries: np.ndarray, modulus: int) -> bytes:
    """Canonical byte key: row-major entries, little-endian u32 each.

    Integer matrices (modulus 0) have unbounded signed entries, so they get
    a decimal encoding instead of a fixed-width one.
    """
    if modulus:
        return entries.astype("<u4").tobytes()
    return b",".join(b"%d" % int(x) for x in entries.ravel())


class GroupElement:
    """A permutation of ``[0..d)`` or an ``n x n`` matrix mod ``m``.

    Immutable after construction; the backing array is marked read-only and
    the canonical encoding is cached on first use.
    """

    __slots__ = ("kind", "data", "modulus", "_encoding")

    def __init__(self, kind: str, data: np.ndarray, modulus: int = 0):
        if kind not in (PERMUTATION, MATRIX):
            raise ValueError(f"unknown element kind {kind!r}")
        self.kind = kind
        self.data = data
        self.modulus = int(modulus)
        self.data.flags.writeable = False
        self._encoding: bytes | None = None

    @classmethod
    def permutation(cls, images: Iterable[int]) -> "GroupElement":
        arr = np.asarray(list(images), dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("permutation images must be a flat sequence")
        d = arr.shape[0]
        if d == 0 or sorted(arr.tolist()) != list(range(d)):
            raise ValueError(f"not a bijection of [0..{d}): {arr.tolist()}")
        return cls(PERMUTATION, arr, 0)

    @classmethod
    def matrix(cls, entries, modulus: int) -> "GroupElement":
        modulus = int(modulus)
        if modulus < 0:
            raise ValueError("modulus must be >= 0")
        if modulus > MAX_MODULUS:
            raise ValueError(f"modulus {modulus} too large (limit {MAX_MODULUS})")
        if modulus:
            raw = np.asarray(entries)
            if raw.dtype == object:
                # reduce in exact arithmetic before the fixed-width cast
                arr = np.array(
                    [[int(x) % modulus for x in row] for row in raw.tolist()],
                    dtype=np.int64,
                )
            else:
                arr = raw.astype(np.int64) % modulus
        else:
            arr = np.asarray(entries, dtype=object)
            arr = np.vectorize(int, otypes=[object])(arr) if arr.size else arr
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"matrix must be square and nonempty, got shape {arr.shape}")
        return cls(MATRIX, arr, modulus)

    @property
    def degree(self) -> int:
        if self.kind != PERMUTATION:
            raise ValueError("degree only defined for permutations")
        return self.data.shape[0]

    @property
    def dimension(self) -> int:
        if self.kind != MATRIX:
            raise ValueError("dimension only defined for matrices")
        return self.data.shape[0]

    @property
    def encoding(self) -> bytes:
        if self._encoding is None:
            if self.kind == PERMUTATION:
                self._encoding = encode_permutation(self.data)
            else:
                self._encoding = encode_matrix(self.data, self.modulus)
        return self._encoding

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __pow__(self, n: int) -> "GroupElement":
        result = identity_like(self)
        base = self if n >= 0 else inverse(self)
        for _ in range(abs(n)):
            result = multiply(result, base)
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.modulus == other.modulus
            and self.encoding == other.encoding
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.modulus, self.encoding))

    def __repr__(self) -> str:
        if self.kind == PERMUTATION:
            return f"GroupElement.permutation({self.data.tolist()})"
        return f"GroupElement.matrix({self.data.tolist()}, modulus={self.modulus})"


def identity_permutation(d: int) -> GroupElement:
    return GroupElement.permutation(range(d))


def identity_matrix(n: int, modulus: int = 0) -> GroupElement:
    return GroupElement.matrix(np.eye(n, dtype=np.int64), modulus)


def identity_like(x: GroupElement) -> GroupElement:
    if x.kind == PERMUTATION:
        return identity_permutation(x.degree)
    return identity_matrix(x.dimension, x.modulus)


def _check_composable(a: GroupElement, b: GroupElement) -> None:
    if a.kind != b.kind:
        raise ValueError(f"incompatible elements: {a.kind} vs {b.kind}")
    if a.kind == PERMUTATION and a.degree != b.degree:
        raise ValueError(f"incompatible degrees: {a.degree} vs {b.degree}")
    if a.kind == MATRIX and (a.modulus != b.modulus or a.dimension != b.dimension):
        raise ValueError(
            f"incompatible matrices: dim {a.dimension} mod {a.modulus} "
            f"vs dim {b.dimension} mod {b.modulus}"
        )


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product a*b under the left-action convention: (a*b)(x) = a(b(x))."""
    _check_composable(a, b)
    if a.kind == PERMUTATION:
        return GroupElement(PERMUTATION, a.data[b.data], 0)
    prod = np.dot(a.data, b.data)
    if a.modulus:
        prod = prod % a.modulus
    return GroupElement(MATRIX, prod, a.modulus)


def _det_adjugate(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Exact det(A) and adj(A) of a square integer matrix, by one
    fraction-free (Bareiss) Gauss-Jordan elimination on [A | I].

    Every division is exact.  The pivot rows stay in place, so after the
    last step the left block is D * I and the right block D * A^(-1), with
    D the last pivot: det(A) up to the sign s of the row swaps.  So
    det(A) = s * D and adj(A) = det(A) * A^(-1) = s * (right block).  A
    singular A gives det 0 and the zero matrix, which is adj(A) only mod 1.
    """
    n = len(rows)
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0, [[0] * n for _ in range(n)]
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, d = m[k], m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(d * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = d
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def inverse(a: GroupElement) -> GroupElement:
    if a.kind == PERMUTATION:
        return GroupElement(PERMUTATION, np.argsort(a.data), 0)
    det, adj = _det_adjugate([[int(x) for x in row] for row in a.data.tolist()])
    adj = np.array(adj, dtype=object)
    if a.modulus:
        if gcd(det % a.modulus, a.modulus) != 1:
            raise ValueError(
                f"matrix not invertible: det = {det} shares a factor with "
                f"modulus {a.modulus}"
            )
        dinv = pow(det % a.modulus, -1, a.modulus)
        inv = (dinv * adj) % a.modulus
        return GroupElement(MATRIX, inv.astype(np.int64), a.modulus)
    if det not in (1, -1):
        raise ValueError(f"matrix not invertible over Z: det = {det}")
    return GroupElement(MATRIX, det * adj, 0)


class SymplecticForm:
    """Standard symplectic Gram matrix on Z^(2g), basis (e1, f1, ..., eg, fg).

    Pairings: <e_i, f_i> = +1, <f_i, e_i> = -1, everything else 0.
    """

    __slots__ = ("genus", "gram")

    def __init__(self, genus: int):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        self.genus = genus
        J = np.zeros((2 * genus, 2 * genus), dtype=np.int64)
        for i in range(genus):
            J[2 * i, 2 * i + 1] = 1
            J[2 * i + 1, 2 * i] = -1
        J.flags.writeable = False
        self.gram = J
        assert (J.T == -J).all() and (J @ J == -np.eye(2 * genus, dtype=np.int64)).all()

    @property
    def dimension(self) -> int:
        return 2 * self.genus

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        ua = np.asarray(u, dtype=object)
        va = np.asarray(v, dtype=object)
        if ua.shape != (self.dimension,) or va.shape != (self.dimension,):
            raise ValueError(f"vectors must have length {self.dimension}")
        return int(np.dot(ua, np.dot(self.gram, va)))

    def basis_e(self, i: int) -> np.ndarray:
        v = np.zeros(self.dimension, dtype=np.int64)
        v[2 * (i - 1)] = 1
        return v

    def basis_f(self, i: int) -> np.ndarray:
        v = np.zeros(self.dimension, dtype=np.int64)
        v[2 * i - 1] = 1
        return v

    def __repr__(self) -> str:
        return f"SymplecticForm(genus={self.genus})"


def is_symplectic(a: GroupElement, form: SymplecticForm) -> bool:
    """True iff a^T J a == J (mod m), i.e. a preserves the pairing."""
    if a.kind != MATRIX:
        raise ValueError("is_symplectic needs a matrix element")
    if a.dimension != form.dimension:
        raise ValueError(
            f"dimension mismatch: matrix is {a.dimension}, form is {form.dimension}"
        )
    lifted = a.data.astype(object)
    lhs = np.dot(lifted.T, np.dot(form.gram.astype(object), lifted))
    diff = lhs - form.gram
    if a.modulus:
        diff = diff % a.modulus
    return not diff.any()


def act_on_vectors(a: GroupElement, v) -> np.ndarray:
    """Matrix-vector product a.v reduced mod m (a group action on the left)."""
    if a.kind != MATRIX:
        raise ValueError("act_on_vectors needs a matrix element")
    vec = np.asarray(v, dtype=object if a.modulus == 0 else np.int64)
    if vec.shape != (a.dimension,):
        raise ValueError(f"vector length {vec.shape} does not match dimension {a.dimension}")
    if a.modulus:
        if ((vec < 0) | (vec >= a.modulus)).any():
            vec = vec % a.modulus
    out = np.dot(a.data, vec)
    if a.modulus:
        out = out % a.modulus
    return out


def reduce_mod(a: GroupElement, modulus: int) -> GroupElement:
    """Reduce an integer matrix to the congruence quotient mod ``modulus``."""
    if a.kind != MATRIX:
        raise ValueError("reduce_mod needs a matrix element")
    if modulus <= 0:
        raise ValueError("target modulus must be positive")
    if a.modulus != 0 and a.modulus % modulus != 0:
        raise ValueError(f"cannot reduce mod {modulus} from modulus {a.modulus}")
    return GroupElement.matrix(a.data, modulus)
