"""Carrier types: indexed bilinear products, map families, algebra instances."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, NamedTuple

from .errors import NonCommutingStructureMaps, ShapeMismatch, Singular
from .linalg import (Matrix, Vector, frac, mat_inverse, mat_mul, mats_commute,
                     vec, zero_vector)
from .semigroup import SemigroupTable

_ZERO = Fraction(0)

Tensor = tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]  # [i][j][k] per (a,b)
# the nonzero cells of one block: (i, ((j, e_i * e_j), ...)) rows, listing
# only the i and j whose product is nonzero, in ascending order
SparseBlock = tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]


class IntTensor(NamedTuple):
    """A family's tensor times some den, in integers: dense[a][b][i][j] is
    the vector of e_i *_{a,b} e_j, and sparse[a][b] lists that block's
    nonzero vectors, the very tuples of dense."""

    dense: tuple
    sparse: tuple[tuple[SparseBlock, ...], ...]


def block_times(block: SparseBlock, dim: int, x, y, zero=0) -> tuple:
    """x * y under one sparse block, each coordinate started from `zero`."""
    out = [zero] * dim
    for i, row in block:
        xi = x[i]
        if xi:
            for j, cell in row:
                yj = y[j]
                if yj:
                    coeff = xi * yj
                    for k, c in enumerate(cell):
                        out[k] += coeff * c
    return tuple(out)


@dataclass(frozen=True)
class BilinearFamily:
    """One d x d x d structure-constant tensor per index pair (a, b).

    tensor[(a, b)][i][j][k] is the coefficient of e_k in e_i * e_j under
    the operation indexed by (a, b).
    """

    omega: SemigroupTable
    dim: int
    tensor: tuple[tuple[Tensor, ...], ...]  # [a][b] -> d x d x d

    def __post_init__(self):
        n = self.omega.order
        d = self.dim
        if len(self.tensor) != n or any(len(row) != n for row in self.tensor):
            raise ShapeMismatch("tensor must cover all of Omega x Omega")
        for row in self.tensor:
            for cube in row:
                if (len(cube) != d or any(len(pl) != d for pl in cube)
                        or any(len(v) != d for pl in cube for v in pl)):
                    raise ShapeMismatch(f"each tensor block must be {d}x{d}x{d}")

    @staticmethod
    def from_function(omega: SemigroupTable, dim: int,
                      fn: Callable[[int, int, int, int], Vector]) -> "BilinearFamily":
        """Build from fn(a, b, i, j) -> coefficient vector of e_i *_{a,b} e_j."""
        n = omega.order
        tensor = tuple(
            tuple(
                tuple(
                    tuple(vec(fn(a, b, i, j)) for j in range(dim))
                    for i in range(dim)
                )
                for b in range(n)
            )
            for a in range(n)
        )
        return BilinearFamily(omega, dim, tensor)

    @staticmethod
    def zero(omega: SemigroupTable, dim: int) -> "BilinearFamily":
        z = zero_vector(dim)
        return BilinearFamily.from_function(omega, dim, lambda a, b, i, j: z)

    def basis_product(self, a: int, b: int, i: int, j: int) -> Vector:
        return self.tensor[a][b][i][j]

    @cached_property
    def den(self) -> int:
        """The lcm of the tensor's denominators."""
        return lcm(*(c.denominator for row in self.tensor for cube in row
                     for plane in cube for cell in plane for c in cell))

    @cached_property
    def _int_forms(self) -> dict[int, IntTensor]:
        return {}

    def int_tensor(self, den: int) -> IntTensor:
        """The tensor times den, a multiple of self.den; built once per den."""
        forms = self._int_forms
        if den not in forms:
            if den % self.den:
                raise ValueError(f"den {den} is not a multiple of {self.den}")
            forms[den] = self._ints(den)
        return forms[den]

    def _ints(self, den: int) -> IntTensor:
        def block(cube):
            rows = []
            for i, plane in enumerate(cube):
                row = tuple((j, cell) for j, cell in enumerate(plane) if any(cell))
                if row:
                    rows.append((i, row))
            return tuple(rows)
        dense = tuple(tuple(tuple(tuple(tuple(
            c.numerator * (den // c.denominator) for c in cell) for cell in plane)
            for plane in cube) for cube in row) for row in self.tensor)
        return IntTensor(dense, tuple(tuple(block(cube) for cube in row)
                                      for row in dense))

    def apply(self, a: int, b: int, x: Vector, y: Vector,
              den: int | None = None) -> Vector:
        """x *_{a,b} y.  Given den, a multiple of self.den, x and y are int
        vectors and so is the result: their product times den."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch(f"vectors must have length {self.dim}")
        if den is not None:
            return block_times(self.int_tensor(den).sparse[a][b], self.dim, x, y)
        own = self.den
        out = block_times(self.int_tensor(own).sparse[a][b], self.dim, x, y, _ZERO)
        return out if own == 1 else tuple(v / own for v in out)

    def scale(self, c) -> "BilinearFamily":
        c = frac(c)
        return BilinearFamily.from_function(
            self.omega, self.dim,
            lambda a, b, i, j: tuple(c * v for v in self.tensor[a][b][i][j]))


@dataclass(frozen=True)
class LinearFamily:
    """One d x d matrix per semigroup element."""

    omega: SemigroupTable
    dim: int
    maps: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.maps) != self.omega.order:
            raise ShapeMismatch("one matrix per semigroup element required")
        for m in self.maps:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise ShapeMismatch(f"each matrix must be {self.dim}x{self.dim}")

    @staticmethod
    def identity(omega: SemigroupTable, dim: int) -> "LinearFamily":
        return LinearFamily(omega, dim, tuple(Matrix.identity(dim)
                                              for _ in omega.indices()))

    @staticmethod
    def constant(omega: SemigroupTable, m: Matrix) -> "LinearFamily":
        return LinearFamily(omega, m.rows, tuple(m for _ in omega.indices()))

    def matrix(self, a: int) -> Matrix:
        return self.maps[a]

    def apply(self, a: int, x: Vector, den: int | None = None) -> Vector:
        """The matrix at a times x; given den, as Matrix.apply."""
        return self.maps[a].apply(x, den)

    def compose(self, other: "LinearFamily") -> "LinearFamily":
        """Index-wise composition self_a after other_a."""
        if self.dim != other.dim or self.omega != other.omega:
            raise ShapeMismatch("cannot compose mismatched families")
        return LinearFamily(self.omega, self.dim,
                            tuple(mat_mul(s, o) for s, o in zip(self.maps, other.maps)))

    def inverse(self) -> "LinearFamily":
        mats = []
        for a, m in enumerate(self.maps):
            try:
                mats.append(mat_inverse(m))
            except Singular:
                raise Singular(
                    f"structure map at index {self.omega.elements[a]!r} is singular",
                    index=self.omega.elements[a])
        return LinearFamily(self.omega, self.dim, tuple(mats))

    def commutes_with(self, other: "LinearFamily",
                      commute: Callable[[Matrix, Matrix], bool] = mats_commute
                      ) -> tuple[bool, int | None]:
        """Elementwise commutation over all index pairs, each decided by
        `commute`; returns first bad pair."""
        for a in self.omega.indices():
            for b in self.omega.indices():
                if not commute(self.maps[a], other.maps[b]):
                    return False, a
        return True, None

    def is_identity(self) -> bool:
        return all(m.is_identity() for m in self.maps)


class AlgebraKind(Enum):
    OMEGA_ASSOCIATIVE = "omega_associative"
    BIHOM_ASSOCIATIVE = "bihom_associative"
    DENDRIFORM = "dendriform"
    PRELIE = "prelie"
    LIE = "lie"
    POSTLIE = "postlie"
    ZINBIEL = "zinbiel"
    PREPOISSON = "prepoisson"

    @property
    def product_slots(self) -> tuple[str, ...]:
        return _KIND_SLOTS[self]

    @property
    def needs_commutative_omega(self) -> bool:
        return self in (AlgebraKind.PRELIE, AlgebraKind.LIE, AlgebraKind.POSTLIE,
                        AlgebraKind.ZINBIEL, AlgebraKind.PREPOISSON)


_KIND_SLOTS = {
    AlgebraKind.OMEGA_ASSOCIATIVE: ("mul",),
    AlgebraKind.BIHOM_ASSOCIATIVE: ("mul",),
    AlgebraKind.DENDRIFORM: ("prec", "succ"),
    AlgebraKind.PRELIE: ("triangle",),
    AlgebraKind.LIE: ("bracket",),
    AlgebraKind.POSTLIE: ("bracket", "triangle"),
    AlgebraKind.ZINBIEL: ("star",),
    AlgebraKind.PREPOISSON: ("triangle", "star"),
}

ASSOCIATIVE_KINDS = (AlgebraKind.OMEGA_ASSOCIATIVE, AlgebraKind.BIHOM_ASSOCIATIVE)


@dataclass(frozen=True)
class Provenance:
    """How an instance was produced, for reproducible pipelines."""

    construction: str
    parameters: tuple[tuple[str, str], ...] = ()
    input_digests: tuple[str, ...] = ()


@dataclass(frozen=True)
class AlgebraInstance:
    """A kind-tagged carrier with products and commuting structure maps.

    Only structural invariants are enforced here; whether the kind's
    axioms actually hold is the checkers' business, so deliberately
    broken instances remain constructible.
    """

    kind: AlgebraKind
    omega: SemigroupTable
    dim: int
    products: tuple[tuple[str, BilinearFamily], ...]
    p: LinearFamily
    q: LinearFamily
    provenance: Provenance | None = field(default=None, compare=False)

    def product(self, slot: str) -> BilinearFamily:
        for name, fam in self.products:
            if name == slot:
                return fam
        raise KeyError(slot)

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.products)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.kind.value.encode())
        h.update(repr(self.omega.table).encode())
        for name, fam in self.products:
            h.update(name.encode())
            h.update(repr(fam.tensor).encode())
        h.update(repr(self.p.maps).encode())
        h.update(repr(self.q.maps).encode())
        return h.hexdigest()[:16]


def new_instance(kind: AlgebraKind, omega: SemigroupTable,
                 products: tuple[tuple[str, BilinearFamily], ...],
                 p: LinearFamily, q: LinearFamily,
                 provenance: Provenance | None = None) -> AlgebraInstance:
    """Validate shapes and the commuting p/q invariant, then build from
    the (slot, family) pairs."""
    slots = tuple(name for name, _ in products)
    if slots != kind.product_slots:
        raise ShapeMismatch(
            f"kind {kind.value} expects products {kind.product_slots}, got {slots}")
    dims = {fam.dim for _, fam in products} | {p.dim, q.dim}
    if len(dims) != 1:
        raise ShapeMismatch(f"inconsistent dimensions {sorted(dims)}")
    dim = dims.pop()
    for _, fam in products:
        if fam.omega != omega:
            raise ShapeMismatch("product family indexed by a different semigroup")
    if p.omega != omega or q.omega != omega:
        raise ShapeMismatch("structure maps indexed by a different semigroup")
    for a in omega.indices():
        if not mats_commute(p.maps[a], q.maps[a]):
            raise NonCommutingStructureMaps(omega.elements[a])
    return AlgebraInstance(kind, omega, dim, products, p, q, provenance)


@dataclass(frozen=True)
class RotaBaxterFamily:
    """A candidate family of operators with a weight; the defining
    identity is a checkable property, not a constructor invariant."""

    maps: LinearFamily
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", frac(self.weight))
