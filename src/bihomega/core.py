"""Carrier types: indexed bilinear products, map families, algebra instances."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping

from .errors import NonCommutingStructureMaps, ShapeMismatch
from .linalg import (Matrix, Vector, frac, mat_inverse, mat_mul, mats_commute,
                     vec, zero_vector)
from .semigroup import SemigroupTable

_ZERO = Fraction(0)

Tensor = tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]  # [i][j][k] per (a,b)
# the nonzero cells of one block: (i, ((j, ((k, coefficient), ...)), ...)) rows,
# listing only the i, j, k whose coefficient is nonzero, in ascending order
SparseBlock = tuple[tuple[int, tuple[tuple[int, tuple[tuple[int, Fraction], ...]],
                                     ...]], ...]


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
        # reorder: built [a][b][i][j]; keep as is
        return BilinearFamily(omega, dim, tensor)

    @staticmethod
    def zero(omega: SemigroupTable, dim: int) -> "BilinearFamily":
        z = zero_vector(dim)
        return BilinearFamily.from_function(omega, dim, lambda a, b, i, j: z)

    def basis_product(self, a: int, b: int, i: int, j: int) -> Vector:
        return self.tensor[a][b][i][j]

    @cached_property
    def _sparse(self) -> tuple[tuple[SparseBlock, ...], ...]:
        """tensor in sparse form, [a][b] -> SparseBlock; built on first use."""
        def block(cube):
            rows = []
            for i, plane in enumerate(cube):
                row = tuple((j, tuple((k, c) for k, c in enumerate(cell) if c))
                            for j, cell in enumerate(plane) if any(cell))
                if row:
                    rows.append((i, row))
            return tuple(rows)
        return tuple(tuple(block(cube) for cube in row) for row in self.tensor)

    def apply(self, a: int, b: int, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch(f"vectors must have length {self.dim}")
        out = [_ZERO] * self.dim
        for i, row in self._sparse[a][b]:
            xi = x[i]
            if not xi:
                continue
            for j, cell in row:
                yj = y[j]
                if yj:
                    coeff = xi * yj
                    for k, c in cell:
                        out[k] += coeff * c
        return tuple(out)

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

    def apply(self, a: int, x: Vector) -> Vector:
        return self.maps[a].apply(x)

    def compose(self, other: "LinearFamily") -> "LinearFamily":
        """Index-wise composition self_a after other_a."""
        if self.dim != other.dim or self.omega != other.omega:
            raise ShapeMismatch("cannot compose mismatched families")
        return LinearFamily(self.omega, self.dim,
                            tuple(mat_mul(s, o) for s, o in zip(self.maps, other.maps)))

    def inverse(self) -> "LinearFamily":
        from .errors import Singular
        mats = []
        for a, m in enumerate(self.maps):
            try:
                mats.append(mat_inverse(m))
            except Singular:
                raise Singular(
                    f"structure map at index {self.omega.elements[a]!r} is singular",
                    index=self.omega.elements[a])
        return LinearFamily(self.omega, self.dim, tuple(mats))

    def commutes_with(self, other: "LinearFamily") -> tuple[bool, int | None]:
        """Elementwise commutation over all index pairs; returns first bad pair."""
        for a in self.omega.indices():
            for b in self.omega.indices():
                if not mats_commute(self.maps[a], other.maps[b]):
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
                 products: Mapping[str, BilinearFamily] | tuple,
                 p: LinearFamily, q: LinearFamily,
                 provenance: Provenance | None = None) -> AlgebraInstance:
    """Validate shapes and the commuting p/q invariant, then build."""
    if isinstance(products, Mapping):
        items = tuple(products.items())
    else:
        items = tuple(products)
    slots = tuple(name for name, _ in items)
    if slots != kind.product_slots:
        raise ShapeMismatch(
            f"kind {kind.value} expects products {kind.product_slots}, got {slots}")
    dims = {fam.dim for _, fam in items} | {p.dim, q.dim}
    if len(dims) != 1:
        raise ShapeMismatch(f"inconsistent dimensions {sorted(dims)}")
    dim = dims.pop()
    for _, fam in items:
        if fam.omega != omega:
            raise ShapeMismatch("product family indexed by a different semigroup")
    if p.omega != omega or q.omega != omega:
        raise ShapeMismatch("structure maps indexed by a different semigroup")
    for a in omega.indices():
        if not mats_commute(p.maps[a], q.maps[a]):
            raise NonCommutingStructureMaps(omega.elements[a])
    return AlgebraInstance(kind, omega, dim, items, p, q, provenance)


@dataclass(frozen=True)
class RotaBaxterFamily:
    """A candidate family of operators with a weight; the defining
    identity is a checkable property, not a constructor invariant."""

    maps: LinearFamily
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", frac(self.weight))
