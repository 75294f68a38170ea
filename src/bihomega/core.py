"""Carrier types: indexed bilinear products, map families, algebra instances."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, islice, product
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterator, Sequence

from .errors import NonCommutingStructureMaps, ShapeMismatch, Singular
from .linalg import (Matrix, Vector, frac, mat_inverse, mat_mul, mats_commute,
                     vec, zero_vector)
from .semigroup import SemigroupTable

# the nonzero cells of one block: (i, ((j, e_i * e_j), ...)) rows, listing
# only the i and j whose product is nonzero, in ascending order
SparseBlock = tuple[tuple[int, tuple[tuple[int, tuple], ...]], ...]
Blocks = tuple[tuple[SparseBlock, ...], ...]  # [a][b] -> one SparseBlock
Key = tuple[int, int, int, int]                # (a, b, i, j)
# a vector as (nums, dens), its coordinate k nums[k] / dens[k], not
# reduced; 0/0 reads as 0
Ratios = tuple[Sequence[int], Sequence[int]]


def block_times(block: SparseBlock, dim: int, x, y) -> tuple:
    """x * y under one sparse block, each coordinate summed from int 0."""
    out = [0] * dim
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


# a block of more nonzero coefficients than this is multiplied by
# block_times.  Measured on the RB search over C1 at d = 4 with entries
# {0, 1} (65,536 candidates, the densest blocks a search of more than
# one candidate reaches under the default budget): at 24 to 64 terms
# the kernel was as fast as block_times or up to 12 % faster.  Past 64
# terms (d >= 5) a search under the default budget has one candidate,
# where compiling loses: about 1 to 5 ms more per search at d = 5, 6
KERNEL_TERMS = 64


def block_kernel(block: SparseBlock, dim: int) -> Callable[[Sequence, Sequence], tuple]:
    """A function of two int vectors x and y equal to block_times(block,
    dim, x, y): straight-line code that sums, into each coordinate k,
    x_i * (c * y_j + ...) over the block's nonzero coefficients c of
    e_k, or block_times itself past KERNEL_TERMS of them.  The source is
    built from indices alone, as x0, y1 and c2; every coefficient is
    bound as a default argument, never written into it."""
    nonzero = ((i, j, k, c) for i, row in block for j, cell in row
               for k, c in enumerate(cell) if c)
    terms = list(islice(nonzero, KERNEL_TERMS + 1))
    if len(terms) > KERNEL_TERMS:
        return partial(block_times, block, dim)
    sums: list[dict[int, list[str]]] = [{} for _ in range(dim)]
    for n, (i, j, k, _) in enumerate(terms):
        sums[k].setdefault(i, []).append(f"c{n}*y{j}")
    out = "".join(" + ".join(f"x{i}*({' + '.join(ys)})" for i, ys in s.items())
                  + ", " if s else "0, " for s in sums)
    xs, ys = ("".join(f"{v}{i}, " for i in range(dim)) for v in "xy")
    params = "".join(f", c{n}=None" for n in range(len(terms)))
    scope: dict = {}
    exec(f"def kernel(x, y{params}):\n ({xs}) = x\n ({ys}) = y\n"
         f" return ({out})\n", scope)
    kernel = scope["kernel"]
    kernel.__defaults__ = tuple(c for *_, c in terms)
    return kernel


def lowest_terms(v: int, den: int) -> tuple[int, int]:
    """v / den, den > 0, as the numerator and denominator of a Fraction."""
    g = gcd(v, den)
    return v // g, den // g


@dataclass(frozen=True)
class BilinearFamily:
    """One bilinear product per index pair (a, b), stored as its nonzero
    cells in integers over one denominator: blocks[a][b] is a SparseBlock
    of int vectors, where the vector of e_i *_{a,b} e_j times den gives
    its coefficient of each e_k.  den is the lcm of the cells' reduced
    denominators, so it and the ints have no common factor; zero
    products are left out.  So equal families have equal fields.  Build
    one with `from_cells`, `from_ratios`, `from_ints`, `from_function`
    or `zero`; `basis_product` gives a Fraction vector and `apply` ints."""

    omega: SemigroupTable
    dim: int
    blocks: Blocks
    den: int

    @staticmethod
    def from_ints(omega: SemigroupTable, dim: int,
                  cells: dict[Key, tuple[int, ...]], den: int) -> "BilinearFamily":
        """The family whose e_i *_{a,b} e_j is cells[a, b, i, j] / den, a
        tuple of ints over den > 0, and zero at every key left out."""
        if den < 1:
            raise ValueError(f"den must be positive, got {den}")
        n = omega.order
        g = gcd(den, *chain.from_iterable(cells.values()))
        grid: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
        for (a, b, i, j), cell in cells.items():
            if not (0 <= a < n and 0 <= b < n and 0 <= i < dim and 0 <= j < dim
                    and len(cell) == dim):
                raise ShapeMismatch(f"cell {(a, b, i, j)} must be a vector of length "
                                    f"{dim} in {n}x{n} blocks of {dim}x{dim}")
            if any(cell):
                grid[a][b].setdefault(i, {})[j] = (
                    tuple(v // g for v in cell) if g > 1 else tuple(cell))
        return BilinearFamily(omega, dim, tuple(
            tuple(tuple((i, tuple(sorted(block[i].items()))) for i in sorted(block))
                  for block in row) for row in grid), den // g)

    @staticmethod
    def from_ratios(omega: SemigroupTable, dim: int,
                    cells: dict[Key, Ratios]) -> "BilinearFamily":
        """The family whose e_i *_{a,b} e_j is cells[a, b, i, j], stored
        over the lcm of every denominator, and zero at every key left out."""
        dens = {d for _, ds in cells.values() for d in ds}
        den = lcm(*dens - {0})
        scale = {d: d and den // d for d in dens}.__getitem__
        return BilinearFamily.from_ints(omega, dim, {
            key: tuple(map(mul, nums, map(scale, ds)))
            for key, (nums, ds) in cells.items()}, den)

    @staticmethod
    def from_cells(omega: SemigroupTable, dim: int,
                   cells: dict[Key, Vector]) -> "BilinearFamily":
        """The family whose e_i *_{a,b} e_j is cells[a, b, i, j], a vector
        of rationals, and zero at every key left out."""
        ratios = {key: [v.as_integer_ratio() for v in vec(cell)]
                  for key, cell in cells.items()}
        den = lcm(*{d for cell in ratios.values() for _, d in cell})
        return BilinearFamily.from_ints(omega, dim, {
            key: tuple([n * (den // d) for n, d in cell])
            for key, cell in ratios.items()}, den)

    @staticmethod
    def from_function(omega: SemigroupTable, dim: int,
                      fn: Callable[[int, int, int, int], Vector]) -> "BilinearFamily":
        """Build from fn(a, b, i, j) -> coefficient vector of e_i *_{a,b} e_j."""
        keys = product(omega.indices(), omega.indices(), range(dim), range(dim))
        return BilinearFamily.from_cells(omega, dim, {k: fn(*k) for k in keys})

    @staticmethod
    def zero(omega: SemigroupTable, dim: int) -> "BilinearFamily":
        return BilinearFamily.from_ints(omega, dim, {}, 1)

    def int_cells(self) -> Iterator[tuple[Key, tuple[int, ...]]]:
        """((a, b, i, j), e_i *_{a,b} e_j times den) for each nonzero
        product, in order."""
        for a, row in enumerate(self.blocks):
            for b, block in enumerate(row):
                for i, cells_i in block:
                    for j, cell in cells_i:
                        yield (a, b, i, j), cell

    def basis_product(self, a: int, b: int, i: int, j: int) -> Vector:
        """e_i *_{a,b} e_j, read from the stored cells."""
        n, d = self.omega.order, self.dim
        if not (0 <= a < n and 0 <= b < n and 0 <= i < d and 0 <= j < d):
            raise ShapeMismatch(f"cell {(a, b, i, j)} is out of range for "
                                f"{n}x{n} blocks of {d}x{d}")
        cell = dict(dict(self.blocks[a][b]).get(i, ())).get(j)
        return zero_vector(d) if cell is None else tuple(
            Fraction(v, self.den) for v in cell)

    @cached_property
    def _int_forms(self) -> dict[int, Blocks]:
        return {self.den: self.blocks}

    def int_tensor(self, den: int) -> Blocks:
        """The blocks times den / self.den, for den a multiple of
        self.den: the same SparseBlock rows with int vectors over den,
        built once per den."""
        forms = self._int_forms
        if den not in forms:
            if den % self.den:
                raise ValueError(f"den {den} is not a multiple of {self.den}")
            k = den // self.den
            forms[den] = tuple(tuple(tuple(
                (i, tuple((j, tuple(k * v for v in cell)) for j, cell in cells_i))
                for i, cells_i in block) for block in row) for row in self.blocks)
        return forms[den]

    def apply(self, a: int, b: int, x: Sequence, y: Sequence, den: int) -> tuple:
        """x *_{a,b} y times den, for den a multiple of self.den: x, y and
        the result are int vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch(f"vectors must have length {self.dim}")
        return block_times(self.int_tensor(den)[a][b], self.dim, x, y)


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
        return LinearFamily.constant(omega, Matrix.identity(dim))

    @staticmethod
    def constant(omega: SemigroupTable, m: Matrix) -> "LinearFamily":
        return LinearFamily(omega, m.rows, tuple(m for _ in omega.indices()))

    def matrix(self, a: int) -> Matrix:
        return self.maps[a]

    def apply(self, a: int, x: Sequence, den: int) -> tuple:
        """maps[a].apply(x, den); no library caller, kept for perfbench's tracer."""
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
                      ) -> tuple[bool, tuple[int, int] | None]:
        """Elementwise commutation over all index pairs, each decided by
        `commute`; returns the first bad pair (a, b), self's a and other's b."""
        if self.dim != other.dim or self.omega != other.omega:
            raise ShapeMismatch("cannot commute mismatched families")
        for a in self.omega.indices():
            for b in self.omega.indices():
                if not commute(self.maps[a], other.maps[b]):
                    return False, (a, b)
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
            for piece in _dense_repr(fam):
                h.update(piece.encode())
        h.update(repr(self.p.maps).encode())
        h.update(repr(self.q.maps).encode())
        return h.hexdigest()[:16]


def _tuple_repr(items: list[str]) -> str:
    """The repr of a tuple whose items have these reprs."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _dense_repr(fam: BilinearFamily) -> Iterator[str]:
    """Piece by piece, the repr of the nest of tuples whose [a][b][i][j]
    is fam.basis_product(a, b, i, j), made from the nonzero cells: the
    zero vector's repr is made once, and so is a row's with no cell."""
    d, den = fam.dim, fam.den
    zero = repr(zero_vector(d))
    empty_row = _tuple_repr([zero] * d)
    # each level closes as a tuple of n or of d items does
    close_n = ",)" if fam.omega.order == 1 else ")"
    close_d = ",)" if d == 1 else ")"

    def cell_repr(cell: tuple[int, ...]) -> str:
        return _tuple_repr(["Fraction(%d, %d)" % lowest_terms(v, den) for v in cell])

    yield "("
    for a, blocks in enumerate(fam.blocks):
        yield ", (" if a else "("
        for b, block in enumerate(blocks):
            yield ", (" if b else "("
            rows = dict(block)
            for i in range(d):
                cells = dict(rows.get(i, ()))
                if i:
                    yield ", "
                yield _tuple_repr([cell_repr(cells[j]) if j in cells else zero
                                   for j in range(d)]) if cells else empty_row
            yield close_d
        yield close_n
    yield close_n


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
