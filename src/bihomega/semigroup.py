"""Finite semigroups as explicit Cayley tables."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import ShapeMismatch
from .reports import DEFAULT_WITNESS_CAP, CheckReport, collect


@dataclass(frozen=True)
class SemigroupTable:
    """A finite semigroup given by a multiplication table.

    table[i][j] is the index of elements[i] * elements[j].  The
    commutative flag is a claim checked by validate_semigroup, not an
    enforced invariant.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    commutative: bool = False

    def __post_init__(self):
        n = len(self.elements)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ShapeMismatch(f"table must be {n}x{n}")
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise ShapeMismatch(f"table entry {v} out of range [0,{n})")

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        n = self.order
        if not (0 <= a < n and 0 <= b < n):
            raise ShapeMismatch(f"element index out of range [0,{n})")
        return self.table[a][b]

    def indices(self) -> range:
        return range(self.order)


def trivial_semigroup() -> SemigroupTable:
    return SemigroupTable(("e",), ((0,),), commutative=True)


def cyclic_group(n: int, names: tuple[str, ...] | None = None) -> SemigroupTable:
    elements = names or tuple(f"g{i}" for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return SemigroupTable(elements, table, commutative=True)


def left_zero_semigroup(n: int) -> SemigroupTable:
    elements = tuple(chr(ord("a") + i) for i in range(n))
    table = tuple(tuple(i for _ in range(n)) for i in range(n))
    return SemigroupTable(elements, table, commutative=False)


# (name, arity, law): law(table, *indices) gives the two sides' indices
_LAWS = (("associativity", 3, lambda m, i, j, k: (m[m[i][j]][k], m[i][m[j][k]])),
         ("commutativity", 2, lambda m, i, j: (m[i][j], m[j][i])))


def validate_semigroup(t: SemigroupTable,
                       max_witnesses: int = DEFAULT_WITNESS_CAP) -> CheckReport:
    """Check associativity and, if flagged, commutativity of the table.

    Witness vectors hold the two composite element indices that disagree.
    """
    return CheckReport(subject="semigroup", results=tuple(
        collect(name, t.elements, (
            (idx, (((), (lhs,), (rhs,)),))
            for idx in product(t.indices(), repeat=arity)
            for lhs, rhs in (law(t.table, *idx),) if lhs != rhs), max_witnesses)
        for name, arity, law in (_LAWS if t.commutative else _LAWS[:1])))


def is_commutative_table(t: SemigroupTable) -> bool:
    n = t.order
    return all(t.mul(i, j) == t.mul(j, i) for i in range(n) for j in range(n))
