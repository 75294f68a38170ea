"""The search's pruning cells: one generated int function per (axiom,
index tuple), in place of the closures of `_Cells`.

A function walks its cell's basis tuples in `mismatches`' order and
returns the first mismatch, or None.  It reads the maps' int columns
from the binding's lists when it runs, so one compiled cell serves every
rebind, and its code is kept process-wide.  No checker calls one: the
checkers decide on `_Cells` alone."""

from __future__ import annotations

from itertools import product
from types import CodeType, FunctionType
from typing import Callable

from .checkers import (Axiom, Map, Mul, Term, Var, _Cells, _one_index,
                       _sum_parts, mismatches, term_degree, term_positions,
                       term_reads)

# a cell whose source runs past this many lines is evaluated by
# `mismatches` instead.  Measured (2-core x86_64, CPython 3.11.7) on RB
# searches at weight 1 over C1 with a dense product of entries in
# {-1, 0, 1}, whose identity cell has 147, 340, 655 and 1,122 lines at
# d = 3 to 6: at d = 4 over the entries {0, 1} (65,536 candidates, the
# largest d at which a search under the default budget has more than
# one) generated cells took 2.6 s against 4.0 s; at d = 5 and 6 there is
# one candidate, and compiling took 42 and 47 ms against 2 ms.
CELL_LINES = 400

# compiled cells, oldest dropped first past _CACHED_LINES lines of source
# in all (a line compiles to about 0.4 KB), each entry counted one line
# more: key -> None where both sides are zero, else (lines, code or None
# past CELL_LINES, the values bound as default arguments); and a source
# -> (lines, its code, ()), so that cells whose data alone differ, the
# indices and coefficients, are compiled once
_CELL_CODE: dict[tuple | str, tuple[int, CodeType | None, tuple] | None] = {}
_CACHED_LINES = 20_000
_cached_lines = 0
_MISSING = object()
_ONE = object()  # the component 1 of a basis vector


class _TooLong(Exception):
    """A cell's source ran past CELL_LINES."""


def first_mismatch(axiom: Axiom, cells: _Cells
                   ) -> Callable[[tuple[int, ...]], Callable[[], tuple | None] | None]:
    """fn(index tuple) -> None where both sides are zero there, else a
    function of no arguments that returns what `mismatches` yields first
    there, (basis tuple, lhs, rhs), or None where it yields nothing.

    Each index tuple gets one generated function (see `_CellSource`)
    bound to cells.cols, or past CELL_LINES lines of source, `mismatches`
    on cells.  The code is kept, keyed by the axiom, the index tuple and
    all its source depends on: the dim, den, weight, table and product
    blocks at den; a repeated key is neither walked nor compiled again."""
    maps = sorted(term_reads(axiom.lhs)[1] | term_reads(axiom.rhs)[1])
    lists = tuple(cells.cols[name] for name in maps)
    data = (axiom, cells.dim, cells.den, cells.weight, cells.omega.table,
            tuple(sorted((name, fam.int_tensor(cells.den))
                         for name, fam in cells.products.items())))
    fallback = []

    def at(idx):
        key = idx, data
        entry = _CELL_CODE.get(key, _MISSING)
        if entry is _MISSING:
            entry = _CellSource(axiom, idx, cells, maps).compiled()
            _keep(key, entry)
        if entry is None:
            return None
        _, code, consts = entry
        if code is not None:
            return FunctionType(code, {}, "cell", lists + consts)
        if not fallback:
            fallback.append(mismatches(axiom, cells)[1])
        return lambda: next(fallback[0](idx), None)
    return at


def _keep(key: tuple, entry) -> None:
    global _cached_lines
    _cached_lines += _size(entry) - _size(_CELL_CODE.pop(key, _MISSING))
    _CELL_CODE[key] = entry
    while _cached_lines > _CACHED_LINES:
        _cached_lines -= _size(_CELL_CODE.pop(next(iter(_CELL_CODE))))


def _size(entry) -> int:
    return 0 if entry is _MISSING else 1 + (entry[0] if entry else 0)


def _product_of(x, y):
    """x * y, as source, for components that are names or _ONE."""
    return y if x is _ONE else x if y is _ONE else f"{x}*{y}"


class _CellSource:
    """The source of one cell, (axiom, index tuple), as one straight-line
    function: the basis tuples in `mismatches`' order, each ending in a
    return of (basis tuple, lhs, rhs) if its sides differ.  Each sub-term
    is computed once per assignment of the variables it reads, at its
    first use, into locals v0, v1, ...  A vector is a list of
    components, each a name, _ONE or None for 0, and the blocks' zeros
    are left out of the source.  The maps, M0, M1, ... in the order of
    their names, are each a list of an index's columns, read when the
    function runs.  Every index of Omega, coefficient, multiplier of a
    sum and lift of a side is a default argument c0, c1, ...; so the
    source holds index-derived names and basis indices, and no data."""

    def __init__(self, axiom: Axiom, idx: tuple[int, ...], cells: _Cells,
                 maps: list[str]):
        self.axiom, self.idx, self.cells, self.dim = axiom, idx, cells, cells.dim
        self.table = cells.omega.table
        self.tensors = {name: fam.int_tensor(cells.den)
                        for name, fam in cells.products.items()}
        self.params = {name: f"M{n}" for n, name in enumerate(maps)}
        self.lines: list[str] = []
        self.consts: dict = {}
        self.shapes: dict[Term, tuple] = {}
        self.values: dict = {}
        self.columns: dict = {}

    def compiled(self) -> tuple[int, CodeType | None, tuple] | None:
        """None where both sides are zero at idx, else (lines, code or
        None past CELL_LINES, the default values).  Where both are
        nonzero at different indices, IllTypedTerm is raised."""
        ax, d = self.axiom, self.dim
        (a, live_l), (b, live_r) = self.shape(ax.lhs), self.shape(ax.rhs)
        if not live_l and not live_r:
            return None
        if live_l and live_r:
            _one_index(self.cells.omega.elements, [(a, ax.lhs), (b, ax.rhs)])
        dl, dr = term_degree(ax.lhs), term_degree(ax.rhs)
        den, degree = self.cells.den, max(dl, dr)
        lifts = [self.multiplier(den ** (degree - dl)),
                 self.multiplier(den ** (degree - dr))]
        try:
            for bas in product(range(d), repeat=ax.arity):
                sides = [[self.lifted(lift, x) for x in self.value(side, bas)]
                         for lift, side in zip(lifts, (ax.lhs, ax.rhs))]
                # a component against a zero one is tested for truth
                differ = [f"{x} != {y}" if "0" not in (x, y) else
                          (x if y == "0" else y)
                          for x, y in zip(*sides) if x != y]
                if differ:
                    self.emit(f"if {' or '.join(differ)}: return {bas}, "
                              + ", ".join(f"({', '.join(s)},)" for s in sides))
        except _TooLong:
            return len(self.lines), None, ()
        names = self.consts.values()
        params = [*(f"{p}=None" for p in self.params.values()),
                  *(f"{name}=None" for name, _ in names)]
        source = (f"def cell({', '.join(params)}):\n"
                  + "".join(f" {line}\n" for line in self.lines) + " return None\n")
        # cells that differ in their data alone share one code object
        if source not in _CELL_CODE:
            scope: dict = {}
            exec(source, scope)
            _keep(source, (len(self.lines), scope["cell"].__code__, ()))
        return (len(self.lines), _CELL_CODE[source][1],
                tuple(value for _, value in names))

    def emit(self, line: str) -> None:
        self.lines.append(line)
        if len(self.lines) > CELL_LINES:
            raise _TooLong

    def multiplier(self, m: int):
        """m as a factor: _ONE for 1, else a default argument."""
        return _ONE if m == 1 else self.const(("times", m), m)

    def const(self, key: tuple, value: int) -> str:
        """The default argument that holds value, one per key."""
        if key not in self.consts:
            self.consts[key] = (f"c{len(self.consts)}", value)
        return self.consts[key][0]

    @staticmethod
    def lifted(lift, x) -> str:
        """Component x times lift, as source; "0" for a zero one."""
        if x is None:
            return "0"
        return "1" if x is _ONE and lift is _ONE else _product_of(lift, x)

    def assign(self, terms: list[str]):
        """The sum of these source terms as one component: a new local,
        unless it is one name or none."""
        if not terms:
            return None
        if len(terms) == 1 and terms[0].isidentifier():
            return terms[0]
        name = f"v{len(self.lines)}"
        self.emit(f"{name} = {' + '.join(terms).replace('+ -', '- ')}")
        return name

    def shape(self, term: Term) -> tuple:
        """(index, whether the term is nonzero) at idx, as `_Cells`
        binds it; a sum whose nonzero terms sit at more than one index
        raises IllTypedTerm."""
        if term not in self.shapes:
            if isinstance(term, Var):
                shape = self.idx[term.pos], True
            elif isinstance(term, Map):
                shape = self.shape(term.arg)
            elif isinstance(term, Mul):
                (a, la), (b, lb) = self.shape(term.left), self.shape(term.right)
                shape = self.table[a][b], la and lb and bool(
                    self.tensors[term.slot][a][b])
            else:
                parts = [self.shape(t) + (t,) for _, t in
                         _sum_parts(term, self.cells.den, self.cells.lam)]
                live = [(a, t) for a, alive, t in parts if alive]
                _one_index(self.cells.omega.elements, live)
                shape = (parts[0][0], bool(live)) if parts else (None, False)
            self.shapes[term] = shape
        return self.shapes[term]

    def value(self, term: Term, bas: tuple[int, ...]) -> list:
        """The term's components at basis tuple bas, emitting the lines
        that compute them the first time they are asked for."""
        key = term, tuple([bas[v] for v in term_positions(term)])
        if key in self.values:
            return self.values[key]
        (index, live), d = self.shape(term), self.dim
        if not live:
            vector = [None] * d
        elif isinstance(term, Var):
            vector = [_ONE if k == bas[term.pos] else None for k in range(d)]
        elif isinstance(term, Map) and isinstance(term.arg, Var):
            vector = self.column(term.name, index, bas[term.arg.pos])
        elif isinstance(term, Map):
            inner = self.value(term.arg, bas)
            cols = {j: self.column(term.name, index, j)
                    for j, x in enumerate(inner) if x is not None}
            vector = [self.assign([_product_of(cols[j][k], x)
                                   for j, x in enumerate(inner) if x is not None])
                      for k in range(d)]
        elif isinstance(term, Mul):
            vector = self.times(term, bas)
        else:
            sums: list[list[str]] = [[] for _ in range(d)]
            for m, t in _sum_parts(term, self.cells.den, self.cells.lam):
                for k, x in enumerate(self.value(t, bas)):
                    if x is not None:
                        sums[k].append(
                            "-" + ("1" if x is _ONE else x) if m == -1 else
                            self.lifted(self.multiplier(m), x))
            vector = [self.assign(s) for s in sums]
        self.values[key] = vector
        return vector

    def times(self, term: Mul, bas: tuple[int, ...]) -> list:
        """x * y under the product's block at the arguments' indices:
        into each component k, x_i * (c * y_j + ...) over the nonzero
        coefficients c of e_k in e_i * e_j."""
        x, y = self.value(term.left, bas), self.value(term.right, bas)
        a, b = self.shape(term.left)[0], self.shape(term.right)[0]
        sums: list[list[str]] = [[] for _ in range(self.dim)]
        for i, row in self.tensors[term.slot][a][b]:
            if x[i] is None:
                continue
            ys: dict[int, list[str]] = {}
            for j, cell in row:
                if y[j] is not None:
                    for k, c in enumerate(cell):
                        if c:
                            ys.setdefault(k, []).append(_product_of(
                                self.const((term.slot, a, b, i, j, k), c), y[j]))
            for k, terms in ys.items():
                if x[i] is _ONE or len(terms) == 1:
                    sums[k].extend(_product_of(x[i], t) for t in terms)
                else:
                    sums[k].append(f"{x[i]}*({' + '.join(terms)})")
        return [self.assign(s) for s in sums]

    def column(self, name: str, a: int, j: int) -> list[str]:
        """Column j of map `name` at index a, unpacked into locals once."""
        if (name, a, j) not in self.columns:
            names = [f"m{len(self.columns)}_{k}" for k in range(self.dim)]
            index = self.const(("index", a), a)
            self.emit(f"{', '.join(names)}, = {self.params[name]}[{index}][{j}]")
            self.columns[name, a, j] = names
        return self.columns[name, a, j]
