"""Exhaustive basis-evaluation checkers for every defining identity.

By multilinearity an identity holds for all vectors iff it holds on all
basis tuples.  Each identity is an `Axiom`: a name, an arity and two
sides built from four term forms, all checked by one evaluator."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import lcm
from operator import add, itemgetter, sub
from typing import Callable, Iterator, Union

from .core import (ASSOCIATIVE_KINDS, AlgebraInstance, AlgebraKind,
                   BilinearFamily, LinearFamily, RotaBaxterFamily)
from .errors import (IllTypedTerm, KindMismatch, NonCommutativeOmega,
                     ShapeMismatch)
from .linalg import Matrix, Vector, frac
from .reports import DEFAULT_WITNESS_CAP, CheckReport, collect
from .semigroup import is_commutative_table


# -- term forms ---------------------------------------------------------
# A term's index is the semigroup product of its arguments' indices, read
# left to right; a variable's index is its own, a sum's its first term's, and
# the gates read off `term_reads` keep all of a table entry's monomials there.

Var = namedtuple("Var", "pos")  # the basis vector at position pos
Mul = namedtuple("Mul", "slot left right")  # product `slot` at the args' indices
Map = namedtuple("Map", "name arg")  # map family `name` at the arg's index
Sum = namedtuple("Sum", "terms")  # (coefficient, term) pairs; "lam": RB weight
Axiom = namedtuple("Axiom", "name arity lhs rhs")
Term = Union[Var, Mul, Map, Sum]


def on(name: str) -> Callable[[Term], Term]:
    """Map family `name` as a term function: p(q(X)) is
    Map("p", Map("q", X))."""
    return partial(Map, name)


def plus(*terms: Term) -> Sum:
    return Sum(tuple((1, t) for t in terms))


def minus(left: Term, right: Term) -> Sum:
    return Sum(((1, left), (-1, right)))


X, Y, Z = Var(0), Var(1), Var(2)
p, q, R, f = on("p"), on("q"), on("R"), on("f")


@cache
def term_reads(term: Term) -> tuple[frozenset[tuple[int, ...]], frozenset[str]]:
    """A term's index words (each monomial's variables in order) and maps read."""
    if isinstance(term, Var):
        return frozenset({(term.pos,)}), frozenset()
    if isinstance(term, Map):
        words, maps = term_reads(term.arg)
        return words, maps | {term.name}
    if isinstance(term, Mul):
        (lw, lm), (rw, rm) = term_reads(term.left), term_reads(term.right)
        return frozenset(u + v for u in lw for v in rw), lm | rm
    words, maps = zip((frozenset(),) * 2, *(term_reads(t) for _, t in term.terms))
    return frozenset().union(*words), frozenset().union(*maps)


@cache
def term_positions(term: Term) -> tuple[int, ...]:
    """The positions of the variables a term reads, in ascending order."""
    return tuple(sorted({v for word in term_reads(term)[0] for v in word}))


@cache
def term_degree(term: Term) -> int:
    """The power of the binding's den that a term's int vector carries:
    0 for a variable, 1 plus its arguments' for a product or a map, and
    for a sum its terms' largest, a "lam" term's one up, counted even at
    weight 0; a term whose coefficient is 0 does not count."""
    if isinstance(term, Var):
        return 0
    if isinstance(term, Map):
        return 1 + term_degree(term.arg)
    if isinstance(term, Mul):
        return 1 + term_degree(term.left) + term_degree(term.right)
    return max((term_degree(t) + (c == "lam") for c, t in term.terms if c),
               default=0)


# -- the axiom tables ---------------------------------------------------

def _mult(m: str, prefix: str = "") -> tuple[Axiom, ...]:
    # g_{ab}(x *_{a,b} y) = g_a(x) *_{a,b} g_b(y) for g = p, q
    return tuple(Axiom(f"{prefix}{name}-multiplicativity", 2, g(Mul(m, X, Y)),
                       Mul(m, g(X), g(Y))) for name, g in (("p", p), ("q", q)))


def _associator(m: str, u: Var, v: Var, w: Var) -> Sum:
    return minus(Mul(m, p(q(u)), Mul(m, p(v), w)),
                 Mul(m, Mul(m, q(u), p(v)), q(w)))


def _prelie(m: str, prefix: str = "") -> tuple[Axiom, ...]:
    # the associator is symmetric in x and y
    return _mult(m, prefix) + (Axiom(prefix + "prelie-identity", 3,
                                     _associator(m, X, Y, Z),
                                     _associator(m, Y, X, Z)),)


def _lie(m: str, prefix: str = "") -> tuple[Axiom, ...]:
    return _mult(m, prefix) + (
        Axiom(prefix + "skew-symmetry", 2, Mul(m, q(X), p(Y)),
              Sum(((-1, Mul(m, q(Y), p(X))),))),
        Axiom(prefix + "jacobi", 3,
              plus(*(Mul(m, q(q(u)), Mul(m, q(v), p(w)))
                     for u, v, w in ((X, Y, Z), (Y, Z, X), (Z, X, Y)))),
              Sum(())))


def _zinbiel(m: str, prefix: str = "") -> tuple[Axiom, ...]:
    return _mult(m, prefix) + (Axiom(
        prefix + "zinbiel-identity", 3, Mul(m, p(q(X)), Mul(m, p(Y), Z)),
        plus(Mul(m, Mul(m, q(X), p(Y)), q(Z)),
             Mul(m, Mul(m, q(Y), p(X)), q(Z)))),)


_ASSOCIATIVE = _mult("mul") + (Axiom(
    "bihom-associativity", 3, Mul("mul", p(X), Mul("mul", Y, Z)),
    Mul("mul", Mul("mul", X, Y), q(Z))),)

KIND_AXIOMS: dict[AlgebraKind, tuple[Axiom, ...]] = {
    AlgebraKind.OMEGA_ASSOCIATIVE: _ASSOCIATIVE,
    AlgebraKind.BIHOM_ASSOCIATIVE: _ASSOCIATIVE,
    AlgebraKind.DENDRIFORM: _mult("prec", "prec-") + _mult("succ", "succ-") + (
        Axiom("dendriform-left", 3, Mul("prec", Mul("prec", X, Y), q(Z)),
              Mul("prec", p(X), plus(Mul("prec", Y, Z), Mul("succ", Y, Z)))),
        Axiom("dendriform-middle", 3, Mul("prec", Mul("succ", X, Y), q(Z)),
              Mul("succ", p(X), Mul("prec", Y, Z))),
        Axiom("dendriform-right", 3, Mul("succ", p(X), Mul("succ", Y, Z)),
              Mul("succ", plus(Mul("prec", X, Y), Mul("succ", X, Y)), q(Z)))),
    AlgebraKind.PRELIE: _prelie("triangle"),
    AlgebraKind.LIE: _lie("bracket"),
    AlgebraKind.POSTLIE: _lie("bracket", "bracket-")
    + _mult("triangle", "triangle-") + (
        Axiom("postlie-first-identity", 3,
              Mul("triangle", Mul("bracket", q(X), p(Y)), q(Z)),
              minus(_associator("triangle", X, Y, Z),
                    _associator("triangle", Y, X, Z))),
        Axiom("postlie-second-identity", 3,
              Mul("triangle", p(q(X)), Mul("bracket", Y, Z)),
              plus(Mul("bracket", Mul("triangle", q(X), Y), q(Z)),
                   Mul("bracket", q(Y), Mul("triangle", p(X), Z))))),
    AlgebraKind.ZINBIEL: _zinbiel("star"),
    AlgebraKind.PREPOISSON: _prelie("triangle", "triangle-")
    + _zinbiel("star", "star-") + (
        Axiom("prepoisson-first-identity", 3,
              Mul("star", minus(Mul("triangle", q(X), p(Y)),
                                Mul("triangle", q(Y), p(X))), q(Z)),
              minus(Mul("triangle", p(q(X)), Mul("star", p(Y), Z)),
                    Mul("star", p(q(Y)), Mul("triangle", p(X), Z)))),
        Axiom("prepoisson-second-identity", 3,
              Mul("triangle", plus(Mul("star", q(X), p(Y)),
                                   Mul("star", q(Y), p(X))), q(Z)),
              plus(Mul("star", p(q(X)), Mul("triangle", p(Y), Z)),
                   Mul("star", p(q(Y)), Mul("triangle", p(X), Z))))),
}

# a non-commutative Omega may put monomials at different words at different indices
COMMUTATIVE_OMEGA_KINDS = frozenset(
    kind for kind, axioms in KIND_AXIOMS.items()
    if any(len(term_reads(ax.lhs)[0] | term_reads(ax.rhs)[0]) > 1 for ax in axioms))


def rota_baxter_product(m: str) -> Sum:
    """x.R(y) + R(x).y + lam x.y over product m: R(x).R(y) = R of it is the
    weight-lam identity, and rb_star_associative and rb_bracket_lie build it."""
    return Sum(((1, Mul(m, X, R(Y))), (1, Mul(m, R(X), Y)), ("lam", Mul(m, X, Y))))


@cache
def rota_baxter_axioms(slots: tuple[str, ...]) -> tuple[Axiom, ...]:
    """R(x).R(y) = R(x.R(y) + R(x).y + lam x.y) per product; R commutes with p, q."""
    return tuple(Axiom(f"rb-identity-{m}", 2, Mul(m, R(X), R(Y)),
                       R(rota_baxter_product(m))) for m in slots) + (
        Axiom("rb-commutes-p", 1, R(p(X)), p(R(X))),
        Axiom("rb-commutes-q", 1, R(q(X)), q(R(X))))


@cache
def morphism_axioms(slots: tuple[str, ...]) -> tuple[Axiom, ...]:
    """f(x.y) = f(x).'f(y) on every product, where slot' is the target's,
    then P(f(x)) = f(p(x)) and Q(f(x)) = f(q(x)) for the target's P, Q."""
    return tuple(Axiom(f"morphism-{m}", 2, f(Mul(m, X, Y)),
                       Mul(m + "'", f(X), f(Y))) for m in slots) + (
        Axiom("intertwine-p", 1, on("P")(f(X)), f(p(X))),
        Axiom("intertwine-q", 1, on("Q")(f(X)), f(q(X))))


# -- the evaluator ------------------------------------------------------

IntVector = tuple[int, ...]
Bind = Callable[[tuple[int, ...]], tuple[int, Callable[[tuple[int, ...]], IntVector] | None]]


class _Cells:
    """The data one checker call, one construction or one whole search
    reads, in integers over one common denominator `den`, and the terms
    it has compiled.  A search makes one: its generated cells prune on
    it (see `cellgen.first_mismatch`), reading which terms are zero and
    where each sits from its bound terms, and the checker decides every
    hit on it.

    den is the lcm of `den`, of every denominator of the products and
    the maps, and of the weight's.  The binding holds each product's
    nonzero cells over den (its `int_tensor`: the ints it stores over
    its own den, scaled by den / fam.den), each map's matrix per
    index with its `int_cols` beside it, lam and the memos of the
    sub-terms that read fewer variables than their axiom.  A term
    compiles to (degree, bind): bind(index tuple) -> (its index,
    fn(basis tuple) -> its value times den ** degree, an int vector),
    its degree being `term_degree`'s.  A product of two basis vectors
    is read from its block's cells and a map of a basis vector from its
    matrix's columns, so p(q(X)) applies p to q's column.  Products are
    applied by their own `apply` at den, looked up when a term is
    compiled; a map's matrix at an index, and its columns, are looked
    up when fn runs, and the matrix's `apply` is called then.  So a
    bound term depends on its index tuple alone, and stays bound across
    rebinds.  The closures hold the binding's parts, never the binding,
    so that each binding is freed as soon as it is dropped.

    fn is None, and nothing is evaluated, where the term is zero: a
    product over an empty block or with a zero argument, a map of a zero
    term, a sum of zero terms only (still at its first term's index).
    That is decided from product blocks alone, so no rebind changes it.
    A sum whose nonzero terms sit at more than one index raises
    IllTypedTerm when it is bound there: once per index tuple, never
    per basis tuple.

    rebind(name, a, m) swaps one map's matrix and columns at one index,
    and clears every value memo; it never touches a bound term.  A
    checker handed a binding (`check_rota_baxter` and `check_morphism`
    take `cells`) rebinds the checked family at every index and reuses
    the terms bound for the families before it.  A search binds each
    index tuple once and, at each node, stores a candidate's matrix and
    columns into maps[name] and cols[name] directly, with no rebind:
    sound only because its binding holds no memo.  The
    binding keeps each axiom's `mismatches` too (`check`), so each
    index tuple's two sides are bound once per binding, not once per
    family.  made_for names what a binding was made for, as those
    checkers compare it: ("rota-baxter", instance, weight) or
    ("morphism", source, target).

    A check binds and evaluates one index tuple per class tuple of
    `index_classes`: indices whose maps, blocks and semigroup products
    no term can tell apart give every term the same value.  The blocks'
    half of that partition is numbered once per binding, in
    block_classes, since no rebind changes a product."""

    def __init__(self, inst: AlgebraInstance,
                 maps: dict[str, LinearFamily] | None = None,
                 products: dict[str, BilinearFamily] | None = None,
                 weight: Fraction = Fraction(0), den: int = 1,
                 made_for: tuple = ()):
        """Maps and products besides the instance's own, by name."""
        self.omega, self.dim, self.weight = inst.omega, inst.dim, frac(weight)
        self.made_for = made_for
        families = {"p": inst.p, "q": inst.q, **(maps or {})}
        self.products = {**dict(inst.products), **(products or {})}
        self.den = lcm(den, self.weight.denominator,
                       *(fam.den for fam in self.products.values()),
                       *(m.den for fam in families.values() for m in fam.maps))
        self.lam = self.weight.numerator * (self.den // self.weight.denominator)
        self.maps = {name: list(fam.maps) for name, fam in families.items()}
        self.cols = {name: [m.int_cols(self.den) for m in mats]
                     for name, mats in self.maps.items()}
        self.binds: dict[tuple[Term, int], tuple[int, Bind]] = {}
        self.checks: dict[Axiom, tuple[int, Callable]] = {}
        self.block_classes: list[int] | None = None
        self.memos: list[dict] = []

    def rebind(self, name: str, a: int, m: Matrix) -> None:
        """Map `name` at index a becomes m, whose den must divide
        self.den; its columns there become m's, and every memo is
        cleared."""
        self.maps[name][a] = m
        self.cols[name][a] = m.int_cols(self.den)
        for memo in self.memos:
            memo.clear()

    def rational(self, vector: IntVector, degree: int) -> Vector:
        """The value of a term of this degree from its int vector."""
        scale = self.den ** degree
        return tuple(Fraction(v, scale) for v in vector)

    def bind(self, term: Term, arity: int) -> tuple[int, Bind]:
        if (term, arity) not in self.binds:
            self.binds[term, arity] = self._compile(term, arity)
        return self.binds[term, arity]

    def check(self, axiom: Axiom) -> tuple[int, Callable]:
        """mismatches(axiom, self), made once and kept."""
        if axiom not in self.checks:
            self.checks[axiom] = mismatches(axiom, self)
        return self.checks[axiom]

    def _compile(self, term: Term, arity: int) -> tuple[int, Bind]:
        table, den, degree = self.omega.table, self.den, term_degree(term)
        if isinstance(term, Var):
            pos, d = term.pos, self.dim
            units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
            def bind_var(idx):
                return idx[pos], lambda bas: units[bas[pos]]
            return degree, bind_var
        if isinstance(term, Map) and isinstance(term.arg, Var):
            # a map of a basis vector is read from its matrix's columns
            cols, pos = self.cols[term.name], term.arg.pos
            def bind_col(idx):
                a = idx[pos]
                return a, lambda bas: cols[a][bas[pos]]
            return degree, bind_col
        if isinstance(term, Mul) and isinstance(term.left, Var) \
                and isinstance(term.right, Var):
            # a product of two basis vectors is read from its block's cells
            zero = (0,) * self.dim
            lookup = [[{(i, j): cell for i, row in block for j, cell in row}
                       for block in blocks]
                      for blocks in self.products[term.slot].int_tensor(den)]
            u, v = term.left.pos, term.right.pos
            def bind_read(idx):
                a, b = idx[u], idx[v]
                if not lookup[a][b]:
                    return table[a][b], None
                get = lookup[a][b].get
                return table[a][b], lambda bas: get((bas[u], bas[v]), zero)
            return degree, bind_read
        if isinstance(term, Mul):
            fam = self.products[term.slot]
            apply, blocks = fam.apply, fam.int_tensor(den)
            left, right = (self.bind(term.left, arity)[1],
                           self.bind(term.right, arity)[1])
            def bind(idx):
                (a, lf), (b, rf) = left(idx), right(idx)
                if lf is None or rf is None or not blocks[a][b]:
                    return table[a][b], None
                return table[a][b], lambda bas: apply(a, b, lf(bas), rf(bas), den)
        elif isinstance(term, Map):
            mats, inner = self.maps[term.name], self.bind(term.arg, arity)[1]
            def bind(idx):
                a, fn = inner(idx)
                if fn is None:
                    return a, None
                return a, lambda bas: mats[a].apply(fn(bas), den)
        else:
            parts = [(c, self.bind(t, arity)[1], t)
                     for c, t in _sum_parts(term, den, self.lam)]
            if not parts:
                return degree, lambda idx: (None, None)
            elements = self.omega.elements
            def bind(idx):
                bound = [(c, *b(idx), t) for c, b, t in parts]
                _one_index(elements, [(a, t) for _, a, fn, t in bound if fn])
                live = [(c, fn) for c, _, fn, _ in bound if fn is not None]
                return bound[0][1], _signed_sum(live) if live else None
        positions = term_positions(term)
        return degree, (bind if len(positions) == arity
                        else _shared(bind, positions, self.memos))


def _sum_parts(term: Sum, den: int, lam: int) -> list[tuple[int, Term]]:
    """A sum's (multiplier, term) pairs at its degree over den: each
    coefficient, lam for "lam", times den to the degrees its term lacks;
    the terms whose coefficient is 0 are left out."""
    degree, parts = term_degree(term), []
    for c, t in term.terms:
        if c == "lam":
            c, t_degree = lam, term_degree(t) + 1
        else:
            t_degree = term_degree(t)
        if c:
            parts.append((c * den ** (degree - t_degree), t))
    return parts


def _one_index(elements: tuple[str, ...], live: list[tuple[int, Term]]) -> None:
    """Raise IllTypedTerm where these (index, term) pairs, the nonzero
    terms of a sum or an axiom's two sides, sit at more than one index:
    their vectors lie in different spaces."""
    for a, t in live[1:]:
        if a != live[0][0]:
            raise IllTypedTerm(
                f"{live[0][1]} sits at {elements[live[0][0]]!r} and {t} at "
                f"{elements[a]!r}: a sum's terms and an axiom's two sides "
                "must sit at one index")


def _scaled(c: int, fn):
    return fn if c == 1 else lambda bas: tuple(c * u for u in fn(bas))


def _signed_sum(terms):
    """Sum from the first term on, never from a zero vector."""
    first = _scaled(*terms[0])
    rest = [(sub, fn) if c == -1 else (add, _scaled(c, fn)) for c, fn in terms[1:]]
    def fn(bas):
        acc = first(bas)
        for op, term in rest:
            acc = tuple(map(op, acc, term(bas)))
        return acc
    return fn


def _shared(bind: Bind, positions: tuple[int, ...], memos: list[dict]) -> Bind:
    """bind, bound once per assignment of `positions` and kept, with
    each vector computed once per assignment of them; each bound entry's
    dict of vectors joins memos, for rebind to clear.  A zero entry is
    kept as it is bound, with no memo."""
    key, bound = itemgetter(*positions), {}

    def bind_shared(idx):
        k = key(idx)
        if k not in bound:
            (index, fn), memo = bind(idx), {}
            if fn is not None:
                memos.append(memo)

            def cached(bas):
                cell = key(bas)
                return memo[cell] if cell in memo else memo.setdefault(cell, fn(bas))
            bound[k] = index, (None if fn is None else cached)
        return bound[k]
    return bind_shared


# -- the checkers -------------------------------------------------------

def mismatches(axiom: Axiom, cells: _Cells
               ) -> tuple[int, Callable[[tuple[int, ...]], Iterator[tuple]]]:
    """(degree, fn): fn(index tuple) yields (basis tuple, lhs, rhs) for each
    basis tuple, in order, on which the axiom's two sides differ at those
    indices; the basis tuples are listed at the first index tuple with a
    nonzero side.  Both sides are compared as int vectors over cells.den
    ** degree, the larger of their degrees, and yielded so;
    cells.rational turns them back into values.  Each index tuple's two
    sides are bound once and kept, valid across the binding's rebinds;
    fn holds the binding's parts, never the binding, so cells.check can
    keep it.  Where both are zero, fn yields nothing and visits no basis
    tuple; where one is, the other is compared against the int zero
    vector.  Where both are nonzero at different indices, binding them
    raises IllTypedTerm."""
    (dl, lhs), (dr, rhs) = (cells.bind(side, axiom.arity)
                            for side in (axiom.lhs, axiom.rhs))
    degree = max(dl, dr)
    lift_l, lift_r = cells.den ** (degree - dl), cells.den ** (degree - dr)
    elements, dim = cells.omega.elements, cells.dim
    zero = (0,) * dim

    def side(lift, fn):
        return (lambda bas: zero) if fn is None else _scaled(lift, fn)

    sides, bases = {}, []

    def at(idx):
        if idx not in sides:
            (a, lf), (b, rf) = lhs(idx), rhs(idx)
            if lf is not None and rf is not None:
                _one_index(elements, [(a, axiom.lhs), (b, axiom.rhs)])
            sides[idx] = (None if lf is None and rf is None
                          else (side(lift_l, lf), side(lift_r, rf)))
            if sides[idx] is not None and not bases:
                bases.extend(product(range(dim), repeat=axiom.arity))
        if sides[idx] is None:
            return
        lf, rf = sides[idx]
        for bas in bases:
            left, right = lf(bas), rf(bas)
            if left != right:
                yield bas, left, right
    return degree, at


def index_classes(cells: _Cells) -> list[int]:
    """[a] -> a's class in the coarsest partition of Omega under which
    every map's matrix at a, every product's block at (a, b) and the
    class of ab depend only on the classes of a and b; classes are
    numbered in order of their first index.

    It is refined to a fixpoint from the classes of equal data: the
    matrices at a, and the blocks at (a, b) and (b, a) for each b, in
    their int forms at cells.den.  The blocks are numbered once per
    binding, into cells.block_classes, and each call reads the maps'
    rows beside those numbers.  Each round splits a class whose
    members' products with some b fall into different classes."""
    n, den, table = cells.omega.order, cells.den, cells.omega.table
    if cells.block_classes is None:
        tensors = [fam.int_tensor(den) for fam in cells.products.values()]
        cells.block_classes = _numbered([
            (tuple(t[a][b] for b in range(n) for t in tensors),
             tuple(t[b][a] for b in range(n) for t in tensors))
            for a in range(n)])
    maps = cells.maps.values()
    classes = _numbered([(tuple(mats[a].int_rows(den) for mats in maps), block)
                         for a, block in enumerate(cells.block_classes)])
    while True:
        refined = _numbered([(classes[a], *(classes[ab] for ab in table[a]),
                              *(classes[row[a]] for row in table))
                             for a in range(n)])
        if refined == classes:
            return classes
        classes = refined


def _numbered(keys: list) -> list[int]:
    """Equal keys get one number, in order of first appearance."""
    numbers: dict = {}
    return [numbers.setdefault(k, len(numbers)) for k in keys]


def _report(subject: str, axioms: tuple[Axiom, ...], cells: _Cells,
            cap: int) -> CheckReport:
    """Each axiom on every cell: index tuple outer, basis tuple inner.

    Index tuples whose entries have the same `index_classes` read the
    same data: by induction on the term, each sub-term's index has the
    same class and its value is the same at all of them.  So each class
    tuple's mismatches are found once, at its first index tuple, and
    `collect` is handed them, as one group, at every index tuple of it."""
    omega, results = cells.omega, []
    classes = index_classes(cells)
    for axiom in axioms:
        degree, at = cells.check(axiom)
        found: dict[tuple[int, ...], tuple] = {}
        groups = ((idx, found[key] if key in found
                   else found.setdefault(key, tuple(at(idx))))
                  for idx in product(range(omega.order), repeat=axiom.arity)
                  for key in (tuple(classes[a] for a in idx),))
        results.append(collect(axiom.name, omega.elements, groups, cap,
                               partial(cells.rational, degree=degree)))
    return CheckReport(subject, tuple(results))


def _kind_checker(name: str, kinds: tuple[AlgebraKind, ...], doc: str):
    """Checks the kind (any, if `kinds` is empty), Omega, then the axioms."""
    def checker(inst: AlgebraInstance,
                max_witnesses: int = DEFAULT_WITNESS_CAP) -> CheckReport:
        wanted = kinds or (inst.kind,)
        if inst.kind not in wanted:
            raise KindMismatch("checker expects kind in {%s}, got %s" % (
                ", ".join(k.value for k in wanted), inst.kind.value))
        if inst.kind in COMMUTATIVE_OMEGA_KINDS and not is_commutative_table(inst.omega):
            raise NonCommutativeOmega(
                f"{inst.kind.value} checker requires a commutative index semigroup")
        return _report(inst.kind.value, KIND_AXIOMS[inst.kind], _Cells(inst),
                       max_witnesses)
    checker.__name__ = checker.__qualname__ = name
    checker.__doc__ = doc
    return checker


check_bihom_associative = _kind_checker(
    "check_bihom_associative", ASSOCIATIVE_KINDS,
    "p/q multiplicativity plus the twisted associativity identity.")
check_dendriform = _kind_checker(
    "check_dendriform", (AlgebraKind.DENDRIFORM,),
    "Multiplicativity over both halves plus the three splitting axioms.")
check_prelie = _kind_checker(
    "check_prelie", (AlgebraKind.PRELIE,),
    "Twisted left-symmetry of the associator plus p/q multiplicativity.")
check_lie = _kind_checker(
    "check_lie", (AlgebraKind.LIE,),
    "Twisted skew-symmetry and Jacobi, plus p/q multiplicativity.")
check_postlie = _kind_checker(
    "check_postlie", (AlgebraKind.POSTLIE,),
    "Lie on the bracket, triangle multiplicativity, two compatibility identities.")
check_zinbiel = _kind_checker(
    "check_zinbiel", (AlgebraKind.ZINBIEL,),
    "The twisted Zinbiel identity plus p/q multiplicativity.")
check_prepoisson = _kind_checker(
    "check_prepoisson", (AlgebraKind.PREPOISSON,),
    "Pre-Lie on the triangle, Zinbiel on the star, two compatibility identities.")
check_instance = _kind_checker(
    "check_instance", (), "Every axiom of the instance's kind.")


def _rebound(cells: _Cells, made_for: tuple, name: str,
             fam: LinearFamily) -> _Cells:
    """cells with map `name` rebound to fam's matrix at every index.

    Raises ValueError where cells was made for anything but `made_for`,
    or where a matrix's den does not divide cells.den."""
    if cells.made_for != made_for:
        raise ValueError(f"the binding was not made for this {made_for[0]} check")
    for a, m in enumerate(fam.maps):
        cells.rebind(name, a, m)
    return cells


def check_rota_baxter(inst: AlgebraInstance, rb: RotaBaxterFamily,
                      max_witnesses: int = DEFAULT_WITNESS_CAP,
                      cells: _Cells | None = None) -> CheckReport:
    """The weight-lambda operator identity on every product component,
    plus commutation with both structure maps.

    cells, from rota_baxter_cells(inst, ...) at rb's weight, is the
    binding to decide on; R is rebound to rb's matrices there, so one
    binding decides family after family with its terms bound once.
    Without it, one is made for this call."""
    if rb.maps.dim != inst.dim or rb.maps.omega != inst.omega:
        raise ShapeMismatch("operator family does not match the instance")
    if cells is None:
        cells = rota_baxter_cells(inst, rb)
    return _report("rota-baxter", rota_baxter_axioms(inst.slot_names),
                   _rebound(cells, ("rota-baxter", inst, rb.weight), "R",
                            rb.maps), max_witnesses)


def rota_baxter_cells(inst: AlgebraInstance, rb: RotaBaxterFamily,
                      den: int = 1) -> _Cells:
    """What `rota_baxter_axioms` read: the instance, R and the weight,
    over a multiple of den (see `_Cells`)."""
    return _Cells(inst, {"R": rb.maps}, weight=rb.weight, den=den,
                  made_for=("rota-baxter", inst, rb.weight))


def check_morphism(f: LinearFamily, src: AlgebraInstance, dst: AlgebraInstance,
                   max_witnesses: int = DEFAULT_WITNESS_CAP,
                   cells: _Cells | None = None) -> CheckReport:
    """Multiplicativity over every product plus structure-map intertwining.

    cells, from morphism_cells(..., src, dst), is the binding to decide
    on; f is rebound to its matrices there, so one binding decides
    family after family with its terms bound once.
    Without it, one is made for this call."""
    if src.kind != dst.kind:
        raise KindMismatch("morphism endpoints must share a kind")
    if f.dim != src.dim or dst.dim != src.dim or f.omega != src.omega \
            or dst.omega != src.omega:
        raise ShapeMismatch("morphism family does not match the instances")
    if cells is None:
        cells = morphism_cells(f, src, dst)
    return _report("morphism", morphism_axioms(src.slot_names),
                   _rebound(cells, ("morphism", src, dst), "f", f),
                   max_witnesses)


def morphism_cells(f: LinearFamily, src: AlgebraInstance,
                   dst: AlgebraInstance, den: int = 1) -> _Cells:
    """What `morphism_axioms` read: src's maps and products, f, and dst's
    maps and products as P, Q and slot', over a multiple of den (see
    `_Cells`)."""
    return _Cells(src, {"P": dst.p, "Q": dst.q, "f": f},
                  {slot + "'": fam for slot, fam in dst.products}, den=den,
                  made_for=("morphism", src, dst))
