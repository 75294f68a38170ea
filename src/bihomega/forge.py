"""Instance supply: the worked 2-dim example, reduction embeddings,
closed families, and brute-force searches with checkers as oracles."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator

from .checkers import (Axiom, _Cells, check_bihom_associative, check_morphism,
                       check_rota_baxter, morphism_axioms, morphism_cells,
                       rota_baxter_axioms, rota_baxter_cells)
from .core import (ASSOCIATIVE_KINDS, AlgebraInstance, AlgebraKind,
                   BilinearFamily, LinearFamily, Provenance, RotaBaxterFamily,
                   new_instance)
from .errors import BudgetExceeded, ConditionViolated, ShapeMismatch
from .linalg import Matrix, frac, mats_commute
from .reports import CheckReport
from .semigroup import SemigroupTable

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class TwoDimExampleParams:
    """Scalar data of the worked 2-dim instance.

    c maps index pairs to scalars; rthree and lthree are the two scalar
    characters of the semigroup used by the structure maps.  `ints`
    holds c, rthree and lthree times den, the lcm of their denominators,
    and den.
    """

    omega: SemigroupTable
    c: tuple[tuple[Fraction, ...], ...]
    rthree: tuple[Fraction, ...]
    lthree: tuple[Fraction, ...]
    ints: tuple[list[list[int]], list[int], list[int], int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.omega.order
        if len(self.c) != n or any(len(row) != n for row in self.c):
            raise ShapeMismatch("c must be an n x n scalar table")
        if len(self.rthree) != n or len(self.lthree) != n:
            raise ShapeMismatch("rthree and lthree need one scalar per element")
        pairs = [v.as_integer_ratio()
                 for row in (*self.c, self.rthree, self.lthree) for v in row]
        den = lcm(*(d for _, d in pairs))
        ints = [num * (den // d) for num, d in pairs]
        object.__setattr__(self, "ints", (
            [ints[a * n:(a + 1) * n] for a in range(n)], ints[n * n:n * n + n],
            ints[n * n + n:], den))

    def iter_violations(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        """The failing side-conditions, lexicographic in the indices, one
        at a time; each is decided on the ints over den, where x/den ==
        (y/den) * (z/den) reads x * den == y * z."""
        table, names = self.omega.table, self.omega.elements
        c, rt, lt, den = self.ints
        indices = range(len(names))
        for a, b in itertools.product(indices, repeat=2):
            ab = table[a][b]
            if rt[ab] * den != rt[a] * rt[b]:
                yield "rthree-multiplicative", (names[a], names[b])
            if lt[ab] * den != lt[a] * lt[b]:
                yield "lthree-multiplicative", (names[a], names[b])
        for a, b, g in itertools.product(indices, repeat=3):
            if (c[a][b] * lt[g] * c[table[a][b]][g]
                    != c[a][table[b][g]] * rt[a] * c[b][g]):
                yield "c-cocycle", (names[a], names[b], names[g])

    def violations(self) -> list[tuple[str, tuple[str, ...]]]:
        """All failing side-conditions, lexicographic in the indices."""
        return list(self.iter_violations())


def two_dim_params(omega: SemigroupTable, c, rthree, lthree) -> TwoDimExampleParams:
    return TwoDimExampleParams(omega, tuple(tuple(map(frac, row)) for row in c),
                               tuple(map(frac, rthree)), tuple(map(frac, lthree)))


def make_two_dim_example(params: TwoDimExampleParams,
                         reading: str = "e1") -> AlgebraInstance:
    """Build the 2-dim instance; products e_i * e_j = c(a,b) e_i, stored
    as c's ints over the den of params.ints.

    reading selects the second structure map's image of e2: "e1" takes
    the source text verbatim, "e2" applies the plausible correction.
    The checker, not this builder, is the arbiter of which reading is a
    valid algebra.
    """
    if reading not in ("e1", "e2"):
        raise ValueError("reading must be 'e1' or 'e2'")
    bad = next(params.iter_violations(), None)
    if bad:
        raise ConditionViolated(*bad)
    om, (c, _, _, den) = params.omega, params.ints
    keys = itertools.product(om.indices(), om.indices(), (0, 1), (0, 1))
    mul = BilinearFamily.from_ints(om, 2, {
        (a, b, i, j): (c[a][b] * (1 - i), c[a][b] * i) for a, b, i, j in keys}, den)
    p = LinearFamily(om, 2, tuple(
        Matrix.diagonal((params.rthree[a], params.rthree[a]))
        for a in om.indices()))
    if reading == "e1":
        q_mats = tuple(Matrix.from_rows([[params.lthree[a], params.lthree[a]],
                                         [0, 0]])
                       for a in om.indices())
    else:
        q_mats = tuple(Matrix.diagonal((params.lthree[a], params.lthree[a]))
                       for a in om.indices())
    q = LinearFamily(om, 2, q_mats)
    return new_instance(
        AlgebraKind.BIHOM_ASSOCIATIVE, om, (("mul", mul),), p, q,
        Provenance("two_dim_example", (("reading", reading),)))


def two_dim_reading_report(params: TwoDimExampleParams
                           ) -> dict[str, tuple[AlgebraInstance, CheckReport]]:
    """Build both readings of the ambiguous structure map and record
    each checker verdict, without guessing which one was intended."""
    out = {}
    for reading in ("e1", "e2"):
        inst = make_two_dim_example(params, reading=reading)
        out[reading] = (inst, check_bihom_associative(inst))
    return out


def embed_omega_as_bihom(a: AlgebraInstance) -> AlgebraInstance:
    """Attach explicit identity structure maps and the BiHom kind tag."""
    if not (a.p.is_identity() and a.q.is_identity()):
        raise ShapeMismatch("embedding applies to identity-structure instances")
    kind = (AlgebraKind.BIHOM_ASSOCIATIVE if a.kind in ASSOCIATIVE_KINDS
            else a.kind)
    ident = LinearFamily.identity(a.omega, a.dim)
    return new_instance(kind, a.omega, a.products, ident, ident,
                        Provenance("embed_omega_as_bihom"))


def zero_instance(kind: AlgebraKind, omega: SemigroupTable, dim: int,
                  p: LinearFamily | None = None,
                  q: LinearFamily | None = None) -> AlgebraInstance:
    """All products zero; passes every checker for any commuting p, q."""
    zero = BilinearFamily.zero(omega, dim)
    products = tuple((slot, zero) for slot in kind.product_slots)
    p = p or LinearFamily.identity(omega, dim)
    q = q or LinearFamily.identity(omega, dim)
    return new_instance(kind, omega, products, p, q, Provenance("zero_instance"))


def constant_product_instance(kind: AlgebraKind, omega: SemigroupTable,
                              tensors: dict[str, list[list[list]]]
                              ) -> AlgebraInstance:
    """Lift classical structure constants to a constant indexed family
    with identity structure maps."""
    if set(tensors) != set(kind.product_slots):
        raise ShapeMismatch(f"kind {kind.value} expects tensors for "
                            f"{kind.product_slots}, got {tuple(tensors)}")
    dims = {len(t) for t in tensors.values()}
    if len(dims) != 1:
        raise ShapeMismatch(f"tensors of different sizes {sorted(dims)}")
    dim = dims.pop()

    products = []
    for slot in kind.product_slots:
        cube = tensors[slot]
        products.append((slot, BilinearFamily.from_function(
            omega, dim, lambda a, b, i, j, cube=cube: cube[i][j])))
    ident = LinearFamily.identity(omega, dim)
    return new_instance(kind, omega, tuple(products), ident, ident,
                        Provenance("constant_product_instance"))


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for brute-force searches over small-entry matrix families."""

    entries: tuple[Fraction, ...] = (Fraction(-1), Fraction(0), Fraction(1))
    weight: Fraction = Fraction(0)
    budget: int = DEFAULT_BUDGET
    target_count: int | None = None

    def __post_init__(self):
        if not self.entries:
            raise ValueError("entry set must be nonempty")
        if self.target_count is not None and self.target_count < 1:
            raise ValueError("target count must be at least 1, got "
                             f"{self.target_count}")
        # a repeated entry would enumerate every family again
        object.__setattr__(self, "entries",
                           tuple(dict.fromkeys(frac(v) for v in self.entries)))
        object.__setattr__(self, "weight", frac(self.weight))

    @property
    def den(self) -> int:
        """The lcm of the entries' denominators, over which every
        candidate's matrices are exact."""
        return lcm(*(v.denominator for v in self.entries))


def _pruned_families(a: AlgebraInstance, cfg: SearchConfig,
                     axioms: tuple[Axiom, ...], name: str,
                     cells_for: Callable[[LinearFamily], _Cells],
                     keep: Callable[[Matrix], bool] = lambda m: True):
    """Every matrix family with entries from the configured set that passes
    `axioms` on every cell, in the lexicographic order of the whole space
    (index-major: the matrix at index 0 varies slowest).

    A cell at index tuple idx reads the family only at the indices in idx
    and at their product.  So each index keeps the matrices that pass
    `keep` and the unary axioms there, and families grow index by index,
    dropped at the first binary cell (x, y) whose sides differ, compared
    as soon as x, y and xy all have matrices.

    One binding serves the whole pruning: cells_for(fam) binds the
    axioms with fam as map `name` over a multiple of cfg.den, so every
    candidate's matrices are exact in it.  Each cell is one generated int
    function (`first_mismatch`) that reads the columns `rebind` sets, or
    past `cellgen.CELL_LINES` lines, `mismatches` on the same binding; a
    binary cell is made when its depth is first reached, and a cell
    whose sides are both zero is left out.  The unary pass rebinds `name`
    at each (index, matrix); a node at depth k rebinds it at index k
    only.  Indices past k keep stale matrices, but no cell compared at
    depth k reads them.  The caller decides each family it yields with
    the checker, on a second binding that it makes once,
    cells_for(identity), which calls no generated cell.
    """
    # only a search generates cells: a program that never searches does
    # not load, or compile, the module
    from .cellgen import first_mismatch
    omega, dim, n = a.omega, a.dim, a.omega.order
    space = len(cfg.entries) ** (n * dim * dim)
    if space > cfg.budget:
        raise BudgetExceeded(space, cfg.budget)
    cells = cells_for(LinearFamily.identity(omega, dim))

    def checks(arity, idxs):
        """The cells of the axioms of this arity at idxs, axiom by axiom,
        but those whose two sides are both zero."""
        found = []
        for ax in axioms:
            if ax.arity == arity:
                at = first_mismatch(ax, cells)
                found += [check for check in map(at, idxs) if check is not None]
        return found
    unary = [checks(1, [(x,)]) for x in range(n)]
    choices = [[] for _ in range(n)]
    for entries in itertools.product(cfg.entries, repeat=dim * dim):
        m = Matrix(dim, dim, entries)
        if keep(m):
            for x in range(n):
                cells.rebind(name, x, m)
                if _holds(unary[x]):
                    choices[x].append(m)
    # the binary cells first readable once index k has its matrix
    fresh = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            fresh[max(x, y, omega.table[x][y])].append((x, y))
    binary: dict[int, list] = {}

    def extend(mats):
        k = len(mats)
        if k == n:
            yield LinearFamily(omega, dim, mats)
            return
        if k not in binary:
            binary[k] = checks(2, fresh[k])
        for m in choices[k]:
            cells.rebind(name, k, m)
            if _holds(binary[k]):
                yield from extend(mats + (m,))
    return extend(())


def _holds(checks) -> bool:
    """Whether each check, a cell of `first_mismatch`, finds the two
    sides equal on every basis tuple."""
    for check in checks:
        if check() is not None:
            return False
    return True


def brute_force_rb_search(a: AlgebraInstance,
                          cfg: SearchConfig) -> list[RotaBaxterFamily]:
    """All weight-cfg.weight operator families over the entry set that
    pass check_rota_baxter, in enumeration order.  The search prunes
    index by index; every family it returns has passed the checker,
    each decided on one binding made for the search that the checker
    rebinds to the family."""
    def cells_for(fam):
        return rota_baxter_cells(a, RotaBaxterFamily(fam, cfg.weight), cfg.den)
    rbs = (RotaBaxterFamily(fam, cfg.weight) for fam in _pruned_families(
        a, cfg, rota_baxter_axioms(a.slot_names), "R", cells_for))
    hits = cells_for(LinearFamily.identity(a.omega, a.dim))
    return list(itertools.islice(
        (rb for rb in rbs
         if check_rota_baxter(a, rb, max_witnesses=1, cells=hits).passed),
        cfg.target_count))


def make_endomorphism_pairs(a: AlgebraInstance, cfg: SearchConfig
                            ) -> list[tuple[LinearFamily, LinearFamily]]:
    """Commuting endomorphism pairs suitable for twisting.

    Always starts with (id, id); found morphisms contribute (f, f) and
    the power pair (f, f o f), plus cross pairs that commute.  The
    morphism search prunes index by index, and keeps at each index only
    the matrices that commute with every p_b and q_b; every morphism it
    keeps has passed check_morphism, each decided on one binding made
    for the search that the checker rebinds to the family.  Whether the
    morphisms commute with themselves and each other is decided once per
    pair of matrices.
    """
    structure = a.p.maps + a.q.maps
    # keyed by identity, since hashing a Matrix hashes its Fractions; each
    # entry holds its two matrices, so no key's id is reused in the call
    decided: dict[tuple[int, int], tuple[bool, Matrix, Matrix]] = {}

    def commute(m: Matrix, k: Matrix) -> bool:
        """mats_commute, decided once per pair of matrices in this call."""
        key = id(m), id(k)
        if key not in decided:
            decided[key] = mats_commute(m, k), m, k
        return decided[key][0]

    def cells_for(fam):
        return morphism_cells(fam, a, a, cfg.den)
    candidates = _pruned_families(
        a, cfg, morphism_axioms(a.slot_names), "f", cells_for,
        keep=lambda m: all(mats_commute(m, s) for s in structure))
    ident = LinearFamily.identity(a.omega, a.dim)
    hits = cells_for(ident)
    morphisms = list(itertools.islice(
        (fam for fam in candidates
         if check_morphism(fam, a, a, max_witnesses=1, cells=hits).passed),
        cfg.target_count))
    pairs = [(ident, ident)]
    for f in morphisms:
        # a family may fail to commute with itself across indices
        if not f.commutes_with(f, commute)[0]:
            continue
        pairs.append((f, f))
        pairs.append((f, f.compose(f)))
    for f, g in itertools.combinations(morphisms, 2):
        if f.commutes_with(g, commute)[0]:
            pairs.append((f, g))
    return pairs
