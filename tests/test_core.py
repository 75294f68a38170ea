import hashlib
import re
from fractions import Fraction
from itertools import product
from math import lcm
from types import FunctionType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomega import cellgen, core
from bihomega.checkers import (check_instance, check_morphism, mismatches,
                               morphism_axioms, morphism_cells,
                               rota_baxter_axioms, rota_baxter_cells,
                               term_reads)
from bihomega.core import (AlgebraKind, BilinearFamily, LinearFamily,
                           RotaBaxterFamily, new_instance)
from bihomega.errors import (NonCommutingStructureMaps, ShapeMismatch,
                             Singular)
from bihomega.forge import SearchConfig, make_two_dim_example, two_dim_params
from bihomega.linalg import Matrix, mats_commute, vec
from bihomega.semigroup import (cyclic_group, left_zero_semigroup,
                                trivial_semigroup)
from classical import basis
from conftest import two_dim_instance
from reference import bilinear, map_at, nonzero_cells

TRIVIAL = trivial_semigroup()
C2 = cyclic_group(2)

rationals = st.fractions(min_value=-7, max_value=7, max_denominator=4)


def test_zero_tensor_application():
    fam = BilinearFamily.zero(C2, 2)
    x = vec([3, Fraction(-1, 2)])
    assert bilinear(fam, 0, 1, x, x) == (0, 0)
    # x times 2 in ints
    assert fam.apply(0, 1, (6, -1), (6, -1), fam.den) == (0, 0)


def test_scalar_multiplication_dim1():
    fam = BilinearFamily.from_function(TRIVIAL, 1, lambda a, b, i, j: (1,))
    assert fam.den == 1
    assert fam.apply(0, 0, (5,), (7,), 1) == (35,) == bilinear(fam, 0, 0, (5,), (7,))


def test_apply_in_integers_at_a_multiple_of_den():
    # cells over 2, 3 and 7: den is 42; at den * k the int product of
    # x * sx and y * sy is the rational product times sx * sy * den * k
    cells = {(a, b, i, j): (Fraction(a - i, 2), Fraction(b + j, 3),
                            Fraction(i * j - 1, 7))
             for a in range(2) for b in range(2)
             for i in range(3) for j in range(3)}
    fam = BilinearFamily.from_function(C2, 3, lambda a, b, i, j: cells[a, b, i, j])
    assert fam.den == 42
    x, y = vec([Fraction(1, 3), 0, -2]), vec([Fraction(-5, 4), 1, Fraction(1, 9)])
    xi, yi = tuple(int(v * 3) for v in x), tuple(int(v * 36) for v in y)
    for den in (42, 84, 42 * 11):
        for a in range(2):
            for b in range(2):
                out = fam.apply(a, b, xi, yi, den)
                assert all(type(v) is int for v in out)
                assert out == tuple(v * 3 * 36 * den
                                    for v in bilinear(fam, a, b, x, y))
    # each den's form is built once
    assert fam.int_tensor(84) is fam.int_tensor(84)
    # at a den that is not a multiple, no int form is exact
    third = BilinearFamily.from_function(
        C2, 1, lambda a, b, i, j: (Fraction(1, 3),))
    with pytest.raises(ValueError, match="not a multiple of 3"):
        third.apply(0, 0, (1,), (1,), 2)


def test_linear_family_apply_is_its_matrix_at_den():
    # maps over 2 and 3: at den 6 and 12 each index's int product is the
    # rational product times den
    fam = LinearFamily(C2, 2, (
        Matrix.from_rows([[Fraction(1, 2), -1], [0, 3]]),
        Matrix.from_rows([[Fraction(2, 3), 0], [5, Fraction(-1, 2)]])))
    for den in (6, 12):
        for a in range(2):
            for x in [(1, 0), (0, 1), (3, -4)]:
                out = fam.apply(a, x, den)
                assert all(type(v) is int for v in out)
                assert out == fam.maps[a].apply(x, den)
                assert out == tuple(v * den for v in map_at(fam, a, x))
    # each index reads its own matrix's den: 2 at index 0, 6 at index 1
    assert fam.apply(0, (1, 0), 2) == (1, 0)
    with pytest.raises(ValueError, match="not a multiple of 6"):
        fam.apply(1, (1, 0), 2)


def test_two_dim_example_product():
    # with all scalars 1, e2 * e1 = e2
    params = two_dim_params(TRIVIAL, [[1]], [1], [1])
    inst = make_two_dim_example(params)
    mul = inst.product("mul")
    assert mul.basis_product(0, 0, 1, 0) == (0, 1)
    assert bilinear(mul, 0, 0, basis(2, 1), basis(2, 0)) == (0, 1)
    assert mul.apply(0, 0, (0, 1), (1, 0), mul.den) == (0, mul.den)


# ints past the 4300-digit limit of int <-> str, which only the values
# bound to a generated cell may hold, never its source
big_ints = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6),
                     st.sampled_from((10 ** 5000 + 7, -(10 ** 4400))))


@st.composite
def sparse_blocks(draw):
    """A SparseBlock at d <= 4, its cells often wholly zero and their
    coefficients often zero, and two int vectors, often zero."""
    d = draw(st.integers(min_value=1, max_value=4))
    density = draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))
    rows = []
    for i in range(d):
        row = tuple((j, cell) for j in range(d)
                    for cell in (tuple(draw(big_ints)
                                       if draw(st.floats(0, 1)) < density else 0
                                       for _ in range(d)),)
                    if any(cell))
        if row:
            rows.append((i, row))
    vector = st.one_of(st.just((0,) * d),
                       st.tuples(*(st.one_of(st.just(0), big_ints),) * d))
    return tuple(rows), d, draw(vector), draw(vector)


@given(sparse_blocks())
@settings(max_examples=150, deadline=None)
def test_block_times_matches_a_sum_over_the_blocks_cells(case):
    block, d, x, y = case
    dense = [0] * d
    for i, row in block:
        for j, cell in row:
            for k, c in enumerate(cell):
                dense[k] += x[i] * y[j] * c
    assert core.block_times(block, d, x, y) == tuple(dense)


entries = st.one_of(st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2))), big_ints)


@st.composite
def cell_cases(draw):
    """A BiHom-associative instance over a semigroup of order <= 2 at
    d <= 3, its product over den 1, 2 or 6 with cells often zero, p and q
    diagonal; two map families, for R and f; and a weight."""
    omega = draw(st.sampled_from((TRIVIAL, C2, left_zero_semigroup(2))))
    d, n = draw(st.integers(1, 3)), omega.order
    density = draw(st.sampled_from((0.0, 0.3, 1.0)))
    cells = {key: tuple(draw(big_ints) if draw(st.floats(0, 1)) < density
                        else 0 for _ in range(d))
             for key in product(range(n), range(n), range(d), range(d))}
    mul = BilinearFamily.from_ints(omega, d, cells,
                                   draw(st.sampled_from((1, 2, 6))))

    def family(diagonal=False):
        return LinearFamily(omega, d, tuple(
            Matrix.diagonal([draw(entries) for _ in range(d)]) if diagonal
            else Matrix(d, d, tuple(draw(entries) for _ in range(d * d)))
            for _ in range(n)))
    inst = new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, omega, (("mul", mul),),
                        family(True), family(True))
    return inst, family(), family(), draw(st.sampled_from((-1, 0, 1)))


@given(cell_cases())
@settings(max_examples=60, deadline=None)
def test_a_generated_cell_returns_the_first_mismatch_of_mismatches(case):
    # on RB and morphism axioms, before and after a rebind of every
    # index: a cell is None exactly where mismatches yields nothing and
    # visits no basis tuple, else it returns what mismatches yields
    # first, or None
    inst, first, second, weight = case
    n = inst.omega.order
    # both families are exact over den, and the lifts are not 1
    den = 2 * lcm(*(m.den for m in first.maps + second.maps))
    for axioms, cells, name in (
            (rota_baxter_axioms(("mul",)), rota_baxter_cells(
                inst, RotaBaxterFamily(first, weight), den=den), "R"),
            (morphism_axioms(("mul",)), morphism_cells(first, inst, inst, den=den),
             "f")):
        # each binding starts from an empty cache
        with mock.patch.multiple(cellgen, _CELL_CODE={}, _cached_lines=0):
            checks = []
            for ax in axioms:
                at, maps = cellgen.first_mismatch(ax, cells), sorted(
                    term_reads(ax.lhs)[1] | term_reads(ax.rhs)[1])
                for idx in product(range(n), repeat=ax.arity):
                    entry = cellgen._CellSource(ax, idx, cells, maps).compiled()
                    check = at(idx)
                    assert (check is None) == (entry is None)
                    if check is not None:
                        assert (isinstance(check, FunctionType)
                                and check.__name__ == "cell")
                        _assert_no_data_in_source(check, maps, cells)
                    checks.append((ax, idx, check))
            for fam in (first, second):
                for a, m in enumerate(fam.maps):
                    cells.rebind(name, a, m)
                for ax, idx, check in checks:
                    expected = next(mismatches(ax, cells)[1](idx), None)
                    assert (None if check is None else check()) == expected


def _assert_no_data_in_source(check, maps, cells):
    """The maps are the binding's column lists, every other default is a
    value, and the source holds index-derived names, indices and 0, 1
    and -1, no coefficient."""
    code = check.__code__
    assert all(a is b for a, b in zip(check.__defaults__,
                                      (cells.cols[name] for name in maps)))
    assert all(re.fullmatch(r"[Mcv]\d+|m\d+_\d+", name)
               for name in code.co_varnames + code.co_names)
    small = set(range(-1, max(cells.dim, cells.omega.order, 2)))
    assert {v for c in code.co_consts
            for v in (c if type(c) is tuple else (c,))} <= small | {None}


@given(rationals, rationals,
       st.lists(rationals, min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_apply_product_bilinear(a, b, raw_x, raw_xp, raw_y):
    params = two_dim_params(C2, [[1, 1], [1, 4]], [1, 1], [1, 1])
    fam = make_two_dim_example(params).product("mul")
    # in ints: x, xp times sx, y times sy, a, b times sc
    sx = lcm(*(v.denominator for v in raw_x + raw_xp))
    sy, sc = lcm(*(v.denominator for v in raw_y)), lcm(a.denominator, b.denominator)
    xi, xpi, yi = (tuple(int(v * s) for v in u)
                   for u, s in ((raw_x, sx), (raw_xp, sx), (raw_y, sy)))
    ai, bi = int(a * sc), int(b * sc)
    mix = tuple(ai * u + bi * v for u, v in zip(xi, xpi))
    lhs = fam.apply(0, 1, mix, yi, fam.den)
    rhs = tuple(ai * u + bi * v for u, v in zip(fam.apply(0, 1, xi, yi, fam.den),
                                                 fam.apply(0, 1, xpi, yi, fam.den)))
    assert lhs == rhs
    exact = bilinear(fam, 0, 1, [a * u + b * v for u, v in zip(raw_x, raw_xp)], raw_y)
    assert lhs == tuple(v * sx * sy * sc * fam.den for v in exact)


@st.composite
def sparse_family_and_vectors(draw):
    """A family over C2 whose cells are often wholly zero, its cells as
    drawn, and two vectors with zero entries."""
    d = draw(st.integers(min_value=1, max_value=3))
    entry = st.one_of(st.just(Fraction(0)), rationals)
    cells = {}
    for a in range(2):
        for b in range(2):
            for i in range(d):
                for j in range(d):
                    zero_cell = draw(st.booleans())
                    cells[a, b, i, j] = tuple(
                        Fraction(0) if zero_cell else draw(entry)
                        for _ in range(d))
    fam = BilinearFamily.from_function(C2, d,
                                       lambda a, b, i, j: cells[a, b, i, j])
    x = tuple(draw(entry) for _ in range(d))
    y = tuple(draw(entry) for _ in range(d))
    return fam, cells, x, y


@given(sparse_family_and_vectors())
@settings(max_examples=60, deadline=None)
def test_apply_matches_dense_triple_sum(case):
    fam, cells, x, y = case
    d = fam.dim
    # x times sx and y times sy in ints, applied at den
    sx, sy = (lcm(*(v.denominator for v in u)) for u in (x, y))
    xi, yi = (tuple(int(v * s) for v in u) for u, s in ((x, sx), (y, sy)))
    for a in range(2):
        for b in range(2):
            dense = []
            for k in range(d):
                total = Fraction(0)
                for i in range(d):
                    for j in range(d):
                        total += x[i] * y[j] * cells[a, b, i, j][k]
                dense.append(total)
            assert bilinear(fam, a, b, x, y) == tuple(dense)
            for den in (fam.den, 3 * fam.den):
                out = fam.apply(a, b, xi, yi, den)
                assert out == tuple(v * sx * sy * den for v in dense)
                assert all(type(v) is int for v in out)
            for i in range(d):
                for j in range(d):
                    assert fam.basis_product(a, b, i, j) == cells[a, b, i, j]


def test_identity_family_shares_one_matrix():
    fam = LinearFamily.identity(cyclic_group(3), 2)
    assert fam.maps[0] == Matrix.identity(2)
    assert all(m is fam.maps[0] for m in fam.maps)


def test_zero_cells_are_not_stored():
    cells = {(0, 1, 1, 0): (Fraction(1, 2), 0), (1, 1, 0, 0): (0, -3)}
    zeros = {(a, b, i, j): (0, 0) for a in range(2) for b in range(2)
             for i in range(2) for j in range(2)}
    explicit = BilinearFamily.from_cells(C2, 2, {**zeros, **cells})
    sparse = BilinearFamily.from_cells(C2, 2, cells)
    assert explicit == sparse and hash(explicit) == hash(sparse)
    # stored as ints over den = 2: 1/2 is 1 and -3 is -6
    assert (explicit.blocks, explicit.den) == (
        (((), ((1, ((0, (1, 0)),)),)), ((), ((0, ((0, (0, -6)),)),))), 2)
    assert BilinearFamily.zero(C2, 2) == BilinearFamily.from_cells(C2, 2, zeros)
    assert BilinearFamily.zero(C2, 2).blocks == (((), ()), ((), ()))


def test_from_cells_reads_tuple_list_and_int_cells_alike():
    exact = {(0, 1, 1, 0): (Fraction(1, 2), Fraction(0)),
             (1, 1, 0, 1): (Fraction(2), Fraction(-3))}
    forms = [exact,
             {key: list(cell) for key, cell in exact.items()},
             {(0, 1, 1, 0): (Fraction(1, 2), 0), (1, 1, 0, 1): (2, -3)},
             {(0, 1, 1, 0): [Fraction(1, 2), False], (1, 1, 0, 1): [2, -3]}]
    fams = [BilinearFamily.from_cells(C2, 2, cells) for cells in forms]
    assert all(fam == fams[0] for fam in fams)
    for fam in fams:
        for cell in nonzero_cells(fam).values():
            assert type(cell) is tuple
            assert all(type(v) is Fraction for v in cell)
    # stored as int tuples over the lcm of the denominators
    assert nonzero_cells(fams[0]) == exact
    assert fams[0].den == 2
    assert dict(fams[0].int_cells()) == {(0, 1, 1, 0): (1, 0), (1, 1, 0, 1): (4, -6)}


def test_from_ints_reduces_and_needs_a_positive_den():
    # 2/4 and -6/4 over 4 are 1/2 and -3/2: stored over 2
    fam = BilinearFamily.from_ints(
        C2, 2, {(0, 1, 1, 0): (2, -6), (1, 0, 0, 0): (0, 0)}, 4)
    assert (fam.blocks, fam.den) == ((((), ((1, ((0, (1, -3)),)),)), ((), ())), 2)
    assert fam == BilinearFamily.from_cells(
        C2, 2, {(0, 1, 1, 0): (Fraction(1, 2), Fraction(-3, 2))})
    for den in (0, -4):
        with pytest.raises(ValueError, match="den must be positive"):
            BilinearFamily.from_ints(C2, 2, {(0, 1, 1, 0): (2, -6)}, den)


def test_from_cells_rejects_bad_shapes():
    for key, cell in (((0, 0, 0, 0), (1,)), ((2, 0, 0, 0), (1, 0)),
                      ((0, 0, 0, 2), (1, 0)), ((0, -1, 0, 0), (1, 0))):
        with pytest.raises(ShapeMismatch, match="must be a vector of length 2 "
                                                "in 2x2 blocks of 2x2"):
            BilinearFamily.from_cells(C2, 2, {key: cell})


def test_new_instance_accepts_identity_maps():
    inst = new_instance(AlgebraKind.LIE, C2,
                        (("bracket", BilinearFamily.zero(C2, 2)),),
                        LinearFamily.identity(C2, 2),
                        LinearFamily.identity(C2, 2))
    assert inst.dim == 2


def test_new_instance_accepts_commuting_diagonals():
    p = LinearFamily.constant(C2, Matrix.diagonal([1, 2]))
    q = LinearFamily.constant(C2, Matrix.diagonal([3, 4]))
    inst = new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2,
                        (("mul", BilinearFamily.zero(C2, 2)),), p, q)
    assert inst.p.matrix(0) == Matrix.diagonal([1, 2])


def test_new_instance_rejects_noncommuting_maps():
    p = LinearFamily.constant(C2, Matrix.from_rows([[0, 1], [0, 0]]))
    q = LinearFamily.constant(C2, Matrix.from_rows([[0, 0], [1, 0]]))
    with pytest.raises(NonCommutingStructureMaps) as err:
        new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2,
                     (("mul", BilinearFamily.zero(C2, 2)),), p, q)
    assert err.value.index == "g0"


def test_new_instance_rejects_wrong_slots():
    with pytest.raises(ShapeMismatch):
        new_instance(AlgebraKind.DENDRIFORM, C2,
                     (("mul", BilinearFamily.zero(C2, 2)),),
                     LinearFamily.identity(C2, 2),
                     LinearFamily.identity(C2, 2))


def test_new_instance_rejects_mixed_dims():
    with pytest.raises(ShapeMismatch):
        new_instance(AlgebraKind.LIE, C2,
                     (("bracket", BilinearFamily.zero(C2, 2)),),
                     LinearFamily.identity(C2, 2),
                     LinearFamily.identity(C2, 3))


def test_family_inverse_names_offending_index():
    fam = LinearFamily(C2, 2, (Matrix.identity(2),
                               Matrix.from_rows([[1, 1], [1, 1]])))
    with pytest.raises(Singular) as err:
        fam.inverse()
    assert err.value.index == "g1"


def test_family_compose_order():
    f = LinearFamily.constant(C2, Matrix.from_rows([[0, 1], [0, 0]]))
    g = LinearFamily.constant(C2, Matrix.diagonal([2, 3]))
    fg = f.compose(g)  # f after g
    assert fg.matrix(0) == Matrix.from_rows([[0, 3], [0, 0]])


def test_kind_slots():
    assert AlgebraKind.DENDRIFORM.product_slots == ("prec", "succ")
    assert AlgebraKind.POSTLIE.product_slots == ("bracket", "triangle")
    assert AlgebraKind.PREPOISSON.product_slots == ("triangle", "star")


_TWO_DIM = two_dim_instance(C2)
_I1, _I2 = Matrix.identity(1), Matrix.identity(2)
_ID_C2, _ID_T = LinearFamily.identity(C2, 2), LinearFamily.identity(TRIVIAL, 2)
_MUL_T = (("mul", BilinearFamily.zero(TRIVIAL, 2)),)

# (call, error) for each shape or argument guard
GUARDS = {
    "bilinear-apply-length": (
        lambda: BilinearFamily.zero(C2, 2).apply(0, 0, (1,), (1, 0), 1),
        ShapeMismatch),
    "linear-apply-length": (
        lambda: LinearFamily.identity(C2, 2).apply(0, (1,), 1), ShapeMismatch),
    "family-matrix-count": (lambda: LinearFamily(C2, 2, (_I2,)), ShapeMismatch),
    "family-matrix-size": (lambda: LinearFamily(C2, 2, (_I1, _I1)),
                           ShapeMismatch),
    "compose-mismatched": (lambda: _ID_C2.compose(_ID_T), ShapeMismatch),
    "commutes-with-mismatched": (lambda: _ID_C2.commutes_with(_ID_T),
                                 ShapeMismatch),
    "unknown-product-slot": (lambda: _TWO_DIM.product("bracket"), KeyError),
    "product-over-another-semigroup": (
        lambda: new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2, _MUL_T,
                             _ID_C2, _ID_C2), ShapeMismatch),
    "maps-over-another-semigroup": (
        lambda: new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, TRIVIAL, _MUL_T,
                             _ID_C2, _ID_T), ShapeMismatch),
    "matrix-entry-count": (lambda: Matrix(2, 2, vec([1])), ShapeMismatch),
    "ragged-rows": (lambda: Matrix.from_rows([[1, 2], [3]]), ShapeMismatch),
    "commute-non-square": (
        lambda: mats_commute(Matrix.from_rows([[1, 2]]), _I2), ShapeMismatch),
    "two-dim-reading": (
        lambda: make_two_dim_example(two_dim_params(
            C2, [[1, 1], [1, 1]], [1, 1], [1, 1]), reading="e3"), ValueError),
    "empty-entry-set": (lambda: SearchConfig(entries=()), ValueError),
    "morphism-of-another-dim": (
        lambda: check_morphism(LinearFamily.identity(C2, 1), _TWO_DIM,
                               _TWO_DIM), ShapeMismatch),
    "unknown-axiom": (lambda: check_instance(_TWO_DIM).result("nosuch"),
                      KeyError),
    **{f"basis-product-{name}-out-of-range": (
        lambda key=key: _TWO_DIM.product("mul").basis_product(*key), ShapeMismatch)
       for name, key in (("a", (2, 0, 0, 0)), ("b", (0, -1, 0, 0)),
                         ("i", (0, 0, 2, 0)), ("j", (0, 0, 0, -1)))},
}


@pytest.mark.parametrize("call, error", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises(call, error):
    with pytest.raises(error):
        call()


def _dense(fam):
    """The nest of tuples whose [a][b][i][j] is e_i *_{a,b} e_j."""
    n, d = range(fam.omega.order), range(fam.dim)
    return tuple(tuple(tuple(tuple(fam.basis_product(a, b, i, j) for j in d)
                             for i in d) for b in n) for a in n)


def _dense_digest(inst) -> str:
    """The digest as it was first defined: over the repr of each product's
    dense nest of cells."""
    h = hashlib.sha256()
    h.update(inst.kind.value.encode())
    h.update(repr(inst.omega.table).encode())
    for name, fam in inst.products:
        h.update(name.encode())
        h.update(repr(_dense(fam)).encode())
    h.update(repr(inst.p.maps).encode())
    h.update(repr(inst.q.maps).encode())
    return h.hexdigest()[:16]


@st.composite
def sparse_instances(draw):
    """An instance over a semigroup of order 1 to 3 at d = 1 to 3 (so
    some of its dense nest's tuples have one item), with blocks, rows and
    cells often wholly zero, and scalar structure maps."""
    omega = draw(st.sampled_from((TRIVIAL, C2, cyclic_group(3))))
    d = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from((AlgebraKind.BIHOM_ASSOCIATIVE,
                                 AlgebraKind.DENDRIFORM)))
    entry = st.one_of(st.just(Fraction(0)), rationals)
    keys = st.tuples(*(st.integers(0, omega.order - 1),) * 2,
                     *(st.integers(0, d - 1),) * 2)
    products = tuple(
        (slot, BilinearFamily.from_cells(omega, d, draw(st.dictionaries(
            keys, st.tuples(*(entry,) * d), max_size=6))))
        for slot in kind.product_slots)
    p = LinearFamily.constant(omega, Matrix.diagonal([draw(rationals)] * d))
    return new_instance(kind, omega, products, p, p)


@given(sparse_instances())
@settings(max_examples=80, deadline=None)
def test_digest_matches_dense_tensor_digest(inst):
    assert inst.digest() == _dense_digest(inst)
