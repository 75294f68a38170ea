"""The checkers' integer cell evaluator against a Fraction evaluator of the
same axiom tables, written here over the products and maps of
reference.py and sharing no code with it.

Entries, maps and weights draw denominators up to 11, among them the
coprime 7, 9 and 11, so the common denominator and its powers get large;
the reports, their dicts and the constructed tensors must still be equal,
with every witness entry a Fraction."""

from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomega.checkers import (COMMUTATIVE_OMEGA_KINDS, KIND_AXIOMS, Map, Mul,
                               Sum, Var, _Cells, _report, check_instance,
                               check_morphism, check_rota_baxter,
                               index_classes, mismatches, morphism_axioms,
                               morphism_cells, rota_baxter_axioms,
                               rota_baxter_cells)
from bihomega.constructions import RECIPES, assoc_to_lie, rb_star_associative
from bihomega.core import (AlgebraKind, BilinearFamily, LinearFamily,
                           RotaBaxterFamily, new_instance)
from bihomega.linalg import Matrix
from bihomega.reports import AxiomResult, CheckReport, Witness
from bihomega.semigroup import (cyclic_group, left_zero_semigroup,
                                trivial_semigroup)
from reference import bilinear, map_at, nonzero_cells

C2, C3, LEFT_ZERO = cyclic_group(2), cyclic_group(3), left_zero_semigroup(2)

SCALARS = [Fraction(v) for v in (0, 0, 0, 1, -1, 2)] + [
    Fraction(n, d) for n, d in ((1, 7), (-5, 7), (2, 9), (-4, 9), (3, 11),
                                (-1, 2), (1, 3), (7, 8), (-6, 5), (5, 2))]
WEIGHTS = [Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(5, 2),
           Fraction(2, 7), Fraction(-1, 9)]
CAPS = (0, 1, 10)


# -- the Fraction evaluator -----------------------------------------------

@cache
def _reads(term):
    """The variable positions a term reads."""
    if isinstance(term, Var):
        return (term.pos,)
    parts = [t for _, t in term.terms] if isinstance(term, Sum) else [
        t for t in term if isinstance(t, tuple)]
    return tuple(sorted({pos for t in parts for pos in _reads(t)}))


def _value(term, idx, bas, env, memo):
    """(index, vector) of a term at index tuple idx and basis tuple bas;
    memo keeps each term's value per assignment of what it reads."""
    key = (term, *((idx[pos], bas[pos]) for pos in _reads(term)))
    if key not in memo:
        memo[key] = _evaluate(term, idx, bas, env, memo)
    return memo[key]


def _evaluate(term, idx, bas, env, memo):
    maps, products, weight, table, d = env
    if isinstance(term, Var):
        return idx[term.pos], tuple(Fraction(int(k == bas[term.pos]))
                                    for k in range(d))
    if isinstance(term, Mul):
        (a, x), (b, y) = (_value(t, idx, bas, env, memo)
                          for t in (term.left, term.right))
        return table[a][b], bilinear(products[term.slot], a, b, x, y)
    if isinstance(term, Map):
        a, x = _value(term.arg, idx, bas, env, memo)
        return a, map_at(maps[term.name], a, x)
    # a sum sits at the index of its first term with a nonzero coefficient
    index, total = None, (Fraction(0),) * d
    for c, t in term.terms:
        c = weight if c == "lam" else Fraction(c)
        a, v = _value(t, idx, bas, env, memo)
        if c and index is None:
            index = a
        total = tuple(s + c * u for s, u in zip(total, v))
    return index, total


def _env(inst, maps=None, products=None, weight=Fraction(0)):
    return ({"p": inst.p, "q": inst.q, **(maps or {})},
            {**dict(inst.products), **(products or {})}, weight,
            inst.omega.table, inst.dim)


def _reference(subject, axioms, env, omega, cap):
    d, results = env[4], []
    for ax in axioms:
        witnesses, total, memo = [], 0, {}
        for idx in product(range(omega.order), repeat=ax.arity):
            for bas in product(range(d), repeat=ax.arity):
                lhs = _value(ax.lhs, idx, bas, env, memo)[1]
                rhs = _value(ax.rhs, idx, bas, env, memo)[1]
                if lhs != rhs:
                    total += 1
                    if len(witnesses) < cap:
                        witnesses.append(Witness(
                            tuple(omega.elements[a] for a in idx), bas, lhs, rhs))
        results.append(AxiomResult(ax.name, tuple(witnesses), total))
    return CheckReport(subject, tuple(results))


def _assert_same(report, expected):
    assert report == expected
    assert report.to_dict() == expected.to_dict()
    for r in report.results:
        for w in r.witnesses:
            assert all(type(v) is Fraction for v in w.lhs + w.rhs)


# -- random inputs ----------------------------------------------------------

# (omega, dim) pairs whose ternary cells number at most 216
SHAPES = [(C2, 1), (C2, 2), (C2, 3), (C3, 1), (C3, 2), (LEFT_ZERO, 2),
          (LEFT_ZERO, 3)]


def _kinds(omega):
    return [k for k in AlgebraKind
            if omega is not LEFT_ZERO or k not in COMMUTATIVE_OMEGA_KINDS]


@st.composite
def matrices(draw, d):
    return Matrix(d, d, tuple(draw(st.sampled_from(SCALARS))
                              for _ in range(d * d)))


@st.composite
def families(draw, omega, d):
    return LinearFamily(omega, d, tuple(draw(matrices(d))
                                        for _ in range(omega.order)))


@st.composite
def instances(draw, kind, omega, d):
    """Random or zero products; q_a = c0 + c1 p_a + c2 p_a^2 commutes with p_a."""
    n = omega.order
    zero = draw(st.booleans())
    products = []
    for slot in kind.product_slots:
        cells = {key: tuple(Fraction(0) if zero else draw(st.sampled_from(SCALARS))
                            for _ in range(d))
                 for key in product(range(n), range(n), range(d), range(d))}
        products.append((slot, BilinearFamily.from_function(
            omega, d, lambda a, b, i, j, cells=cells: cells[a, b, i, j])))
    p = draw(families(omega, d))
    qs = []
    for m in p.maps:
        c0, c1, c2 = (draw(st.sampled_from(SCALARS)) for _ in range(3))
        rows = [[c0 * (i == j) + c1 * m.get(i, j)
                 + c2 * sum(m.get(i, k) * m.get(k, j) for k in range(d))
                 for j in range(d)] for i in range(d)]
        qs.append(Matrix.from_rows(rows))
    return new_instance(kind, omega, tuple(products), p,
                        LinearFamily(omega, d, tuple(qs)))


@st.composite
def cases(draw):
    omega, d = draw(st.sampled_from(SHAPES))
    kind = draw(st.sampled_from(_kinds(omega)))
    return omega, d, draw(instances(kind, omega, d))


# -- the differentials ------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(case=cases(), cap=st.sampled_from(CAPS))
def test_check_instance_matches_fraction_evaluator(case, cap):
    omega, d, inst = case
    expected = _reference(inst.kind.value, KIND_AXIOMS[inst.kind], _env(inst),
                          omega, cap)
    _assert_same(check_instance(inst, max_witnesses=cap), expected)


@settings(max_examples=15, deadline=None)
@given(case=cases(), cap=st.sampled_from(CAPS), data=st.data())
def test_check_rota_baxter_matches_fraction_evaluator(case, cap, data):
    omega, d, inst = case
    rb = RotaBaxterFamily(data.draw(families(omega, d)),
                          data.draw(st.sampled_from(WEIGHTS)))
    expected = _reference("rota-baxter", rota_baxter_axioms(inst.slot_names),
                          _env(inst, {"R": rb.maps}, weight=rb.weight), omega, cap)
    _assert_same(check_rota_baxter(inst, rb, max_witnesses=cap), expected)


@settings(max_examples=15, deadline=None)
@given(case=cases(), cap=st.sampled_from(CAPS), data=st.data())
def test_check_morphism_matches_fraction_evaluator(case, cap, data):
    omega, d, src = case
    dst = data.draw(st.one_of(st.just(src), instances(src.kind, omega, d)))
    f = data.draw(families(omega, d))
    env = _env(src, {"P": dst.p, "Q": dst.q, "f": f},
               {slot + "'": fam for slot, fam in dst.products})
    expected = _reference("morphism", morphism_axioms(src.slot_names), env,
                          omega, cap)
    _assert_same(check_morphism(f, src, dst, max_witnesses=cap), expected)


@pytest.mark.parametrize("with_rb", [False, True], ids=["kind", "rota-baxter"])
@settings(max_examples=10, deadline=None)
@given(case=cases(), data=st.data())
def test_rebinding_one_index_matches_the_fraction_evaluator(with_rb, case, data):
    """One binding checked, then rebound at one index after another as a
    search rebinds it, gives the report of the instance with those
    matrices in place: no column, and no memo entry of a sub-term that
    read the index, outlives its matrix.  With R, rb-commutes-p reads
    R's column in p(R(X)) and R's matrix in R(p(X)), so a stale column
    shows as a mismatch."""
    omega, d, inst = case
    n, den = omega.order, lcm(*(v.denominator for v in SCALARS))
    maps = {"p": list(inst.p.maps), "q": list(inst.q.maps)}
    if with_rb:
        rb = RotaBaxterFamily(data.draw(families(omega, d)),
                              data.draw(st.sampled_from(WEIGHTS)))
        maps["R"] = list(rb.maps.maps)
        subject, axioms = "rota-baxter", rota_baxter_axioms(inst.slot_names)
        cells = rota_baxter_cells(inst, rb, den=den)
    else:
        subject, axioms = inst.kind.value, KIND_AXIOMS[inst.kind]
        cells = _Cells(inst, den=den)
    for step in range(3):
        if step:
            name = data.draw(st.sampled_from(sorted(maps)))
            k = data.draw(st.integers(0, n - 1))
            maps[name][k] = data.draw(matrices(d))
            cells.rebind(name, k, maps[name][k])
        fams = {name: LinearFamily(omega, d, tuple(mats))
                for name, mats in maps.items()}
        now = replace(inst, p=fams["p"], q=fams["q"])
        env = (_env(now, {"R": fams["R"]}, weight=rb.weight) if with_rb
               else _env(now))
        expected = _reference(subject, axioms, env, omega, 10)
        _assert_same(_report(subject, axioms, cells, 10), expected)


# -- one binding handed to the checkers, family after family -----------------

HANDED_SHAPES = [(trivial_semigroup(), 1), (trivial_semigroup(), 2), (C2, 1),
                 (C2, 2), (LEFT_ZERO, 1), (LEFT_ZERO, 2)]
HANDED_WEIGHTS = (Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2))


@st.composite
def family_sequences(draw, omega, d, passing):
    """A random family, the zero one, a constant random one, `passing`
    and a random one: each differs from the one before at index 0, so
    not only at the last index."""
    zero = LinearFamily.constant(omega, Matrix.zero(d, d))

    def apart(*fams):
        return lambda fam: all(fam.maps[0] != g.maps[0] for g in fams)
    constant = matrices(d).map(partial(LinearFamily.constant, omega))
    return [draw(families(omega, d).filter(apart(zero))), zero,
            draw(constant.filter(apart(zero, passing))), passing,
            draw(families(omega, d).filter(apart(passing)))]


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(HANDED_SHAPES), data=st.data())
def test_one_handed_binding_decides_each_family_as_a_fresh_call(shape, data):
    """What a search does with its hits: one binding, made once, handed
    to the checker with family after family, gives every report of a
    fresh call.  A column, a matrix or a memo kept from the family before
    would show as a report that differs."""
    omega, d = shape
    inst = data.draw(instances(data.draw(st.sampled_from(_kinds(omega))),
                               omega, d))
    den, ident = lcm(*(v.denominator for v in SCALARS)), LinearFamily.identity(omega, d)
    weight = data.draw(st.sampled_from(HANDED_WEIGHTS))
    cells = rota_baxter_cells(inst, RotaBaxterFamily(ident, weight), den=den)
    # -weight * id passes for any product, and with any p and q
    minus = LinearFamily.constant(omega, Matrix.diagonal([-weight] * d))
    for fam in data.draw(family_sequences(omega, d, minus)):
        rb = RotaBaxterFamily(fam, weight)
        _assert_same(check_rota_baxter(inst, rb, cells=cells),
                     check_rota_baxter(inst, rb))
    dst = data.draw(st.one_of(st.just(inst), instances(inst.kind, omega, d)))
    cells = morphism_cells(ident, inst, dst, den=den)
    for f in data.draw(family_sequences(omega, d, ident)):
        _assert_same(check_morphism(f, inst, dst, cells=cells),
                     check_morphism(f, inst, dst))


def _uniform(inst):
    """inst with its maps and products at every index those at index 0."""
    omega, d = inst.omega, inst.dim

    def uniform(fam):
        return BilinearFamily.from_function(
            omega, d, lambda a, b, i, j: fam.basis_product(0, 0, i, j))
    return new_instance(inst.kind, omega,
                        tuple((slot, uniform(fam)) for slot, fam in inst.products),
                        LinearFamily.constant(omega, inst.p.maps[0]),
                        LinearFamily.constant(omega, inst.q.maps[0]))


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(HANDED_SHAPES + [(C3, 1)]), data=st.data())
def test_a_handed_binding_has_the_index_classes_of_a_fresh_one(shape, data):
    """A binding numbers its product blocks once: after the checker
    rebinds the family, `index_classes` gives the partition, and the
    numbering, of a binding made fresh for that family.  Where the
    instance's own data are the same at every index, the family alone
    parts the indices, so a number kept from the family before shows."""
    omega, d = shape
    inst = data.draw(instances(data.draw(st.sampled_from(_kinds(omega))),
                               omega, d))
    uniform = data.draw(st.booleans())
    if uniform:
        inst = _uniform(inst)
    den, ident = lcm(*(v.denominator for v in SCALARS)), LinearFamily.identity(omega, d)
    weight = data.draw(st.sampled_from(HANDED_WEIGHTS))
    cells = rota_baxter_cells(inst, RotaBaxterFamily(ident, weight), den=den)
    minus = LinearFamily.constant(omega, Matrix.diagonal([-weight] * d))
    for fam in data.draw(family_sequences(omega, d, minus)):
        rb = RotaBaxterFamily(fam, weight)
        check_rota_baxter(inst, rb, cells=cells)
        assert index_classes(cells) == index_classes(rota_baxter_cells(inst, rb))
    dst = data.draw(st.one_of(st.just(inst), instances(inst.kind, omega, d)))
    if uniform:
        dst = _uniform(dst)
    cells = morphism_cells(ident, inst, dst, den=den)
    for f in data.draw(family_sequences(omega, d, ident)):
        check_morphism(f, inst, dst, cells=cells)
        assert index_classes(cells) == index_classes(morphism_cells(f, inst, dst))


def _rational_instance():
    """BiHom-associative over C2: p, q and the product over 3, 4, 7, 9, 11."""
    p = LinearFamily(C2, 2, (Matrix.from_rows([[Fraction(1, 7), 1], [0, 2]]),
                             Matrix.from_rows([[Fraction(-2, 9), 0], [1, 1]])))
    q = LinearFamily(C2, 2, tuple(Matrix.from_rows(
        [[3 * m.get(i, j) + (i == j) for j in range(2)] for i in range(2)])
        for m in p.maps))
    cube = {(a, b, i, j): (Fraction(a + i - j, 3 + b), Fraction(j - 2 * i, 11))
            for a, b, i, j in product(range(2), repeat=4)}
    return new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2, (
        ("mul", BilinearFamily.from_function(C2, 2, lambda *k: cube[k])),), p, q)


def _assert_product(out, slot, term, env):
    fam = out.product(slot)
    for a, b, i, j in product(range(2), repeat=4):
        cell = fam.basis_product(a, b, i, j)
        assert cell == _value(term, (a, b), (i, j), env, {})[1]
        assert all(type(v) is Fraction for v in cell)
    assert any(v.denominator > 1 for cell in nonzero_cells(fam).values()
               for v in cell)


def test_constructed_product_matches_fraction_evaluator():
    """rb_star_associative with weight 5/2 and R over 7, 9 and 11."""
    inst = _rational_instance()
    rb = RotaBaxterFamily(LinearFamily(C2, 2, (
        Matrix.from_rows([[Fraction(3, 11), Fraction(-1, 7)], [0, Fraction(5, 9)]]),
        Matrix.from_rows([[1, 0], [Fraction(2, 7), Fraction(-4, 11)]]))),
        Fraction(5, 2))
    _assert_product(rb_star_associative(inst, rb, unchecked=True), "mul",
                    RECIPES["rb_star_associative"].products["mul"],
                    _env(inst, {"R": rb.maps}, weight=rb.weight))


def test_flip_product_matches_fraction_evaluator():
    """assoc_to_lie: x.y at degree 1 minus the flip through p^-1 and q^-1 at
    degree 5, so the sum lifts its first term."""
    inst = _rational_instance()
    _assert_product(assoc_to_lie(inst, unchecked=True), "bracket",
                    RECIPES["assoc_to_lie"].products["bracket"],
                    _env(inst, {"P": inst.p.inverse(), "Q": inst.q.inverse()}))


@settings(max_examples=10, deadline=None)
@given(case=cases(), data=st.data())
def test_one_mismatches_per_axiom_across_rebinds_matches_the_fraction_evaluator(
        case, data):
    """As a search binds: one `mismatches` function per axiom, kept across
    rebinds of p, q or R at one index after another.  After each rebind
    every index tuple's mismatches are the Fraction evaluator's with those
    matrices in place, so no bound side keeps a stale matrix, column or
    memo."""
    _assert_rebinds_match(case, data)


def _assert_rebinds_match(case, data):
    omega, d, inst = case
    n = omega.order
    rb = RotaBaxterFamily(data.draw(families(omega, d)),
                          data.draw(st.sampled_from(WEIGHTS)))
    axioms = KIND_AXIOMS[inst.kind] + rota_baxter_axioms(inst.slot_names)
    cells = rota_baxter_cells(inst, rb,
                              den=lcm(*(v.denominator for v in SCALARS)))
    checks = [(ax, *mismatches(ax, cells)) for ax in axioms]
    maps = {"p": list(inst.p.maps), "q": list(inst.q.maps),
            "R": list(rb.maps.maps)}
    for step in range(4):
        if step:
            name, k = data.draw(st.sampled_from("pqR")), data.draw(st.integers(0, n - 1))
            m = maps[name][k] = data.draw(matrices(d))
            cells.rebind(name, k, m)
        fams = {name: LinearFamily(omega, d, tuple(mats))
                for name, mats in maps.items()}
        env = _env(replace(inst, p=fams["p"], q=fams["q"]), {"R": fams["R"]},
                   weight=rb.weight)
        memo = {}
        for ax, degree, at in checks:
            for idx in product(range(n), repeat=ax.arity):
                expected = []
                for bas in product(range(d), repeat=ax.arity):
                    lhs = _value(ax.lhs, idx, bas, env, memo)[1]
                    rhs = _value(ax.rhs, idx, bas, env, memo)[1]
                    if lhs != rhs:
                        expected.append((bas, lhs, rhs))
                assert [(bas, cells.rational(lhs, degree),
                         cells.rational(rhs, degree))
                        for bas, lhs, rhs in at(idx)] == expected, (ax.name, idx)


# -- merged index classes -----------------------------------------------------
# The draws above give fresh data at each index, so that index classes
# rarely merge.  Here two values are drawn per family, and a pattern,
# shared by every map of an instance, picks one of them at each index (a
# second pattern, at each index pair, for the blocks); so equal data
# recurs, both where it is a congruence of Omega and where it is not.

@st.composite
def pooled(draw, values, pattern):
    """One of two different values drawn from `values` per entry of the
    pattern."""
    pool = draw(st.tuples(values, values).filter(lambda pair: pair[0] != pair[1]))
    return tuple(pool[k] for k in pattern)


def _cubes(d):
    scalar = st.sampled_from(SCALARS)
    return st.tuples(*[st.tuples(*[st.tuples(*[scalar] * d)] * d)] * d)


def _polynomial(m, c0, c1, c2):
    """c0 + c1 m + c2 m^2, which commutes with m."""
    d = m.rows
    return Matrix.from_rows([[c0 * (i == j) + c1 * m.get(i, j)
                              + c2 * sum(m.get(i, k) * m.get(k, j) for k in range(d))
                              for j in range(d)] for i in range(d)])


@st.composite
def patterns(draw, omega):
    """(at each index, at each index pair), the blocks' often constant."""
    n = omega.order
    bits = partial(st.lists, st.integers(0, 1))
    return (tuple(draw(bits(min_size=n, max_size=n))),
            tuple(draw(st.one_of(st.just([0] * n * n),
                                 bits(min_size=n * n, max_size=n * n)))))


@st.composite
def pooled_families(draw, omega, d, pattern):
    return LinearFamily(omega, d, draw(pooled(matrices(d), pattern[0])))


@st.composite
def pooled_instances(draw, kind, omega, d, pattern):
    n = omega.order
    products = []
    for slot in kind.product_slots:
        blocks = draw(pooled(_cubes(d), pattern[1]))
        products.append((slot, BilinearFamily.from_function(
            omega, d, lambda a, b, i, j, blocks=blocks: blocks[a * n + b][i][j])))
    p = draw(pooled_families(omega, d, pattern))
    scalar = st.sampled_from(SCALARS)
    coefficients = draw(pooled(st.tuples(scalar, scalar, scalar), pattern[0]))
    q = LinearFamily(omega, d, tuple(_polynomial(m, *c) for m, c
                                     in zip(p.maps, coefficients)))
    return new_instance(kind, omega, tuple(products), p, q)


# as many witnesses as cells, so that a wrong value past the first few
# shows even where random data fails at every cell
ALL_CELLS = 216


def _capped(report, cap):
    return CheckReport(report.subject, tuple(
        replace(r, witnesses=r.witnesses[:cap]) for r in report.results))


def _assert_all_checkers_match(inst, dst, rb, f, caps):
    """Each checker's report against the reference's, at each cap."""
    omega = inst.omega
    for check, subject, axioms, env in (
            (partial(check_instance, inst), inst.kind.value,
             KIND_AXIOMS[inst.kind], _env(inst)),
            (partial(check_rota_baxter, inst, rb), "rota-baxter",
             rota_baxter_axioms(inst.slot_names),
             _env(inst, {"R": rb.maps}, weight=rb.weight)),
            (partial(check_morphism, f, inst, dst), "morphism",
             morphism_axioms(inst.slot_names),
             _env(inst, {"P": dst.p, "Q": dst.q, "f": f},
                  {slot + "'": fam for slot, fam in dst.products}))):
        expected = _reference(subject, axioms, env, omega, ALL_CELLS)
        for cap in caps:
            _assert_same(check(max_witnesses=cap), _capped(expected, cap))


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(SHAPES), cap=st.sampled_from(CAPS), data=st.data())
def test_checkers_on_merged_index_classes_match_the_fraction_evaluator(
        shape, cap, data):
    omega, d = shape
    kind = data.draw(st.sampled_from(_kinds(omega)))
    pattern = data.draw(patterns(omega))
    inst = data.draw(pooled_instances(kind, omega, d, pattern))
    dst = data.draw(st.one_of(st.just(inst),
                              pooled_instances(kind, omega, d, pattern)))
    rb = RotaBaxterFamily(data.draw(pooled_families(omega, d, pattern)),
                          data.draw(st.sampled_from(WEIGHTS)))
    f = data.draw(pooled_families(omega, d, pattern))
    _assert_all_checkers_match(inst, dst, rb, f, (cap, ALL_CELLS))


def test_equal_data_at_indices_that_are_not_congruent_is_checked_at_each():
    """Over C3, p_0 = p_1 = 1 and p_2 = 2: at (1, 1), whose product is 2,
    p-multiplicativity fails, while at (0, 0), which reads the same maps
    and blocks, it holds; so do R and f with the same pattern."""
    cube = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    bracket = BilinearFamily.from_function(C3, 2, lambda a, b, i, j: cube[i][j])
    pattern = LinearFamily(C3, 2, tuple(Matrix.diagonal((s, s)) for s in (1, 1, 2)))
    inst = new_instance(AlgebraKind.LIE, C3, (("bracket", bracket),), pattern,
                        LinearFamily.identity(C3, 2))
    _assert_all_checkers_match(inst, inst, RotaBaxterFamily(pattern, 1),
                               pattern, CAPS)
    assert not check_instance(inst).result("p-multiplicativity").passed


# -- mixed zero blocks ----------------------------------------------------------
# A term over a zero block is skipped where it is bound.  Here each (a, b)
# block of each product is zero or not at random, and some single cells
# of the others too, so that sums, maps and products mix zero terms with
# nonzero ones, and a side can be zero where the other is not.

@st.composite
def mixed_blocks(draw, omega, d):
    n, scalar = omega.order, st.sampled_from(SCALARS)
    zero = (Fraction(0),) * d

    def cube():
        return tuple(tuple(zero if draw(st.integers(0, 3)) == 0
                           else tuple(draw(scalar) for _ in range(d))
                           for _ in range(d)) for _ in range(d))
    blocks = [((zero,) * d,) * d if draw(st.booleans()) else cube()
              for _ in range(n * n)]
    return BilinearFamily.from_function(
        omega, d, lambda a, b, i, j: blocks[a * n + b][i][j])


@st.composite
def mixed_instances(draw, kind, omega, d):
    """q_a = c0 + c1 p_a + c2 p_a^2 commutes with p_a."""
    products = tuple((slot, draw(mixed_blocks(omega, d)))
                     for slot in kind.product_slots)
    p = draw(families(omega, d))
    scalar = st.sampled_from(SCALARS)
    q = LinearFamily(omega, d, tuple(
        _polynomial(m, draw(scalar), draw(scalar), draw(scalar)) for m in p.maps))
    return new_instance(kind, omega, products, p, q)


@st.composite
def mixed_cases(draw):
    omega, d = draw(st.sampled_from(SHAPES))
    kind = draw(st.sampled_from(_kinds(omega)))
    return omega, d, draw(mixed_instances(kind, omega, d))


@settings(max_examples=15, deadline=None)
@given(case=mixed_cases(), cap=st.sampled_from(CAPS), data=st.data())
def test_checkers_on_mixed_zero_blocks_match_the_fraction_evaluator(
        case, cap, data):
    """check_instance, check_rota_baxter and check_morphism, every witness."""
    omega, d, inst = case
    dst = data.draw(st.one_of(st.just(inst), mixed_instances(inst.kind, omega, d)))
    rb = RotaBaxterFamily(data.draw(families(omega, d)),
                          data.draw(st.sampled_from(WEIGHTS)))
    _assert_all_checkers_match(inst, dst, rb, data.draw(families(omega, d)),
                               (cap, ALL_CELLS))


@settings(max_examples=10, deadline=None)
@given(case=mixed_cases(), data=st.data())
def test_mixed_zero_blocks_across_rebinds_match_the_fraction_evaluator(
        case, data):
    """One `mismatches` function per axiom, kept across rebinds of p, q or
    R: a side bound as zero stays zero whatever the maps become."""
    _assert_rebinds_match(case, data)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_constructed_product_on_mixed_zero_blocks_matches_fraction_evaluator(data):
    """rb_star_associative: x.R(y) + R(x).y + lam x.y is zero, and written
    as zeros, on every block where the product is."""
    omega, d = data.draw(st.sampled_from(SHAPES))
    inst = data.draw(mixed_instances(AlgebraKind.BIHOM_ASSOCIATIVE, omega, d))
    rb = RotaBaxterFamily(data.draw(families(omega, d)),
                          data.draw(st.sampled_from(WEIGHTS)))
    out = rb_star_associative(inst, rb, unchecked=True)
    term = RECIPES["rb_star_associative"].products["mul"]
    env = _env(inst, {"R": rb.maps}, weight=rb.weight)
    fam = out.product("mul")
    for a, b in product(range(omega.order), repeat=2):
        for i, j in product(range(d), repeat=2):
            cell = fam.basis_product(a, b, i, j)
            assert cell == _value(term, (a, b), (i, j), env, {})[1]
            assert all(type(v) is Fraction for v in cell)
