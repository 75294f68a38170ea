from fractions import Fraction
from functools import partial
from itertools import product

import pytest

import classical
from bihomega.checkers import (Mul, Sum, X, Y, check_instance,
                               check_rota_baxter, term_reads)
from bihomega.constructions import (CONSTRUCTIONS, assoc_as_prelie,
                                    assoc_to_lie, dendriform_to_prelie,
                                    dendriform_total, lie_rb_to_postlie,
                                    postlie_to_lie, prelie_to_lie,
                                    rb_bracket_lie, rb_lie_to_prelie,
                                    rb_split_dendriform, rb_star_associative,
                                    yau_twist)
from bihomega.constructions import RECIPES, Recipe, _construction
from bihomega.core import (ASSOCIATIVE_KINDS, AlgebraKind, BilinearFamily,
                           LinearFamily, RotaBaxterFamily, new_instance)
from bihomega.errors import (KindMismatch, MorphismCheckFailed,
                             NonCommutingFamilies, NonzeroWeight,
                             PreconditionCheckFailed, ShapeMismatch, Singular)
from bihomega.errors import NonCommutativeOmega
from bihomega.forge import (constant_product_instance, make_two_dim_example,
                            two_dim_params, zero_instance)
from bihomega.linalg import Matrix, mat_inverse
from bihomega.semigroup import (SemigroupTable, cyclic_group,
                                trivial_semigroup, validate_semigroup)
from bihomega.semigroup import left_zero_semigroup
from conftest import LIE_2D, two_dim_instance
from reference import bilinear, map_at, mat_vec, nonzero_cells
from test_checkers import GATED_KINDS, _maps_read, _twisted_instance, _words

TRIVIAL = trivial_semigroup()
C2 = cyclic_group(2)


def rb_const(omega, rows, weight=0):
    fam = LinearFamily.constant(omega, Matrix.from_rows(rows))
    return RotaBaxterFamily(fam, Fraction(weight))


def test_yau_twist_identity_pair_is_fixpoint():
    a = two_dim_instance(C2)
    ident = LinearFamily.identity(C2, 2)
    out = yau_twist(a, ident, ident)
    assert out.products == a.products
    assert out.p == a.p
    assert out.q == a.q


def test_yau_twist_projection_pair():
    a = two_dim_instance(C2)
    # column sums 1: a morphism of the product e_i * e_j = e_i
    m = Matrix.from_rows([[1, 1], [0, 0]])
    p2 = LinearFamily.constant(C2, m)
    out = yau_twist(a, p2, p2)
    for al in C2.indices():
        for be in C2.indices():
            for i in range(2):
                for j in range(2):
                    assert (out.product("mul").basis_product(al, be, i, j)
                            == (1, 0))
    assert out.p.matrix(0) == m
    assert check_instance(out).passed


def test_yau_twist_rejects_non_morphism():
    a = two_dim_instance(C2)
    bad = LinearFamily.constant(C2, Matrix.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(MorphismCheckFailed):
        yau_twist(a, bad, bad)


def test_yau_twist_rejects_noncommuting_pair():
    a = zero_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2, 2)
    p2 = LinearFamily.constant(C2, Matrix.from_rows([[0, 1], [0, 0]]))
    q2 = LinearFamily.constant(C2, Matrix.from_rows([[0, 0], [1, 0]]))
    with pytest.raises(NonCommutingFamilies) as err:
        yau_twist(a, p2, q2)
    assert err.value.names == ("p2", "q2")


def test_yau_twist_names_both_indices_of_the_first_noncommuting_pair():
    # f commutes with itself at each index, but not f at g0 with f at g1
    a = zero_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2, 2)
    f = LinearFamily(C2, 2, (Matrix.from_rows([[1, 1], [0, 1]]),
                             Matrix.from_rows([[1, 0], [1, 1]])))
    assert f.commutes_with(f) == (False, (0, 1))
    with pytest.raises(NonCommutingFamilies) as err:
        yau_twist(a, f, f)
    assert (err.value.names, err.value.indices) == (("p2", "q2"), ("g0", "g1"))
    assert str(err.value) == ("families p2 and q2 do not commute: "
                              "p2 at 'g0' with q2 at 'g1'")


def test_yau_twist_checks_commuting_families_before_the_checkers():
    a = new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2, (
        ("mul", BilinearFamily.from_function(
            C2, 2, lambda al, be, i, j: (i + be, j - al))),),
        LinearFamily.identity(C2, 2), LinearFamily.identity(C2, 2))
    assert not check_instance(a).passed
    p2 = LinearFamily.constant(C2, Matrix.from_rows([[0, 1], [0, 0]]))
    q2 = LinearFamily.constant(C2, Matrix.from_rows([[0, 0], [1, 0]]))
    with pytest.raises(NonCommutingFamilies) as err:
        yau_twist(a, p2, q2)
    assert err.value.names == ("p2", "q2")


def test_rb_star_zero_operator_scales_by_weight():
    a = two_dim_instance(C2)
    rb = rb_const(C2, [[0, 0], [0, 0]], weight=2)
    out = rb_star_associative(a, rb)
    assert nonzero_cells(out.product("mul")) == {
        key: tuple(2 * v for v in cell)
        for key, cell in nonzero_cells(a.product("mul")).items()}


def test_rb_star_minus_weight_identity_negates():
    a = two_dim_instance(C2)
    rb = rb_const(C2, [[-1, 0], [0, -1]], weight=1)
    out = rb_star_associative(a, rb)
    # x*y = x(-y) + (-x)y + xy = -xy
    assert nonzero_cells(out.product("mul")) == {
        key: tuple(-v for v in cell)
        for key, cell in nonzero_cells(a.product("mul")).items()}


def test_rb_star_rejects_non_operator():
    a = two_dim_instance(C2)
    bad = rb_const(C2, [[1, 0], [0, 2]], weight=0)
    with pytest.raises(PreconditionCheckFailed):
        rb_star_associative(a, bad)


def test_splitting_round_trip():
    a = two_dim_instance(C2)
    for weight, rows in ((0, [[0, 0], [0, 0]]), (1, [[-1, 0], [0, -1]]),
                         (1, [[0, 0], [0, -1]])):
        rb = rb_const(C2, rows, weight=weight)
        if not check_rota_baxter(a, rb).passed:
            continue
        dend = rb_split_dendriform(a, rb)
        total = dendriform_total(dend)
        star = rb_star_associative(a, rb)
        assert total.product("mul") == star.product("mul")


def test_dendriform_total_kind_mismatch():
    with pytest.raises(KindMismatch):
        dendriform_total(two_dim_instance(C2))


def test_dendriform_to_prelie_matches_classical_oracle():
    # trivial index semigroup, identity maps: reduces to the classical map
    a = two_dim_instance(TRIVIAL)
    rb = rb_const(TRIVIAL, [[0, 0], [0, -1]], weight=1)
    assert check_rota_baxter(a, rb).passed
    dend = rb_split_dendriform(a, rb)
    pre = dendriform_to_prelie(dend)
    prec = [[list(dend.product("prec").basis_product(0, 0, i, j))
             for j in range(2)] for i in range(2)]
    succ = [[list(dend.product("succ").basis_product(0, 0, i, j))
             for j in range(2)] for i in range(2)]
    expected = classical.dendriform_to_prelie(prec, succ)
    got = [[list(pre.product("triangle").basis_product(0, 0, i, j))
            for j in range(2)] for i in range(2)]
    assert got == expected


def test_dendriform_to_prelie_needs_invertible_maps():
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    a = make_two_dim_example(params, reading="e1")  # singular q
    dend = new_instance(AlgebraKind.DENDRIFORM, C2,
                        (("prec", a.product("mul")),
                         ("succ", BilinearFamily.zero(C2, 2))),
                        a.p, a.q)
    with pytest.raises(Singular):
        dendriform_to_prelie(dend)


def test_commutators_check_invertibility_before_the_checkers():
    # singular q and a product that fails every kind's checker
    q = LinearFamily(C2, 2, (Matrix.diagonal([1, 0]), Matrix.diagonal([2, 1])))
    mul = BilinearFamily.from_function(C2, 2, lambda a, b, i, j: (i + b, j - a))
    for construction, kind, slots in (
            (assoc_to_lie, AlgebraKind.BIHOM_ASSOCIATIVE, ("mul",)),
            (prelie_to_lie, AlgebraKind.PRELIE, ("triangle",)),
            (postlie_to_lie, AlgebraKind.POSTLIE, ("bracket", "triangle"))):
        a = new_instance(kind, C2, tuple((s, mul) for s in slots),
                         LinearFamily.identity(C2, 2), q)
        assert not check_instance(a).passed
        with pytest.raises(Singular, match="'g0' is singular"):
            construction(a)


def test_chain_equality_assoc_to_lie():
    for a in (two_dim_instance(TRIVIAL), two_dim_instance(C2)):
        direct = assoc_to_lie(a)
        staged = prelie_to_lie(assoc_as_prelie(a))
        assert direct.product("bracket") == staged.product("bracket")


def test_assoc_to_lie_matches_classical_commutator():
    a = two_dim_instance(TRIVIAL)
    out = assoc_to_lie(a)
    cube = [[list(a.product("mul").basis_product(0, 0, i, j))
             for j in range(2)] for i in range(2)]
    expected = classical.commutator(cube)
    got = [[list(out.product("bracket").basis_product(0, 0, i, j))
            for j in range(2)] for i in range(2)]
    assert got == expected


def test_rb_bracket_lie_precondition_failure():
    sym = constant_product_instance(
        AlgebraKind.LIE, C2, {"bracket": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]})
    rb = rb_const(C2, [[0, 0], [0, 0]], weight=0)
    with pytest.raises(PreconditionCheckFailed):
        rb_bracket_lie(sym, rb)
    # unchecked skips the gate
    out = rb_bracket_lie(sym, rb, unchecked=True)
    assert out.kind is AlgebraKind.LIE


def test_rb_lie_to_prelie_weight_zero_only():
    lie = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    rb = rb_const(C2, [[0, 0], [0, 0]], weight=1)
    with pytest.raises(NonzeroWeight):
        rb_lie_to_prelie(lie, rb)


def test_rb_lie_to_prelie_zero_operator():
    lie = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    rb = rb_const(C2, [[0, 0], [0, 0]], weight=0)
    out = rb_lie_to_prelie(lie, rb)
    assert out.product("triangle") == BilinearFamily.zero(C2, 2)
    assert out.provenance.parameters == (("weight", "0"),)


def test_postlie_diagram_commutes():
    lie = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    for lam in (Fraction(0), Fraction(1), Fraction(-1)):
        for rows in ([[0, 0], [0, 0]], [[-lam, 0], [0, -lam]]):
            rb = rb_const(C2, rows, weight=lam)
            if not check_rota_baxter(lie, rb).passed:
                continue
            via_postlie = postlie_to_lie(lie_rb_to_postlie(lie, rb))
            direct = rb_bracket_lie(lie, rb)
            assert (via_postlie.product("bracket")
                    == direct.product("bracket"))


def test_postlie_to_lie_matches_classical_oracle():
    lie = constant_product_instance(AlgebraKind.LIE, TRIVIAL,
                                    {"bracket": LIE_2D})
    rb = rb_const(TRIVIAL, [[-1, 0], [0, -1]], weight=1)
    post = lie_rb_to_postlie(lie, rb)
    br = [[list(post.product("bracket").basis_product(0, 0, i, j))
           for j in range(2)] for i in range(2)]
    tri = [[list(post.product("triangle").basis_product(0, 0, i, j))
            for j in range(2)] for i in range(2)]
    expected = classical.postlie_to_lie(br, tri)
    out = postlie_to_lie(post)
    got = [[list(out.product("bracket").basis_product(0, 0, i, j))
            for j in range(2)] for i in range(2)]
    assert got == expected


@pytest.mark.parametrize("unchecked", [False, True])
@pytest.mark.parametrize("omega, dim", [(cyclic_group(3), 2), (TRIVIAL, 2),
                                        (C2, 1)], ids=["C3", "trivial", "dim1"])
def test_operand_of_another_shape_refused_before_any_requirement(
        omega, dim, unchecked):
    # unchecked skips the checks, not the shapes: products read R_a and
    # commutation reads p2_a at every index a of the input's semigroup
    a = two_dim_instance(C2)
    rb = rb_const(omega, [[0] * dim] * dim)
    with pytest.raises(ShapeMismatch, match="rb does not match"):
        rb_star_associative(a, rb, unchecked=unchecked)
    with pytest.raises(ShapeMismatch, match="p2 does not match"):
        yau_twist(a, rb.maps, LinearFamily.identity(C2, 2),
                  unchecked=unchecked)


def test_outputs_carry_provenance():
    a = two_dim_instance(C2)
    out = assoc_to_lie(a)
    assert out.provenance is not None
    assert out.provenance.construction == "assoc_to_lie"
    assert out.provenance.input_digests == (a.digest(),)


def test_constructions_follow_their_formulas_on_twisted_input():
    """Every construction, unchecked, on C2 with p != q differing per index
    and a different asymmetric product per slot, against its formula."""
    assoc, dend, prelie, lie, post = (_twisted_instance(k) for k in (
        AlgebraKind.BIHOM_ASSOCIATIVE, AlgebraKind.DENDRIFORM,
        AlgebraKind.PRELIE, AlgebraKind.LIE, AlgebraKind.POSTLIE))
    p, q = assoc.p, assoc.q  # shared by every kind of _twisted_instance
    r_maps = LinearFamily(C2, 2, (Matrix.from_rows([[1, 2], [0, -1]]),
                                  Matrix.from_rows([[0, 1], [3, 2]])))
    rb, rb0 = RotaBaxterFamily(r_maps, 3), RotaBaxterFamily(r_maps, 0)
    p2 = LinearFamily(C2, 2, (Matrix.diagonal([2, 1]), Matrix.diagonal([1, -1])))
    q2 = LinearFamily(C2, 2, (Matrix.diagonal([-1, 3]), Matrix.diagonal([2, 2])))
    m, br, tri, prec, succ, pbr, ptri = (
        partial(bilinear, inst.product(s)) for inst, s in (
            (assoc, "mul"), (lie, "bracket"), (prelie, "triangle"), (dend, "prec"),
            (dend, "succ"), (post, "bracket"), (post, "triangle")))

    def R(a, v):
        return map_at(rb.maps, a, v)

    def inv(fam, a, v):
        return mat_vec(mat_inverse(fam.matrix(a)), v)

    def flip(op, a, b, x, y):
        # (p_b^-1 q_b (y)) op_{b,a} (p_a q_a^-1 (x))
        return op(b, a, inv(p, b, map_at(q, b, y)), map_at(p, a, inv(q, a, x)))

    def comb(*terms):
        return tuple(sum(c * v[k] for c, v in terms) for k in range(2))

    cases = {
        "yau_twist": (yau_twist(dend, p2, q2, unchecked=True), {
            "prec": lambda a, b, x, y: prec(a, b, map_at(p2, a, x), map_at(q2, b, y)),
            "succ": lambda a, b, x, y: succ(a, b, map_at(p2, a, x), map_at(q2, b, y))}),
        "rb_star_associative": (rb_star_associative(assoc, rb, unchecked=True), {
            "mul": lambda a, b, x, y: comb((1, m(a, b, x, R(b, y))),
                                           (1, m(a, b, R(a, x), y)),
                                           (3, m(a, b, x, y)))}),
        "dendriform_total": (dendriform_total(dend, unchecked=True), {
            "mul": lambda a, b, x, y: comb((1, prec(a, b, x, y)),
                                           (1, succ(a, b, x, y)))}),
        "rb_split_dendriform": (rb_split_dendriform(assoc, rb, unchecked=True), {
            "prec": lambda a, b, x, y: comb((1, m(a, b, x, R(b, y))),
                                            (3, m(a, b, x, y))),
            "succ": lambda a, b, x, y: m(a, b, R(a, x), y)}),
        "dendriform_to_prelie": (dendriform_to_prelie(dend, unchecked=True), {
            "triangle": lambda a, b, x, y: comb((1, succ(a, b, x, y)),
                                                (-1, flip(prec, a, b, x, y)))}),
        "assoc_as_prelie": (assoc_as_prelie(assoc, unchecked=True),
                            {"triangle": m}),
        "prelie_to_lie": (prelie_to_lie(prelie, unchecked=True), {
            "bracket": lambda a, b, x, y: comb((1, tri(a, b, x, y)),
                                               (-1, flip(tri, a, b, x, y)))}),
        "assoc_to_lie": (assoc_to_lie(assoc, unchecked=True), {
            "bracket": lambda a, b, x, y: comb((1, m(a, b, x, y)),
                                               (-1, flip(m, a, b, x, y)))}),
        "rb_bracket_lie": (rb_bracket_lie(lie, rb, unchecked=True), {
            "bracket": lambda a, b, x, y: comb((1, br(a, b, R(a, x), y)),
                                               (1, br(a, b, x, R(b, y))),
                                               (3, br(a, b, x, y)))}),
        "rb_lie_to_prelie": (rb_lie_to_prelie(lie, rb0, unchecked=True), {
            "triangle": lambda a, b, x, y: br(a, b, R(a, x), y)}),
        "postlie_to_lie": (postlie_to_lie(post, unchecked=True), {
            "bracket": lambda a, b, x, y: comb((1, ptri(a, b, x, y)),
                                               (-1, flip(ptri, a, b, x, y)),
                                               (1, pbr(a, b, x, y)))}),
        "lie_rb_to_postlie": (lie_rb_to_postlie(lie, rb, unchecked=True), {
            "bracket": lambda a, b, x, y: comb((3, br(a, b, x, y))),
            "triangle": lambda a, b, x, y: br(a, b, R(a, x), y)}),
    }
    assert sorted(cases) == sorted(CONSTRUCTIONS)
    e = [classical.basis(2, i) for i in range(2)]
    for name, (out, formulas) in cases.items():
        assert out.slot_names == tuple(formulas), name
        for slot, formula in formulas.items():
            for a in range(2):
                for b in range(2):
                    for i in range(2):
                        for j in range(2):
                            assert (out.product(slot).basis_product(a, b, i, j)
                                    == formula(a, b, e[i], e[j])), (name, slot)
        s, t = (p2, q2) if name == "yau_twist" else (None, None)
        for a in range(2):
            for x in e:
                assert map_at(out.p, a, x) == map_at(p, a, map_at(s, a, x) if s else x)
                assert map_at(out.q, a, x) == map_at(q, a, map_at(t, a, x) if t else x)


# the recipes that refuse a non-commutative Ω, and those that invert p and q
GATED_RECIPES = ["assoc_as_prelie", "assoc_to_lie", "dendriform_to_prelie",
                 "postlie_to_lie", "prelie_to_lie"]
FLIP_RECIPES = ["assoc_to_lie", "dendriform_to_prelie", "postlie_to_lie",
                "prelie_to_lie"]


class _CheckerRan(Exception):
    pass


def _no_checkers(monkeypatch):
    def checker(*args, **kwargs):
        raise _CheckerRan
    for which in ("check_instance", "check_morphism", "check_rota_baxter"):
        monkeypatch.setattr(f"bihomega.constructions.{which}", checker)


def _refused_before_any_checker(name, omega, refused, error, message, p=None):
    """RECIPES[name] on a zero instance of each input kind over omega, dim 2,
    with a zero weight-0 operator or identity twists, checked and unchecked:
    where refused, each run raises error(message); elsewhere a checked run
    reaches a checker and an unchecked one returns its output."""
    recipe = RECIPES[name]
    operands = {(): (), ("rb",): (rb_const(omega, [[0, 0], [0, 0]]),),
                ("p2", "q2"): (LinearFamily.identity(omega, 2),) * 2}
    for kind, out in recipe.kinds.items():
        a = zero_instance(kind, omega, 2, p=p)
        for unchecked in (False, True):
            run = partial(CONSTRUCTIONS[name], a, *operands[recipe.operands],
                          unchecked=unchecked)
            if refused:
                with pytest.raises(error) as err:
                    run()
                assert str(err.value) == message
            elif unchecked:
                assert run().kind == out
            else:
                with pytest.raises(_CheckerRan):
                    run()


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_noncommutative_omega_refused_before_any_checker(name, monkeypatch):
    _no_checkers(monkeypatch)
    _refused_before_any_checker(
        name, left_zero_semigroup(2), name in GATED_RECIPES, NonCommutativeOmega,
        f"{name} requires a commutative index semigroup")


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_singular_maps_refused_before_any_checker(name, monkeypatch):
    _no_checkers(monkeypatch)
    p = LinearFamily.constant(C2, Matrix.diagonal([1, 0]))
    _refused_before_any_checker(
        name, C2, name in FLIP_RECIPES, Singular,
        "structure map at index 'g0' is singular", p)


def test_recipe_gates_follow_the_product_terms():
    # by the test's own walk: a commutative Ω exactly when a product
    # monomial sits at a word other than (X, Y), or the output kind is gated
    # and the input kind is not; inverses exactly when a product reads P or
    # Q; and the library's walk agrees with the test's on every product
    commutative, inverses = set(), set()
    for name, recipe in RECIPES.items():
        for term in recipe.products.values():
            assert term_reads(term) == (_words(term), _maps_read(term)), name
            if _words(term) - {(0, 1)}:
                commutative.add(name)
            if _maps_read(term) & {"P", "Q"}:
                inverses.add(name)
        # the same for every input kind of the recipe
        (onto_gated,) = {out in GATED_KINDS and k not in GATED_KINDS
                         for k, out in recipe.kinds.items()}
        if onto_gated:
            commutative.add(name)
    assert sorted(commutative) == GATED_RECIPES
    assert sorted(inverses) == FLIP_RECIPES


def test_the_readme_opposite_recipe_is_refused_over_a_noncommutative_omega(
        monkeypatch):
    # y.x with p and q swapped: its product sits at the word (Y, X), which a
    # non-commutative Ω puts at b.a, not a.b
    monkeypatch.setitem(RECIPES, "opposite", Recipe(
        dict.fromkeys(ASSOCIATIVE_KINDS, AlgebraKind.BIHOM_ASSOCIATIVE),
        {"mul": Mul("mul", Y, X)}, maps=("q", "p")))
    opposite = _construction("opposite", "y.x with p and q swapped")
    lz, f = left_zero_semigroup(2), (1, 2)
    ident = LinearFamily.identity(lz, 1)
    a = new_instance(AlgebraKind.OMEGA_ASSOCIATIVE, lz, (("mul", (
        BilinearFamily.from_function(lz, 1, lambda a, b, i, j: (f[b],)))),),
                     ident, ident)
    assert check_instance(a).passed
    for unchecked in (False, True):
        with pytest.raises(NonCommutativeOmega) as err:
            opposite(a, unchecked=unchecked)
        assert str(err.value) == "opposite requires a commutative index semigroup"
    b = two_dim_instance(C2)
    out = opposite(b)
    assert check_instance(out).passed
    assert (out.p, out.q) == (b.q, b.p)
    for al, be, i, j in product(range(2), repeat=4):
        assert (out.product("mul").basis_product(al, be, i, j)
                == b.product("mul").basis_product(be, al, j, i))


# a commutative table that is no semigroup: (a.a).b = b.b = a but
# a.(a.b) = a.a = b
NOT_A_SEMIGROUP = SemigroupTable(("a", "b"), ((1, 0), (0, 0)), commutative=True)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_an_index_table_that_is_no_semigroup_fails_the_first_pre_check(
        name, monkeypatch):
    # every other checker fails if it runs, so the index table's runs first
    def checker(*args, **kwargs):
        raise AssertionError(f"{name} ran a checker before the semigroup's")
    for which in ("check_instance", "check_morphism", "check_rota_baxter"):
        monkeypatch.setattr(f"bihomega.constructions.{which}", checker)
    recipe = RECIPES[name]
    a = zero_instance(next(iter(recipe.kinds)), NOT_A_SEMIGROUP, 1)
    ident = LinearFamily.identity(NOT_A_SEMIGROUP, 1)
    rb = RotaBaxterFamily(LinearFamily.constant(NOT_A_SEMIGROUP,
                                                Matrix.zero(1, 1)), 0)
    operands = tuple(rb if op == "rb" else ident for op in recipe.operands)
    with pytest.raises(PreconditionCheckFailed) as err:
        CONSTRUCTIONS[name](a, *operands)
    assert str(err.value) == f"{name}: index semigroup fails its checker"
    assert err.value.report == validate_semigroup(NOT_A_SEMIGROUP)
    # unchecked=True skips it with every other check
    assert CONSTRUCTIONS[name](a, *operands, unchecked=True).omega == NOT_A_SEMIGROUP
