import gc
import hashlib
import json
import sys
import weakref
from fractions import Fraction
from itertools import product

import pytest

from bihomega import cellgen, checkers
from bihomega.checkers import (KIND_AXIOMS, Axiom, Map, Mul, Sum, Var, X, Y,
                               _Cells, _report, on, p, plus, term_reads,
                               check_bihom_associative,
                               check_dendriform,
                               check_instance, check_lie, check_morphism,
                               check_postlie, check_prelie, check_prepoisson,
                               check_rota_baxter, check_zinbiel,
                               index_classes, mismatches,
                               morphism_axioms, morphism_cells,
                               rota_baxter_axioms, rota_baxter_cells)
from bihomega.core import (AlgebraKind, BilinearFamily, LinearFamily,
                           RotaBaxterFamily, new_instance)
from bihomega.errors import (IllTypedTerm, KindMismatch, NonCommutativeOmega,
                             ShapeMismatch)
from bihomega.forge import (SearchConfig, brute_force_rb_search,
                            constant_product_instance, make_two_dim_example,
                            two_dim_params, zero_instance)
from bihomega.linalg import Matrix, mat_mul
from bihomega.semigroup import (cyclic_group, left_zero_semigroup,
                                trivial_semigroup)
from classical import basis
from conftest import LIE_2D, first_failing_perturbation, perturb_entry
from reference import bilinear, map_at

TRIVIAL = trivial_semigroup()
C2 = cyclic_group(2)


def test_zero_instances_pass_every_checker():
    for kind in AlgebraKind:
        for omega in (TRIVIAL, C2):
            assert check_instance(zero_instance(kind, omega, 3)).passed


_MULT = ("p-multiplicativity", "q-multiplicativity")


def _prefixed(prefix, names):
    return tuple(prefix + name for name in names)


AXIOM_NAMES = {
    AlgebraKind.OMEGA_ASSOCIATIVE: _MULT + ("bihom-associativity",),
    AlgebraKind.BIHOM_ASSOCIATIVE: _MULT + ("bihom-associativity",),
    AlgebraKind.DENDRIFORM: _prefixed("prec-", _MULT) + _prefixed("succ-", _MULT)
    + ("dendriform-left", "dendriform-middle", "dendriform-right"),
    AlgebraKind.PRELIE: _MULT + ("prelie-identity",),
    AlgebraKind.LIE: _MULT + ("skew-symmetry", "jacobi"),
    AlgebraKind.POSTLIE: _prefixed("bracket-", _MULT + ("skew-symmetry", "jacobi"))
    + _prefixed("triangle-", _MULT)
    + ("postlie-first-identity", "postlie-second-identity"),
    AlgebraKind.ZINBIEL: _MULT + ("zinbiel-identity",),
    AlgebraKind.PREPOISSON: _prefixed("triangle-", _MULT + ("prelie-identity",))
    + _prefixed("star-", _MULT + ("zinbiel-identity",))
    + ("prepoisson-first-identity", "prepoisson-second-identity"),
}


def test_axiom_names_and_order_per_kind():
    for kind, names in AXIOM_NAMES.items():
        assert tuple(ax.name for ax in KIND_AXIOMS[kind]) == names, kind
        assert check_instance(zero_instance(kind, C2, 1)).axiom_names() == names


def test_rota_baxter_and_morphism_axiom_names():
    one = zero_instance(AlgebraKind.LIE, C2, 1)
    two = zero_instance(AlgebraKind.DENDRIFORM, C2, 1)
    ident = LinearFamily.identity(C2, 1)
    rb = RotaBaxterFamily(ident, 0)
    assert check_rota_baxter(one, rb).axiom_names() == (
        "rb-identity-bracket", "rb-commutes-p", "rb-commutes-q")
    assert check_rota_baxter(two, rb).axiom_names() == (
        "rb-identity-prec", "rb-identity-succ", "rb-commutes-p", "rb-commutes-q")
    assert check_morphism(ident, one, one).axiom_names() == (
        "morphism-bracket", "intertwine-p", "intertwine-q")
    assert check_morphism(ident, two, two).axiom_names() == (
        "morphism-prec", "morphism-succ", "intertwine-p", "intertwine-q")


def test_checkers_keep_their_names():
    import bihomega
    from bihomega import checkers
    for name in ("check_instance", "check_bihom_associative", "check_dendriform",
                 "check_prelie", "check_lie", "check_postlie", "check_zinbiel",
                 "check_prepoisson", "check_rota_baxter", "check_morphism"):
        assert getattr(checkers, name) is getattr(bihomega, name)
        assert getattr(checkers, name).__name__ == name


def test_a_map_applies_only_as_a_map_term():
    # a variable is a bare basis vector; p(q(X)) nests two Map terms
    from bihomega.checkers import p, q
    assert Var._fields == ("pos",)
    assert p(q(X)) == Map("p", Map("q", X))
    assert on("R")(Mul("mul", X, Y)) == Map("R", Mul("mul", X, Y))


def test_two_dim_example_passes_trivial_omega():
    params = two_dim_params(TRIVIAL, [[1]], [1], [1])
    report = check_bihom_associative(make_two_dim_example(params))
    assert report.passed
    assert report.axiom_names() == ("p-multiplicativity", "q-multiplicativity",
                                    "bihom-associativity")


def test_two_dim_perturbation_fails_with_witness():
    params = two_dim_params(TRIVIAL, [[1]], [1], [1])
    inst = make_two_dim_example(params)
    found = first_failing_perturbation(inst)
    assert found is not None
    _, report = found
    bad = [r for r in report.results if not r.passed]
    assert bad and bad[0].witnesses


def test_witness_fidelity_reevaluates_to_inequality():
    inst = constant_product_instance(
        AlgebraKind.LIE, C2, {"bracket": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]})
    report = check_lie(inst)  # symmetric bracket: skew fails
    bad = report.result("skew-symmetry")
    assert not bad.passed
    br = inst.product("bracket")
    for w in bad.witnesses:
        a = inst.omega.elements.index(w.indices[0])
        b = inst.omega.elements.index(w.indices[1])
        i, j = w.basis
        lhs = bilinear(br, a, b, map_at(inst.q, a, basis(2, i)),
                       map_at(inst.p, b, basis(2, j)))
        assert lhs == w.lhs
        assert w.lhs != w.rhs


def _twisted_instance(kind):
    """Generic products over C2, one per slot and each different, with
    commuting diagonal p, q that differ per index and have pq != qq, so
    each twist reaches the witnesses."""
    p = LinearFamily(C2, 2, (Matrix.diagonal([1, 3]), Matrix.diagonal([-1, 2])))
    q = LinearFamily(C2, 2, (Matrix.diagonal([2, -1]), Matrix.diagonal([3, 1])))
    products = tuple(
        (slot, BilinearFamily.from_function(
            C2, 2, lambda a, b, i, j, s=s: (1 + a + 2 * i + s, b - j + a * i - s * j)))
        for s, slot in enumerate(kind.product_slots))
    inst = new_instance(kind, C2, products, p, q)
    for a in range(2):
        e = basis(2, 1)
        assert map_at(p, a, map_at(q, a, e)) != map_at(q, a, map_at(q, a, e))
    return inst


def _index(inst, label):
    return inst.omega.elements.index(label)


def test_jacobi_witnesses_reevaluate_with_qq_twist():
    inst = _twisted_instance(AlgebraKind.LIE)
    br = inst.product("bracket")
    bad = check_lie(inst).result("jacobi")
    assert not bad.passed and bad.witnesses
    p, q, mul = inst.p, inst.q, inst.omega.mul

    def term(a, b, c, i, j, k):
        # {q_a(q_a(e_i)), {q_b(e_j), p_c(e_k)}_{b,c}}_{a,bc}
        qq_x = map_at(q, a, map_at(q, a, basis(2, i)))
        inner = bilinear(br, b, c, map_at(q, b, basis(2, j)),
                         map_at(p, c, basis(2, k)))
        return bilinear(br, a, mul(b, c), qq_x, inner)

    for w in bad.witnesses:
        a, b, c = (_index(inst, label) for label in w.indices)
        i, j, k = w.basis
        total = tuple(u + v + t for u, v, t in zip(term(a, b, c, i, j, k),
                                                   term(b, c, a, j, k, i),
                                                   term(c, a, b, k, i, j)))
        assert total == w.lhs
        assert w.lhs != w.rhs


def test_prelie_witnesses_reevaluate_with_pq_twist():
    inst = _twisted_instance(AlgebraKind.PRELIE)
    tri = inst.product("triangle")
    bad = check_prelie(inst).result("prelie-identity")
    assert not bad.passed and bad.witnesses
    p, q, mul = inst.p, inst.q, inst.omega.mul

    def associator(a, b, c, i, j, k):
        # p_a(q_a(e_i)) |>_{a,bc} (p_b(e_j) |>_{b,c} e_k)
        #   - (q_a(e_i) |>_{a,b} p_b(e_j)) |>_{ab,c} q_c(e_k)
        x, y, z = (basis(2, n) for n in (i, j, k))
        first = bilinear(tri, a, mul(b, c), map_at(p, a, map_at(q, a, x)),
                         bilinear(tri, b, c, map_at(p, b, y), z))
        second = bilinear(tri, mul(a, b), c,
                          bilinear(tri, a, b, map_at(q, a, x), map_at(p, b, y)),
                          map_at(q, c, z))
        return tuple(u - v for u, v in zip(first, second))

    for w in bad.witnesses:
        a, b, c = (_index(inst, label) for label in w.indices)
        i, j, k = w.basis
        assert associator(a, b, c, i, j, k) == w.lhs
        assert associator(b, a, c, j, i, k) == w.rhs
        assert w.lhs != w.rhs


def _vec_sum(u, v, sign=1):
    return tuple(s + sign * t for s, t in zip(u, v))


def test_postlie_witnesses_reevaluate_with_pq_twist_and_b_ac_index():
    inst = _twisted_instance(AlgebraKind.POSTLIE)
    bad = check_postlie(inst).result("postlie-second-identity")
    assert not bad.passed and bad.witnesses
    p, q, mul = inst.p, inst.q, inst.omega.mul
    br, tri = inst.product("bracket"), inst.product("triangle")
    for w in bad.witnesses:
        a, b, c = (_index(inst, label) for label in w.indices)
        x, y, z = (basis(2, n) for n in w.basis)
        # p_a(q_a(x)) |>_{a,bc} {y, z}_{b,c}
        lhs = bilinear(tri, a, mul(b, c), map_at(p, a, map_at(q, a, x)),
                       bilinear(br, b, c, y, z))
        # {q_a(x) |>_{a,b} y, q_c(z)}_{ab,c} + {q_b(y), p_a(x) |>_{a,c} z}_{b,ac}
        rhs = _vec_sum(bilinear(br, mul(a, b), c,
                                bilinear(tri, a, b, map_at(q, a, x), y),
                                map_at(q, c, z)),
                       bilinear(br, b, mul(a, c), map_at(q, b, y),
                                bilinear(tri, a, c, map_at(p, a, x), z)))
        assert (lhs, rhs) == (w.lhs, w.rhs)
        assert w.lhs != w.rhs


def test_prepoisson_witnesses_reevaluate_with_pq_twist_and_b_ac_index():
    inst = _twisted_instance(AlgebraKind.PREPOISSON)
    bad = check_prepoisson(inst).result("prepoisson-first-identity")
    assert not bad.passed and bad.witnesses
    p, q, mul = inst.p, inst.q, inst.omega.mul
    tri, star = inst.product("triangle"), inst.product("star")
    for w in bad.witnesses:
        a, b, c = (_index(inst, label) for label in w.indices)
        x, y, z = (basis(2, n) for n in w.basis)
        # (q_a(x) |>_{a,b} p_b(y) - q_b(y) |>_{b,a} p_a(x)) *_{ab,c} q_c(z)
        comm = _vec_sum(bilinear(tri, a, b, map_at(q, a, x), map_at(p, b, y)),
                        bilinear(tri, b, a, map_at(q, b, y), map_at(p, a, x)), -1)
        lhs = bilinear(star, mul(a, b), c, comm, map_at(q, c, z))
        # p_a(q_a(x)) |>_{a,bc} (p_b(y) *_{b,c} z)
        #   - p_b(q_b(y)) *_{b,ac} (p_a(x) |>_{a,c} z)
        rhs = _vec_sum(bilinear(tri, a, mul(b, c), map_at(p, a, map_at(q, a, x)),
                                bilinear(star, b, c, map_at(p, b, y), z)),
                       bilinear(star, b, mul(a, c), map_at(p, b, map_at(q, b, y)),
                                bilinear(tri, a, c, map_at(p, a, x), z)), -1)
        assert (lhs, rhs) == (w.lhs, w.rhs)
        assert w.lhs != w.rhs


def test_symmetric_bracket_fails_skew():
    inst = constant_product_instance(
        AlgebraKind.LIE, TRIVIAL,
        {"bracket": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]})
    report = check_lie(inst)
    assert not report.result("skew-symmetry").passed


def test_reports_are_deterministic():
    inst = constant_product_instance(
        AlgebraKind.LIE, C2, {"bracket": [[[0, 0], [1, 1]], [[0, 1], [1, 0]]]})
    r1 = check_lie(inst)
    r2 = check_lie(inst)
    assert r1 == r2


def test_witness_cap_and_total_count():
    inst = constant_product_instance(
        AlgebraKind.LIE, C2, {"bracket": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]})
    capped = check_lie(inst, max_witnesses=2)
    full = check_lie(inst, max_witnesses=10 ** 6)
    bad_c = capped.result("skew-symmetry")
    bad_f = full.result("skew-symmetry")
    assert len(bad_c.witnesses) == 2
    assert bad_c.total_violations == bad_f.total_violations
    assert bad_c.witnesses == bad_f.witnesses[:2]


def test_kind_mismatch_rejected():
    z = zero_instance(AlgebraKind.LIE, C2, 2)
    with pytest.raises(KindMismatch):
        check_bihom_associative(z)
    with pytest.raises(KindMismatch):
        check_dendriform(z)


def test_commutative_omega_required():
    lz = left_zero_semigroup(2)
    for kind, checker in ((AlgebraKind.PRELIE, check_prelie),
                          (AlgebraKind.LIE, check_lie),
                          (AlgebraKind.POSTLIE, check_postlie),
                          (AlgebraKind.ZINBIEL, check_zinbiel),
                          (AlgebraKind.PREPOISSON, check_prepoisson)):
        with pytest.raises(NonCommutativeOmega):
            checker(zero_instance(kind, lz, 2))


# the kinds whose checkers refuse a non-commutative Ω
GATED_KINDS = {AlgebraKind.PRELIE, AlgebraKind.LIE, AlgebraKind.POSTLIE,
               AlgebraKind.ZINBIEL, AlgebraKind.PREPOISSON}


def _words(term) -> frozenset:
    """A term's index words: per monomial, its variables in product order;
    a sum's are its terms' together."""
    if isinstance(term, Var):
        return frozenset({(term.pos,)})
    if isinstance(term, Map):
        return _words(term.arg)
    if isinstance(term, Mul):
        return frozenset(u + v for u in _words(term.left)
                         for v in _words(term.right))
    return frozenset().union(*(_words(t) for _, t in term.terms))


def _maps_read(term) -> frozenset:
    """The names of the map families a term reads."""
    if isinstance(term, Map):
        return frozenset({term.name}) | _maps_read(term.arg)
    if isinstance(term, Mul):
        return _maps_read(term.left) | _maps_read(term.right)
    if isinstance(term, Sum):
        return frozenset().union(*(_maps_read(t) for _, t in term.terms))
    return frozenset()


def test_commutative_omega_gates_follow_the_axioms_index_words():
    # over a non-commutative Ω, monomials in different variable orders sit
    # at different indices: a kind needs a commutative Ω exactly when one
    # of its axioms has more than one word over both sides
    assert {kind for kind, axioms in KIND_AXIOMS.items() if any(
        len(_words(ax.lhs) | _words(ax.rhs)) > 1 for ax in axioms)} == GATED_KINDS
    lz = left_zero_semigroup(2)
    for kind in AlgebraKind:
        inst = zero_instance(kind, lz, 2)
        if kind in GATED_KINDS:
            with pytest.raises(NonCommutativeOmega) as err:
                check_instance(inst)
            assert str(err.value) == (
                f"{kind.value} checker requires a commutative index semigroup")
        else:
            assert check_instance(inst).passed
    # every RB and morphism axiom has one word, so their checkers have no
    # gate: both run over the left-zero semigroup on every kind
    zero = LinearFamily.constant(lz, Matrix.from_rows([[0, 0], [0, 0]]))
    for kind in AlgebraKind:
        slots, inst = kind.product_slots, zero_instance(kind, lz, 2)
        for ax in rota_baxter_axioms(slots) + morphism_axioms(slots):
            assert len(_words(ax.lhs) | _words(ax.rhs)) == 1, (kind, ax.name)
        assert check_rota_baxter(inst, RotaBaxterFamily(zero, Fraction(1))).passed
        assert check_morphism(LinearFamily.identity(lz, 2), inst, inst).passed


def test_term_reads_agrees_with_the_tests_walk_on_every_axiom():
    for kind, axioms in KIND_AXIOMS.items():
        slots = kind.product_slots
        for ax in axioms + rota_baxter_axioms(slots) + morphism_axioms(slots):
            for side in (ax.lhs, ax.rhs):
                assert term_reads(side) == (_words(side), _maps_read(side)), (
                    kind, ax.name)


def test_associative_checker_accepts_noncommutative_omega():
    lz = left_zero_semigroup(2)
    assert check_bihom_associative(
        zero_instance(AlgebraKind.BIHOM_ASSOCIATIVE, lz, 2)).passed
    assert check_dendriform(zero_instance(AlgebraKind.DENDRIFORM, lz, 2)).passed


def test_assoc_retagged_prelie_passes():
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    assoc = make_two_dim_example(params)
    prelie = new_instance(AlgebraKind.PRELIE, C2,
                          (("triangle", assoc.product("mul")),),
                          assoc.p, assoc.q)
    assert check_prelie(prelie).passed


def test_postlie_subsumes_prelie_and_lie():
    # zero bracket + valid triangle, and zero triangle + valid bracket
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    tri = make_two_dim_example(params).product("mul")
    zero = BilinearFamily.zero(C2, 2)
    ident = LinearFamily.identity(C2, 2)
    a = new_instance(AlgebraKind.POSTLIE, C2,
                     (("bracket", zero), ("triangle", tri)), ident, ident)
    assert check_postlie(a).passed
    br = constant_product_instance(AlgebraKind.LIE, C2,
                                   {"bracket": LIE_2D}).product("bracket")
    b = new_instance(AlgebraKind.POSTLIE, C2,
                     (("bracket", br), ("triangle", zero)), ident, ident)
    assert check_postlie(b).passed


def test_postlie_reverifies_lie_component():
    sym = constant_product_instance(
        AlgebraKind.LIE, C2,
        {"bracket": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]}).product("bracket")
    zero = BilinearFamily.zero(C2, 2)
    ident = LinearFamily.identity(C2, 2)
    inst = new_instance(AlgebraKind.POSTLIE, C2,
                        (("bracket", sym), ("triangle", zero)), ident, ident)
    report = check_postlie(inst)
    assert not report.result("bracket-skew-symmetry").passed


def test_rota_baxter_zero_operator_passes():
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    inst = make_two_dim_example(params)
    zero_fam = LinearFamily(C2, 2, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    for lam in (0, 1, -1, Fraction(1, 2)):
        assert check_rota_baxter(inst, RotaBaxterFamily(zero_fam, lam)).passed


def test_rota_baxter_minus_lambda_identity_passes():
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    inst = make_two_dim_example(params)
    for lam in (1, -1, Fraction(2, 3)):
        fam = LinearFamily.constant(C2, Matrix.diagonal([-lam, -lam]))
        assert check_rota_baxter(inst, RotaBaxterFamily(fam, lam)).passed


def test_rota_baxter_failure_has_witness():
    inst = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    fam = LinearFamily.constant(C2, Matrix.diagonal([1, 2]))
    report = check_rota_baxter(inst, RotaBaxterFamily(fam, 0))
    assert not report.passed
    bad = [r for r in report.results if not r.passed]
    assert bad[0].witnesses


def test_rota_baxter_shape_mismatch():
    inst = zero_instance(AlgebraKind.LIE, C2, 2)
    fam = LinearFamily.identity(C2, 3)
    with pytest.raises(ShapeMismatch):
        check_rota_baxter(inst, RotaBaxterFamily(fam, 0))


def test_identity_morphism_passes():
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    inst = make_two_dim_example(params)
    assert check_morphism(LinearFamily.identity(C2, 2), inst, inst).passed


def test_zero_morphism_passes():
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    inst = make_two_dim_example(params)
    zero_fam = LinearFamily(C2, 2, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    assert check_morphism(zero_fam, inst, inst).passed


def test_structure_map_is_morphism_of_its_instance():
    params = two_dim_params(C2, [[1, -1], [-1, 1]], [1, -1], [1, -1])
    inst = make_two_dim_example(params)
    assert check_morphism(inst.p, inst, inst).passed
    assert check_morphism(inst.q, inst, inst).passed


def test_morphism_kind_mismatch():
    a = zero_instance(AlgebraKind.LIE, C2, 2)
    b = zero_instance(AlgebraKind.PRELIE, C2, 2)
    with pytest.raises(KindMismatch):
        check_morphism(LinearFamily.identity(C2, 2), a, b)


# -- a binding handed to the checkers -----------------------------------------

def _sign_instance():
    return make_two_dim_example(
        two_dim_params(C2, [[1, -1], [-1, 1]], [1, -1], [1, -1]), reading="e2")


def test_a_handed_binding_decides_as_a_fresh_one():
    # an equal instance is the same instance: its binding is accepted
    inst, ident = _sign_instance(), LinearFamily.identity(C2, 2)
    rbs = [RotaBaxterFamily(LinearFamily.constant(C2, Matrix.diagonal([v, v])), 1)
           for v in (-1, 2, 0)]
    cells = rota_baxter_cells(_sign_instance(), RotaBaxterFamily(ident, 1))
    reports = [check_rota_baxter(inst, rb, cells=cells) for rb in rbs]
    assert reports == [check_rota_baxter(inst, rb) for rb in rbs]
    assert [r.passed for r in reports] == [True, False, True]
    cells = morphism_cells(ident, inst, inst)
    for f in (inst.p, LinearFamily.constant(C2, Matrix.diagonal([1, 2])), ident):
        assert check_morphism(f, inst, inst, cells=cells) \
            == check_morphism(f, inst, inst)


_REFUSAL = {"den": "not a multiple"}


@pytest.mark.parametrize("made", ["instance", "weight", "morphism", "den"])
def test_a_binding_made_for_another_rota_baxter_check_is_refused(made):
    inst, ident = _sign_instance(), LinearFamily.identity(C2, 2)
    rb = RotaBaxterFamily(ident, 1)
    cells = {
        "instance": lambda: rota_baxter_cells(
            constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D}),
            rb),
        "weight": lambda: rota_baxter_cells(inst, RotaBaxterFamily(ident, 0)),
        "morphism": lambda: morphism_cells(ident, inst, inst),
        # R's entries are not exact over the binding's den
        "den": lambda: rota_baxter_cells(inst, rb, den=3),
    }[made]()
    half = RotaBaxterFamily(LinearFamily.constant(
        C2, Matrix.diagonal([Fraction(1, 2)] * 2)), 1)
    with pytest.raises(ValueError, match=_REFUSAL.get(made, "not made for")):
        check_rota_baxter(inst, half if made == "den" else rb, cells=cells)


@pytest.mark.parametrize("made", ["source", "target", "rota-baxter"])
def test_a_binding_made_for_another_morphism_check_is_refused(made):
    inst, ident = _sign_instance(), LinearFamily.identity(C2, 2)
    other = zero_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2, 2)
    cells = {
        "source": lambda: morphism_cells(ident, other, inst),
        "target": lambda: morphism_cells(ident, inst, other),
        "rota-baxter": lambda: rota_baxter_cells(inst, RotaBaxterFamily(ident, 0)),
    }[made]()
    with pytest.raises(ValueError, match=_REFUSAL.get(made, "not made for")):
        check_morphism(ident, inst, inst, cells=cells)


def test_no_checker_calls_a_generated_cell():
    # a search compiles its cells and calls them; afterwards every
    # checker, on the search's own hit binding too, runs while a profile
    # hook watches for those cells' code, and sees none of it run
    inst = _sign_instance()
    cells = rota_baxter_cells(inst, RotaBaxterFamily(LinearFamily.identity(C2, 2), 1))
    found = brute_force_rb_search(inst, SearchConfig(weight=1))
    codes = {entry[1] for entry in cellgen._CELL_CODE.values()
             if entry and entry[1] is not None}
    ran = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            ran.append(frame.f_code)

    def watched(run):
        ran.clear()
        sys.setprofile(watch)
        try:
            run()
        finally:
            sys.setprofile(None)
        return len(ran)
    at = cellgen.first_mismatch(rota_baxter_axioms(("mul",))[0], cells)
    assert watched(lambda: at((1, 1))()) == 1
    assert watched(lambda: [check_rota_baxter(inst, rb, cells=cells)
                            for rb in found]) == 0
    assert watched(lambda: (check_instance(inst),
                            check_morphism(inst.p, inst, inst),
                            check_rota_baxter(inst, found[0]))) == 0


def _misplaced(lhs, rhs):
    """A binding of a dim-1 instance over left_zero_semigroup(2), where
    ab = a, whose product is 1 at every index pair and whose q, 1 at
    index 0 and 2 at 1, tells the indices apart; and an axiom of these
    two sides."""
    omega = left_zero_semigroup(2)
    mul = BilinearFamily.from_ints(omega, 1, {
        (a, b, 0, 0): (1,) for a in range(2) for b in range(2)}, 1)
    q = LinearFamily(omega, 1, (Matrix.identity(1), Matrix.diagonal([2])))
    inst = new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, omega, (("mul", mul),),
                        LinearFamily.identity(omega, 1), q)
    assert index_classes(_Cells(inst)) == [0, 1]
    return _Cells(inst), Axiom("misplaced", 2, lhs, rhs)


@pytest.mark.parametrize("lhs, rhs", [
    # Y X sits at index b, X Y at a: a sum of the two, or one compared
    # with the other, reads vectors at two indices where a != b; two
    # equal sums sit at one index, a, and differ nowhere
    (plus(Mul("mul", X, Y), Mul("mul", Y, X)),
     plus(Mul("mul", X, Y), Mul("mul", Y, X))),
    (Mul("mul", X, Y), Mul("mul", Y, X)),
    (p(Mul("mul", Y, X)), Mul("mul", p(X), p(Y))),
], ids=["sum", "sides", "under-a-map"])
def test_an_ill_typed_axiom_is_refused_when_bound(lhs, rhs):
    cells, axiom = _misplaced(lhs, rhs)
    at = mismatches(axiom, cells)[1]
    generated = cellgen.first_mismatch(axiom, cells)
    for idx in ((0, 1), (1, 0)):
        with pytest.raises(IllTypedTerm, match="must sit at one index"):
            next(at(idx), None)
        with pytest.raises(IllTypedTerm, match="must sit at one index"):
            generated(idx)
    with pytest.raises(IllTypedTerm):
        _report("misplaced", (axiom,), cells, 1)
    # at a = b the two words meet one index, and the sides agree
    for idx in ((0, 0), (1, 1)):
        assert list(at(idx)) == [] and generated(idx)() is None


def test_a_sum_is_typed_once_per_index_tuple(monkeypatch):
    # the index check runs when a term is bound, never per basis tuple:
    # as many times at dim 3, nine basis tuples, as at dim 1
    calls = []

    def counted(*args, one_index=checkers._one_index):
        calls.append(1)
        one_index(*args)
    monkeypatch.setattr(checkers, "_one_index", counted)
    counts = []
    for d in (1, 3):
        calls.clear()
        inst = constant_product_instance(
            AlgebraKind.BIHOM_ASSOCIATIVE, C2,
            {"mul": [[[int(i == j == k) for k in range(d)] for j in range(d)]
                     for i in range(d)]})
        check_rota_baxter(inst, RotaBaxterFamily(LinearFamily.identity(C2, d), 1))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_dendriform_swap_detected():
    # build a passing non-symmetric dendriform pair, then swap halves
    from bihomega.constructions import rb_split_dendriform
    from bihomega.forge import SearchConfig, brute_force_rb_search
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    base = make_two_dim_example(params)
    # weight 0 only yields swap-stable splits here; weight 1 does not
    rbs = brute_force_rb_search(base, SearchConfig(weight=Fraction(1)))
    swapped_failures = 0
    for rb in rbs:
        dend = rb_split_dendriform(base, rb)
        prec = dend.product("prec")
        succ = dend.product("succ")
        if prec == succ:
            continue
        swapped = new_instance(AlgebraKind.DENDRIFORM, C2,
                               (("prec", succ), ("succ", prec)),
                               dend.p, dend.q)
        if not check_dendriform(swapped).passed:
            swapped_failures += 1
    assert swapped_failures > 0


def test_a_cached_plan_applies_through_the_classes_it_is_bound_with(monkeypatch):
    # wrappers put on the apply methods after a first check, as a tracer
    # does, see every product and map applied: as many calls as wrappers
    # put on before any check; a nonzero bracket, since no product is
    # applied where it is zero
    omega = cyclic_group(3)

    def fresh_checks():
        p = LinearFamily.constant(omega, Matrix.diagonal([1, -1]))
        inst = constant_product_instance(AlgebraKind.LIE, omega,
                                         {"bracket": LIE_2D})
        rb = RotaBaxterFamily(p, 1)
        return lambda: (check_instance(inst), check_rota_baxter(inst, rb))

    def counted_calls(patch):
        calls = dict.fromkeys((BilinearFamily, Matrix), 0)
        for cls in calls:
            def counted(*args, cls=cls, apply=cls.__dict__["apply"]):
                calls[cls] += 1
                return apply(*args)
            patch.setattr(cls, "apply", counted)
        return calls

    checks = fresh_checks()
    with monkeypatch.context() as patch:
        before = counted_calls(patch)
        reports = checks()
    checks = fresh_checks()
    assert checks() == reports
    after = counted_calls(monkeypatch)
    assert checks() == reports
    assert after == before
    assert min(after.values()) > 0


def test_zero_products_are_skipped_when_bound_and_reports_stay_the_same(
        monkeypatch):
    # a different p_a at each index, so that the index classes are
    # discrete and every index tuple is bound; each product is zero, so
    # no term over one is evaluated, and the reports are those recorded
    # before zero terms were skipped
    omega = cyclic_group(3)
    mats = tuple(Matrix.from_rows([[1 if i == j else a + 1 if j == i + 1 else 0
                                    for j in range(4)] for i in range(4)])
                 for a in range(3))
    p = LinearFamily(omega, 4, mats)
    q = LinearFamily(omega, 4, tuple(mat_mul(m, m) for m in mats))
    calls = 0

    def counted(*args, apply=BilinearFamily.__dict__["apply"]):
        nonlocal calls
        calls += 1
        return apply(*args)
    monkeypatch.setattr(BilinearFamily, "apply", counted)
    reports = [check_instance(zero_instance(kind, omega, 4, p, q)).to_dict()
               for kind in AlgebraKind]
    assert calls == 0
    assert all(report["passed"] for report in reports)
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == "597d7a58c87c828e"


def test_a_binding_is_freed_once_dropped_without_the_cycle_collector():
    # a closure of a binding that referred back to it would keep every
    # binding, its columns and its memos alive until a collection ran
    omega = cyclic_group(3)
    p = LinearFamily.constant(omega, Matrix.diagonal([1, -1]))
    inst = zero_instance(AlgebraKind.PREPOISSON, omega, 2, p=p)
    gc.disable()
    try:
        cells = _Cells(inst)
        assert _report("prepoisson", KIND_AXIOMS[inst.kind], cells, 10).passed
        ref = weakref.ref(cells)
        del cells
        assert ref() is None
    finally:
        gc.enable()


def test_rota_baxter_and_morphism_bindings_hold_no_memo():
    # every sub-term of their axioms reads all the axiom's variables, so
    # rebinding the searched map costs the searches no memo; every index
    # tuple is bound, over nonzero products, since a zero term has none
    omega = cyclic_group(3)
    ident = LinearFamily.identity(omega, 2)
    for kind in AlgebraKind:
        inst = constant_product_instance(
            kind, omega, {slot: LIE_2D for slot in kind.product_slots})
        slots = inst.slot_names
        for axioms, cells in (
                (rota_baxter_axioms(slots),
                 rota_baxter_cells(inst, RotaBaxterFamily(ident, 1))),
                (morphism_axioms(slots), morphism_cells(ident, inst, inst))):
            for axiom in axioms:
                at = mismatches(axiom, cells)[1]
                for idx in product(range(omega.order), repeat=axiom.arity):
                    list(at(idx))
            assert cells.memos == []


# -- index classes ----------------------------------------------------------

C3 = cyclic_group(3)


def _diagonals(omega, *entries):
    return LinearFamily(omega, 2, tuple(Matrix.diagonal(e) for e in entries))


def test_a_constant_family_has_one_index_class():
    inst = constant_product_instance(AlgebraKind.LIE, C3, {"bracket": LIE_2D})
    assert index_classes(_Cells(inst)) == [0, 0, 0]


def test_a_different_map_at_each_index_gives_discrete_classes():
    p = _diagonals(C3, (1, 2), (1, 3), (1, 5))
    inst = zero_instance(AlgebraKind.PREPOISSON, C3, 2, p=p)
    assert index_classes(_Cells(inst)) == [0, 1, 2]


def test_equal_data_splits_where_products_of_indices_part():
    # p_0 = p_1 but 0 + 2 = 2 and 1 + 2 = 0 fall in different classes;
    # a left zero semigroup, where ab = a, keeps the equal data together
    p = _diagonals(C3, (1, 1), (1, 1), (1, -1))
    assert index_classes(_Cells(zero_instance(AlgebraKind.LIE, C3, 2, p=p))) \
        == [0, 1, 2]
    left_zero = left_zero_semigroup(3)
    p = _diagonals(left_zero, (1, 1), (1, 1), (1, -1))
    inst = zero_instance(AlgebraKind.BIHOM_ASSOCIATIVE, left_zero, 2, p=p)
    assert index_classes(_Cells(inst)) == [0, 0, 1]


def test_left_zero_classes_follow_the_products_blocks():
    omega = left_zero_semigroup(2)
    cube = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
    inst = constant_product_instance(AlgebraKind.BIHOM_ASSOCIATIVE, omega,
                                     {"mul": cube})
    assert index_classes(_Cells(inst)) == [0, 0]
    # one block that differs, at (1, 0), parts the two indices
    mul = BilinearFamily.from_function(
        omega, 2, lambda a, b, i, j: basis(2, 0 if (a, b) == (1, 0) else 1))
    inst = new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, omega, (("mul", mul),),
                        LinearFamily.identity(omega, 2),
                        LinearFamily.identity(omega, 2))
    assert index_classes(_Cells(inst)) == [0, 1]


def test_rota_baxter_and_morphism_maps_take_part_in_the_classes():
    inst = constant_product_instance(AlgebraKind.LIE, C3, {"bracket": LIE_2D})
    r = _diagonals(C3, (1, 0), (1, 0), (0, 1))
    assert index_classes(rota_baxter_cells(inst, RotaBaxterFamily(r, 0))) \
        == [0, 1, 2]
    assert index_classes(morphism_cells(r, inst, inst)) == [0, 1, 2]
    ident = LinearFamily.identity(C3, 2)
    assert index_classes(morphism_cells(ident, inst, inst)) == [0, 0, 0]
