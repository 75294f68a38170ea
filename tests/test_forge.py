from fractions import Fraction

import pytest

from bihomega.checkers import check_instance, check_rota_baxter
from bihomega.core import AlgebraKind, LinearFamily
from bihomega.errors import (BudgetExceeded, ConditionViolated, ShapeMismatch,
                             Singular)
from bihomega.forge import (SearchConfig, brute_force_rb_search,
                            constant_product_instance, embed_omega_as_bihom,
                            make_endomorphism_pairs, make_two_dim_example,
                            two_dim_params, two_dim_reading_report,
                            zero_instance)
from bihomega.linalg import Matrix
from bihomega.semigroup import cyclic_group, trivial_semigroup
from conftest import LIE_2D, two_dim_instance

TRIVIAL = trivial_semigroup()
C2 = cyclic_group(2)


def test_two_dim_params_shape_checks():
    with pytest.raises(ShapeMismatch):
        two_dim_params(C2, [[1, 1]], [1, 1], [1, 1])
    with pytest.raises(ShapeMismatch):
        two_dim_params(C2, [[1, 1], [1, 1]], [1], [1, 1])


def test_two_dim_side_conditions_enforced():
    # rthree not multiplicative: rthree(g1*g1)=rthree(g0) must be 4
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 2], [1, 1])
    bad = params.violations()
    assert ("rthree-multiplicative", ("g1", "g1")) in bad
    with pytest.raises(ConditionViolated):
        make_two_dim_example(params)


def test_two_dim_cocycle_violation_detected():
    # c not compatible with the sign characters
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, -1], [1, -1])
    kinds = {name for name, _ in params.violations()}
    assert kinds == {"c-cocycle"}


def test_two_dim_sign_character_params_valid():
    params = two_dim_params(C2, [[1, -1], [-1, 1]], [1, -1], [1, -1])
    assert params.violations() == []


def test_both_readings_reported_and_pass():
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    report = two_dim_reading_report(params)
    assert set(report) == {"e1", "e2"}
    for reading, (inst, check) in report.items():
        assert check.passed
    e1 = report["e1"][0]
    # the verbatim reading carries a singular second structure map
    with pytest.raises(Singular):
        e1.q.inverse()
    assert report["e2"][0].q.matrix(0) == Matrix.identity(2)


def test_embed_omega_as_bihom():
    lie = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    out = embed_omega_as_bihom(lie)
    assert out.kind is AlgebraKind.LIE
    assert out.p.is_identity() and out.q.is_identity()
    assert out.products == lie.products
    twisted = two_dim_instance(C2, reading="e2")
    # non-identity maps are fine here (identity check, not equality)
    assert embed_omega_as_bihom(twisted).products == twisted.products


def test_embed_rejects_nonidentity_maps():
    params = two_dim_params(C2, [[1, -1], [-1, 1]], [1, -1], [1, -1])
    inst = make_two_dim_example(params)
    with pytest.raises(ShapeMismatch):
        embed_omega_as_bihom(inst)


def test_zero_instance_passes_all_kinds():
    for kind in AlgebraKind:
        assert check_instance(zero_instance(kind, C2, 2)).passed


def test_rb_search_finds_zero_and_minus_weight_identity():
    base = two_dim_instance(C2)
    found0 = brute_force_rb_search(base, SearchConfig(entries=(0, 1),
                                                      weight=0))
    mats0 = [rb.maps.matrix(0) for rb in found0]
    assert Matrix.zero(2, 2) in mats0
    found1 = brute_force_rb_search(base, SearchConfig(entries=(-1, 0),
                                                      weight=1))
    mats1 = [(rb.maps.matrix(0), rb.maps.matrix(1)) for rb in found1]
    neg = Matrix.diagonal([-1, -1])
    assert (neg, neg) in mats1
    for rb in found0 + found1:
        assert check_rota_baxter(base, rb).passed


def test_rb_search_deterministic_order():
    base = two_dim_instance(TRIVIAL)
    a = brute_force_rb_search(base, SearchConfig(weight=1))
    b = brute_force_rb_search(base, SearchConfig(weight=1))
    assert a == b
    capped = brute_force_rb_search(base, SearchConfig(weight=1,
                                                      target_count=2))
    assert capped == a[:2]


def test_rb_search_budget_enforced():
    base = two_dim_instance(C2)
    with pytest.raises(BudgetExceeded) as err:
        brute_force_rb_search(base, SearchConfig(budget=10))
    assert err.value.space == 3 ** 8


def test_search_config_rejects_target_count_below_one():
    # a cap of 0 or -1 used to stop the searches after their first hit
    for bad in (0, -1):
        with pytest.raises(ValueError, match="target count must be at least 1"):
            SearchConfig(target_count=bad)
    assert SearchConfig(target_count=1).target_count == 1


def test_endomorphism_pairs_start_with_identity():
    base = two_dim_instance(C2)
    pairs = make_endomorphism_pairs(base, SearchConfig(target_count=3))
    ident = LinearFamily.identity(C2, 2)
    assert pairs[0] == (ident, ident)
    for f, g in pairs:
        assert f.commutes_with(g)[0]


def test_search_respects_entry_set():
    base = two_dim_instance(TRIVIAL)
    found = brute_force_rb_search(
        base, SearchConfig(entries=(0, Fraction(1, 2)), weight=0))
    allowed = {Fraction(0), Fraction(1, 2)}
    for rb in found:
        assert set(rb.maps.matrix(0).entries) <= allowed
