import functools
import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bihomega import cellgen, forge
from bihomega.checkers import (_Cells, check_instance, check_morphism,
                               check_rota_baxter)
from bihomega.core import (AlgebraKind, BilinearFamily, LinearFamily,
                           RotaBaxterFamily, new_instance)
from bihomega.errors import (BudgetExceeded, ConditionViolated, ShapeMismatch,
                             Singular)
from bihomega.forge import (SearchConfig, brute_force_rb_search,
                            constant_product_instance, embed_omega_as_bihom,
                            make_endomorphism_pairs, make_two_dim_example,
                            two_dim_params, two_dim_reading_report,
                            zero_instance)
from bihomega.linalg import Matrix
from bihomega.reports import CheckReport
from bihomega.semigroup import (cyclic_group, left_zero_semigroup,
                                trivial_semigroup)
from conftest import LIE_2D, two_dim_instance

TRIVIAL = trivial_semigroup()
C2 = cyclic_group(2)
C3 = cyclic_group(3)


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


def test_two_dim_builder_reports_the_first_violation():
    for c, rthree, lthree in (([[1, 1], [1, 1]], [1, 2], [3, 1]),
                              ([[1, 2], [0, 1]], [1, -1], [1, 1]),
                              ([[0, 1], [1, 1]], [1, 1], [2, 2])):
        params = two_dim_params(C2, c, rthree, lthree)
        assert len(params.violations()) > 1
        with pytest.raises(ConditionViolated) as err:
            make_two_dim_example(params)
        assert (err.value.condition, err.value.indices) == \
            params.violations()[0]


def test_two_dim_cocycle_violation_detected():
    # c not compatible with the sign characters
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, -1], [1, -1])
    kinds = {name for name, _ in params.violations()}
    assert kinds == {"c-cocycle"}


def test_two_dim_sign_character_params_valid():
    params = two_dim_params(C2, [[1, -1], [-1, 1]], [1, -1], [1, -1])
    assert params.violations() == []


def _reference_violations(params):
    """The four loops TwoDimExampleParams.violations was first written as."""
    om, out = params.omega, []
    for a in om.indices():
        for b in om.indices():
            ab = om.mul(a, b)
            if params.rthree[ab] != params.rthree[a] * params.rthree[b]:
                out.append(("rthree-multiplicative",
                            (om.elements[a], om.elements[b])))
            if params.lthree[ab] != params.lthree[a] * params.lthree[b]:
                out.append(("lthree-multiplicative",
                            (om.elements[a], om.elements[b])))
    for a in om.indices():
        for b in om.indices():
            for g in om.indices():
                ab = om.mul(a, b)
                bg = om.mul(b, g)
                lhs = params.c[a][b] * params.lthree[g] * params.c[ab][g]
                rhs = params.c[a][bg] * params.rthree[a] * params.c[b][g]
                if lhs != rhs:
                    out.append(("c-cocycle",
                                (om.elements[a], om.elements[b], om.elements[g])))
    return out


_SMALL_RATIONALS = st.sampled_from(
    [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)])


@pytest.mark.parametrize("omega", [C2, C3, left_zero_semigroup(2)],
                         ids=["C2", "C3", "left-zero-2"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_two_dim_violations_match_reference_loops(omega, data):
    n = omega.order
    params = two_dim_params(
        omega, [[data.draw(_SMALL_RATIONALS) for _ in range(n)] for _ in range(n)],
        [data.draw(_SMALL_RATIONALS) for _ in range(n)],
        [data.draw(_SMALL_RATIONALS) for _ in range(n)])
    assert params.violations() == _reference_violations(params)


_NINTHS = st.sampled_from([Fraction(0)] * 3 + [
    Fraction(n, d) for n in (-7, -2, -1, 1, 3, 8) for d in (1, 2, 3, 7, 9)])


@pytest.mark.parametrize("omega", [C2, C3, left_zero_semigroup(2)],
                         ids=["C2", "C3", "left-zero-2"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_two_dim_violations_match_reference_loops_over_ninths(omega, data):
    """The integer cross-multiplication against the Fraction loops, on
    scalars with denominators up to 9, signs and zeros."""
    n = omega.order
    params = two_dim_params(
        omega, [[data.draw(_NINTHS) for _ in range(n)] for _ in range(n)],
        [data.draw(_NINTHS) for _ in range(n)],
        [data.draw(_NINTHS) for _ in range(n)])
    assert params.violations() == _reference_violations(params)


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


def test_constant_product_instance_rejects_a_missing_slot():
    with pytest.raises(ShapeMismatch, match=r"expects tensors for \('prec', 'succ'\)"):
        constant_product_instance(AlgebraKind.DENDRIFORM, C2, {"prec": LIE_2D})
    with pytest.raises(ShapeMismatch, match=r"expects tensors for \('bracket',\)"):
        constant_product_instance(AlgebraKind.LIE, C2,
                                  {"bracket": LIE_2D, "mul": LIE_2D})


def test_constant_product_instance_rejects_no_tensors():
    with pytest.raises(ShapeMismatch, match=r"expects tensors for \('mul',\), got \(\)"):
        constant_product_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C2, {})


def test_constant_product_instance_rejects_tensors_of_different_sizes():
    cube3 = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    with pytest.raises(ShapeMismatch, match=r"different sizes \[2, 3\]"):
        constant_product_instance(AlgebraKind.DENDRIFORM, C2,
                                  {"prec": LIE_2D, "succ": cube3})


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


def test_repeated_entries_enumerate_each_family_once():
    base = two_dim_instance(C2)
    half = Fraction(1, 2)
    for repeated, distinct in (((0, 0), (0,)), ((half, "2/4", 0), (half, 0))):
        cfg = SearchConfig(entries=repeated, weight=1)
        assert cfg.entries == SearchConfig(entries=distinct).entries
        for search in (brute_force_rb_search, make_endomorphism_pairs):
            assert search(base, cfg) == search(
                base, SearchConfig(entries=distinct, weight=1))
    # the budget counts distinct entries: one family over {0}
    found = brute_force_rb_search(base, SearchConfig(entries=(0, 0), budget=1))
    assert [rb.maps for rb in found] == [LinearFamily.constant(C2, Matrix.zero(2, 2))]


# -- the pruned searches against an exhaustive reference ------------------

def _every_family(inst, cfg):
    """Every family over the entry set, index-major, as one product."""
    n, d = inst.omega.order, inst.dim
    for flat in itertools.product(cfg.entries, repeat=n * d * d):
        yield LinearFamily(inst.omega, d, tuple(
            Matrix(d, d, flat[a * d * d:(a + 1) * d * d]) for a in range(n)))


def _capped(hits, cap):
    return list(itertools.islice(hits, cap))


def _reference_rb_search(inst, cfg):
    rbs = (RotaBaxterFamily(fam, cfg.weight) for fam in _every_family(inst, cfg))
    return _capped((rb for rb in rbs
                    if check_rota_baxter(inst, rb, max_witnesses=1).passed),
                   cfg.target_count)


def _reference_morphisms(inst, cfg):
    return _capped(
        (f for f in _every_family(inst, cfg)
         if f.commutes_with(inst.p)[0] and f.commutes_with(inst.q)[0]
         and check_morphism(f, inst, inst, max_witnesses=1).passed),
        cfg.target_count)


def _reference_endomorphism_pairs(inst, morphisms):
    ident = LinearFamily.identity(inst.omega, inst.dim)
    pairs = [(ident, ident)]
    for f in morphisms:
        if f.commutes_with(f)[0]:
            pairs += [(f, f), (f, f.compose(f))]
    pairs += [(f, g) for f, g in itertools.combinations(morphisms, 2)
              if f.commutes_with(g)[0]]
    return pairs


@st.composite
def search_cases(draw, omega, d, values=(-1, 0, 1, 2, Fraction(1, 2)),
                 weights=(-1, 0, 1)):
    """A small instance over omega at dimension d, with random products
    and diagonal structure maps, and a search configuration over `values`
    and `weights` whose space is at most 256 candidates."""
    cells = omega.order * d * d
    size = draw(st.integers(1, max(n for n in range(1, 5) if n ** cells <= 256)))
    entries = [draw(st.sampled_from(values)) for _ in range(size)]
    kind = draw(st.sampled_from((AlgebraKind.BIHOM_ASSOCIATIVE,
                                 AlgebraKind.DENDRIFORM)))
    # per index pair, a scalar (often 0, which every family passes) times
    # random constants, e_i e_j = e_i, or e_i e_j = [i = j] e_i
    shape = draw(st.sampled_from(("random", "left", "idempotent")))
    scalar = st.sampled_from((1, 0, 0, -1, 2))
    blocks = {}

    def product(a, b, i, j, slot):
        if (slot, a, b) not in blocks:
            blocks[slot, a, b] = draw(scalar)
        c = blocks[slot, a, b]
        if shape == "random":
            return tuple(c * draw(scalar) for _ in range(d))
        hit = shape == "left" or i == j
        return tuple(c if hit and k == i else 0 for k in range(d))
    products = tuple((slot, BilinearFamily.from_function(
        omega, d, lambda a, b, i, j, slot=slot: product(a, b, i, j, slot)))
        for slot in kind.product_slots)
    diagonal = st.lists(st.sampled_from((1, -1, 2)), min_size=d,
                        max_size=d).map(Matrix.diagonal)
    p, q = (LinearFamily(omega, d, tuple(draw(diagonal)
                                         for _ in omega.indices()))
            for _ in range(2))
    cfg = SearchConfig(entries=tuple(entries),
                       weight=draw(st.sampled_from(weights)),
                       target_count=draw(st.one_of(st.none(),
                                                   st.integers(1, 6))))
    return new_instance(kind, omega, products, p, q), cfg


def _searches_match_reference(inst, cfg):
    assert brute_force_rb_search(inst, cfg) == _reference_rb_search(inst, cfg)
    morphisms = _reference_morphisms(inst, cfg)
    # pairing m morphisms costs m^2 commutation tests, on both sides alike
    assume(len(morphisms) <= 32)
    assert (make_endomorphism_pairs(inst, cfg)
            == _reference_endomorphism_pairs(inst, morphisms))


# C3 has 1*1 = 2, so cell (1, 1) is read only at index 2; the left-zero
# semigroup is not commutative
@pytest.mark.parametrize("omega", [TRIVIAL, C3, left_zero_semigroup(2)],
                         ids=["trivial", "c3", "left-zero"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pruned_searches_match_exhaustive_reference_dim_1(omega, data):
    _searches_match_reference(*data.draw(search_cases(omega, 1)))


@pytest.mark.parametrize("omega", [TRIVIAL, left_zero_semigroup(2)],
                         ids=["trivial", "left-zero"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pruned_searches_match_exhaustive_reference_dim_2(omega, data):
    _searches_match_reference(*data.draw(search_cases(omega, 2)))


# entries over 3 and 2 and weights over 4 and 2: the search binds once over
# the lcm of every denominator, the reference checks each candidate over
# its own
FRACTIONAL = dict(values=(Fraction(1, 3), Fraction(1, 2), 2, 0, -1),
                  weights=(Fraction(-3, 4), Fraction(1, 2), 0, 1))


@pytest.mark.parametrize("omega", [TRIVIAL, C3, left_zero_semigroup(2)],
                         ids=["trivial", "c3", "left-zero"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pruned_searches_over_one_den_match_reference_dim_1(omega, data):
    _searches_match_reference(*data.draw(search_cases(omega, 1, **FRACTIONAL)))


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pruned_searches_over_one_den_match_reference_dim_2(data):
    _searches_match_reference(*data.draw(search_cases(TRIVIAL, 2, **FRACTIONAL)))


def test_rb_search_reads_a_cell_once_its_product_index_has_a_matrix():
    # over C3 only cell (1, 1) has a nonzero product, read at index 1*1 = 2:
    # r1^2 = r2 (r1 + r1) holds at (r1, r2) = (2, 1) and fails at (2, 2)
    mul = BilinearFamily.from_function(
        C3, 1, lambda a, b, i, j: (1 if (a, b) == (1, 1) else 0,))
    ident = LinearFamily.identity(C3, 1)
    inst = new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, C3, (("mul", mul),),
                        ident, ident)
    cfg = SearchConfig(entries=(1, 2), weight=0)
    found = brute_force_rb_search(inst, cfg)
    assert [tuple(m.entries[0] for m in rb.maps.maps) for rb in found] == [
        (1, 2, 1), (2, 2, 1)]
    assert found == _reference_rb_search(inst, cfg)


@pytest.mark.parametrize("omega, cell, entries, weight, hits", [
    # r1^2 = r2 (r1 + r1) on cell (1, 1), first read at index 1 * 1 = 2:
    # under r1 = 2, R_2 = 1 passes and R_2 = 3, tried next, fails
    (C3, (1, 1), (2, 1, 3), 0, [(2, 2, 1), (1, 2, 1), (3, 2, 1)]),
    # r1 r0 = r1 (r1 + r0 - 1) on cell (1, 0), read at index 1 through R's
    # column and its map there: R_1 = 0 passes and R_1 = 2, next, fails
    (left_zero_semigroup(2), (1, 0), (0, 2, 1), -1,
     [(0, 0), (0, 1), (2, 0), (2, 1), (1, 0), (1, 1)]),
], ids=["c3", "left-zero"])
def test_rb_search_drops_the_binding_of_a_sibling_it_backtracks_from(
        omega, cell, entries, weight, hits):
    mul = BilinearFamily.from_function(
        omega, 1, lambda a, b, i, j: (1 if (a, b) == cell else 0,))
    ident = LinearFamily.identity(omega, 1)
    inst = new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, omega, (("mul", mul),),
                        ident, ident)
    cfg = SearchConfig(entries=entries, weight=weight)
    found = brute_force_rb_search(inst, cfg)
    assert [tuple(m.entries[0] for m in rb.maps.maps) for rb in found] == hits
    assert found == _reference_rb_search(inst, cfg)


def test_each_index_keeps_the_matrices_that_commute_with_its_own_maps():
    # p is diag(1, -1) at index 0 and the identity at index 1, and the
    # product is zero: R_0 must be diagonal, R_1 may be anything, and every
    # endomorphism f_a must commute with both p_0 and p_1
    omega = left_zero_semigroup(2)
    p = LinearFamily(omega, 2, (Matrix.diagonal([1, -1]), Matrix.identity(2)))
    inst = zero_instance(AlgebraKind.BIHOM_ASSOCIATIVE, omega, 2, p=p)
    cfg = SearchConfig(entries=(0, 1))
    found = brute_force_rb_search(inst, cfg)
    assert len(found) == 4 * 16 and found == _reference_rb_search(inst, cfg)
    morphisms = _reference_morphisms(inst, cfg)
    assert len(morphisms) == 4 * 4
    assert (make_endomorphism_pairs(inst, cfg)
            == _reference_endomorphism_pairs(inst, morphisms))


def test_a_search_makes_one_binding_that_holds_no_memo(monkeypatch):
    # the unary pass and the binary nodes rebind one map in one binding,
    # and each rebind clears every memo there: none may be registered
    made, init, pruned = [], _Cells.__init__, forge._pruned_families

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def binding(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(_Cells, "__init__", counted)
            return pruned(*args, **kwargs)
    monkeypatch.setattr(forge, "_pruned_families", binding)
    base = two_dim_instance(C2)
    for search, cfg in ((brute_force_rb_search, SearchConfig(weight=1)),
                        (make_endomorphism_pairs, SearchConfig())):
        made.clear()
        assert len(search(base, cfg)) > 1
        assert len(made) == 1 and made[0].memos == []


def test_a_search_decides_every_hit_on_one_binding_that_applies(monkeypatch):
    # two bindings per search, whatever its hit count: the first, whose
    # generated cells prune, and the second, handed to the checker for
    # every candidate the pruning yields, which no generated cell reads
    made, handed, bound, init = [], [], [], _Cells.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    monkeypatch.setattr(_Cells, "__init__", counted)

    def generated(axiom, cells, first=cellgen.first_mismatch):
        bound.append(cells)
        return first(axiom, cells)
    monkeypatch.setattr(cellgen, "first_mismatch", generated)
    for name in ("check_rota_baxter", "check_morphism"):
        def check(*args, check=getattr(forge, name), **kwargs):
            report = check(*args, **kwargs)
            handed.append((kwargs["cells"], report.passed))
            return report
        monkeypatch.setattr(forge, name, check)
    base, hits = two_dim_instance(C2), []
    for search, cfg in (
            (brute_force_rb_search, SearchConfig(weight=1)),
            (brute_force_rb_search, SearchConfig(weight=1, target_count=1)),
            (brute_force_rb_search, SearchConfig(entries=(1,), weight=1)),
            (make_endomorphism_pairs, SearchConfig())):
        made.clear()
        handed.clear()
        bound.clear()
        search(base, cfg)
        assert len(made) == 2 and bound
        assert all(cells is made[0] for cells in bound)
        assert all(cells is made[1] for cells, _ in handed)
        hits.append(sum(passed for _, passed in handed))
    assert hits[:3] == [20, 1, 0] and hits[3] > 1


def test_rb_search_prunes_before_the_checker(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return check_rota_baxter(*args, **kwargs)
    monkeypatch.setattr(forge, "check_rota_baxter", counted)
    found = brute_force_rb_search(two_dim_instance(C2), SearchConfig(weight=1))
    assert found and len(calls) < 3 ** 8 // 20


def _benchmark_instances():
    """The benchmark's search inputs: the 2-dim instance over C2 whose
    c, p and q are sign characters, and the 2-dim Lie instance
    {e1, e2} = 2 e2 over C2."""
    params = two_dim_params(C2, [[1, -1], [-1, 1]], [1, -1], [1, -1])
    lie = [[[2 * v for v in cell] for cell in row] for row in LIE_2D]
    return (make_two_dim_example(params, reading="e2"),
            constant_product_instance(AlgebraKind.LIE, C2, {"bracket": lie}))


def test_the_checker_decides_every_hit(monkeypatch):
    # with every generated cell of the search forced to pass, every
    # candidate passes the pruning: the checkers, which never call one,
    # must still return exactly today's hits
    searches = [(brute_force_rb_search, SearchConfig(entries=(0, 1), weight=w))
                for w in (0, 1, -1)]
    searches.append((make_endomorphism_pairs, SearchConfig(entries=(0, 1))))
    expected = [search(inst, cfg) for inst in _benchmark_instances()
                for search, cfg in searches]
    assert any(len(found) > 1 for found in expected)
    checked = []

    def counted(check):
        def run(*args, **kwargs):
            checked.append(1)
            return check(*args, **kwargs)
        return run
    for name in ("check_rota_baxter", "check_morphism"):
        monkeypatch.setattr(forge, name, counted(getattr(forge, name)))

    def passing(axiom, cells, first=cellgen.first_mismatch):
        at = first(axiom, cells)
        return lambda idx: at(idx) and (lambda: None)
    monkeypatch.setattr(cellgen, "first_mismatch", passing)
    assert [search(inst, cfg) for inst in _benchmark_instances()
            for search, cfg in searches] == expected
    # every candidate that commutes with p and q was checked
    assert len(checked) == 2 * 4 * 2 ** 8


def test_the_pruning_applies_no_family_and_no_matrix(monkeypatch):
    # the search's generated cells read int columns, never apply:
    # with the checkers passing every candidate unseen, no apply is
    # called, and the pruning alone gives today's hits
    searches = ((brute_force_rb_search, SearchConfig(weight=1)),
                (make_endomorphism_pairs, SearchConfig()))
    expected = [search(inst, cfg) for inst in _benchmark_instances()
                for search, cfg in searches]
    applied = []
    for cls in (BilinearFamily, Matrix):
        def counted(*args, apply=cls.apply):
            applied.append(1)
            return apply(*args)
        monkeypatch.setattr(cls, "apply", counted)
    for name in ("check_rota_baxter", "check_morphism"):
        monkeypatch.setattr(forge, name,
                            lambda *args, **kwargs: CheckReport("unseen", ()))
    assert [search(inst, cfg) for inst in _benchmark_instances()
            for search, cfg in searches] == expected
    assert applied == []


def test_a_repeated_search_walks_no_cell(monkeypatch):
    # the first search over an instance walks each of its nonzero cells
    # once; an equal instance, searched again, walks none and finds the
    # same hits; another weight is other data, walked anew
    monkeypatch.setattr(cellgen, "_CELL_CODE", {})
    monkeypatch.setattr(cellgen, "_cached_lines", 0)
    compiled, source = [], cellgen._CellSource.compiled

    def counted(self):
        compiled.append((self.axiom.name, self.idx))
        return source(self)
    monkeypatch.setattr(cellgen._CellSource, "compiled", counted)
    runs = []
    for weight in (1, 1, 0):
        compiled.clear()
        found = brute_force_rb_search(two_dim_instance(C2),
                                      SearchConfig(weight=weight))
        runs.append((len(found), sorted(compiled)))
        if len(runs) == 1:
            sources = [key for key in cellgen._CELL_CODE if isinstance(key, str)]
    assert runs[0][0] == runs[1][0] == 20
    # rb-identity at the 4 index pairs, each commutation at both indices
    assert len(runs[0][1]) == 8 == len(set(runs[0][1]))
    assert runs[1][1] == [] and runs[2][1] == runs[0][1]
    # the product is c = 1 at every index pair, so cells that differ in
    # their indices alone share one source and one code object: each
    # commutation's two, and the rb-identity's at (0, 1) and (1, 0),
    # where ab = b; at (0, 0) and (1, 1) a, b and ab coincide otherwise
    assert len(sources) == 5


def test_the_cell_cache_keeps_its_line_budget(monkeypatch):
    # the oldest cells are dropped first, and the count of lines kept
    # stays the sum over the entries, each counted one line more
    monkeypatch.setattr(cellgen, "_CELL_CODE", {})
    monkeypatch.setattr(cellgen, "_cached_lines", 0)
    monkeypatch.setattr(cellgen, "_CACHED_LINES", 100)
    for weight in (0, 1, -1):
        brute_force_rb_search(two_dim_instance(C2), SearchConfig(weight=weight))
        kept = cellgen._CELL_CODE.values()
        assert cellgen._cached_lines == sum(1 + (e[0] if e else 0) for e in kept)
        assert cellgen._cached_lines <= 100
    # the cells kept are the last search's; a source's code is kept too
    assert all(key[1][3] == -1 for key in cellgen._CELL_CODE
               if not isinstance(key, str))


def test_a_search_over_a_coefficient_past_the_digit_limit():
    # the coefficient has more digits than int <-> str allows: a
    # generated cell binds it as a value, so no search writes it as text
    inst = constant_product_instance(AlgebraKind.BIHOM_ASSOCIATIVE,
                                     cyclic_group(1),
                                     {"mul": [[[10 ** 5000 + 7]]]})
    found = brute_force_rb_search(inst, SearchConfig(entries=(0, 1, -1)))
    assert [rb.maps.maps for rb in found] == [(Matrix.zero(1, 1),)]
    found = brute_force_rb_search(inst, SearchConfig(entries=(0, 1, -1),
                                                     weight=-1))
    assert [rb.maps.maps for rb in found] == [(Matrix.zero(1, 1),),
                                              (Matrix.identity(1),)]


def _sl2_bracket():
    """sl2 on the basis (e, f, h): [e, f] = h, [h, e] = 2e, [h, f] = -2f."""
    cube = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, v in ((0, 1, (0, 0, 1)), (2, 0, (2, 0, 0)), (2, 1, (0, -2, 0))):
        cube[i][j], cube[j][i] = list(v), [-c for c in v]
    return cube


SL2 = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": _sl2_bracket()})


@functools.cache
def _sl2_hits(entries, weight):
    return brute_force_rb_search(
        SL2, SearchConfig(entries=entries, weight=weight, budget=10 ** 9))


@pytest.mark.parametrize("entries, weight, count, digest", [
    ((0, 1), 0, 21, "35372a0bf67e"),
    ((0, 1), -1, 26, "53fe669a2993"),
    ((-1, 0), 1, 26, "dd2d52acac84"),
])
def test_rb_search_over_sl2_at_dim_3_is_pinned(entries, weight, count, digest):
    found = _sl2_hits(entries, weight)
    assert len(found) == count
    assert hashlib.sha256(repr(found).encode()).hexdigest()[:12] == digest


def test_rb_search_over_sl2_negates_with_its_weight():
    # R has weight lam exactly when -R has weight -lam
    negated = {tuple(Matrix(3, 3, tuple(-v for v in m.entries))
                     for m in rb.maps.maps) for rb in _sl2_hits((0, 1), -1)}
    assert negated == {rb.maps.maps for rb in _sl2_hits((-1, 0), 1)}


@pytest.mark.parametrize("weight, count, digest", [
    (0, 65, "eaf1badb7455"),
    (1, 76, "6bf7d424431b"),
])
def test_uncapped_rb_search_over_sl2_is_pinned(weight, count, digest):
    # the default entries {-1, 0, 1}: 3 ** 18 candidates
    found = _sl2_hits((-1, 0, 1), weight)
    assert len(found) == count
    assert hashlib.sha256(repr(found).encode()).hexdigest()[:12] == digest


def _rebinds(monkeypatch, run):
    """The (index, matrix) of every rebind, in order, while run() runs;
    a search's node at depth k rebinds index k."""
    seen, rebind = [], _Cells.rebind

    def recorded(self, name, a, m):
        seen.append((name, a, m))
        rebind(self, name, a, m)
    with monkeypatch.context() as patch:
        patch.setattr(_Cells, "rebind", recorded)
        run()
    return seen


@pytest.mark.parametrize("case", ["sign", "lie", "sl2"])
def test_generated_cells_visit_the_nodes_of_mismatches(monkeypatch, case):
    # node for node: with every cell of the pruning forced to mismatches,
    # the search rebinds the same (index, matrix) sequence
    if case == "sl2":
        inst, searches = SL2, [(brute_force_rb_search, SearchConfig(
            entries=(0, 1), weight=w)) for w in (0, -1)]
    else:
        inst = _benchmark_instances()[case == "lie"]
        searches = [(brute_force_rb_search, SearchConfig(weight=w))
                    for w in (0, 1, -1)]
        searches.append((make_endomorphism_pairs, SearchConfig()))
    for search, cfg in searches:
        generated = _rebinds(monkeypatch, lambda: search(inst, cfg))
        with monkeypatch.context() as patch:
            # an empty cache, keyed without the cap, compiles no cell
            for attr, value in (("CELL_LINES", 0), ("_CELL_CODE", {}),
                                ("_cached_lines", 0)):
                patch.setattr(cellgen, attr, value)
            fallback = _rebinds(monkeypatch, lambda: search(inst, cfg))
        assert len(generated) > 2 * 3 ** 4 and generated == fallback
