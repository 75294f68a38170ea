import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomega.errors import ShapeMismatch
from bihomega.reports import AxiomResult, CheckReport, Witness
from bihomega.semigroup import (SemigroupTable, cyclic_group,
                                is_commutative_table, left_zero_semigroup,
                                trivial_semigroup, validate_semigroup)


def test_trivial_semigroup_passes():
    report = validate_semigroup(trivial_semigroup())
    assert report.passed
    assert report.result("associativity").total_violations == 0


def test_c2_passes_and_is_commutative():
    report = validate_semigroup(cyclic_group(2))
    assert report.passed
    assert "commutativity" in report.axiom_names()


def test_left_zero_associative_not_commutative():
    t = left_zero_semigroup(2)
    assert validate_semigroup(t).passed  # flag unset: only associativity
    assert not is_commutative_table(t)
    flagged = SemigroupTable(t.elements, t.table, commutative=True)
    report = validate_semigroup(flagged)
    assert not report.passed
    bad = report.result("commutativity")
    assert bad.total_violations == 2
    assert bad.witnesses[0].indices == ("a", "b")


def test_non_associative_table_reports_witness():
    # x*y = index of "the other" on mixed pairs; fails associativity
    t = SemigroupTable(("a", "b"), ((1, 0), (0, 0)))
    report = validate_semigroup(t)
    assert not report.passed
    w = report.result("associativity").witnesses[0]
    assert w.lhs != w.rhs


def test_mul_lookup():
    assert trivial_semigroup().mul(0, 0) == 0
    assert cyclic_group(2).mul(1, 1) == 0
    assert left_zero_semigroup(2).mul(0, 1) == 0
    assert left_zero_semigroup(2).mul(1, 0) == 1


def test_mul_range_check():
    with pytest.raises(ShapeMismatch):
        trivial_semigroup().mul(0, 1)


def test_malformed_table_rejected():
    with pytest.raises(ShapeMismatch):
        SemigroupTable(("a",), ((1,),))
    with pytest.raises(ShapeMismatch):
        SemigroupTable(("a", "b"), ((0,), (1, 0)))


def test_commutative_flagged_tables_commute():
    for t in (trivial_semigroup(), cyclic_group(2), cyclic_group(3)):
        assert t.commutative
        assert is_commutative_table(t)


def test_witness_cap_respected():
    t = SemigroupTable(("a", "b", "c"),
                       ((1, 2, 0), (2, 0, 1), (0, 1, 2)), commutative=False)
    report = validate_semigroup(t, max_witnesses=2)
    bad = report.result("associativity")
    if not bad.passed:
        assert len(bad.witnesses) <= 2
        assert bad.total_violations >= len(bad.witnesses)


def _reference_validate(t, max_witnesses):
    """The two loop nests validate_semigroup was first written as."""
    results = []
    witnesses = []
    total = 0
    n = t.order
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = t.mul(t.mul(i, j), k)
                rhs = t.mul(i, t.mul(j, k))
                if lhs != rhs:
                    total += 1
                    if len(witnesses) < max_witnesses:
                        witnesses.append(Witness(
                            indices=(t.elements[i], t.elements[j], t.elements[k]),
                            basis=(), lhs=(lhs,), rhs=(rhs,)))
    results.append(AxiomResult("associativity", tuple(witnesses), total))
    if t.commutative:
        witnesses = []
        total = 0
        for i in range(n):
            for j in range(n):
                lhs = t.mul(i, j)
                rhs = t.mul(j, i)
                if lhs != rhs:
                    total += 1
                    if len(witnesses) < max_witnesses:
                        witnesses.append(Witness(
                            indices=(t.elements[i], t.elements[j]),
                            basis=(), lhs=(lhs,), rhs=(rhs,)))
        results.append(AxiomResult("commutativity", tuple(witnesses), total))
    return CheckReport(subject="semigroup", results=tuple(results))


@st.composite
def _tables(draw):
    """Any n x n table with n <= 4, associative or not, flagged either way."""
    n = draw(st.integers(1, 4))
    table = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(n))
                  for _ in range(n))
    return SemigroupTable(tuple(f"x{i}" for i in range(n)), table,
                          commutative=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(_tables(), st.sampled_from((-1, 0, 1, 2, 10)))
def test_validate_semigroup_matches_reference_loops(t, cap):
    assert validate_semigroup(t, max_witnesses=cap) == \
        _reference_validate(t, cap)


@given(st.lists(st.one_of(st.integers(), st.fractions()), min_size=1,
                max_size=4))
@settings(max_examples=100, deadline=None)
def test_witness_values_print_as_str(values):
    """Below the digit limit a witness value prints as str prints it."""
    w = Witness(("a",), (0,), tuple(values), tuple(reversed(values)))
    texts = [str(v) for v in values]
    assert w.to_dict()["lhs"] == texts
    assert w.to_dict()["rhs"] == texts[::-1]
    assert w.describe() == (f"indices=a basis=e1 lhs=({', '.join(texts)}) "
                            f"rhs=({', '.join(reversed(texts))})")
