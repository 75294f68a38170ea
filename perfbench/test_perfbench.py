"""Tests of the benchmark's own bookkeeping, against the public API.

    python3 -m pytest perfbench -q
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bihomega as bh  # noqa: E402
import bihomega.cli  # noqa: E402,F401
from cells import (AXIOM_ARITY, candidate_rank, candidates_decided,  # noqa: E402
                   report_cells)
from tracer import Recorder  # noqa: E402

ENTRIES = (Fraction(-1), Fraction(0), Fraction(1))


def _cube(rng, d):
    return [[[rng.choice((-1, 0, 1)) for _ in range(d)] for _ in range(d)]
            for _ in range(d)]


def _family(omega, rows):
    return bh.LinearFamily.constant(omega, bh.Matrix.from_rows(rows))


def _reports():
    """Reports of every checker on passing and failing inputs, with unary,
    binary and ternary violations among them."""
    rng = random.Random(7)
    sign = [[1, 0], [0, -1]]
    nilpotent = [[0, 1], [0, 0]]
    for omega in (bh.trivial_semigroup(), bh.cyclic_group(2)):
        p = _family(omega, sign)
        for kind in bh.AlgebraKind:
            zero = bh.zero_instance(kind, omega, 2, p=p)
            dense = bh.constant_product_instance(
                kind, omega, {s: _cube(rng, 2) for s in kind.product_slots})
            for inst in (zero, dense):
                yield inst, bh.check_instance(inst, max_witnesses=50)
                for rows, weight in ((nilpotent, 0), ([[1, 1], [0, 1]], 1)):
                    rb = bh.RotaBaxterFamily(_family(omega, rows), weight)
                    yield inst, bh.check_rota_baxter(inst, rb, max_witnesses=50)
                f = _family(omega, [[1, 1], [1, 0]])
                yield inst, bh.check_morphism(f, inst, inst, max_witnesses=50)


def test_every_emitted_axiom_has_a_cell_count():
    missing = {r.axiom for _, report in _reports() for r in report.results
               if r.axiom not in AXIOM_ARITY}
    assert not missing, f"axioms without a cell count: {sorted(missing)}"


def test_witness_shapes_match_the_table():
    seen = set()
    for _, report in _reports():
        for r in report.results:
            for w in r.witnesses:
                arity = AXIOM_ARITY[r.axiom]
                assert len(w.indices) == len(w.basis) == arity, r.axiom
                seen.add(arity)
    assert seen == {1, 2, 3}
    # rb-identity is binary although its name ends in "identity"
    assert AXIOM_ARITY["rb-identity-mul"] == 2


def test_report_cells_counts_every_cell():
    inst = bh.zero_instance(bh.AlgebraKind.LIE, bh.cyclic_group(3), 2)
    report = bh.check_instance(inst)
    # p/q-multiplicativity and skew-symmetry are binary, jacobi is ternary
    assert report_cells(report, 3, 2) == 3 * 36 + 216


def test_rank_of_every_hit_on_an_all_pass_search():
    # zero products over the trivial semigroup: all 81 candidates pass
    inst = bh.zero_instance(bh.AlgebraKind.BIHOM_ASSOCIATIVE,
                            bh.trivial_semigroup(), 2)
    hits = bh.brute_force_rb_search(inst, bh.SearchConfig(entries=ENTRIES))
    assert len(hits) == 81
    assert [candidate_rank(rb.maps, ENTRIES) for rb in hits] == list(range(81))
    capped = bh.brute_force_rb_search(
        inst, bh.SearchConfig(entries=ENTRIES, target_count=5))
    assert candidates_decided(81, 5, [rb.maps for rb in capped], ENTRIES) == 5
    assert candidates_decided(81, None, [rb.maps for rb in hits], ENTRIES) == 81


def test_tracer_counts_and_restores():
    originals = (bh.BilinearFamily.__dict__["apply"],
                 bh.BilinearFamily.__dict__["from_function"],
                 bh.Matrix.__dict__["apply"], bh.checkers.check_instance,
                 bh.forge.check_rota_baxter, bh.cli.check_instance,
                 dict(bh.CONSTRUCTIONS))
    rec = Recorder()
    rec.install()
    try:
        inst = bh.zero_instance(bh.AlgebraKind.LIE, bh.cyclic_group(3), 2)
        report = bh.checkers.check_instance(inst)
    finally:
        rec.uninstall()
    assert rec.counters["checkers.cells"] == report_cells(report, 3, 2)
    assert rec.calls["checkers.check_instance"] == 1
    assert rec.calls["core.bilinear_apply"] > 0
    assert (bh.BilinearFamily.__dict__["apply"],
            bh.BilinearFamily.__dict__["from_function"],
            bh.Matrix.__dict__["apply"], bh.checkers.check_instance,
            bh.forge.check_rota_baxter, bh.cli.check_instance,
            dict(bh.CONSTRUCTIONS)) == originals
