"""The int store of product families against a reference in Fractions.

Products are parsed and stored as ints over one denominator, and written
and digested from those ints.  Here random products are spelled with
unreduced, signed-zero and repeated terms and numbers near Python's digit
limit, and their canonical text and digest are compared with ones this
file writes from Fractions alone."""

import hashlib
import sys
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomega.core import BilinearFamily, LinearFamily
from bihomega.dsl import HEADER, parse_workspace, serialize_workspace
from bihomega.errors import NumberTooLong, ParseError
from bihomega.semigroup import cyclic_group
from reference import nonzero_cells

C2 = cyclic_group(2)
DIM = 2
LIMIT = sys.get_int_max_str_digits()

SEMIGROUP = """
semigroup W {
  elements g0 g1;
  table {
    g0*g0 = g0;
    g0*g1 = g1;
    g1*g0 = g1;
    g1*g1 = g0;
  }
  commutative;
}
"""
IDENTITY = "    g0: [[1, 0], [0, 1]];\n    g1: [[1, 0], [0, 1]];\n"
MAPS = "  map p {\n" + IDENTITY + "  }\n  map q {\n" + IDENTITY + "  }\n}\n"
ALGEBRA = "\nalgebra a : bihom_associative over W dim 2 {\n  product mul {\n"


def _digits(n: int, seed: int) -> str:
    """n random digits, the first nonzero."""
    rng = Random(seed)
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=n - 1))


# numbers as their digits: small ones, so that zeros, unreduced values and
# sums to zero are common, and in half the products now and then one of
# LIMIT - 1, LIMIT or LIMIT + 1 digits, the last of which the parser refuses
SMALL = st.integers(0, 6).map(str)
HUGE = st.builds(_digits, st.sampled_from([LIMIT - 1, LIMIT, LIMIT + 1]),
                 st.integers(0, 2 ** 32))
SOME_HUGE = st.one_of(*[SMALL] * 8, HUGE)


def _terms(number):
    """One to three terms (negative, numerator, denominator or None, k)."""
    term = st.tuples(st.booleans(), number,
                     st.none() | number.filter(lambda s: s != "0"),
                     st.integers(0, DIM - 1))
    return st.lists(term, min_size=1, max_size=3)


KEY = st.tuples(*[st.integers(0, 1)] * 2, *[st.integers(0, DIM - 1)] * 2)


def _spell(term) -> str:
    negative, num, den, k = term
    coeff = ("-" if negative else "") + num
    return coeff + ("" if den is None else f"/{den}") + f" e{k + 1}"


@st.composite
def spelled_products(draw):
    """(text, entries): a workspace whose product holds entries of one
    to three terms, some sent to the token rules by a comment, and each
    entry's terms."""
    terms = _terms(draw(st.sampled_from([SMALL, SOME_HUGE])))
    entries = draw(st.dictionaries(KEY, terms, max_size=6))
    lines = []
    for (a, b, i, j), terms in entries.items():
        sep = " + # a comment\n" if draw(st.booleans()) else " + "
        lines.append(f"    (g{a},g{b}): e{i + 1}*e{j + 1} = "
                     + sep.join(map(_spell, terms)) + ";\n")
    text = HEADER + "\n" + SEMIGROUP + ALGEBRA + "".join(lines) + "  }\n" + MAPS
    return text, entries


def _reference_cells(entries) -> dict:
    """Each entry's vector in Fractions, a repeated vector added up."""
    cells = {}
    for key, terms in entries.items():
        cell = [Fraction(0)] * DIM
        for negative, num, den, k in terms:
            cell[k] += Fraction(-int(num) if negative else int(num), int(den or 1))
        cells[key] = tuple(cell)
    return cells


def _reference_text(cells) -> str:
    lines = "".join(
        f"    (g{a},g{b}): e{i + 1}*e{j + 1} = "
        + " + ".join(f"{v} e{k + 1}" for k, v in enumerate(cell) if v) + ";\n"
        for (a, b, i, j), cell in sorted(cells.items()) if any(cell))
    return HEADER + "\n" + SEMIGROUP + ALGEBRA + lines + "  }\n" + MAPS


def _reference_digest(cells) -> str:
    zero = (Fraction(0),) * DIM
    dense = tuple(tuple(tuple(tuple(cells.get((a, b, i, j), zero)
                                    for j in range(DIM)) for i in range(DIM))
                        for b in range(2)) for a in range(2))
    maps = repr(LinearFamily.identity(C2, DIM).maps)
    h = hashlib.sha256()
    for piece in ("bihom_associative", repr(C2.table), "mul", repr(dense), maps, maps):
        h.update(piece.encode())
    return h.hexdigest()[:16]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@given(spelled_products())
@settings(max_examples=150, deadline=None)
def test_text_and_digest_match_a_fraction_reference(case):
    text, entries = case
    numbers = [n for terms in entries.values() for _, num, den, _ in terms
               for n in (num, den) if n is not None]
    if any(len(n) > LIMIT for n in numbers):
        with pytest.raises(ParseError, match=f"an integer of at most {LIMIT} digits"):
            parse_workspace(text)
        return
    ws = parse_workspace(text)
    cells = _reference_cells(entries)
    # the stored form is canonical: over the lcm of the reduced
    # denominators, whatever the spelling
    fam = ws.algebras["a"].product("mul")
    assert fam == BilinearFamily.from_cells(C2, DIM, cells)
    assert fam.den == lcm(*(v.denominator for cell in cells.values() for v in cell))
    assert nonzero_cells(fam) == {key: cell for key, cell in cells.items() if any(cell)}
    # a value too long to print is NumberTooLong in the text, and the
    # same ValueError in the digest as in the reference's
    expected = _outcome(_reference_text, cells)
    if expected is ValueError:
        with pytest.raises(NumberTooLong):
            serialize_workspace(ws)
    else:
        assert serialize_workspace(ws) == expected
    assert _outcome(ws.algebras["a"].digest) == _outcome(_reference_digest, cells)
