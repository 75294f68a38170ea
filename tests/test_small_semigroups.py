"""Every semigroup of order at most 3 as the index semigroup Ω.

The tables are listed by brute force here, with no library code: every
n x n table over n elements, n <= 3, kept when it is associative.  Over
each, the kind checkers gate exactly where a kind's axioms have monomials
at more than one index word, and wherever a checker or a shipped recipe
runs, each monomial of an axiom or a product term sits at one index."""

from functools import reduce
from itertools import product

import pytest

from bihomega.checkers import (KIND_AXIOMS, check_instance, morphism_axioms,
                               rota_baxter_axioms)
from bihomega.constructions import RECIPES
from bihomega.core import AlgebraKind
from bihomega.errors import NonCommutativeOmega
from bihomega.forge import zero_instance
from bihomega.semigroup import SemigroupTable
from test_checkers import GATED_KINDS, _words
from test_constructions import GATED_RECIPES


def _associative_tables(n):
    for flat in product(range(n), repeat=n * n):
        t = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if all(t[t[a][b]][c] == t[a][t[b][c]]
               for a, b, c in product(range(n), repeat=3)):
            yield t


def _commutative(t):
    return all(t[a][b] == t[b][a] for a, b in product(range(len(t)), repeat=2))


TABLES = [t for n in (1, 2, 3) for t in _associative_tables(n)]


def _omega(t):
    return SemigroupTable(tuple("abc"[:len(t)]), t, commutative=_commutative(t))


def _at(t, idx, word):
    """The index of a monomial with this word at the index tuple idx."""
    return reduce(lambda a, b: t[a][b], (idx[v] for v in word))


def test_the_tables_are_every_labelled_semigroup_of_order_at_most_3():
    assert [sum(len(t) == n for t in TABLES) for n in (1, 2, 3)] == [1, 8, 113]
    assert sum(not _commutative(t) for t in TABLES) == 52


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda k: k.value)
def test_checkers_gate_exactly_the_gated_kinds_over_noncommutative_tables(kind):
    for t in TABLES:
        inst = zero_instance(kind, _omega(t), 1)
        if kind in GATED_KINDS and not _commutative(t):
            with pytest.raises(NonCommutativeOmega):
                check_instance(inst)
        else:
            assert check_instance(inst).passed, t


def test_every_monomial_sits_at_one_index_wherever_it_is_evaluated():
    # (arity, words) of every axiom a checker runs over any table, and of
    # those of the gated kinds, which run over commutative tables only
    anywhere, commutative_only = set(), set()
    for kind, axioms in KIND_AXIOMS.items():
        slots = kind.product_slots
        for ax in rota_baxter_axioms(slots) + morphism_axioms(slots):
            anywhere.add((ax.arity, _words(ax.lhs) | _words(ax.rhs)))
        for ax in axioms:
            (commutative_only if kind in GATED_KINDS else anywhere).add(
                (ax.arity, _words(ax.lhs) | _words(ax.rhs)))
    products = {name: [_words(term) for term in recipe.products.values()]
                for name, recipe in RECIPES.items()}
    for t in TABLES:
        comm = _commutative(t)
        for arity, words in anywhere | (commutative_only if comm else set()):
            for idx in product(range(len(t)), repeat=arity):
                assert len({_at(t, idx, w) for w in words}) == 1, (t, words)
        for name, terms in products.items():
            if comm or name not in GATED_RECIPES:
                for words, (a, b) in product(terms, product(range(len(t)), repeat=2)):
                    assert {_at(t, (a, b), w) for w in words} == {t[a][b]}, (t, name)
