"""Cell counts per axiom and lexicographic ranks of search candidates.

A checker decides an axiom by comparing both sides on every (index
tuple, basis tuple) cell, so the work one axiom stands for follows from
its arity alone: n**k * d**k cells for an identity in k arguments, over
an index semigroup of order n and dimension d.  The table is keyed by the
exact axiom names the checkers emit, so that a renamed or new axiom is
caught by the benchmark's own test instead of being miscounted.
"""

from __future__ import annotations

TERNARY, BINARY, UNARY = 3, 2, 1

_SLOTS = ("mul", "prec", "succ", "triangle", "bracket", "star")

# multiplicativity of p and q over one product, under the prefix the
# checker gives the product's slot when a kind has more than one
_MULT_PREFIXES = ("", "prec-", "succ-", "triangle-", "bracket-", "star-")

AXIOM_ARITY: dict[str, int] = {}
for _prefix in _MULT_PREFIXES:
    AXIOM_ARITY[_prefix + "p-multiplicativity"] = BINARY
    AXIOM_ARITY[_prefix + "q-multiplicativity"] = BINARY
AXIOM_ARITY.update({
    "bihom-associativity": TERNARY,
    "dendriform-left": TERNARY,
    "dendriform-middle": TERNARY,
    "dendriform-right": TERNARY,
    "prelie-identity": TERNARY,
    "triangle-prelie-identity": TERNARY,
    "skew-symmetry": BINARY,
    "bracket-skew-symmetry": BINARY,
    "jacobi": TERNARY,
    "bracket-jacobi": TERNARY,
    "postlie-first-identity": TERNARY,
    "postlie-second-identity": TERNARY,
    "zinbiel-identity": TERNARY,
    "star-zinbiel-identity": TERNARY,
    "prepoisson-first-identity": TERNARY,
    "prepoisson-second-identity": TERNARY,
    "rb-commutes-p": UNARY,
    "rb-commutes-q": UNARY,
    "intertwine-p": UNARY,
    "intertwine-q": UNARY,
})
for _slot in _SLOTS:
    # binary despite the name: m(R x, R y) = R(...) on index pairs (a, b)
    AXIOM_ARITY["rb-identity-" + _slot] = BINARY
    AXIOM_ARITY["morphism-" + _slot] = BINARY


def axiom_cells(axiom: str, n: int, d: int) -> int:
    """Cells one axiom evaluates over an order-n semigroup in dimension d.

    Raises KeyError for an axiom name the table does not know.
    """
    k = AXIOM_ARITY[axiom]
    return (n * d) ** k


def report_cells(report, n: int, d: int) -> int:
    """Cells behind every axiom of one CheckReport."""
    return sum(axiom_cells(r.axiom, n, d) for r in report.results)


def candidate_rank(family, entries) -> int:
    """0-based position of a matrix family in the searches' enumeration.

    Candidates are enumerated as itertools.product(entries, repeat=n*d*d)
    over the flattened matrices, index-major and row-major, so the rank is
    the family read as a number in base len(entries).
    """
    digit = {v: i for i, v in enumerate(entries)}
    rank = 0
    for m in family.maps:
        for v in m.entries:
            rank = rank * len(entries) + digit[v]
    return rank


def candidates_decided(space: int, target_count, hits, entries) -> int:
    """Candidates a search decided: the whole space when it ran to the
    end, else the rank of the hit that stopped it, plus one."""
    if target_count is None or len(hits) < target_count:
        return space
    return candidate_rank(hits[-1], entries) + 1
