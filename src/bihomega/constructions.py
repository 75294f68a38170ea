"""Checked transforms between algebra instances.

Every construction is a `Recipe` in `RECIPES`, its products written in the
checkers' term forms. One runner runs them all in a fixed order: the
operands' shapes, the requirements, the pre-checks, the products, the
post-checks (both checks skipped with unchecked=True), then the
provenance."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace
from functools import reduce
from itertools import combinations, product

from .checkers import (COMMUTATIVE_OMEGA_KINDS, Mul, R, Sum, X, Y, _Cells,
                       check_instance, check_morphism, check_rota_baxter,
                       minus, on, p, plus, q, rota_baxter_product, term_reads)
from .core import (ASSOCIATIVE_KINDS, AlgebraInstance, AlgebraKind as K,
                   BilinearFamily, LinearFamily, Provenance, RotaBaxterFamily,
                   new_instance)
from .errors import (KindMismatch, MorphismCheckFailed, NonCommutativeOmega,
                     NonCommutingFamilies, NonzeroWeight,
                     PostconditionCheckFailed, PreconditionCheckFailed,
                     ShapeMismatch)
from .semigroup import is_commutative_table, validate_semigroup

_POST = (("instance", "output fails its {kind} checker"),)

Recipe = namedtuple("Recipe", "kinds products operands requires maps post",
                    defaults=((), (), ("p", "q"), _POST))
Recipe.__doc__ = """One construction: `kinds` maps input to output kind;
`products` maps each output slot to a term in X, Y over the maps p, q,
P = p^-1, Q = q^-1, R (the operator family, weight "lam") and s, t (p2,
q2); `operands` is (), ("rb",) or ("p2", "q2"); `requires` draws from
"weight0", "commuting"; `maps` spells the output's p and q ("ps" is p o s);
`post` lists (checker, message) pairs, the checker "instance" or "rb".  The
products add a commutative Omega (a monomial at a word other than (X, Y),
or an output kind needing one and an input kind not) and inverses (a read
of P or Q); the order is commutative, weight0, inverses, commuting."""


def _to(out: K, *kinds: K) -> dict:
    return dict.fromkeys(kinds, out)


def _flip(m: str) -> Mul:
    # (p^-1 q (y)) m (p q^-1 (x)), at index b*a
    return Mul(m, on("P")(q(Y)), p(on("Q")(X)))


RECIPES: dict[str, Recipe] = {
    "yau_twist": Recipe(
        {k: k for k in K} | _to(K.BIHOM_ASSOCIATIVE, *ASSOCIATIVE_KINDS),
        {m: Mul(m, on("s")(X), on("t")(Y)) for k in K for m in k.product_slots},
        ("p2", "q2"), ("commuting",), ("ps", "qt")),
    "rb_star_associative": Recipe(
        {k: k for k in ASSOCIATIVE_KINDS}, {"mul": rota_baxter_product("mul")},
        ("rb",), post=(("instance", "output not associative"),
                       ("rb", "operator family lost on the output"))),
    "dendriform_total": Recipe(
        _to(K.BIHOM_ASSOCIATIVE, K.DENDRIFORM),
        {"mul": plus(Mul("prec", X, Y), Mul("succ", X, Y))}),
    "rb_split_dendriform": Recipe(
        _to(K.DENDRIFORM, *ASSOCIATIVE_KINDS),
        {"prec": Sum(((1, Mul("mul", X, R(Y))), ("lam", Mul("mul", X, Y)))),
         "succ": Mul("mul", R(X), Y)}, ("rb",)),
    "dendriform_to_prelie": Recipe(
        _to(K.PRELIE, K.DENDRIFORM),
        {"triangle": minus(Mul("succ", X, Y), _flip("prec"))}),
    "assoc_as_prelie": Recipe(
        _to(K.PRELIE, *ASSOCIATIVE_KINDS), {"triangle": Mul("mul", X, Y)}),
    "prelie_to_lie": Recipe(
        _to(K.LIE, K.PRELIE),
        {"bracket": minus(Mul("triangle", X, Y), _flip("triangle"))}),
    "assoc_to_lie": Recipe(
        _to(K.LIE, *ASSOCIATIVE_KINDS),
        {"bracket": minus(Mul("mul", X, Y), _flip("mul"))}),
    "rb_bracket_lie": Recipe(
        _to(K.LIE, K.LIE), {"bracket": rota_baxter_product("bracket")}, ("rb",)),
    "rb_lie_to_prelie": Recipe(
        _to(K.PRELIE, K.LIE), {"triangle": Mul("bracket", R(X), Y)}, ("rb",),
        ("weight0",)),
    "postlie_to_lie": Recipe(
        _to(K.LIE, K.POSTLIE),
        {"bracket": Sum(((1, Mul("triangle", X, Y)), (-1, _flip("triangle")),
                         (1, Mul("bracket", X, Y))))}),
    "lie_rb_to_postlie": Recipe(
        _to(K.POSTLIE, K.LIE),
        {"bracket": Sum((("lam", Mul("bracket", X, Y)),)),
         "triangle": Mul("bracket", R(X), Y)}, ("rb",)),
}


def _product(cells: _Cells, term) -> BilinearFamily:
    """The family whose e_i *_{a,b} e_j is `term` at X = e_i, Y = e_j,
    stored from the term's int vectors over den ** degree; only the
    blocks where the bound term is not zero are evaluated."""
    (degree, bind), d = cells.bind(term, 2), cells.dim
    entries = {}
    for a, b in product(cells.omega.indices(), repeat=2):
        fn = bind((a, b))[1]
        if fn is not None:
            for i, j in product(range(d), repeat=2):
                entries[a, b, i, j] = fn((i, j))
    return BilinearFamily.from_ints(cells.omega, d, entries, cells.den ** degree)


def _gate(error: type, message: str, report):
    if not report.passed:
        raise error(message, report)


def _run(name: str, a: AlgebraInstance, operands: tuple,
         unchecked: bool) -> AlgebraInstance:
    recipe = RECIPES[name]
    ops = dict(zip(recipe.operands, operands))
    rb = ops.get("rb")
    if a.kind not in recipe.kinds:
        wanted = ", ".join(k.value for k in recipe.kinds)
        raise KindMismatch(f"{name} expects kind in {{{wanted}}}, "
                           f"got {a.kind.value}")
    for op, operand in ops.items():
        fam = operand.maps if op == "rb" else operand
        if fam.omega != a.omega or fam.dim != a.dim:
            raise ShapeMismatch(f"{name}: {op} does not match the input's "
                                "semigroup and dim")
    kind, gated = recipe.kinds[a.kind], COMMUTATIVE_OMEGA_KINDS
    words, reads = term_reads(plus(*recipe.products.values()))
    if (words - {(X.pos, Y.pos)} or kind in gated and a.kind not in gated) \
            and not is_commutative_table(a.omega):
        raise NonCommutativeOmega(f"{name} requires a commutative index semigroup")
    if "weight0" in recipe.requires and rb.weight != 0:
        raise NonzeroWeight(f"{name} needs weight 0, got {rb.weight}")
    maps = {"R": rb.maps} if rb is not None else dict(zip("st", operands))
    if reads & {"P", "Q"}:
        maps.update(P=a.p.inverse(), Q=a.q.inverse())
    if "commuting" in recipe.requires:
        families = (("p", a.p), ("q", a.q)) + tuple(ops.items())
        for (n1, f1), (n2, f2) in combinations(families, 2):
            ok, bad = f1.commutes_with(f2)
            if not ok:
                raise NonCommutingFamilies((n1, n2), tuple(
                    a.omega.elements[i] for i in bad))

    if not unchecked:
        _gate(PreconditionCheckFailed, f"{name}: index semigroup fails its "
              "checker", validate_semigroup(a.omega))
        _gate(PreconditionCheckFailed,
              f"{name}: input fails its {a.kind.value} checker", check_instance(a))
        for op, operand in ops.items():
            if op == "rb":
                _gate(PreconditionCheckFailed, f"{name}: operator family fails "
                      f"the weight-{rb.weight} identity", check_rota_baxter(a, rb))
            else:
                _gate(MorphismCheckFailed, f"{name}: {op} is not a morphism "
                      "of the input", check_morphism(operand, a, a))

    cells = _Cells(a, maps, weight=rb.weight if rb is not None else 0)
    families = {"p": a.p, "q": a.q, **maps}
    p, q = (reduce(LinearFamily.compose, map(families.get, word))
            for word in recipe.maps)
    out = new_instance(kind, a.omega, tuple(
        (slot, _product(cells, recipe.products[slot]))
        for slot in kind.product_slots), p, q)

    if not unchecked:
        for checker, message in recipe.post:
            report = (check_instance(out) if checker == "instance"
                      else check_rota_baxter(out, rb))
            _gate(PostconditionCheckFailed,
                  f"{name}: " + message.format(kind=kind.value), report)
    params = (("weight", str(rb.weight)),) if rb is not None else ()
    return replace(out, provenance=Provenance(name, params, (a.digest(),)))


def _construction(name: str, doc: str):
    """The public function that runs RECIPES[name] on its operands."""
    operands = RECIPES[name].operands
    if operands == ("p2", "q2"):
        def construction(a: AlgebraInstance, p2: LinearFamily, q2: LinearFamily,
                         unchecked: bool = False) -> AlgebraInstance:
            return _run(name, a, (p2, q2), unchecked)
    elif operands == ("rb",):
        def construction(a: AlgebraInstance, rb: RotaBaxterFamily,
                         unchecked: bool = False) -> AlgebraInstance:
            return _run(name, a, (rb,), unchecked)
    else:
        def construction(a: AlgebraInstance,
                         unchecked: bool = False) -> AlgebraInstance:
            return _run(name, a, (), unchecked)
    construction.__name__ = construction.__qualname__ = name
    construction.__doc__ = doc
    return construction


yau_twist = _construction(
    "yau_twist", "x *' y = p2(x) * q2(y) on every product, with maps p o p2 "
    "and q o q2; p, q, p2 and q2 must commute pairwise.")
rb_star_associative = _construction(
    "rb_star_associative", "x * y = x.R(y) + R(x).y + lam x.y; the operator "
    "family remains one of the same weight on the output.")
dendriform_total = _construction(
    "dendriform_total", "Sum both halves into one associative product.")
rb_split_dendriform = _construction(
    "rb_split_dendriform", "x < y = x.R(y) + lam x.y and x > y = R(x).y.")
dendriform_to_prelie = _construction(
    "dendriform_to_prelie",
    "x |> y = x > y - (p^-1 q (y)) < (p q^-1 (x)), needs bijective maps.")
assoc_as_prelie = _construction(
    "assoc_as_prelie",
    "Re-tag an associative product as a pre-Lie product (same products).")
prelie_to_lie = _construction(
    "prelie_to_lie", "{x,y} = x |> y - (p^-1 q (y)) |> (p q^-1 (x)).")
assoc_to_lie = _construction(
    "assoc_to_lie", "{x,y} = x.y - (p^-1 q (y)).(p q^-1 (x)).")
rb_bracket_lie = _construction(
    "rb_bracket_lie", "<x,y> = {R(x),y} + {x,R(y)} + lam {x,y} on a Lie instance.")
rb_lie_to_prelie = _construction(
    "rb_lie_to_prelie", "x |> y = {R(x), y}; defined for weight 0 only.")
postlie_to_lie = _construction(
    "postlie_to_lie", "<x,y> = x|>y - (p^-1 q (y)) |> (p q^-1 (x)) + {x,y}.")
lie_rb_to_postlie = _construction(
    "lie_rb_to_postlie", "Bracket lam {x,y} together with x |> y = {R(x), y}.")

CONSTRUCTIONS = {name: globals()[name] for name in RECIPES}
