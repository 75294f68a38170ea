"""Checked transforms between algebra instances.

Each transform re-checks its preconditions with the relevant checkers,
builds the new structure-constant tensors, and post-checks the output
(skippable with unchecked=True). Outputs carry a provenance record.
"""

from __future__ import annotations

from .checkers import (check_bihom_associative, check_instance, check_morphism,
                       check_rota_baxter)
from .core import (ASSOCIATIVE_KINDS, AlgebraInstance, AlgebraKind,
                   BilinearFamily, LinearFamily, Provenance, RotaBaxterFamily,
                   new_instance)
from .errors import (KindMismatch, MorphismCheckFailed, NonCommutativeOmega,
                     NonCommutingFamilies, NonzeroWeight,
                     PostconditionCheckFailed, PreconditionCheckFailed)
from .linalg import Vector, basis_vector, vec_add, vec_scale, vec_sub
from .semigroup import is_commutative_table


def _require(inst: AlgebraInstance, kinds, construction: str):
    if inst.kind not in kinds:
        wanted = ", ".join(k.value for k in kinds)
        raise KindMismatch(f"{construction} expects kind in {{{wanted}}}, "
                           f"got {inst.kind.value}")


def _precheck(inst: AlgebraInstance, construction: str, unchecked: bool):
    if unchecked:
        return
    report = check_instance(inst)
    if not report.passed:
        raise PreconditionCheckFailed(
            f"{construction}: input fails its {inst.kind.value} checker", report)


def _precheck_rb(inst: AlgebraInstance, rb: RotaBaxterFamily,
                 construction: str, unchecked: bool):
    if unchecked:
        return
    report = check_rota_baxter(inst, rb)
    if not report.passed:
        raise PreconditionCheckFailed(
            f"{construction}: operator family fails the weight-{rb.weight} "
            "identity", report)


def _postcheck(inst: AlgebraInstance, construction: str, unchecked: bool):
    if unchecked:
        return inst
    report = check_instance(inst)
    if not report.passed:
        raise PostconditionCheckFailed(
            f"{construction}: output fails its {inst.kind.value} checker", report)
    return inst


def _require_commutative(inst: AlgebraInstance, construction: str):
    if not is_commutative_table(inst.omega):
        raise NonCommutativeOmega(
            f"{construction} requires a commutative index semigroup")


def _inverse_pair(inst: AlgebraInstance) -> tuple[LinearFamily, LinearFamily]:
    return inst.p.inverse(), inst.q.inverse()


def _provenance(name: str, inputs: tuple[AlgebraInstance, ...],
                params: tuple[tuple[str, str], ...] = ()) -> Provenance:
    return Provenance(name, params, tuple(a.digest() for a in inputs))


def yau_twist(a: AlgebraInstance, p2: LinearFamily, q2: LinearFamily,
              unchecked: bool = False) -> AlgebraInstance:
    """Pre-compose every product with a commuting endomorphism pair.

    New products x *' y = p2(x) * q2(y); new structure maps are the
    compositions p o p2 and q o q2.
    """
    construction = "yau_twist"
    _precheck(a, construction, unchecked)
    if not unchecked:
        for name, fam in (("p2", p2), ("q2", q2)):
            report = check_morphism(fam, a, a)
            if not report.passed:
                raise MorphismCheckFailed(
                    f"{construction}: {name} is not a morphism of the input",
                    report)
    families = (("p", a.p), ("q", a.q), ("p2", p2), ("q2", q2))
    for idx, (n1, f1) in enumerate(families):
        for n2, f2 in families[idx + 1:]:
            ok, bad = f1.commutes_with(f2)
            if not ok:
                raise NonCommutingFamilies((n1, n2), a.omega.elements[bad])

    def twist(fam: BilinearFamily) -> BilinearFamily:
        return BilinearFamily.from_function(
            a.omega, a.dim,
            lambda al, be, i, j: fam.apply(
                al, be,
                p2.apply(al, basis_vector(a.dim, i)),
                q2.apply(be, basis_vector(a.dim, j))))

    kind = (AlgebraKind.BIHOM_ASSOCIATIVE if a.kind in ASSOCIATIVE_KINDS
            else a.kind)
    products = tuple((name, twist(fam)) for name, fam in a.products)
    out = new_instance(kind, a.omega, products,
                       a.p.compose(p2), a.q.compose(q2),
                       _provenance(construction, (a,)))
    return _postcheck(out, construction, unchecked)


def rb_star_associative(a: AlgebraInstance, rb: RotaBaxterFamily,
                        unchecked: bool = False) -> AlgebraInstance:
    """x * y = x.R(y) + R(x).y + lam x.y; the operator family remains
    one of the same weight on the output."""
    construction = "rb_star_associative"
    _require(a, ASSOCIATIVE_KINDS, construction)
    _precheck(a, construction, unchecked)
    _precheck_rb(a, rb, construction, unchecked)
    mul = a.product("mul")
    lam = rb.weight

    def star(al, be, i, j) -> Vector:
        e_i = basis_vector(a.dim, i)
        e_j = basis_vector(a.dim, j)
        out = mul.apply(al, be, e_i, rb.maps.apply(be, e_j))
        out = vec_add(out, mul.apply(al, be, rb.maps.apply(al, e_i), e_j))
        return vec_add(out, vec_scale(lam, mul.basis_product(al, be, i, j)))

    out = new_instance(
        a.kind, a.omega,
        (("mul", BilinearFamily.from_function(a.omega, a.dim, star)),),
        a.p, a.q,
        _provenance(construction, (a,), (("weight", str(lam)),)))
    if not unchecked:
        report = check_bihom_associative(out)
        if not report.passed:
            raise PostconditionCheckFailed(
                f"{construction}: output not associative", report)
        report = check_rota_baxter(out, rb)
        if not report.passed:
            raise PostconditionCheckFailed(
                f"{construction}: operator family lost on the output", report)
    return out


def dendriform_total(a: AlgebraInstance,
                     unchecked: bool = False) -> AlgebraInstance:
    """Sum both halves into one associative product."""
    construction = "dendriform_total"
    _require(a, (AlgebraKind.DENDRIFORM,), construction)
    _precheck(a, construction, unchecked)
    total = a.product("prec").add(a.product("succ"))
    out = new_instance(AlgebraKind.BIHOM_ASSOCIATIVE, a.omega,
                       (("mul", total),), a.p, a.q,
                       _provenance(construction, (a,)))
    return _postcheck(out, construction, unchecked)


def rb_split_dendriform(a: AlgebraInstance, rb: RotaBaxterFamily,
                        unchecked: bool = False) -> AlgebraInstance:
    """Split an associative product along an operator family:
    x < y = x.R(y) + lam x.y and x > y = R(x).y."""
    construction = "rb_split_dendriform"
    _require(a, ASSOCIATIVE_KINDS, construction)
    _precheck(a, construction, unchecked)
    _precheck_rb(a, rb, construction, unchecked)
    mul = a.product("mul")
    lam = rb.weight

    def prec(al, be, i, j) -> Vector:
        e_i = basis_vector(a.dim, i)
        e_j = basis_vector(a.dim, j)
        out = mul.apply(al, be, e_i, rb.maps.apply(be, e_j))
        return vec_add(out, vec_scale(lam, mul.basis_product(al, be, i, j)))

    def succ(al, be, i, j) -> Vector:
        e_i = basis_vector(a.dim, i)
        e_j = basis_vector(a.dim, j)
        return mul.apply(al, be, rb.maps.apply(al, e_i), e_j)

    out = new_instance(
        AlgebraKind.DENDRIFORM, a.omega,
        (("prec", BilinearFamily.from_function(a.omega, a.dim, prec)),
         ("succ", BilinearFamily.from_function(a.omega, a.dim, succ))),
        a.p, a.q,
        _provenance(construction, (a,), (("weight", str(lam)),)))
    return _postcheck(out, construction, unchecked)


def _twisted_flip(inst: AlgebraInstance, fam: BilinearFamily,
                  p_inv: LinearFamily, q_inv: LinearFamily,
                  al: int, be: int, i: int, j: int) -> Vector:
    # (p_b^-1 q_b (y)) op_{b,a} (p_a q_a^-1 (x)); q applied first, then
    # p^-1, exactly as the formula is written
    d = inst.dim
    y_t = p_inv.apply(be, inst.q.apply(be, basis_vector(d, j)))
    x_t = inst.p.apply(al, q_inv.apply(al, basis_vector(d, i)))
    return fam.apply(be, al, y_t, x_t)


def dendriform_to_prelie(a: AlgebraInstance,
                         unchecked: bool = False) -> AlgebraInstance:
    """x |> y = x > y - (p^-1 q (y)) < (p q^-1 (x)), needs bijective maps."""
    construction = "dendriform_to_prelie"
    _require(a, (AlgebraKind.DENDRIFORM,), construction)
    _require_commutative(a, construction)
    p_inv, q_inv = _inverse_pair(a)
    _precheck(a, construction, unchecked)
    prec = a.product("prec")
    succ = a.product("succ")

    def tri(al, be, i, j) -> Vector:
        return vec_sub(succ.basis_product(al, be, i, j),
                       _twisted_flip(a, prec, p_inv, q_inv, al, be, i, j))

    out = new_instance(
        AlgebraKind.PRELIE, a.omega,
        (("triangle", BilinearFamily.from_function(a.omega, a.dim, tri)),),
        a.p, a.q,
        _provenance(construction, (a,)))
    return _postcheck(out, construction, unchecked)


def assoc_as_prelie(a: AlgebraInstance,
                    unchecked: bool = False) -> AlgebraInstance:
    """Re-tag an associative product as a pre-Lie product (same tensor)."""
    construction = "assoc_as_prelie"
    _require(a, ASSOCIATIVE_KINDS, construction)
    _require_commutative(a, construction)
    _precheck(a, construction, unchecked)
    out = new_instance(AlgebraKind.PRELIE, a.omega,
                       (("triangle", a.product("mul")),), a.p, a.q,
                       _provenance(construction, (a,)))
    return _postcheck(out, construction, unchecked)


def _commutator_instance(a: AlgebraInstance, slot: str, construction: str,
                         extra: BilinearFamily | None = None) -> AlgebraInstance:
    """{x,y} = x.y - (p^-1 q (y)).(p q^-1 (x)) [+ extra bracket term]."""
    p_inv, q_inv = _inverse_pair(a)
    fam = a.product(slot)

    def bracket(al, be, i, j) -> Vector:
        out = vec_sub(fam.basis_product(al, be, i, j),
                      _twisted_flip(a, fam, p_inv, q_inv, al, be, i, j))
        if extra is not None:
            out = vec_add(out, extra.basis_product(al, be, i, j))
        return out

    return new_instance(
        AlgebraKind.LIE, a.omega,
        (("bracket", BilinearFamily.from_function(a.omega, a.dim, bracket)),),
        a.p, a.q,
        _provenance(construction, (a,)))


def prelie_to_lie(a: AlgebraInstance,
                  unchecked: bool = False) -> AlgebraInstance:
    construction = "prelie_to_lie"
    _require(a, (AlgebraKind.PRELIE,), construction)
    _require_commutative(a, construction)
    _precheck(a, construction, unchecked)
    out = _commutator_instance(a, "triangle", construction)
    return _postcheck(out, construction, unchecked)


def assoc_to_lie(a: AlgebraInstance,
                 unchecked: bool = False) -> AlgebraInstance:
    construction = "assoc_to_lie"
    _require(a, ASSOCIATIVE_KINDS, construction)
    _require_commutative(a, construction)
    _precheck(a, construction, unchecked)
    out = _commutator_instance(a, "mul", construction)
    return _postcheck(out, construction, unchecked)


def rb_bracket_lie(a: AlgebraInstance, rb: RotaBaxterFamily,
                   unchecked: bool = False) -> AlgebraInstance:
    """<x,y> = {R(x),y} + {x,R(y)} + lam {x,y} on a Lie instance."""
    construction = "rb_bracket_lie"
    _require(a, (AlgebraKind.LIE,), construction)
    _precheck(a, construction, unchecked)
    _precheck_rb(a, rb, construction, unchecked)
    br = a.product("bracket")
    lam = rb.weight

    def bracket(al, be, i, j) -> Vector:
        e_i = basis_vector(a.dim, i)
        e_j = basis_vector(a.dim, j)
        out = br.apply(al, be, rb.maps.apply(al, e_i), e_j)
        out = vec_add(out, br.apply(al, be, e_i, rb.maps.apply(be, e_j)))
        return vec_add(out, vec_scale(lam, br.basis_product(al, be, i, j)))

    out = new_instance(
        AlgebraKind.LIE, a.omega,
        (("bracket", BilinearFamily.from_function(a.omega, a.dim, bracket)),),
        a.p, a.q,
        _provenance(construction, (a,), (("weight", str(lam)),)))
    return _postcheck(out, construction, unchecked)


def _rb_triangle(a: AlgebraInstance, rb: RotaBaxterFamily) -> BilinearFamily:
    br = a.product("bracket")
    return BilinearFamily.from_function(
        a.omega, a.dim,
        lambda al, be, i, j: br.apply(
            al, be, rb.maps.apply(al, basis_vector(a.dim, i)),
            basis_vector(a.dim, j)))


def rb_lie_to_prelie(a: AlgebraInstance, rb: RotaBaxterFamily,
                     unchecked: bool = False) -> AlgebraInstance:
    """x |> y = {R(x), y}; defined for weight 0 only."""
    construction = "rb_lie_to_prelie"
    _require(a, (AlgebraKind.LIE,), construction)
    if rb.weight != 0:
        raise NonzeroWeight(f"{construction} needs weight 0, got {rb.weight}")
    _precheck(a, construction, unchecked)
    _precheck_rb(a, rb, construction, unchecked)
    out = new_instance(AlgebraKind.PRELIE, a.omega,
                       (("triangle", _rb_triangle(a, rb)),), a.p, a.q,
                       _provenance(construction, (a,)))
    return _postcheck(out, construction, unchecked)


def postlie_to_lie(a: AlgebraInstance,
                   unchecked: bool = False) -> AlgebraInstance:
    """<x,y> = x|>y - (p^-1 q (y)) |> (p q^-1 (x)) + {x,y}."""
    construction = "postlie_to_lie"
    _require(a, (AlgebraKind.POSTLIE,), construction)
    _require_commutative(a, construction)
    _precheck(a, construction, unchecked)
    out = _commutator_instance(a, "triangle", construction,
                               extra=a.product("bracket"))
    return _postcheck(out, construction, unchecked)


def lie_rb_to_postlie(a: AlgebraInstance, rb: RotaBaxterFamily,
                      unchecked: bool = False) -> AlgebraInstance:
    """Bracket lam {x,y} together with x |> y = {R(x), y}."""
    construction = "lie_rb_to_postlie"
    _require(a, (AlgebraKind.LIE,), construction)
    _precheck(a, construction, unchecked)
    _precheck_rb(a, rb, construction, unchecked)
    bracket = a.product("bracket").scale(rb.weight)
    out = new_instance(
        AlgebraKind.POSTLIE, a.omega,
        (("bracket", bracket), ("triangle", _rb_triangle(a, rb))),
        a.p, a.q,
        _provenance(construction, (a,), (("weight", str(rb.weight)),)))
    return _postcheck(out, construction, unchecked)


CONSTRUCTIONS = {
    "yau_twist": yau_twist,
    "rb_star_associative": rb_star_associative,
    "dendriform_total": dendriform_total,
    "rb_split_dendriform": rb_split_dendriform,
    "dendriform_to_prelie": dendriform_to_prelie,
    "assoc_as_prelie": assoc_as_prelie,
    "prelie_to_lie": prelie_to_lie,
    "assoc_to_lie": assoc_to_lie,
    "rb_bracket_lie": rb_bracket_lie,
    "rb_lie_to_prelie": rb_lie_to_prelie,
    "postlie_to_lie": postlie_to_lie,
    "lie_rb_to_postlie": lie_rb_to_postlie,
}
