import pytest

from bihomega.core import AlgebraKind
from bihomega.dsl import (HEADER, Workspace, parse_workspace,
                          serialize_workspace, workspace_for_instance)
from bihomega.errors import ParseError, ResolutionError
from bihomega.forge import constant_product_instance, zero_instance
from bihomega.semigroup import cyclic_group, trivial_semigroup
from conftest import LIE_2D, full_corpus, two_dim_instance

TRIVIAL = trivial_semigroup()
C2 = cyclic_group(2)

GOLDEN_TWO_DIM = """# bihomega workspace

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

algebra two_dim : bihom_associative over W dim 2 {
  product mul {
    (g0,g0): e1*e1 = 1 e1;
    (g0,g0): e1*e2 = 1 e1;
    (g0,g0): e2*e1 = 1 e2;
    (g0,g0): e2*e2 = 1 e2;
    (g0,g1): e1*e1 = 1 e1;
    (g0,g1): e1*e2 = 1 e1;
    (g0,g1): e2*e1 = 1 e2;
    (g0,g1): e2*e2 = 1 e2;
    (g1,g0): e1*e1 = 1 e1;
    (g1,g0): e1*e2 = 1 e1;
    (g1,g0): e2*e1 = 1 e2;
    (g1,g0): e2*e2 = 1 e2;
    (g1,g1): e1*e1 = 1 e1;
    (g1,g1): e1*e2 = 1 e1;
    (g1,g1): e2*e1 = 1 e2;
    (g1,g1): e2*e2 = 1 e2;
  }
  map p {
    g0: [[1, 0], [0, 1]];
    g1: [[1, 0], [0, 1]];
  }
  map q {
    g0: [[1, 0], [0, 1]];
    g1: [[1, 0], [0, 1]];
  }
}
"""


def test_golden_two_dim_serialization():
    ws = workspace_for_instance("two_dim", "W", two_dim_instance(C2))
    assert serialize_workspace(ws) == GOLDEN_TWO_DIM


def test_golden_two_dim_round_trip():
    ws = parse_workspace(GOLDEN_TWO_DIM)
    assert ws.algebras["two_dim"] == two_dim_instance(C2)
    assert ws.semigroups["W"] == C2


def test_round_trip_full_corpus():
    for idx, (name, inst) in enumerate(full_corpus()):
        ws = workspace_for_instance(f"a{idx}", "W", inst)
        text = serialize_workspace(ws)
        back = parse_workspace(text)
        assert back.algebras[f"a{idx}"] == inst, name


def test_serialization_idempotent():
    ws = workspace_for_instance("x", "W", two_dim_instance(C2))
    text = serialize_workspace(ws)
    assert serialize_workspace(parse_workspace(text)) == text
    assert text.startswith(HEADER + "\n")


def test_empty_input_gives_empty_workspace():
    ws = parse_workspace("")
    assert ws == Workspace()
    ws = parse_workspace("# only a comment\n\n")
    assert ws == Workspace()


def test_rationals_and_sums_parse():
    text = """
semigroup T { elements t; table { t*t = t; } commutative; }
algebra a : lie over T dim 2 {
  product bracket {
    (t,t): e1*e2 = -1/2 e1 + 1 e2;
    (t,t): e2*e1 = 1/2 e1 + -1 e2;
  }
}
"""
    ws = parse_workspace(text)
    from fractions import Fraction
    br = ws.algebras["a"].product("bracket")
    assert br.basis_product(0, 0, 0, 1) == (Fraction(-1, 2), Fraction(1))
    assert br.basis_product(0, 0, 1, 1) == (Fraction(0), Fraction(0))


def test_bare_basis_term_has_unit_coefficient():
    text = """
semigroup T { elements t; table { t*t = t; } }
algebra a : bihom_associative over T dim 2 {
  product mul { (t,t): e1*e1 = e2; }
}
"""
    mul = parse_workspace(text).algebras["a"].product("mul")
    assert mul.basis_product(0, 0, 0, 0) == (0, 1)


def test_missing_map_blocks_default_to_identity():
    text = """
semigroup T { elements t; table { t*t = t; } }
algebra a : prelie over T dim 3 { product triangle { } }
"""
    inst = parse_workspace(text).algebras["a"]
    assert inst.p.is_identity() and inst.q.is_identity()
    assert inst.dim == 3


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_workspace("semigroup W [")
    assert err.value.line == 1
    assert err.value.column == 13
    assert "'{'" in str(err.value)


def test_parse_error_bad_character():
    with pytest.raises(ParseError) as err:
        parse_workspace("semigroup W@ {}")
    assert (err.value.line, err.value.column) == (1, 12)


def test_parse_error_truncated_input():
    with pytest.raises(ParseError) as err:
        parse_workspace("semigroup W {\n  elements a;\n  table {")
    assert err.value.found == "end of input"


def test_dangling_semigroup_name():
    with pytest.raises(ResolutionError):
        parse_workspace("algebra a : lie over W dim 2 { }")


def test_unknown_kind_rejected():
    text = "semigroup T { elements t; table { t*t = t; } }\n" \
           "algebra a : banana over T dim 1 { }"
    with pytest.raises(ResolutionError):
        parse_workspace(text)


def test_incomplete_table_rejected():
    text = "semigroup W { elements a b; table { a*a = a; } }"
    with pytest.raises(ResolutionError) as err:
        parse_workspace(text)
    assert "a*b" in str(err.value)


def test_basis_index_out_of_range():
    text = """
semigroup T { elements t; table { t*t = t; } }
algebra a : bihom_associative over T dim 2 {
  product mul { (t,t): e1*e3 = 1 e1; }
}
"""
    with pytest.raises(ResolutionError):
        parse_workspace(text)


def test_dim_zero_rejected_in_every_block():
    # a dim 0 block would serialize to text the parser cannot read back
    sg = "semigroup T { elements t; table { t*t = t; } }\n"
    for block in ("algebra a : lie over T dim 0 { }",
                  "maps f over T dim 0 { t: []; }",
                  "rota_baxter r over T dim 0 weight 0 { t: []; }"):
        with pytest.raises(ResolutionError, match="must have dim at least 1"):
            parse_workspace(sg + block)


def test_duplicate_names_rejected():
    sg = "semigroup T { elements t; table { t*t = t; } }\n"
    with pytest.raises(ResolutionError):
        parse_workspace(sg + sg)


def test_rb_and_maps_blocks_round_trip():
    text = """# bihomega workspace

semigroup T {
  elements t;
  table {
    t*t = t;
  }
}

maps f over T dim 2 {
  t: [[0, 1], [1, 0]];
}

rota_baxter r over T dim 2 weight -1/2 {
  t: [[0, 0], [0, -1]];
}
"""
    ws = parse_workspace(text)
    from fractions import Fraction
    assert ws.rota_baxter["r"].weight == Fraction(-1, 2)
    assert serialize_workspace(ws) == text


def test_lie_corpus_instances_survive_round_trip():
    inst = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    ws = workspace_for_instance("lie", "W", inst)
    back = parse_workspace(serialize_workspace(ws))
    assert back.algebras["lie"] == inst
