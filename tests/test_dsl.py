import re
import sys
import time
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bihomega import dsl
from bihomega.core import (AlgebraKind, BilinearFamily, LinearFamily,
                           RotaBaxterFamily, new_instance)
from bihomega.dsl import (HEADER, Workspace, parse_workspace,
                          serialize_workspace, workspace_for_instance)
from bihomega.errors import ParseError, ResolutionError
from bihomega.forge import constant_product_instance, zero_instance
from bihomega.linalg import Matrix
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


def test_a_header_comment_over_several_lines_reads_back():
    ws = workspace_for_instance("x", "W", two_dim_instance(C2))
    text = serialize_workspace(ws, ("a\nb",))
    assert text.startswith(HEADER + "\n# a\n# b\n\n")
    assert parse_workspace(text) == ws


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


_REFERENCE_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}()\[\]:;,*=+\-/]")


def _reference_tokenize(text: str) -> list[tuple[str, int, int]]:
    """The per-line scan the parser must agree with: split at "\n",
    cut each line at "#", skip `str.isspace` characters one at a time."""
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        code = line.split("#", 1)[0]
        pos = 0
        while pos < len(code):
            ch = code[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _REFERENCE_TOKEN_RE.match(code, pos)
            if not m:
                raise ParseError(lineno, pos + 1, "a token", ch)
            tokens.append((m.group(), lineno, pos + 1))
            pos = m.end()
    return tokens


_SG = "semigroup T { elements t; table { t*t = t; } }\n"
_ALG = _SG + "algebra a : bihom_associative over T dim 2 {\n"
_MAPS = _SG + "maps f over T dim 1 { t: [[1]]; }\n"
_RB = _SG + "rota_baxter f over T dim 1 weight 0 { t: [[1]]; }\n"

# (text, line, column, expected, found) for each way a parse can fail
PARSE_ERRORS = [
    ("semigroup W@ {}", 1, 12, "a token", "@"),
    ("# a comment @\n  @", 2, 3, "a token", "@"),
    ("banana", 1, 1, "'semigroup', 'algebra', 'maps' or 'rota_baxter'",
     "banana"),
    ("semigroup {", 1, 11, "a semigroup name", "{"),
    ("semigroup W [", 1, 13, "'{'", "["),
    ("semigroup W { elements ; }", 1, 24, "at least one element label", ";"),
    ("semigroup W { elements a 1; }", 1, 26, "an element label or ';'", "1"),
    ("semigroup W { elements a; table { a*1 = a; } }", 1, 37,
     "an element label", "1"),
    ("semigroup W { elements a; table { a*a = a; } commutative }", 1, 58,
     "';'", "}"),
    ("semigroup W {\n  elements a;\n  table {", 3, 10, "an element label",
     "end of input"),
    (_SG + "algebra 1", 2, 9, "an algebra name", "1"),
    (_SG + "algebra a lie", 2, 11, "':'", "lie"),
    (_SG + "algebra a : 1", 2, 13, "an algebra kind", "1"),
    (_SG + "algebra a : lie over T dim x { }", 2, 28, "an integer", "x"),
    (_ALG + "  product 1 { } }", 3, 11, "a product name", "1"),
    (_ALG + "  product mul { (t,t): e1*e1 = 1/0 e1; } }", 3, 34,
     "a nonzero denominator", "0"),
    (_ALG + "  product mul { (t,t): e1*e1 = 3 ; } }", 3, 34,
     "a basis vector like 'e1'", ";"),
    (_ALG + "  product mul { (t,t): e1*e1 = ; } }", 3, 32, "an integer", ";"),
    (_ALG + "  product mul { (t,t): e1*e1 = -e1; } }", 3, 33, "an integer",
     "e1"),
    (_ALG + "  product mul { (t,t): x*e1 = 1 e1; } }", 3, 24,
     "a basis vector like 'e1'", "x"),
    (_ALG + "  product mul { (t,t): e1*e1 = ", 3, 31, "a term",
     "end of input"),
    (_ALG + "  product mul { (t,t): e1*e1 = 1 e1", 3, 36, "';'",
     "end of input"),
    (_ALG + "  junk }", 3, 3, "'product', 'map' or '}'", "junk"),
    (_ALG + "  map 1 { } }", 3, 7, "'p' or 'q'", "1"),
    (_ALG + "  map r { } }", 3, 7, "'p' or 'q'", "r"),
    (_ALG + "  map p { t: [[1, 0] [0, 1]]; } }", 3, 22, "']'", "["),
    (_SG + "maps 3 over T dim 1 { }", 2, 6, "a family name", "3"),
    (_SG + "maps f T dim 1 { }", 2, 8, "'over'", "T"),
    (_SG + "maps f over T dim 1 { t: [[1/0]]; }", 2, 30,
     "a nonzero denominator", "0"),
    (_SG + "rota_baxter r over T dim 1 { t: [[1]]; }", 2, 28, "'weight'",
     "{"),
    (_SG + "rota_baxter r over T dim 1 weight x { t: [[1]]; }", 2, 35,
     "an integer", "x"),
    (_ALG + "  product mul { (t,t): e1*e1 = " + "1" * 5000 + " e1; } }", 3, 32,
     "an integer of at most 4300 digits", "1" * 5000),
    (_SG + "algebra a : lie over T dim " + "1" * 5000 + " { }", 2, 28,
     "an integer of at most 4300 digits", "1" * 5000),
    (_ALG + "  product mul { (t,t): e1*e1 = 1 e" + "1" * 5000 + "; } }", 3, 34,
     "a basis vector of at most 4300 digits", "e" + "1" * 5000),
]


@pytest.mark.parametrize("text, line, column, expected, found", PARSE_ERRORS)
def test_parse_error_table(text, line, column, expected, found):
    with pytest.raises(ParseError) as err:
        parse_workspace(text)
    assert (err.value.line, err.value.column, err.value.expected,
            err.value.found) == (line, column, expected, found)
    quoted = repr(found) if len(found) <= 64 else (
        f"{found[:64]!r} and {len(found) - 64} more characters")
    assert str(err.value) == f"{line}:{column}: expected {expected}, " \
                             f"found {quoted}"


RESOLUTION_ERRORS = [
    (_SG + _SG, "duplicate semigroup name 'T'"),
    ("semigroup W { elements a a; table { } }",
     "duplicate element label in semigroup 'W'"),
    (_SG + "algebra a : lie over T dim 1 { }\n"
     "algebra a : lie over T dim 1 { }", "duplicate algebra name 'a'"),
    (_ALG + "  product mul { } product mul { } }",
     "duplicate product block 'mul'"),
    (_MAPS + "maps f over T dim 1 { t: [[1]]; }", "duplicate maps name 'f'"),
    (_RB + "rota_baxter f over T dim 1 weight 0 { t: [[1]]; }",
     "duplicate rota_baxter name 'f'"),
    (_SG + "algebra a : lie over T dim 0 { }",
     "algebra 'a' must have dim at least 1"),
    (_SG + "maps f over T dim 0 { t: []; }",
     "maps 'f' must have dim at least 1"),
    (_SG + "rota_baxter r over T dim 0 weight 0 { t: []; }",
     "rota_baxter 'r' must have dim at least 1"),
    (_SG + "maps f over U dim 1 { }", "unknown semigroup 'U'"),
    (_SG + "maps f over T dim 1 { }", "maps 'f': missing matrices for "
     "elements ['t']"),
    (_SG + "rota_baxter r over T dim 1 weight 0 { t: [[1, 0]]; }",
     "matrix must be 1x1"),
    (_ALG + "  product mul { (t,t): e1*e1 = 0 e3; } }",
     "basis vector e3 out of range for dim 2"),
    # an unknown element label names the semigroup it was looked up in
    ("semigroup W { elements a; table { a*b = a; } }",
     "unknown element 'b' of semigroup 'W'"),
    (_ALG + "  product mul { (t,u): e1*e1 = 1 e1; } }",
     "unknown element 'u' of semigroup 'T'"),
    (_ALG + "  map p { u: [[1, 0], [0, 1]]; } }",
     "unknown element 'u' of semigroup 'T'"),
    (_SG + "maps f over T dim 1 { u: [[1]]; }",
     "unknown element 'u' of semigroup 'T'"),
    (_SG + "rota_baxter r over T dim 1 weight 0 { u: [[1]]; }",
     "unknown element 'u' of semigroup 'T'"),
    (_ALG + "  product bracket { } }",
     "kind bihom_associative has no product 'bracket'"),
    (_ALG + "  map p { t: [[1, 1], [0, 1]]; } map q { t: [[1, 0], [1, 1]]; } }",
     "algebra 'a': structure maps p and q do not commute at index 't'"),
]


@pytest.mark.parametrize("text, message", RESOLUTION_ERRORS)
def test_resolution_error_table(text, message):
    with pytest.raises(ResolutionError) as err:
        parse_workspace(text)
    assert str(err.value) == message


def test_maps_and_rota_baxter_names_are_separate():
    ws = parse_workspace(_MAPS + "rota_baxter f over T dim 1 weight 0 "
                         "{ t: [[1]]; }")
    assert set(ws.linear_maps) == set(ws.rota_baxter) == {"f"}


@pytest.mark.parametrize("text, message", [
    ("semigroup W { elements a; table { a*a = a; a*a = a; } }",
     "duplicate table entry a*a in semigroup 'W'"),
    (_ALG + "  product mul { (t,t): e1*e2 = 1 e1; (t,t): e1*e2 = 2 e2; } }",
     "duplicate product entry (t,t): e1*e2 in algebra 'a'"),
    (_SG + "maps f over T dim 1 { t: [[1]]; t: [[5]]; }",
     "maps 'f': duplicate matrix for element 't'"),
    (_ALG + "  map q { t: [[1, 0], [0, 1]]; }\n"
     "  map q { t: [[2, 0], [0, 2]]; } }", "duplicate map block 'q'"),
], ids=["table-entry", "product-entry", "map-element", "map-block"])
def test_repeated_entry_in_a_block_rejected(text, message):
    # each of these used to parse, keeping only the last entry
    with pytest.raises(ResolutionError) as err:
        parse_workspace(text)
    assert str(err.value) == message


# the parser's token texts and their places ------------------------------

_NEVER = re.compile(r"(?!)")


def _plain_tokens():
    """No statement is read whole while this holds: the token rules alone
    read the text, which makes them the oracle for the one-match read."""
    return mock.patch.multiple(dsl, _ENTRY_RE=_NEVER, _MAP_ROW_RE=_NEVER)


def _fail_at(parser, back=False):
    with pytest.raises(ParseError) as err:
        parser._fail("something", back=back)
    return err.value.found, err.value.line, err.value.column


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.sampled_from(
    list("ae19_{}()[]:;,*=+-/ ")
    + ["#", "\n", "\t", "\r", "\x0b", "\x1c", "\xa0", "@", ".", "\u0663"]),
    max_size=40))
@example("a:[[1]];(a,a):e1*e1=1e1;")
@example("(a, a) :e1 *e19= -1/9e1 + 1 e9; \n#\n a_9\t: [[1], [ -9/1 ,1]];a")
@example("e1 (a,a): e1*e1 = 1e1 + 1e1;\n:[[1]]; a: [[1]] ;")
def test_parser_tokens_and_places_match_per_line_reference(text):
    # a stray character raises before any rule runs
    try:
        reference = _reference_tokenize(text)
    except ParseError as expected:
        with pytest.raises(ParseError) as err:
            dsl._Parser(text)
        assert str(err.value) == str(expected)
        return
    # the cursor steps through the reference's tokens, each placed where
    # the reference puts it, then to the end of input: just past the last
    # token, or at 1:1; `back` places at the token before the cursor
    last_text, last_line, last_column = (reference[-1] if reference
                                         else ("", 1, 1))
    tokens = reference + [("end of input", last_line,
                           last_column + len(last_text))]
    parser = dsl._Parser(text)
    for k, place in enumerate(tokens):
        if k < len(reference):
            assert parser.tok == place[0]
        assert _fail_at(parser) == place
        if k:
            assert _fail_at(parser, back=True) == tokens[k - 1]
        if k < len(reference):
            parser._move(parser.at + len(parser.tok))
    assert parser.tok == dsl._END


def _cli_size_workspace() -> tuple[str, Workspace]:
    """Nine algebras over C3 at d=4, every structure constant a nonzero
    rational: about 90 KB of text."""
    rng = Random(4)
    c3 = cyclic_group(3)
    ws = Workspace(semigroups={"W": c3})
    for idx in range(9):
        cube = [[[Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                           rng.randint(1, 99)) for _ in range(4)]
                 for _ in range(4)] for _ in range(4)]
        ws.algebras[f"a{idx}"] = constant_product_instance(
            AlgebraKind.BIHOM_ASSOCIATIVE, c3, {"mul": cube})
        ws.omega_of[("algebra", f"a{idx}")] = "W"
    return serialize_workspace(ws), ws


def test_success_path_never_places_a_token(monkeypatch):
    text, ws = _cli_size_workspace()
    assert len(text) > 80_000

    def place(text, offset):
        raise AssertionError("_place called on the success path")

    monkeypatch.setattr(dsl, "_place", place)
    assert parse_workspace(GOLDEN_TWO_DIM).algebras["two_dim"] == \
        two_dim_instance(C2)
    assert parse_workspace(text) == ws


def test_an_early_error_reads_no_statement():
    # the cursor stops at the first token: no statement regex runs on the
    # text past it
    text, _ = _cli_size_workspace()
    unread = mock.Mock(match=mock.Mock(side_effect=AssertionError))
    outcomes = []
    with mock.patch.multiple(dsl, _ENTRY_RE=unread, _MAP_ROW_RE=unread):
        for t in ("banana", "banana" + text):
            outcomes.append(_outcome(parse_workspace, t))
    assert outcomes[0] == outcomes[1] == (
        ParseError,
        "1:1: expected 'semigroup', 'algebra', 'maps' or 'rota_baxter', "
        "found 'banana'", 1, 1)


def test_stray_character_outranks_an_earlier_error():
    for text, column in (("banana\n@", 1),
                         ("semigroup W { elements a; table { a*b = a; } } @",
                          48)):
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert (err.value.line, err.value.column, err.value.expected,
                err.value.found) == (text.count("\n") + 1, column, "a token",
                                     "@")


def test_repeated_terms_of_a_sum_add_up():
    ws = parse_workspace(_ALG + "  product mul { (t,t): e1*e1 = "
                         "1/2 e1 + 1/2 e1 + -1 e1 + 3 e2; } }")
    cell = ws.algebras["a"].product("mul").basis_product(0, 0, 0, 0)
    assert cell == (0, 3)
    assert all(type(v) is Fraction for v in cell)


# statements read by one match -------------------------------------------

def _statement_workspace() -> Workspace:
    """A dendriform algebra over C2 at d=4 with sparse rational products
    and structure maps, a maps family and a rota_baxter family."""
    rng = Random(19)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.randint(1, 3))

    def matrix():
        return Matrix.from_rows([[rational() if rng.random() < 0.6 else 0
                                  for _ in range(4)] for _ in range(4)])

    products = tuple((slot, BilinearFamily.from_cells(C2, 4, {
        (a, b, i, j): tuple(rational() if rng.random() < 0.5 else 0
                            for _ in range(4))
        for a in range(2) for b in range(2) for i in range(4) for j in range(4)
        if rng.random() < 0.4})) for slot in ("prec", "succ"))
    p = LinearFamily(C2, 4, (matrix(), matrix()))
    ws = Workspace(semigroups={"W": C2})
    ws.algebras["d"] = new_instance(AlgebraKind.DENDRIFORM, C2, products, p, p)
    ws.linear_maps["f"] = LinearFamily(C2, 4, (matrix(), matrix()))
    ws.rota_baxter["r"] = RotaBaxterFamily(
        LinearFamily(C2, 4, (matrix(), matrix())), Fraction(-1, 2))
    for key in (("algebra", "d"), ("maps", "f"), ("rb", "r")):
        ws.omega_of[key] = "W"
    return ws


STATEMENT_WS = _statement_workspace()
STATEMENT_TEXT = serialize_workspace(STATEMENT_WS)
_LINES = STATEMENT_TEXT.split("\n")
_ENTRY_LINES = [k for k, line in enumerate(_LINES) if line.startswith("    (")]
_ROW_LINES = [k for k, line in enumerate(_LINES)
              if re.match(r"\s+g\d: \[\[", line)]
_LONG = "1" * (sys.get_int_max_str_digits() + 1)

# each a way to rewrite one product entry (first) or map row (second)
# that the one-match read does not take
ENTRY_MUTATIONS = {
    "comment": (r"= ", "= # a comment\n      "),
    "bare vector": (r"= [-0-9/]+ e", "= e"),
    "lone zero": (r"= .*;", "= 0;"),
    "repeated vector": (r"= ([-0-9/]+) e(\d+)", r"= \1 e\2 + 2 e\2"),
    "vector past dim": (r" e(\d+);", " e5;"),
    "index past dim": (r"e\d+\*", "e5*"),
    "unknown element": (r"\(g\d,", "(g7,"),
    "zero denominator": (r"= [-0-9/]+ ", "= 1/0 "),
    "long integer": (r"= -?\d+", "= " + _LONG),
    "long vector": (r" e\d+;", f" e{_LONG};"),
    "duplicate": (r"^(.*)$", r"\1\n\1"),
    "map row": (r"\(.*", "g0: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], "
                "[0, 0, 0, 1]];"),
    # spacings the serializer does not write
    "spaced pair": (r"\((g\d),", r"(\1, "),
    "spaced product": (r"(e\d+)\*", r"\1 * "),
    "spaced fraction": (r"= [-0-9/]+ e", "= 3 / 7 e"),
    "spaced sign": (r"= [-0-9/]+ e", "= - 3 e"),
    "newline between terms": (r"= .*;", "= 1 e1\n      + -2/3 e2;"),
}
ROW_MUTATIONS = {
    "comment": (r": \[", ": [ # a comment\n      "),
    "unknown element": (r"g\d:", "g7:"),
    "zero denominator": (r"\[\[[-0-9/]+", "[[1/0"),
    "long integer": (r"\[\[-?\d+", "[[" + _LONG),
    "short row": (r", [-0-9/]+\]", "]"),
    "missing row": (r", \[[^\]]*\]\]", "]"),
    "duplicate": (r"^(.*)$", r"\1\n\1"),
    "product entry": (r"g\d.*", "(g0,g1): e1*e2 = 1 e3;"),
    # spacings the serializer does not write
    "spaced row": (r"\[\[([^\]]*)\]", r"[[ \1 ]"),
    "space before comma": (r"(\d), ", r"\1 ,"),
    "newline between rows": (r"\], \[", "],\n      ["),
}


def _mutated(mutations) -> str:
    """The canonical text with each (line, rewrite) applied in turn."""
    lines = list(_LINES)
    for k, (pattern, repl) in mutations:
        lines[k] = re.sub(pattern, repl, lines[k], count=1)
    return "\n".join(lines)


@st.composite
def mutated_statements(draw) -> str:
    """The canonical text with one to three of its statements rewritten."""
    mutations = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            k, table = draw(st.sampled_from(_ENTRY_LINES)), ENTRY_MUTATIONS
        else:
            k, table = draw(st.sampled_from(_ROW_LINES)), ROW_MUTATIONS
        mutations.append((k, table[draw(st.sampled_from(sorted(table)))]))
    return _mutated(mutations)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ResolutionError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def _token_rules(text):
    with _plain_tokens():
        return parse_workspace(text)


def _agrees_with_token_rules(text):
    assert _outcome(parse_workspace, text) == _outcome(_token_rules, text)


@pytest.mark.parametrize("lines, mutation", [
    *((_ENTRY_LINES, m) for m in ENTRY_MUTATIONS.values()),
    *((_ROW_LINES, m) for m in ROW_MUTATIONS.values())],
    ids=[*(f"entry-{m}" for m in ENTRY_MUTATIONS),
         *(f"row-{m}" for m in ROW_MUTATIONS)])
def test_each_mutation_agrees_with_token_rules(lines, mutation):
    # the first statement of its kind, and the last
    for k in (lines[0], lines[-1]):
        _agrees_with_token_rules(_mutated([(k, mutation)]))


@settings(max_examples=150, deadline=None)
@given(mutated_statements())
def test_statement_read_agrees_with_token_rules(text):
    _agrees_with_token_rules(text)


@pytest.mark.parametrize("statement", [
    "t: [[1, 0]];", "t: [[1, 0], [0, 1], [1, 1]];", "t: [[1, 0], [0]];",
    "u: [[1, 0], [0, 1]];"], ids=["rows", "more-rows", "row-length", "label"])
def test_a_map_row_it_rejects_builds_no_entry(statement):
    # the shape and the label are checked on the matched text first
    read = dsl._MAP_ROW_RE.match
    assert dsl._read_map_row(read("t: [[1, 0], [0, -1/2]];"), {"t": 0}, 2) == (
        0, Matrix.from_rows([[1, 0], [0, Fraction(-1, 2)]]))
    with mock.patch.object(dsl, "Fraction", side_effect=AssertionError):
        assert dsl._read_map_row(read(statement), {"t": 0}, 2) is None


@pytest.mark.parametrize("body", [
    "t: [" + ", ".join(["[1/2]"] * 2000) + "];",
    "t: [[1/2], # a comment sends the row to the token rules\n [-3]];",
    "t: [[1/2, 0]];"], ids=["many-rows", "token-rules", "row-length"])
def test_a_matrix_of_the_wrong_shape_builds_no_value(body):
    # the token rules read every entry as an int pair and check the shape
    # before any Fraction is built
    text = _SG + "maps f over T dim 1 { " + body + " }"
    with pytest.raises(ResolutionError, match=r"matrix must be 1x1"):
        parse_workspace(text)
    with mock.patch.object(dsl, "Fraction", side_effect=AssertionError):
        with pytest.raises(ResolutionError, match=r"matrix must be 1x1"):
            parse_workspace(text)


# Text the statement regex takes as one token where no statement belongs:
# each rule that meets it splits it, so the token rules read it as they
# would read the text with no statement token.
MISPLACED_STATEMENTS = {
    "algebra name": (_SG + "algebra A: [[1]];",
                     "2:12: expected an algebra kind, found '['"),
    "semigroup name": ("semigroup t: [[1]];",
                       "1:12: expected '{', found ':'"),
    "family name": ("maps: [[1]];", "1:5: expected a family name, found ':'"),
    "element label": ("semigroup W { elements a: [[1]]; }",
                      "1:25: expected an element label or ';', found ':'"),
    "product": (_ALG + "  product: [[1]]; }",
                "3:10: expected a product name, found ':'"),
    "map": (_ALG + "  map: [[1]]; }", "3:6: expected 'p' or 'q', found ':'"),
    "commutative in an algebra": (
        _ALG + "  commutative: [[1]]; }",
        "3:3: expected 'product', 'map' or '}', found 'commutative'"),
    "commutative": ("semigroup W { elements a; table { a*a = a; } "
                    "commutative: [[1]]; }",
                    "1:57: expected ';', found ':'"),
    "over": (_SG + "maps f over: [[1]];",
             "2:12: expected a semigroup name, found ':'"),
    "basis index": (_ALG + "  product mul { (t,t): e1: [[1]]; } }",
                    "3:26: expected '*', found ':'"),
    "start of a sum": (_ALG + "  product mul { (t,t): e1*e1 = e1: [[1]]; } }",
                       "3:34: expected ';', found ':'"),
    "zero coefficient": (_ALG + "  product mul { (t,t): e1*e1 = 0/1 e1: [[1]]; } }",
                         "3:38: expected ';', found ':'"),
    "end of a sum": (_ALG + "  product mul { (t,t): e1*e1 = 1 e1: [[1]]; } }",
                     "3:36: expected ';', found ':'"),
    "repeated vector": (_ALG + "  product mul { (t,t): e1*e1 = 1 e1 + 2 e1; } }",
                        None),
}


@pytest.mark.parametrize("text, message", MISPLACED_STATEMENTS.values(),
                         ids=MISPLACED_STATEMENTS)
def test_statement_where_none_belongs_is_read_by_token_rules(text, message):
    outcome = _outcome(parse_workspace, text)
    assert outcome == _outcome(_token_rules, text)
    if message is None:
        assert outcome.algebras["a"].product("mul").basis_product(
            0, 0, 0, 0) == (3, 0)
    else:
        assert outcome[:2] == (ParseError, message)


def test_each_text_is_parsed_once(monkeypatch):
    parse, calls = dsl._Parser.parse, []

    def counted(parser):
        calls.append(parser)
        return parse(parser)

    monkeypatch.setattr(dsl._Parser, "parse", counted)
    # an error the one-match read leaves to the token rules, and a valid
    # repeated vector, which they add up
    for text, outcome in (
            (_mutated([(_ENTRY_LINES[0], ENTRY_MUTATIONS["zero denominator"])]),
             ParseError),
            (_mutated([(_ROW_LINES[-1], ROW_MUTATIONS["short row"])]),
             ResolutionError),
            (MISPLACED_STATEMENTS["repeated vector"][0], Workspace)):
        calls.clear()
        got = _outcome(parse_workspace, text)
        assert (type(got) if isinstance(got, Workspace) else got[0]) is outcome
        assert len(calls) == 1


def test_canonical_statements_skip_the_token_rules(monkeypatch):
    def rule(*args):
        raise AssertionError("a token rule read a canonical statement")

    monkeypatch.setattr(dsl._Parser, "_parse_lincomb", rule)
    monkeypatch.setattr(dsl._Parser, "_parse_matrix", rule)
    assert parse_workspace(STATEMENT_TEXT) == STATEMENT_WS
    text, ws = _cli_size_workspace()
    assert parse_workspace(text) == ws


def _moves(text: str) -> int:
    """The cursor moves a parse of the text makes."""
    move, moves = dsl._Parser._move, []

    def counted(parser, at):
        moves.append(at)
        move(parser, at)

    with mock.patch.object(dsl._Parser, "_move", counted):
        parse_workspace(text)
    return len(moves)


def test_a_run_of_statements_moves_the_cursor_once():
    entries = ["(t,t): e1*e1 = -45/7 e1 + 3 e2;", "(t,t): e1*e2 = 1 e1;",
               "(t,t): e2*e1 = 2/3 e2;", "(t,t): e2*e2 = -1 e1 + 1/9 e2;"]
    counts = {_moves(_ALG + "  product mul {\n    " + "\n    ".join(entries[:n])
                     + "\n  }\n}\n") for n in (1, 2, 4)}
    assert len(counts) == 1
    # a comment ends a run, and the cursor moves past it once more
    commented = "\n    ".join(entries[:2] + ["# c"] + entries[2:])
    assert _moves(_ALG + "  product mul {\n    " + commented + "\n  }\n}\n") == (
        counts.pop() + 1)


def test_respaced_serializer_output_reads_the_same():
    # every statement spaced as the serializer does not write it goes to
    # the token rules, which read the same workspace
    respaced = re.sub(r"([-(),:*=/\[\]+;])", r" \1 ", STATEMENT_TEXT)
    read = dsl._read_entry, dsl._read_map_row
    with mock.patch.multiple(dsl, _read_entry=mock.Mock(side_effect=read[0]),
                             _read_map_row=mock.Mock(side_effect=read[1])):
        assert parse_workspace(respaced) == STATEMENT_WS
        assert not dsl._read_entry.called and not dsl._read_map_row.called


# product bodies with a repeated zero term, a signed zero, or one value
# spelled two ways, in one entry and across entries; the maps read -0 and
# 2/4 beside 0 and 1/2 too
ZEROS_AND_UNREDUCED = {
    "repeated zero": "(t,t): e1*e1 = 0 e1 + 0 e1;",
    "repeated zero across entries": "(t,t): e1*e1 = 0 e1; "
                                    "(t,t): e1*e2 = 0 e2 + 0 e2;",
    "minus zero": "(t,t): e1*e1 = -0 e1 + 0 e2; (t,t): e2*e1 = 0 e1 + -0 e2;",
    "2/4 beside 1/2": "(t,t): e1*e1 = 2/4 e1 + 1/2 e2;",
    "2/4 across entries": "(t,t): e1*e1 = 1/2 e1; "
                          "(t,t): e1*e2 = 2/4 e1 + 1/2 e2;",
}


def _with_product(body: str) -> str:
    return (_ALG + f"  product mul {{ {body} }}\n"
            "  map p { t: [[2/4, 0], [-0, 1/2]]; }\n"
            "  map q { t: [[1/2, -0], [0, 2/4]]; }\n}\n")


@pytest.mark.parametrize("body", ZEROS_AND_UNREDUCED.values(),
                         ids=ZEROS_AND_UNREDUCED)
def test_zeros_and_unreduced_values_agree_with_token_rules(body):
    text = _with_product(body)
    assert isinstance(parse_workspace(text), Workspace)
    _agrees_with_token_rules(text)


def test_a_repeated_zero_term_is_left_to_the_token_rules():
    # a vector read is marked by its nonzero denominator, so a second
    # term of it is seen even where the first read a zero
    read = dsl._ENTRY_RE.match("(t,t): e1*e1 = 0 e1 + 0 e1;")
    assert dsl._read_entry(read, {"t": 0}, 2) is None


_SPACES = " " * 100_000


@pytest.mark.parametrize("statement", [
    "(t,t): e1*e1 = 1" + _SPACES + "x;",
    "(t,t): e1*e1 =" + _SPACES + "x;",
    "(t,t): e1*e1 = -" + _SPACES + "x;",
    "(t,t): e1*e1 = 1/" + _SPACES + "x;",
    "(t,t): e1*e1 = 1 e1" + _SPACES + "x;",
    "(t,t): e1*e1 = 1 e1 +" + _SPACES + "x;",
    "(t" + _SPACES + "x,t): e1*e1 = 1 e1;",
    "(t,t): e1*e1 = -" + _SPACES + "1" + _SPACES + "/" + _SPACES + "2"
    + _SPACES + "e1" + _SPACES + "+" + _SPACES + "1 e2" + _SPACES + ";",
], ids=["coefficient", "equals", "minus", "slash", "vector", "plus",
        "element", "accepted"])
def test_statement_with_long_whitespace_runs_in_linear_time(statement):
    text = _ALG + "  product mul { " + statement + " } }"
    start = time.perf_counter()
    outcome = _outcome(parse_workspace, text)
    assert time.perf_counter() - start < 1
    assert isinstance(outcome, Workspace) == statement.endswith(" ;")
    for row in ("t: [[1" + _SPACES + "x]];", "t: [[1," + _SPACES + "x]];",
                "t: [[1]" + _SPACES + "x];"):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_workspace(_SG + "maps f over T dim 1 { " + row + " }")
        assert time.perf_counter() - start < 1
