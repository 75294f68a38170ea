import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bihomega
from bihomega import cli
from bihomega.checkers import check_instance
from bihomega.cli import _CliError, main
from bihomega.core import (AlgebraKind, BilinearFamily, LinearFamily,
                           RotaBaxterFamily, new_instance)
from bihomega.dsl import (parse_workspace, serialize_workspace,
                          workspace_for_instance)
from bihomega.forge import (SearchConfig, brute_force_rb_search,
                            constant_product_instance, make_two_dim_example,
                            two_dim_params)
from bihomega.errors import (BudgetExceeded, ConditionViolated, KindMismatch,
                             MorphismCheckFailed, ParseError,
                             PostconditionCheckFailed, PreconditionCheckFailed,
                             ResolutionError, Singular)
from bihomega.linalg import Matrix
from bihomega.semigroup import (SemigroupTable, cyclic_group,
                                left_zero_semigroup, validate_semigroup)
from conftest import LIE_2D, two_dim_instance
from test_dsl import GOLDEN_TWO_DIM

C2 = cyclic_group(2)

BAD_LIE = """semigroup T { elements t; table { t*t = t; } commutative; }
algebra sym : lie over T dim 2 {
  product bracket {
    (t,t): e1*e2 = 1 e2;
    (t,t): e2*e1 = 1 e2;
  }
}
"""

PARAMS_OK = {
    "omega": {"elements": ["g0", "g1"],
              "table": [[0, 1], [1, 0]], "commutative": True},
    "c": [["1", "1"], ["1", "1"]],
    "rthree": ["1", "1"],
    "lthree": ["1", "1"],
}


@pytest.fixture
def two_dim_file(tmp_path):
    path = tmp_path / "two_dim.bho"
    path.write_text(GOLDEN_TWO_DIM)
    return str(path)


def test_check_passing_transcript(two_dim_file, capsys):
    assert main(["check", two_dim_file]) == 0
    out = capsys.readouterr().out
    assert out == ("PASS semigroup W associativity\n"
                   "PASS semigroup W commutativity\n"
                   "PASS algebra two_dim p-multiplicativity\n"
                   "PASS algebra two_dim q-multiplicativity\n"
                   "PASS algebra two_dim bihom-associativity\n")


def test_check_failing_exit_code_and_witnesses(tmp_path, capsys):
    path = tmp_path / "bad.bho"
    path.write_text(BAD_LIE)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL algebra sym skew-symmetry (2 violations)" in out
    assert "witness" in out
    assert "FAIL algebra sym jacobi" in out
    assert "PASS semigroup T associativity" in out


def test_check_axiom_filter(two_dim_file, capsys):
    assert main(["check", two_dim_file, "--axiom", "bihom-associativity"]) == 0
    out = capsys.readouterr().out
    assert out == "PASS algebra two_dim bihom-associativity\n"
    assert main(["check", two_dim_file, "--axiom", "no-such-axiom"]) == 2


def test_check_json_document(two_dim_file, capsys):
    assert main(["check", two_dim_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format_version"] == 1
    labels = [r["label"] for r in doc["reports"]]
    assert labels == ["semigroup W", "algebra two_dim"]
    for record in doc["reports"]:
        for result in record["results"]:
            assert result["passed"] is True


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.bho"
    path.write_text("semigroup W [")
    assert main(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["check", "/no/such/file.bho"]) == 2


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_fmt_is_idempotent(two_dim_file, capsys):
    assert main(["fmt", two_dim_file]) == 0
    once = capsys.readouterr().out
    assert once == GOLDEN_TWO_DIM


def test_fmt_normalizes_messy_input(tmp_path, capsys):
    messy = GOLDEN_TWO_DIM.replace("\n  ", "\n      ").replace(" = ", "=")
    path = tmp_path / "messy.bho"
    path.write_text(messy)
    assert main(["fmt", str(path)]) == 0
    assert capsys.readouterr().out == GOLDEN_TWO_DIM


def test_construct_writes_checked_output(two_dim_file, tmp_path, capsys):
    out_path = tmp_path / "lie.bho"
    assert main(["construct", "assoc_to_lie", "--input", two_dim_file,
                 "--as-name", "lie", "--out", str(out_path)]) == 0
    ws = parse_workspace(out_path.read_text())
    from bihomega.constructions import assoc_to_lie
    expected = assoc_to_lie(two_dim_instance(C2))
    got = ws.algebras["lie"]
    assert got.product("bracket") == expected.product("bracket")
    assert "# construction: assoc_to_lie" in out_path.read_text()


@pytest.mark.parametrize("name", ["bad name", "1abc", "é", "x;y", ""])
def test_construct_rejects_a_name_the_workspace_cannot_read(
        name, two_dim_file, tmp_path, capsys):
    out_path = tmp_path / "out.bho"
    assert main(["construct", "assoc_to_lie", "--input", two_dim_file,
                 "--as-name", name, "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: --as-name must be an identifier, got {name!r}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("name", ["semigroup", "e1"])
def test_construct_names_that_read_back(name, two_dim_file, tmp_path):
    out_path = tmp_path / "out.bho"
    assert main(["construct", "assoc_to_lie", "--input", two_dim_file,
                 "--as-name", name, "--out", str(out_path)]) == 0
    assert list(parse_workspace(out_path.read_text()).algebras) == [name]


def test_construct_missing_rb_flag(two_dim_file, capsys):
    assert main(["construct", "rb_split_dendriform",
                 "--input", two_dim_file]) == 2
    assert "--rb" in capsys.readouterr().err


def test_construct_rejects_unused_operand_flags(two_dim_file, capsys):
    assert main(["construct", "assoc_to_lie", "--input", two_dim_file,
                 "--rb", "X"]) == 2
    assert capsys.readouterr().err == (
        "error: construction 'assoc_to_lie' takes no --rb\n")
    assert main(["construct", "rb_split_dendriform", "--input", two_dim_file,
                 "--rb", "X", "--q2", "g"]) == 2
    assert "takes no --q2" in capsys.readouterr().err


def test_construct_singular_map_exits_2_before_failing_precheck(
        tmp_path, capsys):
    # the input fails its checker too; the singular map is reported first
    params = two_dim_params(C2, [[1, 1], [1, 1]], [1, 1], [1, 1])
    singular = make_two_dim_example(params, reading="e1")
    bad = new_instance(singular.kind, C2, (("mul", BilinearFamily.from_function(
        C2, 2, lambda a, b, i, j: (i + b, j - a))),), singular.p, singular.q)
    assert not check_instance(bad).passed
    path = tmp_path / "singular.bho"
    path.write_text(serialize_workspace(workspace_for_instance("a", "W", bad)))
    assert main(["construct", "assoc_to_lie", "--input", str(path)]) == 2
    assert "is singular" in capsys.readouterr().err


def test_construct_records_rb_weight_parameter(tmp_path, capsys):
    lie = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    ws = workspace_for_instance("l", "W", lie)
    ws.rota_baxter["r"] = RotaBaxterFamily(
        LinearFamily.constant(C2, Matrix.from_rows([[0, 0], [0, 0]])), 0)
    ws.omega_of[("rb", "r")] = "W"
    path = tmp_path / "lie.bho"
    path.write_text(serialize_workspace(ws))
    assert main(["construct", "rb_lie_to_prelie", "--input", str(path),
                 "--rb", "r"]) == 0
    assert "# parameter weight: 0\n" in capsys.readouterr().out


def test_construct_reads_the_one_rb_family_of_another_file(tmp_path, capsys):
    lie = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    ws = workspace_for_instance("l", "W", lie)
    path = tmp_path / "lie.bho"
    path.write_text(serialize_workspace(ws))
    ws.rota_baxter["r"] = RotaBaxterFamily(
        LinearFamily.constant(C2, Matrix.from_rows([[0, 0], [0, 0]])), 0)
    ws.omega_of[("rb", "r")] = "W"
    rb_path = tmp_path / "rb.bho"
    rb_path.write_text(serialize_workspace(ws))
    assert main(["construct", "rb_lie_to_prelie", "--input", str(path),
                 "--rb", str(rb_path)]) == 0
    assert "# parameter weight: 0\n" in capsys.readouterr().out


def test_construct_unknown_rb_family_exits_2(tmp_path, capsys, monkeypatch):
    lie = constant_product_instance(AlgebraKind.LIE, C2, {"bracket": LIE_2D})
    path = tmp_path / "lie.bho"
    path.write_text(serialize_workspace(workspace_for_instance("l", "W", lie)))
    monkeypatch.chdir(tmp_path)  # no file named nosuch either
    assert main(["construct", "rb_lie_to_prelie", "--input", str(path),
                 "--rb", "nosuch"]) == 2
    assert capsys.readouterr().err == (
        "error: no rota_baxter family named 'nosuch'\n")


def test_construct_operand_over_another_semigroup_exits_2(tmp_path, capsys):
    # a usage error found before the commuting requirement reads f
    ws = workspace_for_instance("a", "W", two_dim_instance(C2))
    ws.semigroups["T"] = SemigroupTable(("t",), ((0,),))
    ws.linear_maps["f"] = LinearFamily.identity(ws.semigroups["T"], 2)
    ws.omega_of[("maps", "f")] = "T"
    path = tmp_path / "ws.bho"
    path.write_text(serialize_workspace(ws))
    assert main(["construct", "yau_twist", "--input", str(path),
                 "--p2", "f", "--q2", "f"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: yau_twist: p2 does not match")
    assert "Traceback" not in err


def test_construct_yau_twist_needs_both_maps(two_dim_file, capsys):
    assert main(["construct", "yau_twist", "--input", two_dim_file,
                 "--p2", "g"]) == 2
    assert capsys.readouterr().err == (
        "error: yau_twist needs --p2 NAME and --q2 NAME\n")


def test_construct_yau_twist_names_both_indices_that_fail_to_commute(
        tmp_path, capsys):
    # f commutes with itself at each index, but not f at g0 with f at g1
    path = tmp_path / "ws.bho"
    path.write_text(
        "semigroup W { elements g0 g1; table { g0*g0 = g0; g0*g1 = g1; "
        "g1*g0 = g1; g1*g1 = g0; } commutative; }\n"
        "maps f over W dim 2 { g0: [[1, 1], [0, 1]]; g1: [[1, 0], [1, 1]]; }\n"
        "algebra a : bihom_associative over W dim 2 { }\n")
    assert main(["construct", "yau_twist", "--input", str(path),
                 "--p2", "f", "--q2", "f"]) == 2
    assert capsys.readouterr() == ("", "error: families p2 and q2 do not "
                                       "commute: p2 at 'g0' with q2 at 'g1'\n")


def test_construct_digests_its_input_once(two_dim_file, capsys, monkeypatch):
    from bihomega.core import AlgebraInstance
    digest, calls = AlgebraInstance.digest, []

    def counted(inst):
        calls.append(inst)
        return digest(inst)
    monkeypatch.setattr(AlgebraInstance, "digest", counted)
    assert main(["construct", "assoc_to_lie", "--input", two_dim_file]) == 0
    assert len(calls) == 1
    header = f"# input: two_dim (digest {digest(calls[0])})\n"
    assert header in capsys.readouterr().out


def test_construct_has_no_unchecked_flag(two_dim_file, capsys):
    # construct always checks its input and its output
    assert main(["construct", "assoc_to_lie", "--input", two_dim_file,
                 "--unchecked"]) == 2
    assert "unrecognized arguments: --unchecked" in capsys.readouterr().err


def test_construct_unknown_name(two_dim_file, capsys):
    assert main(["construct", "nonsense", "--input", two_dim_file]) == 2


def test_construct_precondition_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.bho"
    path.write_text(BAD_LIE)
    assert main(["construct", "prelie_to_lie", "--input", str(path)]) == 2
    # wrong kind is usage; a failing checker on the right kind is 1
    path.write_text(BAD_LIE.replace(": lie", ": postlie")
                    .replace("product bracket", "product bracket"))
    assert main(["construct", "postlie_to_lie", "--input", str(path)]) == 1


def test_search_rb_roundtrip(two_dim_file, tmp_path, capsys):
    out_path = tmp_path / "rbs.bho"
    assert main(["search-rb", "--algebra", two_dim_file,
                 "--entries", "0,-1", "--weight", "1",
                 "--limit", "2", "--out", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert "found 2 operator families" in err
    ws = parse_workspace(out_path.read_text())
    assert sorted(ws.rota_baxter) == ["rb000", "rb001"]
    # the found families can feed construct via FILE:NAME
    split_out = tmp_path / "dend.bho"
    assert main(["construct", "rb_split_dendriform", "--input", two_dim_file,
                 "--rb", f"{out_path}:rb001",
                 "--out", str(split_out)]) == 0
    dend = parse_workspace(split_out.read_text())
    assert len(dend.algebras) == 1


def test_search_rb_repeated_entries_write_each_family_once(two_dim_file, tmp_path,
                                                          capsys):
    out_path = tmp_path / "rbs.bho"
    assert main(["search-rb", "--algebra", two_dim_file, "--entries", "0,0",
                 "--out", str(out_path)]) == 0
    assert "found 1 operator families" in capsys.readouterr().err
    assert sorted(parse_workspace(out_path.read_text()).rota_baxter) == ["rb000"]


def test_search_rb_past_999_hits_lists_them_in_search_order(tmp_path, capsys):
    # a zero product: every one of the 6**4 families over the trivial
    # semigroup at dim 2 is a hit; "rb1000" used to sort before "rb101"
    path, out_path = tmp_path / "zero.bho", tmp_path / "rbs.bho"
    path.write_text("semigroup T { elements t; table { t*t = t; } }\n"
                    "algebra z : bihom_associative over T dim 2 { }\n")
    assert main(["search-rb", "--algebra", str(path),
                 "--entries=-2,-1,0,1,2,3", "--out", str(out_path)]) == 0
    assert capsys.readouterr().err == "found 1296 operator families\n"
    text = out_path.read_text()
    names = re.findall(r"^rota_baxter (\w+) ", text, re.MULTILINE)
    assert names == [f"rb{idx:04d}" for idx in range(1296)]
    found = parse_workspace(text).rota_baxter
    hits = brute_force_rb_search(parse_workspace(path.read_text()).algebras["z"],
                                 SearchConfig(entries=range(-2, 4)))
    assert [found[name] for name in names] == hits


@pytest.mark.parametrize("flag, value", [("--entries", "-1,0"),
                                         ("--weight", "-1/2")])
def test_search_rb_reads_a_signed_value_given_apart(flag, value, two_dim_file,
                                                    tmp_path, capsys):
    # argparse alone reads "-1,0" and "-1/2" as flags, not as values
    runs = []
    for spelled in ([flag, value], [f"{flag}={value}"]):
        out_path = tmp_path / "rbs.bho"
        assert main(["search-rb", "--algebra", two_dim_file, *spelled,
                     "--limit", "2", "--out", str(out_path)]) == 0
        runs.append((capsys.readouterr(), out_path.read_text()))
    assert runs[0] == runs[1]
    assert f"{flag[2:]} {value}, " in runs[0][1]


def test_search_rb_limit_below_one_exits_2(two_dim_file, capsys):
    for bad in ("0", "-1", "x"):
        assert main(["search-rb", "--algebra", two_dim_file,
                     "--limit", bad]) == 2
        err = capsys.readouterr().err
        assert "argument --limit" in err and "Traceback" not in err


def test_check_max_witnesses_below_zero_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.bho"
    path.write_text(BAD_LIE)
    for bad in ("-1", "x"):
        assert main(["check", str(path), "--max-witnesses", bad]) == 2
        err = capsys.readouterr().err
        assert "argument --max-witnesses" in err and "Traceback" not in err
    assert main(["check", str(path), "--max-witnesses", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL algebra sym skew-symmetry" in out and "witness" not in out


class _ClosedPipe(io.StringIO):
    """Standard output whose reader has gone: writing or flushing raises."""

    def __init__(self, on: str):
        super().__init__()
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("on", ["write", "flush"])
def test_closed_stdout_ends_without_traceback(tmp_path, capsys, monkeypatch,
                                             on):
    path = tmp_path / "bad.bho"
    path.write_text(BAD_LIE)
    monkeypatch.setattr("sys.stdout", _ClosedPipe(on))
    assert main(["check", str(path), "--max-witnesses", "0"]) == 2
    assert capsys.readouterr().err == ""


def test_closed_pipe_in_a_real_process(tmp_path):
    path = tmp_path / "bad.bho"
    path.write_text(BAD_LIE)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(bihomega.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src,
                                                      env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bihomega.cli", "check", str(path),
         "--max-witnesses", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes before the first line is written
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


def test_example_two_dim_both_readings(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS_OK))
    out_path = tmp_path / "example.bho"
    assert main(["example", "two-dim", "--params", str(params),
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS two-dim reading=e1" in out
    assert "PASS two-dim reading=e2" in out
    ws = parse_workspace(out_path.read_text())
    assert sorted(ws.algebras) == ["two_dim_e1", "two_dim_e2"]


def test_example_unknown_name_exits_2(tmp_path, capsys):
    assert main(["example", "nosuch", "--params",
                 str(tmp_path / "params.json")]) == 2
    assert capsys.readouterr().err == (
        "error: unknown example 'nosuch'; only 'two-dim' exists\n")


def test_example_rejects_bad_side_conditions(tmp_path, capsys):
    doc = dict(PARAMS_OK)
    doc["rthree"] = ["1", "2"]
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    assert main(["example", "two-dim", "--params", str(params)]) == 1
    assert "rthree-multiplicative" in capsys.readouterr().out



_LEFT_ZERO = left_zero_semigroup(2)
_FAILED_REPORT = validate_semigroup(SemigroupTable(
    _LEFT_ZERO.elements, _LEFT_ZERO.table, commutative=True), max_witnesses=1)
_REPORT_TEXT = ("PASS semigroup associativity\n"
                "FAIL semigroup commutativity (2 violations)\n"
                "    witness indices=a,b lhs=(0) rhs=(1)\n")

# (exception a command raises, exit code, standard error)
RAISED = [
    (_CliError("no algebra named 'x' in the workspace"), 2,
     "error: no algebra named 'x' in the workspace\n"),
    (ParseError(3, 7, "'p' or 'q'", "r"), 2,
     "error: 3:7: expected 'p' or 'q', found 'r'\n"),
    (ResolutionError("unknown semigroup 'U'"), 2,
     "error: unknown semigroup 'U'\n"),
    (Singular("matrix is singular", "g1"), 2, "error: matrix is singular\n"),
    (BudgetExceeded(10, 5), 2,
     "error: search space of 10 candidates exceeds budget 5\n"),
    (KindMismatch("checker expects kind in {lie}, got zinbiel"), 2,
     "error: checker expects kind in {lie}, got zinbiel\n"),
    (ConditionViolated("c-cocycle", ("g0", "g1", "g1")), 1,
     "error: condition 'c-cocycle' fails at indices ('g0', 'g1', 'g1')\n"),
] + [
    (cls(message, report), 1,
     f"error: {message}\n" + (_REPORT_TEXT if report is not None else ""))
    for cls, message in (
        (PreconditionCheckFailed, "input fails its checker"),
        (MorphismCheckFailed, "family is not a morphism"),
        (PostconditionCheckFailed, "output fails its checker"))
    for report in (None, _FAILED_REPORT)
]


@pytest.mark.parametrize("exc, code, err", RAISED, ids=[
    type(exc).__name__ + ("" if getattr(exc, "report", None) is None
                          else "-with-report") for exc, _, _ in RAISED])
def test_main_exit_code_and_message_per_error(capsys, monkeypatch, exc, code,
                                              err):
    def raising(args):
        raise exc
    monkeypatch.setattr("bihomega.cli._cmd_fmt", raising)
    assert main(["fmt", "never-read.bho"]) == code
    assert capsys.readouterr() == ("", err)


def test_main_builds_its_parser_once(two_dim_file, capsys):
    cli._build_parser.cache_clear()
    for argv in (["fmt", two_dim_file], ["check", two_dim_file],
                 ["fmt", two_dim_file, "--bad"], ["fmt", two_dim_file]):
        main(argv)
    assert capsys.readouterr().err.startswith("usage: bihomega [-h]")
    assert cli._build_parser.cache_info().misses == 1


def test_a_command_replaced_after_a_call_is_the_one_run(two_dim_file, capsys,
                                                        monkeypatch):
    assert main(["fmt", two_dim_file]) == 0
    assert capsys.readouterr().out == GOLDEN_TWO_DIM
    read = []
    monkeypatch.setattr("bihomega.cli._cmd_fmt",
                        lambda args: read.append(args.workspace) or 1)
    assert main(["fmt", two_dim_file]) == 1
    assert read == [two_dim_file] and capsys.readouterr() == ("", "")


def _commands(path):
    """Every command that reads a file, reading `path`."""
    return (["check", path], ["fmt", path],
            ["construct", "assoc_to_lie", "--input", path],
            ["search-rb", "--algebra", path, "--entries", "0", "--limit", "1"],
            ["example", "two-dim", "--params", path])


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.bho"
    path.write_bytes(GOLDEN_TWO_DIM.encode() + b"# caf\xe9 \xff\n")
    for argv in _commands(str(path)):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and "utf-8" in err
        assert "Traceback" not in err


def test_example_unrepresentable_scalar_exits_2(tmp_path, capsys):
    params = tmp_path / "params.json"
    for bad in ("1/0", float("inf")):
        doc = dict(PARAMS_OK, c=[[bad, "1"], ["1", "1"]])
        params.write_text(json.dumps(doc))
        assert main(["example", "two-dim", "--params", str(params)]) == 2
        assert capsys.readouterr().err.startswith("error: bad parameter document")


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _small_dims(data: bytes) -> bool:
    # a mutation can turn "dim 2" into "dim 2222"; keep each check small
    return all(int(d) <= 4 for d in re.findall(rb"dim\s+(\d+)", data))


def _exit_codes_hold(data: bytes, commands):
    assume(_small_dims(data))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in commands(path):
            assert _run_quietly(argv) in (0, 1, 2), argv


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300))
def test_main_exit_codes_on_arbitrary_bytes(data):
    _exit_codes_hold(data, _commands)


@st.composite
def _mutated_golden(draw) -> bytes:
    data = bytearray(GOLDEN_TWO_DIM.encode())
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        byte = draw(st.integers(0, 255))
        if op == "insert":
            data.insert(pos, byte)
        elif op == "delete":
            del data[pos]
        else:
            data[pos] = byte
    return bytes(data)


@settings(max_examples=60, deadline=None)
@given(_mutated_golden())
def test_main_exit_codes_on_mutated_workspaces(data):
    _exit_codes_hold(data, lambda path: _commands(path)[:4])


# -- workspaces generated from the grammar --------------------------------

# dim stays at most 3: an algebra with no map block gets identity maps,
# whose dim * dim entries are all stored and all written out, so inputs
# with a large dim are left out until maps are stored sparsely
_MAX_DIM = 3
# a search over at most this many candidates runs; one over the default
# budget exits 2 before any candidate is built
_SEARCHED, _BUDGET = 3 ** 8, 10 ** 7
_PAST_THE_DIGIT_LIMIT = "7" * 4301


@st.composite
def _rational(draw) -> str:
    """A rational's text: small, or with up to 200 digits on either side."""
    digits = draw(st.sampled_from((1, 1, 3, 40, 200)))
    num = draw(st.integers(-10 ** digits, 10 ** digits))
    den = draw(st.sampled_from((1, 1, 1, 2, 3))) if digits == 1 else draw(
        st.integers(1, 10 ** digits))
    return str(num) if den == 1 else f"{num}/{den}"


_TABLES = {"cyclic": lambda n, a, b: (a + b) % n,
           "left_zero": lambda n, a, b: a, "right_zero": lambda n, a, b: b,
           "null": lambda n, a, b: 0, "max": lambda n, a, b: max(a, b)}


@st.composite
def _semigroup(draw, name: str) -> tuple[str, list[str]]:
    """A semigroup block of order 1 to 10: a cyclic group, a left- or
    right-zero, null or max semigroup, or a random table, which is most
    often no semigroup; its commutative flag is mostly the table's own."""
    n = draw(st.integers(1, 10))
    prefix = draw(st.sampled_from(("g", "x", "e", "t_")))
    labels = [f"{prefix}{i}" for i in range(n)]
    shape = draw(st.sampled_from((*_TABLES, "random")))
    if shape == "random":
        table = [[draw(st.integers(0, n - 1)) for _ in labels] for _ in labels]
    else:
        table = [[_TABLES[shape](n, a, b) for b in range(n)] for a in range(n)]
    commutative = all(table[a][b] == table[b][a]
                      for a in range(n) for b in range(n))
    if draw(st.integers(0, 5)) == 0:
        commutative = not commutative
    rows = " ".join(f"{labels[a]}*{labels[b]} = {labels[table[a][b]]};"
                    for a in range(n) for b in range(n))
    flag = " commutative;" if commutative else ""
    return (f"semigroup {name} {{ elements {' '.join(labels)}; "
            f"table {{ {rows} }}{flag} }}", labels)


@st.composite
def _matrix(draw, dim: int) -> str:
    """The identity, a diagonal or a random matrix, as `[[r, r], ...]`."""
    shape = draw(st.sampled_from(("identity", "diagonal", "random")))
    rows = []
    for i in range(dim):
        row = [draw(_rational()) if shape == "random" or (
            shape == "diagonal" and i == j) else str(int(i == j))
            for j in range(dim)]
        rows.append("[" + ", ".join(row) + "]")
    return "[" + ", ".join(rows) + "]"


@st.composite
def _map_body(draw, labels: list[str], dim: int) -> str:
    return " ".join(f"{a}: {draw(_matrix(dim))};" for a in labels)


@st.composite
def _lincomb(draw, dim: int) -> str:
    """A sum of terms, a coefficient left out now and then, or a bare 0."""
    if draw(st.integers(0, 9)) == 0:
        return "0"
    terms = []
    for _ in range(draw(st.integers(1, dim))):
        k = draw(st.integers(1, dim))
        terms.append(f"e{k}" if draw(st.integers(0, 4)) == 0
                     else f"{draw(_rational())} e{k}")
    return " + ".join(terms)


@st.composite
def _algebra(draw, name: str, omega: str, labels: list[str]) -> str:
    kind = draw(st.sampled_from(list(AlgebraKind)))
    dim = draw(st.integers(1, _MAX_DIM))
    n = len(labels)
    blocks = []
    for slot in kind.product_slots:
        if draw(st.booleans()):
            continue
        keys = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1),
                                       st.integers(1, dim), st.integers(1, dim)),
                             max_size=4, unique=True))
        entries = " ".join(f"({labels[a]},{labels[b]}): e{i}*e{j} = "
                           f"{draw(_lincomb(dim))};" for a, b, i, j in keys)
        blocks.append(f"product {slot} {{ {entries} }}")
    for which in ("p", "q"):
        if draw(st.integers(0, 2)) == 0:
            blocks.append(f"map {which} {{ {draw(_map_body(labels, dim))} }}")
    return (f"algebra {name} : {kind.value} over {omega} dim {dim} "
            f"{{ {' '.join(blocks)} }}")


@st.composite
def _workspace(draw) -> tuple[str, list[tuple[int, int]]]:
    """A workspace text of one or two semigroups, up to two algebras and
    up to one maps and one rota_baxter family, in the canonical spacing or
    with spaces around every punctuation token, and comments now and
    then, and now and then one integer past the digit limit; with each
    algebra's (order, dim), for the search's space."""
    parts, shapes, semigroups = [], [], []
    for name in ("S", "T")[:draw(st.integers(1, 2))]:
        block, labels = draw(_semigroup(name))
        parts.append(block)
        semigroups.append((name, labels))
    for name in ("A", "B")[:draw(st.sampled_from((1, 1, 2, 0)))]:
        omega, labels = draw(st.sampled_from(semigroups))
        block = draw(_algebra(name, omega, labels))
        parts.append(block)
        shapes.append((len(labels), int(re.search(r" dim (\d+) ", block)[1])))
    omega, labels = draw(st.sampled_from(semigroups))
    dim = draw(st.integers(1, _MAX_DIM))
    if draw(st.booleans()):
        parts.append(f"maps M over {omega} dim {dim} "
                     f"{{ {draw(_map_body(labels, dim))} }}")
    if draw(st.booleans()):
        parts.append(f"rota_baxter R over {omega} dim {dim} weight "
                     f"{draw(_rational())} {{ {draw(_map_body(labels, dim))} }}")
    text = "\n".join(parts) + "\n"
    if draw(st.booleans()):
        text = re.sub(r"([{}()\[\]:;,*=+/])", r" \1 ", text)
    if draw(st.booleans()):
        text = text.replace(";", "; # a comment\n", draw(st.integers(1, 5)))
    ints = [m.span() for m in re.finditer(r"\b\d+\b", text)]
    if ints and draw(st.integers(0, 9)) == 0:
        start, end = draw(st.sampled_from(ints))
        text = text[:start] + _PAST_THE_DIGIT_LIMIT + text[end:]
    return text, shapes


def _space(entries: str, shape: tuple[int, int]) -> int | None:
    """The search's candidate count, None where an entry is unreadable."""
    try:
        distinct = {Fraction(v) for v in entries.split(",")}
    except ValueError:
        return None
    n, dim = shape
    return len(distinct) ** (n * dim * dim)


def _outcome(argv) -> tuple[int, str, str]:
    # an exception main lets out fails the test with its traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _holds_the_contract(argv, code, out, err):
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    # exit 1 is a verdict: a failing axiom, table or side condition
    if code == 1:
        assert any(line.startswith("FAIL ") for line in out.splitlines()), argv


@st.composite
def _entries(draw) -> str:
    """One to three rationals, joined by commas; now and then the last
    one is past the digit limit."""
    values = draw(st.lists(_rational(), min_size=1, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        values[-1] = _PAST_THE_DIGIT_LIMIT
    return ",".join(values)


@settings(max_examples=40, deadline=None)
@given(case=_workspace(), entries=_entries(), weight=_rational(),
       limit=st.sampled_from((None, 1, 3)))
def test_generated_workspaces_keep_the_exit_code_contract(case, entries,
                                                          weight, limit):
    text, shapes = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ws.bho")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["fmt", path], ["check", path]):
            code, out, err = _outcome(argv)
            _holds_the_contract(argv, code, out, err)
            if argv[0] == "fmt" and code == 0:
                # the canonical text is read back as itself
                with open(path + ".fmt", "w", encoding="utf-8") as fh:
                    fh.write(out)
                assert _outcome(["fmt", path + ".fmt"]) == (0, out, "")
        space = _space(entries, shapes[0]) if shapes else None
        if space is None or space <= _SEARCHED or space > _BUDGET:
            argv = ["search-rb", "--algebra", path, "--name", "A",
                    "--entries", entries, "--weight", weight]
            argv += ["--limit", str(limit)] if limit else []
            _holds_the_contract(argv, *_outcome(argv))


def test_out_that_cannot_be_written_exits_2(two_dim_file, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS_OK))
    commands = (["fmt", two_dim_file],
                ["construct", "assoc_to_lie", "--input", two_dim_file],
                ["search-rb", "--algebra", two_dim_file, "--entries", "0"],
                ["example", "two-dim", "--params", str(params)])
    # a file under a missing directory, and a directory
    for out in (str(tmp_path / "missing" / "x.bho"), str(tmp_path)):
        for argv in commands:
            assert main(argv + ["--out", out]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {out}: "), argv
            assert "Traceback" not in err


_W_THEN_V = GOLDEN_TWO_DIM.replace(
    "\nalgebra two_dim : bihom_associative over W",
    "\nsemigroup V { elements g0 g1; table { g0*g0 = g0; g0*g1 = g1; "
    "g1*g0 = g1; g1*g1 = g0; } commutative; }\n"
    "\nalgebra two_dim : bihom_associative over V")


def test_outputs_keep_the_semigroup_the_algebra_was_declared_over(tmp_path,
                                                                 capsys):
    path = tmp_path / "w_then_v.bho"
    path.write_text(_W_THEN_V)
    ws = parse_workspace(_W_THEN_V)
    assert ws.semigroups["W"] == ws.semigroups["V"]
    assert ws.omega_of[("algebra", "two_dim")] == "V"
    out_path = tmp_path / "out.bho"
    assert main(["construct", "assoc_to_lie", "--input", str(path),
                 "--out", str(out_path)]) == 0
    out = parse_workspace(out_path.read_text())
    assert list(out.semigroups) == ["V"]
    assert out.omega_of == {("algebra", "two_dim_assoc_to_lie"): "V"}
    assert main(["search-rb", "--algebra", str(path), "--entries", "0",
                 "--out", str(out_path)]) == 0
    out = parse_workspace(out_path.read_text())
    assert list(out.semigroups) == ["V"]
    assert out.omega_of == {("rb", "rb000"): "V"}


def _params_with(**omega):
    return dict(PARAMS_OK, omega=dict(PARAMS_OK["omega"], **omega))


# each document is refused before any example is built
BAD_PARAMS = [
    ("commutative-string", _params_with(commutative="false"),
     "'commutative' must be true or false"),
    ("table-decimal", _params_with(table=[[0.0, 1], [1, 0]]),
     "table entries must be integers"),
    ("table-bool", _params_with(table=[[0, True], [True, 0]]),
     "table entries must be integers"),
    ("integer-labels", _params_with(elements=[0, 1]),
     "element labels must be distinct identifiers"),
    ("label-not-an-identifier", _params_with(elements=["g0", "g-1"]),
     "element labels must be distinct identifiers"),
    ("label-not-ascii", _params_with(elements=["g0", "gé"]),
     "element labels must be distinct identifiers"),
    ("repeated-labels", _params_with(elements=["g0", "g0"]),
     "element labels must be distinct identifiers"),
    ("labels-in-a-string", _params_with(elements="ab"),
     "'elements' must be a list of labels"),
    ("c-bool", dict(PARAMS_OK, c=[[True, "1"], ["1", "1"]]),
     "scalars must not be true or false"),
    ("rthree-bool", dict(PARAMS_OK, rthree=["1", True]),
     "scalars must not be true or false"),
    ("lthree-bool", dict(PARAMS_OK, lthree=[False, "1"]),
     "scalars must not be true or false"),
    ("c-string-exponent", dict(PARAMS_OK, c=[["1e4301", "1"], ["1", "1"]]),
     "exponent of 1e4301 exceeds 4300"),
    ("no-elements", dict(PARAMS_OK, omega={"elements": [], "table": []}, c=[],
                         rthree=[], lthree=[]),
     "'elements' must name at least one element"),
]


@pytest.mark.parametrize("doc, message", [row[1:] for row in BAD_PARAMS],
                         ids=[row[0] for row in BAD_PARAMS])
def test_example_rejects_bad_parameter_documents(tmp_path, capsys, doc,
                                                 message):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    assert main(["example", "two-dim", "--params", str(params)]) == 2
    assert capsys.readouterr() == ("", f"error: bad parameter document: "
                                       f"{message}\n")


def test_example_reads_json_decimals_exactly(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(dict(PARAMS_OK, c=[[0.1, 0.1], [0.1, 0.1]])))
    out_path = tmp_path / "example.bho"
    assert main(["example", "two-dim", "--params", str(params),
                 "--out", str(out_path)]) == 0
    ws = parse_workspace(out_path.read_text())
    mul = ws.algebras["two_dim_e2"].product("mul")
    assert mul.basis_product(0, 0, 0, 0) == (Fraction(1, 10), 0)
    assert "(g0,g0): e1*e1 = 1/10 e1;" in out_path.read_text()


def test_example_refuses_a_decimal_exponent_past_the_digit_limit(tmp_path,
                                                                 capsys):
    params = tmp_path / "params.json"
    text = json.dumps(dict(PARAMS_OK, c=[["E", 1], [1, 1]]))
    for big in ("1e999999999", "1e-999999999"):
        params.write_text(text.replace('"E"', big))
        assert main(["example", "two-dim", "--params", str(params)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad JSON in {params}: exponent of {big}")


def test_name_lookups_that_find_nothing_exit_2(two_dim_file, tmp_path, capsys):
    assert main(["construct", "assoc_to_lie", "--input", two_dim_file,
                 "--algebra", "zz"]) == 2
    assert capsys.readouterr().err == (
        "error: no algebra named 'zz' in the workspace\n")
    rbs = tmp_path / "rbs.bho"
    assert main(["search-rb", "--algebra", two_dim_file, "--entries", "0,-1",
                 "--weight", "1", "--limit", "2", "--out", str(rbs)]) == 0
    capsys.readouterr()
    split = ["construct", "rb_split_dendriform", "--input", two_dim_file]
    assert main(split + ["--rb", f"{rbs}:zz"]) == 2
    assert capsys.readouterr().err == (
        f"error: no rota_baxter family named 'zz' in {rbs}\n")
    assert main(split + ["--rb", str(rbs)]) == 2
    assert capsys.readouterr().err == (
        f"error: {rbs} holds 2 rota_baxter families; use FILE:NAME\n")


def test_a_workspace_with_no_algebra_exits_2(tmp_path, capsys):
    path = tmp_path / "semigroup_only.bho"
    path.write_text("semigroup T { elements t; table { t*t = t; } }\n")
    for argv in (["construct", "assoc_to_lie", "--input", str(path)],
                 ["search-rb", "--algebra", str(path), "--entries", "0"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "error: workspace holds no "
                                           "algebra\n"), argv


def test_a_workspace_with_two_algebras_needs_a_name(tmp_path, capsys):
    path = tmp_path / "two.bho"
    path.write_text(GOLDEN_TWO_DIM + "\nalgebra flat : bihom_associative "
                    "over W dim 2 { }\n")
    assert main(["construct", "assoc_to_lie", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: workspace holds several "
                                       "algebras; pass --algebra NAME\n")
    out_path = tmp_path / "out.bho"
    assert main(["construct", "assoc_to_lie", "--input", str(path),
                 "--algebra", "two_dim", "--out", str(out_path)]) == 0
    from bihomega.constructions import assoc_to_lie
    got = parse_workspace(out_path.read_text()).algebras
    assert list(got) == ["two_dim_assoc_to_lie"]
    assert got["two_dim_assoc_to_lie"].product("bracket") == assoc_to_lie(
        two_dim_instance(C2)).product("bracket")
    assert main(["search-rb", "--algebra", str(path), "--name", "flat",
                 "--entries", "0,1", "--limit", "3", "--out", str(out_path)]) == 0
    assert capsys.readouterr().err == "found 3 operator families\n"
    text = out_path.read_text()
    assert "# search-rb over flat: entries 0,1, weight 0, found 3\n" in text
    assert sorted(parse_workspace(text).rota_baxter) == ["rb000", "rb001", "rb002"]


def test_search_rb_on_a_workspace_with_two_algebras_names_its_own_flag(
        tmp_path, capsys):
    # search-rb reads the workspace from --algebra and picks the algebra
    # with --name
    path = tmp_path / "two.bho"
    path.write_text(GOLDEN_TWO_DIM + "\nalgebra flat : bihom_associative "
                    "over W dim 2 { }\n")
    assert main(["search-rb", "--algebra", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: workspace holds several "
                                       "algebras; pass --name NAME\n")


def test_search_rb_over_a_space_past_the_digit_limit_exits_2(tmp_path, capsys):
    # 3 ** (95 * 95) candidates: more digits than int -> str allows, so
    # the message gives the power of ten the space reaches, and the error
    # keeps the space itself
    path = tmp_path / "big.bho"
    path.write_text("semigroup T { elements t; table { t*t = t; } }\n"
                    "algebra a : bihom_associative over T dim 95 { }\n")
    assert main(["search-rb", "--algebra", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: search space of at least "
                                       "10^4306 candidates exceeds budget "
                                       "10000000\n")
    with pytest.raises(BudgetExceeded) as err:
        brute_force_rb_search(parse_workspace(path.read_text()).algebras["a"],
                              SearchConfig())
    assert err.value.space == 3 ** (95 * 95)


def test_an_empty_algebra_of_large_dim_stores_no_cell(tmp_path, capsys):
    text = ("semigroup T { elements t; table { t*t = t; } }\n"
            "algebra a : lie over T dim 400 { }\n")
    assert parse_workspace(text).algebras["a"].product("bracket").blocks == (((),),)
    path = tmp_path / "big.bho"
    path.write_text(text)
    assert main(["fmt", str(path)]) == 0
    out = capsys.readouterr().out
    assert "algebra a : lie over T dim 400 {\n  product bracket {\n  }\n" in out
    assert main(["check", str(path)]) == 0
    assert "PASS algebra a jacobi" in capsys.readouterr().out


def test_an_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "long.bho"
    digits = "1" * 5000
    for text, place in (
            ("semigroup T { elements t; table { t*t = t; } }\n"
             "algebra a : lie over T dim 1 {\n"
             f"  product bracket {{ (t,t): e1*e1 = {digits} e1; }} }}\n", "3:36"),
            ("semigroup T { elements t; table { t*t = t; } }\n"
             f"algebra a : lie over T dim {digits} {{ }}\n", "2:28")):
        path.write_text(text)
        assert main(["fmt", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {place}: expected an integer of at most 4300 digits, "
            f"found '{digits[:64]}' and 4936 more characters\n"))


def test_search_rb_refuses_a_decimal_exponent_past_the_digit_limit(
        two_dim_file, capsys):
    for flag in ("--weight", "--entries"):
        argv = ["search-rb", "--algebra", two_dim_file, flag, "1e4301"]
        assert main(argv) == 2, flag
        assert capsys.readouterr() == ("", "error: bad rational: exponent of "
                                           "1e4301 exceeds 4300\n"), flag


def test_a_value_too_long_to_print_is_a_bad_rational(two_dim_file, tmp_path,
                                                    capsys):
    out_path = tmp_path / "out.bho"
    # each has a numerator or denominator too long for Python to print
    for value in ("1e4300", "1e-4300", "9" * 4000 + "e400"):
        message = (f"{value} has a numerator or denominator of more than "
                   "4300 digits")
        for flag in ("--weight", "--entries"):
            assert main(["search-rb", "--algebra", two_dim_file, flag, value,
                         "--out", str(out_path)]) == 2, (value, flag)
            assert capsys.readouterr() == (
                "", f"error: bad rational: {message}\n"), (value, flag)
        params = tmp_path / "params.json"
        params.write_text(json.dumps(dict(PARAMS_OK, c=[[value, 1], [1, 1]])))
        assert main(["example", "two-dim", "--params", str(params),
                     "--out", str(out_path)]) == 2, value
        assert capsys.readouterr() == (
            "", f"error: bad parameter document: {message}\n"), value
    assert not out_path.exists()
    # the longest value Python prints is read and written back
    assert main(["search-rb", "--algebra", two_dim_file, "--weight", "1e4299",
                 "--limit", "1", "--out", str(out_path)]) == 0
    rb = parse_workspace(out_path.read_text()).rota_baxter["rb000"]
    assert rb.weight == 10 ** 4299


def test_a_zero_denominator_is_named_in_the_users_text(two_dim_file, tmp_path,
                                                       capsys):
    out_path = tmp_path / "out.bho"
    for flag, value, text in (("--weight", "1/0", "1/0"),
                              ("--entries", "0,2/0", "2/0")):
        assert main(["search-rb", "--algebra", two_dim_file, flag, value,
                     "--out", str(out_path)]) == 2, flag
        assert capsys.readouterr() == (
            "", f"error: bad rational: {text} has a zero denominator\n"), flag
    params = tmp_path / "params.json"
    params.write_text(json.dumps(dict(PARAMS_OK, c=[["1/0"]])))
    assert main(["example", "two-dim", "--params", str(params),
                 "--out", str(out_path)]) == 2
    assert capsys.readouterr() == (
        "", "error: bad parameter document: 1/0 has a zero denominator\n")
    assert not out_path.exists()


def test_search_rb_writes_each_line_of_its_entries_as_a_comment(
        two_dim_file, tmp_path, capsys):
    out_path = tmp_path / "out.bho"
    assert main(["search-rb", "--algebra", two_dim_file, "--entries", "0,\n1",
                 "--limit", "2", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("# bihomega workspace\n"
                           "# search-rb over two_dim: entries 0,\n"
                           "# 1, weight 0, found 2\n")
    assert main(["fmt", str(out_path)]) == 0
    assert capsys.readouterr().out == serialize_workspace(
        parse_workspace(text))


def test_example_refuses_a_table_that_is_not_associative(tmp_path, capsys):
    # (a.a).b = b.b = a but a.(a.b) = a.a = b: check would fail the file
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_params_with(
        elements=["a", "b"], table=[[1, 0], [0, 0]], commutative=False)))
    out_path = tmp_path / "example.bho"
    assert main(["example", "two-dim", "--params", str(params),
                 "--out", str(out_path)]) == 1
    assert capsys.readouterr() == ((
        "FAIL semigroup W associativity (4 violations)\n"
        "    witness indices=a,a,b lhs=(0) rhs=(1)\n"
        "    witness indices=a,b,b lhs=(0) rhs=(1)\n"
        "    witness indices=b,a,a lhs=(1) rhs=(0)\n"
        "    witness indices=b,b,a lhs=(1) rhs=(0)\n"), "")
    assert not out_path.exists()


ONE_ELEMENT_PARAMS = {
    "omega": {"elements": ["e"], "table": [[0]], "commutative": True},
    "c": [[1]], "rthree": [1], "lthree": [1]}
C_LISTS = "'c' must be a list of lists of scalars"
CHARACTER_LISTS = "'rthree' and 'lthree' must be lists of scalars"

# a string or an object where a list belongs; each would be read through
# its characters or keys, as a document of all ones
NOT_LISTS = [
    ("c-string", dict(ONE_ELEMENT_PARAMS, c="1"), C_LISTS),
    ("c-rows-strings", dict(PARAMS_OK, c=["11", "11"]), C_LISTS),
    ("c-object", dict(ONE_ELEMENT_PARAMS, c={"1": 0}), C_LISTS),
    ("c-row-object", dict(ONE_ELEMENT_PARAMS, c=[{"1": 0}]), C_LISTS),
    ("rthree-string", dict(PARAMS_OK, rthree="11"), CHARACTER_LISTS),
    ("rthree-object", dict(ONE_ELEMENT_PARAMS, rthree={"1": 2}),
     CHARACTER_LISTS),
    ("lthree-string", dict(PARAMS_OK, lthree="11"), CHARACTER_LISTS),
    ("lthree-object", dict(ONE_ELEMENT_PARAMS, lthree={"1": 2}),
     CHARACTER_LISTS),
]


@pytest.mark.parametrize("doc, message", [row[1:] for row in NOT_LISTS],
                         ids=[row[0] for row in NOT_LISTS])
def test_example_refuses_a_string_or_object_where_a_list_belongs(
        tmp_path, capsys, doc, message):
    params, out_path = tmp_path / "params.json", tmp_path / "example.bho"
    params.write_text(json.dumps(doc))
    assert main(["example", "two-dim", "--params", str(params),
                 "--out", str(out_path)]) == 2
    assert capsys.readouterr() == ("", f"error: bad parameter document: "
                                       f"{message}\n")
    assert not out_path.exists()


# a commutative table that is no semigroup: (a.a).b = b.b = a but
# a.(a.b) = a.a = b
NOT_A_SEMIGROUP = """semigroup N { elements a b; table { a*a = b; a*b = a; \
b*a = a; b*b = a; } commutative; }
algebra A : bihom_associative over N dim 1 { product mul { (a,a): e1*e1 = 1 e1; } }
"""
NOT_A_SEMIGROUP_REPORT = ("FAIL semigroup N associativity (4 violations)\n"
                          "    witness indices=a,a,b lhs=(0) rhs=(1)\n"
                          "    witness indices=a,b,b lhs=(0) rhs=(1)\n"
                          "    witness indices=b,a,a lhs=(1) rhs=(0)\n"
                          "    witness indices=b,b,a lhs=(1) rhs=(0)\n"
                          "PASS semigroup N commutativity\n")


def test_construct_and_search_rb_refuse_a_table_that_is_not_a_semigroup(
        tmp_path, capsys):
    path, out_path = tmp_path / "n.bho", tmp_path / "out.bho"
    path.write_text(NOT_A_SEMIGROUP)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.startswith(NOT_A_SEMIGROUP_REPORT)
    assert main(["construct", "assoc_to_lie", "--input", str(path),
                 "--out", str(out_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: assoc_to_lie: index semigroup fails its checker\n"
        "FAIL semigroup associativity (4 violations)\n")
    assert main(["search-rb", "--algebra", str(path),
                 "--out", str(out_path)]) == 1
    assert capsys.readouterr() == (NOT_A_SEMIGROUP_REPORT, "")
    assert not out_path.exists()


def _dim_1_workspace(tmp_path, product: str, p: str, f: str | None = None) -> str:
    """A bihom_associative algebra `a` over a one-element semigroup at dim
    1 with e1*e1 = product e1 (none if empty), p = [[p]] and q = [[1]],
    and, given f, a family `f` = [[f]]; written to a file, whose path is
    returned."""
    path = tmp_path / "long.bho"
    path.write_text(
        "semigroup T { elements t; table { t*t = t; } }\n"
        + (f"maps f over T dim 1 {{ t: [[{f}]]; }}\n" if f else "")
        + "algebra a : bihom_associative over T dim 1 {\n"
        + (f"  product mul {{ (t,t): e1*e1 = {product} e1; }}\n" if product
           else "")
        + f"  map p {{ t: [[{p}]]; }}\n  map q {{ t: [[1]]; }}\n}}\n")
    return str(path)


def _decimal_digits(n: int) -> str:
    """n in decimal, however long: Decimal prints past Python's int limit."""
    return str(Decimal(n))


def test_check_prints_witness_values_longer_than_python_prints(tmp_path,
                                                               capsys):
    n = "7" * 2000
    path = _dim_1_workspace(tmp_path, product=n, p=n)
    big = int(n)
    # p(e1*e1) = big^2 e1 against p(e1)*p(e1) = big^3 e1
    lhs, rhs = _decimal_digits(big ** 2), _decimal_digits(big ** 3)
    assert main(["check", path]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert (f"FAIL algebra a p-multiplicativity (1 violations)\n"
            f"    witness indices=t,t basis=e1,e1 lhs=({lhs}) rhs=({rhs})\n"
            ) in out
    assert main(["check", "--json", path]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)["reports"][1]
    assert report["results"][0]["witnesses"] == [
        {"indices": ["t", "t"], "basis": [0, 0], "lhs": [lhs], "rhs": [rhs]}]
    # printing them leaves the digit limit that parsing keeps
    assert sys.get_int_max_str_digits() == 4300


def test_construct_prints_a_failed_precheck_with_long_values(tmp_path, capsys):
    m = "7" * 4000
    path = _dim_1_workspace(tmp_path, product=m, p="1", f=m)
    big = int(m)
    assert main(["construct", "yau_twist", "--input", path,
                 "--p2", "f", "--q2", "f"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    # f(e1*e1) = big^2 e1 against f(e1)*f(e1) = big^3 e1
    assert err.startswith(
        "error: yau_twist: p2 is not a morphism of the input\n"
        "FAIL morphism morphism-mul (1 violations)\n"
        f"    witness indices=t,t basis=e1,e1 lhs=({_decimal_digits(big ** 2)}) "
        f"rhs=({_decimal_digits(big ** 3)})\n")


def test_construct_writes_no_number_the_parser_would_refuse(tmp_path, capsys):
    k = "7" * 3000
    path = _dim_1_workspace(tmp_path, product="", p=k, f=k)
    out_path = tmp_path / "o.bho"
    # the twisted p is p∘f, whose entry has 6000 digits
    assert main(["construct", "yau_twist", "--input", path, "--p2", "f",
                 "--q2", "f", "--out", str(out_path)]) == 2
    assert capsys.readouterr() == (
        "", "error: the workspace holds a number of more than 4300 digits, "
            "which no workspace text reads back\n")
    assert not out_path.exists()
