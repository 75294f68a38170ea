"""Command-line interface: check, construct, search-rb, example, fmt.

Exit codes: 0 all checks passed / operation succeeded, 1 a checker
reported violations, a construction's pre- or post-check failed or a
side condition is violated, 2 usage, parse or resolution error, an
output workspace with a number too long for the parser to read back, or
standard output closed by its reader before the output was written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .checkers import check_instance
from .constructions import CONSTRUCTIONS, RECIPES
from .dsl import (Workspace, parse_workspace, serialize_workspace,
                  workspace_for_instance)
from .errors import BihomegaError, CheckFailed, ConditionViolated
from .forge import (SearchConfig, brute_force_rb_search, two_dim_params,
                    two_dim_reading_report)
from .reports import DEFAULT_WITNESS_CAP, REPORT_FORMAT_VERSION
from .semigroup import SemigroupTable, validate_semigroup

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2

# the search-rb flags whose value may start with "-", and such a value
_SIGNED_FLAGS = ("--entries", "--weight")
_SIGNED_VALUE = re.compile(r"-[\d.]")


class _CliError(Exception):
    """A usage error the command line itself finds; it exits 2."""


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


def _silence_stdout():
    """Point standard output's descriptor at the null device, so the
    interpreter's last flush of a closed pipe raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}")


def _read_workspace(path: str) -> Workspace:
    return parse_workspace(_read_text(path))


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}")


def _pick_algebra(ws: Workspace, name: str | None,
                  flag: str) -> tuple[str, object]:
    """The algebra named `name`, or the workspace's only one; `flag` is
    the caller's option that names it, for the error."""
    if name is not None:
        if name not in ws.algebras:
            raise _CliError(f"no algebra named {name!r} in the workspace")
        return name, ws.algebras[name]
    if not ws.algebras:
        raise _CliError("workspace holds no algebra")
    if len(ws.algebras) == 1:
        return next(iter(ws.algebras.items()))
    raise _CliError(f"workspace holds several algebras; pass {flag} NAME")


def _cmd_check(args) -> int:
    ws, cap = _read_workspace(args.workspace), args.max_witnesses
    reports = ([(f"semigroup {name}", validate_semigroup(t, max_witnesses=cap))
                for name, t in sorted(ws.semigroups.items())]
               + [(f"algebra {name}", check_instance(inst, max_witnesses=cap))
                  for name, inst in sorted(ws.algebras.items())])
    if args.axiom is not None:
        reports = [(label, report.restrict(args.axiom))
                   for label, report in reports
                   if args.axiom in report.axiom_names()]
        if not reports:
            raise _CliError(f"no checked object has an axiom named {args.axiom!r}")
    if args.json:
        records = [{**report.to_dict(), "label": label}
                   for label, report in reports]
        print(json.dumps({"format_version": REPORT_FORMAT_VERSION,
                          "tool_version": __version__, "reports": records},
                         indent=2, sort_keys=True))
    else:
        for label, report in reports:
            _print_summary(label, report)
    return EXIT_OK if all(r.passed for _, r in reports) else EXIT_VIOLATIONS


def _print_summary(label: str, report) -> None:
    for line in dataclasses.replace(report, subject=label).summary_lines():
        print(line)


def _fails_as_semigroup(name: str, omega: SemigroupTable) -> bool:
    """Print the table's report if it is no semigroup, and say so: a
    table that is none would give a workspace that check fails."""
    report = validate_semigroup(omega)
    if not report.passed:
        _print_summary(f"semigroup {name}", report)
    return not report.passed


def _resolve_named(ws: Workspace, namespace: str, ref: str):
    """Find a family by name in the workspace, or by NAME inside a
    second workspace file given as FILE:NAME or as a one-family FILE."""
    attr = "rota_baxter" if namespace == "rota_baxter" else "linear_maps"
    table = getattr(ws, attr)
    if ref in table:
        return table[ref]
    path, _, name = ref.partition(":")
    if os.path.exists(path):
        table = getattr(_read_workspace(path), attr)
        if name:
            if name not in table:
                raise _CliError(f"no {namespace} family named {name!r} in {path}")
            return table[name]
        if len(table) == 1:
            return next(iter(table.values()))
        raise _CliError(f"{path} holds {len(table)} {namespace} families; "
                        "use FILE:NAME")
    raise _CliError(f"no {namespace} family named {ref!r}")


def _cmd_construct(args) -> int:
    if args.name not in CONSTRUCTIONS:
        raise _CliError(f"unknown construction {args.name!r}; choose from "
                        + ", ".join(sorted(CONSTRUCTIONS)))
    operands = RECIPES[args.name].operands
    for flag in ("rb", "p2", "q2"):
        if getattr(args, flag) is not None and flag not in operands:
            raise _CliError(f"construction {args.name!r} takes no --{flag}")
    # the names the workspace format reads back
    if args.as_name is not None and not (args.as_name.isascii()
                                         and args.as_name.isidentifier()):
        raise _CliError(f"--as-name must be an identifier, got {args.as_name!r}")
    ws = _read_workspace(args.input)
    alg_name, inst = _pick_algebra(ws, args.algebra, "--algebra")
    if any(getattr(args, op) is None for op in operands):
        raise _CliError(f"construction {args.name!r} needs --rb NAME"
                        if operands == ("rb",) else
                        f"{args.name} needs --p2 NAME and --q2 NAME")
    out = CONSTRUCTIONS[args.name](inst, *(
        _resolve_named(ws, "rota_baxter" if op == "rb" else "maps",
                       getattr(args, op)) for op in operands))
    omega_name = ws.omega_of[("algebra", alg_name)]
    out_name = args.as_name or f"{alg_name}_{args.name}"
    out_ws = workspace_for_instance(out_name, omega_name, out)
    # every construction records its input's digest in the provenance
    prov = out.provenance
    comments = (f"construction: {args.name}",
                f"input: {alg_name} (digest {prov.input_digests[0]})",
                *(f"parameter {key}: {value}" for key, value in prov.parameters))
    _write_text(args.out, serialize_workspace(out_ws, comments))
    return EXIT_OK


def _cmd_search_rb(args) -> int:
    ws = _read_workspace(args.algebra)
    alg_name, inst = _pick_algebra(ws, args.name, "--name")
    try:
        entries = tuple(_decimal(v) for v in args.entries.split(","))
        weight = _decimal(args.weight)
    except ValueError as exc:
        raise _CliError(f"bad rational: {exc}")
    cfg = SearchConfig(entries=entries, weight=weight,
                       target_count=args.limit)
    omega_name = ws.omega_of[("algebra", alg_name)]
    if _fails_as_semigroup(omega_name, inst.omega):
        return EXIT_VIOLATIONS
    found = brute_force_rb_search(inst, cfg)
    out_ws = Workspace()
    out_ws.semigroups[omega_name] = inst.omega
    # as wide as the last index, so that sorted names keep search order
    width = max(3, len(str(len(found) - 1)))
    for idx, rb in enumerate(found):
        name = f"rb{idx:0{width}d}"
        out_ws.rota_baxter[name] = rb
        out_ws.omega_of[("rb", name)] = omega_name
    comments = (f"search-rb over {alg_name}: entries {args.entries}, "
                f"weight {weight}, found {len(found)}",)
    _write_text(args.out, serialize_workspace(out_ws, comments))
    print(f"found {len(found)} operator families", file=sys.stderr)
    return EXIT_OK


def _decimal(text: str) -> Fraction:
    """A rational or decimal text, such as "1/3" or a JSON decimal, read
    exactly; its exponent may be no larger than a JSON integer's 4300
    digits, so that no power of ten is too large, its denominator
    nonzero, and its numerator and denominator no longer than Python
    prints (4300 digits by default)."""
    if abs(int(text.lower().partition("e")[2] or 0)) > 4300:
        raise ValueError(f"exponent of {text} exceeds 4300")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text} has a zero denominator") from None
    limit = sys.get_int_max_str_digits()
    if limit and max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise ValueError(f"{text} has a numerator or denominator of more "
                         f"than {limit} digits")
    return value


def _scalar(value) -> Fraction:
    """A parameter scalar: an integer, a string such as "1/3" or a JSON
    decimal, but not `true` or `false`, which `Fraction` reads as 1 and 0."""
    if isinstance(value, bool):
        raise ValueError("scalars must not be true or false")
    return _decimal(value) if isinstance(value, str) else Fraction(value)


def _load_two_dim_params(path: str):
    text = _read_text(path)
    try:
        doc = json.loads(text, parse_float=_decimal)
    except (ValueError, RecursionError) as exc:
        raise _CliError(f"bad JSON in {path}: {exc}")
    try:
        om = doc["omega"]
        if not isinstance(om["elements"], list):
            raise ValueError("'elements' must be a list of labels")
        elements = tuple(om["elements"])
        if not elements:
            raise ValueError("'elements' must name at least one element")
        # the labels the workspace format reads back
        if len(set(elements)) != len(elements) or not all(
                isinstance(e, str) and e.isascii() and e.isidentifier()
                for e in elements):
            raise ValueError("element labels must be distinct identifiers")
        table = tuple(tuple(row) for row in om["table"])
        if not all(type(v) is int for row in table for v in row):
            raise ValueError("table entries must be integers")
        commutative = om.get("commutative", False)
        if not isinstance(commutative, bool):
            raise ValueError("'commutative' must be true or false")
        omega = SemigroupTable(elements, table, commutative)
        c, rthree, lthree = doc["c"], doc["rthree"], doc["lthree"]
        # a string or an object would be read through its characters or keys
        if not (isinstance(c, list) and all(isinstance(row, list) for row in c)):
            raise ValueError("'c' must be a list of lists of scalars")
        if not (isinstance(rthree, list) and isinstance(lthree, list)):
            raise ValueError("'rthree' and 'lthree' must be lists of scalars")
        c = [[_scalar(v) for v in row] for row in c]
        rthree, lthree = ([_scalar(v) for v in s] for s in (rthree, lthree))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise _CliError(f"bad parameter document: {exc}")
    return two_dim_params(omega, c, rthree, lthree)


def _cmd_example(args) -> int:
    if args.which != "two-dim":
        raise _CliError(f"unknown example {args.which!r}; only 'two-dim' exists")
    params = _load_two_dim_params(args.params)
    if _fails_as_semigroup("W", params.omega):
        return EXIT_VIOLATIONS
    bad = params.violations()
    if bad:
        for condition, indices in bad:
            print(f"FAIL side-condition {condition} at ({', '.join(indices)})")
        return EXIT_VIOLATIONS
    report = two_dim_reading_report(params)
    out_ws = Workspace()
    out_ws.semigroups["W"] = params.omega
    for reading, (inst, check) in report.items():
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{verdict} two-dim reading={reading} "
              f"(q maps e2 to a multiple of {reading})")
        name = f"two_dim_{reading}"
        out_ws.algebras[name] = inst
        out_ws.omega_of[("algebra", name)] = "W"
    if args.out is not None:
        _write_text(args.out, serialize_workspace(
            out_ws, ("example: two-dim, both readings of the second "
                     "structure map",)))
    return (EXIT_OK if all(check.passed for _, check in report.values())
            else EXIT_VIOLATIONS)


def _cmd_fmt(args) -> int:
    ws = _read_workspace(args.workspace)
    _write_text(args.out, serialize_workspace(ws))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and kept."""
    parser = argparse.ArgumentParser(
        prog="bihomega",
        description="Exact checkers and constructions for semigroup-indexed "
                    "twisted algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run every axiom checker")
    p_check.add_argument("workspace")
    p_check.add_argument("--axiom", default=None)
    p_check.add_argument("--max-witnesses", type=_int_at_least(0),
                         default=DEFAULT_WITNESS_CAP)
    p_check.add_argument("--json", action="store_true")

    p_con = sub.add_parser("construct", help="run a checked transform")
    p_con.add_argument("name")
    p_con.add_argument("--input", required=True)
    p_con.add_argument("--algebra", default=None)
    p_con.add_argument("--rb", default=None)
    p_con.add_argument("--p2", default=None)
    p_con.add_argument("--q2", default=None)
    p_con.add_argument("--as-name", default=None)
    p_con.add_argument("--out", default=None)

    p_search = sub.add_parser(
        "search-rb", help="exhaustive operator family search, pruned index "
                          "by index; the checker decides every hit")
    p_search.add_argument("--algebra", required=True)
    p_search.add_argument("--name", default=None)
    p_search.add_argument("--entries", default="-1,0,1")
    p_search.add_argument("--weight", default="0")
    p_search.add_argument("--limit", type=_int_at_least(1), default=None)
    p_search.add_argument("--out", default=None)

    p_ex = sub.add_parser("example", help="build a worked example")
    p_ex.add_argument("which")
    p_ex.add_argument("--params", required=True)
    p_ex.add_argument("--out", default=None)

    p_fmt = sub.add_parser("fmt", help="rewrite a workspace canonically")
    p_fmt.add_argument("workspace")
    p_fmt.add_argument("--out", default=None)
    return parser


def _join_signed_values(argv: list[str]) -> list[str]:
    """`search-rb --entries -1,0` as `--entries=-1,0`, and so for
    `--weight`: argparse reads a value that starts with "-" and is no
    plain negative number as a flag."""
    if "search-rb" not in argv[:1]:
        return argv
    out = []
    for arg in argv:
        if (out and out[-1] in _SIGNED_FLAGS and _SIGNED_VALUE.match(arg)
                and "--" not in out):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(
            _join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # looked up at each call, so that a replaced command is the one run
        code = globals()["_cmd_" + args.command.replace("-", "_")](args)
        # a closed pipe shows up here, not at the interpreter's exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output early; the output is cut short
        _silence_stdout()
        return EXIT_USAGE
    except (_CliError, BihomegaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(exc, "report", None) is not None:
            print(exc.report.summary(), file=sys.stderr)
        # a failed check or side condition is a verdict; anything else, usage
        return (EXIT_VIOLATIONS if isinstance(exc, (CheckFailed, ConditionViolated))
                else EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
