"""Structured pass/fail reports with explicit violation witnesses."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence

REPORT_FORMAT_VERSION = 1
DEFAULT_WITNESS_CAP = 10


def _full(value) -> str:
    """str(value) of an int or a Fraction, however long: Decimal prints an
    int past the digit limit of str, which the parsers keep."""
    value = Fraction(value)
    num = str(Decimal(value.numerator))
    return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


def _fmt_vector(vec) -> str:
    return "(" + ", ".join(map(_full, vec)) + ")"


@dataclass(frozen=True)
class Witness:
    """One concrete violation: index tuple, basis tuple, both sides."""

    indices: tuple[str, ...]
    basis: tuple[int, ...]
    lhs: tuple
    rhs: tuple

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "basis": list(self.basis),
            "lhs": [_full(v) for v in self.lhs],
            "rhs": [_full(v) for v in self.rhs],
        }

    def describe(self) -> str:
        parts = ["indices=" + ",".join(self.indices)]
        if self.basis:
            parts.append("basis=" + ",".join(f"e{i + 1}" for i in self.basis))
        parts.append("lhs=" + _fmt_vector(self.lhs))
        parts.append("rhs=" + _fmt_vector(self.rhs))
        return " ".join(parts)


@dataclass(frozen=True)
class AxiomResult:
    """Verdict for one named axiom.

    witnesses is truncated to the configured cap; total_violations is the
    untruncated count.
    """

    axiom: str
    witnesses: tuple[Witness, ...]
    total_violations: int

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "total_violations": self.total_violations,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def collect(axiom: str, names: Sequence[str],
            groups: Iterable[tuple[tuple[int, ...], tuple]], cap: int,
            convert: Callable[[tuple], tuple] = tuple) -> AxiomResult:
    """The verdict on an ordered stream of (index tuple, its violations)
    groups, each violation a (basis tuple, lhs, rhs): every group adds
    its length to the total, and the first `cap` violations are kept as
    witnesses, with each index named by `names` and each side passed
    through `convert`."""
    witnesses, total = [], 0
    for idx, found in groups:
        total += len(found)
        for bas, lhs, rhs in found[:max(cap - len(witnesses), 0)]:
            witnesses.append(Witness(tuple(names[a] for a in idx), bas,
                                     convert(lhs), convert(rhs)))
    return AxiomResult(axiom, tuple(witnesses), total)


@dataclass(frozen=True)
class CheckReport:
    """Composite report: one result per axiom of the checked structure."""

    subject: str
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, axiom: str) -> AxiomResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def axiom_names(self) -> tuple[str, ...]:
        return tuple(r.axiom for r in self.results)

    def restrict(self, axiom: str) -> "CheckReport":
        return CheckReport(self.subject, (self.result(axiom),))

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "subject": self.subject,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            suffix = "" if r.passed else f" ({r.total_violations} violations)"
            lines.append(f"{status} {self.subject} {r.axiom}{suffix}")
            for w in r.witnesses:
                lines.append(f"    witness {w.describe()}")
        return lines

    def summary(self) -> str:
        return "\n".join(self.summary_lines())
