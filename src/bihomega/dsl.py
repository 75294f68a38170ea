"""Workspace text format: parser and canonical serializer.

A workspace holds named semigroups, algebras, linear-map families and
operator families.  The grammar is LL(1); `#` starts a comment running
to end of line.  Serialization is canonical: names sorted, rationals in
lowest terms with explicit coefficients, only nonzero tensor entries
written, fixed two-space indentation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (AlgebraInstance, AlgebraKind, BilinearFamily, LinearFamily,
                   RotaBaxterFamily, new_instance)
from .errors import ParseError, ResolutionError
from .linalg import Matrix
from .semigroup import SemigroupTable

HEADER = "# bihomega workspace"

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}()\[\]:;,*=+\-/]")
_KINDS = {k.value: k for k in AlgebraKind}


@dataclass
class Workspace:
    semigroups: dict[str, SemigroupTable] = field(default_factory=dict)
    algebras: dict[str, AlgebraInstance] = field(default_factory=dict)
    linear_maps: dict[str, LinearFamily] = field(default_factory=dict)
    rota_baxter: dict[str, RotaBaxterFamily] = field(default_factory=dict)
    omega_of: dict[tuple[str, str], str] = field(default_factory=dict)

    def semigroup_name(self, table: SemigroupTable) -> str:
        for name, t in self.semigroups.items():
            if t == table:
                return name
        raise ResolutionError("instance's semigroup is not in the workspace")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        code = line.split("#", 1)[0]
        pos = 0
        while pos < len(code):
            ch = code[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(code, pos)
            if not m or m.start() != pos:
                raise ParseError(lineno, pos + 1, "a token", ch)
            tokens.append(_Token(m.group(), lineno, pos + 1))
            pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ws = Workspace()

    # token plumbing -------------------------------------------------

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, expected: str):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError(last.line, last.column + len(last.text),
                             expected, "end of input")
        raise ParseError(tok.line, tok.column, expected, tok.text)

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            self._fail(expected)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._peek()
        if tok is None or tok.text != text:
            self._fail(repr(text))
        self.pos += 1
        return tok

    def _accept(self, text: str) -> bool:
        tok = self._peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False

    def _ident(self, what: str = "an identifier") -> str:
        tok = self._peek()
        if tok is None or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok.text):
            self._fail(what)
        self.pos += 1
        return tok.text

    def _int(self) -> int:
        tok = self._peek()
        if tok is None or not tok.text.isdigit():
            self._fail("an integer")
        self.pos += 1
        return int(tok.text)

    def _dim(self, what: str) -> int:
        self._expect("dim")
        dim = self._int()
        if dim < 1:
            raise ResolutionError(f"{what} must have dim at least 1")
        return dim

    def _rational(self) -> Fraction:
        sign = -1 if self._accept("-") else 1
        num = self._int()
        if self._accept("/"):
            den = self._int()
            if den == 0:
                self._fail("a nonzero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # grammar --------------------------------------------------------

    def parse(self) -> Workspace:
        while self._peek() is not None:
            tok = self._peek()
            if tok.text == "semigroup":
                self._parse_semigroup()
            elif tok.text == "algebra":
                self._parse_algebra()
            elif tok.text == "maps":
                self._parse_maps()
            elif tok.text == "rota_baxter":
                self._parse_rb()
            else:
                self._fail("'semigroup', 'algebra', 'maps' or 'rota_baxter'")
        return self.ws

    def _parse_semigroup(self):
        self._expect("semigroup")
        name = self._ident("a semigroup name")
        if name in self.ws.semigroups:
            raise ResolutionError(f"duplicate semigroup name {name!r}")
        self._expect("{")
        self._expect("elements")
        elements = []
        while not self._accept(";"):
            elements.append(self._ident("an element label or ';'"))
        if not elements:
            self._fail("at least one element label")
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != len(elements):
            raise ResolutionError(f"duplicate element label in semigroup {name!r}")
        self._expect("table")
        self._expect("{")
        n = len(elements)
        table = [[None] * n for _ in range(n)]
        while not self._accept("}"):
            a = self._element(index, name)
            self._expect("*")
            b = self._element(index, name)
            self._expect("=")
            r = self._element(index, name)
            self._expect(";")
            table[a][b] = r
        for i in range(n):
            for j in range(n):
                if table[i][j] is None:
                    raise ResolutionError(
                        f"semigroup {name!r} table is missing "
                        f"{elements[i]}*{elements[j]}")
        commutative = False
        if self._accept("commutative"):
            self._expect(";")
            commutative = True
        self._expect("}")
        self.ws.semigroups[name] = SemigroupTable(
            tuple(elements), tuple(tuple(row) for row in table), commutative)

    def _element(self, index: dict[str, int], sg_name: str) -> int:
        label = self._ident("an element label")
        if label not in index:
            raise ResolutionError(
                f"unknown element {label!r} of semigroup {sg_name!r}")
        return index[label]

    def _resolve_semigroup(self, name: str) -> SemigroupTable:
        if name not in self.ws.semigroups:
            raise ResolutionError(f"unknown semigroup {name!r}")
        return self.ws.semigroups[name]

    def _parse_matrix(self, dim: int) -> Matrix:
        self._expect("[")
        rows = []
        while True:
            self._expect("[")
            row = [self._rational()]
            while self._accept(","):
                row.append(self._rational())
            self._expect("]")
            rows.append(row)
            if not self._accept(","):
                break
        self._expect("]")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ResolutionError(f"matrix must be {dim}x{dim}")
        return Matrix.from_rows(rows)

    def _parse_map_body(self, omega: SemigroupTable, dim: int,
                        owner: str) -> LinearFamily:
        index = {e: i for i, e in enumerate(omega.elements)}
        mats: dict[int, Matrix] = {}
        self._expect("{")
        while not self._accept("}"):
            a = self._element(index, owner)
            self._expect(":")
            mats[a] = self._parse_matrix(dim)
            self._expect(";")
        missing = [omega.elements[i] for i in range(omega.order) if i not in mats]
        if missing:
            raise ResolutionError(
                f"{owner}: missing matrices for elements {missing}")
        return LinearFamily(omega, dim,
                            tuple(mats[i] for i in range(omega.order)))

    def _parse_maps(self):
        self._expect("maps")
        name = self._ident("a family name")
        if name in self.ws.linear_maps:
            raise ResolutionError(f"duplicate maps name {name!r}")
        self._expect("over")
        omega_name = self._ident("a semigroup name")
        omega = self._resolve_semigroup(omega_name)
        dim = self._dim(f"maps {name!r}")
        fam = self._parse_map_body(omega, dim, f"maps {name!r}")
        self.ws.linear_maps[name] = fam
        self.ws.omega_of[("maps", name)] = omega_name

    def _parse_rb(self):
        self._expect("rota_baxter")
        name = self._ident("a family name")
        if name in self.ws.rota_baxter:
            raise ResolutionError(f"duplicate rota_baxter name {name!r}")
        self._expect("over")
        omega_name = self._ident("a semigroup name")
        omega = self._resolve_semigroup(omega_name)
        dim = self._dim(f"rota_baxter {name!r}")
        self._expect("weight")
        weight = self._rational()
        fam = self._parse_map_body(omega, dim, f"rota_baxter {name!r}")
        self.ws.rota_baxter[name] = RotaBaxterFamily(fam, weight)
        self.ws.omega_of[("rb", name)] = omega_name

    def _parse_lincomb(self, dim: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * dim
        while True:
            tok = self._peek()
            if tok is None:
                self._fail("a term")
            if re.fullmatch(r"e\d+", tok.text):
                coeff = Fraction(1)
                basis_tok = self._next("a basis vector")
            else:
                coeff = self._rational()
                tok = self._peek()
                if tok is not None and re.fullmatch(r"e\d+", tok.text):
                    basis_tok = self._next("a basis vector")
                elif coeff == 0:
                    basis_tok = None
                else:
                    self._fail("a basis vector like 'e1'")
            if basis_tok is not None:
                k = int(basis_tok.text[1:])
                if not 1 <= k <= dim:
                    raise ResolutionError(
                        f"basis vector e{k} out of range for dim {dim}")
                out[k - 1] += coeff
            if not self._accept("+"):
                break
        return tuple(out)

    def _parse_algebra(self):
        self._expect("algebra")
        name = self._ident("an algebra name")
        if name in self.ws.algebras:
            raise ResolutionError(f"duplicate algebra name {name!r}")
        self._expect(":")
        kind_name = self._ident("an algebra kind")
        if kind_name not in _KINDS:
            raise ResolutionError(f"unknown algebra kind {kind_name!r}")
        kind = _KINDS[kind_name]
        self._expect("over")
        omega_name = self._ident("a semigroup name")
        omega = self._resolve_semigroup(omega_name)
        dim = self._dim(f"algebra {name!r}")
        self._expect("{")
        element_index = {e: i for i, e in enumerate(omega.elements)}
        n = omega.order
        product_entries: dict[str, dict] = {}
        p_fam = q_fam = None
        while not self._accept("}"):
            tok = self._peek()
            if tok is not None and tok.text == "product":
                self._expect("product")
                slot = self._ident("a product name")
                if slot not in kind.product_slots:
                    raise ResolutionError(
                        f"kind {kind_name} has no product {slot!r}")
                if slot in product_entries:
                    raise ResolutionError(f"duplicate product block {slot!r}")
                entries: dict[tuple[int, int, int, int], tuple] = {}
                self._expect("{")
                while not self._accept("}"):
                    self._expect("(")
                    a = self._element(element_index, name)
                    self._expect(",")
                    b = self._element(element_index, name)
                    self._expect(")")
                    self._expect(":")
                    i = self._basis_index(dim)
                    self._expect("*")
                    j = self._basis_index(dim)
                    self._expect("=")
                    entries[(a, b, i, j)] = self._parse_lincomb(dim)
                    self._expect(";")
                product_entries[slot] = entries
            elif tok is not None and tok.text == "map":
                self._expect("map")
                which = self._ident("'p' or 'q'")
                if which not in ("p", "q"):
                    self._fail("'p' or 'q'")
                fam = self._parse_map_body(omega, dim, f"algebra {name!r}")
                if which == "p":
                    p_fam = fam
                else:
                    q_fam = fam
            else:
                self._fail("'product', 'map' or '}'")
        zero = (Fraction(0),) * dim
        products = []
        for slot in kind.product_slots:
            entries = product_entries.get(slot, {})
            products.append((slot, BilinearFamily.from_function(
                omega, dim,
                lambda a, b, i, j, entries=entries:
                    entries.get((a, b, i, j), zero))))
        p_fam = p_fam or LinearFamily.identity(omega, dim)
        q_fam = q_fam or LinearFamily.identity(omega, dim)
        try:
            inst = new_instance(kind, omega, tuple(products), p_fam, q_fam)
        except Exception as exc:
            raise ResolutionError(f"algebra {name!r}: {exc}") from exc
        self.ws.algebras[name] = inst
        self.ws.omega_of[("algebra", name)] = omega_name

    def _basis_index(self, dim: int) -> int:
        tok = self._peek()
        if tok is None or not re.fullmatch(r"e\d+", tok.text):
            self._fail("a basis vector like 'e1'")
        self.pos += 1
        k = int(tok.text[1:])
        if not 1 <= k <= dim:
            raise ResolutionError(f"basis vector e{k} out of range for dim {dim}")
        return k - 1


def parse_workspace(text: str) -> Workspace:
    return _Parser(text).parse()


# serialization ------------------------------------------------------


def _fmt_matrix(m: Matrix) -> str:
    rows = ", ".join(
        "[" + ", ".join(str(v) for v in m.row(i)) + "]" for i in range(m.rows))
    return "[" + rows + "]"


def _fmt_lincomb(vec: tuple) -> str:
    terms = [f"{v} e{k + 1}" for k, v in enumerate(vec) if v != 0]
    return " + ".join(terms)


def _serialize_semigroup(name: str, t: SemigroupTable) -> list[str]:
    lines = [f"semigroup {name} {{"]
    lines.append("  elements " + " ".join(t.elements) + ";")
    lines.append("  table {")
    for i, a in enumerate(t.elements):
        for j, b in enumerate(t.elements):
            lines.append(f"    {a}*{b} = {t.elements[t.table[i][j]]};")
    lines.append("  }")
    if t.commutative:
        lines.append("  commutative;")
    lines.append("}")
    return lines


def _serialize_map_body(fam: LinearFamily, indent: str) -> list[str]:
    lines = []
    for a, label in enumerate(fam.omega.elements):
        lines.append(f"{indent}{label}: {_fmt_matrix(fam.maps[a])};")
    return lines


def _serialize_algebra(name: str, omega_name: str,
                       inst: AlgebraInstance) -> list[str]:
    lines = [f"algebra {name} : {inst.kind.value} over {omega_name} "
             f"dim {inst.dim} {{"]
    elements = inst.omega.elements
    for slot, fam in inst.products:
        lines.append(f"  product {slot} {{")
        for a in range(inst.omega.order):
            for b in range(inst.omega.order):
                for i in range(inst.dim):
                    for j in range(inst.dim):
                        cell = fam.basis_product(a, b, i, j)
                        if any(v != 0 for v in cell):
                            lines.append(
                                f"    ({elements[a]},{elements[b]}): "
                                f"e{i + 1}*e{j + 1} = {_fmt_lincomb(cell)};")
        lines.append("  }")
    for which, fam in (("p", inst.p), ("q", inst.q)):
        lines.append(f"  map {which} {{")
        lines.extend(_serialize_map_body(fam, "    "))
        lines.append("  }")
    lines.append("}")
    return lines


def serialize_workspace(ws: Workspace, header_comments: tuple[str, ...] = ()
                        ) -> str:
    lines = [HEADER]
    for comment in header_comments:
        lines.append(f"# {comment}")
    for name in sorted(ws.semigroups):
        lines.append("")
        lines.extend(_serialize_semigroup(name, ws.semigroups[name]))
    for name in sorted(ws.linear_maps):
        fam = ws.linear_maps[name]
        omega_name = ws.omega_of[("maps", name)]
        lines.append("")
        lines.append(f"maps {name} over {omega_name} dim {fam.dim} {{")
        lines.extend(_serialize_map_body(fam, "  "))
        lines.append("}")
    for name in sorted(ws.rota_baxter):
        rb = ws.rota_baxter[name]
        omega_name = ws.omega_of[("rb", name)]
        lines.append("")
        lines.append(f"rota_baxter {name} over {omega_name} dim {rb.maps.dim} "
                     f"weight {rb.weight} {{")
        lines.extend(_serialize_map_body(rb.maps, "  "))
        lines.append("}")
    for name in sorted(ws.algebras):
        omega_name = ws.omega_of[("algebra", name)]
        lines.append("")
        lines.extend(_serialize_algebra(name, omega_name, ws.algebras[name]))
    return "\n".join(lines) + "\n"


def workspace_for_instance(name: str, omega_name: str,
                           inst: AlgebraInstance) -> Workspace:
    ws = Workspace()
    ws.semigroups[omega_name] = inst.omega
    ws.algebras[name] = inst
    ws.omega_of[("algebra", name)] = omega_name
    return ws
