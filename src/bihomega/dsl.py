"""Workspace text format: parser and canonical serializer.

A workspace holds named semigroups, algebras, linear-map families and
operator families.  The grammar is LL(1); `#` starts a comment anywhere
on a line and runs to its end.  A linear combination's coefficient is
optional (`e2` means `1 e2`) and a bare `0` stands for the zero vector.
A name or entry repeated within its scope is an error.  A stray
character anywhere is reported first; then the parser reads the text
through a cursor that holds the next token's text and offset, found past
whitespace and comments by one anchored regex match.  In a product block
or map body, a run of statements in exactly the serializer's spacing is
read by one regex match each, with one cursor move past the run; any
other statement, or one the read rejects, goes from where it stands to
the token rules, which give the same result, so nothing is parsed twice.
Line and column are worked out only when an error is raised, from the
offset of the token it is placed at.
Serialization is canonical: names sorted, rationals in lowest terms with
explicit coefficients, only nonzero product entries written, fixed
two-space indentation.  A numerator or denominator is written only if
Python prints it, so it is one the parser reads back.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .core import (AlgebraInstance, AlgebraKind, BilinearFamily, LinearFamily,
                   Ratios, RotaBaxterFamily, new_instance)
from .errors import NumberTooLong, ParseError, ResolutionError
from .linalg import Matrix
from .semigroup import SemigroupTable

HEADER = "# bihomega workspace"

# A token is an identifier, an integer or one punctuation character.  Only
# "\n" ends a line; other whitespace, like a comment, is skipped.
_PUNCT = r"{}()\[\]:;,*=+\-/"
_TOKEN = rf"[A-Za-z_][A-Za-z0-9_]*|\d+|[{_PUNCT}]"
_TOKEN_RE = re.compile(_TOKEN)
# the next token past whitespace and comments, if there is one
_NEXT_RE = re.compile(rf"(?:\s+|#[^\n]*)*({_TOKEN})?")
# A whole statement in the serializer's spacing, and the whitespace after
# it: `(a,b): e1*e2 = -45/7 e1 + 3 e2;` or `a: [[1, -1/2], [0, 3]];`.  No
# space in it is optional, so a match or a failure takes one pass.  It
# ends where a token does and holds no comment, so the token rules would
# read it as the tokens its groups are read from.
_ID, _INT = "[A-Za-z_][A-Za-z0-9_]*", "[0-9]+"
_RATIONAL = rf"-?{_INT}(?:/{_INT})?"
_TERM = rf"{_RATIONAL} e{_INT}"
_ROW = rf"\[{_RATIONAL}(?:, {_RATIONAL})*\]"
_ENTRY_RE = re.compile(
    rf"\((?P<a>{_ID}),(?P<b>{_ID})\): e(?P<i>{_INT})\*e(?P<j>{_INT}) = "
    rf"(?P<terms>{_TERM}(?: \+ {_TERM})*);\s*")
_MAP_ROW_RE = re.compile(
    rf"(?P<label>{_ID}): \[(?P<rows>{_ROW}(?:, {_ROW})*)\];\s*")
# the parts of a matched statement: a term's signed numerator, denominator
# and vector, a row, and a rational's signed numerator and denominator
_PARTS = rf"(-?{_INT})(?:/({_INT}))?"
_TERM_RE = re.compile(rf"{_PARTS} e({_INT})")
_ROW_RE = re.compile(r"\[([^\]]*)\]")
_RATIONAL_RE = re.compile(_PARTS)
# up to the first stray character: each of the class starts a token
_CLEAN_RE = re.compile(rf"(?:[\sA-Za-z_\d{_PUNCT}]+|#[^\n]*)*")
_END = "#"      # the next token at the end of input: no token is "#"
# the kinds a rule takes, told by a token's first character (no token
# starts with a non-ASCII letter: that is a stray character)
_IS_KIND = {"ident": lambda c: c.isalpha() or c == "_", "int": str.isdecimal}
_KINDS = {k.value: k for k in AlgebraKind}


@dataclass
class Workspace:
    semigroups: dict[str, SemigroupTable] = field(default_factory=dict)
    algebras: dict[str, AlgebraInstance] = field(default_factory=dict)
    linear_maps: dict[str, LinearFamily] = field(default_factory=dict)
    rota_baxter: dict[str, RotaBaxterFamily] = field(default_factory=dict)
    omega_of: dict[tuple[str, str], str] = field(default_factory=dict)


def _place(text: str, offset: int) -> tuple[int, int]:
    """The line and column of an offset: only "\n" ends a line."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _is_basis(tok: str) -> bool:
    """A basis vector: an identifier made of `e` and digits."""
    return tok[0] == "e" and tok[1:].isdigit()


# A statement read by one match gets every check the token rules make,
# but gives None where they raise; it gives None for a repeated vector
# too, which the token rules add up.  Past the digit limit int() raises
# ValueError, and n/0 Fraction raises ZeroDivisionError.
_NOT_READ = (KeyError, ValueError, ZeroDivisionError)


def _read_entry(m: re.Match, index: dict[str, int], dim: int
                ) -> tuple[tuple[int, int, int, int], Ratios] | None:
    """A matched product entry from its groups."""
    a, b, i, j, terms = m.group("a", "b", "i", "j", "terms")
    try:
        key = (index[a], index[b], int(i) - 1, int(j) - 1)
        nums, dens = [0] * dim, [0] * dim
        for num, den, k in _TERM_RE.findall(terms):
            k, d = int(k) - 1, int(den or 1)
            if not (0 <= k < dim and d) or dens[k]:
                return None
            nums[k], dens[k] = int(num), d
    except _NOT_READ:
        return None
    return (key, (nums, dens)) if 0 <= key[2] < dim and 0 <= key[3] < dim else None


def _read_map_row(m: re.Match, index: dict[str, int], dim: int
                  ) -> tuple[int, Matrix] | None:
    """A matched map row statement from its groups."""
    label, body = m.group("label", "rows")
    # the shape and the label are checked before any entry is built
    rows = [_RATIONAL_RE.findall(row) for row in _ROW_RE.findall(body)]
    if len(rows) != dim or any(len(r) != dim for r in rows) or label not in index:
        return None
    try:
        return index[label], Matrix.from_rows(
            [[Fraction(int(n), int(d or 1)) for n, d in row] for row in rows])
    except _NOT_READ:
        return None


class _Parser:
    def __init__(self, text: str):
        """A cursor over the text: the next token's text and offset, and
        the offset of the token before it.  Only `_block`, the loop of a
        product block or map body, tries whole statements."""
        stray = _CLEAN_RE.match(text).end()
        if stray < len(text):
            raise ParseError(*_place(text, stray), "a token", text[stray])
        self.text, self.at = text, 0
        self._move(0)
        self.ws = Workspace()

    # token plumbing -------------------------------------------------

    def _move(self, at: int):
        """Make the first token at or past `at` the next one; past the
        last token, the end of input sits at `at`."""
        m = _NEXT_RE.match(self.text, at)
        self.prev, self.tok = self.at, m[1] or _END
        self.at = m.start(1) if m[1] else at

    def _fail(self, expected: str, back: bool = False):
        """Raise at the next token, or at the one before it."""
        if back:
            at, found = self.prev, _TOKEN_RE.match(self.text, self.prev)[0]
        else:
            at, found = self.at, "end of input" if self.tok == _END else self.tok
        raise ParseError(*_place(self.text, at), expected, found)

    def _expect(self, text: str):
        if not self._accept(text):
            self._fail(repr(text))

    def _accept(self, text: str) -> bool:
        if self.tok == text:
            self._move(self.at + len(text))
            return True
        return False

    def _take(self, kind: str, what: str) -> str:
        tok = self.tok
        if not _IS_KIND[kind](tok[0]):
            self._fail(what)
        self._move(self.at + len(tok))
        return tok

    def _int(self, digits: str, what: str) -> int:
        """The digits of the token just taken as an int, which Python
        converts only up to its digit limit (4300 by default)."""
        try:
            return int(digits)
        except ValueError:
            self._fail(f"{what} of at most {sys.get_int_max_str_digits()} "
                       "digits", back=True)

    def _integer(self) -> int:
        return self._int(self._take("int", "an integer"), "an integer")

    def _basis_index(self, dim: int) -> int:
        tok = self.tok
        if not _is_basis(tok):
            self._fail("a basis vector like 'e1'")
        self._move(self.at + len(tok))
        k = self._int(tok[1:], "a basis vector")
        if not 1 <= k <= dim:
            raise ResolutionError(f"basis vector e{k} out of range for dim {dim}")
        return k - 1

    def _name(self, keyword: str, taken: dict, what: str) -> str:
        name = self._take("ident", what)
        if name in taken:
            raise ResolutionError(f"duplicate {keyword} name {name!r}")
        return name

    def _over(self, owner: str) -> tuple[str, SemigroupTable, int]:
        """`over W dim D`, the clause algebra and family headers share."""
        self._expect("over")
        omega_name = self._take("ident", "a semigroup name")
        if omega_name not in self.ws.semigroups:
            raise ResolutionError(f"unknown semigroup {omega_name!r}")
        self._expect("dim")
        dim = self._integer()
        if dim < 1:
            raise ResolutionError(f"{owner} must have dim at least 1")
        return omega_name, self.ws.semigroups[omega_name], dim

    def _rational(self) -> tuple[int, int]:
        sign = -1 if self._accept("-") else 1
        num, den = self._integer(), 1
        if self._accept("/"):
            den = self._integer()
            if den == 0:
                self._fail("a nonzero denominator", back=True)
        return sign * num, den

    # grammar --------------------------------------------------------

    def parse(self) -> Workspace:
        rules = {"semigroup": self._parse_semigroup,
                 "algebra": self._parse_algebra,
                 "maps": self._parse_family,
                 "rota_baxter": self._parse_family}
        while (tok := self.tok) != _END:
            if tok not in rules:
                self._fail("'semigroup', 'algebra', 'maps' or 'rota_baxter'")
            self._move(self.at + len(tok))
            rules[tok](tok)
        return self.ws

    def _parse_semigroup(self, keyword: str):
        name = self._name(keyword, self.ws.semigroups, "a semigroup name")
        self._expect("{")
        self._expect("elements")
        elements = []
        while not self._accept(";"):
            elements.append(self._take("ident", "an element label or ';'"))
        if not elements:
            self._fail("at least one element label", back=True)
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
            if table[a][b] is not None:
                raise ResolutionError(
                    f"duplicate table entry {elements[a]}*{elements[b]} "
                    f"in semigroup {name!r}")
            table[a][b] = r
        missing = [f"{a}*{b}" for a, row in zip(elements, table)
                   for b, r in zip(elements, row) if r is None]
        if missing:
            raise ResolutionError(f"semigroup {name!r} table is missing {missing[0]}")
        if commutative := self._accept("commutative"):
            self._expect(";")
        self._expect("}")
        self.ws.semigroups[name] = SemigroupTable(
            tuple(elements), tuple(tuple(row) for row in table), commutative)

    def _element(self, index: dict[str, int], sg_name: str) -> int:
        label = self._take("ident", "an element label")
        if label not in index:
            raise ResolutionError(
                f"unknown element {label!r} of semigroup {sg_name!r}")
        return index[label]

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
        # the rows hold int pairs, so no value was built before the shape check
        return Matrix.from_rows([[Fraction(*v) for v in row] for row in rows])

    def _block(self, regex: re.Pattern, read, rule, omega_name: str,
               dim: int, duplicate) -> dict:
        """A `{ ... }` block as a dict of its statements' (key, value)
        reads; a key read twice raises `duplicate(key)`.  A run of
        statements in the serializer's spacing is read by one `regex` match
        and one `read` each, with one cursor move past the run; any other
        statement goes from where it stands to `rule`, then to its ';'."""
        index = {e: i for i, e in enumerate(self.ws.semigroups[omega_name].elements)}
        self._expect("{")
        text, at, block = self.text, self.at, {}
        while True:
            if (m := regex.match(text, at)) and (got := read(m, index, dim)):
                at = m.end()
            elif at > self.at:
                # the token before the cursor is the run's last ';'
                self._move(at)
                self.prev, at = text.rindex(";", 0, at), self.at
                continue
            elif self._accept("}"):
                return block
            else:
                got = rule(index, omega_name, dim)
                self._expect(";")
                at = self.at
            key, value = got
            if key in block:
                raise ResolutionError(duplicate(key))
            block[key] = value

    def _map_row(self, index: dict[str, int], omega_name: str,
                 dim: int) -> tuple[int, Matrix]:
        a = self._element(index, omega_name)
        self._expect(":")
        return a, self._parse_matrix(dim)

    def _parse_map_body(self, omega_name: str, dim: int,
                        owner: str) -> LinearFamily:
        omega = self.ws.semigroups[omega_name]
        mats = self._block(
            _MAP_ROW_RE, _read_map_row, self._map_row, omega_name, dim,
            lambda a: f"{owner}: duplicate matrix for element {omega.elements[a]!r}")
        missing = [omega.elements[i] for i in range(omega.order) if i not in mats]
        if missing:
            raise ResolutionError(
                f"{owner}: missing matrices for elements {missing}")
        return LinearFamily(omega, dim, tuple(mats[i] for i in range(omega.order)))

    def _parse_family(self, keyword: str):
        """A `maps` block, or a `rota_baxter` block, which adds a weight."""
        weighted = keyword == "rota_baxter"
        families = self.ws.rota_baxter if weighted else self.ws.linear_maps
        name = self._name(keyword, families, "a family name")
        owner = f"{keyword} {name!r}"
        omega_name, _, dim = self._over(owner)
        if weighted:
            self._expect("weight")
            weight = Fraction(*self._rational())
        fam = self._parse_map_body(omega_name, dim, owner)
        families[name] = RotaBaxterFamily(fam, weight) if weighted else fam
        self.ws.omega_of[("rb" if weighted else "maps", name)] = omega_name

    def _parse_lincomb(self, dim: int) -> Ratios:
        nums, dens = [0] * dim, [0] * dim
        while True:
            tok = self.tok
            if tok == _END:
                self._fail("a term")
            n, d = (1, 1) if _is_basis(tok) else self._rational()
            if n or _is_basis(self.tok):
                k = self._basis_index(dim)   # a repeated vector adds up
                nums[k], dens[k] = ((nums[k] * d + n * dens[k], dens[k] * d)
                                    if dens[k] else (n, d))
            if not self._accept("+"):
                break
        return nums, dens

    def _entry(self, index: dict[str, int], omega_name: str, dim: int
               ) -> tuple[tuple[int, int, int, int], Ratios]:
        self._expect("(")
        a = self._element(index, omega_name)
        self._expect(",")
        b = self._element(index, omega_name)
        self._expect(")")
        self._expect(":")
        i = self._basis_index(dim)
        self._expect("*")
        j = self._basis_index(dim)
        self._expect("=")
        return (a, b, i, j), self._parse_lincomb(dim)

    def _parse_algebra(self, keyword: str):
        name = self._name(keyword, self.ws.algebras, "an algebra name")
        self._expect(":")
        kind_name = self._take("ident", "an algebra kind")
        if kind_name not in _KINDS:
            raise ResolutionError(f"unknown algebra kind {kind_name!r}")
        kind = _KINDS[kind_name]
        owner = f"{keyword} {name!r}"
        omega_name, omega, dim = self._over(owner)
        self._expect("{")
        product_entries: dict[str, dict] = {}
        maps: dict[str, LinearFamily] = {}
        while not self._accept("}"):
            if self._accept("product"):
                slot = self._take("ident", "a product name")
                if slot not in kind.product_slots:
                    raise ResolutionError(
                        f"kind {kind_name} has no product {slot!r}")
                if slot in product_entries:
                    raise ResolutionError(f"duplicate product block {slot!r}")
                product_entries[slot] = self._block(
                    _ENTRY_RE, _read_entry, self._entry, omega_name, dim,
                    lambda k: "duplicate product entry ({},{}): e{}*e{} in algebra "
                    "{!r}".format(omega.elements[k[0]], omega.elements[k[1]],
                                  k[2] + 1, k[3] + 1, name))
            elif self._accept("map"):
                which = self._take("ident", "'p' or 'q'")
                if which not in ("p", "q"):
                    self._fail("'p' or 'q'", back=True)
                if which in maps:
                    raise ResolutionError(f"duplicate map block {which!r}")
                maps[which] = self._parse_map_body(omega_name, dim, owner)
            else:
                self._fail("'product', 'map' or '}'")
        products = tuple((slot, BilinearFamily.from_ratios(
            omega, dim, product_entries.get(slot, {}))) for slot in kind.product_slots)
        identity = None if len(maps) == 2 else LinearFamily.identity(omega, dim)
        try:
            inst = new_instance(kind, omega, products,
                                maps.get("p", identity), maps.get("q", identity))
        except Exception as exc:
            raise ResolutionError(f"algebra {name!r}: {exc}") from exc
        self.ws.algebras[name] = inst
        self.ws.omega_of[("algebra", name)] = omega_name


def parse_workspace(text: str) -> Workspace:
    return _Parser(text).parse()


# serialization ------------------------------------------------------


def _fmt_ratios(ints, den: int, suffixes) -> list[str]:
    """Each v/den as str(Fraction(v, den)) writes it, by one gcd apiece,
    then its suffix; a zero with a suffix, a term of a sum, is left out."""
    out = []
    for v, s in zip(ints, suffixes):
        if v or not s:
            g = gcd(v, den)
            out.append(f"{v // g}{s}" if g == den else f"{v // g}/{den // g}{s}")
    return out


def _fmt_matrix(m: Matrix) -> str:
    cols, bare = range(m.cols), [""] * m.cols
    rows = [_fmt_ratios([row.get(j, 0) for j in cols], m.den, bare)
            for row in map(dict, m.int_rows(m.den))]
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def _serialize_semigroup(name: str, t: SemigroupTable) -> list[str]:
    els = t.elements
    return [f"semigroup {name} {{", f"  elements {' '.join(els)};", "  table {",
            *(f"    {a}*{b} = {els[r]};"
              for a, row in zip(els, t.table) for b, r in zip(els, row)),
            "  }", *(["  commutative;"] if t.commutative else []), "}"]


def _serialize_map_body(fam: LinearFamily, indent: str) -> list[str]:
    return [f"{indent}{label}: {_fmt_matrix(m)};"
            for label, m in zip(fam.omega.elements, fam.maps)]


def _serialize_algebra(name: str, omega_name: str,
                       inst: AlgebraInstance) -> list[str]:
    lines = [f"algebra {name} : {inst.kind.value} over {omega_name} "
             f"dim {inst.dim} {{"]
    elements = inst.omega.elements
    vectors = [f" e{k}" for k in range(1, inst.dim + 1)]
    for slot, fam in inst.products:
        lines.append(f"  product {slot} {{")
        den = fam.den
        for (a, b, i, j), cell in fam.int_cells():
            terms = " + ".join(_fmt_ratios(cell, den, vectors))
            lines.append(f"    ({elements[a]},{elements[b]}): "
                         f"e{i + 1}*e{j + 1} = {terms};")
        lines.append("  }")
    for which, fam in (("p", inst.p), ("q", inst.q)):
        lines += [f"  map {which} {{", *_serialize_map_body(fam, "    "), "  }"]
    return lines + ["}"]


def serialize_workspace(ws: Workspace, header_comments: tuple[str, ...] = ()
                        ) -> str:
    """The workspace's canonical text; raises NumberTooLong for a number
    of more digits than Python prints and so than the parser reads."""
    try:
        return _serialize(ws, header_comments)
    except ValueError:
        raise NumberTooLong(
            "the workspace holds a number of more than "
            f"{sys.get_int_max_str_digits()} digits, which no workspace "
            "text reads back") from None


def _serialize(ws: Workspace, header_comments: tuple[str, ...]) -> str:
    lines = [HEADER]
    # a comment ends at a newline, so each line of one is a comment
    for comment in header_comments:
        lines.extend(f"# {line}" for line in comment.split("\n"))
    for name in sorted(ws.semigroups):
        lines += ["", *_serialize_semigroup(name, ws.semigroups[name])]
    families = [(f"maps {name} over {ws.omega_of[('maps', name)]} "
                 f"dim {fam.dim}", fam)
                for name, fam in sorted(ws.linear_maps.items())]
    families += [(f"rota_baxter {name} over {ws.omega_of[('rb', name)]} "
                  f"dim {rb.maps.dim} weight {rb.weight}", rb.maps)
                 for name, rb in sorted(ws.rota_baxter.items())]
    for header, fam in families:
        lines += ["", header + " {", *_serialize_map_body(fam, "  "), "}"]
    for name in sorted(ws.algebras):
        omega_name = ws.omega_of[("algebra", name)]
        lines += ["", *_serialize_algebra(name, omega_name, ws.algebras[name])]
    return "\n".join(lines) + "\n"


def workspace_for_instance(name: str, omega_name: str,
                           inst: AlgebraInstance) -> Workspace:
    ws = Workspace()
    ws.semigroups[omega_name] = inst.omega
    ws.algebras[name] = inst
    ws.omega_of[("algebra", name)] = omega_name
    return ws
