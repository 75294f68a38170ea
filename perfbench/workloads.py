"""Seeded inputs, operations and correctness gates for the workloads.

Every workload is a stream of rounds.  A round is a fixed list of
operations whose inputs follow from (seed, round number) alone; a run
executes whole rounds, so each run measures the same mix of operations.
Inputs are exact rationals and are built only through the public
bihomega API; the library is looked up through its modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cells import candidate_rank, candidates_decided, report_cells

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path("perfbench") / ".work"
KINDS = ("omega_associative", "bihom_associative", "dendriform", "prelie",
         "lie", "postlie", "zinbiel", "prepoisson")
SEARCH_ENTRIES = (Fraction(-1), Fraction(0), Fraction(1))
WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1))
# golden.json holds the digests of check and cli outputs for these seeds
GOLDEN_SEEDS = 20


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def report_digest(report) -> str:
    return digest(json.dumps(report.to_dict(), sort_keys=True))


@dataclass
class Op:
    """One closed-loop call: run() is timed, check() is not."""

    key: str                      # names the input, for recorded digests
    label: str                    # kind / search / command, for breakdowns
    run: Callable[[], object]
    work: Callable[[object], int]
    check: Callable[[object], tuple[bool, str]]   # (correct, digest)
    span: str | None = None       # span the traced run opens around run()


@dataclass
class Workload:
    name: str
    seed: int
    rounds: dict[int, list[Op]] = field(default_factory=dict)

    def ops(self, r: int) -> list[Op]:
        if r not in self.rounds:
            self.rounds = {r: self.make_round(r)}
        return self.rounds[r]

    def make_round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def rng(self, r: int, salt: str = "") -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{r}/{salt}")

    def recorded(self) -> bool:
        """Whether golden.json holds a digest for every operation."""
        return self.seed in range(GOLDEN_SEEDS)

    def cleanup(self):
        """Remove what the workload wrote; nothing by default."""


def _lib():
    import bihomega
    return bihomega


def load_oracle():
    """The test suite's classical checkers, which share no code with the
    library."""
    spec = importlib.util.spec_from_file_location(
        "classical", ROOT / "tests" / "classical.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- small exact linear algebra, independent of the library ------------


def _identity(d):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _matvec(m, x):
    return [sum((m[i][j] * x[j] for j in range(len(x))), Fraction(0))
            for i in range(len(m))]


def _unimodular(rng, d):
    """Integer matrix of determinant +-1 and its integer inverse: a chain
    of row operations with random signs, then a random row order.  The
    pattern is fixed so that every seed gets inputs of the same density."""
    m, inv = _identity(d), _identity(d)
    for i in range(1, d):
        c = rng.choice((-1, 1))
        m[i] = [u + c * v for u, v in zip(m[i], m[i - 1])]
        # the inverse operation applied on the right: column i-1 -= c col i
        for row in inv:
            row[i - 1] -= c * row[i]
    order = rng.sample(range(d), d)
    return [m[k] for k in order], [[row[k] for k in order] for row in inv]


def _cube_apply(cube, x, y):
    d = len(cube)
    out = [Fraction(0)] * d
    for i in range(d):
        if x[i]:
            for j in range(d):
                if y[j]:
                    for k in range(d):
                        out[k] += x[i] * y[j] * cube[i][j][k]
    return out


def _transport(cube, b, b_inv):
    """Structure constants of m'(x, y) = B m(B^-1 x, B^-1 y)."""
    d = len(cube)
    cols = [[b_inv[r][i] for r in range(d)] for i in range(d)]
    return [[_matvec(b, _cube_apply(cube, cols[i], cols[j])) for j in range(d)]
            for i in range(d)]


# -- classical graded algebras at d = 4 --------------------------------
#
# Each is graded by the listed degrees (e_i * e_j lies in the span of the
# e_k of degree deg_i + deg_j), so diag(t**deg) is an automorphism for any
# t != 0 and twisting by two of them keeps every axiom.


def _graded(coef, deg):
    d = len(deg)
    cube = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if deg[k] == deg[i] + deg[j]:
                    cube[i][j][k] = Fraction(coef(i + 1, j + 1))
    return cube


def _binom(n, k):
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out


def _classical(kind: str):
    """(degrees, {slot: cube}) of a valid classical algebra of the kind."""
    poly = (1, 2, 3, 4)
    if kind in ("omega_associative", "bihom_associative"):
        return poly, {"mul": _graded(lambda i, j: 1, poly)}
    if kind == "dendriform":   # half-shuffles on one generator
        return poly, {"prec": _graded(lambda i, j: _binom(i + j - 1, i - 1), poly),
                      "succ": _graded(lambda i, j: _binom(i + j - 1, j - 1), poly)}
    if kind == "prelie":       # x |> y = x D(y) on truncated polynomials
        return poly, {"triangle": _graded(lambda i, j: j, poly)}
    if kind == "zinbiel":
        return poly, {"star": _graded(lambda i, j: _binom(i + j - 1, i), poly)}
    fili = (1, 1, 2, 3)        # filiform: [e1, e2] = e3, [e1, e3] = e4
    lie = _graded(lambda i, j: {(1, 2): 1, (2, 1): -1,
                                (1, 3): 1, (3, 1): -1}.get((i, j), 0), fili)
    if kind == "lie":
        return fili, {"bracket": lie}
    if kind == "postlie":      # bracket {,} with x |> y = {R x, y}, R = -id
        neg = [[[-v for v in cell] for cell in row] for row in lie]
        return fili, {"bracket": lie, "triangle": neg}
    # prepoisson: direct sum of e1 * e1 = e2 (zinbiel) and e3 |> e3 = e4
    split = (1, 2, 1, 2)
    return split, {
        "triangle": _graded(lambda i, j: int((i, j) == (3, 3)), split),
        "star": _graded(lambda i, j: int((i, j) == (1, 1)), split)}


def _rand_cube(rng, d):
    # no zero entries, so every seed's cube costs the checker the same
    return [[[Fraction(rng.choice((-1, 1))) for _ in range(d)]
             for _ in range(d)] for _ in range(d)]


# -- check: check_instance on fresh instances at (C3, d = 4) -------------


class CheckWorkload(Workload):
    """Eight kinds times three variants per round, interleaved so that any
    prefix of a round mixes kinds and variants: op i has kind i mod 8 and
    variant i mod 3.  Round r draws the inputs of round r mod `cycle`, the
    rounds whose digests are recorded, so every round of a recorded seed is
    gated even when the checker gets several times faster."""

    n, d = 3, 4
    trace_ops = 8
    cycle = 4

    def __init__(self, seed: int, oracle):
        super().__init__("check", seed)
        self.oracle = oracle

    def make_round(self, r: int) -> list[Op]:
        return [self._op(r % self.cycle, i) for i in range(len(KINDS) * 3)]

    def _op(self, r: int, i: int) -> Op:
        bh = _lib()
        kind, variant = KINDS[i % len(KINDS)], i % 3
        rng = self.rng(r, str(i))
        omega = bh.cyclic_group(self.n)
        build = (self._zero, self._twisted, self._random)[variant]
        inst, expected = build(bh, bh.AlgebraKind(kind), omega, rng)
        checkers = sys.modules["bihomega.checkers"]
        n, d = self.n, self.d

        def check(report):
            ok = report.passed == expected()
            for res in report.results:
                ok = ok and len(res.witnesses) == min(res.total_violations, 10)
                ok = ok and res.passed == (res.total_violations == 0)
            return ok, report_digest(report)

        return Op(key=f"check/{self.seed}/{r}/{i}", label=kind,
                  run=lambda: checkers.check_instance(inst),
                  work=lambda report: report_cells(report, n, d),
                  check=check)

    def _zero(self, bh, kind, omega, rng):
        """Zero products, p_a random and q_a = p_a squared: always passes."""
        d = self.d
        mats = [bh.Matrix.from_rows([[rng.choice((-1, 1)) for _ in range(d)]
                                     for _ in range(d)]) for _ in range(self.n)]
        p = bh.LinearFamily(omega, d, tuple(mats))
        q = bh.LinearFamily(omega, d, tuple(bh.mat_mul(m, m) for m in mats))
        return bh.zero_instance(kind, omega, d, p, q), lambda: True

    def _twisted(self, bh, kind, omega, rng):
        """A classical algebra moved to a dense basis, lifted over the
        semigroup and twisted by two commuting automorphisms: passes."""
        d = self.d
        deg, cubes = _classical(kind.value)
        b, b_inv = _unimodular(rng, d)
        dense = {slot: _transport(c, b, b_inv) for slot, c in cubes.items()}
        base = bh.constant_product_instance(kind, omega, dense)
        s, t = rng.sample((Fraction(2), Fraction(-2), Fraction(1, 2),
                           Fraction(-1, 2)), 2)

        def automorphism(x):
            diag = [[x ** deg[i] if i == j else Fraction(0) for j in range(d)]
                    for i in range(d)]
            return bh.LinearFamily.constant(
                omega, bh.Matrix.from_rows(_matmul(_matmul(b, diag), b_inv)))

        twisted = bh.yau_twist(base, automorphism(s), automorphism(t),
                               unchecked=True)
        # yau_twist tags associative output as BiHom; keep the stream's kind
        out = bh.new_instance(kind, omega, twisted.products, twisted.p,
                              twisted.q)
        return out, lambda: True

    def _random(self, bh, kind, omega, rng):
        """Random constant cubes with identity maps; the classical oracle
        gives the verdict (criterion 7's reduction law)."""
        cubes = {slot: _rand_cube(rng, self.d) for slot in kind.product_slots}
        inst = bh.constant_product_instance(kind, omega, cubes)
        o = self.oracle
        oracles = {
            "omega_associative": lambda c: o.check_assoc(c["mul"]),
            "bihom_associative": lambda c: o.check_assoc(c["mul"]),
            "dendriform": lambda c: o.check_dendriform(c["prec"], c["succ"]),
            "prelie": lambda c: o.check_prelie(c["triangle"]),
            "lie": lambda c: o.check_lie(c["bracket"]),
            "postlie": lambda c: o.check_postlie(c["bracket"], c["triangle"]),
            "zinbiel": lambda c: o.check_zinbiel(c["star"]),
            "prepoisson": lambda c: o.check_prepoisson(c["triangle"], c["star"]),
        }
        return inst, lambda: oracles[kind.value](cubes)


# -- search: uncapped operator and endomorphism searches at (C2, d = 2) ---

# valid parameters of the worked 2-dim instance over C2: (c, rthree, lthree)
TWO_DIM_PARAMS = (
    ([[1, 1], [1, 1]], [1, 1], [1, 1]),
    ([[1, 1], [-1, -1]], [1, -1], [1, 1]),
    ([[1, -1], [1, -1]], [1, 1], [1, -1]),
    ([[1, -1], [-1, 1]], [1, -1], [1, -1]),
)
LIE_2D = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]     # {e1, e2} = e2
LIE_SCALES = (1, -1, 2)


def two_dim_instance(bh, choice: int):
    c, r3, l3 = TWO_DIM_PARAMS[choice]
    params = bh.two_dim_params(bh.cyclic_group(2), c, r3, l3)
    return bh.make_two_dim_example(params, reading="e2")


def lie_instance(bh, scale: int):
    cube = [[[scale * v for v in cell] for cell in row] for row in LIE_2D]
    return bh.constant_product_instance(bh.AlgebraKind.LIE, bh.cyclic_group(2),
                                        {"bracket": cube})


def _family_text(fam) -> str:
    return ";".join(",".join(str(v) for v in m.entries) for m in fam.maps)


class SearchWorkload(Workload):
    """Per round: an RB search on a worked 2-dim instance, the endomorphism
    pairs of that instance, and an RB search on a 2-dim Lie instance."""

    trace_ops = 2

    def __init__(self, seed: int):
        super().__init__("search", seed)

    def recorded(self) -> bool:
        return True     # every input it can draw, whatever the seed

    def make_round(self, r: int) -> list[Op]:
        bh = _lib()
        rng = self.rng(r)
        choice = rng.randrange(len(TWO_DIM_PARAMS))
        two = two_dim_instance(bh, choice)
        scale = rng.choice(LIE_SCALES)
        lie = lie_instance(bh, scale)
        w_two, w_lie = rng.choice(WEIGHTS), rng.choice(WEIGHTS)
        return [
            self._rb_op(bh, f"search/rb/two_dim/{choice}/{w_two}", two, w_two),
            self._pairs_op(bh, f"search/pairs/two_dim/{choice}", two),
            self._rb_op(bh, f"search/rb/lie/{scale}/{w_lie}", lie, w_lie),
        ]

    @staticmethod
    def _space(inst) -> int:
        return len(SEARCH_ENTRIES) ** (inst.omega.order * inst.dim ** 2)

    def _rb_op(self, bh, key, inst, weight) -> Op:
        forge = sys.modules["bihomega.forge"]
        cfg = bh.SearchConfig(entries=SEARCH_ENTRIES, weight=weight)
        space = self._space(inst)
        # R = 0 and R = -weight * id satisfy the identity for any product
        known = [candidate_rank(bh.LinearFamily.constant(
            inst.omega, bh.Matrix.diagonal([x] * inst.dim)), SEARCH_ENTRIES)
            for x in (0, -weight)]

        def check(found):
            ranks = [candidate_rank(rb.maps, SEARCH_ENTRIES) for rb in found]
            ok = ranks == sorted(set(ranks))
            ok = ok and all(rank in ranks for rank in known)
            ok = ok and all(rb.weight == weight for rb in found)
            text = "|".join(_family_text(rb.maps) for rb in found)
            return ok, digest(str(weight), text)

        return Op(key=key, label="rb_search",
                  run=lambda: forge.brute_force_rb_search(inst, cfg),
                  work=lambda found: candidates_decided(
                      space, cfg.target_count, [rb.maps for rb in found],
                      SEARCH_ENTRIES),
                  check=check)

    def _pairs_op(self, bh, key, inst) -> Op:
        forge = sys.modules["bihomega.forge"]
        cfg = bh.SearchConfig(entries=SEARCH_ENTRIES)
        space = self._space(inst)

        def check(pairs):
            ok = bool(pairs) and all(f.is_identity() for f in pairs[0])
            text = "|".join(_family_text(f) + "/" + _family_text(g)
                            for f, g in pairs)
            return ok, digest(text)

        return Op(key=key, label="endomorphism_pairs",
                  run=lambda: forge.make_endomorphism_pairs(inst, cfg),
                  work=lambda pairs: space, check=check)


# -- cli: bihomega.cli.main on workspace files ---------------------------


@dataclass
class Command:
    argv: list[str]
    expect: int
    out: str | None = None        # file the command writes, part of its digest


class CliWorkload(Workload):
    """Per round: fmt on one large (C3, d = 4) workspace per kind, three
    construct chains at (C2, d = 2) with check --json on every output, and
    commands that must exit 1 (input fails its pre-check) or 2 (malformed
    workspace)."""

    trace_ops = 24
    fmt_algebras = 9    # per product slot: about 80 KB of text per file

    def __init__(self, seed: int):
        super().__init__("cli", seed)
        self.dir = WORK_DIR / f"cli-{seed}"

    def make_round(self, r: int) -> list[Op]:
        # the files hold the inputs; every round re-runs the same commands
        if r == 0 or not (self.dir / "base_assoc.bho").exists():
            self._write_inputs()
        return [self._op(i, cmd) for i, cmd in enumerate(self._commands())]

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def cleanup(self):
        if self.dir.exists():
            for path in self.dir.iterdir():
                path.unlink()
            self.dir.rmdir()

    def _write_inputs(self):
        bh = _lib()
        self.dir.mkdir(parents=True, exist_ok=True)
        for stale in self.dir.iterdir():
            stale.unlink()
        rng = self.rng(0, "cli")
        for kind in KINDS:
            ws = bh.Workspace()
            ws.semigroups["W"] = bh.cyclic_group(3)
            kind_enum = bh.AlgebraKind(kind)
            fmt_rng = self.rng(0, f"fmt/{kind}")
            for idx in range(self.fmt_algebras // len(kind_enum.product_slots)):
                name = f"{kind}_{idx}"
                ws.algebras[name] = _rational_instance(
                    bh, kind_enum, ws.semigroups["W"], 4, fmt_rng)
                ws.omega_of[("algebra", name)] = "W"
            self._write(f"fmt_{kind}.bho", bh.serialize_workspace(ws))

        choice = rng.randrange(len(TWO_DIM_PARAMS))
        two = two_dim_instance(bh, choice)
        omega = two.omega
        weight = rng.choice((Fraction(1), Fraction(-1)))
        ws = bh.workspace_for_instance("a", "W", two)
        self._add_rb(bh, ws, "rbA", omega, self._split_operator(rng, weight),
                     weight)
        u, v = rng.choice((1, 2, -2)), rng.choice((-1, 2, -2))
        # column sums 1 keep x * y = c x (y1 + y2); f and f o f commute;
        # u and v keep every entry of f nonzero
        f = [[Fraction(1 + u), Fraction(v)], [Fraction(-u), Fraction(1 - v)]]
        for name, m in (("f", f), ("g", _matmul(f, f))):
            ws.linear_maps[name] = bh.LinearFamily.constant(
                omega, bh.Matrix.from_rows(m))
            ws.omega_of[("maps", name)] = "W"
        self._write("base_assoc.bho", bh.serialize_workspace(ws))

        bad = _bump(bh, two)
        ws_bad = bh.workspace_for_instance("a", "W", bad)
        self._add_rb(bh, ws_bad, "rbA", omega, self._split_operator(rng, weight),
                     weight)
        self._write("bad_assoc.bho", bh.serialize_workspace(ws_bad))

        lie = lie_instance(bh, rng.choice(LIE_SCALES))
        weight = rng.choice((Fraction(1), Fraction(-1)))
        ws = bh.workspace_for_instance("l", "W", lie)
        self._add_rb(bh, ws, "rbL", omega, self._split_operator(rng, weight),
                     weight)
        text = bh.serialize_workspace(ws)
        self._write("base_lie.bho", text)
        # a stray character inside the algebra block, and a cut inside it
        body = text.index("algebra ")
        at = rng.randrange(body + 8, len(text) - 2)
        self._write("malformed.bho", text[:at] + "@" + text[at:])
        self._write("truncated.bho", text[:rng.randrange(body + 8, len(text) - 2)])

    @staticmethod
    def _split_operator(rng, weight):
        """R = -weight * (projection onto span(u) along span(w)).  Every
        subspace of these 2-dim algebras is a subalgebra, so R satisfies the
        weight identity, and it commutes with their scalar structure maps.
        u and w are drawn until the projection is integral and has no zero
        entry, so every seed's operator has the same shape."""
        while True:
            u = [rng.choice((-1, 1, 2)) for _ in range(2)]
            w = [rng.choice((-1, 1, 2)) for _ in range(2)]
            det = u[0] * w[1] - u[1] * w[0]
            if det not in (1, -1):
                continue
            # P = U diag(1, 0) U^-1 with U = [u w]
            proj = [[Fraction(u[i] * (w[1], -w[0])[j], det) for j in range(2)]
                    for i in range(2)]
            if all(v for row in proj for v in row):
                break
        return [[-weight * v for v in row] for row in proj]

    @staticmethod
    def _add_rb(bh, ws, name, omega, rows, weight):
        fam = bh.LinearFamily.constant(omega, bh.Matrix.from_rows(rows))
        ws.rota_baxter[name] = bh.RotaBaxterFamily(fam, weight)
        ws.omega_of[("rb", name)] = "W"

    def _write(self, name: str, text: str):
        Path(self._path(name)).write_text(text, encoding="utf-8")

    def _commands(self) -> list[Command]:
        p = self._path
        cmds = [Command(["fmt", p(f"fmt_{kind}.bho")], 0) for kind in KINDS]
        chain = (
            ("rb_split_dendriform", "base_assoc.bho", ["--rb", "rbA"], "dend.bho"),
            ("dendriform_to_prelie", "dend.bho", [], "prelie.bho"),
            ("prelie_to_lie", "prelie.bho", [], "lie.bho"),
            ("lie_rb_to_postlie", "base_lie.bho", ["--rb", "rbL"], "postlie.bho"),
            ("postlie_to_lie", "postlie.bho", [], "lie2.bho"),
            ("yau_twist", "base_assoc.bho", ["--p2", "f", "--q2", "g"],
             "twist.bho"),
        )
        for name, src, extra, out in chain:
            cmds.append(Command(["construct", name, "--input", p(src), *extra,
                                 "--out", p(out)], 0, out=p(out)))
            cmds.append(Command(["check", "--json", p(out)], 0))
        cmds += [
            Command(["construct", "rb_split_dendriform", "--input",
                     p("bad_assoc.bho"), "--rb", "rbA", "--out",
                     p("never.bho")], 1),
            Command(["check", p("bad_assoc.bho")], 1),
            Command(["check", p("malformed.bho")], 2),
            Command(["fmt", p("truncated.bho")], 2),
        ]
        return cmds

    def _op(self, i: int, cmd: Command) -> Op:
        cli = sys.modules["bihomega.cli"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(cmd.argv))
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            ok = code == cmd.expect
            written = ""
            if cmd.out is not None and code == 0:
                written = Path(cmd.out).read_text(encoding="utf-8")
            if cmd.argv[:2] == ["check", "--json"] and code == 0:
                doc = json.loads(out)
                ok = ok and all(rep["passed"] for rep in doc["reports"])
            return ok, digest(str(code), out, err, written)

        label = cmd.argv[0] if cmd.expect == 0 else f"{cmd.argv[0]}-exit{cmd.expect}"
        return Op(key=f"cli/{self.seed}/{i}", label=label, run=run,
                  work=lambda result: 1, check=check, span="cli.main")


def _rational(rng) -> Fraction:
    """A rational that prints in five or six characters, lowest terms."""
    q = rng.choice((7, 11, 13))
    p = rng.choice([v for v in range(10, 100) if v % q])
    return Fraction(rng.choice((-1, 1)) * p, q)


def _rational_instance(bh, kind, omega, d, rng):
    """Every structure constant and map entry a nonzero rational, so the
    text size of a workspace hardly depends on the seed; q = p commutes
    with p.  Only for parsing and printing: no axiom is expected to hold."""
    n = omega.order
    products = []
    for slot in kind.product_slots:
        cells = {(a, b, i, j): tuple(_rational(rng) for _ in range(d))
                 for a in range(n) for b in range(n)
                 for i in range(d) for j in range(d)}
        products.append((slot, bh.BilinearFamily.from_function(
            omega, d, lambda a, b, i, j, cells=cells: cells[(a, b, i, j)])))
    p = bh.LinearFamily(omega, d, tuple(
        bh.Matrix.from_rows([[_rational(rng) for _ in range(d)]
                             for _ in range(d)]) for _ in range(n)))
    return bh.new_instance(kind, omega, tuple(products), p, p)


def _bump(bh, inst):
    """Copy with e1 * e1 at (g0, g0) raised by e2: breaks associativity."""
    fam = inst.product("mul")

    def fn(a, b, i, j):
        cell = fam.basis_product(a, b, i, j)
        if (a, b, i, j) == (0, 0, 0, 0):
            cell = (cell[0], cell[1] + 1)
        return cell

    mul = bh.BilinearFamily.from_function(inst.omega, inst.dim, fn)
    return bh.new_instance(inst.kind, inst.omega, (("mul", mul),), inst.p, inst.q)


def make_workload(name: str, seed: int):
    if name == "check":
        return CheckWorkload(seed, load_oracle())
    if name == "search":
        return SearchWorkload(seed)
    if name == "cli":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("check", "search", "cli")
