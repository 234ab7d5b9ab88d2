"""Seeded inputs for the benchmark: diagrams (`.dg`) and programs (`.matt`).

Everything here is lawful or well-typed by construction, except the mutants
and the three fault inputs, whose expected diagnostics are stated next to
them.  The seed picks names, primes and where a mutant sits; it never picks
a size, so every seed costs the checker and the law suite the same work.

The mode theories are the bundled `.mt` files, copied next to the generated
files so that the relative `mode_theory` paths resolve.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

LETTERS = "bcdfghjklmnpqrstvwxz"


def labels(rng: random.Random, n: int, stem: str) -> list[str]:
    """n distinct names of one fixed length, so that no seed makes string
    comparison cheaper than another."""
    out: list[str] = []
    while len(out) < n:
        s = stem + "".join(rng.choice(LETTERS) for _ in range(3))
        if s not in out:
            out.append(s)
    return out


# --- posets and monotone maps -------------------------------------------------

def arrow(x: str, y: str) -> str:
    return f"id:{x}" if x == y else f"{x}<={y}"


def poset(objects: list[str], leq) -> dict:
    """FinCat table of a finite poset, objects kept in the given order."""
    rel = [(x, y) for x in objects for y in objects if x != y and leq(x, y)]
    related = set(rel)
    return {
        "objects": list(objects),
        "arrows": [[arrow(x, y), x, y] for x, y in rel],
        "compose": [[arrow(y, z), arrow(x, y), arrow(x, z)]
                    for x, y in rel for y2, z in rel
                    if y2 == y and (x, z) in related],
    }


def chain(objects: list[str]) -> dict:
    pos = {o: i for i, o in enumerate(objects)}
    return poset(objects, lambda x, y: pos[x] <= pos[y])


def monotone(src: dict, omap: dict) -> dict:
    """Functor table of a monotone map between posets."""
    return {"objects": dict(omap),
            "arrows": {a: arrow(omap[s], omap[d])
                       for a, s, d in src["arrows"]}}


def components(omap_src: dict, omap_dst: dict) -> dict:
    """Natural transformation between monotone maps, pointwise x <= y."""
    return {"components": {o: arrow(omap_src[o], omap_dst[o])
                           for o in omap_src}}


# --- diagrams -----------------------------------------------------------------

@dataclass
class DiagramSpec:
    """One generated diagram and what the law suite must say about it."""
    name: str
    data: dict
    failing: dict = field(default_factory=dict)  # law -> words in its detail
    codex_q: int | None = None  # expected objects of the codex at mode q


def single_arrow_chain(rng, n: int) -> DiagramSpec:
    """Both modes a chain of n objects and mu the identity.  The codex at q
    is the comma category of arrows x -> mu(y): n(n+1)/2 objects."""
    p, q = labels(rng, n, "p"), labels(rng, n, "q")
    cp = chain(p)
    data = {"mode_theory": "single_arrow.mt",
            "categories": {"p": cp, "q": chain(q)},
            "functors": {"mu": monotone(cp, dict(zip(p, q)))},
            "naturals": {}}
    return DiagramSpec(f"single_arrow_chain{n}", data,
                       codex_q=n * (n + 1) // 2)


def single_arrow_divisors(rng) -> DiagramSpec:
    """Both modes the divisors of a*b under divisibility for two distinct
    seeded primes a < b, and mu the identity: a square, so meets are not
    minima.  Objects are listed 1, a, b, ab whatever the primes."""
    a, b = sorted(rng.sample([2, 3, 5, 7, 11, 13], 2))
    p = ["1", str(a), str(b), str(a * b)]
    q = ["q" + x for x in p]

    def divides(x, y):
        return int(y.lstrip("q")) % int(x.lstrip("q")) == 0

    cp = poset(p, divides)
    data = {"mode_theory": "single_arrow.mt",
            "categories": {"p": cp, "q": poset(q, divides)},
            "functors": {"mu": monotone(cp, dict(zip(p, q)))},
            "naturals": {}}
    return DiagramSpec(f"single_arrow_div{a * b}", data,
                       codex_q=sum(divides(x, y) for x in p for y in p))


def comonad_chain(rng, n: int) -> DiagramSpec:
    """A chain of n objects with m(x) the largest even position at or below
    x, and the top fixed.  An m that moves the top leaves incl without the
    limit it needs (LimitAbsent)."""
    c = labels(rng, n, "c")
    image = sorted({i for i in range(0, n, 2)} | {n - 1})
    m = {c[i]: c[max(s for s in image if s <= i)] for i in range(n)}
    cc = chain(c)
    data = {"mode_theory": "comonad.mt",
            "categories": {"p": cc},
            "functors": {"m": monotone(cc, m)},
            "naturals": {"eps": components(m, {o: o for o in c})}}
    return DiagramSpec(f"comonad_chain{n}", data)


def reflective_chain(rng, n: int) -> DiagramSpec:
    """C_p a chain of n objects, C_q the chain of its closed objects (odd
    positions and the top), mu the closure, nu the inclusion."""
    p = labels(rng, n, "p")
    closed = sorted({i for i in range(1, n, 2)} | {n - 1})
    q = labels(rng, len(closed), "q")
    up = {p[i]: min(k for k, t in enumerate(closed) if t >= i)
          for i in range(n)}
    mu = {x: q[k] for x, k in up.items()}
    nu = {q[k]: p[t] for k, t in enumerate(closed)}
    numu = {x: nu[mu[x]] for x in p}
    cp, cq = chain(p), chain(q)
    data = {"mode_theory": "reflective.mt",
            "categories": {"p": cp, "q": cq},
            "functors": {"mu": monotone(cp, mu), "nu": monotone(cq, nu),
                         "numu": monotone(cp, numu)},
            "naturals": {"eta": components({x: x for x in p}, numu)}}
    return DiagramSpec(f"reflective_chain{n}", data)


def meet_dropping(rng, k: int) -> DiagramSpec:
    """C_p a chain of k objects under two incomparable x, y with a top t, so
    the chain's top is the meet of x and y; mu sends the chain to 0 and x, y,
    t to 1, so it drops exactly that meet.  The codex at q then has the meet
    of (1, x) and (1, y), (0, top of the chain), which reflect(id:q) sends
    to 0, not to the meet 1 of 1 and 1: pointwise-limits fails too."""
    below = labels(rng, k, "b")
    x, y, t = labels(rng, 3, "u")
    order = {o: (i, 0) for i, o in enumerate(below)}
    order.update({x: (k, 1), y: (k, 2), t: (k + 1, 0)})  # (level, tag)

    def leq(u, v):
        return u == v or order[u][0] < order[v][0]

    cp = poset(below + [x, y, t], leq)
    lo, hi = labels(rng, 2, "q")
    mu = {o: lo for o in below}
    mu.update({x: hi, y: hi, t: hi})
    data = {"mode_theory": "single_arrow.mt",
            "categories": {"p": cp, "q": chain([lo, hi])},
            "functors": {"mu": monotone(cp, mu)},
            "naturals": {}}
    return DiagramSpec(f"meet_dropping{k}", data,
                       failing={"limit-preservation": ["mu", x, y],
                                "pointwise-limits": ["reflect(id:q)"]})


def write_diagram(spec: DiagramSpec, out: Path) -> Path:
    path = out / f"{spec.name}.dg"
    path.write_text(json.dumps(spec.data, indent=1), encoding="utf-8")
    return path


def copy_theories(out: Path, theory_dir: Path) -> None:
    for mt in theory_dir.glob("*.mt"):
        shutil.copyfile(mt, out / mt.name)


# --- programs -----------------------------------------------------------------

@dataclass
class ProgramSpec:
    """One generated `.matt` file and what `matt check` must say about it.

    decls: how many declarations check when the file is well-typed;
    expect: the (code, line) of each diagnostic, in order;
    fault: the known fault the file shows, for inputs that fail today."""
    name: str
    theory: str
    lines: list
    decls: int = 0
    expect: list = field(default_factory=list)
    trace: bool = False
    fault: str | None = None

    @property
    def text(self) -> str:
        return "\n".join([f'mode-theory "{self.theory}.mt";'] + self.lines) \
            + "\n"

    def line_of(self, i: int) -> int:
        return i + 2  # line 1 declares the mode theory


def _binders(names, mor, ty) -> str:
    ann = f":^ {mor}" if mor else ":"
    return " ".join(f"({x} {ann} {ty})" for x in names)


def _arrows(names, mor, ty, cod) -> str:
    ann = f":^ {mor}" if mor else ":"
    return " -> ".join([f"({x} {ann} {ty})" for x in names] + [cod])


def _lams(names, body) -> str:
    return "".join(f"\\{x}. " for x in names) + body


def _wide(rng, theory: str, width: int) -> tuple[list, list]:
    """Constants and one round of definitions for a declaration-heavy file:
    wide telescopes, keyed variables under locks, let-mod with motives."""
    xs = labels(rng, width, "x")
    if theory == "trivial":
        tys = ["A" if i % 2 == 0 else "B" for i in range(width)]
        vals = ["a0" if t == "A" else "b0" for t in tys]
        tele = " ".join(f"({x} : {t})" for x, t in zip(xs, tys))
        consts = ["const A : Type @ p;", "const B : Type @ p;",
                  "const a0 : A @ p;", "const b0 : B @ p;",
                  "const g : (x : A) B @ p;",
                  f"const T : {tele} Type @ p;",
                  f"const k : {tele} T {' '.join(xs)} @ p;"]
        defs = [f"def {{}} @ p : T {' '.join(vals)} = k {' '.join(vals)};",
                f"def {{}} @ p : {_arrows(xs, None, 'A', 'A')} = "
                f"{_lams(xs, xs[0])};",
                "def {} @ p : (f : (x : A) -> B) -> (x : A) -> B = "
                "\\f. \\x. f x;",
                "def {} @ p : B = g a0;"]
    elif theory == "single_arrow":
        consts = ["const A : Type @ p;", "const a0 : A @ p;",
                  "const B : Type @ q;",
                  f"const h : {_binders(xs, 'mu', 'A')} B @ q;",
                  "const PF : (y : F[mu] A) Type @ q;",
                  "const mk : (y : F[mu] A) PF y @ q;"]
        defs = [f"def {{}} @ q : {_arrows(xs, 'mu', 'A', 'B')} = "
                f"{_lams(xs, 'h ' + ' '.join(xs))};",
                "def {} @ q : (y : F[mu] A) -> F[mu] A = \\y. let[id:q, mu] "
                "mod x = y in mod[mu] x motive F[mu] A;",
                "def {} @ q : (y : F[mu] A) -> PF y = \\y. let[id:q, mu] "
                "mod x = y in mk (mod[mu] x) motive PF x;",
                "def {} @ q : F[mu] A = mod[mu] a0;"]
    elif theory == "semilattice":
        consts = ["const A : Type @ p;", "const a0 : A @ p;",
                  "const fa : F[a] A @ p;",
                  f"const h : {_binders(xs, None, 'A')} A @ p;"]
        defs = [f"def {{}} @ p : {_arrows(xs, 'a', 'A', 'A')} = "
                f"{_lams(xs, 'h ' + ' '.join(x + '^le' for x in xs))};",
                "def {} @ p : F[a] A = let[a, a] mod x = fa in mod[a] x "
                "motive F[a] A;",
                "def {} @ p : (y :^ a F[a] A) -> F[a] A = \\y. let[a, a] "
                "mod x = y in mod[a] x motive F[a] A;",
                "def {} @ p : F[a] A = mod[a] a0;"]
    elif theory == "comonad":
        consts = ["const A : Type @ p;", "const a0 : A @ p;",
                  f"const h : {_binders(xs, None, 'A')} A @ p;"]
        defs = [f"def {{}} @ p : {_arrows(xs, 'm', 'A', 'A')} = "
                f"{_lams(xs, 'h ' + ' '.join(x + '^eps' for x in xs))};",
                "def {} @ p : (y : F[m] A) -> A = \\y. let[id:p, m] mod x = y "
                "in x^eps motive A;",
                "def {} @ p : (y : F[m] A) -> F[m] (F[m] A) = \\y. "
                "let[id:p, m] mod x = y in mod[m] mod[m] x "
                "motive F[m] (F[m] A);",
                "def {} @ p : F[m] A = mod[m] a0;"]
    elif theory == "reflective":
        consts = ["const A : Type @ p;", "const a0 : A @ p;",
                  "const B : Type @ q;", "const b0 : B @ q;",
                  "const fa : F[mu] A @ q;",
                  f"const h : {_binders(xs, 'numu', 'A')} A @ p;"]
        defs = [f"def {{}} @ p : {_arrows(xs, None, 'A', 'A')} = "
                f"{_lams(xs, 'h ' + ' '.join(x + '^eta' for x in xs))};",
                "def {} @ p : F[numu] A = let[nu, mu] mod x = fa in "
                "mod[numu] x motive F[numu] A;",
                "def {} @ p : U[mu] B = shut[mu] b0;",
                "def {} @ q : B = open[mu] (shut[mu] b0);"]
    elif theory == "2ltt":
        consts = ["const B : Type @ f;", "const b0 : B @ f;",
                  "const C : Type @ e;", "const c0 : C @ e;",
                  f"const dd : {_binders(xs, 'iota', 'C')} B @ f;"]
        defs = [f"def {{}} @ f : B = dd {' '.join('c0' for _ in xs)};",
                "def {} @ e : U[iota] B = shut[iota] b0;",
                "def {} @ e : (M : U[iota] B) -> U[iota] B = "
                "\\M. shut[iota] open[iota] M;",
                "def {} @ f : B = open[iota] (shut[iota] b0);"]
    else:
        raise ValueError(theory)
    return consts, defs


def declaration_heavy(rng, theory: str, width: int, rounds: int) \
        -> ProgramSpec:
    consts, defs = _wide(rng, theory, width)
    names = labels(rng, rounds * len(defs), "d")
    body = [d.format(names[i * len(defs) + j])
            for i in range(rounds) for j, d in enumerate(defs)]
    return ProgramSpec(f"{theory}_decls", theory, consts + body,
                       decls=len(consts) + len(body))


# Redex towers: a U-redex shut (open (... shut b0)) or an F-redex
# let mod x = (... mod a0) in mod x, nested `depth` times inside a type index
# and converted against the index of the declared constant.
REDEX = {
    "2ltt": ("e", ["const B : Type @ f;", "const b0 : B @ f;",
                   "const Q : (M : U[iota] B) Type @ e;",
                   "const q0 : Q (shut[iota] b0) @ e;"],
             "shut[iota] b0", "shut[iota] (open[iota] ({}))", "Q", "q0"),
    "reflective": ("p", ["const B : Type @ q;", "const b0 : B @ q;",
                         "const Q : (M : U[mu] B) Type @ p;",
                         "const q0 : Q (shut[mu] b0) @ p;"],
                   "shut[mu] b0", "shut[mu] (open[mu] ({}))", "Q", "q0"),
    "single_arrow": ("q", ["const A : Type @ p;", "const a0 : A @ p;",
                           "const PF : (y : F[mu] A) Type @ q;",
                           "const mk : (y : F[mu] A) PF y @ q;"],
                     "mod[mu] a0",
                     "let[id:q, mu] mod x = ({}) in mod[mu] x "
                     "motive F[mu] A", "PF", "mk (mod[mu] a0)"),
    "comonad": ("p", ["const A : Type @ p;", "const a0 : A @ p;",
                      "const PF : (y : F[m] A) Type @ p;",
                      "const mk : (y : F[m] A) PF y @ p;"],
                "mod[m] a0",
                "let[id:p, m] mod x = ({}) in mod[m] x motive F[m] A",
                "PF", "mk (mod[m] a0)"),
}


def redex_heavy(rng, theory: str, depth: int, count: int) -> ProgramSpec:
    mode, consts, base, step, index, value = REDEX[theory]
    tower = base
    for _ in range(depth):
        tower = step.format(tower)
    names = labels(rng, count, "r")
    defs = [f"def {n} @ {mode} : {index} ({tower}) = {value};"
            for n in names]
    return ProgramSpec(f"{theory}_redex{depth}", theory, consts + defs,
                       decls=len(consts) + len(defs))


# One ill-typed definition per theory and the diagnostic code it must give.
# Each is inserted among the definitions of a declaration-heavy file, which
# it does not disturb: definitions never refer to one another.
MUTATIONS = {
    "trivial": ("def {} @ p : A = a0 a0;", "ExpectedPi"),
    "single_arrow": ("def {} @ q : B = a0;", "ModeMismatch"),
    "semilattice": ("def {} @ p : (x : A) -> F[a] A = \\x. mod[a] x;",
                    "KeyTypeMismatch"),
    "comonad": ("def {} @ p : F[m] A = let[id:p, m] mod x = "
                "(let[id:p, m] mod w = (mod[m] a0) in mod[m] w) in mod[m] x;",
                "NoMotive"),
    "reflective": ("def {} @ q : B = let[mu, id:p] mod x = a0 in b0 "
                   "motive B;", "NotTransparent"),
    "2ltt": ("def {} @ f : F[iota] C = mod[iota] c0;", "NotSharp"),
}
CONVERSION = ("def {} @ p : B = a0;", "ConversionFailure")


def mutant(rng, theory: str, width: int, rounds: int,
           mutation: tuple) -> ProgramSpec:
    base = declaration_heavy(rng, theory, width, rounds)
    template, code = mutation
    first_def = next(i for i, ln in enumerate(base.lines)
                     if ln.startswith("def "))
    at = rng.randrange(first_def, len(base.lines) + 1)
    lines = list(base.lines)
    lines.insert(at, template.format(labels(rng, 1, "z")[0]))
    return ProgramSpec(f"{theory}_{code}", theory, lines,
                       decls=base.decls, expect=[(code, base.line_of(at))])


# --- inputs that show faults of matt ----------------------------------------
# They do not depend on the seed: each fails the same way on every run until
# the fault is mended.

def fault_trace_repeats() -> ProgramSpec:
    """Two conversion failures in one file.  Each diagnostic's --trace must
    explain that failure alone; Kernel.trace is never cleared, so the second
    repeats the first's lines."""
    lines = ["const A : Type @ p;", "const A2 : Type @ p;",
             "const B : Type @ p;", "const B2 : Type @ p;",
             "const a0 : A @ p;", "const b0 : B @ p;",
             "def bad1 @ p : A2 = a0;", "def bad2 @ p : B2 = b0;"]
    spec = ProgramSpec("fault_trace_repeats", "trivial", lines, trace=True,
                       fault="Kernel.trace is never cleared")
    spec.expect = [("ConversionFailure", spec.line_of(6)),
                   ("ConversionFailure", spec.line_of(7))]
    return spec


def fault_deep_spine(depth: int = 2000) -> ProgramSpec:
    """f (f (... a0)) nested `depth` deep: well-typed, so exit 0; the
    recursive parser raises RecursionError instead."""
    term = "a0"
    for _ in range(depth):
        term = f"f ({term})"
    lines = ["const A : Type @ p;", "const a0 : A @ p;",
             "const f : (x : A) A @ p;", f"def deep @ p : A = {term};"]
    return ProgramSpec("fault_deep_spine", "trivial", lines,
                       fault="RecursionError on deep nesting")


FAULT_NO_CATEGORIES = {
    "name": "fault_no_categories",
    "data": {"mode_theory": "single_arrow.mt", "functors": {},
             "naturals": {}},
    "fault": "KeyError on a .dg without categories",
}
