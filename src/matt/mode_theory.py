"""Finite presentations of adjoint mode theories.

A mode theory is a strict 2-category given by closed total tables: every
composite morphism, vertical composite of 2-cells, and whiskering is a named
table element, so equality of 2-cells is identity of names.  Four morphism
classes (tangible/sharp/transparent/sinister) gate the type formers, and each
sinister morphism carries a chosen right adjoint with unit and counit.

`validate_mode_theory` proves that the tables form such a 2-category, so the
algebra (`compose`, `vcomp`, `wl`, `wr`) reads the tables of a validated
theory and nothing else: a pair without a row is not composable.  Every
bundled theory is locally posetal: no two cells are parallel.  There each
2-cell equation compares two cells with one boundary, so once the table
shapes are right, the tables total, the compose table a category and
whiskering by an identity the cell itself, the vcompose category laws and
the 2-category axioms are decided by boundaries and their loops are not run.

Identity morphisms and identity cells use the reserved names "id:<mode>" and
"id:<morphism>" and are synthesized when omitted from input files, together
with the unit-law rows of the four tables.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import IllTypedCellExpression, MalformedTable, NotComposable
from .record import frozen

CLASS_NAMES = ("tangible", "sharp", "transparent", "sinister")


@frozen
class Morphism:
    name: str
    src: str
    dst: str


@frozen
class Cell:
    name: str
    src: str  # morphism name
    dst: str  # morphism name


@frozen
class Adjoint:
    mor: str
    dagger: str
    unit: str
    counit: str


@frozen
class Violation:
    axiom: str
    message: str


@frozen
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def id_mor_name(mode: str) -> str:
    return "id:" + mode


def id_cell_name(mor: str) -> str:
    return "id:" + mor


class ModeTheory:
    """Immutable-after-construction 2-category presentation."""

    def __init__(self, modes, morphisms, cells, compose, vcompose,
                 whisker_left, whisker_right, classes, adjoints):
        self.modes: dict[str, None] = dict.fromkeys(modes)
        self.morphisms: dict[str, Morphism] = {m.name: m for m in morphisms}
        self.cells: dict[str, Cell] = {c.name: c for c in cells}
        self.compose_table: dict[tuple[str, str], str] = dict(compose)
        self.vcompose_table: dict[tuple[str, str], str] = dict(vcompose)
        self.wl_table: dict[tuple[str, str], str] = dict(whisker_left)
        self.wr_table: dict[tuple[str, str], str] = dict(whisker_right)
        for k in classes:
            if k not in CLASS_NAMES:
                raise MalformedTable(f"unknown class {k}; the classes are "
                                     + ", ".join(CLASS_NAMES))
        self.classes: dict[str, frozenset[str]] = {
            k: frozenset(classes.get(k, ())) for k in CLASS_NAMES
        }
        self.adjoints: dict[str, Adjoint] = {a.mor: a for a in adjoints}
        self._synthesize_identities()
        self._check_references()
        into: dict[str, list[Morphism]] = {p: [] for p in self.modes}
        for m in sorted(self.morphisms.values(), key=lambda m: m.name):
            into[m.dst].append(m)
        self._into = {p: tuple(ms) for p, ms in into.items()}

    # -- construction ----------------------------------------------------

    def _check_references(self):
        for m in self.morphisms.values():
            if m.src not in self.modes or m.dst not in self.modes:
                raise MalformedTable(f"morphism {m.name} references unknown mode")
        for c in self.cells.values():
            if c.src not in self.morphisms or c.dst not in self.morphisms:
                raise MalformedTable(f"cell {c.name} references unknown morphism")
            s, d = self.morphisms[c.src], self.morphisms[c.dst]
            if (s.src, s.dst) != (d.src, d.dst):
                raise MalformedTable(f"cell {c.name} is not between parallel morphisms")
        for cls in CLASS_NAMES:
            for name in self.classes[cls]:
                if name not in self.morphisms:
                    raise MalformedTable(f"class {cls} lists unknown morphism {name}")
        for a in self.adjoints.values():
            for ref, kind in ((a.mor, "morphism"), (a.dagger, "morphism")):
                if ref not in self.morphisms:
                    raise MalformedTable(f"adjoint entry references unknown {kind} {ref}")

    def _synthesize_identities(self):
        for p in self.modes:
            name = id_mor_name(p)
            if name not in self.morphisms:
                self.morphisms[name] = Morphism(name, p, p)
            elif (self.morphisms[name].src, self.morphisms[name].dst) != (p, p):
                raise MalformedTable(f"reserved name {name} must be the identity at {p}")
        for m in self.morphisms.values():
            name = id_cell_name(m.name)
            if name not in self.cells:
                self.cells[name] = Cell(name, m.name, m.name)
            elif (self.cells[name].src, self.cells[name].dst) != (m.name, m.name):
                raise MalformedTable(f"reserved name {name} must be the identity cell")
        # check adjoint cell references now that identity cells exist
        for a in self.adjoints.values():
            for ref in (a.unit, a.counit):
                if ref not in self.cells:
                    raise MalformedTable(f"adjoint entry references unknown cell {ref}")
        # unit-law rows, added only when absent so broken inputs stay broken
        comp, vc, wl, wr = (self.compose_table, self.vcompose_table,
                            self.wl_table, self.wr_table)
        # is_id_mor and is_id_cell read these, filled here in passing
        self._id_mors: dict[str, bool] = {}
        self._id_cells: dict[str, bool] = {}
        for m in self.morphisms.values():
            comp.setdefault((id_mor_name(m.dst), m.name), m.name)
            comp.setdefault((m.name, id_mor_name(m.src)), m.name)
            self._id_mors[m.name] = m.name == id_mor_name(m.src)
        for c in self.cells.values():
            vc.setdefault((id_cell_name(c.dst), c.name), c.name)
            vc.setdefault((c.name, id_cell_name(c.src)), c.name)
            self._id_cells[c.name] = \
                c.src == c.dst and c.name == id_cell_name(c.src)
        for c in self.cells.values():
            s = self.morphisms.get(c.src)
            if s is None:
                continue  # caught by the reference check
            wl.setdefault((id_mor_name(s.dst), c.name), c.name)
            wr.setdefault((c.name, id_mor_name(s.src)), c.name)
        for m in self.morphisms.values():
            for r in self.morphisms.values():
                if r.dst != m.src:
                    continue
                mr = comp.get((m.name, r.name))
                if mr is not None:
                    wl.setdefault((m.name, id_cell_name(r.name)), id_cell_name(mr))
            for n in self.morphisms.values():
                if m.dst != n.src:
                    continue
                nm = comp.get((n.name, m.name))
                if nm is not None:
                    wr.setdefault((id_cell_name(n.name), m.name), id_cell_name(nm))

    # -- lookups ----------------------------------------------------------

    def mor(self, name: str) -> Morphism:
        try:
            return self.morphisms[name]
        except KeyError:
            raise MalformedTable(f"unknown morphism {name}") from None

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise MalformedTable(f"unknown cell {name}") from None

    def id_mor(self, mode: str) -> str:
        if mode not in self.modes:
            raise MalformedTable(f"unknown mode {mode}")
        return id_mor_name(mode)

    def id_cell(self, mor: str) -> str:
        self.mor(mor)
        return id_cell_name(mor)

    def is_id_mor(self, mor: str) -> bool:
        try:
            return self._id_mors[mor]
        except KeyError:
            raise MalformedTable(f"unknown morphism {mor}") from None

    def is_id_cell(self, c: str) -> bool:
        try:
            return self._id_cells[c]
        except KeyError:
            raise MalformedTable(f"unknown cell {c}") from None

    def cell_modes(self, cell: str) -> tuple[str, str]:
        """(source mode, target mode) of the parallel morphisms under a cell."""
        m = self.mor(self.cell(cell).src)
        return m.src, m.dst

    def in_class(self, cls: str, mor: str) -> bool:
        return mor in self.classes[cls]

    def morphisms_into(self, mode: str) -> tuple[Morphism, ...]:
        """The morphisms with target mode, sorted by name."""
        return self._into.get(mode, ())

    # -- algebra ----------------------------------------------------------

    def compose(self, g: str, f: str) -> str:
        """g∘f: first f, then g."""
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise NotComposable(f"{g}∘{f} has no row in the compose table") from None

    def vcomp(self, b: str, a: str) -> str:
        """b∘a vertically: first a, then b."""
        try:
            return self.vcompose_table[(b, a)]
        except KeyError:
            raise IllTypedCellExpression(
                f"{b}∘{a} has no row in the vcompose table") from None

    def wl(self, m: str, c: str) -> str:
        """m◁c: post-whisker the cell c by the morphism m."""
        try:
            return self.wl_table[(m, c)]
        except KeyError:
            raise IllTypedCellExpression(
                f"{m}◁{c} has no row in the whisker_left table") from None

    def wr(self, c: str, m: str) -> str:
        """c▷m: pre-whisker the cell c by the morphism m."""
        try:
            return self.wr_table[(c, m)]
        except KeyError:
            raise IllTypedCellExpression(
                f"{c}▷{m} has no row in the whisker_right table") from None

    def dagger(self, mor: str) -> Adjoint:
        if mor not in self.adjoints:
            raise IllTypedCellExpression(f"morphism {mor} has no adjoint assignment")
        return self.adjoints[mor]


def opposite(mt: ModeTheory) -> ModeTheory:
    """M^coop, every morphism and cell reversed: each table is read
    transposed, and m◁c becomes c▷m and back.  No classes, no adjoints."""
    def flip(table):
        return {(y, x): z for (x, y), z in table.items()}
    return ModeTheory(
        mt.modes,
        [Morphism(m.name, m.dst, m.src) for m in mt.morphisms.values()],
        [Cell(c.name, c.dst, c.src) for c in mt.cells.values()],
        flip(mt.compose_table), flip(mt.vcompose_table), flip(mt.wr_table),
        flip(mt.wl_table), {}, [])


def require_list(v) -> list:
    """v, checked to be a list: a string read in its place would give its
    characters, and an object its keys."""
    if not isinstance(v, list):
        raise TypeError(f"{v!r} is not a list")
    return v


def require_object(v) -> dict:
    """v, checked to be an object: dict() would read a list of pairs, or of
    two-character strings, in its place as the map they spell."""
    if not isinstance(v, dict):
        raise TypeError(f"{v!r} is not an object")
    return v


def _names(xs: list) -> tuple:
    """The list xs, each entry checked to be a string: every name in a
    table is one."""
    if not all(isinstance(x, str) for x in require_list(xs)):
        raise TypeError(f"{xs!r} holds a value that is not a name")
    return tuple(xs)


def require_unique(what: str, keys) -> None:
    """Reject an input that names one entry twice, where the last would
    silently win."""
    seen = set()
    for k in keys:
        if k in seen:
            raise MalformedTable(f"{what} names {k} twice")
        seen.add(k)


def unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook: the object, refusing one that names a key
    twice, where the last would silently win."""
    out = dict(pairs)
    if len(out) < len(pairs):
        require_unique("a JSON object", (k for k, _ in pairs))
    return out


def mode_theory_from_data(data: dict) -> ModeTheory:
    if not isinstance(data, dict):
        raise MalformedTable("mode theory file must contain an object")

    def records(key, cls, *fields):  # keyed by their first field
        out = [cls(*_names([d[f] for f in fields]))
               for d in data.get(key, [])]
        require_unique(f"the {key} list", (getattr(x, fields[0]) for x in out))
        return out

    def table(key):  # rows [x, y, z] as {(x, y): z}
        rows = [_names(r) for r in data.get(key, [])]
        require_unique(f"the {key} table", ((x, y) for x, y, _ in rows))
        return {(x, y): z for x, y, z in rows}

    try:
        modes = _names(data.get("modes", []))
        require_unique("the modes list", modes)
        return ModeTheory(
            modes,
            records("morphisms", Morphism, "name", "src", "dst"),
            records("cells", Cell, "name", "src", "dst"),
            table("compose"), table("vcompose"), table("whisker_left"),
            table("whisker_right"),
            {k: _names(v) for k, v in data.get("classes", {}).items()},
            records("adjoints", Adjoint, "mor", "dagger", "unit", "counit"))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise MalformedTable(f"mode theory file is malformed: {e}") from None


def load_mode_theory(path) -> ModeTheory:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        # json raises RecursionError on arrays or objects nested too deep
        raise MalformedTable(f"{path}: {e}") from None
    return mode_theory_from_data(data)


def load_valid_mode_theory(path) -> ModeTheory:
    """load_mode_theory, then validate_mode_theory: a theory that fails
    validation raises MalformedTable naming each violated axiom once."""
    mt = load_mode_theory(path)
    report = validate_mode_theory(mt)
    if not report.ok:
        raise MalformedTable("mode theory fails validation: " + "; ".join(
            dict.fromkeys(v.axiom for v in report.violations)))
    return mt


# -- validation ------------------------------------------------------------

def validate_mode_theory(mt: ModeTheory) -> ValidationReport:
    """Exhaustive axiom scan.  Raises MalformedTable for entries whose
    sources/targets do not line up; collects axiom violations otherwise.
    When no violation is found before them and `_decided_by_boundaries`
    holds, the vcompose category laws and the 2-category axioms hold and
    their loops are not run."""
    out: list[Violation] = []

    def bad(axiom, msg):
        out.append(Violation(axiom, msg))

    _check_table_shapes(mt)
    _check_totality(mt, bad)

    # (a) identities transparent and sharp
    for p in mt.modes:
        i = id_mor_name(p)
        if not mt.in_class("transparent", i):
            bad("identity-transparent", f"identity {i} is not transparent")
        if not mt.in_class("sharp", i):
            bad("identity-sharp", f"identity {i} is not sharp")

    # (b) sharp-then-transparent composites tangible, plus the derived checks
    for m in mt.morphisms.values():
        if mt.in_class("sharp", m.name):
            for n in mt.morphisms.values():
                if n.src != m.dst or not mt.in_class("transparent", n.name):
                    continue
                comp = mt.compose_table.get((n.name, m.name))
                if comp is not None and not mt.in_class("tangible", comp):
                    bad("sharp-transparent-composite-tangible",
                        f"{n.name}∘{m.name} = {comp} is not tangible")
        if mt.in_class("sharp", m.name) and not mt.in_class("tangible", m.name):
            bad("sharp-tangible", f"sharp morphism {m.name} is not tangible")
        if mt.in_class("transparent", m.name) and not mt.in_class("tangible", m.name):
            bad("transparent-tangible", f"transparent morphism {m.name} is not tangible")

    _check_category(mt.morphisms, mt.compose_table, id_mor_name, "compose", bad)
    if out or not _decided_by_boundaries(mt):
        _check_category(mt.cells, mt.vcompose_table, id_cell_name, "vcompose",
                        bad)
        _check_two_category(mt, bad)
    _check_adjoints(mt, bad)
    return ValidationReport(tuple(out))


def _decided_by_boundaries(mt: ModeTheory) -> bool:
    """Whether every equation of the vcompose and whisker tables is decided
    by boundaries: the theory is locally posetal (no two cells are
    parallel), and whiskering by an identity gives the cell itself.
    validate_mode_theory asks only when the table shapes are right and no
    violation is recorded, so the compose table is a total category and
    every other whisker row has had its boundary checked: each equation
    then compares two cells with one boundary, and there is at most one
    such cell."""
    wl, wr = mt.wl_table, mt.wr_table
    if len({(c.src, c.dst) for c in mt.cells.values()}) != len(mt.cells):
        return False
    for c in mt.cells:
        src, dst = mt.cell_modes(c)
        if wl.get((id_mor_name(dst), c)) != c or \
                wr.get((c, id_mor_name(src))) != c:
            return False
    return True


def _check_table_shapes(mt: ModeTheory):
    """Each row of the four tables names morphisms or cells whose modes and
    boundaries fit; the first bad row raises.  The ends of every name are
    read from two dicts built once, morphism name -> (src, dst) and cell
    name -> (src mor, dst mor, (src mode, dst mode)); a name they lack
    raises as mt.mor, mt.cell and mt.cell_modes do."""
    mors = {n: (m.src, m.dst) for n, m in mt.morphisms.items()}
    cells = {n: (c.src, c.dst, mors.get(c.src)) for n, c in mt.cells.items()}
    comp = mt.compose_table
    for (g, f), h in comp.items():
        try:
            gm, fm, hm = mors[g], mors[f], mors[h]
        except KeyError:  # raises at the first unknown name, as before
            mt.mor(g), mt.mor(f), mt.mor(h)
        if fm[1] != gm[0] or hm != (fm[0], gm[1]):
            raise MalformedTable(f"compose entry ({g},{f})->{h} has mismatched modes")
    for (b, a), c in mt.vcompose_table.items():
        try:
            bc, ac, cc = cells[b], cells[a], cells[c]
        except KeyError:
            mt.cell(b), mt.cell(a), mt.cell(c)
        if ac[1] != bc[0] or cc[:2] != (ac[0], bc[1]):
            raise MalformedTable(f"vcompose entry ({b},{a})->{c} has mismatched cells")
    for (m, c), r in mt.wl_table.items():
        try:
            cc, rc, mm = cells[c], cells[r], mors[m]
        except KeyError:
            mt.cell(c), mt.cell(r), mt.mor(m)
        if mm[0] != (cc[2] or mt.cell_modes(c))[1]:
            raise MalformedTable(f"whisker_left entry ({m},{c}) has mismatched modes")
        if m == id_mor_name(mm[0]):
            continue  # 1◁β = β is whisker-left-unital, not a compose row
        want_src, want_dst = comp.get((m, cc[0])), comp.get((m, cc[1]))
        if want_src is not None and want_dst is not None and \
                rc[:2] != (want_src, want_dst):
            raise MalformedTable(f"whisker_left entry ({m},{c})->{r} has wrong boundary")
    for (c, m), r in mt.wr_table.items():
        try:
            cc, rc, mm = cells[c], cells[r], mors[m]
        except KeyError:
            mt.cell(c), mt.cell(r), mt.mor(m)
        if mm[1] != (cc[2] or mt.cell_modes(c))[0]:
            raise MalformedTable(f"whisker_right entry ({c},{m}) has mismatched modes")
        if m == id_mor_name(mm[0]):
            continue  # β▷1 = β is whisker-right-unital
        want_src, want_dst = comp.get((cc[0], m)), comp.get((cc[1], m))
        if want_src is not None and want_dst is not None and \
                rc[:2] != (want_src, want_dst):
            raise MalformedTable(f"whisker_right entry ({c},{m})->{r} has wrong boundary")


def _check_totality(mt: ModeTheory, bad):
    for g in mt.morphisms.values():
        for f in mt.morphisms.values():
            if f.dst == g.src and (g.name, f.name) not in mt.compose_table:
                bad("table-totality", f"composite {g.name}∘{f.name} missing")
    for b in mt.cells.values():
        for a in mt.cells.values():
            if a.dst == b.src and (b.name, a.name) not in mt.vcompose_table:
                bad("table-totality", f"vertical composite {b.name}∘{a.name} missing")
    for m in mt.morphisms.values():
        for c in mt.cells.values():
            src, dst = mt.cell_modes(c.name)
            if m.src == dst and (m.name, c.name) not in mt.wl_table:
                bad("table-totality", f"whiskering {m.name}◁{c.name} missing")
            if m.dst == src and (c.name, m.name) not in mt.wr_table:
                bad("table-totality", f"whiskering {c.name}▷{m.name} missing")


def _check_category(elems, table, ident, axiom, bad):
    """Associativity and unit laws of one composition table over elems,
    morphisms or cells: each has a name, a src and a dst, and ident(x) names
    the identity on x.  Rows are well-typed (`_check_table_shapes`), so only
    a composable pair has one."""
    for h in elems.values():
        for g in elems.values():
            hg = table.get((h.name, g.name))
            if hg is None:
                continue
            for f in elems.values():
                gf = table.get((g.name, f.name))
                if gf is None:
                    continue
                left = table.get((hg, f.name))
                right = table.get((h.name, gf))
                if None not in (left, right) and left != right:
                    bad(axiom + "-associative",
                        f"({h.name}∘{g.name})∘{f.name} = {left} but "
                        f"{h.name}∘({g.name}∘{f.name}) = {right}")
    for f in elems.values():
        lu = table.get((ident(f.dst), f.name))
        ru = table.get((f.name, ident(f.src)))
        if lu not in (None, f.name):
            bad(axiom + "-unital", f"id∘{f.name} = {lu}")
        if ru not in (None, f.name):
            bad(axiom + "-unital", f"{f.name}∘id = {ru}")


def _check_two_category(mt: ModeTheory, bad):
    """The whiskering axioms and interchange, all guarded lookups.  Rows are
    well-typed (`_check_table_shapes`), so a lookup of a pair that does not
    compose, or of a missing (None) operand, finds no row, and each loop
    can walk every morphism.  validate_mode_theory calls this only when
    `_decided_by_boundaries` fails, on no bundled theory."""
    vc, wl, wr, comp = (mt.vcompose_table, mt.wl_table, mt.wr_table,
                        mt.compose_table)
    mors = mt.morphisms.values()
    for b in mt.cells.values():
        for a in mt.cells.values():
            if a.dst != b.src:
                continue
            ba = vc.get((b.name, a.name))
            if ba is None:
                continue
            for r in mors:
                br = wr.get((b.name, r.name))
                ar = wr.get((a.name, r.name))
                bar = wr.get((ba, r.name))
                if br and ar and bar and vc.get((br, ar)) not in (None, bar):
                    bad("whisker-right-functorial",
                        f"({b.name}▷{r.name})∘({a.name}▷{r.name}) != "
                        f"({b.name}∘{a.name})▷{r.name}")
                rb = wl.get((r.name, b.name))
                ra = wl.get((r.name, a.name))
                rba = wl.get((r.name, ba))
                if rb and ra and rba and vc.get((rb, ra)) not in (None, rba):
                    bad("whisker-left-functorial",
                        f"{r.name}◁({b.name}∘{a.name}) != "
                        f"({r.name}◁{b.name})∘({r.name}◁{a.name})")
    for n in mors:
        for r in mors:
            nr = comp.get((n.name, r.name))
            got = wr.get((id_cell_name(n.name), r.name))
            if nr and got and got != id_cell_name(nr):
                bad("whisker-right-identity", f"1_{n.name}▷{r.name} = {got}")
            got = wl.get((n.name, id_cell_name(r.name)))
            if nr and got and got != id_cell_name(nr):
                bad("whisker-left-identity", f"{n.name}◁1_{r.name} = {got}")
    for b in mt.cells.values():
        src, dst = mt.cell_modes(b.name)
        got = wl.get((id_mor_name(dst), b.name))
        if got not in (None, b.name):
            bad("whisker-left-unital", f"1◁{b.name} = {got}")
        got = wr.get((b.name, id_mor_name(src)))
        if got not in (None, b.name):
            bad("whisker-right-unital", f"{b.name}▷1 = {got}")
    for m in mors:
        for b in mt.cells.values():
            mb = wl.get((m.name, b.name))
            if mb is None:  # m does not start where b ends
                continue
            for s in mors:
                bs = wr.get((b.name, s.name))
                if bs is None:
                    continue
                left = wr.get((mb, s.name))
                right = wl.get((m.name, bs))
                if left is not None and right is not None and left != right:
                    bad("whisker-associative",
                        f"({m.name}◁{b.name})▷{s.name} != {m.name}◁({b.name}▷{s.name})")
    for b in mt.cells.values():
        for n in mors:
            nb, bn = wl.get((n.name, b.name)), wr.get((b.name, n.name))
            if nb is None and bn is None:
                continue
            for m in mors:
                left = wl.get((m.name, nb))
                right = wl.get((comp.get((m.name, n.name)), b.name))
                if None not in (left, right) and left != right:
                    bad("whisker-left-compose",
                        f"{m.name}◁({n.name}◁{b.name}) = {left} but "
                        f"({m.name}∘{n.name})◁{b.name} = {right}")
                left = wr.get((bn, m.name))
                right = wr.get((b.name, comp.get((n.name, m.name))))
                if None not in (left, right) and left != right:
                    bad("whisker-right-compose",
                        f"({b.name}▷{n.name})▷{m.name} = {left} but "
                        f"{b.name}▷({n.name}∘{m.name}) = {right}")
    for a in mt.cells.values():  # a: k ⇒ k'
        for b in mt.cells.values():  # b: m ⇒ m', m after k
            left = vc.get((wr.get((b.name, a.dst)), wl.get((b.src, a.name))))
            right = vc.get((wl.get((b.dst, a.name)), wr.get((b.name, a.src))))
            if None not in (left, right) and left != right:
                bad("interchange",
                    f"({b.name}▷{a.dst})∘({b.src}◁{a.name}) = {left} but "
                    f"({b.dst}◁{a.name})∘({b.name}▷{a.src}) = {right}")


def _check_adjoints(mt: ModeTheory, bad):
    for name in sorted(mt.classes["sinister"]):
        if name not in mt.adjoints:
            bad("adjoint-missing", f"sinister morphism {name} has no adjoint entry")
            continue
        a = mt.adjoints[name]
        m, d = mt.mor(name), mt.mor(a.dagger)
        unit, counit = mt.cell(a.unit), mt.cell(a.counit)
        ok = True
        if (d.src, d.dst) != (m.dst, m.src):
            bad("adjoint-typing", f"{a.dagger} is not a candidate right adjoint of {name}")
            ok = False
        dm = mt.compose_table.get((a.dagger, name))
        md = mt.compose_table.get((name, a.dagger))
        if dm is None or md is None:
            ok = False
        if ok and (unit.src, unit.dst) != (id_mor_name(m.src), dm):
            bad("adjoint-typing", f"unit {a.unit} is not 1_{m.src} ⇒ {a.dagger}∘{name}")
            ok = False
        if ok and (counit.src, counit.dst) != (md, id_mor_name(m.dst)):
            bad("adjoint-typing", f"counit {a.counit} is not {name}∘{a.dagger} ⇒ 1_{m.dst}")
            ok = False
        if not ok:
            continue
        try:
            left = mt.vcomp(mt.wr(a.counit, name), mt.wl(name, a.unit))
            if left != id_cell_name(name):
                bad("triangle-left",
                    f"(ε▷{name})∘({name}◁η) = {left}, expected 1_{name}")
        except IllTypedCellExpression as e:
            bad("triangle-left", f"triangle for {name} not evaluable: {e}")
        try:
            right = mt.vcomp(mt.wl(a.dagger, a.counit), mt.wr(a.unit, a.dagger))
            if right != id_cell_name(a.dagger):
                bad("triangle-right",
                    f"({a.dagger}◁ε)∘(η▷{a.dagger}) = {right}, expected 1_{a.dagger}")
        except IllTypedCellExpression as e:
            bad("triangle-right", f"triangle for {name} not evaluable: {e}")
