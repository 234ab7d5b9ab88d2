"""Finite categories, functors, natural transformations, and limits.

Everything is finite and checked exhaustively.  Identity arrows are
synthesized (named "id:<obj>" for string objects, ("id", obj) otherwise) and
never override user-supplied table rows.  Hom-sets are indexed by the pair
of positions (i, j) of their ends in the object list at construction, and a
FinCat is never changed after it is built.

A ThinCat is the engine's thin category on positions: the arrow from the
i-th object to the j-th is named by the pair (i, j), its own key in that
index, (i, i) is the identity, and a composite is read off the ends of its
factors, so no composition table is built or checked and no object is
hashed per arrow.  It shares every lookup but `ends` and `comp` with
FinCat.  The thin codex categories are ThinCats; categories read from
files keep their tables.

A FinCat records whether it is thin: at most one arrow per hom-set.  Its
objects have integer positions, and each position has the bitmask of the
positions below it, its down-set, both built at construction.  In a thin
FinCat every cone commutes, so a limit is a greatest lower bound of the
diagram's objects, found by ANDing down-set masks, and its cone keeps the
positions of its apex and nodes and builds a leg only when one is read.  A
mediating arrow is the one arrow of its hom-set, so a caller that knows
the category is thin asks `factorizations` for it with no leg to compose.
Any other FinCat is searched for a terminal cone among all cones.  Both
paths bound the number of candidate cones by a configurable cap.  For the
same reason the validators read boundaries where they can: on a thin
category a composite on its boundary is the composite, and on a thin
target a square whose sides have the right ends commutes.
One flag, lawful, tells `FinFunctor.validate` that its source and target
are known to be categories; `Diagram.validate` passes it once every
category has validated clean, and only then calls `Diagram.strictness`,
which presumes it.  Each checks for itself, strictness once per functor,
that the arrow images land before it decides an equation into a thin
category by boundaries.  Then a functor skips its composition loop; and
once every functor lands, a composite functor is compared with its
factors on objects alone, a natural transformation into a thin category
is not asked for naturality, and the vcompose, wl and wr rows are
skipped when every category is thin.

Boundaries are read on positions: `FinCat.ends` gives the positions of an
arrow's ends, `FinCat.arrow_at` the arrow between two positions, and
`FinFunctor.lands` compares an arrow image's ends with the positions of
the images of its source's ends, so no object is hashed per arrow; on a
ThinCat both are the arrow's name.  In a thin category `is_iso` asks
whether an arrow runs back, so `isomorphic` whether arrows run both ways.

`first_unpreserved_limit` checks that functors preserve the binary and
empty limits of their source.  On a thin source with thin targets it works
on positions and masks alone and builds no cone, and checks no leg of a
functor that lands every arrow; otherwise it takes `limit` and
`check_preserves_limit`, one diagram at a time.  `is_terminal_cone`,
which `check_preserves_limit` calls, searches all cones on every category,
thin or not, so the tests hold the mask path to a reference that shares
none of its mask code.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Hashable, Optional

from .errors import CapExceeded, MalformedTable, NotComposable
from .mode_theory import (ModeTheory, require_list, require_object,
                          require_unique, unique_keys)
from .record import frozen


def id_name(obj):
    return f"id:{obj}" if isinstance(obj, str) else ("id", obj)


@frozen
class Arrow:
    name: Hashable
    src: Hashable
    dst: Hashable


class FinCat:
    def __init__(self, objects, arrows, compose, name: str = ""):
        """arrows: iterable of (name, src, dst); compose: iterable of
        (g, f, h) rows meaning g∘f = h."""
        self.name = name
        self.objects = list(dict.fromkeys(objects))
        self.arrows: dict = {}
        for (n, s, d) in arrows:
            if n in self.arrows:
                raise MalformedTable(f"duplicate arrow {n}")
            self.arrows[n] = Arrow(n, s, d)
        self.identities = {}
        for o in self.objects:
            i = id_name(o)
            self.identities[o] = i
            self.arrows.setdefault(i, Arrow(i, o, o))
        self._pos = pos = {o: i for i, o in enumerate(self.objects)}
        self._hom: dict = {}  # (i, j) -> arrow names in insertion order
        for n, a in self.arrows.items():
            if a.src not in pos or a.dst not in pos:
                raise MalformedTable(f"arrow {n} has unknown endpoint")
            self._hom.setdefault((pos[a.src], pos[a.dst]), []).append(n)
        self.compose: dict = {}
        for (g, f, h) in compose:
            ga, fa = self.arrows.get(g), self.arrows.get(f)
            ha = self.arrows.get(h)
            if ga is None or fa is None or ha is None:
                raise MalformedTable(f"composition row {g}∘{f} = {h} names "
                                     f"an unknown arrow in {name}")
            if fa.dst is not ga.src and fa.dst != ga.src:
                raise MalformedTable(f"composition row {g}∘{f}: "
                                     f"{f} and {g} do not compose in {name}")
            self.compose[(g, f)] = ha.name  # the arrow's own name instance
        for n, a in self.arrows.items():
            self.compose.setdefault((n, self.identities[a.src]), n)
            self.compose.setdefault((self.identities[a.dst], n), n)
        self._index()

    def _index(self):
        """Read off _hom: thin, at most one arrow per hom-set, and _down[j],
        the mask of the positions with an arrow into the j-th object."""
        self.thin = all(len(h) == 1 for h in self._hom.values())
        self._down = [0] * len(self.objects)
        for (i, j) in self._hom:
            self._down[j] |= 1 << i

    def arr(self, name) -> Arrow:
        try:
            return self.arrows[name]
        except (KeyError, TypeError):  # a name that is not hashable
            raise MalformedTable(f"unknown arrow {name!r} in {self.name}") \
                from None

    def id_arr(self, obj):
        if obj not in self.identities:
            raise MalformedTable(f"unknown object {obj!r} in {self.name}")
        return self.identities[obj]

    def hom(self, x, y) -> list:
        return list(self._hom.get((self._pos.get(x), self._pos.get(y)), ()))

    def one_arrow(self, x, y):
        """The first arrow x → y in hom order, or None when there is none:
        in a thin category, the one arrow x → y."""
        return self.arrow_at(self._pos.get(x), self._pos.get(y))

    def arrow_at(self, i, j):
        """one_arrow from the i-th object to the j-th."""
        h = self._hom.get((i, j))
        return h[0] if h else None

    def ends(self, name):
        """The positions (i, j) of the ends of the arrow name, or None when
        it names no arrow."""
        a = self.arrows.get(name)
        return None if a is None else (self._pos[a.src], self._pos[a.dst])

    def comp(self, g, f):
        """g∘f (first f, then g)."""
        try:
            return self.compose[(g, f)]
        except KeyError:
            pass
        ga, fa = self.arr(g), self.arr(f)
        if fa.dst != ga.src:
            raise NotComposable(f"{g}∘{f}: {fa.dst} != {ga.src}")
        raise MalformedTable(f"missing composition {g}∘{f} in {self.name}")

    def out_of(self) -> dict:
        """The arrows out of each object, in arrow order."""
        out: dict = {o: [] for o in self.objects}
        for a in self.arrows.values():
            out[a.src].append(a)
        return out

    def validate(self) -> list[str]:
        """Exhaustive category laws; returns human-readable violations.
        When the category is thin and every composite lies on its
        boundary, associativity holds, as parallel arrows are equal, and
        its loop is not run."""
        out = []
        for n, a in self.arrows.items():
            if self.comp(n, self.identities[a.src]) != n or \
                    self.comp(self.identities[a.dst], n) != n:
                out.append(f"unit law fails at {n}")
        out_of = self.out_of()
        pairs = []  # (f, g, g∘f or None, its violation or None)
        for f in self.arrows.values():
            for g in out_of[f.dst]:
                try:
                    ga = self.arr(self.comp(g.name, f.name))
                except (NotComposable, MalformedTable) as e:
                    pairs.append((f, g, None, str(e)))
                    continue
                pairs.append((f, g, ga.name, None)
                             if (ga.src, ga.dst) == (f.src, g.dst) else
                             (f, g, None, f"composite {g.name}∘{f.name} has "
                              f"wrong boundary"))
        if self.thin and not any(bad for *_, bad in pairs):
            return out
        for f, g, gf, bad in pairs:
            if bad is not None:
                out.append(bad)
                continue
            for h in out_of[g.dst]:
                try:
                    if self.comp(h.name, gf) != \
                            self.comp(self.comp(h.name, g.name), f.name):
                        out.append(f"associativity fails at "
                                   f"{h.name},{g.name},{f.name}")
                except (NotComposable, MalformedTable) as e:
                    out.append(str(e))
        return out


class ThinCat(FinCat):
    """A thin category on positions, built by the engine.  The arrow from
    objects[i] to objects[j] is named (i, j) and (i, i) is the identity;
    ends lists the pairs i != j with an arrow, in arrow order, each pair
    the arrow's name and its key in the hom index, and is closed under
    composition.  No table is held: comp reads a composite off the ends of
    its factors."""

    def __init__(self, objects, ends, name: str = ""):
        self.name = name
        self.objects = objs = list(objects)
        self.arrows = {n: Arrow(n, objs[n[0]], objs[n[1]]) for n in ends}
        self.identities = {}
        for i, o in enumerate(objs):
            self.identities[o] = n = (i, i)
            self.arrows[n] = Arrow(n, o, o)
        self._pos = {o: i for i, o in enumerate(objs)}
        self._hom = {n: [n] for n in self.arrows}
        self._index()

    def ends(self, name):
        return name if name in self.arrows else None

    def comp(self, g, f):
        """g∘f (first f, then g): the arrow from f's source to g's target,
        as this category holds it."""
        ga, fa = self.arr(g), self.arr(f)
        if f[1] != g[0]:
            raise NotComposable(f"{g}∘{f}: {fa.dst} != {ga.src}")
        return self.arrows[f[0], g[1]].name


def product_arrows(cats: list, families: list) -> list:
    """In the product of the thin categories cats, the pairs (i, j), i != j,
    with an arrow from families[i] to families[j], in that order; each
    family holds one object of each category.  up[i] is the mask of the j
    with an arrow families[i] -> families[j]: per category, those whose
    object lies above the object of families[i]."""
    n = len(families)
    up = [(1 << n) - 1] * n
    for k, c in enumerate(cats):
        pos = [c._pos[f[k]] for f in families]
        at = [0] * len(c.objects)  # position in c -> the i there
        for i, x in enumerate(pos):
            at[x] |= 1 << i
        above = [0] * len(c.objects)  # position in c -> the i above it
        for y, down in enumerate(c._down):
            for x in range(len(above)):
                if down >> x & 1:
                    above[x] |= at[y]
        for i, x in enumerate(pos):
            up[i] &= above[x]
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and up[i] >> j & 1]


def poset_category(objects, leq: Callable, name: str = "") -> FinCat:
    """The thin category of a finite preorder; arrow x→y named 'x<=y'."""
    arrows, compose = [], []
    rel = [(x, y) for x in objects for y in objects if x != y and leq(x, y)]
    nm = {p: f"{p[0]}<={p[1]}" for p in rel}
    for (x, y) in rel:
        arrows.append((nm[(x, y)], x, y))
    nm.update({(x, x): id_name(x) for x in objects})  # x<=y<=x is id_x
    for (x, y) in rel:
        for (y2, z) in rel:
            if y2 == y and (x, z) in nm:
                compose.append((nm[(y, z)], nm[(x, y)], nm[(x, z)]))
    return FinCat(objects, arrows, compose, name=name)


class FinFunctor:
    def __init__(self, src: FinCat, dst: FinCat, omap: dict, amap: dict,
                 name: str = ""):
        """omap and amap are held, not copied; amap gains the images of
        the identity arrows it leaves out, as a functor read from a file
        may."""
        self.name = name
        self.src, self.dst = src, dst
        self.omap = omap
        self.amap = amap
        if not amap.keys() >= src.arrows.keys():
            for o in src.objects:
                if o in omap and omap[o] in dst.identities:
                    amap.setdefault(src.id_arr(o), dst.id_arr(omap[o]))

    def image_positions(self) -> list:
        """The target position of the image of each source object, in
        source order; None where the object map misses the object or names
        no object of the target."""
        pos = self.dst._pos
        return [pos.get(self.omap.get(o)) for o in self.src.objects]

    def lands(self, name, img) -> bool:
        """Whether the image of the source arrow name runs between the
        images of its ends, read on positions: img is image_positions(),
        so no object is hashed here.  False when an image is missing."""
        i, j = self.src.ends(name)
        return self.dst.ends(self.amap.get(name)) == (img[i], img[j])

    def lands_all(self, img: list) -> bool:
        """Whether every arrow image lands; img is image_positions()."""
        return all(self.lands(n, img) for n in self.src.arrows)

    def validate(self, lawful: bool = False) -> list[str]:
        """Maps, boundaries, then identities and composition.  lawful says
        that the source and target are known to be categories: then, into
        a thin target, composition is preserved once every arrow image
        lands, as checked here, since the two sides of each equation are
        parallel, and its loop is not run."""
        out = [f"object map misses {o}" for o in self.src.objects
               if o not in self.omap or self.omap[o] not in self.dst.objects]
        out += [f"object map names {o}, not an object of the source"
                for o in self.omap if o not in self.src.identities]
        out += [f"arrow map names {a}, not an arrow of the source"
                for a in self.amap if a not in self.src.arrows]
        if out:
            return out  # the arrow checks read the object map
        for n, a in self.src.arrows.items():
            if n not in self.amap:
                out.append(f"arrow map misses {n}")
                continue
            fa = self.dst.arr(self.amap[n])
            if (fa.src, fa.dst) != (self.omap[a.src], self.omap[a.dst]):
                out.append(f"arrow image of {n} has wrong boundary")
        if out:
            return out  # later laws presuppose well-bounded tables
        for o in self.src.objects:
            if self.amap[self.src.id_arr(o)] != self.dst.id_arr(self.omap[o]):
                out.append(f"identity at {o} not preserved")
        if lawful and self.dst.thin:
            return out
        out_of = self.src.out_of()
        for f in self.src.arrows.values():
            for g in out_of[f.dst]:
                lhs = self.amap[self.src.comp(g.name, f.name)]
                rhs = self.dst.comp(self.amap[g.name], self.amap[f.name])
                if lhs != rhs:
                    out.append(f"composition not preserved at "
                               f"{g.name}∘{f.name}")
        return out

    def maps_like(self, obj: Callable, arr: Optional[Callable]) -> bool:
        """Whether this functor sends each object o of its source to obj(o)
        and, unless arr is None, each arrow a to arr(a); its maps are
        presumed total, as validate checks."""
        objs, arrows = self.src.objects, self.src.arrows
        # lists compare an element to itself without calling its __eq__
        return [self.omap[o] for o in objs] == [obj(o) for o in objs] and \
            (arr is None or
             [self.amap[a] for a in arrows] == [arr(a) for a in arrows])


def _same(x):
    return x


def identity_functor(c: FinCat) -> FinFunctor:
    return FinFunctor(c, c, {o: o for o in c.objects},
                      {a: a for a in c.arrows}, name=f"Id({c.name})")


def compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    """g∘f (apply f first)."""
    return FinFunctor(f.src, g.dst,
                      {o: g.omap[f.omap[o]] for o in f.src.objects},
                      {a: g.amap[f.amap[a]] for a in f.src.arrows},
                      name=f"{g.name}∘{f.name}")


class FinNat:
    def __init__(self, src: FinFunctor, dst: FinFunctor, components: dict,
                 name: str = ""):
        self.name = name
        self.src, self.dst = src, dst
        self.components = dict(components)

    def at(self, obj):
        return self.components[obj]

    def validate(self, natural: bool = True) -> list[str]:
        """Components, then naturality when asked: strictness does not ask
        where it has decided naturality by boundaries."""
        cat = self.dst.dst
        out = [f"components name {o}, not an object of the source"
               for o in self.components if o not in self.src.src.identities]
        for o in self.src.src.objects:
            if o not in self.components:
                out.append(f"component missing at {o}")
                continue
            c = cat.arr(self.components[o])
            if (c.src, c.dst) != (self.src.omap[o], self.dst.omap[o]):
                out.append(f"component at {o} has wrong boundary")
        if out or not natural:
            return out  # naturality composes the components
        for f in self.src.src.arrows.values():
            lhs = cat.comp(self.dst.amap[f.name], self.components[f.src])
            rhs = cat.comp(self.components[f.dst], self.src.amap[f.name])
            if lhs != rhs:
                out.append(f"naturality fails at {f.name}")
        return out


def identity_nat(f: FinFunctor, name: str = "") -> FinNat:
    return FinNat(f, f, {o: f.dst.id_arr(f.omap[o]) for o in f.src.objects
                         if o in f.omap and f.omap[o] in f.dst.identities},
                  name=name)


# --- diagrams of categories over a mode theory --------------------------------

class Diagram:
    """A strict 2-functor from the mode theory to Cat: μ: p→q is sent to a
    functor C_μ : C_p → C_q, and a cell β: ρ ⇒ ρ' to a natural transformation
    C_β : C_ρ ⇒ C_ρ'."""

    def __init__(self, mt: ModeTheory, cats: dict, functors: dict,
                 nats: dict):
        self.mt = mt
        self.cats = dict(cats)
        self.functors = dict(functors)
        self.nats = dict(nats)
        for p in mt.modes:  # built only where absent
            if mt.id_mor(p) not in self.functors:
                self.functors[mt.id_mor(p)] = identity_functor(self.cats[p])
        for m, f in list(self.functors.items()):
            if (i := mt.id_cell(m)) not in self.nats:
                self.nats[i] = identity_nat(f, name=i)

    def cat(self, mode: str) -> FinCat:
        return self.cats[mode]

    def fun(self, mor: str) -> FinFunctor:
        return self.functors[mor]

    def nat(self, cell: str) -> FinNat:
        return self.nats[cell]

    def validate(self) -> list[str]:
        """Categories, functors, then strictness.  When every category
        validates clean, the functors and strictness are told so, and may
        decide an equation into a thin category by boundaries
        (`FinFunctor.validate`, `strictness`)."""
        out = []
        for p, c in self.cats.items():
            out += [f"C_{p}: {v}" for v in c.validate()]
        lawful = not out
        for m in self.mt.morphisms.values():
            f = self.functors.get(m.name)
            if f is None:
                out.append(f"functor missing for {m.name}")
                continue
            if f.src is not self.cats[m.src] or f.dst is not self.cats[m.dst]:
                out.append(f"functor for {m.name} has wrong boundary")
                continue
            out += [f"C_{m.name}: {v}" for v in f.validate(lawful)]
        return out or self.strictness()

    def strictness(self) -> list[str]:
        """The strict 2-functor laws on functors, which validate has
        checked: identity functors, composites, each cell's natural
        transformation (an identity cell is only compared with the
        identity), then vcompose, wl and wr rows.  Tables are compared in
        place, and the mode theory's tables are presumed well-shaped, as
        validate_mode_theory checks.

        Every category is presumed a category: validate calls this once
        they have validated clean, and the codex bundle for its lock
        diagram, whose codexes are categories as enumerated.  Whether each
        functor's arrow images land is read once, on positions.  When they
        all do, a composite functor into a thin category whose object map
        is right has the right arrow map, a natural transformation into a
        thin category is natural, and when every category is thin, the
        vcompose, wl and wr rows compare parallel components, whose
        boundaries the natural transformations' checks fix, and are not
        run."""
        out = [f"C_{m} is not the identity functor" for m in self.mt.morphisms
               if self.mt.is_id_mor(m) and
               not self.functors[m].maps_like(_same, _same)]
        if out:
            return out  # the checks below compose the functors' tables
        lands = all(f.lands_all(f.image_positions())
                    for f in self.functors.values())
        for (mu, nu), comp in self.mt.compose_table.items():
            g, f, h = self.functors[mu], self.functors[nu], self.functors[comp]
            decided = lands and h.dst.thin
            if not h.maps_like(lambda o: g.omap[f.omap[o]], None if decided
                               else lambda a: g.amap[f.amap[a]]):
                out.append(f"strictness fails: C_({mu}∘{nu}) != "
                           f"C_{mu}∘C_{nu}")
        for c in self.mt.cells.values():
            n = self.nats.get(c.name)
            if n is None:
                out.append(f"natural transformation missing for {c.name}")
                continue
            if n.src is not self.functors[c.src] or \
                    n.dst is not self.functors[c.dst]:
                out.append(f"C_{c.name} has wrong boundary")
                continue
            ident = self.mt.is_id_cell(c.name)
            decided = ident or lands and n.dst.dst.thin
            bad = [f"C_{c.name}: {v}" for v in n.validate(not decided)]
            f = n.src
            if not bad and ident and any(
                    n.at(o) != f.dst.id_arr(f.omap[o]) for o in f.src.objects):
                bad.append(f"C_{c.name} is not the identity")
            out += bad
        if out or lands and all(c.thin for c in self.cats.values()):
            return out  # the checks below compose the components
        return self._component_rows()

    def _component_rows(self) -> list[str]:
        """strictness's vcompose, wl and wr rows, component by component."""
        out = []
        for (b, a), v in self.mt.vcompose_table.items():
            na, nb, nv = self.nats[a], self.nats[b], self.nats[v]
            cat = nv.dst.dst
            for o in nv.src.src.objects:
                if nv.at(o) != cat.comp(nb.at(o), na.at(o)):
                    out.append(f"C_({b}∘{a}) differs at {o}")
                    break
        for (m, c), w in self.mt.wl_table.items():
            nc, nw = self.nats[c], self.nats[w]
            fm = self.functors[m]
            for o in nc.src.src.objects:
                if nw.at(o) != fm.amap[nc.at(o)]:
                    out.append(f"C_({m}◁{c}) differs at {o}")
                    break
        for (c, m), w in self.mt.wr_table.items():
            nc, nw = self.nats[c], self.nats[w]
            fm = self.functors[m]
            for o in fm.src.objects:
                if nw.at(o) != nc.at(fm.omap[o]):
                    out.append(f"C_({c}▷{m}) differs at {o}")
                    break
        return out


# --- limits ------------------------------------------------------------------

@frozen
class Cone:
    """A cone: its apex and its legs, (node key, arrow name) pairs in the
    order of the diagram's nodes.  The cone that `limit` finds in a thin
    category is built by `on_positions`: it keeps the category and the
    positions of its apex and nodes, and builds a leg, the arrow from the
    apex to the node, only when `leg` or `legs` reads it.  A copy holds
    its legs, as a cone built from them does."""
    __slots__ = ("_by_key", "_thin")
    apex: Hashable
    legs: tuple

    def __post_init__(self):
        object.__setattr__(self, "_by_key", dict(self.legs))
        object.__setattr__(self, "_thin", None)

    @classmethod
    def on_positions(cls, c: FinCat, apex: int, at: dict) -> "Cone":
        """The cone in the thin c from its apex-th object to the at[key]-th
        object at each node key, in the order of at."""
        cone = cls.__new__(cls)
        object.__setattr__(cone, "apex", c.objects[apex])
        object.__setattr__(cone, "_thin", (c, apex, at))
        return cone

    def __getattr__(self, name):
        # reached only for an unset slot: a thin cone's legs and its map by
        # key, built together when first read
        if name != "legs" and name != "_by_key":
            raise AttributeError(name)
        c, i, at = self._thin
        legs = tuple((k, c.arrow_at(i, j)) for k, j in at.items())
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "_by_key", dict(legs))
        return getattr(self, name)

    def leg(self, key):
        if self._thin is None:
            return self._by_key[key]
        c, i, at = self._thin
        return c.arrow_at(i, at[key])


def _check_cap(size: int, cap: Optional[int]):
    if cap is not None and size > cap:
        raise CapExceeded(f"cone search size {size} exceeds cap {cap}")


def _cones(c: FinCat, keys, edges, apex, choices) -> list[Cone]:
    out = []
    for combo in itertools.product(*choices):
        legs = dict(zip(keys, combo))
        if all(c.comp(e_arr, legs[a]) == legs[b] for (a, b, e_arr) in edges):
            out.append(Cone(apex, tuple(legs.items())))
    return out


def all_cones(c: FinCat, nodes: dict, edges, cap: Optional[int] = None,
              order: Optional[int] = None) -> list[Cone]:
    """Every cone over the diagram, its legs in the order of nodes: per
    apex in object order, then per leg choice in hom order, the first
    node's choice varying slowest.  order, when given, shuffles the apexes
    and then the cones."""
    keys = list(nodes)
    # each apex's leg choices, one hom-set per node
    per_apex = [(apex, [c.hom(apex, nodes[k]) for k in keys])
                for apex in c.objects]
    _check_cap(sum(math.prod(map(len, choices)) for _, choices in per_apex),
               cap)
    if order is not None:
        random.Random(order).shuffle(per_apex)
    out = []
    for apex, choices in per_apex:
        out.extend(_cones(c, keys, edges, apex, choices))
    if order is not None:
        random.Random(order + 1).shuffle(out)
    return out


def factorizations(c: FinCat, x, y, pairs) -> list:
    """The arrows u: x → y with leg∘u == want for every (leg, want) pair,
    in hom order: the candidate mediating arrows into a cone."""
    pairs = list(pairs)
    return [u for u in c.hom(x, y)
            if all(c.comp(leg, u) == want for leg, want in pairs)]


def _is_terminal(c: FinCat, cone: Cone, cones) -> bool:
    """Whether every one of cones factors through cone in exactly one way."""
    for k in cones:
        pairs = [(cone.leg(key), arr) for key, arr in k.legs]
        if len(factorizations(c, k.apex, cone.apex, pairs)) != 1:
            return False
    return True


def is_iso(c: FinCat, f) -> bool:
    """Whether f has a two-sided inverse: in a thin c, whether an arrow
    runs back, as both composites are then endo-arrows, so identities."""
    if c.thin and (ends := c.ends(f)) is not None:
        return c.arrow_at(ends[1], ends[0]) is not None
    a = c.arr(f)
    return any(c.comp(h, f) == c.id_arr(a.src) and
               c.comp(f, h) == c.id_arr(a.dst)
               for h in c.hom(a.dst, a.src))


def isomorphic(c: FinCat, a, b) -> bool:
    """Whether some arrow a → b is iso: in a thin c, as is_iso reads it,
    whether arrows run both ways."""
    return any(is_iso(c, f) for f in c.hom(a, b))


def _ranks(n: int, order: Optional[int]):
    """The positions of n objects in apex search order: shuffled by order
    when it is given."""
    if order is None:
        return range(n)
    ranks = list(range(n))
    random.Random(order).shuffle(ranks)
    return ranks


def limit(c: FinCat, nodes: dict, edges=(), cap: Optional[int] = None,
          order: Optional[int] = None) -> Optional[Cone]:
    """Terminal cone over the diagram, or None when absent.

    nodes: mapping key → object; edges: (src key, dst key, arrow) triples.
    A cone lists its legs in the order of nodes: a caller fixes that order
    once, and no call sorts anything.  In a thin c every cone commutes, so
    the limit is a greatest lower bound of the nodes: of their common lower
    bounds, the set bits of the AND of their down-set masks, the first in
    search order that every other lies below.  The search runs up the
    positions, or as order shuffles them when it is given.  Each lower
    bound is the apex of one cone, so cap bounds their number, and the cone
    found builds its legs only when they are read (`Cone.on_positions`).
    Any other c has its cones enumerated, in an order that order, when
    given, permutes.
    """
    if not c.thin:
        cones = all_cones(c, nodes, edges, cap=cap, order=order)
        return next((cand for cand in cones if _is_terminal(c, cand, cones)),
                    None)
    pos, down = c._pos, c._down
    at = {k: pos.get(x) for k, x in nodes.items()}
    lower = (1 << len(down)) - 1
    for i in at.values():
        lower &= 0 if i is None else down[i]  # 0 when c lacks a node
    _check_cap(lower.bit_count(), cap)
    for i in _ranks(len(down), order):
        if lower >> i & 1 and down[i] & lower == lower:
            return Cone.on_positions(c, i, at)
    return None


def is_terminal_cone(c: FinCat, nodes: dict, edges, cone: Cone,
                     cap: Optional[int] = None) -> bool:
    # the search is bounded by cap before the legs' ends are checked; on a
    # thin c, all_cones counts one cone per lower bound of the nodes, the
    # size that limit's down-set masks bound
    cones = all_cones(c, nodes, edges, cap=cap)
    for k, x in nodes.items():
        a = c.arrows.get(cone._by_key.get(k))
        if a is None or a.src != cone.apex or a.dst != x:
            return False
    return _is_terminal(c, cone, cones)


def check_preserves_limit(f: FinFunctor, nodes: dict, edges, cone: Cone,
                          cap: Optional[int] = None) -> bool:
    """True iff the image of a limit cone is again a limit cone."""
    img_nodes = {k: f.omap[o] for k, o in nodes.items()}
    img_edges = [(a, b, f.amap[e]) for (a, b, e) in edges]
    img_cone = Cone(f.omap[cone.apex],
                    tuple((k, f.amap[a]) for k, a in cone.legs))
    return is_terminal_cone(f.dst, img_nodes, img_edges, img_cone, cap=cap)


def _binary_diagrams(c: FinCat):
    """The diagrams whose limits first_unpreserved_limit checks, as
    (positions, nodes): each pair of objects of c, in
    combinations_with_replacement order, then the empty diagram."""
    objs = c.objects
    for i, j in itertools.combinations_with_replacement(range(len(objs)), 2):
        yield (i, j), {"l": objs[i], "r": objs[j]}
    yield (), {}


def first_unpreserved_limit(c: FinCat, functors: list,
                            cap: Optional[int] = None,
                            order: Optional[int] = None
                            ) -> Optional[tuple[FinFunctor, dict]]:
    """The first binary or empty limit of c that one of functors, each out
    of c, does not preserve, as (functor, nodes); None when every functor
    preserves every such limit.

    The diagrams run as _binary_diagrams lists them, and for each diagram
    the functors in their order.  When c and every target are thin, the
    limit is the first position, in limit's search order, whose down-set
    mask is the nodes' common one, and a functor preserves it when the
    mask of its image's down-set holds the images' common lower bounds: no
    cone is built.  cap bounds the same lower-bound counts as limit and
    is_terminal_cone, and order permutes the search as in limit.  Any
    other input takes limit and check_preserves_limit.
    """
    if not (c.thin and all(f.dst.thin for f in functors)):
        for _, nodes in _binary_diagrams(c):
            cone = limit(c, nodes, [], cap=cap, order=order)
            if cone is not None:
                for f in functors:
                    if not check_preserves_limit(f, nodes, [], cone, cap=cap):
                        return f, nodes
        return None
    down, n = c._down, len(c.objects)
    meets: dict = {}  # down-set mask -> its first position in search order
    for a in _ranks(n, order):
        meets.setdefault(down[a], a)
    # per functor: its object map on positions, its target's down-sets, and
    # whether it lands every arrow, when no leg need be checked
    images = [(f, pos, f.dst._down, f.lands_all(pos))
              for f in functors for pos in [f.image_positions()]]
    for ends, nodes in _binary_diagrams(c):
        lower = (1 << n) - 1
        for e in ends:
            lower &= down[e]
        _check_cap(lower.bit_count(), cap)
        a = meets.get(lower)
        if a is None:
            continue
        for f, pos, tdown, lands in images:
            tlower = (1 << len(tdown)) - 1
            for e in ends:
                tlower &= tdown[pos[e]]
            _check_cap(tlower.bit_count(), cap)
            # is_terminal_cone's check of the legs' ends
            if not lands and not all(f.lands(c.arrow_at(a, e), pos)
                                     for e in ends):
                return f, nodes
            if tdown[pos[a]] & tlower != tlower:
                return f, nodes
    return None


# --- serialization -------------------------------------------------------------

def fincat_from_data(data: dict, name: str = "") -> FinCat:
    rows = [tuple(require_list(r)) for r in require_list(data["compose"])]
    require_unique(f"the compose table of {name}", (r[:2] for r in rows))
    arrows = [tuple(require_list(a)) for a in require_list(data["arrows"])]
    objects = require_list(data["objects"])
    require_unique(f"the objects of {name}", objects)
    return FinCat(objects, arrows, rows, name=name)


def load_diagram(path) -> Diagram:
    """Read a diagram file; its mode-theory path is relative to the file."""
    import json
    from pathlib import Path

    from .mode_theory import load_valid_mode_theory

    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"),
                          object_pairs_hook=unique_keys)
        mt_path = path.parent / data["mode_theory"]
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        # json raises RecursionError on arrays or objects nested too deep
        raise MalformedTable(f"diagram file is malformed: {e!r}") from None
    mt = load_valid_mode_theory(mt_path)
    try:
        return diagram_from_data(mt, data)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise MalformedTable(f"diagram file is malformed: {e!r}") from None


def diagram_from_data(mt: ModeTheory, data: dict) -> Diagram:
    cats = {p: fincat_from_data(d, name=p)
            for p, d in data["categories"].items()}
    functors = {}
    for mor, fd in data.get("functors", {}).items():
        m = mt.mor(mor)
        functors[mor] = FinFunctor(cats[m.src], cats[m.dst],
                                   dict(require_object(fd["objects"])),
                                   dict(require_object(fd.get("arrows", {}))),
                                   name=mor)
    diagram = Diagram(mt, cats, functors, {})
    for cell, nd in data.get("naturals", {}).items():
        c = mt.cell(cell)
        diagram.nats[cell] = FinNat(diagram.functors[c.src],
                                    diagram.functors[c.dst],
                                    require_object(nd["components"]),
                                    name=cell)
    return diagram
