"""Co-dextrification of a diagram of categories.

Given a diagram C over a mode theory, the codex category at mode r has as
objects families Gamma^mu (one object of C_p per morphism mu: p -> r) together
with structure maps Gamma^alpha : Gamma^nu -> C_rho(Gamma^mu), one per
decomposition alpha: mu => nu . rho, subject to identity, cocycle, and
cell-action coherence.  Structure maps are keyed on the full decomposition
triple (nu, rho, alpha), not just the cell.

Everything here is finite: codex categories are enumerated in full and
handed back as plain FinCats so the limit machinery applies to them unchanged.
A CodexCategory holds its index (codex_index), computed once per mode: the
morphisms into the mode, a record per decomposition with the category and
functor its structure map reads, and the cocycle and cell-action equations
as rows; read for one pi, the same rows are the comma categories pi down nu.
The rows are built on first read: the general path's equations read them,
and incl does for edges into a category that is not thin and for a
structure map that obj_of does not give; over thin bases nothing does.
Constructions read the index, so they do no mode-theory arithmetic per
object or arrow, and return the codex's own instances.  Lock functors act
by composition on the index, and reflect projects a component.

The enumeration costs what its answer costs.  _families chooses one
component per morphism into the mode, in the index's order and on
positions, and tests each structure map's hom-set as soon as both of its
ends are chosen, by the down-set masks of its category: a family is
extended only while every hom-set between its chosen components is
inhabited (backtracking with forward checking).  It yields the families in
the order itertools.product lists them, so objects, arrow names and every
search order downstream are those of the product filter it replaced.
--cap bounds the component product, not the nodes the search visits, and
on the general path the arrow search too (enumerate_codex).

A CodexBundle owns which codexes each morphism joins: every construction
takes the bundle and a name and reads its codexes, locks, inclusions and
cap there, and the bundle builds each family once.  The locks and lock
cells are read off the codexes alone, as MTT's context locks are.  The
codex gives two families of adjunctions, both held in one record,
Adjunction: reflect(pi) -| incl(pi) between the codex and the base
categories, and lock(pi) -| radj(pi) between codexes, whose right
adjoints are the negative modalities.  Each right adjoint is assembled
pointwise from limits (incl over the comma categories in the index, radj over
a diagram of inclusions), and sends an arrow to the arrow its map of
diagrams induces between the limits.

When every base category is thin, so is the codex, and parallel arrows are
equal: every cocycle, cell-action and structure square holds as soon as its
hom-sets are inhabited, and a mediating arrow is the one arrow of its
hom-set.  enumerate_codex then takes the one arrow of each structure-map
hom-set of each family found, and the codex is a ThinCat: an arrow g -> h
wherever every component hom-set is inhabited, found from the bases'
down-set masks and named by the positions of g and h, with no composition
table.  The
CodexCategory records that its bases are thin and decides what that buys:
arrow(src, dst, comps) is the one arrow of its hom-set, with no components
computed, component(name, mu) the one base arrow between the components
of its ends, and obj_of finds an object by its components, as
lock_functor finds each image.  Into a thin category, the arrow maps of
locks, reflections, inclusions, right adjoints and dextrifications send
each arrow to the arrow between the positions of the images of its ends
(_arrow_map), hashing no codex object per arrow.  Where a hom-set is
empty, or no object has those components, the general path runs and
fails as it always did.  codex_right_adjoint builds no mates and composes
no legs for its limits and units over a thin codex, and incl passes no
edges to a limit in a thin base category.  A limit lists a cone's legs in
the order of its nodes, so the callers fix that order once: comma_shapes
lists each comma category's nodes in the repr order of their keys, and
codex_right_adjoint orders its node keys so once per call.  The codexes
are categories as enumerated, as `Diagram.strictness` presumes, so it
decides the lock diagram into thin codexes by boundaries once every lock
functor lands.  Every other diagram takes the general path.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .errors import (CapExceeded, LimitAbsent, MalformedTable, MattError,
                     NotColax)
from .fincat import (Diagram, FinCat, FinFunctor, FinNat, ThinCat,
                     compose_functors, factorizations, id_name, isomorphic,
                     limit, product_arrows)
from .mode_theory import opposite
from .record import frozen


@frozen
class OplaxObject:
    """One object of a codex category.

    components: sorted tuple of (morphism name, object) pairs.
    structure: sorted tuple of ((nu, rho, alpha), arrow) pairs.

    The hash and the lookups by index are built once, at construction:
    codex objects key every hom-set and object map, and sit inside every
    arrow name of a codex built on the general path.
    """
    __slots__ = ("_hash", "_comps", "_smaps")
    mode: str
    components: tuple
    structure: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.mode, self.components,
                                                 self.structure)))
        object.__setattr__(self, "_comps", dict(self.components))
        object.__setattr__(self, "_smaps", dict(self.structure))

    def __hash__(self):
        return self._hash

    @classmethod
    def of(cls, mode: str, comps: dict, smaps: dict) -> "OplaxObject":
        return cls(mode, tuple(sorted(comps.items())),
                   tuple(sorted(smaps.items())))

    def component(self, mu):
        return self._comps[mu]

    def smap(self, triple):
        return self._smaps[triple]


@frozen
class Decomposition:
    """One decomposition alpha: mu => nu . rho into the mode.  Its structure
    map, keyed (nu, rho, alpha), runs nu-component -> fun(mu-component) in
    cat = C_{src nu}, fun = C_rho; identity: rho and alpha are identities."""
    key: tuple
    nu: str
    rho: str
    alpha: str
    mu: str
    cat: FinCat
    fun: FinFunctor
    identity: bool


@frozen
class CodexIndex:
    """What the mode theory fixes about every codex object at one mode:
    mus, the morphisms into it, with cats[mu] = C_{src mu}; one Decomposition
    per key, in sorted key order; and the coherence equations on components c
    and structure maps s as rows, built from the diagram on first read, as
    only the general path's equations and incl over categories that are not
    thin read them.  A cocycle row (t1, t2, t3, cat, fun) asks
    cat.comp(fun.amap[s[t1]], s[t2]) == s[t3], an action row (t1, beta, nat,
    mu1, t3, cat) asks cat.comp(nat.at(c[mu1]), s[t1]) == s[t3].

    Read for a fixed pi, the rows are also the comma categories pi down nu:
    the decompositions t with t.mu == pi are the objects of pi down t.nu, the
    action rows with mu1 == pi its arrows t1 -> t3 by beta, and the cocycle
    rows whose t1 decomposes pi the map that t2 induces from pi down t2.mu to
    pi down t2.nu."""
    __slots__ = ("_rows",)
    mus: list
    cats: dict
    decomps: list
    diagram: Diagram

    @property
    def cocycles(self) -> list:
        return self._coherence()[0]

    @property
    def actions(self) -> list:
        return self._coherence()[1]

    def _coherence(self) -> tuple:
        try:
            return self._rows
        except AttributeError:  # not read yet
            rows = _coherence_rows(self.diagram, self.decomps)
            object.__setattr__(self, "_rows", rows)
            return rows


def codex_index(d: Diagram, r: str) -> CodexIndex:
    """The index of the codex at mode r: all the mode-theory arithmetic the
    codex constructions need, incl's comma categories included, done
    once."""
    mt = d.mt
    mus = [m.name for m in mt.morphisms_into(r)]
    keys = []
    for nu in mt.morphisms_into(r):
        for rho in mt.morphisms.values():
            if rho.dst == nu.src:
                comp = mt.compose(nu.name, rho.name)
                keys += [(nu.name, rho.name, c.name)
                         for c in mt.cells.values() if c.dst == comp]
    decomps = [Decomposition((nu, rho, alpha), nu, rho, alpha,
                             mt.cell(alpha).src, d.cat(mt.mor(nu).src),
                             d.fun(rho),
                             mt.is_id_mor(rho) and mt.is_id_cell(alpha))
               for nu, rho, alpha in sorted(keys)]
    return CodexIndex(mus, {mu: d.cat(mt.mor(mu).src) for mu in mus},
                      decomps, d)


def _coherence_rows(d: Diagram, decomps: list) -> tuple:
    """The cocycle and cell-action rows of CodexIndex over decomps."""
    mt = d.mt
    cocycles, actions = [], []
    for t1 in decomps:
        # cocycle: decompose nu1 further by any t2
        for t2 in decomps:
            if t2.mu == t1.nu:
                t3 = (t2.nu, mt.compose(t2.rho, t1.rho),
                      mt.vcomp(mt.wr(t2.alpha, t1.rho), t1.alpha))
                cocycles.append((t1.key, t2.key, t3, t2.cat, t2.fun))
        # cell action: whisker the decomposition by any beta: rho1 => sigma
        for beta in mt.cells.values():
            if beta.src == t1.rho:
                t3 = (t1.nu, beta.dst,
                      mt.vcomp(mt.wl(t1.nu, beta.name), t1.alpha))
                actions.append((t1.key, beta.name, d.nat(beta.name), t1.mu,
                                t3, t1.cat))
    return cocycles, actions


@frozen
class CodexCategory:
    """The codex category at a mode, built only by enumerate_codex with its
    index; thin when every base category was thin as it was built.  obj,
    obj_of and arrow return the enumerated instances, never an equal
    copy."""
    __slots__ = ("_instances", "_by_comps")
    mode: str
    index: CodexIndex
    cat: FinCat
    thin: bool

    def __post_init__(self):
        object.__setattr__(self, "_instances",
                           {o: o for o in self.cat.objects})
        # over thin bases the components fix an object: each structure map
        # is the one arrow of its hom-set
        object.__setattr__(self, "_by_comps",
                           {o.components: o for o in self.cat.objects}
                           if self.thin else {})

    @property
    def objects(self):
        return self.cat.objects

    def obj(self, comps: dict, smaps: dict):
        """The enumerated object with these components and structure maps,
        or None when they do not form one."""
        return self._instances.get(OplaxObject.of(self.mode, comps, smaps))

    def obj_of(self, comps: dict):
        """Over thin bases, the object with these components; None when
        there is none or a base is not thin."""
        return self._by_comps.get(tuple(sorted(comps.items())))

    def arrow(self, src: OplaxObject, dst: OplaxObject, comps):
        """The arrow src -> dst as the codex holds it: over thin bases the
        one arrow of its hom-set, else, or when there is none, the arrow
        with the components comps() returns; comps is called at most once,
        and only before this returns."""
        if self.thin:
            one = self.cat.one_arrow(src, dst)
            if one is not None:
                return one
        return self.cat.arr(_arrow_name(self.index.cats, comps(), src,
                                        dst)).name

    def component(self, name, mu):
        """The mu-component of a codex arrow: over thin bases the one base
        arrow between the mu-components of its ends."""
        a = self.cat.arr(name)
        if self.thin:
            return self.index.cats[mu].one_arrow(a.src.component(mu),
                                                 a.dst.component(mu))
        if name == self.cat.identities.get(a.src):
            return self.index.cats[mu].id_arr(a.src.component(mu))
        return dict(name[0])[mu]

    def theta(self, name) -> dict:
        """Per-index components of a codex arrow."""
        return {mu: self.component(name, mu) for mu in self.index.mus}


def _structure_violations(ix: CodexIndex, comps, smaps) -> list[str]:
    """Cocycle and cell-action equations, assuming boundaries are fine."""
    out = [f"cocycle fails at {t1} then {t2}"
           for t1, t2, t3, cat, fun in ix.cocycles
           if cat.comp(fun.amap[smaps[t1]], smaps[t2]) != smaps[t3]]
    return out + [f"cell action fails at {t1} with {beta}"
                  for t1, beta, nat, mu1, t3, cat in ix.actions
                  if cat.comp(nat.at(comps[mu1]), smaps[t1]) != smaps[t3]]


def check_oplax_object(d, obj: OplaxObject) -> list[str]:
    """Independent verification of all codex-object axioms."""
    ix = codex_index(d, obj.mode)
    comps, smaps = obj._comps, obj._smaps
    if sorted(comps) != ix.mus:
        return ["component index set does not match morphisms into the mode"]
    if sorted(smaps) != [t.key for t in ix.decomps]:
        return ["structure map index set does not match decompositions"]
    out = []
    for t in ix.decomps:
        arr = t.cat.arr(smaps[t.key])
        if (arr.src, arr.dst) != (comps[t.nu], t.fun.omap[comps[t.mu]]):
            out.append(f"structure map at {t.key} has wrong boundary")
        if t.identity and smaps[t.key] != t.cat.id_arr(comps[t.mu]):
            out.append(f"identity decomposition at {t.key} is not the "
                       "identity")
    return out or _structure_violations(ix, comps, smaps)


def _theta_squares_ok(ix: CodexIndex, g, h, theta) -> bool:
    return all(t.cat.comp(t.fun.amap[theta[t.mu]], g.smap(t.key)) ==
               t.cat.comp(h.smap(t.key), theta[t.nu]) for t in ix.decomps)


def check_oplax_morphism(cx: CodexCategory, arrow_name) -> list[str]:
    a = cx.cat.arr(arrow_name)
    theta = cx.theta(arrow_name)
    out = []
    for mu, arr in theta.items():
        ab = cx.index.cats[mu].arr(arr)
        if (ab.src, ab.dst) != (a.src.component(mu), a.dst.component(mu)):
            out.append(f"component at {mu} has wrong boundary")
    if not out and not _theta_squares_ok(cx.index, a.src, a.dst, theta):
        out.append("a structure square does not commute")
    return out


def _identity_family(cats: dict, obj: OplaxObject) -> dict:
    return {mu: cats[mu].id_arr(v) for mu, v in obj.components}


def _arrow_name(cats: dict, comps: dict, src: OplaxObject,
                dst: OplaxObject):
    """The name of the codex arrow src -> dst with the given components;
    cats maps each index to its base category."""
    if src is dst and comps == _identity_family(cats, src):
        return id_name(src)
    return (tuple(sorted(comps.items())), src, dst)


def _families(ix: CodexIndex):
    """The families of components, one object of cats[mu] per mu in mus,
    whose structure-map hom-sets are all inhabited, as tuples in mus order,
    in the order itertools.product lists them.  Components are chosen in
    mus order, on positions, and each non-identity decomposition is filed
    under the later of its two components: when that one is chosen, its
    candidates are cut to the mask that the choice at the earlier one
    allows, read off the down-set masks of C_nu, so no family with an empty
    hom-set is ever completed.  An image outside C_nu has an empty
    hom-set."""
    mus, cats = ix.mus, ix.cats
    at = {mu: i for i, mu in enumerate(mus)}
    objs = [cats[mu].objects for mu in mus]
    allowed = [(1 << len(o)) - 1 for o in objs]
    filed = [[] for _ in mus]  # (earlier position, mask per choice there)
    for t in ix.decomps:
        if t.identity:
            continue
        nu, mu = at[t.nu], at[t.mu]
        down, img = t.cat._down, t.fun.image_positions()
        # into[z]: the x with an arrow x -> C_rho(z), z a position in C_mu
        into = [0 if y is None else down[y] for y in img]
        if nu > mu:
            filed[nu].append((mu, into))
        elif mu > nu:  # the z with an arrow x -> C_rho(z), per x in C_nu
            filed[mu].append((nu, [
                sum(1 << z for z, y in enumerate(img)
                    if y is not None and down[y] >> x & 1)
                for x in range(len(down))]))
        else:  # nu is mu: the z with an arrow z -> C_rho(z)
            allowed[nu] &= sum(1 << z for z, m in enumerate(into)
                               if m >> z & 1)
    last = len(mus) - 1
    pick, left = [0] * len(mus), allowed[:]  # left: candidates not yet tried
    i = 0
    while i >= 0:
        m = left[i]
        if not m:
            i -= 1
            continue
        low = m & -m
        left[i] = m ^ low
        pick[i] = low.bit_length() - 1
        if i == last:
            yield tuple([o[x] for o, x in zip(objs, pick)])
            continue
        i += 1
        m = allowed[i]
        for j, masks in filed[i]:
            m &= masks[pick[j]]
        left[i] = m


def enumerate_codex(d: Diagram, r: str, cap=None) -> CodexCategory:
    """Build the codex category at mode r as a FinCat, from the families
    _families finds.  Over thin base categories an object is such a family
    with the one arrow of each structure-map hom-set, no equation is
    checked, and the FinCat is a ThinCat; otherwise each choice of
    structure maps is tested against the coherence equations.  cap bounds
    the component product, whatever the number of families the search
    visits, and on the general path the arrow search: the component
    families, one hom-set product per pair of objects, that it tries."""
    ix = codex_index(d, r)
    mus, cats, keys = ix.mus, ix.cats, [t.key for t in ix.decomps]
    est = math.prod(len(cats[mu].objects) for mu in mus)
    if cap is not None and est > cap:
        raise CapExceeded(f"codex at {r}: component search size {est} "
                          f"exceeds cap {cap}")
    thin = all(c.thin for c in cats.values())  # each t.cat is cats[t.nu]

    if thin:
        combos = list(_families(ix))
        at = {mu: i for i, mu in enumerate(mus)}
        # the one arrow of each structure-map hom-set, the identity at an
        # identity decomposition; mus and the decompositions are sorted
        maps = [(t.key, at[t.nu], at[t.mu], t.cat.one_arrow, t.fun.omap)
                for t in ix.decomps]
        # tuple() of a list, which knows its length: tuple() of a bare zip
        # allocates for ten items and shrinks, which fragments the heap
        objs = [OplaxObject(r, tuple([*zip(mus, c)]), tuple([
            (k, one(c[nu], omap[c[mu]])) for k, nu, mu, one, omap in maps]))
            for c in combos]
        # an arrow wherever every component hom-set is inhabited
        cat = ThinCat(objs, product_arrows([cats[mu] for mu in mus], combos),
                      name=f"Codex({r})")
        return CodexCategory(r, ix, cat, thin)

    objs: list[OplaxObject] = []
    for combo in _families(ix):
        comps = dict(zip(mus, combo))
        choices = [[t.cat.id_arr(comps[t.mu])] if t.identity else
                   t.cat.hom(comps[t.nu], t.fun.omap[comps[t.mu]])
                   for t in ix.decomps]
        for pick in itertools.product(*choices):
            smaps = dict(zip(keys, pick))
            if not _structure_violations(ix, comps, smaps):
                objs.append(OplaxObject.of(r, comps, smaps))

    # the component families of every pair of objects, counted against cap
    # before any is tried
    pairs = [(g, h, [cats[mu].hom(g.component(mu), h.component(mu))
                     for mu in mus]) for g in objs for h in objs]
    size = sum(math.prod(map(len, homs)) for _, _, homs in pairs)
    if cap is not None and size > cap:
        raise CapExceeded(f"codex at {r}: arrow search size {size} exceeds "
                          f"cap {cap}")
    arrows = []
    for g, h, homs in pairs:
        for combo in itertools.product(*homs):
            theta = dict(zip(mus, combo))
            if not _theta_squares_ok(ix, g, h, theta):
                continue
            name = _arrow_name(cats, theta, g, h)
            if name != id_name(g):  # FinCat synthesizes the identities
                arrows.append((name, g, h))

    # composites of non-identity arrows, componentwise; FinCat adds the rows
    # that involve an identity and rejects a row naming an unknown arrow
    out_of: dict = {}
    for a in arrows:
        out_of.setdefault(a[1], []).append(a)
    rows = []
    for (an, asrc, adst) in arrows:
        ta = dict(an[0])
        for (bn, _, bdst) in out_of.get(adst, ()):
            tb = dict(bn[0])
            comps = {mu: cats[mu].comp(tb[mu], ta[mu]) for mu in mus}
            rows.append((bn, an, _arrow_name(cats, comps, asrc, bdst)))
    return CodexCategory(r, ix, FinCat(objs, arrows, rows,
                                       name=f"Codex({r})"), thin)


# --- lock functors and reflection ----------------------------------------------

def lock_functor(bundle: "CodexBundle", mu: str) -> FinFunctor:
    """The lock along mu: q -> r, acting by composition on the index: nu ->
    mu.nu and (nu, rho, alpha) -> (mu.nu, rho, mu<alpha), computed once."""
    mt = bundle.diagram.mt
    m = mt.mor(mu)
    cx_r, cx_q = bundle.codexes[m.dst], bundle.codexes[m.src]
    along = {nu: mt.compose(mu, nu) for nu in cx_q.index.mus}
    keys = {t.key: (along[t.nu], t.rho, mt.wl(mu, t.alpha))
            for t in cx_q.index.decomps}
    omap = {}
    for g in cx_r.objects:
        comps = {nu: g.component(k) for nu, k in along.items()}
        omap[g] = cx_q.obj_of(comps) if cx_q.thin else cx_q.obj(
            comps, {t: g.smap(k) for t, k in keys.items()})
        if omap[g] is None:
            raise MalformedTable(f"lock({mu}): image of {g} was not "
                                 "enumerated")
    amap = _arrow_map(cx_r.cat, cx_q.cat, omap, lambda name, a: cx_q.arrow(
        omap[a.src], omap[a.dst], lambda: {
            nu: cx_r.component(name, k) for nu, k in along.items()}))
    return FinFunctor(cx_r.cat, cx_q.cat, omap, amap, name=f"lock({mu})")


def _arrow_map(src: FinCat, dst: FinCat, omap: dict, image) -> dict:
    """A functor's arrow map, image(name, arrow) at each arrow of src, but
    into a thin dst the arrow of dst between the images of its ends, read on
    positions: no object is hashed per arrow.  Where dst has no such arrow,
    image runs and fails as it would have."""
    if not dst.thin:
        return {n: image(n, a) for n, a in src.arrows.items()}
    img = [dst._pos[omap[o]] for o in src.objects]
    amap = {}
    for n in src.arrows:
        i, j = src.ends(n)
        one = dst.arrow_at(img[i], img[j])
        amap[n] = image(n, src.arrows[n]) if one is None else one
    return amap


def lock_cell(bundle: "CodexBundle", beta: str) -> FinNat:
    """The lock action of a cell beta: mu => mu2 (both q -> r), a natural
    transformation lock(mu2) => lock(mu)."""
    mt = bundle.diagram.mt
    c = mt.cell(beta)
    m = mt.mor(c.src)
    cx_r, cx_q = bundle.codexes[m.dst], bundle.codexes[m.src]
    fm2, fm = bundle.locks[c.dst], bundle.locks[c.src]
    keys = {nu: (mt.compose(c.dst, nu), mt.id_mor(mt.mor(nu).src),
                 mt.wr(beta, nu)) for nu in cx_q.index.mus}
    comps = {g: cx_q.arrow(fm2.omap[g], fm.omap[g], lambda: {
        nu: g.smap(k) for nu, k in keys.items()}) for g in cx_r.objects}
    return FinNat(fm2, fm, comps, name=f"lock({beta})")


def reflect(bundle: "CodexBundle", mu: str) -> FinFunctor:
    """Project the mu-component; mu: p -> q."""
    d = bundle.diagram
    m = d.mt.mor(mu)
    cx_q, cp = bundle.codexes[m.dst], d.cat(m.src)
    omap = {g: g.component(mu) for g in cx_q.objects}
    amap = _arrow_map(cx_q.cat, cp, omap,
                      lambda name, a: cx_q.component(name, mu))
    return FinFunctor(cx_q.cat, cp, omap, amap, name=f"reflect({mu})")


# --- adjunctions ----------------------------------------------------------------

@frozen
class Adjunction:
    """left(pi) left adjoint to right(pi), for pi: r -> s, with its witnesses.

    Both families of the codex use this record.  incl gives reflect(pi) -|
    incl(pi), whose left adjoint runs from the codex at s to C_r, and
    codex_right_adjoint gives lock(pi) -| radj(pi), whose left adjoint runs
    from the codex at s to the codex at r.  unit maps each object x of
    left.src to an arrow x -> right(left(x)); counit maps each object y of
    right.src to an arrow left(right(y)) -> y.  cones holds the limit cones
    the right adjoint was assembled from: keyed by (object of C_r, nu) for
    incl, whose node keys are the decomposition triples (nu, sigma, beta) of
    pi, and by object of the codex at r for radj."""
    pi: str
    left: FinFunctor
    right: FinFunctor
    unit: dict
    counit: dict
    cones: dict


def _mediating(c: FinCat, x, y, pairs, what: str, *args):
    """The unique arrow x -> y through a limit cone with the given
    (leg, wanted composite) pairs.  A failure names the search as
    `what.format(*args)`, formatted only then."""
    cands = factorizations(c, x, y, pairs)
    if len(cands) != 1:
        raise LimitAbsent(f"{what.format(*args)} has {len(cands)} "
                          "factorizations")
    return cands[0]


def _induced(c: FinCat, c1, c2, maps: dict, what: str, *args):
    """The arrow c1.apex -> c2.apex that a map of diagrams induces between
    two limit cones; maps holds its arrow at each node key."""
    return _mediating(c, c1.apex, c2.apex,
                      ((c2.leg(k), c.comp(f, c1.leg(k)))
                       for k, f in maps.items()), what, *args)


def comma_shapes(mt, ix: CodexIndex, pi: str):
    """The comma categories pi down nu, for every nu in ix.mus, read off the
    index.  nodes[nu] lists the decompositions (nu, sigma, beta) of pi,
    each with C_sigma, in the repr order of the keys, the order of the legs
    of incl's cones, and edges[nu] the non-identity cell actions on them as
    (t1, t3, C_beta).  legs[t.key] pairs each node of pi down t.mu with the
    node of pi down t.nu that its cocycle with t sends it to.  The edges
    and legs read the index rows; incl reads each only where it needs it."""
    return (_comma_nodes(ix, pi), _comma_edges(mt, ix, pi),
            _comma_legs(ix, pi))


def _comma_nodes(ix: CodexIndex, pi: str) -> dict:
    nodes = {nu: [] for nu in ix.mus}
    for t in sorted((t for t in ix.decomps if t.mu == pi),
                    key=lambda t: repr(t.key)):
        nodes[t.nu].append((t.key, t.fun))
    return nodes


def _comma_edges(mt, ix: CodexIndex, pi: str) -> dict:
    edges = {nu: [] for nu in ix.mus}
    for k, beta, nat, mu1, k3, _ in ix.actions:
        if mu1 == pi and not mt.is_id_cell(beta):
            edges[k[0]].append((k, k3, nat))
    return edges


def _comma_legs(ix: CodexIndex, pi: str) -> dict:
    of_pi = {t.key for t in ix.decomps if t.mu == pi}
    legs = {t.key: [] for t in ix.decomps}
    for k1, k2, k3, _, _ in ix.cocycles:
        if k1 in of_pi:
            legs[k2].append((k1, k3))
    return legs


def incl(bundle: "CodexBundle", pi: str) -> Adjunction:
    """reflect(pi) -| incl(pi), with incl computed pointwise by limits over
    the comma categories pi down nu, read off the index of the codex.  A
    cone's node keys are the decomposition triples (nu, sigma, beta) of pi;
    the counit is the leg at (pi, id, id:pi).  The comma categories' edges
    are read only over bases not all thin, and their legs only for a
    structure map that obj_of does not give."""
    d, mt = bundle.diagram, bundle.diagram.mt
    r, s = mt.mor(pi).src, mt.mor(pi).dst
    cx_s, cr, cap = bundle.codexes[s], d.cat(r), bundle.cap
    ix = cx_s.index
    nodes = _comma_nodes(ix, pi)
    edges = None if cx_s.thin else _comma_edges(mt, ix, pi)
    legs = None

    cones = {}
    omap = {}
    for g in cr.objects:
        comps = {}
        for nu in ix.mus:
            c = ix.cats[nu]  # every cone in a thin c commutes: no edges
            cone = limit(c, {k: f.omap[g] for k, f in nodes[nu]},
                         () if c.thin else
                         [(a, b, n.at(g)) for a, b, n in edges[nu]], cap=cap)
            if cone is None:
                raise LimitAbsent(f"incl({pi}): component at {nu} of {g} "
                                  "has no limit")
            comps[nu] = cone.apex
            cones[(g, nu)] = cone
        omap[g] = cx_s.obj_of(comps)
        if omap[g] is not None:
            continue
        if legs is None:
            legs = _comma_legs(ix, pi)
        smaps = {}
        for t in ix.decomps:
            conemu, conenu = cones[(g, t.mu)], cones[(g, t.nu)]
            smaps[t.key] = _mediating(
                t.cat, comps[t.nu], t.fun.omap[comps[t.mu]],
                ((t.fun.amap[conemu.leg(o)], conenu.leg(k))
                 for o, k in legs[t.key]),
                "incl({}): structure map at {} of {}", pi, t.key, g)
        omap[g] = cx_s.obj(comps, smaps)
        if omap[g] is None:
            raise MalformedTable(f"incl({pi}): computed object for {g} was "
                                 "not enumerated")

    amap = _arrow_map(cr, cx_s.cat, omap, lambda fname, fa: cx_s.arrow(
        omap[fa.src], omap[fa.dst], lambda: {
            nu: _induced(ix.cats[nu], cones[(fa.src, nu)],
                         cones[(fa.dst, nu)],
                         {k: f.amap[fname] for k, f in nodes[nu]},
                         "incl({}): image of {} at {}", pi, fname, nu)
            for nu in ix.mus}))

    counit_key = (pi, mt.id_mor(r), mt.id_cell(pi))
    counit = {g: cones[(g, pi)].leg(counit_key) for g in cr.objects}
    def unit_at(delta, nu):
        g = delta.component(pi)
        return _mediating(
            ix.cats[nu], delta.component(nu), omap[g].component(nu),
            ((cones[(g, nu)].leg(k), delta.smap(k)) for k, _ in nodes[nu]),
            "incl({}): unit at {} of {}", pi, nu, delta)

    unit = {delta: cx_s.arrow(delta, omap[delta.component(pi)], lambda: {
        nu: unit_at(delta, nu) for nu in ix.mus}) for delta in cx_s.objects}
    return Adjunction(pi, reflect(bundle, pi),
                      FinFunctor(cr, cx_s.cat, omap, amap, name=f"incl({pi})"),
                      unit, counit, cones)


def transpose(adj: Adjunction, x, f):
    """The transpose x -> right(y) of f: left(x) -> y, along the unit."""
    return adj.right.dst.comp(adj.right.amap[f], adj.unit[x])


def mate(bundle: "CodexBundle", pi: str, t: Decomposition) -> FinNat:
    """The mate incl(pi.mu) => incl(pi.nu) . C_rho of the structure-map
    operation at pi<alpha, for t, alpha: mu => nu . rho, at src pi."""
    mt = bundle.diagram.mt
    adj_mu = bundle.adjunctions[mt.compose(pi, t.mu)]
    adj_nu = bundle.adjunctions[mt.compose(pi, t.nu)]
    alpha = mt.wl(pi, t.alpha)
    key = (adj_nu.pi, t.rho, alpha)
    comps = {}
    for g in adj_mu.right.src.objects:
        x = adj_mu.right.omap[g]
        f = t.cat.comp(t.fun.amap[adj_mu.counit[g]], x.smap(key))
        comps[g] = transpose(adj_nu, x, f)
    return FinNat(adj_mu.right, compose_functors(adj_nu.right, t.fun),
                  comps, name=f"mate({t.rho},{alpha})")


def codex_right_adjoint(bundle: "CodexBundle", pi: str) -> Adjunction:
    """lock(pi) -| radj(pi) for pi: r -> s, with radj assembled as a limit
    of the inclusions along every composite pi . mu."""
    mt = bundle.diagram.mt
    m = mt.mor(pi)
    cx_r, cx_s = bundle.codexes[m.src], bundle.codexes[m.dst]
    lock, adjs, cap = bundle.locks[pi], bundle.adjunctions, bundle.cap
    ix = cx_r.index
    pim = {mu: mt.compose(pi, mu) for mu in ix.mus}
    adj = {mu: adjs[k] for mu, k in pim.items()}
    trips = [t for t in ix.decomps if not t.identity]
    # in a thin codex the limits read no edges and a unit is the one arrow
    # of its hom-set, so neither mates nor legs are composed for them
    thin = cx_s.thin
    mates = {} if thin else {t.key: mate(bundle, pi, t) for t in trips}

    # the limits' node keys in repr order, fixed once, each with the object
    # map of its inclusion, the index of the component it includes and the
    # object map applied to that first, None for the identity
    shape = sorted([(("n", mu), adj[mu].right.omap, mu, None)
                    for mu in ix.mus] +
                   [(("c", t.key), adj[t.nu].right.omap, t.mu, t.fun.omap)
                    for t in trips], key=lambda node: repr(node[0]))
    cones = {}
    omap = {}
    for delta in cx_r.objects:
        nodes = {}
        for k, right, mu, first in shape:
            x = delta.component(mu)
            nodes[k] = right[x if first is None else first[x]]
        edges = []
        for t in () if thin else trips:
            right, x, c = adj[t.nu].right, delta.component(t.mu), ("c", t.key)
            edges += [(("n", t.nu), c, right.amap[delta.smap(t.key)]),
                      (("n", t.mu), c, mates[t.key].at(x))]
        cone = limit(cx_s.cat, nodes, edges, cap=cap)
        if cone is None:
            raise LimitAbsent(f"codex_right_adjoint({pi}): no limit "
                              f"for {delta}")
        omap[delta] = cone.apex
        cones[delta] = cone

    def image(name, a):
        theta = cx_r.theta(name)
        maps = {("n", mu): adj[mu].right.amap[theta[mu]] for mu in ix.mus}
        maps.update((("c", t.key), adj[t.nu].right.amap[
            t.fun.amap[theta[t.mu]]]) for t in trips)
        return _induced(cx_s.cat, cones[a.src], cones[a.dst], maps,
                        "codex_right_adjoint({}): image of an arrow", pi)

    amap = _arrow_map(cx_r.cat, cx_s.cat, omap, image)

    counit = {delta: cx_r.arrow(lock.omap[omap[delta]], delta, lambda: {
        mu: ix.cats[mu].comp(adj[mu].counit[delta.component(mu)],
                             cx_s.component(cones[delta].leg(("n", mu)),
                                            pim[mu]))
        for mu in ix.mus}) for delta in cx_r.objects}

    unit = {}
    for gamma in cx_s.objects:
        delta = lock.omap[gamma]
        cone = cones[delta]
        wanted = {}
        if not thin:
            wanted = {("n", mu): adj[mu].unit[gamma] for mu in ix.mus}
            for t in trips:
                edge = adj[t.nu].right.amap[delta.smap(t.key)]
                wanted[("c", t.key)] = cx_s.cat.comp(edge,
                                                     wanted[("n", t.nu)])
        unit[gamma] = _mediating(
            cx_s.cat, gamma, omap[delta],
            ((cone.leg(k), v) for k, v in wanted.items()),
            "codex_right_adjoint({}): unit at {}", pi, gamma)
    return Adjunction(pi, lock,
                      FinFunctor(cx_r.cat, cx_s.cat, omap, amap,
                                 name=f"radj({pi})"),
                      unit, counit, cones)


# --- bundles and global checks --------------------------------------------------

def _family(build):
    """A cached_property that keeps a failure too: each later read raises a
    fresh error of the same class and message.  The error itself is not
    kept, as its traceback holds the bundle."""
    def get(bundle):
        failed = bundle.failed.get(build.__name__)
        if failed is not None:
            raise failed[0](failed[1])
        try:
            return build(bundle)
        except MattError as e:
            bundle.failed[build.__name__] = (type(e), e.message)
            raise
    get.__doc__ = build.__doc__
    return cached_property(get)


class CodexBundle:
    """Codex categories at every mode and the families built from them:
    the locks and lock cells, read off the codexes alone; the lock-2functor
    rows, off the locks and cells alone; reflect -| incl and lock -| radj,
    keyed by morphism; and the comparisons of the right adjoints.  Each
    family is built whole when a law first reads it, or failed once for
    every read, and cached in the bundle's __dict__."""

    def __init__(self, diagram: Diagram, cap: int | None = None):
        self.diagram, self.cap = diagram, cap
        self.failed = {}

    @_family
    def codexes(self) -> dict:
        return {p: enumerate_codex(self.diagram, p, cap=self.cap)
                for p in self.diagram.mt.modes}

    @_family
    def locks(self) -> dict:  # lock(mu), from the codex at dst mu to src mu
        return {mu: lock_functor(self, mu) for mu in self.diagram.mt.morphisms}

    @_family
    def lock_cells(self) -> dict:
        return {beta: lock_cell(self, beta) for beta in self.diagram.mt.cells}

    @_family
    def lock_rows(self) -> list[tuple]:  # a lock-2functor row per violation
        # the codexes are categories as enumerated
        bad = lock_diagram(self).strictness()
        return [("lock-2functor", False, f"{v} (◁, ▷ and ∘ read in M^coop)")
                for v in bad] or [("lock-2functor", True, "")]

    @_family
    def adjunctions(self) -> dict:  # reflect -| incl
        return {pi: incl(self, pi) for pi in self.diagram.mt.morphisms}

    @_family
    def right_adjoints(self) -> dict:  # lock -| radj
        return {pi: codex_right_adjoint(self, pi)
                for pi in self.diagram.mt.morphisms}

    @_family
    def comparisons(self) -> dict:
        """psnat_component per morphism, then per codex object at its
        source."""
        return {m.name: {delta: psnat_component(self, m.name, delta)
                         for delta in self.codexes[m.src].objects}
                for m in self.diagram.mt.morphisms.values()}


def build_bundle(d: Diagram, cap=None) -> CodexBundle:
    return CodexBundle(d, cap)


def psnat_component(bundle: CodexBundle, pi: str, delta: OplaxObject):
    """The canonical comparison (radj(pi) delta)^1 -> C_pi(delta^1)."""
    d, mt = bundle.diagram, bundle.diagram.mt
    r, s = mt.mor(pi).src, mt.mor(pi).dst
    radj = bundle.right_adjoints[pi]
    leg = radj.cones[delta].leg(("n", mt.id_mor(r)))
    outer = bundle.codexes[s].component(leg, mt.id_mor(s))
    inner_cone = bundle.adjunctions[pi].cones[
        (delta.component(mt.id_mor(r)), mt.id_mor(s))]
    inner = inner_cone.leg((mt.id_mor(s), pi, mt.id_cell(pi)))
    return d.cat(s).comp(inner, outer)


def lock_diagram(bundle: CodexBundle) -> Diagram:
    """The locks and lock cells as a diagram over M^coop (`opposite`)."""
    return Diagram(opposite(bundle.diagram.mt),
                   {p: cx.cat for p, cx in bundle.codexes.items()},
                   bundle.locks, bundle.lock_cells)


def verify_2functor(bundle: CodexBundle) -> list[tuple]:
    """The locks as a strict 2-functor (the bundle's lock rows), then the
    right adjoints' composites."""
    mt, cx, radj = bundle.diagram.mt, bundle.codexes, bundle.right_adjoints
    report = list(bundle.lock_rows)
    for (g, f), h in mt.compose_table.items():
        rg, rf, rh = radj[g].right, radj[f].right, radj[h].right
        bad = [delta for delta in cx[mt.mor(f).src].objects
               if not isomorphic(cx[mt.mor(g).dst].cat, rh.omap[delta],
                                 rg.omap[rf.omap[delta]])]
        report.append((f"radj-compose:{g}.{f}", not bad, "" if not bad else
                       f"composite right adjoints differ at {bad[0]}"))
    return report


# --- the universal property -----------------------------------------------------

def reflect_colax(bundle: CodexBundle):
    """The identity-component projections as a colax transformation into the
    base diagram, with the canonical comparison cells."""
    mt = bundle.diagram.mt
    return ({p: bundle.adjunctions[mt.id_mor(p)].left for p in mt.modes},
            bundle.comparisons)


def dextrify_colax(bundle: CodexBundle, g: dict, gamma: dict) -> dict:
    """Lift a colax transformation out of the codex family back into the
    codexes: per mode r, a functor with object part
    (G hat Gamma)^mu = G_p(lock(mu) Gamma).

    g: mode -> FinFunctor from the codex to the diagram's category at that
    mode; gamma: morphism rho -> per-object comparison
    G_q(radj(rho) Delta) -> C_rho(G_p Delta)."""
    mt, locks, cells = bundle.diagram.mt, bundle.locks, bundle.lock_cells
    out = {}
    for r in mt.modes:
        cx_r = bundle.codexes[r]
        ix = cx_r.index
        omap = {}
        for gobj in cx_r.objects:
            comps = {mu: g[mt.mor(mu).src].omap[locks[mu].omap[gobj]]
                     for mu in ix.mus}
            smaps = {}
            for t in ix.decomps:
                if t.identity:
                    smaps[t.key] = t.cat.id_arr(comps[t.mu])
                    continue
                q = mt.mor(t.nu).src
                lock_mu = locks[t.mu].omap[gobj]
                radj_rho = bundle.right_adjoints[t.rho]
                mhat = bundle.codexes[q].cat.comp(
                    radj_rho.right.amap[cells[t.alpha].at(gobj)],
                    radj_rho.unit[locks[t.nu].omap[gobj]])
                try:
                    comparison = gamma[t.rho][lock_mu]
                except KeyError:
                    raise NotColax(f"missing colax cell for {t.rho} "
                                   f"at {lock_mu}") from None
                smaps[t.key] = t.cat.comp(comparison, g[q].amap[mhat])
            omap[gobj] = cx_r.obj(comps, smaps)
            if omap[gobj] is None:
                raise NotColax(f"dextrified object for {gobj} violates the "
                               "codex axioms")
        amap = _arrow_map(cx_r.cat, cx_r.cat, omap, lambda name, a: cx_r.arrow(
            omap[a.src], omap[a.dst], lambda: {
                mu: g[mt.mor(mu).src].amap[locks[mu].amap[name]]
                for mu in ix.mus}))
        out[r] = FinFunctor(cx_r.cat, cx_r.cat, omap, amap,
                            name=f"dextrify({r})")
    return out
