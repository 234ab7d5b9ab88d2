"""Co-dextrification of a diagram of categories.

Given a diagram C over a mode theory, the codex category at mode r has as
objects families Gamma^mu (one object of C_p per morphism mu: p -> r) together
with structure maps Gamma^alpha : Gamma^nu -> C_rho(Gamma^mu), one per
decomposition alpha: mu => nu . rho, subject to identity, cocycle, and
cell-action coherence.  Structure maps are keyed on the full decomposition
triple (nu, rho, alpha), not just the cell.

Everything here is finite: codex categories are enumerated exhaustively and
handed back as plain FinCats so the limit machinery applies to them unchanged.
A CodexCategory holds its index, computed once: the morphisms into its mode
and their decompositions.  Constructions read that index and return the
codex's own object and arrow instances.  Lock functors act by composition on
the index, and reflect projects a component.

The codex gives two families of adjunctions, both held in one record,
Adjunction: reflect(pi) -| incl(pi) between the codex and the base
categories, and lock(pi) -| radj(pi) between codexes, whose right adjoints
are the negative modalities.  Each right adjoint is assembled pointwise from
limits (incl over comma categories, radj over a diagram of inclusions), and
sends an arrow to the arrow its map of diagrams induces between the limits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (CapExceeded, LimitAbsent, MalformedTable, NotColax,
                     NotComposable)
from .fincat import (Diagram, FinCat, FinFunctor, FinNat, comma,
                     compose_functors, factorizations, id_name,
                     identity_functor, isomorphic, limit)


@dataclass(frozen=True)
class OplaxObject:
    """One object of a codex category.

    components: sorted tuple of (morphism name, object) pairs.
    structure: sorted tuple of ((nu, rho, alpha), arrow) pairs.

    The hash and the lookups by index are built once, at construction:
    codex objects sit inside every codex arrow name and are hashed on each
    hom or table lookup.
    """
    mode: str
    components: tuple
    structure: tuple
    _hash: int = field(init=False, repr=False, compare=False)
    _comps: dict = field(init=False, repr=False, compare=False)
    _smaps: dict = field(init=False, repr=False, compare=False)

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


@dataclass
class CodexCategory:
    """The codex category at a mode, built only by enumerate_codex.

    mus (the morphisms into the mode) index the components of an object and
    trips (decomposition_triples) its structure maps.  obj and arrow return
    the enumerated instances, never an equal copy."""
    diagram: Diagram
    mode: str
    mus: list
    trips: list
    cat: FinCat
    _instances: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._instances = {o: o for o in self.cat.objects}

    @property
    def objects(self):
        return self.cat.objects

    def obj(self, comps: dict, smaps: dict):
        """The enumerated object with these components and structure maps,
        or None when they do not form one."""
        return self._instances.get(OplaxObject.of(self.mode, comps, smaps))

    def arrow(self, comps: dict, src: OplaxObject, dst: OplaxObject):
        """The name of the arrow src -> dst with these components, as the
        codex holds it."""
        return self.cat.arr(_arrow_name(self.diagram, comps, src, dst)).name

    def theta(self, name) -> dict:
        """Per-index components of a codex arrow."""
        a = self.cat.arr(name)
        if name == self.cat.identities.get(a.src):
            return _identity_family(self.diagram, a.src)
        return dict(name[0])


def decomposition_triples(mt, r) -> list:
    """All (nu, rho, alpha) with nu: q->r, rho: p->q, alpha: mu => nu.rho."""
    out = []
    for rho in mt.morphisms.values():
        for nu in mt.morphisms.values():
            if nu.dst != r or rho.dst != nu.src:
                continue
            comp = mt.compose(nu.name, rho.name)
            for c in mt.cells.values():
                if c.dst == comp:
                    out.append((nu.name, rho.name, c.name))
    return sorted(out)


def _is_identity_triple(mt, t) -> bool:
    nu, rho, alpha = t
    return mt.is_id_mor(rho) and mt.is_id_cell(alpha)


def _structure_violations(d, comps, smaps, trips) -> list[str]:
    """Cocycle and cell-action equations, assuming boundaries are fine."""
    mt = d.mt
    out = []
    for t1 in trips:
        nu1, rho1, a1 = t1
        mu1 = mt.cell(a1).src
        # cocycle: decompose nu1 further by any t2 = (nu2, rho2, a2)
        for t2 in trips:
            nu2, rho2, a2 = t2
            if mt.cell(a2).src != nu1:
                continue
            t3 = (nu2, mt.compose(rho2, rho1),
                  mt.vcomp(mt.wr(a2, rho1), a1))
            c2 = d.cat(mt.mor(nu2).src)
            lhs = c2.comp(d.fun(rho2).amap[smaps[t1]], smaps[t2])
            if lhs != smaps[t3]:
                out.append(f"cocycle fails at {t1} then {t2}")
        # cell action: whisker the decomposition by any beta: rho1 => sigma
        for beta in mt.cells.values():
            if beta.src != rho1:
                continue
            t3 = (nu1, beta.dst, mt.vcomp(mt.wl(nu1, beta.name), a1))
            cq = d.cat(mt.mor(nu1).src)
            lhs = cq.comp(d.nat(beta.name).at(comps[mu1]), smaps[t1])
            if lhs != smaps[t3]:
                out.append(f"cell action fails at {t1} with {beta.name}")
    return out


def check_oplax_object(d, obj: OplaxObject) -> list[str]:
    """Independent verification of all codex-object axioms."""
    mt = d.mt
    comps, smaps = obj._comps, obj._smaps
    mus = [m.name for m in mt.morphisms_into(obj.mode)]
    if sorted(comps) != sorted(mus):
        return ["component index set does not match morphisms into the mode"]
    trips = decomposition_triples(mt, obj.mode)
    if sorted(smaps) != trips:
        return ["structure map index set does not match decompositions"]
    out = []
    for t in trips:
        nu, rho, alpha = t
        mu = mt.cell(alpha).src
        cq = d.cat(mt.mor(nu).src)
        arr = cq.arr(smaps[t])
        if (arr.src, arr.dst) != (comps[nu], d.fun(rho).omap[comps[mu]]):
            out.append(f"structure map at {t} has wrong boundary")
        if _is_identity_triple(mt, t) and smaps[t] != cq.id_arr(comps[mu]):
            out.append(f"identity decomposition at {t} is not the identity")
    if out:
        return out
    return _structure_violations(d, comps, smaps, trips)


def _theta_squares_ok(d, trips, g, h, theta) -> bool:
    mt = d.mt
    for t in trips:
        nu, rho, alpha = t
        mu = mt.cell(alpha).src
        cq = d.cat(mt.mor(nu).src)
        lhs = cq.comp(d.fun(rho).amap[theta[mu]], g.smap(t))
        rhs = cq.comp(h.smap(t), theta[nu])
        if lhs != rhs:
            return False
    return True


def check_oplax_morphism(cx: CodexCategory, arrow_name) -> list[str]:
    d, mt = cx.diagram, cx.diagram.mt
    a = cx.cat.arr(arrow_name)
    theta = cx.theta(arrow_name)
    out = []
    for mu, arr in theta.items():
        cp = d.cat(mt.mor(mu).src)
        ab = cp.arr(arr)
        if (ab.src, ab.dst) != (a.src.component(mu), a.dst.component(mu)):
            out.append(f"component at {mu} has wrong boundary")
    if not out and not _theta_squares_ok(d, cx.trips, a.src, a.dst, theta):
        out.append("a structure square does not commute")
    return out


def _identity_family(d, obj: OplaxObject) -> dict:
    mt = d.mt
    return {mu: d.cat(mt.mor(mu).src).id_arr(v) for mu, v in obj.components}


def _arrow_name(d: Diagram, comps: dict, src: OplaxObject,
                dst: OplaxObject):
    """The name of the codex arrow src -> dst with the given components."""
    if src is dst and comps == _identity_family(d, src):
        return id_name(src)
    return (tuple(sorted(comps.items())), src, dst)


def enumerate_codex(d: Diagram, r: str, cap=None) -> CodexCategory:
    """Exhaustively build the codex category at mode r as a FinCat."""
    mt = d.mt
    mus = [m.name for m in mt.morphisms_into(r)]
    trips = decomposition_triples(mt, r)
    cats = {mu: d.cat(mt.mor(mu).src) for mu in mus}
    est = 1
    for mu in mus:
        est *= len(cats[mu].objects)
    if cap is not None and est > cap:
        raise CapExceeded(f"codex at {r}: component search size {est} "
                          f"exceeds cap {cap}")

    objs: list[OplaxObject] = []
    for combo in itertools.product(*(cats[mu].objects for mu in mus)):
        comps = dict(zip(mus, combo))
        choices = []
        feasible = True
        for t in trips:
            nu, rho, alpha = t
            mu = mt.cell(alpha).src
            cq = d.cat(mt.mor(nu).src)
            target = d.fun(rho).omap[comps[mu]]
            if _is_identity_triple(mt, t):
                opts = [cq.id_arr(comps[mu])]
            else:
                opts = cq.hom(comps[nu], target)
            if not opts:
                feasible = False
                break
            choices.append(opts)
        if not feasible:
            continue
        for pick in itertools.product(*choices):
            smaps = dict(zip(trips, pick))
            if not _structure_violations(d, comps, smaps, trips):
                objs.append(OplaxObject.of(r, comps, smaps))

    arrows = []
    for g in objs:
        for h in objs:
            homs = [cats[mu].hom(g.component(mu), h.component(mu))
                    for mu in mus]
            for combo in itertools.product(*homs):
                theta = dict(zip(mus, combo))
                if not _theta_squares_ok(d, trips, g, h, theta):
                    continue
                if g == h and theta == _identity_family(d, g):
                    continue  # synthesized by FinCat
                name = (tuple(sorted(theta.items())), g, h)
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
            rows.append((bn, an, _arrow_name(d, comps, asrc, bdst)))
    return CodexCategory(d, r, mus, trips,
                         FinCat(objs, arrows, rows, name=f"Codex({r})"))


# --- lock functors and reflection ----------------------------------------------

def lock_functor(cx_r: CodexCategory, cx_q: CodexCategory,
                 mu: str) -> FinFunctor:
    """The lock along mu: q -> r, acting by composition on the index."""
    mt = cx_r.diagram.mt
    m = mt.mor(mu)
    if (m.src, m.dst) != (cx_q.mode, cx_r.mode):
        raise NotComposable(f"lock_functor: {mu} is not {cx_q.mode} -> "
                            f"{cx_r.mode}")
    omap = {}
    for g in cx_r.objects:
        comps = {nu: g.component(mt.compose(mu, nu)) for nu in cx_q.mus}
        smaps = {t: g.smap((mt.compose(mu, t[0]), t[1], mt.wl(mu, t[2])))
                 for t in cx_q.trips}
        omap[g] = cx_q.obj(comps, smaps)
        if omap[g] is None:
            raise MalformedTable(f"lock({mu}): image of {g} was not "
                                 "enumerated")
    amap = {}
    for name, a in cx_r.cat.arrows.items():
        th = cx_r.theta(name)
        comps = {nu: th[mt.compose(mu, nu)] for nu in cx_q.mus}
        amap[name] = cx_q.arrow(comps, omap[a.src], omap[a.dst])
    return FinFunctor(cx_r.cat, cx_q.cat, omap, amap, name=f"lock({mu})")


def lock_cell(bundle: "CodexBundle", beta: str) -> FinNat:
    """The lock action of a cell beta: mu => mu2 (both q -> r), a natural
    transformation lock(mu2) => lock(mu)."""
    mt = bundle.diagram.mt
    c = mt.cell(beta)
    m = mt.mor(c.src)
    cx_r, cx_q = bundle.codexes[m.dst], bundle.codexes[m.src]
    fm2 = bundle.right_adjoints[c.dst].left
    fm = bundle.right_adjoints[c.src].left
    comps = {}
    for g in cx_r.objects:
        th = {}
        for nu in cx_q.mus:
            o = mt.mor(nu).src
            cell = mt.wr(beta, nu)
            th[nu] = g.smap((mt.compose(c.dst, nu), mt.id_mor(o), cell))
        comps[g] = cx_q.arrow(th, fm2.omap[g], fm.omap[g])
    return FinNat(fm2, fm, comps, name=f"lock({beta})")


def reflect(cx_q: CodexCategory, mu: str) -> FinFunctor:
    """Project the mu-component; mu: p -> q."""
    d, mt = cx_q.diagram, cx_q.diagram.mt
    m = mt.mor(mu)
    if m.dst != cx_q.mode:
        raise NotComposable(f"reflect: {mu} does not land in {cx_q.mode}")
    cp = d.cat(m.src)
    omap = {g: g.component(mu) for g in cx_q.objects}
    amap = {name: cx_q.theta(name)[mu] for name in cx_q.cat.arrows}
    return FinFunctor(cx_q.cat, cp, omap, amap, name=f"reflect({mu})")


# --- adjunctions ----------------------------------------------------------------

@dataclass
class Adjunction:
    """left(pi) left adjoint to right(pi), for pi: r -> s, with its witnesses.

    Both families of the codex use this record.  incl gives reflect(pi) -|
    incl(pi), whose left adjoint runs from the codex at s to C_r, and
    codex_right_adjoint gives lock(pi) -| radj(pi), whose left adjoint runs
    from the codex at s to the codex at r.  unit maps each object x of
    left.src to an arrow x -> right(left(x)); counit maps each object y of
    right.src to an arrow left(right(y)) -> y.  cones holds the limit cones
    the right adjoint was assembled from: keyed by (object of C_r, nu) for
    incl, by object of the codex at r for radj."""
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


def incl(cx_s: CodexCategory, pi: str, cap=None) -> Adjunction:
    """reflect(pi) -| incl(pi), with incl computed pointwise by limits over
    the comma categories pi down nu."""
    d, mt = cx_s.diagram, cx_s.diagram.mt
    m = mt.mor(pi)
    if m.dst != cx_s.mode:
        raise NotComposable(f"incl: {pi} does not land in {cx_s.mode}")
    r = m.src
    cr = d.cat(r)
    commas = {nu: comma(mt, pi, nu) for nu in cx_s.mus}

    cones = {}
    omap = {}
    for g in cr.objects:
        comps = {}
        for nu in cx_s.mus:
            k = commas[nu]
            cq = d.cat(mt.mor(nu).src)
            nodes = {o: d.fun(o[0]).omap[g] for o in k.objects}
            edges = [(a.src, a.dst, d.nat(n[0]).at(g))
                     for n, a in k.arrows.items()
                     if n not in k.identities.values()]
            cone = limit(cq, nodes, edges, cap=cap)
            if cone is None:
                raise LimitAbsent(f"incl({pi}): component at {nu} of {g} "
                                  "has no limit")
            comps[nu] = cone.apex
            cones[(g, nu)] = cone
        smaps = {}
        for t in cx_s.trips:
            nu, rho, alpha = t
            mu = mt.cell(alpha).src
            cq = d.cat(mt.mor(nu).src)
            frho = d.fun(rho)
            conemu, conenu = cones[(g, mu)], cones[(g, nu)]
            smaps[t] = _mediating(
                cq, comps[nu], frho.omap[comps[mu]],
                ((frho.amap[conemu.leg(o)],
                  conenu.leg((mt.compose(rho, o[0]),
                              mt.vcomp(mt.wr(alpha, o[0]), o[1]))))
                 for o in commas[mu].objects),
                "incl({}): structure map at {} of {}", pi, t, g)
        omap[g] = cx_s.obj(comps, smaps)
        if omap[g] is None:
            raise MalformedTable(f"incl({pi}): computed object for {g} was "
                                 "not enumerated")

    amap = {}
    for fname, fa in cr.arrows.items():
        comps = {nu: _induced(
            d.cat(mt.mor(nu).src), cones[(fa.src, nu)], cones[(fa.dst, nu)],
            {o: d.fun(o[0]).amap[fname] for o in commas[nu].objects},
            "incl({}): image of {} at {}", pi, fname, nu)
            for nu in cx_s.mus}
        amap[fname] = cx_s.arrow(comps, omap[fa.src], omap[fa.dst])

    counit_key = (mt.id_mor(r), mt.id_cell(pi))
    counit = {g: cones[(g, pi)].leg(counit_key) for g in cr.objects}
    unit = {}
    for delta in cx_s.objects:
        g = delta.component(pi)
        comps = {}
        for nu in cx_s.mus:
            cq = d.cat(mt.mor(nu).src)
            cone = cones[(g, nu)]
            comps[nu] = _mediating(
                cq, delta.component(nu), omap[g].component(nu),
                ((cone.leg(o), delta.smap((nu, o[0], o[1])))
                 for o in commas[nu].objects),
                "incl({}): unit at {} of {}", pi, nu, delta)
        unit[delta] = cx_s.arrow(comps, delta, omap[g])
    return Adjunction(pi, reflect(cx_s, pi),
                      FinFunctor(cr, cx_s.cat, omap, amap, name=f"incl({pi})"),
                      unit, counit, cones)


def transpose(adj: Adjunction, x, f):
    """The transpose x -> right(y) of f: left(x) -> y, along the unit."""
    return adj.right.dst.comp(adj.right.amap[f], adj.unit[x])


def mate(cx_s: CodexCategory, adj_mu: Adjunction, adj_nu: Adjunction,
         rho: str, alpha: str) -> FinNat:
    """The mate incl(mu) => incl(nu) . C_rho of the structure-map operation,
    for alpha: mu => nu . rho."""
    d, mt = cx_s.diagram, cx_s.diagram.mt
    mu, nu = adj_mu.pi, adj_nu.pi
    c = mt.cell(alpha)
    if c.src != mu or c.dst != mt.compose(nu, rho):
        raise NotComposable(f"mate: {alpha} is not {mu} => {nu}.{rho}")
    q = mt.mor(nu).src
    cq = d.cat(q)
    comps = {}
    for g in d.cat(mt.mor(mu).src).objects:
        x = adj_mu.right.omap[g]
        f = cq.comp(d.fun(rho).amap[adj_mu.counit[g]],
                    x.smap((nu, rho, alpha)))
        comps[g] = transpose(adj_nu, x, f)
    return FinNat(adj_mu.right, compose_functors(adj_nu.right, d.fun(rho)),
                  comps, name=f"mate({rho},{alpha})")


def codex_right_adjoint(cx_r: CodexCategory, cx_s: CodexCategory, pi: str,
                        adjs: dict, cap=None) -> Adjunction:
    """lock(pi) -| radj(pi) for pi: r -> s, with radj assembled as a limit
    of inclusions; adjs maps every composite pi . mu to its reflect -| incl
    Adjunction."""
    d, mt = cx_r.diagram, cx_r.diagram.mt
    m = mt.mor(pi)
    if (m.src, m.dst) != (cx_r.mode, cx_s.mode):
        raise NotComposable(f"codex_right_adjoint: {pi} is not "
                            f"{cx_r.mode} -> {cx_s.mode}")
    trips = [t for t in cx_r.trips if not _is_identity_triple(mt, t)]
    mates = {}
    for t in trips:
        nu, rho, alpha = t
        mu = mt.cell(alpha).src
        mates[t] = mate(cx_s, adjs[mt.compose(pi, mu)],
                        adjs[mt.compose(pi, nu)], rho, mt.wl(pi, alpha))

    cones = {}
    omap = {}
    for delta in cx_r.objects:
        nodes = {("n", mu): adjs[mt.compose(pi, mu)].right.omap[
            delta.component(mu)] for mu in cx_r.mus}
        edges = []
        for t in trips:
            nu, rho, alpha = t
            mu = mt.cell(alpha).src
            a_nu = adjs[mt.compose(pi, nu)]
            nodes[("c", t)] = a_nu.right.omap[
                d.fun(rho).omap[delta.component(mu)]]
            edges.append((("n", nu), ("c", t), a_nu.right.amap[delta.smap(t)]))
            edges.append((("n", mu), ("c", t),
                          mates[t].at(delta.component(mu))))
        cone = limit(cx_s.cat, nodes, edges, cap=cap)
        if cone is None:
            raise LimitAbsent(f"codex_right_adjoint({pi}): no limit "
                              f"for {delta}")
        omap[delta] = cone.apex
        cones[delta] = cone

    amap = {}
    for name, a in cx_r.cat.arrows.items():
        theta = cx_r.theta(name)
        maps = {("n", mu): adjs[mt.compose(pi, mu)].right.amap[theta[mu]]
                for mu in cx_r.mus}
        for t in trips:
            nu, rho, alpha = t
            maps[("c", t)] = adjs[mt.compose(pi, nu)].right.amap[
                d.fun(rho).amap[theta[mt.cell(alpha).src]]]
        amap[name] = _induced(cx_s.cat, cones[a.src], cones[a.dst], maps,
                              "codex_right_adjoint({}): image of an arrow", pi)
    lock = lock_functor(cx_s, cx_r, pi)

    counit = {}
    for delta in cx_r.objects:
        apex = omap[delta]
        comps = {}
        for mu in cx_r.mus:
            pim = mt.compose(pi, mu)
            legc = cx_s.theta(cones[delta].leg(("n", mu)))[pim]
            cp = d.cat(mt.mor(mu).src)
            comps[mu] = cp.comp(adjs[pim].counit[delta.component(mu)], legc)
        counit[delta] = cx_r.arrow(comps, lock.omap[apex], delta)

    unit = {}
    for gamma in cx_s.objects:
        delta = lock.omap[gamma]
        cone = cones[delta]
        wanted = {("n", mu): adjs[mt.compose(pi, mu)].unit[gamma]
                  for mu in cx_r.mus}
        for t in trips:
            nu = t[0]
            edge = adjs[mt.compose(pi, nu)].right.amap[delta.smap(t)]
            wanted[("c", t)] = cx_s.cat.comp(edge, wanted[("n", nu)])
        unit[gamma] = _mediating(
            cx_s.cat, gamma, omap[delta],
            ((cone.leg(k), v) for k, v in wanted.items()),
            "codex_right_adjoint({}): unit at {}", pi, gamma)
    return Adjunction(pi, lock,
                      FinFunctor(cx_r.cat, cx_s.cat, omap, amap,
                                 name=f"radj({pi})"),
                      unit, counit, cones)


# --- bundles and global checks --------------------------------------------------

@dataclass
class CodexBundle:
    """Codex categories at every mode with both adjunction families, each
    keyed by morphism, and each built whole when a law first reads it."""
    diagram: Diagram
    cap: int | None = None

    @cached_property
    def codexes(self) -> dict:
        return {p: enumerate_codex(self.diagram, p, cap=self.cap)
                for p in self.diagram.mt.modes}

    @cached_property
    def adjunctions(self) -> dict:  # reflect -| incl
        return {m.name: incl(self.codexes[m.dst], m.name, cap=self.cap)
                for m in self.diagram.mt.morphisms.values()}

    @cached_property
    def right_adjoints(self) -> dict:  # lock -| radj
        cx = self.codexes
        return {m.name: codex_right_adjoint(cx[m.src], cx[m.dst], m.name,
                                            self.adjunctions, cap=self.cap)
                for m in self.diagram.mt.morphisms.values()}

    @cached_property
    def report(self) -> list[tuple]:
        """verify_2functor's report, computed once for every law that reads
        it."""
        return verify_2functor(self)


def build_bundle(d: Diagram, cap=None) -> CodexBundle:
    return CodexBundle(d, cap)


def psnat_component(bundle: CodexBundle, pi: str, delta: OplaxObject):
    """The canonical comparison (radj(pi) delta)^1 -> C_pi(delta^1)."""
    d, mt = bundle.diagram, bundle.diagram.mt
    r, s = mt.mor(pi).src, mt.mor(pi).dst
    radj = bundle.right_adjoints[pi]
    leg = radj.cones[delta].leg(("n", mt.id_mor(r)))
    outer = bundle.codexes[s].theta(leg)[mt.id_mor(s)]
    inner_cone = bundle.adjunctions[pi].cones[
        (delta.component(mt.id_mor(r)), mt.id_mor(s))]
    inner = inner_cone.leg((pi, mt.id_cell(pi)))
    return d.cat(s).comp(inner, outer)


def verify_2functor(bundle: CodexBundle) -> list[tuple]:
    """Strictness of locks and coherence of their right adjoints."""
    mt, cx, radj = bundle.diagram.mt, bundle.codexes, bundle.right_adjoints
    report = []
    for p in mt.modes:
        ok = radj[mt.id_mor(p)].left.same_tables(identity_functor(cx[p].cat))
        report.append((f"lock-identity:{p}", ok, "" if ok else
                       f"lock(1_{p}) is not the identity"))
    for (g, f), h in mt.compose_table.items():
        ok = radj[h].left.same_tables(compose_functors(radj[f].left,
                                                       radj[g].left))
        report.append((f"lock-strict:{g}.{f}", ok, "" if ok else
                       f"lock({h}) differs from lock({f}).lock({g})"))
        rg, rf, rh = radj[g].right, radj[f].right, radj[h].right
        bad = [delta for delta in cx[mt.mor(f).src].objects
               if not isomorphic(cx[mt.mor(g).dst].cat, rh.omap[delta],
                                 rg.omap[rf.omap[delta]])]
        report.append((f"radj-compose:{g}.{f}", not bad, "" if not bad else
                       f"composite right adjoints differ at {bad[0]}"))
    for beta in mt.cells.values():
        c = mt.cell(beta.name)
        ms = mt.mor(c.src)
        if ms.src == ms.dst and mt.is_id_mor(c.src) and mt.is_id_mor(c.dst):
            continue
        nat = lock_cell(bundle, beta.name)
        bad = nat.validate()
        report.append((f"lock-cell:{beta.name}", not bad,
                       "; ".join(bad)))
    return report


# --- the universal property -----------------------------------------------------

def reflect_colax(bundle: CodexBundle):
    """The identity-component projections as a colax transformation into the
    base diagram, with the canonical comparison cells."""
    mt = bundle.diagram.mt
    g = {p: bundle.adjunctions[mt.id_mor(p)].left for p in mt.modes}
    gamma = {}
    for m in mt.morphisms.values():
        gamma[m.name] = {delta: psnat_component(bundle, m.name, delta)
                         for delta in bundle.codexes[m.src].objects}
    return g, gamma


def dextrify_colax(bundle: CodexBundle, g: dict, gamma: dict) -> dict:
    """Lift a colax transformation out of the codex family back into the
    codexes: per mode r, a functor with object part
    (G hat Gamma)^mu = G_p(lock(mu) Gamma).

    g: mode -> FinFunctor from the codex to the diagram's category at that
    mode; gamma: morphism rho -> per-object comparison
    G_q(radj(rho) Delta) -> C_rho(G_p Delta)."""
    d, mt = bundle.diagram, bundle.diagram.mt
    out = {}
    for r in mt.modes:
        cx_r = bundle.codexes[r]
        locks = {mu: bundle.right_adjoints[mu].left for mu in cx_r.mus}
        cells = {alpha: lock_cell(bundle, alpha) for alpha in dict.fromkeys(
            t[2] for t in cx_r.trips if not _is_identity_triple(mt, t))}
        omap = {}
        for gobj in cx_r.objects:
            comps = {mu: g[mt.mor(mu).src].omap[locks[mu].omap[gobj]]
                     for mu in cx_r.mus}
            smaps = {}
            for t in cx_r.trips:
                nu, rho, alpha = t
                mu = mt.cell(alpha).src
                q = mt.mor(nu).src
                if _is_identity_triple(mt, t):
                    smaps[t] = d.cat(q).id_arr(comps[mu])
                    continue
                lock_mu = locks[mu].omap[gobj]
                radj_rho = bundle.right_adjoints[rho]
                mhat = bundle.codexes[q].cat.comp(
                    radj_rho.right.amap[cells[alpha].at(gobj)],
                    radj_rho.unit[locks[nu].omap[gobj]])
                try:
                    comparison = gamma[rho][lock_mu]
                except KeyError:
                    raise NotColax(f"missing colax cell for {rho} "
                                   f"at {lock_mu}") from None
                smaps[t] = d.cat(q).comp(comparison, g[q].amap[mhat])
            omap[gobj] = cx_r.obj(comps, smaps)
            if omap[gobj] is None:
                raise NotColax(f"dextrified object for {gobj} violates the "
                               "codex axioms")
        amap = {}
        for name, a in cx_r.cat.arrows.items():
            comps = {mu: g[mt.mor(mu).src].amap[locks[mu].amap[name]]
                     for mu in cx_r.mus}
            amap[name] = cx_r.arrow(comps, omap[a.src], omap[a.dst])
        out[r] = FinFunctor(cx_r.cat, cx_r.cat, omap, amap,
                            name=f"dextrify({r})")
    return out
