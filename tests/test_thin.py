"""Thin diagrams of frames: the codex engine against the general equations.

A finite poset P gives the frame O(P) of its down-sets, a thin category,
and a monotone h: P → Q gives the inverse image h⁻¹: O(Q) → O(P).  Over
single_arrow.mt, C_p = O(Q), C_q = O(P) and C_mu = h⁻¹, so every base
category and every codex is thin.  Over reflective.mt, for an order
embedding h, nu ↦ h_*, the right adjoint of h⁻¹, numu ↦ h_*h⁻¹ and eta is
the unit: a lock with a non-identity cell and an adjoint on the thin
path.  The thin fast path of `enumerate_codex`
and `codex_right_adjoint` decides no equation, and the lock, reflection,
inclusion and dextrification maps read their arrows off hom-sets; these
tests check what it builds against the equations it skips, and against the
general path, construction by construction and law by law.
The mask path of `first_unpreserved_limit` is checked against limit cones
on these frames and their codexes, and on random preorders.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_codex import assert_families_match_the_reference
from test_fincat import _limit_reference, preorders

from matt import codex, laws
from matt.bundled import DIAGRAM_NAMES, diagram_path, theory_path
from matt.codex import (build_bundle, check_oplax_morphism,
                        check_oplax_object, codex_index, dextrify_colax,
                        enumerate_codex, lock_cell, OplaxObject,
                        reflect_colax)
from matt.errors import CapExceeded, MattError
from matt.fincat import (Diagram, FinFunctor, FinNat, check_preserves_limit,
                         first_unpreserved_limit, identity_functor, limit,
                         load_diagram, poset_category)
from matt.laws import LAWS, run_law_suite
from matt.mode_theory import load_mode_theory

SINGLE_ARROW = load_mode_theory(theory_path("single_arrow"))


def closure(n, pairs) -> list:
    """below[y], the mask of the points x <= y, of the order on range(n)
    that pairs (x, y) with x < y generate."""
    below = [1 << y for y in range(n)]
    for x, y in pairs:
        below[y] |= 1 << x
    for y in range(n):  # every pair runs upward, so below[x] is final
        for x in range(y):
            if below[y] >> x & 1:
                below[y] |= below[x]
    return below


def frame(below, name):
    """O(P) as a thin FinCat, the down-set with point mask m named D<m>."""
    masks = [m for m in range(1 << len(below))
             if all(below[x] | m == m for x in range(len(below))
                    if m >> x & 1)]
    return poset_category([f"D{m}" for m in masks],
                          lambda a, b: int(a[1:]) & ~int(b[1:]) == 0,
                          name=name)


@st.composite
def locale_diagrams(draw, max_points=4):
    """single_arrow over O(Q) and O(P) with mu ↦ h⁻¹, for random posets P
    and Q of 1 to max_points points and a random monotone h: P → Q.  P's
    order is drawn among the pairs h sends into Q's order, so h is
    monotone by construction."""
    nq = draw(st.integers(1, max_points))
    upward = st.tuples(st.integers(0, max_points - 1),
                       st.integers(0, max_points - 1))
    below_q = closure(nq, {(x, y) for x, y in draw(st.sets(upward))
                           if x < y < nq})
    np_ = draw(st.integers(1, max_points))
    h = draw(st.lists(st.integers(0, nq - 1), min_size=np_, max_size=np_))
    below_p = closure(np_, {(x, y) for x, y in draw(st.sets(upward))
                            if x < y < np_ and below_q[h[y]] >> h[x] & 1})
    oq, op = frame(below_q, "p"), frame(below_p, "q")

    def inverse(m):
        return sum(1 << x for x in range(np_) if m >> h[x] & 1)

    d = Diagram(SINGLE_ARROW, {"p": oq, "q": op},
                {"mu": monotone(oq, op, inverse, "mu")}, {})
    assert d.validate() == []
    return d


REFLECTIVE = load_mode_theory(theory_path("reflective"))


def monotone(src, dst, fn, name):
    """The functor between frames that sends each down-set D<m> of src to
    D<fn(m)> and each arrow to the one arrow between the images of its
    ends."""
    omap = {o: f"D{fn(int(o[1:]))}" for o in src.objects}
    amap = {n: dst.hom(omap[a.src], omap[a.dst])[0]
            for n, a in src.arrows.items()}
    return FinFunctor(src, dst, omap, amap, name=name)


@st.composite
def embeddings(draw, max_points=4):
    """A random poset Q of 1 to max_points points and an order embedding
    h: P → Q, as (below_q, below_p, h): P is a nonempty set of points of Q
    with Q's order, and h lists them."""
    nq = draw(st.integers(1, max_points))
    upward = st.tuples(st.integers(0, max_points - 1),
                       st.integers(0, max_points - 1))
    below_q = closure(nq, {(x, y) for x, y in draw(st.sets(upward))
                           if x < y < nq})
    h = sorted(draw(st.sets(st.integers(0, nq - 1), min_size=1)))
    below_p = [sum(1 << i for i, x in enumerate(h) if below_q[y] >> x & 1)
               for y in h]
    return below_q, below_p, h


def direct_image(below_q, h):
    """h_*, the right adjoint of h⁻¹, on point masks: the y of Q whose
    every preimage below it lies in the down-set."""
    return lambda d: sum(1 << y for y in range(len(below_q))
                         if all(d >> i & 1 for i, x in enumerate(h)
                                if below_q[y] >> x & 1))


def reflective_frames(below_q, below_p, h, nu=None):
    """reflective over C_p = O(Q) and C_q = O(P) for an order embedding h:
    mu ↦ h⁻¹, nu ↦ h_* (or nu(below_q, h) when given), numu ↦ h_*h⁻¹ and
    eta the unit U ≤ h_*h⁻¹U.  h⁻¹h_* = id strictly, as h is an order
    embedding."""
    oq, op = frame(below_q, "p"), frame(below_p, "q")
    direct = direct_image(below_q, h)

    def inverse(m):
        return sum(1 << i for i, x in enumerate(h) if m >> x & 1)

    mu = monotone(oq, op, inverse, "mu")
    nu_f = monotone(op, oq, (nu or direct_image)(below_q, h), "nu")
    numu = monotone(oq, oq, lambda m: direct(inverse(m)), "numu")
    d = Diagram(REFLECTIVE, {"p": oq, "q": op},
                {"mu": mu, "nu": nu_f, "numu": numu}, {})
    d.nats["eta"] = FinNat(d.functors["id:p"], numu,
                           {o: oq.hom(o, numu.omap[o])[0]
                            for o in oq.objects}, name="eta")
    return d


@st.composite
def reflective_locale_diagrams(draw, max_points=3):
    """reflective_frames for a random order embedding."""
    d = reflective_frames(*draw(embeddings(max_points)))
    assert d.validate() == []
    return d


def doubled(c, x):
    """The thin c with a copy x' of its object x: x and x' are distinct and
    isomorphic, so c is no longer a poset, and each meet of c is still one."""
    def orig(o):
        return x if o == f"{x}'" else o
    return poset_category(c.objects + [f"{x}'"],
                          lambda u, v: bool(c.hom(orig(u), orig(v))),
                          name=c.name)


@st.composite
def doubled_locale_diagrams(draw):
    """locale_diagrams on posets of 1 or 2 points with one object of each
    frame doubled, and mu sending a copy where it sends its original."""
    d = draw(locale_diagrams(max_points=2))
    mu = d.fun("mu")
    x = draw(st.sampled_from(mu.src.objects))
    cp = doubled(mu.src, x)
    cq = doubled(mu.dst, draw(st.sampled_from(mu.dst.objects)))
    omap = {**mu.omap, f"{x}'": mu.omap[x]}
    amap = {n: cq.hom(omap[a.src], omap[a.dst])[0]
            for n, a in cp.arrows.items()}
    d = Diagram(SINGLE_ARROW, {"p": cp, "q": cq},
                {"mu": FinFunctor(cp, cq, omap, amap, name="mu")}, {})
    assert d.validate() == []
    return d


def brute_force_objects(d, r) -> list:
    """Every family of components and structure maps at r that passes
    check_oplax_object, over all arrows with each map's boundary."""
    ix = codex_index(d, r)
    out = []
    for combo in itertools.product(*(ix.cats[mu].objects for mu in ix.mus)):
        comps = dict(zip(ix.mus, combo))
        homs = [t.cat.hom(comps[t.nu], t.fun.omap[comps[t.mu]])
                for t in ix.decomps]
        for pick in itertools.product(*homs):
            o = OplaxObject.of(r, comps, dict(zip((t.key for t in ix.decomps),
                                                  pick)))
            if not check_oplax_object(d, o):
                out.append(o)
    return out


@settings(max_examples=40, deadline=None)
@given(locale_diagrams())
def test_thin_codex_meets_the_general_equations(d):
    for r in d.mt.modes:
        cx = enumerate_codex(d, r)
        assert cx.cat.thin
        assert cx.cat.validate() == []
        assert all(check_oplax_object(d, o) == [] for o in cx.objects)
        assert all(check_oplax_morphism(cx, a) == [] for a in cx.cat.arrows)
        assert len(cx.objects) == len(brute_force_objects(d, r))


@settings(max_examples=40, deadline=None)
@given(st.one_of(locale_diagrams(), reflective_locale_diagrams()))
def test_all_laws_pass_on_frames_and_inverse_images(d):
    b = build_bundle(d)
    for name, law in LAWS.items():
        ok, detail = law(d, b, None)
        assert ok, (name, detail)


@settings(max_examples=40, deadline=None)
@given(st.one_of(locale_diagrams(), reflective_locale_diagrams(),
                 doubled_locale_diagrams()))
def test_families_match_the_reference_on_frames(d):
    assert_families_match_the_reference(d)


def left_image(below_q, h):
    """h_!, the left adjoint of h⁻¹, on point masks: the down-closure of
    the image of the down-set."""
    return lambda d: sum(1 << y for y in range(len(below_q))
                         if any(d >> i & 1 and below_q[x] >> y & 1
                                for i, x in enumerate(h)))


@settings(max_examples=60, deadline=None)
@given(embeddings())
def test_reflective_frames_fail_with_a_monotone_nu_that_is_not_h_star(e):
    """nu ↦ h_!, monotone and a section of h⁻¹ as h_* is, but not its right
    adjoint unless h is onto: Diagram.validate fails the two composites
    that read C_nu after C_mu or before C_numu."""
    below_q, _, h = e
    d = reflective_frames(*e, nu=left_image)
    onto = len(h) == len(below_q)
    assert d.validate() == ([] if onto else [
        "strictness fails: C_(nu∘mu) != C_nu∘C_mu",
        "strictness fails: C_(numu∘nu) != C_numu∘C_nu"])


def mark_not_thin(cats):
    """Make the engine take its general path on cats: decide each equation
    and search each limit among all cones."""
    for c in cats:
        c.thin = False


def by_ends(cx, name) -> tuple:
    """A codex arrow as its ends and components, which fix it whatever it
    is named: a thin codex names it by positions, the general path by its
    components."""
    a = cx.cat.arr(name)
    return a.src, a.dst, tuple(cx.theta(name).items())


def arrows_and_composites(cx) -> tuple:
    """The arrows of a codex in order and the composite of each composable
    pair, all by_ends."""
    cat = cx.cat
    out_of = cat.out_of()
    return ([by_ends(cx, n) for n in cat.arrows],
            [by_ends(cx, cat.comp(g.name, f.name))
             for f in cat.arrows.values() for g in out_of[f.dst]])


@settings(max_examples=60, deadline=None)
@given(locale_diagrams())
def test_thin_enumeration_matches_the_general_path(d):
    thin = {r: enumerate_codex(d, r) for r in d.mt.modes}
    assert all(cx.thin and not hasattr(cx.cat, "compose")
               for cx in thin.values())  # no composition table
    mark_not_thin(d.cats.values())
    for r, cx in thin.items():
        general = enumerate_codex(d, r)
        assert not general.thin
        assert cx.objects == general.objects
        assert arrows_and_composites(cx) == arrows_and_composites(general)


def frames(max_points=3):
    """Every strategy of thin frame diagrams: single_arrow's inverse
    images, plain and doubled, and reflective's embeddings."""
    return st.one_of(locale_diagrams(max_points), doubled_locale_diagrams(),
                     reflective_locale_diagrams(max_points))


@settings(max_examples=40, deadline=None)
@given(frames())
def test_thin_adjoints_match_the_general_path(d):
    thin = constructions(build_bundle(d))  # before d is marked not thin
    assert constructions(general_bundle(d)) == thin


def right_adjoint_tables(d, thin_limit, order) -> dict:
    """Per family and morphism, incl's or radj's object map and its cones
    as (apex, legs), each limit searched in order and taken by thin_limit
    in a thin category; or the class and message of the first error."""
    def take(c, nodes, edges=(), cap=None, order=None, _order=order):
        search = thin_limit if c.thin else limit
        return search(c, nodes, edges, cap=cap, order=_order)
    with mock.patch.object(codex, "limit", take):
        b = build_bundle(d)
        try:
            return {(family, m): (adj.right.omap, {
                k: (c.apex, c.legs) for k, c in adj.cones.items()})
                for family in ("adjunctions", "right_adjoints")
                for m, adj in getattr(b, family).items()}
        except MattError as e:
            return {"error": (type(e), str(e))}


@pytest.mark.parametrize("order", [None, 0, 1])
@pytest.mark.parametrize("name", list(DIAGRAM_NAMES) + ["nonpreserving"])
def test_incl_and_radj_match_the_reference_limit_on_bundled_diagrams(
        name, order):
    d = load_diagram(diagram_path(name))
    tables = right_adjoint_tables(d, limit, order)
    assert "error" not in tables
    assert right_adjoint_tables(d, _limit_reference, order) == tables


@settings(max_examples=40, deadline=None)
@given(doubled_locale_diagrams(), st.sampled_from([None, 0, 1]))
def test_incl_and_radj_match_the_reference_limit_on_doubled_frames(d, order):
    # isomorphic objects: the apex each search picks among them is pinned
    assert right_adjoint_tables(d, _limit_reference, order) == \
        right_adjoint_tables(d, limit, order)


def constructions(b) -> dict:
    """The tables of every construction on bundle b, or the class and
    message of the first error: per adjunction, its left (reflect or lock)
    and right (incl or radj) functors, unit, counit and cones; each lock
    cell's components; and the dextrified component projections.  Codex
    arrows are compared by_ends."""
    def arrows(cat, table: dict) -> dict:
        cx = codex_of.get(id(cat))
        return table if cx is None else \
            {k: by_ends(cx, n) for k, n in table.items()}

    def functor(f):
        cx = codex_of.get(id(f.src))
        return f.omap, {k if cx is None else by_ends(cx, k): v
                        for k, v in arrows(f.dst, f.amap).items()}

    out = {}
    try:
        codex_of = {id(cx.cat): cx for cx in b.codexes.values()}
        for family in ("adjunctions", "right_adjoints"):
            for m, adj in getattr(b, family).items():
                # incl's cones are in the base categories, radj's in a codex
                cones = adj.cones if family == "adjunctions" else {
                    k: (c.apex, tuple(arrows(adj.right.dst,
                                             dict(c.legs)).items()))
                    for k, c in adj.cones.items()}
                out[family, m] = [functor(adj.left), functor(adj.right),
                                  arrows(adj.left.src, adj.unit),
                                  arrows(adj.right.src, adj.counit), cones]
        for beta in b.diagram.mt.cells:
            n = lock_cell(b, beta)
            out["lock", beta] = arrows(n.dst.dst, n.components)
        for r, f in dextrify_colax(b, *reflect_colax(b)).items():
            out["dextrify", r] = functor(f)
    except MattError as e:
        return {"error": (type(e), str(e))}
    return out


def general_bundle(d, cap=None):
    """build_bundle on the general path: d's categories are marked not thin
    first, and the codexes as soon as they are built."""
    mark_not_thin(d.cats.values())
    b = build_bundle(d, cap)
    mark_not_thin(cx.cat for cx in b.codexes.values())
    return b


def law_suite(d, general=False) -> dict:
    """run_law_suite on the diagram d, on the general path when asked."""
    with mock.patch.object(laws, "load_diagram", lambda path: d), \
            mock.patch.object(laws, "build_bundle",
                              general_bundle if general else build_bundle):
        return run_law_suite(None)


@pytest.mark.parametrize("name", list(DIAGRAM_NAMES) + ["nonpreserving"])
def test_law_suite_matches_the_general_path_on_bundled_diagrams(name):
    path = diagram_path(name)
    assert run_law_suite(path) == law_suite(load_diagram(path), general=True)


@settings(max_examples=30, deadline=None)
@given(frames())
def test_law_suite_matches_the_general_path_on_frames(d):
    assert law_suite(d) == law_suite(d, general=True)


# --- limit preservation from down-set masks, against the cone path ---------

def cone_path(c, functors, cap, order):
    """The reference for first_unpreserved_limit: a limit cone per binary
    and empty diagram, in the same order, and check_preserves_limit per
    functor."""
    diagrams = [{"l": x, "r": y} for x, y in
                itertools.combinations_with_replacement(c.objects, 2)]
    for nodes in diagrams + [{}]:
        cone = limit(c, nodes, [], cap=cap, order=order)
        if cone is not None:
            for f in functors:
                if not check_preserves_limit(f, nodes, [], cone, cap=cap):
                    return f, nodes
    return None


def outcome(search):
    try:
        return search()
    except CapExceeded as e:
        return str(e)


def assert_matches_the_cone_path(c, functors):
    assert c.thin and all(f.dst.thin for f in functors)
    for order in [None, *range(5)]:
        for cap in [None, 0, 1, 2, 3]:
            got = outcome(lambda: first_unpreserved_limit(
                c, functors, cap=cap, order=order))
            assert got == outcome(lambda: cone_path(c, functors, cap, order)), \
                (order, cap)


def inclusion(c, extra, leq, name):
    """The inclusion of a thin c into the preorder leq on its objects and
    one more, extra."""
    t = poset_category(c.objects + [extra], leq, name=name)
    assert t.thin and t.validate() == []
    return FinFunctor(c, t, {o: o for o in c.objects},
                      {n: t.hom(a.src, a.dst)[0] for n, a in c.arrows.items()},
                      name=name)


def drops_the_top(c):
    """Into c under a new top T: keeps every meet, drops c's top."""
    return inclusion(c, "T", lambda u, v: v == "T" or
                     (u != "T" and bool(c.hom(u, v))), "drops-the-top")


def drops_a_meet(c, x, y):
    """Into c with a new B below x and y and not below their meet, when x
    and y are incomparable: B sits above what is below x and y and not
    above either, and below what is above x or y."""
    def leq(u, v):
        if u == v:
            return True
        if u == "B":
            return bool(c.hom(x, v) or c.hom(y, v))
        if v == "B":
            return bool(c.hom(u, x) and c.hom(u, y)) and \
                not (c.hom(x, u) or c.hom(y, u))
        return bool(c.hom(u, v))
    return inclusion(c, "B", leq, "drops-a-meet")


def misroutes(c, u):
    """The identity, except that the arrow u goes to the identity at its
    source: a leg's image with the wrong boundary."""
    amap = {n: n for n in c.arrows}
    amap[u] = c.id_arr(c.arrows[u].src)
    return FinFunctor(c, c, {o: o for o in c.objects}, amap,
                      name="misroutes")


def meets_of_incomparables(c) -> list:
    """The pairs of incomparable objects of a thin c that have a meet."""
    out = []
    for x, y in itertools.combinations(c.objects, 2):
        lower = [o for o in c.objects if c.hom(o, x) and c.hom(o, y)]
        if not (c.hom(x, y) or c.hom(y, x)) and \
                any(all(c.hom(o, m) for o in lower) for m in lower):
            out.append((x, y))
    return out


@st.composite
def thin_functors(draw, c):
    """A list of functors out of a thin c, each thin-valued: some keep
    every limit, drop the top, drop a meet, or map a leg wrongly."""
    fs = [identity_functor(c), drops_the_top(c)]
    if pairs := meets_of_incomparables(c):
        fs.append(drops_a_meet(c, *draw(st.sampled_from(pairs))))
    moved = [n for n, a in c.arrows.items() if a.src != a.dst]
    if moved:
        fs.append(misroutes(c, draw(st.sampled_from(moved))))
    return draw(st.permutations(fs))[:draw(st.integers(1, len(fs)))]


@settings(max_examples=60, deadline=None)
@given(st.one_of(preorders(), locale_diagrams(max_points=3).map(
    lambda d: d.cat("p"))), st.data())
def test_mask_path_matches_the_cone_path(c, data):
    assert_matches_the_cone_path(c, data.draw(thin_functors(c)))


@settings(max_examples=8, deadline=None)
@given(locale_diagrams(max_points=3), st.data())
def test_mask_path_matches_the_cone_path_on_codexes(d, data):
    b = build_bundle(d)
    for p in d.mt.modes:
        cx = b.codexes[p].cat
        into = [m.name for m in d.mt.morphisms.values() if m.dst == p]
        fs = [b.adjunctions[m].left for m in into] + [b.locks[m] for m in into]
        assert_matches_the_cone_path(cx, fs + data.draw(thin_functors(cx)))
