"""Thin diagrams of frames: the codex engine against the general equations.

A finite poset P gives the frame O(P) of its down-sets, a thin category,
and a monotone h: P → Q gives the inverse image h⁻¹: O(Q) → O(P).  Over
single_arrow.mt, C_p = O(Q), C_q = O(P) and C_mu = h⁻¹, so every base
category and every codex is thin.  The thin fast path of `enumerate_codex`
and `codex_right_adjoint` decides no equation; these tests check what it
builds against the equations it skips, and against the general path.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from matt.bundled import theory_path
from matt.codex import (build_bundle, check_oplax_morphism,
                        check_oplax_object, codex_index, enumerate_codex,
                        OplaxObject)
from matt.fincat import Diagram, FinFunctor, poset_category
from matt.laws import LAWS
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

    def inverse(name):
        m = int(name[1:])
        return f"D{sum(1 << x for x in range(np_) if m >> h[x] & 1)}"

    omap = {o: inverse(o) for o in oq.objects}
    amap = {n: op.hom(omap[a.src], omap[a.dst])[0]
            for n, a in oq.arrows.items()}
    d = Diagram(SINGLE_ARROW, {"p": oq, "q": op},
                {"mu": FinFunctor(oq, op, omap, amap, name="mu")}, {})
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
@given(locale_diagrams())
def test_all_laws_pass_on_frames_and_inverse_images(d):
    b = build_bundle(d)
    for name, law in LAWS.items():
        ok, detail = law(d, b, None)
        assert ok, (name, detail)


def mark_not_thin(cats):
    """Make the engine take its general path on cats: decide each equation
    and search each limit among all cones."""
    for c in cats:
        c.thin = False


@settings(max_examples=60, deadline=None)
@given(locale_diagrams())
def test_thin_enumeration_matches_the_general_path(d):
    thin = {r: enumerate_codex(d, r).cat for r in d.mt.modes}
    mark_not_thin(d.cats.values())
    for r, cat in thin.items():
        general = enumerate_codex(d, r).cat
        assert cat.objects == general.objects
        assert list(cat.arrows.items()) == list(general.arrows.items())
        assert cat.compose == general.compose


@settings(max_examples=30, deadline=None)
@given(locale_diagrams(max_points=3))
def test_thin_adjoints_match_the_general_path(d):
    thin = build_bundle(d)
    thin.right_adjoints  # builds every family
    mark_not_thin(d.cats.values())
    general = build_bundle(d)
    mark_not_thin(cx.cat for cx in general.codexes.values())
    for family in ("adjunctions", "right_adjoints"):
        for m, adj in getattr(thin, family).items():
            other = getattr(general, family)[m]
            assert adj.right.omap == other.right.omap
            assert adj.right.amap == other.right.amap
            assert (adj.unit, adj.counit) == (other.unit, other.counit)
