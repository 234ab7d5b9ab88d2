"""Codex categories: enumeration oracles, adjunctions, and dextrification."""

import itertools
import json
from collections import Counter
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import pytest
from comonads import write_comonads
from test_acceptance import _single_arrow_chain
from test_laws import NOT_THIN, fork_diagram, not_thin_diagram

from matt import codex
from matt.bundled import DIAGRAM_NAMES, THEORY_NAMES, diagram_path, theory_path
from matt.codex import (build_bundle, check_oplax_object,
                        check_oplax_morphism, codex_index, comma_shapes,
                        dextrify_colax,
                        enumerate_codex, isomorphic, lock_diagram,
                        lock_functor, mate, psnat_component, reflect,
                        reflect_colax, transpose,
                        verify_2functor, OplaxObject)
from matt.errors import CapExceeded, LimitAbsent, MalformedTable
from matt.fincat import (Cone, Diagram, FinCat, FinFunctor, FinNat,
                         compose_functors, diagram_from_data,
                         identity_functor, load_diagram, poset_category)
from matt.laws import (LAWS, law_lock_strictness, law_universal_property,
                       run_law_suite)
from matt.mode_theory import ModeTheory, load_mode_theory


@lru_cache(maxsize=None)
def diag(name):
    return load_diagram(diagram_path(name))


@lru_cache(maxsize=None)
def bundle(name):
    return build_bundle(diag(name))


# --- enumeration oracles ---------------------------------------------------------

def test_single_arrow_codex_at_q():
    d = diag("single_arrow")
    cx = enumerate_codex(d, "q")
    # components are pairs (x at 1_q, y at mu) with an arrow x -> C_mu(y);
    # C_mu is the identity on the 2-chain, so exactly the pairs x <= y
    pairs = sorted((o.component("id:q"), o.component("mu"))
                   for o in cx.objects)
    assert pairs == [("0", "0"), ("0", "1"), ("1", "1")]


def test_single_arrow_codex_matches_comma_brute_force():
    d = diag("single_arrow")
    cx = enumerate_codex(d, "q")
    cq, cp = d.cat("q"), d.cat("p")
    fmu = d.fun("mu")
    brute = [(x, y, f) for x in cq.objects for y in cp.objects
             for f in cq.hom(x, fmu.omap[y])]
    assert len(cx.objects) == len(brute) == 3


def test_single_arrow_codex_at_p_is_base_category():
    d = diag("single_arrow")
    cx = enumerate_codex(d, "p")
    r = reflect(cx, "id:p")
    assert r.validate() == []
    assert len(cx.objects) == len(d.cat("p").objects)
    assert len(set(r.omap.values())) == len(cx.objects)
    assert len(cx.cat.arrows) == len(d.cat("p").arrows)


def test_comonad_codex_at_p():
    d = diag("comonad")
    cx = enumerate_codex(d, "p")
    pairs = sorted((o.component("id:p"), o.component("m"))
                   for o in cx.objects)
    assert pairs == [("0", "0"), ("0", "2"), ("1", "2"), ("2", "2")]


def test_reflective_codex_at_q():
    d = diag("reflective")
    cx = enumerate_codex(d, "q")
    pairs = sorted((o.component("id:q"), o.component("mu"))
                   for o in cx.objects)
    assert pairs == [("0", "0"), ("1", "1"), ("1", "2")]


def test_semilattice_codex_at_p():
    d = diag("semilattice")
    cx = enumerate_codex(d, "p")
    assert len(cx.objects) == 4


def test_trivial_codex_is_base_category():
    d = diag("trivial")
    cx = enumerate_codex(d, "p")
    assert len(cx.objects) == len(d.cat("p").objects)


@pytest.mark.parametrize("name,mode", [("single_arrow", "q"),
                                       ("comonad", "p"),
                                       ("reflective", "q"),
                                       ("reflective", "p"),
                                       ("semilattice", "p")])
def test_codex_category_is_lawful(name, mode):
    d = diag(name)
    cx = enumerate_codex(d, mode)
    assert cx.cat.validate() == []
    for o in cx.objects:
        assert check_oplax_object(d, o) == []
    for a in cx.cat.arrows:
        assert check_oplax_morphism(cx, a) == []


def test_corrupted_object_rejected():
    d = diag("comonad")
    cx = enumerate_codex(d, "p")
    good = next(o for o in cx.objects
                if o.component("id:p") == "0" and o.component("m") == "2")
    # replace the nonidentity structure map target: breaks the boundary
    bad = OplaxObject("p", good.components,
                      tuple((t, "id:0") for t, _ in good.structure))
    assert check_oplax_object(d, bad) != []


def monoid_comonad():
    """comonad.mt with C_p the monoid {*; e∘e = e}, C_m the identity and
    C_eps the identity: every structure map is id:* or e."""
    mt = load_mode_theory(theory_path("comonad"))
    cp = FinCat(["*"], [("e", "*", "*")], [("e", "e", "e")], name="p")
    d = Diagram(mt, {"p": cp}, {"m": identity_functor(cp)}, {})
    d.nats["eps"] = FinNat(d.fun("m"), d.fun("id:p"), {"*": "id:*"})
    assert d.validate() == []
    return d


def test_coherence_equations_fire():
    # the equations pick out two of the candidate structure maps
    d = monoid_comonad()
    cx = enumerate_codex(d, "p")
    assert (len(cx.objects), len(cx.cat.arrows), cx.cat.thin) == \
        (2, 10, False)
    comps = dict(cx.objects[0].components)
    keys = [k for k, _ in cx.objects[0].structure]
    verdicts = {}
    for pick in itertools.product(["id:*", "e"], repeat=len(keys)):
        o = OplaxObject.of("p", comps, dict(zip(keys, pick)))
        verdicts[o] = check_oplax_object(d, o)
    assert len(verdicts) == 32
    assert {o for o, bad in verdicts.items() if not bad} == set(cx.objects)
    bad = " ".join(v for vs in verdicts.values() for v in vs)
    assert "cocycle fails" in bad and "cell action fails" in bad
    assert "identity decomposition" in bad and "is not the identity" in bad



def test_arrow_on_a_thin_codex_computes_no_components():
    # an inhabited hom-set of a thin codex fixes its arrow
    cx = enumerate_codex(diag("single_arrow"), "q")
    assert cx.thin

    def unread():
        raise AssertionError("components computed for a thin hom-set")

    for name, a in cx.cat.arrows.items():
        assert cx.arrow(a.src, a.dst, unread) == name


def test_arrow_on_an_empty_thin_hom_set_takes_the_general_path():
    cx = enumerate_codex(diag("single_arrow"), "q")
    at = {(o.component("id:q"), o.component("mu")): o for o in cx.objects}
    src, dst = at[("1", "1")], at[("0", "0")]
    assert cx.thin and cx.cat.hom(src, dst) == []
    calls = []

    def comps():
        calls.append(1)
        return {mu: cx.index.cats[mu].id_arr("0") for mu in cx.index.mus}

    with pytest.raises(MalformedTable, match="unknown arrow"):
        cx.arrow(src, dst, comps)
    assert calls == [1]


def test_arrow_on_a_general_codex_is_named_by_its_components():
    # parallel arrows differ, so arrow must not take the first of a hom-set
    cx = enumerate_codex(monoid_comonad(), "p")
    assert not cx.thin
    for name, a in cx.cat.arrows.items():
        assert cx.arrow(a.src, a.dst, lambda: cx.theta(name)) == name

def test_mode_theory_arithmetic_is_independent_of_the_codex_size(
        monkeypatch):
    # compose, vcomp, wl and wr run once per mode or per lock, never per
    # codex object, arrow or candidate structure map
    calls = []

    def counting(fn):
        def counted(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return counted

    for op in ("compose", "vcomp", "wl", "wr"):
        monkeypatch.setattr(ModeTheory, op, counting(getattr(ModeTheory, op)))
    counts = []
    for n in (3, 5):
        d = _single_arrow_chain(n)
        calls.clear()
        b = build_bundle(d)
        assert all(law(d, b, None)[0] for law in LAWS.values())
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 50


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_codex(diag("reflective"), "q", cap=1)


# --- the family search against the product filter --------------------------------

def _families_reference(ix):
    """The families of components with every structure-map hom-set
    inhabited, as the product filter found them: every family of
    itertools.product, each tested decomposition by decomposition."""
    for combo in itertools.product(*(ix.cats[mu].objects for mu in ix.mus)):
        comps = dict(zip(ix.mus, combo))
        if all(t.identity or t.cat.hom(comps[t.nu], t.fun.omap[comps[t.mu]])
               for t in ix.decomps):
            yield combo


def assert_families_match_the_reference(d):
    """_families against _families_reference at every mode, in order, and
    the codex enumerated from each: objects in order, arrows with their
    ends, and composites.  tests/test_thin.py holds the frames to it."""
    for r in d.mt.modes:
        ix = codex_index(d, r)
        assert list(codex._families(ix)) == list(_families_reference(ix)), r
        cx = enumerate_codex(d, r)
        with mock.patch.object(codex, "_families", _families_reference):
            ref = enumerate_codex(d, r)
        assert cx.objects == ref.objects, r
        assert [(o.components, o.structure) for o in cx.objects] == \
            [(o.components, o.structure) for o in ref.objects], r
        assert cx.cat.arrows == ref.cat.arrows, r
        assert cx.cat.thin == ref.cat.thin, r
        if not cx.cat.thin:
            assert cx.cat.compose == ref.cat.compose, r


@pytest.mark.parametrize("name", [*NOT_THIN, "fork"])
def test_families_match_the_reference_on_categories_that_are_not_thin(
        tmp_path, name):
    path = fork_diagram(tmp_path) if name == "fork" else \
        not_thin_diagram(tmp_path, name)
    assert_families_match_the_reference(load_diagram(path))


@pytest.mark.parametrize("k,n", [(1, 1), (1, 4), (2, 3), (2, 5), (3, 3)])
def test_families_match_the_reference_on_commuting_comonads(tmp_path, k, n):
    d = load_diagram(write_comonads(tmp_path, k, n))
    assert d.validate() == []
    assert_families_match_the_reference(d)


def test_an_image_outside_the_category_has_an_empty_hom_set():
    # a diagram built in code is not validated: mu sends 1 outside C_q,
    # and no family takes 1 as its mu-component
    d = _single_arrow_chain(2)
    mu = d.fun("mu")
    d.functors["mu"] = FinFunctor(mu.src, mu.dst, {"0": "0", "1": "9"},
                                  mu.amap, name="mu")
    ix = codex_index(d, "q")
    assert list(codex._families(ix)) == list(_families_reference(ix)) == \
        [("0", "0")]


def test_the_family_search_costs_what_its_answer_costs(tmp_path,
                                                        monkeypatch):
    # k=3 over a chain of 5: a product of 5^8 = 390 625 families and 30
    # codex objects.  Over thin bases each object reads one arrow per
    # structure map and no hom list; the cap still bounds the component
    # product.
    d = load_diagram(write_comonads(tmp_path, 3, 5))
    calls = Counter()
    for name in ("hom", "one_arrow"):
        def counted(self, x, y, fn=getattr(FinCat, name), name=name):
            calls[name] += 1
            return fn(self, x, y)
        monkeypatch.setattr(FinCat, name, counted)
    cx = enumerate_codex(d, "p", cap=390625)
    assert (len(cx.objects), cx.cat.thin) == (30, True)
    assert calls == {"one_arrow": 30 * len(cx.index.decomps)}
    with pytest.raises(CapExceeded, match="component search size 390625 "
                       "exceeds cap 390624"):
        enumerate_codex(d, "p", cap=390624)


def test_coherence_rows_are_built_only_where_an_equation_reads_them(
        tmp_path, monkeypatch):
    built = []
    rows = codex._coherence_rows
    monkeypatch.setattr(codex, "_coherence_rows",
                        lambda d, decomps: built.append(d) or rows(d, decomps))
    for name in DIAGRAM_NAMES:  # every base category is thin
        results = run_law_suite(diagram_path(name))
        assert results and built == [], name
    results = run_law_suite(not_thin_diagram(tmp_path, "reflective-monoid"))
    assert results and built
    ix = codex_index(monoid_comonad(), "p")
    assert not hasattr(ix, "_rows")
    assert ix.cocycles is ix.cocycles and ix.actions


# --- lock, reflect, incl ---------------------------------------------------------

def test_lock_strictness_reflective():
    report = verify_2functor(bundle("reflective"))
    assert all(ok for _, ok, _ in report), \
        [(n, det) for n, ok, det in report if not ok]


def monoid_reflective():
    """reflective.mt with both categories the monoid {*; e∘e = e}, mu, nu
    and numu the identity and eta the identity cell (NOT_THIN in
    test_laws)."""
    theory, data, _ = NOT_THIN["reflective-monoid"]
    return diagram_from_data(load_mode_theory(theory_path(theory)), data)


def natural_replacements(nat):
    """The natural transformations parallel to nat, other than nat."""
    cat, objs = nat.dst.dst, nat.src.src.objects
    out = []
    for pick in itertools.product(*(cat.hom(nat.src.omap[o], nat.dst.omap[o])
                                    for o in objs)):
        alt = FinNat(nat.src, nat.dst, dict(zip(objs, pick)))
        if alt.components != nat.components and alt.validate() == []:
            out.append(alt)
    return out


def test_locks_form_a_strict_2functor_on_a_codex_that_is_not_thin():
    # monoid_comonad's incl(id:p) has no limit, and the locks need none
    b = build_bundle(monoid_comonad())
    assert not b.codexes["p"].cat.thin
    assert lock_diagram(b).strictness() == []
    assert b.lock_rows == [("lock-2functor", True, "")]
    assert "adjunctions" not in vars(b)


# Each listed cell has exactly one natural replacement, and strictness
# refuses it with these rows, in order.  Over the comonad monoid, lock(eps):
# lock(id:p) => lock(m) breaks eps▷m = id:m and m◁eps = id:m, whose rows
# mirror each other.  Over the reflective monoid, lock(eta) breaks the two
# whiskers of eta on each side, which tell apart the two orders of the swap
# in `opposite`: eta▷nu in M is read nu◁eta in M^coop.  Every replaced
# identity cell is not the identity.
NATURAL_LOCK_CELLS = [
    (monoid_comonad, "eps", ["C_(m◁eps) differs at ",
                             "C_(eps▷m) differs at "]),
    (monoid_comonad, "id:m", ["C_id:m is not the identity"]),
    (monoid_reflective, "eta", [f"C_({w}) differs at " for w in [
        "nu◁eta", "numu◁eta", "eta▷mu", "eta▷numu"]]),
    *[(monoid_reflective, cell, [f"C_{cell} is not the identity"])
      for cell in ["id:mu", "id:nu", "id:numu", "id:id:p", "id:id:q"]],
]


@pytest.mark.parametrize("diagram, cell, rows", NATURAL_LOCK_CELLS,
                         ids=[f"{c}-{rows[0]}"
                              for _, c, rows in NATURAL_LOCK_CELLS])
def test_lock_strictness_rejects_a_natural_lock_cell(monkeypatch, diagram,
                                                      cell, rows):
    b = build_bundle(diagram())
    ld = lock_diagram(b)
    [alt] = natural_replacements(ld.nat(cell))
    ld.nats[cell] = alt
    assert [next(r for r in rows if v.startswith(r))
            for v in ld.strictness()] == rows
    monkeypatch.setattr("matt.codex.lock_diagram", lambda bundle: ld)
    ok, detail = law_lock_strictness(b.diagram, b, None)
    assert not ok and detail.startswith("lock-2functor: " + rows[0])
    assert detail.endswith(" (◁, ▷ and ∘ read in M^coop)")


def test_lock_functor_validates():
    b = bundle("comonad")
    f = lock_functor(b.codexes["p"], b.codexes["p"], "m")
    assert f.validate() == []


@pytest.mark.parametrize("name", ["reflective", "comonad", "semilattice"])
def test_locks_built_once_per_morphism(monkeypatch, name):
    calls = []

    def counting(*args):
        calls.append(args[2])
        return lock_functor(*args)

    monkeypatch.setattr("matt.codex.lock_functor", counting)
    d = diag(name)
    b = build_bundle(d)
    b.locks
    assert sorted(calls) == sorted(d.mt.morphisms)
    calls.clear()
    assert all(ok for _, ok, _ in verify_2functor(b))
    assert law_universal_property(d, b, None) == (True, "")
    assert calls == []


@pytest.mark.parametrize("name", ["single_arrow", "comonad", "reflective",
                                  "semilattice"])
def test_constructions_return_enumerated_instances(name):
    b = bundle(name)
    mt = b.diagram.mt
    g, gamma = reflect_colax(b)
    functors = list(b.locks.values())
    functors += [b.adjunctions[m].right for m in mt.morphisms]
    functors += [b.right_adjoints[m].right for m in mt.morphisms]
    functors += list(dextrify_colax(b, g, gamma).values())
    codex_of = {id(cx.cat): cx for cx in b.codexes.values()}
    for cx in b.codexes.values():  # composites, too, are the codex's own
        out_of = cx.cat.out_of()
        for f in cx.cat.arrows.values():
            tf = cx.theta(f.name)
            for g in out_of[f.dst]:
                h = cx.cat.arr(cx.cat.comp(g.name, f.name))
                assert cx.cat.arrows[h.name].name is h.name
                # and componentwise: an arrow is fixed by its ends and theta
                tg = cx.theta(g.name)
                assert (h.src, h.dst) == (f.src, g.dst)
                assert cx.theta(h.name) == {
                    mu: cx.index.cats[mu].comp(tg[mu], tf[mu]) for mu in tf}
    for f in functors:
        cx = codex_of[id(f.dst)]
        own = {id(o) for o in cx.objects}
        assert all(id(o) in own for o in f.omap.values()), f.name
        assert all(cx.cat.arrows[n].name is n for n in f.amap.values()), \
            f.name


def test_reflect_projects_component():
    b = bundle("single_arrow")
    cx = b.codexes["q"]
    r = reflect(cx, "mu")
    for o in cx.objects:
        assert r.omap[o] == o.component("mu")


@pytest.mark.parametrize("name", ["trivial", "single_arrow", "comonad",
                                  "semilattice", "reflective",
                                  "nonpreserving"])
def test_adjunction_triangles(name):
    d = diag(name)
    b = bundle(name)
    mt = d.mt
    for m, adj in b.adjunctions.items():
        cr = d.cat(mt.mor(m).src)
        cx = b.codexes[mt.mor(m).dst]
        unit = FinNat(identity_functor(cx.cat),
                      compose_functors(adj.right, adj.left), adj.unit)
        counit = FinNat(compose_functors(adj.left, adj.right),
                        identity_functor(cr), adj.counit)
        assert adj.right.validate() == []
        assert unit.validate() == []
        assert counit.validate() == []
        for delta in cx.objects:
            g = delta.component(m)
            lhs = cr.comp(adj.counit[g],
                          adj.left.amap[adj.unit[delta]])
            assert lhs == cr.id_arr(g), (m, delta)
        for g in cr.objects:
            x = adj.right.omap[g]
            lhs = cx.cat.comp(adj.right.amap[adj.counit[g]],
                              adj.unit[x])
            assert lhs == cx.cat.id_arr(x), (m, g)


def test_adjunction_hom_bijection():
    d = diag("reflective")
    b = bundle("reflective")
    mt = d.mt
    for m, adj in b.adjunctions.items():
        cr = d.cat(mt.mor(m).src)
        cx = b.codexes[mt.mor(m).dst]
        for delta in cx.objects:
            for g in cr.objects:
                below = cr.hom(delta.component(m), g)
                above = cx.cat.hom(delta, adj.right.omap[g])
                images = {transpose(adj, delta, f) for f in below}
                assert images == set(above), (m, delta, g)


def test_incl_along_identity_is_fully_faithful():
    for name in ["single_arrow", "comonad", "reflective"]:
        d = diag(name)
        b = bundle(name)
        for p in d.mt.modes:
            adj = b.adjunctions[d.mt.id_mor(p)]
            cp = d.cat(p)
            for g in cp.objects:
                eps = adj.counit[g]
                a = cp.arr(eps)
                assert any(cp.comp(h, eps) == cp.id_arr(a.src) and
                           cp.comp(eps, h) == cp.id_arr(a.dst)
                           for h in cp.hom(a.dst, a.src)), (name, p, g)


def test_limit_absent_when_component_has_no_limit():
    # discrete C_p has no terminal object, so the empty comma at id:q
    # leaves incl(id:q) without a limit to take
    mt = load_mode_theory(theory_path("single_arrow"))
    cp = FinCat(["a", "b"], [], [], name="discrete")
    cq = poset_category(["0", "1"], lambda x, y: x <= y, name="chain")
    fmu = FinFunctor(cp, cq, {"a": "0", "b": "1"}, {})
    d = Diagram(mt, {"p": cp, "q": cq}, {"mu": fmu}, {})
    assert d.validate() == []
    from matt.codex import enumerate_codex, incl
    cx = enumerate_codex(d, "q")
    with pytest.raises(LimitAbsent):
        incl(cx, "id:q")


# --- incl's comma categories ----------------------------------------------------

def name_diagram(mt):
    """A stand-in diagram whose categories, functors and natural
    transformations are the names of their modes, morphisms and cells: enough
    to read an index."""
    return SimpleNamespace(mt=mt, cat=lambda p: p, fun=lambda m: m,
                           nat=lambda c: c)


def theory_shapes(name, s, pi):
    mt = load_mode_theory(theory_path(name))
    return comma_shapes(mt, codex_index(name_diagram(mt), s), pi)


def comma_oracle(mt, pi, nu):
    """pi down nu enumerated from the mode theory's records: the objects
    (sigma, beta: pi => nu.sigma), sorted by name, and the arrows
    (src, dst, gamma) by a cell gamma: sigma => sigma' with
    (nu < gamma).beta = beta', less the identities."""
    def by_name(rows):
        return sorted(rows, key=lambda x: x.name)
    r, p = mt.mor(pi).src, mt.mor(nu).src
    objs = [(sigma.name, beta.name)
            for sigma in by_name(mt.morphisms.values())
            if (sigma.src, sigma.dst) == (r, p)
            for beta in by_name(mt.cells.values())
            if beta.src == pi and beta.dst == mt.compose(nu, sigma.name)]
    arrows = [(o1, o2, gamma.name) for o1 in objs for o2 in objs
              for gamma in mt.cells.values()
              if (gamma.src, gamma.dst) == (o1[0], o2[0])
              and mt.vcomp(mt.wl(nu, gamma.name), o1[1]) == o2[1]
              and not (mt.is_id_cell(gamma.name) and o1 == o2)]
    return objs, arrows


@pytest.mark.parametrize("name", THEORY_NAMES)
def test_comma_shapes_match_the_mode_theory_oracle(name):
    mt = load_mode_theory(theory_path(name))
    for s in mt.modes:
        ix = codex_index(name_diagram(mt), s)
        into = [m.name for m in mt.morphisms_into(s)]
        for pi in into:
            nodes, edges, legs = comma_shapes(mt, ix, pi)
            comma = {nu: comma_oracle(mt, pi, nu) for nu in into}
            for nu, (objs, arrows) in comma.items():
                assert nodes[nu] == [((nu,) + o, o[0]) for o in objs]
                assert Counter(edges[nu]) == Counter(
                    ((nu,) + a, (nu,) + b, g) for a, b, g in arrows)
            # alpha: mu => nu.rho sends (sigma, beta) of pi down mu to
            # (rho.sigma, (alpha > sigma).beta) of pi down nu
            want = {}
            for nu in into:
                for rho in mt.morphisms.values():
                    if rho.dst != mt.mor(nu).src:
                        continue
                    for alpha in mt.cells.values():
                        if alpha.dst == mt.compose(nu, rho.name):
                            want[(nu, rho.name, alpha.name)] = [
                                ((alpha.src,) + o,
                                 (nu, mt.compose(rho.name, o[0]),
                                  mt.vcomp(mt.wr(alpha.name, o[0]), o[1])))
                                for o in comma[alpha.src][0]]
            assert legs == want, (s, pi)


@pytest.mark.parametrize("name", DIAGRAM_NAMES + ("nonpreserving",))
def test_incl_cones_are_over_the_comma_oracle(name):
    d, b = diag(name), bundle(name)
    for pi, adj in b.adjunctions.items():
        for (g, nu), cone in adj.cones.items():
            objs, _ = comma_oracle(d.mt, pi, nu)
            assert [k for k, _ in cone.legs] == sorted(
                ((nu,) + o for o in objs), key=repr), (pi, g, nu)


def primed_reflective(tmp_path):
    """reflective.dg with its morphism numu renamed numu'.  repr quotes a
    name that holds ' with double quotes, so of the node keys
    ('id:p', 'id:p', 'id:id:p') and ('id:p', "numu'", 'eta') the first
    sorts first by name and the second by repr."""
    primed = theory_path("reflective").read_text(encoding="utf-8")
    (tmp_path / "reflective.mt").write_text(primed.replace("numu", "numu'"),
                                            encoding="utf-8")
    data = json.loads(diagram_path("reflective").read_text(
        encoding="utf-8").replace("numu", "numu'"))
    path = tmp_path / "reflective.dg"
    path.write_text(json.dumps({**data, "mode_theory": "reflective.mt"}),
                    encoding="utf-8")
    return path


def test_cones_list_their_legs_in_the_repr_order_of_their_keys(tmp_path):
    # limit lists the legs in the order of its nodes, and incl and radj
    # pass their nodes in the repr order of the keys
    path = primed_reflective(tmp_path)
    b = build_bundle(load_diagram(path))
    apart = 0
    for family in ("adjunctions", "right_adjoints"):
        for pi, adj in getattr(b, family).items():
            for at, cone in adj.cones.items():
                keys = [k for k, _ in cone.legs]
                assert keys == sorted(keys, key=repr), (family, pi, at)
                apart += keys != sorted(keys)
    assert apart  # the two orders differ on some cone
    assert all(ok for ok, _ in run_law_suite(path).values())


def test_comma_single_arrow():
    nodes, _, _ = theory_shapes("single_arrow", "q", "id:q")
    assert nodes["mu"] == []  # sigma: q -> p: none exist
    assert nodes["id:q"] == [(("id:q", "id:q", "id:id:q"), "id:q")]
    nodes, _, _ = theory_shapes("single_arrow", "q", "mu")
    # sigma: p -> q: only mu, beta: mu => mu
    assert [k[1:] for k, _ in nodes["id:q"]] == [("mu", "id:mu")]


def test_comma_reflective():
    # numu down id:p: pairs (sigma: p -> p, beta: numu => sigma)
    nodes, _, _ = theory_shapes("reflective", "p", "numu")
    assert ("id:p", "numu", "id:numu") in [k for k, _ in nodes["id:p"]]
    # the identity comma contains (1, 1), and it is initial when pi = 1:
    # one cell action, the identity's included, from it to each object
    mt = load_mode_theory(theory_path("reflective"))
    ix = codex_index(name_diagram(mt), "p")
    base = ("id:p", "id:p", "id:id:p")
    objs = [k for k, _ in comma_shapes(mt, ix, "id:p")[0]["id:p"]]
    assert base in objs
    for o in objs:
        assert sum(k == base and k3 == o
                   for k, _, _, _, k3, _ in ix.actions) == 1, o


def test_comma_arrows_compose_by_cells():
    # a down id:p: pairs (sigma: p -> p, beta: a => sigma)
    nodes, edges, _ = theory_shapes("semilattice", "p", "a")
    assert {k[1:] for k, _ in nodes["id:p"]} == {("a", "id:a"),
                                                 ("id:p", "le")}
    assert edges["id:p"] == [(("id:p", "a", "id:a"), ("id:p", "id:p", "le"),
                              "le")]


# --- mates and the right adjoint of the lock ------------------------------------

def test_mate_is_natural():
    d = diag("reflective")
    b = bundle("reflective")
    # eta: id:p => nu . mu, so the mate goes incl(id:p) => incl(nu) . C_mu
    cx = b.codexes["p"]
    nat = mate(cx, b.adjunctions["id:p"], b.adjunctions["nu"], "mu", "eta")
    assert nat.validate() == []


@pytest.mark.parametrize("name", ["single_arrow", "comonad", "semilattice",
                                  "reflective"])
def test_radj_triangles(name):
    d = diag(name)
    b = bundle(name)
    mt = d.mt
    for m, ra in b.right_adjoints.items():
        cxr = b.codexes[mt.mor(m).src]
        cxs = b.codexes[mt.mor(m).dst]
        assert ra.right.validate() == []
        for delta in cxr.objects:
            x = ra.right.omap[delta]
            lhs = cxs.cat.comp(ra.right.amap[ra.counit[delta]],
                               ra.unit[x])
            assert lhs == cxs.cat.id_arr(x), (m, delta)
        for gamma in cxs.objects:
            x = ra.left.omap[gamma]
            lhs = cxr.cat.comp(ra.counit[x], ra.left.amap[ra.unit[gamma]])
            assert lhs == cxr.cat.id_arr(x), (m, gamma)


def test_radj_without_an_arrow_between_the_images_has_no_image(monkeypatch):
    """Over the thin codexes of the reflective diagram, limit is patched so
    that radj(mu) sends the target of an arrow d1 -> d2 to a cone on the
    same nodes, but with its apex strictly below the image of d1: no arrow
    runs between the images, so the arrow has none."""
    b = build_bundle(diag("reflective"))
    m = b.diagram.mt.mor("mu")
    cx_r, cx_s = b.codexes[m.src], b.codexes[m.dst]
    right = b.right_adjoints["mu"].right
    cs = cx_s.cat
    assert cs.thin
    low, high = next(
        (lo, right.omap[a.dst]) for a in cx_r.cat.arrows.values()
        for lo in cs.objects
        if cs.hom(right.omap[a.src], right.omap[a.dst]) and
        not cs.hom(right.omap[a.dst], right.omap[a.src]) and
        cs.hom(lo, right.omap[a.src]) and not cs.hom(right.omap[a.src], lo))
    real_limit = codex.limit

    def lowered(c, nodes, edges=(), cap=None, order=None):
        cone = real_limit(c, nodes, edges, cap=cap, order=order)
        if c is not cs or cone.apex != high:
            return cone
        return Cone(low, tuple((k, cs.one_arrow(low, nodes[k]))
                               for k, _ in cone.legs))

    monkeypatch.setattr(codex, "limit", lowered)
    with pytest.raises(LimitAbsent) as e:
        codex.codex_right_adjoint(cx_r, cx_s, "mu", b.locks["mu"],
                                  b.adjunctions)
    assert str(e.value) == ("codex_right_adjoint(mu): image of an arrow has "
                            "0 factorizations")


@pytest.mark.parametrize("name", ["single_arrow", "comonad", "reflective"])
def test_psnat_components_are_iso(name):
    d = diag(name)
    b = bundle(name)
    for m in d.mt.morphisms.values():
        cq = d.cat(m.dst)
        for delta in b.codexes[m.src].objects:
            phi = psnat_component(b, m.name, delta)
            a = cq.arr(phi)
            assert any(cq.comp(h, phi) == cq.id_arr(a.src) and
                       cq.comp(phi, h) == cq.id_arr(a.dst)
                       for h in cq.hom(a.dst, a.src)), (m.name, delta)


# --- dextrification --------------------------------------------------------------

@pytest.mark.parametrize("name", ["single_arrow", "comonad"])
def test_dextrify_round_trip(name):
    d = diag(name)
    b = bundle(name)
    mt = d.mt
    g, gamma = reflect_colax(b)
    ghat = dextrify_colax(b, g, gamma)
    for r in mt.modes:
        cx = b.codexes[r]
        assert ghat[r].validate() == []
        for obj in cx.objects:
            im = ghat[r].omap[obj]
            # the identity component comes back on the nose
            assert im.component(mt.id_mor(r)) == g[r].omap[obj]
            # the whole object comes back up to isomorphism
            assert isomorphic(cx.cat, im, obj), (r, obj)


def test_dextrify_missing_cell_raises():
    from matt.errors import NotColax
    b = bundle("single_arrow")
    g, gamma = reflect_colax(b)
    gamma = {m: {} for m in gamma}  # strip all comparison cells
    with pytest.raises(NotColax):
        dextrify_colax(b, g, gamma)


def test_enumeration_is_order_independent():
    # rebuilding from a reloaded diagram yields the same objects
    d1 = load_diagram(diagram_path("reflective"))
    d2 = load_diagram(diagram_path("reflective"))
    a = enumerate_codex(d1, "q")
    bq = enumerate_codex(d2, "q")
    assert [(o.components, o.structure) for o in a.objects] == \
           [(o.components, o.structure) for o in bq.objects]


def test_oplax_object_hash_is_structural():
    d = diag("comonad")
    for o in enumerate_codex(d, "p").objects:
        via_of = OplaxObject.of("p", dict(o.components), dict(o.structure))
        direct = OplaxObject("p", tuple([*o.components]),
                             tuple([*o.structure]))
        assert via_of == direct == o
        assert hash(via_of) == hash(direct) == hash(o)
    # arrow names key the same arrow, between equal codex objects, across
    # a second enumeration of a reloaded diagram
    for name in ["comonad", "reflective"]:
        cx1 = enumerate_codex(load_diagram(diagram_path(name)), "p")
        cx2 = enumerate_codex(load_diagram(diagram_path(name)), "p")
        assert len(cx1.cat.arrows) == len(cx2.cat.arrows)
        for n, a in cx2.cat.arrows.items():
            assert cx1.cat.arrows[n] == a
            assert cx1.cat.hom(a.src, a.dst) == cx2.cat.hom(a.src, a.dst)
