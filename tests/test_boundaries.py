"""Validation decided by boundaries, against the full loops it skips.

On a locally posetal mode theory with no violation found before them,
`validate_mode_theory` does not run the vcompose category laws or
`_check_two_category`; on a diagram whose categories validate clean,
`Diagram.validate` decides the equations into thin categories by the
boundaries it has checked.  The full loops stay callable: a theory with
`_decided_by_boundaries` answering False, and a diagram with every category's
thin flag forced False, as test_thin's mark_not_thin does, take them.
Each mutant of a bundled theory or diagram must be reported as the full
loops report it, and the bundled inputs must never enter those loops.

The same holds on thin codexes: `Diagram.strictness` presumes that the
codexes are categories, as they are enumerated, and decides the lock
diagram by boundaries once it has checked that every lock functor lands, `is_iso` and `isomorphic` read a thin category's hom-sets,
and the hom bijection of an adjunction into a thin category compares
hom-sets for emptiness once every transpose lands.  Each is held to its
full loops on mutants, and categories that are not thin still enter them.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_laws import IDEMPOTENT, Z2
from test_mode_theory import (COMPOSE_NOT_ASSOCIATIVE, INTERCHANGE,
                              WHISKER_COMPOSE, WHISKER_FUNCTORIAL,
                              WHISKER_SQUARES)
from test_thin import frames, locale_diagrams

from matt import laws, mode_theory
from matt.bundled import DIAGRAM_NAMES, THEORY_NAMES, diagram_path, theory_path
from matt.errors import MalformedTable, NotComposable
from matt.codex import build_bundle, lock_diagram, verify_2functor
from matt.fincat import (Diagram, FinFunctor, diagram_from_data,
                         fincat_from_data, is_iso, isomorphic, load_diagram)
from matt.mode_theory import (Cell, load_mode_theory, mode_theory_from_data,
                              validate_mode_theory)

DIAGRAMS = list(DIAGRAM_NAMES) + ["nonpreserving"]


def outcome(check):
    """What check returns, or the class and text of what it raises."""
    try:
        return check()
    except (MalformedTable, NotComposable) as e:
        return type(e), str(e)


def sorted_keys(table) -> list:
    return sorted(table, key=repr)


# --- mode theories -------------------------------------------------------------

@st.composite
def mutated_theories(draw):
    """A bundled theory with one change to its loaded tables: the result of
    one vcompose or whisker row replaced by any cell, a cell c' added
    parallel to a cell c it has, or one row of any table dropped.  c' is
    either in no row, so the tables are not total, or a twin of c: each row
    naming c gains copies naming c' in its place, with c' for c in the
    result as well when asked."""
    mt = load_mode_theory(theory_path(draw(st.sampled_from(THEORY_NAMES))))
    cells = sorted(mt.cells)
    kind = draw(st.sampled_from(["replace", "parallel", "drop"]))
    if kind == "replace":
        table = draw(st.sampled_from(
            [mt.vcompose_table, mt.wl_table, mt.wr_table]))
        table[draw(st.sampled_from(sorted_keys(table)))] = \
            draw(st.sampled_from(cells))
    elif kind == "parallel":
        c = draw(st.sampled_from(cells))
        mt.cells["c'"] = Cell("c'", mt.cells[c].src, mt.cells[c].dst)
        if draw(st.booleans()):
            rename_result = draw(st.booleans())

            def twin(x):
                return "c'" if x == c else x
            for table in (mt.vcompose_table, mt.wl_table, mt.wr_table):
                for (x, y), z in list(table.items()):
                    for key in {(twin(x), y), (x, twin(y)),
                                (twin(x), twin(y))} - {(x, y)}:
                        table[key] = twin(z) if rename_result else z
    else:
        table = draw(st.sampled_from(
            [mt.compose_table, mt.vcompose_table, mt.wl_table, mt.wr_table]))
        del table[draw(st.sampled_from(sorted_keys(table)))]
    return mt


def full_loops(mt):
    """validate_mode_theory's outcome with its loops run in full."""
    with mock.patch.object(mode_theory, "_decided_by_boundaries",
                           lambda mt: False):
        return outcome(lambda: validate_mode_theory(mt).violations)


@settings(max_examples=300, deadline=None)
@given(mutated_theories())
def test_theory_shortcut_reports_what_the_full_loops_do(mt):
    assert outcome(lambda: validate_mode_theory(mt).violations) == \
        full_loops(mt)


HAND_MADE = {"compose-associative": COMPOSE_NOT_ASSOCIATIVE,
             "interchange": INTERCHANGE, **WHISKER_COMPOSE,
             **WHISKER_FUNCTORIAL,
             **{axiom: data for axiom, (data, _) in WHISKER_SQUARES.items()}}


@pytest.mark.parametrize("axiom", list(HAND_MADE))
def test_theory_shortcut_on_the_hand_made_mutants(axiom):
    """test_mode_theory's theories that break the 2-category axioms; the
    first is locally posetal, and only its compose violations keep its
    broken whiskering from being decided by boundaries."""
    mt = mode_theory_from_data(HAND_MADE[axiom])
    got = outcome(lambda: validate_mode_theory(mt).violations)
    assert got == full_loops(mt)
    assert axiom in {v.axiom for v in got}


@pytest.mark.parametrize("name", THEORY_NAMES)
def test_bundled_theories_are_decided_by_boundaries(name):
    mt = load_mode_theory(theory_path(name))
    assert mode_theory._decided_by_boundaries(mt)
    assert full_loops(mt) == ()


# --- diagrams ------------------------------------------------------------------

def mutate_diagram(d, draw, kinds=("object", "arrow", "component",
                                    "composite")):
    """d with one image in a functor's object or arrow map, one component
    of a natural transformation, or one composite in a category's table,
    replaced by any object or arrow of its category."""
    kind = draw(st.sampled_from(kinds))
    if kind == "composite":
        c = d.cats[draw(st.sampled_from(sorted(d.cats)))]
        c.compose[draw(st.sampled_from(sorted_keys(c.compose)))] = \
            draw(st.sampled_from(list(c.arrows)))
        return
    if kind == "component":
        n = d.nats[draw(st.sampled_from(sorted(d.nats)))]
        o = draw(st.sampled_from(n.src.src.objects))
        n.components[o] = draw(st.sampled_from(list(n.dst.dst.arrows)))
        return
    f = d.functors[draw(st.sampled_from(sorted(d.functors)))]
    if kind == "object":
        o = draw(st.sampled_from(f.src.objects))
        f.omap[o] = draw(st.sampled_from(f.dst.objects))
    else:
        a = draw(st.sampled_from(list(f.src.arrows)))
        f.amap[a] = draw(st.sampled_from(list(f.dst.arrows)))


def with_thin_forced_false(cats, check):
    """The outcome of check with the thin flag of each of cats forced
    False, as test_thin's mark_not_thin does."""
    thin = [c for c in cats if c.thin]
    for c in thin:
        c.thin = False
    try:
        return outcome(check)
    finally:
        for c in thin:
            c.thin = True


def same_as_full_loops(d, check=None):
    """The outcome of check, d.validate by default, after asserting that it
    is the same with every category's thin flag forced False."""
    check = check or d.validate
    got = outcome(check)
    assert with_thin_forced_false(d.cats.values(), check) == got
    return got


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DIAGRAMS), st.data())
def test_bundled_diagram_shortcut_reports_what_the_full_loops_do(name,
                                                                  data):
    d = load_diagram(diagram_path(name))
    mutate_diagram(d, data.draw)
    same_as_full_loops(d)


@settings(max_examples=150, deadline=None)
@given(locale_diagrams(), st.data())
def test_locale_diagram_shortcut_reports_what_the_full_loops_do(d, data):
    mutate_diagram(d, data.draw)
    same_as_full_loops(d)


@pytest.mark.parametrize("name", DIAGRAMS)
def test_bundled_diagrams_validate_through_the_full_loops(name):
    assert same_as_full_loops(load_diagram(diagram_path(name))) == []


def lock_diagrams():
    """The lock diagrams of the bundled diagrams and of thin frames."""
    return st.one_of(st.sampled_from(DIAGRAMS).map(
        lambda name: load_diagram(diagram_path(name))), frames()).map(
        lambda d: lock_diagram(build_bundle(d)))


@st.composite
def mutated_lock_diagrams(draw):
    """A lock diagram with one lock functor's object or arrow image or one
    lock cell's component replaced."""
    ld = draw(lock_diagrams())
    mutate_diagram(ld, draw, ("object", "arrow", "component"))
    return ld


def reflective_lock_diagram_off_its_ends(mor, image):
    """The reflective diagram's lock diagram with lock(mor) sending the
    arrow (0, 1) to image, which does not land.  lock(mu) is a factor of
    composites, so only their arrow maps tell (0, 2) apart; lock(numu) is
    also an end of lock(eta), whose square at (0, 1) then fails."""
    ld = lock_diagram(build_bundle(load_diagram(diagram_path("reflective"))))
    f = ld.functors[mor]
    f.amap[(0, 1)] = image
    assert not f.lands_all(f.image_positions())
    return ld


@settings(max_examples=200, deadline=None)
@example(reflective_lock_diagram_off_its_ends("mu", (0, 2)))
@example(reflective_lock_diagram_off_its_ends("numu", (1, 1)))
@given(mutated_lock_diagrams())
def test_lock_strictness_keeps_its_loops_on_thin_codexes(ld):
    """Strictness of a mutated lock diagram whose codexes are thin, which
    it presumes are categories, as they are: it keeps the loops until
    every lock functor lands, and then reports what they do."""
    same_as_full_loops(ld, ld.strictness)


def test_a_functor_into_a_category_that_is_not_thin_is_checked():
    """mu: e ↦ s from the idempotent monoid into Z/2 lands every arrow, but
    sends e∘e = e to s and e to s∘s = id:*."""
    cats = {"p": IDEMPOTENT, "q": Z2}
    d = diagram_from_data(load_mode_theory(theory_path("single_arrow")), {
        "categories": cats,
        "functors": {"mu": {"objects": {"*": "*"}, "arrows": {"e": "s"}}}})
    assert not d.cat("q").thin
    assert d.validate() == ["C_mu: composition not preserved at e∘e"]


def test_a_functor_out_of_a_category_not_found_lawful_is_checked():
    """Into the chain 0 < 1 < 2, from a copy whose composite of 0<=1 and
    1<=2 is off its boundary: not told that its categories are
    categories, the functor checks composition, and so does a diagram
    whose source category fails to validate."""
    chain = {"objects": ["0", "1", "2"],
             "arrows": [["0<=1", "0", "1"], ["0<=2", "0", "2"],
                        ["1<=2", "1", "2"]],
             "compose": [["1<=2", "0<=1", "0<=2"]]}
    broken = {**chain, "compose": [["1<=2", "0<=1", "0<=1"]]}
    c, b = fincat_from_data(chain), fincat_from_data(broken)
    f = FinFunctor(b, c, {o: o for o in b.objects},
                   {a: a for a in b.arrows})
    assert c.thin and c.validate() == [] and b.validate() != []
    assert f.validate() == ["composition not preserved at 1<=2∘0<=1"]
    d = diagram_from_data(load_mode_theory(theory_path("single_arrow")), {
        "categories": {"p": broken, "q": chain},
        "functors": {"mu": {"objects": {o: o for o in b.objects},
                            "arrows": {a: a for a in b.arrows}}}})
    assert d.validate() == ["C_p: composite 1<=2∘0<=1 has wrong boundary",
                            "C_mu: composition not preserved at 1<=2∘0<=1"]


def test_a_composite_into_a_category_that_is_not_thin_is_compared_on_arrows():
    """The comonad m on Z/3 as the inversion a ↦ b = a∘a: C_m∘C_m agrees
    with C_(m∘m) = C_m on objects, but is the identity on arrows."""
    z3 = {"objects": ["*"], "arrows": [["a", "*", "*"], ["b", "*", "*"]],
          "compose": [["a", "a", "b"], ["a", "b", "id:*"],
                      ["b", "a", "id:*"], ["b", "b", "a"]]}
    d = diagram_from_data(load_mode_theory(theory_path("comonad")), {
        "categories": {"p": z3},
        "functors": {"m": {"objects": {"*": "*"},
                           "arrows": {"a": "b", "b": "a"}}},
        "naturals": {"eps": {"components": {"*": "id:*"}}}})
    assert "strictness fails: C_(m∘m) != C_m∘C_m" in d.validate()


# --- the loops the bundled inputs never enter -----------------------------------

class Entered(Exception):
    pass


def refuse(*args):
    raise Entered


@pytest.fixture
def full_loops_refused(monkeypatch):
    monkeypatch.setattr(mode_theory, "_check_two_category", refuse)
    monkeypatch.setattr(Diagram, "_component_rows", refuse)


@pytest.mark.parametrize("name", THEORY_NAMES)
def test_bundled_theories_skip_the_2_category_loops(full_loops_refused,
                                                    name):
    assert validate_mode_theory(load_mode_theory(theory_path(name))).ok


@pytest.mark.parametrize("name", DIAGRAMS)
def test_bundled_thin_diagrams_skip_the_component_rows(full_loops_refused,
                                                       name):
    d = load_diagram(diagram_path(name))
    assert all(c.thin for c in d.cats.values())
    assert d.validate() == []


def test_a_theory_that_is_not_posetal_enters_the_2_category_loops(
        full_loops_refused):
    with pytest.raises(Entered):
        validate_mode_theory(mode_theory_from_data(INTERCHANGE))


def test_a_diagram_that_is_not_thin_enters_the_component_rows(
        full_loops_refused):
    # C_p is the idempotent monoid, C_q the thin one-object category
    d = diagram_from_data(load_mode_theory(theory_path("single_arrow")), {
        "categories": {"p": IDEMPOTENT,
                       "q": {"objects": ["*"], "arrows": [], "compose": []}},
        "functors": {"mu": {"objects": {"*": "*"}, "arrows": {"e": "id:*"}}}})
    assert not d.cat("p").thin and d.cat("q").thin
    with pytest.raises(Entered):
        d.validate()


@pytest.mark.parametrize("name", DIAGRAMS)
def test_bundled_lock_diagrams_skip_the_component_rows(full_loops_refused,
                                                       name):
    b = build_bundle(load_diagram(diagram_path(name)))
    assert all(cx.cat.thin for cx in b.codexes.values())
    assert all(ok for _, ok, _ in verify_2functor(b))


@pytest.mark.parametrize("cat", [IDEMPOTENT, Z2], ids=["idempotent", "z2"])
def test_a_lock_diagram_that_is_not_thin_enters_the_component_rows(
        full_loops_refused, cat):
    """The idempotent monoid and Z/2 over the trivial theory: each codex
    is the category itself, not thin."""
    d = diagram_from_data(load_mode_theory(theory_path("trivial")),
                          {"categories": {"p": cat}})
    b = build_bundle(d)
    assert not b.codexes["p"].cat.thin
    with pytest.raises(Entered):
        verify_2functor(b)


# --- isos and the hom bijection on thin categories --------------------------------

def isos(c) -> tuple:
    """is_iso at every arrow and isomorphic at every pair of objects of c."""
    return ([is_iso(c, f) for f in c.arrows],
            [isomorphic(c, x, y) for x in c.objects for y in c.objects])


@settings(max_examples=60, deadline=None)
@given(frames())
def test_thin_isos_match_the_full_loops(d):
    b = build_bundle(d)
    for c in [*d.cats.values(), *(cx.cat for cx in b.codexes.values())]:
        assert c.thin
        assert isos(c) == with_thin_forced_false([c], lambda: isos(c))


def mutate_adjunction(adj, draw):
    """adj with its right adjoint's object or arrow image or a unit
    component replaced by any object or arrow of the top category, or with
    its right adjoint made constant at an object above every object, when
    there is one, and each unit component the arrow into it.  The last
    keeps every transpose landing, so the hom-sets decide alone."""
    top, right = adj.left.src, adj.right
    tops = [t for t in top.objects if all(top.hom(x, t) for x in top.objects)]
    kind = draw(st.sampled_from(["none", "object", "arrow", "unit"] +
                                (["constant"] if tops else [])))
    if kind == "object":
        right.omap[draw(st.sampled_from(right.src.objects))] = \
            draw(st.sampled_from(top.objects))
    elif kind == "arrow":
        right.amap[draw(st.sampled_from(list(right.src.arrows)))] = \
            draw(st.sampled_from(list(top.arrows)))
    elif kind == "unit":
        adj.unit[draw(st.sampled_from(top.objects))] = \
            draw(st.sampled_from(list(top.arrows)))
    elif kind == "constant":
        t = draw(st.sampled_from(tops))
        right.omap.update((y, t) for y in right.src.objects)
        right.amap.update((a, top.id_arr(t)) for a in right.src.arrows)
        adj.unit.update((x, top.hom(x, t)[0]) for x in top.objects)


@settings(max_examples=150, deadline=None)
@given(frames(), st.data())
def test_thin_hom_bijection_matches_the_full_loops(d, data):
    """The hom bijection of both adjunction families, one adjunction
    mutated, against the full loops on the same maps."""
    b = build_bundle(d)
    family = getattr(b, data.draw(st.sampled_from(["adjunctions",
                                                   "right_adjoints"])))
    adj = family[data.draw(st.sampled_from(sorted(family)))]
    mutate_adjunction(adj, data.draw)
    got = outcome(lambda: laws._hom_bijection(family))
    cats = [*d.cats.values(), *(cx.cat for cx in b.codexes.values())]
    assert got == with_thin_forced_false(
        cats, lambda: laws._hom_bijection(family))
