"""Finite categories: laws, comma categories, and limit search."""

import math
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matt.bundled import DIAGRAM_NAMES, diagram_path, theory_path
from matt.codex import enumerate_codex
from matt.errors import CapExceeded, MalformedTable
from matt.fincat import (Cone, FinCat, FinFunctor, check_preserves_limit,
                         comma, comma_cell, compose_functors, factorizations,
                         identity_functor, is_iso, limit, load_diagram,
                         poset_category)
from matt.mode_theory import load_mode_theory


def two_chain():
    return poset_category(["0", "1"], lambda x, y: x <= y, name="c2")


def diamond():
    order = {("b", "x"), ("b", "y"), ("b", "t"), ("x", "t"), ("y", "t")}
    return poset_category(["b", "x", "y", "t"],
                          lambda x, y: x == y or (x, y) in order,
                          name="diamond")


# --- category and functor laws ------------------------------------------------

def test_poset_category_validates():
    assert two_chain().validate() == []
    assert diamond().validate() == []


def test_category_law_violation_detected():
    c = FinCat(["a", "b"], [("f", "a", "b"), ("g", "b", "a")],
               [("g", "f", "id:b")])  # wrong boundary: g∘f lands at a
    assert any("boundary" in v for v in c.validate())


def test_functor_validation():
    c = two_chain()
    f = identity_functor(c)
    assert f.validate() == []
    bad = FinFunctor(c, c, {"0": "1", "1": "0"}, {"0<=1": "0<=1"})
    assert bad.validate() != []  # not monotone


def test_functor_composition():
    d = diamond()
    c = two_chain()
    f = FinFunctor(d, c, {"b": "0", "x": "1", "y": "1", "t": "1"},
                   {"b<=x": "0<=1", "b<=y": "0<=1", "b<=t": "0<=1",
                    "x<=t": "id:1", "y<=t": "id:1"})
    assert f.validate() == []
    gf = compose_functors(identity_functor(c), f)
    assert gf.same_tables(f)


# --- bundled diagrams ----------------------------------------------------------

@pytest.mark.parametrize("name", ["trivial", "single_arrow", "comonad",
                                  "reflective", "semilattice"])
def test_bundled_diagrams_validate(name):
    d = load_diagram(diagram_path(name))
    assert d.validate() == [], d.validate()


def test_negative_diagram_still_wellformed():
    d = load_diagram(diagram_path("nonpreserving"))
    assert d.validate() == []  # a lawful diagram whose functor drops meets


# --- limits ---------------------------------------------------------------------

def test_empty_diagram_limit_is_top():
    c = two_chain()
    cone = limit(c, {}, [])
    assert cone is not None and cone.apex == "1"


def test_binary_meet_in_chain():
    c = two_chain()
    cone = limit(c, {"a": "0", "b": "1"}, [])
    assert cone.apex == "0"


def test_meet_in_diamond():
    d = diamond()
    cone = limit(d, {"a": "x", "b": "y"}, [])
    assert cone.apex == "b"


def test_limit_absent():
    # two parallel objects with no lower bound: a discrete 2-object category
    c = FinCat(["a", "b"], [], [])
    assert limit(c, {"l": "a", "r": "b"}, []) is None


def test_limit_with_edges():
    d = diamond()
    # pullback of x -> t <- y is the meet b
    edges = [("a", "m", "x<=t"), ("b", "m", "y<=t")]
    cone = limit(d, {"a": "x", "b": "y", "m": "t"}, edges)
    assert cone.apex == "b"


def test_limit_cap():
    d = diamond()
    with pytest.raises(CapExceeded):
        limit(d, {"a": "x", "b": "y"}, [], cap=0)


def test_limit_search_order_is_irrelevant():
    d = diamond()
    base = limit(d, {"a": "x", "b": "y"}, [])
    for seed in range(6):
        assert limit(d, {"a": "x", "b": "y"}, [], order=seed).apex == base.apex


DIVISORS = [1, 2, 3, 4, 6, 8, 12, 24]


@given(st.sets(st.sampled_from(DIVISORS), min_size=1, max_size=5),
       st.integers(0, 99))
def test_meets_in_divisibility_poset_are_gcds(xs, seed):
    # independent oracle: the meet under divisibility is the gcd, and the
    # search result cannot depend on enumeration order
    cat = poset_category([str(e) for e in DIVISORS],
                         lambda a, b: int(b) % int(a) == 0, name="div24")
    nodes = {f"n{i}": str(x) for i, x in enumerate(sorted(xs))}
    cone = limit(cat, nodes, [], order=seed)
    assert cone is not None
    assert cone.apex == str(reduce(math.gcd, xs))


def test_check_preserves_limit():
    d = diamond()
    c = two_chain()
    collapse = FinFunctor(d, c, {"b": "0", "x": "1", "y": "1", "t": "1"},
                          {"b<=x": "0<=1", "b<=y": "0<=1", "b<=t": "0<=1",
                           "x<=t": "id:1", "y<=t": "id:1"})
    nodes = {"a": "x", "b": "y"}
    cone = limit(d, nodes, [])
    assert check_preserves_limit(identity_functor(d), nodes, [], cone)
    assert not check_preserves_limit(collapse, nodes, [], cone)


# --- comma categories -----------------------------------------------------------

def test_comma_single_arrow():
    mt = load_mode_theory(theory_path("single_arrow"))
    c = comma(mt, "id:q", "mu")  # sigma: q -> p: none exist
    assert c.objects == []
    c2 = comma(mt, "mu", "id:q")  # sigma: p -> q: only mu, beta: mu => mu
    assert c2.objects == [("mu", "id:mu")]
    c3 = comma(mt, "id:q", "id:q")
    assert c3.objects == [("id:q", "id:id:q")]
    assert c3.validate() == []


def test_comma_reflective():
    mt = load_mode_theory(theory_path("reflective"))
    # numu ↓ id:p : pairs (sigma: p->p, beta: numu => sigma)
    c = comma(mt, "numu", "id:p")
    assert ("numu", "id:numu") in c.objects
    assert c.validate() == []
    # identity comma always contains (1, 1) and it is initial when pi = 1
    c1 = comma(mt, "id:p", "id:p")
    assert ("id:p", "id:id:p") in c1.objects
    base = ("id:p", "id:id:p")
    for o in c1.objects:
        assert len(c1.hom(base, o)) == 1


def test_comma_arrows_compose_by_cells():
    mt = load_mode_theory(theory_path("semilattice"))
    c = comma(mt, "a", "id:p")  # pairs (sigma: p->p, beta: a => sigma)
    assert set(c.objects) == {("a", "id:a"), ("id:p", "le")}
    assert c.validate() == []
    [arr] = [a for a in c.arrows.values()
             if a.src == ("a", "id:a") and a.dst == ("id:p", "le")
             and a.name not in c.identities.values()]
    assert comma_cell(mt, c, arr.name) == "le"


# --- mediating arrows and isomorphisms ----------------------------------------

def test_factorizations_counts_and_hom_order():
    c = FinCat(["a", "b"], [("f", "a", "b"), ("g", "a", "b")], [])
    assert factorizations(c, "a", "b", []) == ["f", "g"]
    assert factorizations(c, "a", "b", [("id:b", "g")]) == ["g"]
    assert factorizations(c, "a", "b", [("id:b", "f"), ("id:b", "g")]) == []
    assert factorizations(c, "b", "a", []) == []


def test_is_iso():
    c = FinCat(["a", "b"], [("f", "a", "b"), ("g", "b", "a")],
               [("g", "f", "id:a"), ("f", "g", "id:b")])
    assert c.validate() == []
    assert is_iso(c, "f") and is_iso(c, "id:a")
    assert not is_iso(two_chain(), "0<=1")


# --- the hom index ------------------------------------------------------------

def _assert_hom_matches_scan(c):
    for x in c.objects:
        for y in c.objects:
            assert c.hom(x, y) == [n for n, a in c.arrows.items()
                                   if a.src == x and a.dst == y]
    for x in c.objects:
        h = c.hom(x, x)
        h.append("junk")  # a returned list is the caller's own copy
        assert "junk" not in c.hom(x, x)


TABLE_OBJECTS = ["a", "b", "c"]
# arrows as (src, dst) pairs; repeats give parallel arrows
ENDPOINTS = st.tuples(st.sampled_from(TABLE_OBJECTS),
                      st.sampled_from(TABLE_OBJECTS))


@given(st.lists(ENDPOINTS, max_size=12))
def _random_table_matches_scan(pairs):
    _assert_hom_matches_scan(
        FinCat(TABLE_OBJECTS,
               [(f"f{i}", s, d) for i, (s, d) in enumerate(pairs)], []))


def test_hom_index_matches_linear_scan():
    _random_table_matches_scan()
    for name in DIAGRAM_NAMES:
        d = load_diagram(diagram_path(name))
        for p, cat in d.cats.items():
            _assert_hom_matches_scan(cat)
            _assert_hom_matches_scan(enumerate_codex(d, p).cat)
