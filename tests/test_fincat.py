"""Finite categories: laws and limit search."""

import itertools
import json
import math
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_codex import monoid_comonad

from matt.bundled import DIAGRAM_NAMES, diagram_path, theory_path
from matt.codex import _mediating, enumerate_codex
from matt.errors import (CapExceeded, LimitAbsent, MalformedTable,
                         NotComposable)
from matt.fincat import (Cone, FinCat, FinFunctor, FinNat, all_cones,
                         check_preserves_limit, compose_functors,
                         factorizations, first_unpreserved_limit,
                         identity_functor, is_iso, is_terminal_cone,
                         isomorphic, limit, load_diagram, poset_category)


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


def test_comp_errors():
    # f: a -> b, g: b -> c, and no row for g∘f
    c = FinCat(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], [])
    assert c.comp("id:b", "f") == "f"
    with pytest.raises(MalformedTable, match="unknown arrow 'h'"):
        c.comp("h", "f")
    with pytest.raises(MalformedTable, match="unknown arrow 'h'"):
        c.comp("g", "h")
    with pytest.raises(NotComposable):
        c.comp("f", "g")
    with pytest.raises(MalformedTable, match="missing composition g∘f"):
        c.comp("g", "f")


@pytest.mark.parametrize("row", [("g", "h", "gf"), ("h", "f", "gf"),
                                 ("g", "f", "h"), ("f", "g", "gf")],
                         ids=["unknown-f", "unknown-g", "unknown-result",
                              "not-composable"])
def test_composition_row_rejected(row):
    arrows = [("f", "a", "b"), ("g", "b", "c"), ("gf", "a", "c")]
    assert FinCat(["a", "b", "c"], arrows, [("g", "f", "gf")]).validate() \
        == []
    with pytest.raises(MalformedTable, match="composition row"):
        FinCat(["a", "b", "c"], arrows, [row])


def test_functor_validation():
    c = two_chain()
    f = identity_functor(c)
    assert f.validate() == []
    bad = FinFunctor(c, c, {"0": "1", "1": "0"}, {"0<=1": "0<=1"})
    assert bad.validate() != []  # not monotone


def test_validation_names_keys_the_source_lacks():
    c = two_chain()
    f = FinFunctor(c, c, {"0": "0", "1": "1", "9": "1"},
                   {"0<=1": "0<=1", "zz": "0<=1"})
    assert f.validate() == ["object map names 9, not an object of the source",
                            "arrow map names zz, not an arrow of the source"]
    n = FinNat(f, f, {"0": "id:0", "1": "id:1", "9": "id:1"})
    assert n.validate() == ["components name 9, not an object of the source"]


def test_functor_composition():
    d = diamond()
    c = two_chain()
    f = FinFunctor(d, c, {"b": "0", "x": "1", "y": "1", "t": "1"},
                   {"b<=x": "0<=1", "b<=y": "0<=1", "b<=t": "0<=1",
                    "x<=t": "id:1", "y<=t": "id:1"})
    assert f.validate() == []
    gf = compose_functors(identity_functor(c), f)
    assert gf.maps_like(lambda o: f.omap[o], lambda a: f.amap[a])
    assert not gf.maps_like(lambda o: f.omap[o], lambda a: "id:1")


# --- bundled diagrams ----------------------------------------------------------

@pytest.mark.parametrize("name", ["trivial", "single_arrow", "comonad",
                                  "reflective", "semilattice"])
def test_bundled_diagrams_validate(name):
    d = load_diagram(diagram_path(name))
    assert d.validate() == [], d.validate()


def built_functor_rows(d) -> list:
    """The rows of Diagram.strictness on functors, checked against functors
    built as they are named, with identity_functor and compose_functors."""
    def same(f, g):
        return f.omap == g.omap and \
            all(f.amap[a] == g.amap[a] for a in f.src.arrows)
    out = [f"C_{m} is not the identity functor" for m in d.mt.morphisms
           if d.mt.is_id_mor(m) and
           not same(d.functors[m], identity_functor(d.functors[m].src))]
    return out or [f"strictness fails: C_({mu}∘{nu}) != C_{mu}∘C_{nu}"
                   for (mu, nu), h in d.mt.compose_table.items()
                   if not same(d.functors[h], compose_functors(
                       d.functors[mu], d.functors[nu]))]


@pytest.mark.parametrize("name", list(DIAGRAM_NAMES) + ["nonpreserving"])
def test_strictness_compares_functor_tables_in_place(name):
    """Each functor of a bundled diagram, identities too, replaced by each
    constant functor: strictness compares the tables in place, and its
    functor rows are those of the built functors."""
    d = load_diagram(diagram_path(name))
    rows = 0
    for m, f in d.functors.items():
        for y in f.dst.objects:
            e = load_diagram(diagram_path(name))
            f = e.functors[m]
            e.functors[m] = FinFunctor(
                f.src, f.dst, {o: y for o in f.src.objects},
                {a: f.dst.id_arr(y) for a in f.src.arrows})
            want = built_functor_rows(e)
            rows += len(want)
            got = e.strictness()
            assert got[:len(want)] == want
            assert not any("functor" in v or v.startswith("strictness")
                           for v in got[len(want):])
    assert rows > 0


def test_negative_diagram_still_wellformed():
    d = load_diagram(diagram_path("nonpreserving"))
    assert d.validate() == []  # a lawful diagram whose functor drops meets


def three_arrow_diagram() -> dict:
    """The trivial theory's diagram on a, b, c with f: a → b, g: b → c and
    h = g∘f: every name is one character, so a string of names would read
    as the list of its characters."""
    return {"mode_theory": str(theory_path("trivial")), "functors": {},
            "naturals": {}, "categories": {"p": {
                "objects": ["a", "b", "c"],
                "arrows": [["f", "a", "b"], ["g", "b", "c"], ["h", "a", "c"]],
                "compose": [["g", "f", "h"]]}}}


@pytest.mark.parametrize("edit", [
    lambda p: p.update(objects="abc"),
    lambda p: p["arrows"].__setitem__(0, "fab"),
    lambda p: p["compose"].__setitem__(0, "gfh"),
], ids=["objects", "arrow", "compose-row"])
def test_diagram_reader_refuses_a_string_for_a_list(tmp_path, edit):
    f = tmp_path / "strings.dg"
    data = three_arrow_diagram()
    f.write_text(json.dumps(data))
    assert load_diagram(f).validate() == []
    edit(data["categories"]["p"])
    f.write_text(json.dumps(data))
    with pytest.raises(MalformedTable, match="is not a list"):
        load_diagram(f)


def single_arrow_diagram() -> dict:
    """The single_arrow diagram, with the identity natural transformation on
    C_mu given by its components."""
    data = json.loads(diagram_path("single_arrow").read_text())
    data["mode_theory"] = str(theory_path("single_arrow"))
    data["naturals"] = {"id:mu": {"components": {"0": "id:0", "1": "id:1"}}}
    return data


# each list is one that dict() reads as the map of the bundled file
@pytest.mark.parametrize("path, value", [
    (("functors", "mu", "objects"), ["00", "11"]),
    (("functors", "mu", "arrows"), [["0<=1", "0<=1"]]),
    (("naturals", "id:mu", "components"), [["0", "id:0"], ["1", "id:1"]]),
], ids=["functor-objects", "functor-arrows", "components"])
def test_diagram_reader_refuses_a_list_for_a_map(tmp_path, path, value):
    f = tmp_path / "lists.dg"
    data = single_arrow_diagram()
    f.write_text(json.dumps(data))
    assert load_diagram(f).validate() == []
    *outer, key = path
    table = reduce(dict.__getitem__, outer, data)
    assert dict(value) == table[key]
    table[key] = value
    f.write_text(json.dumps(data))
    with pytest.raises(MalformedTable, match="is not an object"):
        load_diagram(f)


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


# --- limits in a thin category, against brute force over hom ---------------

@st.composite
def preorders(draw):
    """The thin category of a random preorder on 1-5 objects: the reflexive
    and transitive closure of random pairs, so distinct objects may be
    isomorphic."""
    objs = ["a", "b", "c", "d", "e"][:draw(st.integers(1, 5))]
    leq = {(x, x) for x in objs} | draw(st.sets(st.tuples(
        st.sampled_from(objs), st.sampled_from(objs))))
    for k in objs:
        leq |= {(x, y) for (x, k1) in leq for (k2, y) in leq
                if k1 == k == k2}
    return poset_category(objs, lambda x, y: (x, y) in leq, name="pre")


@given(preorders(), st.data(), st.integers(0, 99))
def test_thin_limit_is_a_greatest_lower_bound(c, data, seed):
    assert c.thin and c.validate() == []
    xs = data.draw(st.lists(st.sampled_from(c.objects), max_size=4))
    nodes = {f"n{i}": x for i, x in enumerate(xs)}
    keys = sorted(nodes, key=repr)
    # every cone commutes in a thin category, so edges change nothing
    edges = [(a, b, c.hom(nodes[a], nodes[b])[0]) for a in keys for b in keys
             if c.hom(nodes[a], nodes[b]) and data.draw(st.booleans())]
    lower = [o for o in c.objects if all(c.hom(o, x) for x in xs)]
    glbs = [m for m in lower if all(c.hom(o, m) for o in lower)]

    cone = limit(c, nodes, edges, order=seed)
    if not glbs:
        assert cone is None
    else:
        assert cone is not None and isomorphic(c, cone.apex, glbs[0])
        assert cone.legs == tuple((k, c.hom(cone.apex, nodes[k])[0])
                                  for k in keys)
    for m in lower:
        at_m = Cone(m, tuple((k, c.hom(m, nodes[k])[0]) for k in keys))
        assert is_terminal_cone(c, nodes, edges, at_m) == (m in glbs)

    # the cap bounds the number of cones: one per lower bound
    assert len(all_cones(c, nodes, edges)) == len(lower)
    probe = cone or Cone(c.objects[0], ())
    for cap in range(len(lower) + 1):
        for search in (lambda: limit(c, nodes, edges, cap=cap),
                       lambda: is_terminal_cone(c, nodes, edges, probe,
                                                cap=cap)):
            if len(lower) > cap:
                with pytest.raises(CapExceeded):
                    search()
            else:
                search()


def test_terminal_cone_legs_must_land_on_the_nodes():
    # not thin, and no cone over {a, b}: a cone at b with identity legs
    # misses the node at a, so it is no limit cone
    c = FinCat(["a", "b"], [("f", "a", "a"), ("g", "a", "a")],
               [("f", "f", "f"), ("g", "g", "g"), ("f", "g", "f"),
                ("g", "f", "g")])
    assert not c.thin and c.validate() == []
    nodes = {"l": "a", "r": "b"}
    assert all_cones(c, nodes, []) == []
    assert not is_terminal_cone(c, nodes, [],
                                Cone("b", (("l", "id:b"), ("r", "id:b"))))


def test_preservation_from_a_parallel_pair_into_a_thin_chain():
    # not thin: the parallel pair f, g on a, with b terminal.  Into the
    # chain 0 < ... < 4, b goes to 3, which is not terminal there: the
    # search takes the cone path, and is_terminal_cone runs on a thin
    # target.  The caps stop the source's search (2 cones over b, b) or
    # the target's (4 lower bounds of 3)
    c = FinCat(["b", "a"], [("f", "a", "a"), ("g", "a", "a"),
                            ("k", "a", "b")],
               [("f", "f", "f"), ("g", "g", "g"), ("f", "g", "f"),
                ("g", "f", "g"), ("k", "f", "k"), ("k", "g", "k")])
    assert not c.thin and c.validate() == []
    chain = poset_category([str(i) for i in range(5)], lambda x, y: x <= y)
    f = FinFunctor(c, chain, {"b": "3", "a": "0"},
                   {"f": "id:0", "g": "id:0", "k": "0<=3"})
    assert chain.thin and f.validate() == []
    assert first_unpreserved_limit(c, [f]) == (f, {})
    assert first_unpreserved_limit(c, [f], cap=9) == (f, {})
    for cap, size in [(0, 2), (1, 2), (2, 4), (3, 4)]:
        with pytest.raises(CapExceeded) as e:
            first_unpreserved_limit(c, [f], cap=cap)
        assert str(e.value) == f"cone search size {size} exceeds cap {cap}"


def test_thin_limit_among_isomorphic_objects():
    # a and b are isomorphic and below c: each is a meet of a and b
    c = poset_category(["c", "a", "b"], lambda x, y: x != "c" or y == "c")
    assert c.thin and c.validate() == []
    apexes = {limit(c, {"l": "a", "r": "b"}, [], order=s).apex
              for s in range(20)}
    assert apexes == {"a", "b"}
    assert limit(c, {"l": "a", "r": "b"}, []).apex == "a"  # objects order


# --- mediating arrows and isomorphisms ----------------------------------------

def test_factorizations_counts_and_hom_order():
    c = FinCat(["a", "b"], [("f", "a", "b"), ("g", "a", "b")], [])
    assert factorizations(c, "a", "b", []) == ["f", "g"]
    assert factorizations(c, "a", "b", [("id:b", "g")]) == ["g"]
    assert factorizations(c, "a", "b", [("id:b", "f"), ("id:b", "g")]) == []
    assert factorizations(c, "b", "a", []) == []


def unread_pairs():
    raise AssertionError("the pairs were read")
    yield


def test_factorizations_in_a_thin_category_read_no_pairs():
    # parallel arrows are equal, so the one arrow of the hom-set factors
    c = diamond()
    assert factorizations(c, "b", "t", unread_pairs()) == ["b<=t"]
    assert factorizations(c, "x", "y", unread_pairs()) == []


def test_factorizations_filter_by_the_pairs_when_not_thin():
    cp = monoid_comonad().cat("p")  # {*; e∘e = e}
    assert not cp.thin
    assert factorizations(cp, "*", "*", [("e", "e")]) == ["e", "id:*"]
    assert factorizations(cp, "*", "*", [("id:*", "e")]) == ["e"]
    assert factorizations(cp, "*", "*", [("e", "id:*")]) == []
    with pytest.raises(AssertionError, match="pairs were read"):
        factorizations(cp, "*", "*", unread_pairs())


def test_mediating_arrow_absent_from_an_empty_hom_set():
    with pytest.raises(LimitAbsent, match="search x to y has 0"):
        _mediating(diamond(), "x", "y", unread_pairs(), "search {} to {}",
                   "x", "y")


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


# --- validator shortcuts against their full loops ---------------------------
# On a thin category FinCat.validate skips associativity once every
# composite lies on its boundary, and FinNat.validate skips naturality once
# both functors' arrow images have the right ends.  Each must report what
# its full loop reports, run with thin forced False as test_thin's
# mark_not_thin does, here on preorders with one corrupted entry.

def outcome(check):
    """The violations check returns, or the class and text it raises."""
    try:
        return check()
    except (MalformedTable, NotComposable) as e:
        return type(e), str(e)


def same_as_full_loop(cat, check):
    """check's outcome, after asserting that it is the same with cat's
    thin flag forced False."""
    assert cat.thin
    got = outcome(check)
    cat.thin = False
    try:
        assert outcome(check) == got
    finally:
        cat.thin = True
    return got


def moving_arrows(c) -> list:
    return [n for n, a in c.arrows.items() if a.src != a.dst]


def rebuilt(c, table: dict) -> FinCat:
    """c with its composition table replaced by table."""
    return FinCat(c.objects,
                  [(n, a.src, a.dst) for n, a in c.arrows.items()
                   if n not in c.identities.values()],
                  [(g, f, h) for (g, f), h in table.items()], name=c.name)


@st.composite
def corrupted_tables(draw):
    """A preorder with one corrupted row: a composite off its boundary, a
    unit row naming an arrow not parallel to its arrow, or a missing row."""
    c = draw(preorders())
    moving = moving_arrows(c)
    assume(moving)
    table = dict(c.compose)  # (g, f) -> g∘f
    kind = draw(st.sampled_from(["off-boundary", "unit", "missing"]))
    if kind == "unit":
        f = draw(st.sampled_from(moving))
        a = c.arrows[f]
        table[(f, c.id_arr(a.src))] = c.id_arr(a.src)
        return rebuilt(c, table)
    pairs = [(g, f) for (g, f) in table if f in moving and g in moving]
    assume(pairs)
    g, f = draw(st.sampled_from(pairs))
    if kind == "missing":
        del table[(g, f)]
    else:
        table[(g, f)] = g  # from f's target, not its source
    return rebuilt(c, table)


@settings(max_examples=150, deadline=None)
@given(corrupted_tables())
def test_category_shortcut_reports_what_the_full_loop_does(c):
    got = same_as_full_loop(c, c.validate)
    assert got != []  # each corruption is a violation


@given(preorders())
def test_category_shortcut_on_a_lawful_preorder(c):
    assert same_as_full_loop(c, c.validate) == []


@settings(max_examples=150, deadline=None)
@given(preorders(), st.data())
def test_natural_shortcut_reports_what_the_full_loop_does(c, data):
    """The identity on an identity functor, with either a component off its
    boundary, or one functor sending an arrow to the identity at its
    source, off its boundary."""
    moving = moving_arrows(c)
    assume(moving)
    u = data.draw(st.sampled_from(moving))
    ident = identity_functor(c)
    off = FinFunctor(c, c, {o: o for o in c.objects},
                     {**ident.amap, u: c.id_arr(c.arrows[u].src)})
    comps = {o: c.id_arr(o) for o in c.objects}
    if data.draw(st.booleans()):
        comps[c.arrows[u].src] = u
        n = FinNat(ident, ident, comps)
    else:
        n = FinNat(*data.draw(st.permutations([ident, off])), comps)
    got = same_as_full_loop(c, n.validate)
    assert got != []
    assert same_as_full_loop(c, FinNat(ident, ident, {
        o: c.id_arr(o) for o in c.objects}).validate) == []


def test_functor_walks_the_pairs_that_compose():
    """Out of a preorder into the two-element group {id:*, z}: each arrow
    image is on its boundary, and composition holds only where z's count
    adds up, so the violations are compared with a walk over all pairs."""
    z2 = FinCat(["*"], [("z", "*", "*")], [("z", "z", "id:*")])
    c = diamond()
    for pick in itertools.product(["id:*", "z"], repeat=len(c.arrows)):
        amap = dict(zip(c.arrows, pick))
        f = FinFunctor(c, z2, {o: "*" for o in c.objects}, amap)
        want = [f"identity at {o} not preserved" for o in c.objects
                if amap[c.id_arr(o)] != "id:*"]
        want += [f"composition not preserved at {g.name}∘{h.name}"
                 for h in c.arrows.values() for g in c.arrows.values()
                 if g.src == h.dst and amap[c.comp(g.name, h.name)] !=
                 z2.comp(amap[g.name], amap[h.name])]
        assert f.validate() == want
