"""Mode theory validation and the composition and whiskering tables.

Positive cases are the six bundled presentations; negative cases are ten
mutants, one per axiom class, and probes of the category laws of the
vcompose table, of table totality, of the whisker unit and composition laws
and of interchange.
"""

import copy
import json

import pytest

from matt.bundled import THEORY_NAMES, theory_path
from matt.errors import IllTypedCellExpression, MalformedTable, NotComposable
from matt.mode_theory import (Morphism, Violation, load_mode_theory,
                              mode_theory_from_data, opposite,
                              validate_mode_theory)


def theory_data(name):
    return json.loads(theory_path(name).read_text())


@pytest.mark.parametrize("name", THEORY_NAMES)
def test_bundled_theories_validate(name):
    mt = load_mode_theory(theory_path(name))
    report = validate_mode_theory(mt)
    assert report.ok, report.violations


def test_validate_is_idempotent_and_pure():
    mt = load_mode_theory(theory_path("reflective"))
    before = copy.deepcopy(vars(mt))
    assert validate_mode_theory(mt).ok
    assert validate_mode_theory(mt).ok
    assert vars(mt) == before


def test_is_id_cell_and_is_id_mor():
    mt = load_mode_theory(theory_path("reflective"))
    assert mt.is_id_cell("id:numu") and mt.is_id_cell("id:id:p")
    assert not mt.is_id_cell("eta")  # eta : id:p ⇒ numu
    assert mt.is_id_mor("id:q") and not mt.is_id_mor("numu")
    with pytest.raises(MalformedTable, match="^unknown cell id:ghost$"):
        mt.is_id_cell("id:ghost")
    with pytest.raises(MalformedTable, match="^unknown morphism ghost$"):
        mt.is_id_mor("ghost")


def test_compose_unit_law():
    mt = load_mode_theory(theory_path("single_arrow"))
    assert mt.compose("id:q", "mu") == "mu"
    assert mt.compose("mu", "id:p") == "mu"


def test_compose_reflective_tables():
    mt = load_mode_theory(theory_path("reflective"))
    assert mt.compose("mu", "nu") == "id:q"
    assert mt.compose("nu", "mu") == "numu"
    assert mt.compose("numu", "numu") == "numu"


def test_compose_rejects_mismatched_modes():
    mt = load_mode_theory(theory_path("single_arrow"))
    with pytest.raises(NotComposable):
        mt.compose("mu", "mu")


def test_cell_algebra_identity():
    mt = load_mode_theory(theory_path("single_arrow"))
    assert mt.vcomp("id:mu", "id:mu") == "id:mu"


def test_cell_algebra_reflective_whiskers():
    mt = load_mode_theory(theory_path("reflective"))
    assert mt.wl("mu", "eta") == "id:mu"
    assert mt.wr("eta", "nu") == "id:nu"
    # both bracketings of a whisker sandwich agree (the fifth table axiom)
    left = mt.wr(mt.wl("numu", "eta"), "numu")
    right = mt.wl("numu", mt.wr("eta", "numu"))
    assert left == right == "id:numu"


def test_cell_algebra_rejects_ill_typed():
    mt = load_mode_theory(theory_path("reflective"))
    with pytest.raises(IllTypedCellExpression):
        mt.wl("nu", "eta")  # nu expects a cell into mode q
    with pytest.raises(IllTypedCellExpression):
        mt.vcomp("eta", "eta")


def test_malformed_table_raises():
    data = theory_data("single_arrow")
    data["compose"].append(["mu", "mu", "mu"])  # mu∘mu is not composable
    with pytest.raises(MalformedTable):
        validate_mode_theory(mode_theory_from_data(data))


def test_unknown_reference_raises():
    data = theory_data("single_arrow")
    data["classes"]["tangible"].append("ghost")
    with pytest.raises(MalformedTable):
        mode_theory_from_data(data)


# one row of reflective.mt (mu: p -> q, nu: q -> p, eta: id:p => numu) put
# in or replaced, and the message of the one bad row
SHAPE_ERRORS = {
    "compose": ("compose", ["mu", "mu", "mu"],
                "compose entry (mu,mu)->mu has mismatched modes"),
    "vcompose": ("vcompose", ["eta", "eta", "eta"],
                 "vcompose entry (eta,eta)->eta has mismatched cells"),
    "whisker_left-modes": ("whisker_left", ["nu", "eta", "eta"],
                           "whisker_left entry (nu,eta) has mismatched "
                           "modes"),
    "whisker_left-boundary": ("whisker_left", ["mu", "eta", "eta"],
                              "whisker_left entry (mu,eta)->eta has wrong "
                              "boundary"),
    "whisker_right-modes": ("whisker_right", ["eta", "mu", "eta"],
                            "whisker_right entry (eta,mu) has mismatched "
                            "modes"),
    "whisker_right-boundary": ("whisker_right", ["eta", "nu", "eta"],
                               "whisker_right entry (eta,nu)->eta has wrong "
                               "boundary"),
}


@pytest.mark.parametrize("case", list(SHAPE_ERRORS))
def test_a_row_off_its_shape_raises_its_message(case):
    table, row, message = SHAPE_ERRORS[case]
    data = theory_data("reflective")
    data[table] = [r for r in data[table] if r[:2] != row[:2]] + [row]
    mt = mode_theory_from_data(data)
    with pytest.raises(MalformedTable) as e:
        validate_mode_theory(mt)
    assert str(e.value) == message


def one_letter_theory() -> dict:
    """A theory on mode p with an idempotent m: p → p.  Every name is one
    character, so a string of names would read as the list of its
    characters."""
    return {"modes": ["p"],
            "morphisms": [{"name": "m", "src": "p", "dst": "p"}],
            "compose": [["m", "m", "m"]],
            "classes": {"tangible": ["id:p", "m"], "sharp": ["id:p", "m"],
                        "transparent": ["id:p"], "sinister": []}}


@pytest.mark.parametrize("edit", [
    lambda d: d.update(modes="p"),
    lambda d: d["compose"].__setitem__(0, "mmm"),
    lambda d: d["classes"].update(tangible="m"),
], ids=["modes", "table-row", "class"])
def test_reader_refuses_a_string_for_a_list(edit):
    data = one_letter_theory()
    assert validate_mode_theory(mode_theory_from_data(data)).ok
    edit(data)
    with pytest.raises(MalformedTable, match="is not a list"):
        mode_theory_from_data(data)


def test_unknown_class_name_raises():
    # a misspelt class would drop its morphisms from that class unseen:
    # here mu would quietly stop being sinister
    data = theory_data("reflective")
    data["classes"]["sinster"] = data["classes"].pop("sinister")
    with pytest.raises(MalformedTable, match="unknown class sinster"):
        mode_theory_from_data(data)


# --- the ten axiom-class mutants -------------------------------------------

def check_mutant(data, axiom):
    report = validate_mode_theory(mode_theory_from_data(data))
    assert not report.ok
    assert axiom in {v.axiom for v in report.violations}, report.violations


def test_mutant_identity_not_transparent():
    data = theory_data("semilattice")
    data["classes"]["transparent"].remove("id:p")
    check_mutant(data, "identity-transparent")


def test_mutant_identity_not_sharp():
    data = theory_data("single_arrow")
    data["classes"]["sharp"].remove("id:q")
    check_mutant(data, "identity-sharp")


def test_mutant_composite_not_tangible():
    data = theory_data("reflective")
    for cls in ("tangible", "sharp", "transparent"):
        data["classes"][cls].remove("numu")
    # mu is sharp, nu transparent, so nu∘mu = numu must be tangible
    check_mutant(data, "sharp-transparent-composite-tangible")


def test_mutant_sharp_not_tangible():
    data = theory_data("single_arrow")
    data["classes"]["tangible"].remove("mu")
    check_mutant(data, "sharp-tangible")


def test_mutant_transparent_not_tangible():
    data = theory_data("semilattice")
    data["classes"]["tangible"].remove("a")
    data["classes"]["sharp"].remove("a")
    check_mutant(data, "transparent-tangible")


# only identity cells, so locally posetal, but the identity cells of
# (a∘a)∘b and a∘(a∘b) differ: whiskering is not associative either
COMPOSE_NOT_ASSOCIATIVE = {
    "modes": ["p"],
    "morphisms": [{"name": "a", "src": "p", "dst": "p"},
                  {"name": "b", "src": "p", "dst": "p"}],
    "compose": [["a", "a", "b"], ["a", "b", "id:p"],
                ["b", "a", "a"], ["b", "b", "id:p"]],
    "cells": [], "vcompose": [], "whisker_left": [], "whisker_right": [],
    "classes": {"tangible": ["id:p", "a", "b"], "sharp": ["id:p"],
                "transparent": ["id:p"], "sinister": []},
    "adjoints": [],
}


def test_mutant_compose_not_associative():
    check_mutant(COMPOSE_NOT_ASSOCIATIVE, "compose-associative")


def test_mutant_compose_not_unital():
    # commutative monoid {1, a, b} with b absorbing, unit row broken for a
    data = {
        "modes": ["p"],
        "morphisms": [{"name": "a", "src": "p", "dst": "p"},
                      {"name": "b", "src": "p", "dst": "p"}],
        "compose": [["a", "a", "b"], ["a", "b", "b"],
                    ["b", "a", "b"], ["b", "b", "b"],
                    ["a", "id:p", "b"]],
        "cells": [], "vcompose": [], "whisker_left": [], "whisker_right": [],
        "classes": {"tangible": ["id:p", "a", "b"], "sharp": ["id:p"],
                    "transparent": ["id:p"], "sinister": []},
        "adjoints": [],
    }
    check_mutant(data, "compose-unital")


def test_mutant_vcompose_not_unital():
    data = theory_data("comonad")
    data["cells"].append({"name": "eps2", "src": "m", "dst": "id:p"})
    data["whisker_left"].append(["m", "eps2", "id:m"])
    data["whisker_right"].append(["eps2", "m", "id:m"])
    data["vcompose"].append(["id:id:p", "eps", "eps2"])
    check_mutant(data, "vcompose-unital")


def test_mutant_whisker_identity_broken():
    data = {
        "modes": ["p"],
        "morphisms": [{"name": "m", "src": "p", "dst": "p"}],
        "compose": [["m", "m", "m"]],
        "cells": [{"name": "u", "src": "m", "dst": "m"}],
        "vcompose": [["u", "u", "u"]],
        "whisker_left": [["m", "u", "u"], ["m", "id:m", "u"]],
        "whisker_right": [["u", "m", "u"]],
        "classes": {"tangible": ["id:p", "m"], "sharp": ["id:p"],
                    "transparent": ["id:p"], "sinister": []},
        "adjoints": [],
    }
    check_mutant(data, "whisker-left-identity")


def test_mutant_triangle_broken():
    # Z2-shaped mode theory with a nonidentity endo-cell; the declared
    # unit/counit typecheck but fail the first triangle identity.
    data = {
        "modes": ["p"],
        "morphisms": [{"name": "m", "src": "p", "dst": "p"}],
        "compose": [["m", "m", "id:p"]],
        "cells": [{"name": "k", "src": "id:p", "dst": "id:p"},
                  {"name": "km", "src": "m", "dst": "m"}],
        "vcompose": [["k", "k", "id:id:p"], ["km", "km", "id:m"]],
        "whisker_left": [["m", "k", "km"], ["m", "km", "k"]],
        "whisker_right": [["k", "m", "km"], ["km", "m", "k"]],
        "classes": {"tangible": ["id:p", "m"], "sharp": ["id:p"],
                    "transparent": ["id:p"], "sinister": ["m"]},
        "adjoints": [{"mor": "m", "dagger": "m", "unit": "k",
                      "counit": "id:id:p"}],
    }
    check_mutant(data, "triangle-left")



# --- one category-law check for both tables, and the whisker unit laws -----

def violations(data):
    return validate_mode_theory(mode_theory_from_data(data)).violations


def test_vcompose_not_associative_names_only_that_axiom():
    # two endo-cells of id:p, (a∘a)∘b = id:id:p but a∘(a∘b) = a; the table
    # is commutative, since interchange makes endo-cells of an identity commute
    data = {
        "modes": ["p"], "morphisms": [],
        "cells": [{"name": "a", "src": "id:p", "dst": "id:p"},
                  {"name": "b", "src": "id:p", "dst": "id:p"}],
        "compose": [],
        "vcompose": [["a", "a", "b"], ["a", "b", "id:id:p"],
                     ["b", "a", "id:id:p"], ["b", "b", "id:id:p"]],
        "whisker_left": [], "whisker_right": [],
        "classes": {"tangible": ["id:p"], "sharp": ["id:p"],
                    "transparent": ["id:p"], "sinister": []},
        "adjoints": [],
    }
    assert {v.axiom for v in violations(data)} == {"vcompose-associative"}


def test_missing_composite_fails_totality():
    data = theory_data("reflective")
    data["compose"].remove(["nu", "mu", "numu"])
    assert Violation("table-totality", "composite nu∘mu missing") \
        in violations(data)


@pytest.mark.parametrize("table,row,axiom,message", [
    ("whisker_left", ["id:p", "eta", "id:id:p"], "whisker-left-unital",
     "1◁eta = id:id:p"),
    ("whisker_right", ["eta", "id:p", "id:id:p"], "whisker-right-unital",
     "eta▷1 = id:id:p"),
], ids=["left", "right"])
def test_whiskering_by_an_identity_must_be_the_cell(table, row, axiom,
                                                    message):
    data = theory_data("reflective")
    data[table].append(row)
    assert violations(data) == (Violation(axiom, message),)


# --- whiskering along a composite, and interchange ---------------------------

def three_modes(morphisms, compose, cells, vcompose, wl, wr):
    """A theory over modes p, q, r, every morphism tangible."""
    return {
        "modes": ["p", "q", "r"],
        "morphisms": [{"name": n, "src": s, "dst": d}
                      for n, s, d in morphisms],
        "compose": compose,
        "cells": [{"name": n, "src": s, "dst": d} for n, s, d in cells],
        "vcompose": vcompose, "whisker_left": wl, "whisker_right": wr,
        "classes": {"tangible": ["id:p", "id:q", "id:r"]
                    + [n for n, _, _ in morphisms],
                    "sharp": ["id:p", "id:q", "id:r"],
                    "transparent": ["id:p", "id:q", "id:r"],
                    "sinister": []},
        "adjoints": [],
    }


# m, n idempotent; on their composite c ≤ d with d∘c = c∘d = d; an endo-cell
# e of an identity, whiskered to the composite in two ways that disagree
WHISKER_COMPOSE = {
    "whisker-left-compose": three_modes(
        [("n", "p", "q"), ("m", "q", "r"), ("mn", "p", "r")],
        [["m", "n", "mn"]],
        [("e", "id:p", "id:p"), ("ne", "n", "n"),
         ("c", "mn", "mn"), ("d", "mn", "mn")],
        [["e", "e", "e"], ["ne", "ne", "ne"], ["c", "c", "c"],
         ["c", "d", "d"], ["d", "c", "d"], ["d", "d", "d"]],
        [["n", "e", "ne"], ["m", "ne", "c"], ["mn", "e", "d"]], []),
    "whisker-right-compose": three_modes(
        [("k", "p", "q"), ("m", "q", "r"), ("mk", "p", "r")],
        [["m", "k", "mk"]],
        [("e", "id:r", "id:r"), ("em", "m", "m"),
         ("c", "mk", "mk"), ("d", "mk", "mk")],
        [["e", "e", "e"], ["em", "em", "em"], ["c", "c", "c"],
         ["c", "d", "d"], ["d", "c", "d"], ["d", "d", "d"]],
        [], [["e", "m", "em"], ["em", "k", "c"], ["e", "mk", "d"]]),
}


@pytest.mark.parametrize("axiom", list(WHISKER_COMPOSE))
def test_whiskering_along_a_composite_is_whiskering_twice(axiom):
    found = violations(WHISKER_COMPOSE[axiom])
    assert {v.axiom for v in found} == {axiom}, found


# on the inner morphism a, b with b∘a = a; on the composite x, y with
# x∘y = x; whiskering a to y and b to x then sends b∘a = a to y but the
# composite of the whiskers to x∘y = x
WHISKER_FUNCTORIAL = {
    "whisker-left-functorial": three_modes(
        [("n", "p", "q"), ("m", "q", "r"), ("mn", "p", "r")],
        [["m", "n", "mn"]],
        [("a", "n", "n"), ("b", "n", "n"), ("x", "mn", "mn"),
         ("y", "mn", "mn")],
        [["a", "a", "a"], ["a", "b", "b"], ["b", "a", "a"], ["b", "b", "b"],
         ["x", "x", "x"], ["x", "y", "x"], ["y", "x", "y"], ["y", "y", "y"]],
        [["m", "a", "y"], ["m", "b", "x"]], []),
    "whisker-right-functorial": three_modes(
        [("k", "p", "q"), ("m", "q", "r"), ("mk", "p", "r")],
        [["m", "k", "mk"]],
        [("a", "m", "m"), ("b", "m", "m"), ("x", "mk", "mk"),
         ("y", "mk", "mk")],
        [["a", "a", "a"], ["a", "b", "b"], ["b", "a", "a"], ["b", "b", "b"],
         ["x", "x", "x"], ["x", "y", "x"], ["y", "x", "y"], ["y", "y", "y"]],
        [], [["a", "k", "y"], ["b", "k", "x"]]),
}


@pytest.mark.parametrize("axiom", list(WHISKER_FUNCTORIAL))
def test_whiskering_preserves_vertical_composites(axiom):
    found = violations(WHISKER_FUNCTORIAL[axiom])
    assert {v.axiom for v in found} == {axiom}, found


# a on k and b on m idempotent; on m∘k the cells x, y with x∘y = x and
# y∘x = y, so the two ways round the square, x∘y and y∘x, differ
INTERCHANGE = three_modes(
    [("k", "p", "q"), ("m", "q", "r"), ("mk", "p", "r")],
    [["m", "k", "mk"]],
    [("a", "k", "k"), ("b", "m", "m"), ("x", "mk", "mk"),
     ("y", "mk", "mk")],
    [["a", "a", "a"], ["b", "b", "b"], ["x", "x", "x"],
     ["x", "y", "x"], ["y", "x", "y"], ["y", "y", "y"]],
    [["m", "a", "y"]], [["b", "k", "x"]])


def test_interchange_must_hold():
    assert violations(INTERCHANGE) == (Violation(
        "interchange", "(b▷k)∘(m◁a) = x but (m◁a)∘(b▷k) = y"),)


# Two theories that are not locally posetal, each with an idempotent cell
# parallel to an identity cell, so validation runs its full loops
WHISKER_SQUARES = {
    # 1_{id_q}▷k should be 1_k, but is y; m◁y = 1_{m∘k} keeps whiskering
    # associative
    "whisker-right-identity": (three_modes(
        [("k", "p", "q"), ("m", "q", "r"), ("mk", "p", "r")],
        [["m", "k", "mk"]],
        [("y", "k", "k")], [["y", "y", "y"]],
        [["m", "y", "id:mk"]], [["id:id:q", "k", "y"]]),
        "1_id:q▷k = y"),
    # an endo-cell e of id_q whiskered by m is 1_m, so (m◁e)▷k = 1_{m∘k};
    # whiskered by k it is y, and m◁y = x
    "whisker-associative": (three_modes(
        [("k", "p", "q"), ("m", "q", "r"), ("mk", "p", "r")],
        [["m", "k", "mk"]],
        [("e", "id:q", "id:q"), ("y", "k", "k"), ("x", "mk", "mk")],
        [["e", "e", "e"], ["y", "y", "y"], ["x", "x", "x"]],
        [["m", "e", "id:m"], ["m", "y", "x"]], [["e", "k", "y"]]),
        "(m◁e)▷k != m◁(e▷k)"),
}


@pytest.mark.parametrize("axiom", list(WHISKER_SQUARES))
def test_whisker_axiom_flagged_alone(axiom):
    data, message = WHISKER_SQUARES[axiom]
    assert violations(data) == (Violation(axiom, message),)


# --- the opposite theory ---------------------------------------------------------

def two_category(mt):
    return (mt.modes, mt.morphisms, mt.cells, mt.compose_table,
            mt.vcompose_table, mt.wl_table, mt.wr_table)


@pytest.mark.parametrize("name", THEORY_NAMES)
def test_opposite_is_a_2_category_and_an_involution(name):
    # the classes are dropped, so only the identities' classes fail
    mt = load_mode_theory(theory_path(name))
    op = opposite(mt)
    assert {v.axiom for v in validate_mode_theory(op).violations} == \
        {"identity-sharp", "identity-transparent"}
    assert two_category(opposite(op)) == two_category(mt)


def test_opposite_reverses_morphisms_cells_and_whiskering():
    mt = load_mode_theory(theory_path("reflective"))
    op = opposite(mt)
    eta = mt.cell("eta")  # eta: id:p => nu∘mu
    assert op.mor("mu") == Morphism("mu", mt.mor("mu").dst, mt.mor("mu").src)
    assert (op.cell("eta").src, op.cell("eta").dst) == (eta.dst, eta.src)
    assert op.compose("mu", "nu") == mt.compose("nu", "mu")
    assert op.wr("eta", "mu") == mt.wl("mu", "eta")
    assert op.wl("nu", "eta") == mt.wr("eta", "nu")
