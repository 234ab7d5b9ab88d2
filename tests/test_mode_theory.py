"""Mode theory validation and the composition and whiskering tables.

Positive cases are the six bundled presentations; negative cases are ten
mutants, one per axiom class, and probes of the category laws of the
vcompose table, of table totality and of the whisker unit laws.
"""

import copy
import json

import pytest

from matt.bundled import THEORY_NAMES, theory_path
from matt.errors import IllTypedCellExpression, MalformedTable, NotComposable
from matt.mode_theory import (Violation, load_mode_theory,
                              mode_theory_from_data, validate_mode_theory)


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
    with pytest.raises(MalformedTable):
        mt.is_id_cell("id:ghost")


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


def test_mutant_compose_not_associative():
    data = {
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
    check_mutant(data, "compose-associative")


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
    # the table of test_mutant_compose_not_associative, on two endo-cells
    data = {
        "modes": ["p"], "morphisms": [],
        "cells": [{"name": "a", "src": "id:p", "dst": "id:p"},
                  {"name": "b", "src": "id:p", "dst": "id:p"}],
        "compose": [],
        "vcompose": [["a", "a", "b"], ["a", "b", "id:id:p"],
                     ["b", "a", "a"], ["b", "b", "id:id:p"]],
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
