"""A ledger of mutants: deliberate faults, each with the tests that catch it.

Each entry names a file under src/, an exact text that occurs there once,
its replacement, and the tests expected to fail once it is made.  Run from
the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The script copies src/, tests/ and pyproject.toml to a temporary directory
and runs pytest there, as pyproject.toml puts its own src/ first on the
path.  It first runs every named test on the unchanged copy, which must
pass.  Then, per mutant, it makes the replacement in the copy and runs only
that mutant's tests, under HYPOTHESIS_PROFILE=no-shrink (tests/conftest.py),
so that a failing example is reported as found and not shrunk.  It exits 1
when a mutant survives that is not marked equivalent, or when a replacement
no longer matches its file exactly once.  Pytest does not collect this
file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the family search against the product filter, on every kind of input
FAMILY_ORACLES = [
    "tests/test_codex.py::"
    "test_families_match_the_reference_on_categories_that_are_not_thin",
    "tests/test_codex.py::"
    "test_families_match_the_reference_on_commuting_comonads",
    "tests/test_thin.py::test_families_match_the_reference_on_frames"]

# name: (file under src/, text, replacement, tests, equivalent or None)
MUTANTS = {
    # the thin arrow map of a functor between codexes, as lock_functor,
    # incl and radj take it: only a doubled frame has an arrow back, so
    # only there does the swapped image exist and go unnoticed by the map
    "lock-arrow-ends-swapped": (
        "matt/codex.py",
        "one = dst.arrow_at(img[i], img[j])",
        "one = dst.arrow_at(img[j], img[i])",
        ["tests/test_thin.py::test_thin_adjoints_match_the_general_path"],
        None),
    # strictness is told that the categories are categories, and checks for
    # itself that the arrow images land before it decides by boundaries
    "lock-strictness-lawful-without-lands": (
        "matt/fincat.py",
        "lands = lawful and all(f.lands_all() for f in self.functors.values())",
        "lands = lawful",
        ["tests/test_boundaries.py::"
         "test_lock_strictness_keeps_its_loops_on_thin_codexes"],
        None),
    "validate-lawful-with-a-broken-category": (
        "matt/fincat.py",
        "lawful = not out",
        "lawful = True",
        ["tests/test_boundaries.py::"
         "test_a_functor_out_of_a_category_not_found_lawful_is_checked"],
        None),
    "thin-factorizations-ignore-pairs": (
        "matt/fincat.py",
        "    pairs = list(pairs)\n",
        "    pairs = [] if c.thin else list(pairs)\n",
        ["tests/test_fincat.py::"
         "test_factorizations_in_a_thin_category_filter_by_the_pairs"],
        None),
    # a thin limit scans the nodes' common lower bounds up the positions,
    # so among isomorphic meets the lowest position is the apex
    "thin-limit-scans-from-the-top": (
        "matt/fincat.py",
        "    for i in _ranks(len(down), order):\n",
        "    for i in reversed(_ranks(len(down), order)):\n",
        ["tests/test_fincat.py::test_thin_limit_among_isomorphic_objects",
         "tests/test_fincat.py::"
         "test_thin_limit_matches_the_reference_on_every_preorder_of_three"],
        None),
    # a thin cone builds a leg when it is read: the arrow from the apex
    "thin-cone-leg-reversed": (
        "matt/fincat.py",
        "return c.arrow_at(i, at[key])",
        "return c.arrow_at(at[key], i)",
        ["tests/test_fincat.py::"
         "test_thin_limit_builds_a_leg_only_when_one_is_read",
         "tests/test_fincat.py::test_thin_limit_matches_the_reference"],
        None),
    # limit lists the legs in the order of its nodes, so incl's comma
    # categories list theirs in the repr order of their keys
    "comma-shapes-unsorted": (
        "matt/codex.py",
        "sorted((t for t in ix.decomps if t.mu == pi),\n"
        "                    key=lambda t: repr(t.key))",
        "(t for t in ix.decomps if t.mu == pi)",
        ["tests/test_codex.py::"
         "test_cones_list_their_legs_in_the_repr_order_of_their_keys"],
        None),
    # the family search tests each decomposition once both of its
    # components are chosen: filed under the earlier one, it reads a
    # choice not yet made
    "family-filed-under-the-earlier-component": (
        "matt/codex.py",
        "        if nu > mu:\n            filed[nu].append((mu, into))",
        "        if nu < mu:\n            filed[nu].append((mu, into))",
        FAMILY_ORACLES, None),
    # families come in itertools.product order, which fixes the objects'
    # order and so every search order downstream
    "families-chosen-in-reverse-order": (
        "matt/codex.py",
        "    mus, cats = ix.mus, ix.cats\n    at =",
        "    mus, cats = ix.mus[::-1], ix.cats\n    at =",
        FAMILY_ORACLES, None),
    # a structure map runs x -> C_rho(z): the mask of the z for one x reads
    # the arrow into the image, not out of it
    "family-mask-ends-swapped": (
        "matt/codex.py",
        "if y is not None and down[y] >> x & 1)",
        "if y is not None and down[x] >> y & 1)",
        FAMILY_ORACLES, None),
    "thin-is-iso-always-true": (
        "matt/fincat.py",
        "return c.arrow_at(ends[1], ends[0]) is not None",
        "return True",
        ["tests/test_boundaries.py::test_thin_isos_match_the_full_loops",
         "tests/test_fincat.py::test_is_iso"],
        None),
    "hom-bijection-returns-before-comparing": (
        "matt/laws.py",
        "                if thin:\n                    lpos, rpos = thin\n",
        "                if thin:\n                    return True, \"\"\n",
        ["tests/test_boundaries.py::"
         "test_thin_hom_bijection_matches_the_full_loops"],
        None),
    "opposite-whiskers-not-swapped": (
        "matt/mode_theory.py",
        "flip(mt.wr_table),\n        flip(mt.wl_table), {}, [])",
        "flip(mt.wl_table),\n        flip(mt.wr_table), {}, [])",
        ["tests/test_mode_theory.py::"
         "test_opposite_reverses_morphisms_cells_and_whiskering"],
        None),
    # over the reflective monoid, eta's whiskers on the two sides differ,
    # so lock(eta)'s replacement names each row by the swapped order
    "opposite-whiskers-not-swapped-in-the-lock-rows": (
        "matt/mode_theory.py",
        "flip(mt.wr_table),\n        flip(mt.wl_table), {}, [])",
        "flip(mt.wl_table),\n        flip(mt.wr_table), {}, [])",
        ["tests/test_codex.py::test_lock_strictness_rejects_a_natural_lock_cell"
         "[eta-C_(nu\\u25c1eta) differs at ]"],
        None),
    "lock-cell-ends-swapped": (
        "matt/codex.py",
        "fm2, fm = bundle.locks[c.dst], bundle.locks[c.src]",
        "fm2, fm = bundle.locks[c.src], bundle.locks[c.dst]",
        ["tests/test_codex.py::test_lock_strictness_reflective"],
        None),
    "thin-comp-first-factor": (
        "matt/fincat.py",
        "return self.arrows[f[0], g[1]].name",
        "return g",
        ["tests/test_codex.py::test_constructions_return_enumerated_instances"],
        None),
    "codex-component-ends-swapped": (
        "matt/codex.py",
        "one_arrow(a.src.component(mu),\n"
        "                                                 a.dst.component(mu))",
        "one_arrow(a.dst.component(mu),\n"
        "                                                 a.src.component(mu))",
        ["tests/test_thin.py::test_thin_codex_meets_the_general_equations"],
        None),
    # each tree pass hands back a node it cannot change; widened, a guard
    # hands back one it should have changed
    "push-lock-passes-any-identity": (
        "matt/syntax.py",
        "if mor == id_mor_name(ctx.mode):",
        "if mor.startswith(\"id:\"):",
        ["tests/test_syntax.py::"
         "test_push_lock_identity_of_another_mode_is_a_mismatch",
         "tests/test_checker.py::"
         "test_an_identity_lock_at_another_mode_is_a_mode_mismatch"],
        None),
    "subst-passes-any-constant": (
        "matt/syntax.py",
        "    if type(t) is Const and not t.args:\n        return t\n"
        "    kids = []\n    for u, _, _, _ in children(t):",
        "    if type(t) is Const:\n        return t\n"
        "    kids = []\n    for u, _, _, _ in children(t):",
        ["tests/test_syntax.py::test_apply_key_on_deep_term",
         "tests/test_syntax.py::"
         "test_subst_and_rename_var_match_full_traversals[reflective]"],
        None),
    "rename-passes-any-constant": (
        "matt/syntax.py",
        "    if type(t) is Const and not t.args:\n        return t\n"
        "    kids = []\n    for u, _, _, bound in children(t):",
        "    if type(t) is Const:\n        return t\n"
        "    kids = []\n    for u, _, _, bound in children(t):",
        ["tests/test_checker.py::test_eta_pi_under_variable_arguments",
         "tests/test_syntax.py::"
         "test_subst_and_rename_var_match_full_traversals[reflective]"],
        None),
    "apply-key-passes-any-constant": (
        "matt/syntax.py",
        "if mt.is_id_cell(c) or type(t) is Const and not t.args:",
        "if mt.is_id_cell(c) or type(t) is Const:",
        ["tests/test_syntax.py::test_apply_key_lock_of_each_slot[Const.arg1]",
         "tests/test_syntax.py::test_apply_key_matches_full_traversal"
         "[semilattice]"],
        None),
    "apply-key-guard-passes-any-constant": (
        "matt/syntax.py",
        "if mt.is_id_cell(beta) or type(t) is Const and not t.args:",
        "if mt.is_id_cell(beta) or type(t) is Const:",
        ["tests/test_syntax.py::test_apply_key_lock_of_each_slot[Const.arg1]"],
        None),
    # a type constant with no arguments skips the spine check, but not
    # the check of its mode
    "type-constant-guard-ignores-mode": (
        "matt/checker.py",
        "if not a.args and not decl.params and decl.mode == ctx.mode:",
        "if not a.args and not decl.params:",
        ["tests/test_checker.py::"
         "test_a_type_constant_at_another_mode_is_a_mode_mismatch"],
        None),
    # the parser reads token kinds directly: a lone name is one followed
    # by no ":", and a name followed by "^" carries the key after it
    "qualified-lone-name-ignores-colon": (
        "matt/parser.py",
        'if self.kinds[p] == "name" and self.kinds[p + 1] != ":":',
        'if self.kinds[p] == "name":',
        ["tests/test_acceptance.py::test_criterion_2_checker_positives"],
        None),
    "atom-drops-its-key": (
        "matt/parser.py",
        "return Var(text, self.qualified(), at)",
        "return Var(text, self.qualified() and None, at)",
        ["tests/test_parser.py::test_keyed_variables_as_spine_arguments",
         "tests/test_corpus.py::test_positive_files_individually"],
        None),
    "check-type-passes-a-constant-with-arguments": (
        "matt/checker.py",
        "return Const(a.name, args, a.span) if args else a",
        "return a",
        ["tests/test_checker.py::test_eta_pi_under_constant_arguments",
         "tests/test_syntax.py::test_apply_key_on_deep_term"],
        None),
}


def pytest(copy: Path, tests: list) -> int:
    env = {**os.environ, "HYPOTHESIS_PROFILE": "no-shrink",
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run(names: list) -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, copy / d, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        src = copy / "src"
        tests = sorted({t for n in names for t in MUTANTS[n][3]})
        if pytest(copy, tests) != 0:
            print("the named tests fail on the unchanged source")
            return 1
        for name in names:
            file, old, new, tests, equivalent = MUTANTS[name]
            path = src / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the text occurs {text.count(old)} times in "
                      f"{file}")
                bad.append(name)
                continue
            start = time.monotonic()
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                code = pytest(copy, tests)
            finally:
                path.write_text(text, encoding="utf-8")
            took = f"{time.monotonic() - start:.1f} s"
            if code == 1:
                print(f"{name}: caught ({took})")
            elif code == 0 and equivalent:
                print(f"{name}: survives, equivalent: {equivalent} ({took})")
            else:
                print(f"{name}: " + ("SURVIVES" if code == 0 else
                                     f"pytest exit {code}") + f" ({took})")
                bad.append(name)
    return 1 if bad else 0


if __name__ == "__main__":
    asked = sys.argv[1:] or list(MUTANTS)
    unknown = [n for n in asked if n not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}; known: "
                 + ", ".join(MUTANTS))
    sys.exit(run(asked))
