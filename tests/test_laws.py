"""The executable law suite and its CLI front end."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from matt import codex, laws
from matt.bundled import DIAGRAM_NAMES, diagram_path, theory_path
from matt.cli import cmd_sem_laws, main
from matt.codex import Adjunction, CodexBundle, build_bundle, enumerate_codex
from matt.errors import CapExceeded, LimitAbsent, ParseError
from matt.fincat import (FinCat, FinFunctor, identity_functor, isomorphic,
                         load_diagram)
from matt.laws import (LAWS, law_adjunction, law_pseudonat,
                       law_radj_triangles, law_universal_property, law_up_ff,
                       run_law_suite)


LAWFUL = ["trivial", "single_arrow", "comonad", "semilattice", "reflective"]


@pytest.mark.parametrize("name", LAWFUL)
def test_all_laws_pass_on_lawful_diagrams(name):
    results = run_law_suite(diagram_path(name))
    assert set(results) == set(LAWS)
    failures = {k: v for k, v in results.items() if not v[0]}
    assert failures == {}, failures


def test_nonpreserving_fails_limit_preservation():
    results = run_law_suite(diagram_path("nonpreserving"))
    ok, detail = results["limit-preservation"]
    assert not ok
    assert "mu" in detail and "meet" in detail
    # everything unrelated to limits still holds
    for name in ["adjunction", "radj-triangles", "pseudonat",
                 "2functor", "universal-property", "up-ff"]:
        assert results[name][0], (name, results[name])


def test_only_filter():
    results = run_law_suite(diagram_path("comonad"), only="adjunction")
    assert set(results) == {"adjunction"}
    assert results["adjunction"][0]


def test_only_unknown_law():
    with pytest.raises(ParseError):
        run_law_suite(diagram_path("comonad"), only="frobnicate")


def sem_laws(name, *args):
    """Exit code and stdout of `matt sem laws` on a bundled diagram, named,
    or on the diagram file at a Path."""
    path = name if isinstance(name, Path) else diagram_path(name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["sem", "laws", str(path), *args])
    return rc, out.getvalue()


def test_jobs_do_not_change_verdicts():
    # --jobs is accepted and has no effect
    bare = sem_laws("nonpreserving")
    assert bare[0] == 1
    assert sem_laws("nonpreserving", "--jobs", "3") == bare


def test_tiny_cap_fails_laws_without_crashing():
    results = run_law_suite(diagram_path("reflective"), cap=0)
    assert all(not ok for ok, _ in results.values())
    assert any("cap" in detail for _, detail in results.values())


def test_cli_sem_laws_pass():
    out = io.StringIO()
    rc = cmd_sem_laws(diagram_path("semilattice"), out=out)
    assert rc == 0
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == len(LAWS)
    assert all(line.startswith("LAW ") and line.endswith("PASS")
               for line in lines)


def test_cli_sem_laws_fail():
    out = io.StringIO()
    rc = cmd_sem_laws(diagram_path("nonpreserving"), out=out)
    assert rc == 1
    assert any("LAW limit-preservation: FAIL" in line
               for line in out.getvalue().splitlines())


def test_cli_sem_laws_missing_file():
    rc = cmd_sem_laws("no/such/diagram.dg", out=io.StringIO())
    assert rc == 2


# --- categories with parallel arrows: the general cone search ----------------

@pytest.mark.parametrize("name", list(DIAGRAM_NAMES) + ["nonpreserving"])
def test_bundled_diagrams_are_thin(name):
    d = load_diagram(diagram_path(name))
    for p in d.mt.modes:
        assert d.cat(p).thin and enumerate_codex(d, p).cat.thin, p


IDEMPOTENT = {"objects": ["*"], "arrows": [["e", "*", "*"]],
              "compose": [["e", "e", "e"]]}
PARALLEL_PAIR = {"objects": ["a", "b", "t"],
                 "arrows": [["f", "a", "b"], ["g", "a", "b"],
                            ["ta", "a", "t"], ["tb", "b", "t"]],
                 "compose": [["tb", "f", "ta"], ["tb", "g", "ta"]]}
Z2 = {"objects": ["*"], "arrows": [["s", "*", "*"]],
      "compose": [["s", "s", "id:*"]]}
NO_LIMIT = "incl(id:q): component at mu of * has no limit"

# name: (theory, the diagram's categories, functors and naturals, the
# failing laws with their details)
NOT_THIN = {
    "idempotent-monoid": ("trivial", {"categories": {"p": IDEMPOTENT}}, {}),
    "parallel-pair": ("trivial", {"categories": {"p": PARALLEL_PAIR}}, {}),
    # Z/2 has no terminal object, so incl(id:q) has no limit to take; the
    # locks and their strictness need no inclusion
    "z2": ("single_arrow", {
        "categories": {"p": Z2, "q": Z2},
        "functors": {"mu": {"objects": {"*": "*"}, "arrows": {"s": "s"}}}},
           {law: NO_LIMIT for law in LAWS
            if law not in ("limit-preservation", "lock-strictness")}),
    # the idempotent monoid at both modes, mu, nu and numu the identity and
    # eta the identity cell: lock(eta) and each identity lock cell have a
    # natural replacement that strictness refuses
    "reflective-monoid": ("reflective", {
        "categories": {"p": IDEMPOTENT, "q": IDEMPOTENT},
        "functors": dict.fromkeys(["mu", "nu", "numu"], {
            "objects": {"*": "*"}, "arrows": {"e": "e"}}),
        "naturals": {"eta": {"components": {"*": "id:*"}}}}, {}),
}


def not_thin_diagram(tmp_path, name):
    theory, data, _ = NOT_THIN[name]
    path = tmp_path / f"{name}.dg"
    path.write_text(json.dumps({"mode_theory": str(theory_path(theory)),
                                **data}))
    return path


@pytest.mark.parametrize("name", list(NOT_THIN))
def test_laws_on_categories_that_are_not_thin(tmp_path, name):
    failing = NOT_THIN[name][2]
    path = not_thin_diagram(tmp_path, name)
    d = load_diagram(path)
    for p in d.mt.modes:
        assert not d.cat(p).thin and not enumerate_codex(d, p).cat.thin, p
    results = run_law_suite(path)
    assert set(results) == set(LAWS)
    assert {law: detail for law, (ok, detail) in results.items()
            if not ok} == failing


# two parallel arrows f, g: a -> b under t; its codex over single_arrow with
# mu the identity is not thin either
FORK = {"objects": ["a", "b", "t"],
        "arrows": [["f", "a", "b"], ["g", "a", "b"],
                   ["h", "a", "t"], ["k", "b", "t"]],
        "compose": [["k", "f", "h"], ["k", "g", "h"]]}


def fork_diagram(tmp_path):
    path = tmp_path / "fork.dg"
    identity = {"objects": {o: o for o in FORK["objects"]},
                "arrows": {a: a for a, _, _ in FORK["arrows"]}}
    path.write_text(json.dumps({
        "mode_theory": str(theory_path("single_arrow")),
        "categories": {"p": FORK, "q": FORK}, "functors": {"mu": identity}}))
    return path


def test_laws_other_than_pointwise_limits_pass_on_a_non_thin_codex(tmp_path):
    path = fork_diagram(tmp_path)
    cx = enumerate_codex(load_diagram(path), "q")
    assert not cx.cat.thin
    assert (len(cx.objects), len(cx.cat.arrows)) == (7, 31)
    results = run_law_suite(path)
    assert {law for law, (ok, _) in results.items() if ok} == \
        set(LAWS) - {"pointwise-limits"}


def test_cap_bounds_the_arrow_search_of_a_codex_that_is_not_thin(tmp_path):
    """At q the fork's codex has 3 x 3 component choices, and its arrow
    search tries 39 component families, one hom-set product per pair of its
    7 objects: the cap counts those families before any is tried.  A thin
    codex has no such search, so only its component product is counted."""
    path = fork_diagram(tmp_path)
    d = load_diagram(path)
    with pytest.raises(CapExceeded) as e:
        enumerate_codex(d, "q", cap=9)
    assert str(e.value) == "codex at q: arrow search size 39 exceeds cap 9"
    assert len(enumerate_codex(d, "q", cap=39).cat.arrows) == 31
    rc, out = sem_laws(path, "--cap", "9")
    assert rc == 1 and "LAW lock-strictness: FAIL (codex at q: arrow search " \
        "size 39 exceeds cap 9)\n" in out
    thin = load_diagram(diagram_path("single_arrow"))
    assert len(enumerate_codex(thin, "q", cap=4).objects) == 3  # 2 x 2


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", [*NOT_THIN, "fork"])
def test_search_order_moves_no_verdict_where_limits_are_searched(
        monkeypatch, tmp_path, name, seed):
    """Criterion 8 on categories that are not thin, where a limit is a
    search over all cones: with the codex constructions' limits and
    first_unpreserved_limit shuffled by seed, every law keeps its
    verdict."""
    path = fork_diagram(tmp_path) if name == "fork" else \
        not_thin_diagram(tmp_path, name)

    def verdicts():
        return {law: ok for law, (ok, _) in run_law_suite(path).items()}

    base = verdicts()
    real_limit, real_first = codex.limit, laws.first_unpreserved_limit

    def shuffled(c, nodes, edges=(), cap=None, order=None):
        return real_limit(c, nodes, edges, cap=cap, order=seed)

    def shuffled_first(c, functors, cap=None, order=None):
        return real_first(c, functors, cap=cap, order=seed)

    monkeypatch.setattr(codex, "limit", shuffled)
    monkeypatch.setattr(laws, "first_unpreserved_limit", shuffled_first)
    assert verdicts() == base


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: pointwise-limits "
                   "checks a binary product the codex has but the paper "
                   "does not compute pointwise")
def test_pointwise_limits_pass_on_a_non_thin_codex(tmp_path):
    results = run_law_suite(fork_diagram(tmp_path), only="pointwise-limits")
    assert results["pointwise-limits"] == (True, "")


# an involution s of one object a, with identity functors on both sides: a
# unit and counit pass the triangles exactly when they compose to the identity
INVOLUTION = FinCat(["a"], [("s", "a", "a")], [("s", "s", "id:a")])


@pytest.mark.parametrize("unit, counit, expected", [
    ("id:a", "id:a", (True, "")),
    ("s", "s", (True, "")),
    ("s", "id:a", (False, "left triangle fails for m at a")),
    ("id:a", "s", (False, "left triangle fails for m at a")),
])
def test_triangle_check_separates_parallel_arrows(unit, counit, expected):
    same = identity_functor(INVOLUTION)
    adj = Adjunction("m", same, same, {"a": unit}, {"a": counit}, {})
    b = CodexBundle(None)
    b.adjunctions = b.right_adjoints = {"m": adj}
    assert law_radj_triangles(None, b, None) == expected
    assert law_adjunction(None, b, None) == expected


# --- each law's own FAIL branch -------------------------------------------------
# Each test takes a lawful input, checks that the law passes, breaks the one
# construction the law reads, and pins the law's detail.

@pytest.mark.parametrize("unit, expected", [
    ("id:a", (True, "")),
    ("s", (False, "right triangle fails for m at b")),
])
def test_right_triangle_fails_on_a_broken_unit(unit, expected):
    """left sends the involution s to the identity of a one-object
    category, so the left triangle holds whatever the unit at a; the right
    one reads the unit itself."""
    one = FinCat(["b"], [], [])
    left = FinFunctor(INVOLUTION, one, {"a": "b"}, {"s": "id:b"})
    right = FinFunctor(one, INVOLUTION, {"b": "a"}, {})
    b = CodexBundle(None)
    b.right_adjoints = {"m": Adjunction("m", left, right, {"a": unit},
                                        {"b": "id:b"}, {})}
    assert law_radj_triangles(None, b, None) == expected


def test_up_ff_fails_on_a_counit_that_is_not_iso(tmp_path):
    d = load_diagram(not_thin_diagram(tmp_path, "idempotent-monoid"))
    b = build_bundle(d)
    counit = b.adjunctions["id:p"].counit
    assert law_up_ff(d, b, None) == (True, "") and counit["*"] == "id:*"
    counit["*"] = "e"  # e∘e = e: no inverse
    assert law_up_ff(d, b, None) == (False, "counit at * in mode p is not iso")


def test_pseudonat_fails_on_a_comparison_that_is_not_iso(tmp_path):
    d = load_diagram(not_thin_diagram(tmp_path, "idempotent-monoid"))
    b = build_bundle(d)
    assert law_pseudonat(d, b, None) == (True, "")
    comparisons = b.comparisons["id:p"]
    delta = next(iter(comparisons))
    comparisons[delta] = "e"
    assert law_pseudonat(d, b, None) == (
        False, f"comparison for id:p at {delta} is not iso")


@pytest.mark.parametrize("same_component", [False, True],
                         ids=["drift", "round-trip"])
def test_universal_property_fails_on_a_broken_dextrified_object(
        monkeypatch, same_component):
    """Over single_arrow, the dextrification at q sends one codex object to
    another one: with another identity component, the component drifts;
    with the same one, the round trip is not iso, as no arrow runs back."""
    d = load_diagram(diagram_path("single_arrow"))
    b = build_bundle(d)
    assert law_universal_property(d, b, None) == (True, "")
    cx = b.codexes["q"]
    x, image = next(
        (x, y) for x in cx.objects for y in cx.objects
        if (x.component("id:q") == y.component("id:q")) == same_component
        and not isomorphic(cx.cat, y, x))
    real = laws.dextrify_colax

    def broken(bundle, g, gamma):
        ghat = real(bundle, g, gamma)
        ghat["q"].omap[x] = image
        return ghat

    monkeypatch.setattr(laws, "dextrify_colax", broken)
    what = "round trip not iso" if same_component else \
        "identity component drifts"
    assert law_universal_property(d, b, None) == (False, f"{what} at q: {x}")


# the lock rows are built once for both laws that read them; only 2functor
# adds the right adjoints' composites
@pytest.mark.parametrize("only", [None, "2functor", "lock-strictness"])
def test_2functor_report_built_once_per_suite(monkeypatch, only):
    composites = 0 if only == "lock-strictness" else 1
    calls = {"lock_diagram": [], "verify_2functor": []}
    for module, name in [(codex, "lock_diagram"), (laws, "verify_2functor")]:
        def counting(bundle, _name=name, _real=getattr(module, name)):
            calls[_name].append(bundle)
            return _real(bundle)
        monkeypatch.setattr(module, name, counting)
    results = run_law_suite(diagram_path("reflective"), only=only)
    assert all(ok for ok, _ in results.values())
    assert [len(c) for c in calls.values()] == [1, composites]


# --- each codex family is built when a law first reads it -----------------------

# reflective.dg: two modes, five morphisms
@pytest.mark.parametrize("only, built", [
    ("limit-preservation", [0, 0, 0]),
    ("up-ff", [2, 5, 0]),
    ("adjunction", [2, 5, 0]),
    (None, [2, 5, 5]),
    ("lock-strictness", [2, 0, 0]),
    ("pointwise-limits", [2, 5, 0]),
])
def test_laws_build_only_the_families_they_read(monkeypatch, only, built):
    counts = dict.fromkeys(["enumerate_codex", "incl",
                            "codex_right_adjoint"], 0)
    for name in counts:
        def counting(*args, _name=name, _real=getattr(codex, name), **kw):
            counts[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(codex, name, counting)
    results = run_law_suite(diagram_path("reflective"), only=only)
    assert all(ok for ok, _ in results.values())
    assert list(counts.values()) == built


def test_each_lock_cell_and_comparison_built_once_per_suite(monkeypatch):
    """One full suite on reflective.dg: each lock is built once, by the
    locks family, which the first right adjoint reads, each lock cell once
    and outside the right adjoints, and each comparison of a right adjoint
    once and outside them."""
    # what each call builds: a lock's morphism, a cell, a (morphism, object)
    keys = {"lock_functor": lambda args: args[1],
            "lock_cell": lambda args: args[1],
            "psnat_component": lambda args: args[1:]}
    calls = {name: [] for name in keys}
    in_radj = []
    for name, key in keys.items():
        def counting(*args, _name=name, _key=key, _real=getattr(codex, name)):
            calls[_name].append((_key(args), bool(in_radj)))
            return _real(*args)
        monkeypatch.setattr(codex, name, counting)

    def radj(*args, _real=codex.codex_right_adjoint, **kw):
        in_radj.append(args[1])
        try:
            return _real(*args, **kw)
        finally:
            in_radj.pop()
    monkeypatch.setattr(codex, "codex_right_adjoint", radj)
    results = run_law_suite(diagram_path("reflective"))
    assert all(ok for ok, _ in results.values())
    d = load_diagram(diagram_path("reflective"))
    mt = d.mt
    assert sorted(m for m, _ in calls["lock_functor"]) == \
        sorted(mt.morphisms)
    assert sorted(calls["lock_cell"]) == [(c, False)
                                          for c in sorted(mt.cells)]
    objects = {p: enumerate_codex(d, p).objects for p in mt.modes}
    assert calls["psnat_component"] == [
        ((m.name, delta), False) for m in mt.morphisms.values()
        for delta in objects[m.src]]


def test_a_right_adjoint_error_fails_only_the_laws_that_read_them(
        monkeypatch):
    def absent(*args, **kw):
        raise LimitAbsent("probe")

    monkeypatch.setattr("matt.codex.codex_right_adjoint", absent)
    results = run_law_suite(diagram_path("reflective"))
    readers = {"radj-triangles", "pseudonat", "2functor",
               "universal-property"}
    assert results == {name: (False, "probe") if name in readers
                       else (True, "") for name in LAWS}


# single_arrow: its codex at p fails first under cap 0; z2: incl(mu) and
# incl(id:p) are built before incl(id:q) finds no limit
@pytest.mark.parametrize("diagram, cap, builder, calls", [
    (lambda tmp: diagram_path("single_arrow"), 0, "enumerate_codex", 1),
    (lambda tmp: not_thin_diagram(tmp, "z2"), None, "incl", 3),
], ids=["single_arrow-cap-0", "z2"])
def test_a_family_that_fails_is_built_once(monkeypatch, tmp_path, diagram,
                                           cap, builder, calls):
    counted = []

    def counting(*args, _real=getattr(codex, builder), **kw):
        counted.append(args)
        return _real(*args, **kw)

    monkeypatch.setattr(codex, builder, counting)
    run_law_suite(diagram(tmp_path), cap=cap)
    assert len(counted) == calls


# --- the law output, pinned byte for byte --------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "sem_laws.txt"
PINNED_ARGS = ([[]] + [["--cap", str(n)] for n in (0, 1, 5, 50)]
               + [["--only", law] for law in sorted(LAWS)])


def render_pinned_runs() -> str:
    """`sem laws` stdout and exit code on every bundled diagram, then on
    the NOT_THIN fixtures and the fork: bare, under four caps and with each
    --only."""
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        diagrams = [*DIAGRAM_NAMES, "nonpreserving"]
        diagrams += [not_thin_diagram(Path(tmp), name) for name in NOT_THIN]
        for diagram in diagrams + [fork_diagram(Path(tmp))]:
            name = getattr(diagram, "stem", diagram)
            for args in PINNED_ARGS:
                rc, out = sem_laws(diagram, *args)
                parts.append(f"== {name}.dg {' '.join(args)}".rstrip()
                             + f" -> exit {rc}\n{out}")
    return "".join(parts)


def test_sem_laws_output_is_pinned():
    assert render_pinned_runs() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    # regenerate the golden file: python tests/test_laws.py
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_pinned_runs(), encoding="utf-8")
