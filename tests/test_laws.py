"""The executable law suite and its CLI front end."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from matt import codex
from matt.bundled import DIAGRAM_NAMES, diagram_path, theory_path
from matt.cli import cmd_sem_laws, main
from matt.codex import (Adjunction, CodexBundle, enumerate_codex,
                        verify_2functor)
from matt.errors import LimitAbsent, ParseError
from matt.fincat import FinCat, identity_functor, load_diagram
from matt.laws import (LAWS, law_adjunction, law_radj_triangles,
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
    """Exit code and stdout of `matt sem laws` on a bundled diagram."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["sem", "laws", str(diagram_path(name)), *args])
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

NOT_THIN = {
    "idempotent-monoid": ("trivial", {"p": IDEMPOTENT}, {}, {}),
    "parallel-pair": ("trivial", {"p": PARALLEL_PAIR}, {}, {}),
    # Z/2 has no terminal object, so incl(id:q) has no limit to take
    "z2": ("single_arrow", {"p": Z2, "q": Z2},
           {"mu": {"objects": {"*": "*"}, "arrows": {"s": "s"}}},
           {law: NO_LIMIT for law in LAWS if law != "limit-preservation"}),
}


def not_thin_diagram(tmp_path, name):
    theory, cats, functors, _ = NOT_THIN[name]
    path = tmp_path / f"{name}.dg"
    path.write_text(json.dumps({"mode_theory": str(theory_path(theory)),
                                "categories": cats, "functors": functors}))
    return path


@pytest.mark.parametrize("name", list(NOT_THIN))
def test_laws_on_categories_that_are_not_thin(tmp_path, name):
    failing = NOT_THIN[name][3]
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


@pytest.mark.parametrize("only", [None, "2functor", "lock-strictness"])
def test_2functor_report_built_once_per_suite(monkeypatch, only):
    calls = []

    def counting(bundle):
        calls.append(bundle)
        return verify_2functor(bundle)

    monkeypatch.setattr("matt.codex.verify_2functor", counting)
    results = run_law_suite(diagram_path("reflective"), only=only)
    assert all(ok for ok, _ in results.values())
    assert len(calls) == 1


# --- each codex family is built when a law first reads it -----------------------

# reflective.dg: two modes, five morphisms
@pytest.mark.parametrize("only, built", [
    ("limit-preservation", [0, 0, 0]),
    ("up-ff", [2, 5, 0]),
    ("adjunction", [2, 5, 0]),
    (None, [2, 5, 5]),
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


def test_a_right_adjoint_error_fails_only_the_laws_that_read_them(
        monkeypatch):
    def absent(*args, **kw):
        raise LimitAbsent("probe")

    monkeypatch.setattr("matt.codex.codex_right_adjoint", absent)
    results = run_law_suite(diagram_path("reflective"))
    readers = {"lock-strictness", "radj-triangles", "pseudonat",
               "pointwise-limits", "2functor", "universal-property"}
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
    """`sem laws` stdout and exit code on every bundled diagram, bare, under
    four caps and with each --only."""
    parts = []
    for name in list(DIAGRAM_NAMES) + ["nonpreserving"]:
        for args in PINNED_ARGS:
            rc, out = sem_laws(name, *args)
            parts.append(f"== {name}.dg {' '.join(args)}".rstrip()
                         + f" -> exit {rc}\n{out}")
    return "".join(parts)


def test_sem_laws_output_is_pinned():
    assert render_pinned_runs() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    # regenerate the golden file: python tests/test_laws.py
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_pinned_runs(), encoding="utf-8")
