"""The executable law suite and its CLI front end."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from matt.bundled import DIAGRAM_NAMES, diagram_path, theory_path
from matt.cli import cmd_sem_laws, main
from matt.codex import enumerate_codex
from matt.errors import ParseError
from matt.fincat import load_diagram
from matt.laws import LAWS, run_law_suite


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


@pytest.mark.parametrize("name", list(NOT_THIN))
def test_laws_on_categories_that_are_not_thin(tmp_path, name):
    theory, cats, functors, failing = NOT_THIN[name]
    path = tmp_path / f"{name}.dg"
    path.write_text(json.dumps({"mode_theory": str(theory_path(theory)),
                                "categories": cats, "functors": functors}))
    d = load_diagram(path)
    for p in d.mt.modes:
        assert not d.cat(p).thin and not enumerate_codex(d, p).cat.thin, p
    results = run_law_suite(path)
    assert set(results) == set(LAWS)
    assert {law: detail for law, (ok, detail) in results.items()
            if not ok} == failing


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
