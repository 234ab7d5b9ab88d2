"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with -s to see the lines; each test also enforces its runtime bound.
"""

import re
import time
from contextlib import contextmanager
from functools import lru_cache

import test_checker
import test_mode_theory

from matt.bundled import FIXTURES, THEORY_NAMES, diagram_path, theory_path
from matt.cli import check_file
from matt.codex import (build_bundle, dextrify_colax, enumerate_codex,
                        isomorphic, reflect, reflect_colax)
from matt import codex as codex_mod
from matt import fincat as fincat_mod
from matt import laws as laws_mod
from matt.fincat import Diagram, FinFunctor, load_diagram, poset_category
from matt.laws import law_pointwise_limits, run_law_suite
from matt.mode_theory import load_mode_theory, validate_mode_theory

CORPUS = FIXTURES / "corpus"


@contextmanager
def criterion(n, name, bound=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    if bound is not None:
        assert dt < bound, f"{name}: {dt:.2f}s exceeds {bound}s"
    print(f"\nACCEPTANCE {n} ({name}): PASS [{dt:.2f}s]")


def test_criterion_1_mode_theory_axioms():
    with criterion(1, "mode-theory axioms", bound=1.0):
        for name in THEORY_NAMES:
            report = validate_mode_theory(load_mode_theory(theory_path(name)))
            assert report.ok, (name, report.violations)
        mutants = [f for n, f in vars(test_mode_theory).items()
                   if n.startswith("test_mutant_")]
        assert len(mutants) == 10
        for f in mutants:
            f()  # each asserts the exact violated axiom


def test_criterion_2_checker_positives():
    with criterion(2, "checker positives", bound=1.0):
        total = 0
        for p in sorted(CORPUS.glob("*_ok.matt")):
            diags, n = check_file(p, None)
            assert not diags, (p.name, [d.render() for d in diags])
            total += n
        assert total >= 25, total
        # the nonidentity transparent frame elimination, specifically
        assert "let[a, a] mod" in (CORPUS / "semilattice_ok.matt").read_text()
        test_checker.test_letmod_with_nonidentity_transparent_frame()


def test_criterion_3_checker_negatives():
    with criterion(3, "checker negatives"):
        negatives = sorted(p for p in CORPUS.glob("*.matt")
                           if not p.name.endswith("_ok.matt"))
        assert len(negatives) >= 15
        seen = {}
        for p in negatives:
            m = re.search(r"-- expected: (\w+)", p.read_text())
            diags, _ = check_file(p, None)
            assert diags and diags[0].code == m.group(1), \
                (p.name, [d.render() for d in diags])
            seen[p.name] = diags[0].code
        assert "NotSharp" in seen.values()        # F over a sinister modality
        assert seen["2ltt_fibrant.matt"] == "NotSharp"  # modal Pi over iota
        assert "KeyTypeMismatch" in seen.values()


def test_criterion_4_conversion_suite():
    with criterion(4, "conversion suite"):
        test_checker.test_beta_pi()
        test_checker.test_beta_f()
        test_checker.test_beta_u_and_eta_u()
        test_checker.test_eta_pi()
        test_checker.test_no_eta_f()
        test_checker.test_dra_round_trips_on_shut_terms()


def test_criterion_5_codex_shape():
    with criterion(5, "codex shape", bound=1.0):
        d = load_diagram(diagram_path("single_arrow"))
        cx_q = enumerate_codex(d, "q")
        assert len(cx_q.objects) == 3
        # brute force over the comma category: arrows x -> C_mu(y)
        cq, cp, fmu = d.cat("q"), d.cat("p"), d.fun("mu")
        brute = [(x, y, f) for x in cq.objects for y in cp.objects
                 for f in cq.hom(x, fmu.omap[y])]
        assert len(brute) == len(cx_q.objects)
        b = build_bundle(d)
        cx_p = b.codexes["p"]
        r = reflect(b, "id:p")
        assert len(cx_p.objects) == len(cp.objects)
        assert len(cx_p.cat.arrows) == len(cp.arrows)
        assert sorted(r.omap.values()) == sorted(cp.objects)


LAWFUL = ["trivial", "single_arrow", "comonad", "semilattice", "reflective"]


def test_criterion_6_law_suite():
    with criterion(6, "law suite", bound=30.0):
        for name in LAWFUL:
            results = run_law_suite(diagram_path(name))
            bad = {k: v for k, v in results.items() if not v[0]}
            assert bad == {}, (name, bad)
        # and the deliberately broken diagram is caught
        results = run_law_suite(diagram_path("nonpreserving"))
        assert not results["limit-preservation"][0]


def test_criterion_7_universal_property():
    with criterion(7, "universal property", bound=10.0):
        for name in ["single_arrow", "comonad"]:
            d = load_diagram(diagram_path(name))
            b = build_bundle(d)
            g, gamma = reflect_colax(b)
            ghat = dextrify_colax(b, g, gamma)
            for r in d.mt.modes:
                cx = b.codexes[r]
                for obj in cx.objects:
                    im = ghat[r].omap[obj]
                    assert im.component(d.mt.id_mor(r)) == g[r].omap[obj]
                    assert isomorphic(cx.cat, im, obj), (name, r, obj)


def test_criterion_8_metamorphic():
    with criterion(8, "metamorphic stability"):
        # (a) permuting the limit-search order changes no law verdict: the
        # limits of the codex constructions and the meets of the two limit
        # laws
        def verdicts(name):
            return {k: v[0] for k, v in run_law_suite(diagram_path(name)).items()}

        base = {n: verdicts(n) for n in ["comonad", "nonpreserving"]}
        real_limit = fincat_mod.limit
        real_first = fincat_mod.first_unpreserved_limit
        try:
            for seed in range(3):
                def shuffled(c, nodes, edges=(), cap=None, _s=seed, **kw):
                    return real_limit(c, nodes, edges, cap=cap, order=_s)

                def shuffled_first(c, functors, cap=None, _s=seed, **kw):
                    return real_first(c, functors, cap=cap, order=_s)
                codex_mod.limit = shuffled
                laws_mod.first_unpreserved_limit = shuffled_first
                for n, expect in base.items():
                    assert verdicts(n) == expect, (n, seed)
        finally:
            codex_mod.limit = real_limit
            laws_mod.first_unpreserved_limit = real_first

        # (b) permuting declaration order changes no checker verdict
        src = (CORPUS / "single_arrow_ok.matt").read_text()
        decls = [d.strip() for d in src.split(";") if d.strip()]
        defs = [i for i, d in enumerate(decls) if d.startswith("def")]
        assert len(defs) >= 2
        permuted = decls[:]
        permuted[defs[0]], permuted[defs[-1]] = \
            permuted[defs[-1]], permuted[defs[0]]
        tmp = CORPUS / "_acceptance_tmp.matt"
        try:
            tmp.write_text(";\n".join(permuted) + ";\n")
            diags, n = check_file(tmp, None)
            assert not diags, [d.render() for d in diags]
            assert n == len(decls) - 1
        finally:
            tmp.unlink(missing_ok=True)


def _single_arrow_chain(n):
    """single_arrow with both modes a chain of n and mu the identity."""
    mt = load_mode_theory(theory_path("single_arrow"))
    chain = [str(i) for i in range(n)]
    cats = {p: poset_category(chain, lambda x, y: int(x) <= int(y), name=p)
            for p in ("p", "q")}
    mu = FinFunctor(cats["p"], cats["q"], {o: o for o in chain},
                    {a: a for a in cats["p"].arrows}, name="mu")
    d = Diagram(mt, cats, {"mu": mu}, {})
    assert d.validate() == []
    return d


def test_criterion_9_scaled_semantics():
    d = _single_arrow_chain(6)
    with criterion(9, "scaled semantics", bound=1.0):
        b = build_bundle(d)
        ok, detail = law_pointwise_limits(d, b, None)
        assert ok, detail
        cx = b.codexes["q"]
        assert (len(cx.objects), len(cx.cat.arrows)) == (21, 196)


def test_criterion_10_scaled_semantics():
    d = _single_arrow_chain(10)
    with criterion(10, "scaled semantics, n=10", bound=1.0):
        b = build_bundle(d)
        ok, detail = law_pointwise_limits(d, b, None)
        assert ok, detail
        cx = b.codexes["q"]
        assert (len(cx.objects), len(cx.cat.arrows)) == (55, 1210)
