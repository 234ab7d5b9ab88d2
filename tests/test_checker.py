"""Bidirectional checking, weak-head reduction, and conversion."""

import re

import pytest

from matt.bundled import theory_path
from matt.checker import Kernel, NoMotive
from matt.cli import check_file, main
from matt.errors import (ConversionFailure, ExpectedF, ExpectedPi,
                         KeyTypeMismatch, NotSharp, NotSinister,
                         NotTransparent, UnknownConstant)
from matt.mode_theory import load_mode_theory
from matt.syntax import (App, Const, ConstDecl, FMod, Lam, LetMod, ModIntro,
                         Open, Param, Pi, Shut, Signature, UMod, Var,
                         empty_context, push_var)


def kernel(theory, consts=()):
    mt = load_mode_theory(theory_path(theory))
    sig = Signature()
    for decl in consts:
        sig.declare(decl)
    return Kernel(mt, sig)


A = Const("A", ())
B = Const("B", ())


def single_arrow_kernel():
    return kernel("single_arrow", [
        ConstDecl("A", "p", (), None),
        ConstDecl("A2", "p", (), None),
        ConstDecl("B", "q", (), None),
        ConstDecl("a0", "p", (), A),
    ])


# --- positives ---------------------------------------------------------------

def test_identity_function_checks():
    k = single_arrow_kernel()
    ctx = empty_context("q")
    ty = Pi("id:q", "x", B, B)
    t = k.check(ctx, Lam("x", Var("x", None)), k.check_type(ctx, ty))
    assert isinstance(t, Lam)
    assert t.body.key == "id:id:q"  # the omitted key elaborates to an identity


def test_modal_intro_checks():
    k = single_arrow_kernel()
    ctx = empty_context("q")
    t = k.check(ctx, ModIntro("mu", Const("a0", ())), FMod("mu", A))
    assert isinstance(t, ModIntro)


def test_modal_elim_infers_and_reduces():
    k = single_arrow_kernel()
    ctx = push_var(k.mt, empty_context("q"), "y", "id:q", FMod("mu", A))
    t = LetMod("id:q", "mu", "w", FMod("mu", A), Var("y", None), "x",
               ModIntro("mu", Var("x", None)))
    ty, t_e = k.infer(ctx, t)
    assert k.convert_types(ctx, ty, FMod("mu", A))
    # with a mod-scrutinee the let reduces to the substituted branch
    t2 = LetMod("id:q", "mu", "w", FMod("mu", A),
                ModIntro("mu", Const("a0", ())), "x",
                ModIntro("mu", Var("x", "id:mu")))
    red = k.whnf(empty_context("q"), t2)
    assert red == ModIntro("mu", Const("a0", ()))


def test_variable_under_lock_uses_key():
    # semilattice: a is sharp and transparent; le : a => id:p opens the lock
    k = kernel("semilattice", [ConstDecl("A", "p", (), None),
                               ConstDecl("a0", "p", (), A)])
    ctx = push_var(k.mt, empty_context("p"), "x", "id:p", A)
    # x used under an a-lock needs a key id:p => a; none exists
    with pytest.raises(KeyTypeMismatch):
        k.check(ctx, ModIntro("a", Var("x", None)), FMod("a", A))
    # the other direction works: x :^a A used at an identity boundary via le
    ctx2 = push_var(k.mt, empty_context("p"), "y", "a", A)
    ty, _ = k.infer(ctx2, Var("y", "le"))
    assert k.convert_types(ctx2, ty, A)


def test_letmod_with_nonidentity_transparent_frame():
    k = kernel("semilattice", [ConstDecl("A", "p", (), None)])
    ctx = push_var(k.mt, empty_context("p"), "z", "a", FMod("a", A))
    t = LetMod("a", "a", "w", FMod("a", A), Var("z", "id:a"), "x",
               ModIntro("a", Var("x", None)))
    ty, _ = k.infer(ctx, t)
    assert k.convert_types(ctx, ty, FMod("a", A))


def test_shut_open_round_trip_type():
    k = kernel("2ltt", [ConstDecl("B", "f", (), None),
                        ConstDecl("b0", "f", (), Const("B", ()))])
    ctx = empty_context("f")
    ty, t = k.infer(ctx, Open("iota", Shut("iota", Const("b0", ()))))
    assert k.convert_types(ctx, ty, Const("B", ()))
    assert k.convert(ctx, Const("B", ()), t, Const("b0", ()))


def test_telescoped_constant():
    mt_list = Pi("id:p", "x", A, A)
    k = kernel("single_arrow", [
        ConstDecl("A", "p", (), None),
        ConstDecl("a0", "p", (), A),
        ConstDecl("El", "p", (Param("x", "id:p", A),), None),
        ConstDecl("refl", "p", (Param("x", "id:p", A),),
                  Const("El", (Var("x", "id:id:p"),))),
    ])
    ctx = empty_context("p")
    ty, t = k.infer(ctx, Const("refl", (Const("a0", ()),)))
    assert ty == Const("El", (Const("a0", ()),))
    assert k.check_type(ctx, ty)
    assert k.check_type(ctx, mt_list)


# --- conversion --------------------------------------------------------------

def test_beta_pi():
    k = single_arrow_kernel()
    ctx = empty_context("p")
    redex = App(Lam("x", Var("x", "id:id:p")), Const("a0", ()), mor="id:p")
    assert k.convert(ctx, A, redex, Const("a0", ()))


def test_eta_pi():
    k = single_arrow_kernel()
    pi = Pi("id:p", "x", A, A)
    ctx = push_var(k.mt, empty_context("p"), "f", "id:p", pi)
    f = Var("f", "id:id:p")
    expanded = Lam("x", App(f, Var("x", "id:id:p"), mor="id:p"))
    assert k.convert(ctx, pi, f, expanded)


def test_eta_pi_under_constant_arguments(tmp_path):
    # h's argument is compared at h's parameter type, a Pi, so η holds
    # there; a different constant in the same place still fails
    f = tmp_path / "eta.matt"
    f.write_text("const A : Type @ p;\n"
                 "const h : (f : (x : A) -> A) A @ p;\n"
                 "const R : (y : A) Type @ p;\n"
                 "const gg : ((x : A) -> A) @ p;\n"
                 "const gg2 : ((x : A) -> A) @ p;\n"
                 "const r0 : R (h gg) @ p;\n"
                 "def d @ p : R (h (\\x. gg x)) = r0;\n"
                 "def d2 @ p : R (h gg2) = r0;\n")
    diags, n = check_file(f, load_mode_theory(theory_path("trivial")))
    assert n == 7
    [d2] = diags
    assert (d2.code, d2.line) == ("ConversionFailure", 8)
    assert "constants differ: gg vs gg2" in d2.trace


def test_eta_pi_under_variable_arguments(tmp_path):
    f = tmp_path / "eta.matt"
    f.write_text("const A : Type @ p;\n"
                 "const R : (y : A) Type @ p;\n"
                 "const gg : ((x : A) -> A) @ p;\n"
                 "def d @ p : (f : (k : (x : A) -> A) -> A) -> "
                 "(r : R (f gg)) -> R (f (\\x. gg x)) = \\f. \\r. r;\n")
    diags, n = check_file(f, load_mode_theory(theory_path("trivial")))
    assert (diags, n) == ([], 4)


def test_eta_pi_under_variable_arguments_behind_a_lock(tmp_path):
    # f's argument sits under the lock mu of f's Pi, and is compared there
    # at the Pi's domain; a different constant in its place still fails
    f = tmp_path / "eta.matt"
    sig = ("(f : (k :^ mu ((x : A) -> A)) -> B) -> (r : R (f gg)) -> R ")
    f.write_text("const A : Type @ p;\n"
                 "const gg : ((x : A) -> A) @ p;\n"
                 "const gg2 : ((x : A) -> A) @ p;\n"
                 "const B : Type @ q;\n"
                 "const R : (y : B) Type @ q;\n"
                 f"def d @ q : {sig}(f (\\x. gg x)) = \\f. \\r. r;\n"
                 f"def d2 @ q : {sig}(f gg2) = \\f. \\r. r;\n")
    diags, n = check_file(f, load_mode_theory(theory_path("single_arrow")))
    assert n == 6
    [d2] = diags
    assert (d2.code, d2.line) == ("ConversionFailure", 7)
    assert "constants differ: gg vs gg2" in d2.trace


def _r_of_g_under_let(tmp_path, motive, body_t, body_u, ydom="F[mu] A"):
    """A file whose one definition holds when g (let mod x = y in body_t)
    and g (let mod x = y in body_u) are convertible, compared as arguments
    of a variable g at mode q of single_arrow."""
    def arg(body):
        return f"g (let[id:q, mu] mod x = y in {body} motive {motive})"
    f = tmp_path / "let.matt"
    f.write_text("const A : Type @ p;\n"
                 "const a0 : A @ p;\n"
                 "const a1 : A @ p;\n"
                 "const gg : ((w : A) -> A) @ p;\n"
                 "const B : Type @ q;\n"
                 "const R : (y : B) Type @ q;\n"
                 f"def d @ q : (y : {ydom}) -> (g : (k : {motive}) -> B) -> "
                 f"(r : R ({arg(body_t)})) -> R ({arg(body_u)}) = "
                 "\\y. \\g. \\r. r;\n")
    return check_file(f, load_mode_theory(theory_path("single_arrow")))


def test_spine_headed_by_a_let_bound_variable(tmp_path):
    # the let's bound variable is typed while its branches are compared, so
    # a spine it heads compares by its Pi type
    ydom, motive = "F[mu] ((w : A) -> A)", "F[mu] A"
    assert _r_of_g_under_let(tmp_path, motive, "mod[mu] (x a0)",
                             "mod[mu] (x a0)", ydom) == ([], 7)
    ([d], n) = _r_of_g_under_let(tmp_path, motive, "mod[mu] (x a0)",
                                 "mod[mu] (x a1)", ydom)
    assert (n, d.code, d.line) == (6, "ConversionFailure", 7)
    assert "constants differ: a0 vs a1" in d.trace
    # η under x's argument
    ydom = "F[mu] ((k : (w : A) -> A) -> A)"
    assert _r_of_g_under_let(tmp_path, motive, "mod[mu] (x gg)",
                             "mod[mu] (x (\\w. gg w))", ydom) == ([], 7)


def test_spine_headed_by_a_lambda_variable_in_a_branch(tmp_path):
    # two λ branches compare by η at the motive, a Pi, so the binder is a
    # typed variable and a spine it heads compares by its Pi type
    motive = "(v : (w :^ mu A) -> B) -> B"
    assert _r_of_g_under_let(tmp_path, motive, "\\v. v x",
                             "\\v. v x") == ([], 7)
    ([d], n) = _r_of_g_under_let(tmp_path, motive, "\\v. v x",
                                 "\\v. v a0")
    assert (n, d.code, d.line) == (6, "ConversionFailure", 7)
    assert d.trace[-1].startswith("head mismatch: z") and \
        d.trace[-1].endswith(" vs a0")


def test_eta_pi_inside_a_let_mod_branch(tmp_path):
    # the branches are compared at the motive, a Pi, so η holds there
    def let(body):
        return f"let[id:q, mu] mod x = y in {body} motive (z : B) -> B"

    def check(branch):
        return check_lines(tmp_path, "single_arrow", [
            "const A : Type @ p;", "const B : Type @ q;",
            "const R : (r : (z : B) -> B) Type @ q;",
            "const ff : ((x :^ mu A) -> (z : B) -> B) @ q;",
            f"def d @ q : (y : F[mu] A) -> (r : R ({let('ff x')})) -> "
            f"R ({let(branch)}) = \\y. \\r. r;"])

    assert check(r"\z. ff x z") == ([], 5)
    ([d], n) = check(r"\z. ff x (ff x z)")
    assert (n, d.code, d.line) == (4, "ConversionFailure", 5)
    assert d.trace[-1].startswith("head mismatch: z")


def test_eta_u_inside_a_let_mod_branch(tmp_path):
    def let(body):
        return f"let[id:e, id:e] mod x = y in {body} motive U[iota] B"
    assert check_lines(tmp_path, "2ltt", [
        "const B : Type @ f;", "const C : Type @ e;",
        "const h : (x : C) U[iota] B @ e;",
        "const Q : (M : U[iota] B) Type @ e;",
        f"def d @ e : (y : F[id:e] C) -> (r : Q ({let('h x')})) -> "
        f"Q ({let('shut[iota] open[iota] (h x)')}) = \\y. \\r. r;"]) == \
        ([], 5)


@pytest.mark.parametrize("decl", [
    "const k : ((x :^ mu A) -> B) @ q; def g @ q : (y : F[mu] A) -> B = k;",
    "const m : F[mu] A @ q; def n @ q : F[id:q] (F[mu] A) = m;",
], ids=["pi", "f"])
def test_a_modality_mismatch_leaves_one_trace_line(tmp_path, decl):
    ([d], _) = check_lines(tmp_path, "single_arrow",
                           ["const A : Type @ p;", "const B : Type @ q;",
                            decl])
    assert d.code == "ConversionFailure"
    assert d.trace == ("modalities differ: mu vs id:q",)


def test_two_variables_leave_a_trace_line(tmp_path):
    ([d], n) = check_lines(tmp_path, "single_arrow", [
        "const B : Type @ q;", "const R : (b : B) Type @ q;",
        r"def d @ q : (x : B) -> (y : B) -> (r : R x) -> R y = \x. \y. \r. r;"])
    assert (n, d.code, d.line) == (2, "ConversionFailure", 3)
    assert re.fullmatch(r"variables differ: x!\d+\^id:id:q vs y!\d+\^id:id:q",
                        *d.trace)


def _under_let(tmp_path, theory, mode, decls, ydom, zdom, left, right,
               motive):
    """R of one let-mod with scrutinee y against R of another with
    scrutinee z, each branch a constant, so both stay neutral."""
    return check_lines(tmp_path, theory, [
        *decls, f"const R : (c : {motive}) Type @ {mode};",
        f"def d @ {mode} : (y : {ydom}) -> (z : {zdom}) -> "
        f"(r : R ({left})) -> R ({right}) = \\y. \\z. \\r. r;"])


def test_let_mod_neutrals_with_other_modalities_differ(tmp_path):
    ([d], _) = _under_let(
        tmp_path, "comonad", "p",
        ["const A : Type @ p;", "const C : Type @ p;", "const c0 : C @ p;"],
        "F[m] A", "F[id:p] A", "let[id:p, m] mod x = y in c0 motive C",
        "let[id:p, id:p] mod x = z in c0 motive C", "C")
    assert d.code == "ConversionFailure"
    assert d.trace == ("modalities differ: m vs id:p",)


def test_let_mod_neutrals_with_other_scrutinees_differ(tmp_path):
    ([d], _) = _under_let(
        tmp_path, "single_arrow", "q",
        ["const A : Type @ p;", "const B : Type @ q;", "const b0 : B @ q;"],
        "F[mu] A", "F[mu] A", "let[id:q, mu] mod x = y in b0 motive B",
        "let[id:q, mu] mod x = z in b0 motive B", "B")
    assert d.code == "ConversionFailure"
    assert re.fullmatch(r"variables differ: y!\d+\^id:id:q vs z!\d+\^id:id:q",
                        *d.trace)


def test_open_neutrals_with_other_bodies_differ(tmp_path):
    ([d], n) = check_lines(tmp_path, "2ltt", [
        "const B : Type @ f;", "const P : (b : B) Type @ f;",
        "const h1 : U[iota] B @ e;", "const h2 : U[iota] B @ e;",
        "def d @ f : (r : P (open[iota] h1)) -> P (open[iota] h2) = \\r. r;"])
    assert (n, d.code, d.line) == (4, "ConversionFailure", 5)
    assert d.trace == ("constants differ: h1 vs h2",)


def test_other_modalities_under_u_and_open_differ():
    """2ltt has one sinister morphism, so no program writes two U or two
    open at other modalities; the kernel compares them as it would, by the
    modality first, though the types and bodies under them agree."""
    k = kernel("2ltt", [ConstDecl("B", "f", (), None),
                        ConstDecl("h", "e", (), UMod("iota", Const("B", ())))])
    ctx = empty_context("e")
    assert not k.convert_types(ctx, UMod("iota", B), UMod("iotainv", B))
    assert k.trace == ["modalities differ: iota vs iotainv"]
    k.trace.clear()
    h = Const("h", ())
    assert k._neutral(empty_context("f"), Open("iota", h),
                      Open("iotainv", h)) is None
    assert k.trace == ["modalities differ: iota vs iotainv"]


def test_a_constant_head_is_typed_without_rechecking_its_spine(
        tmp_path, monkeypatch):
    # the head c a0 of the spine c a0 a0 is typed from its elaborated
    # argument, so comparing two such spines elaborates nothing again
    calls, depth = [], [0]
    convert_types, spine_types = Kernel.convert_types, Kernel._spine_types

    def counting_convert_types(self, *args):
        depth[0] += 1
        try:
            return convert_types(self, *args)
        finally:
            depth[0] -= 1

    def counting_spine_types(self, ctx, name, args):
        if depth[0]:
            calls.append(name)
        return spine_types(self, ctx, name, args)

    monkeypatch.setattr(Kernel, "convert_types", counting_convert_types)
    monkeypatch.setattr(Kernel, "_spine_types", counting_spine_types)
    assert check_lines(tmp_path, "trivial", [
        "const A : Type @ p;", "const a0 : A @ p;",
        "const c : (x : A) ((y : A) -> A) @ p;",
        "const R : (x : A) Type @ p;",
        "const r : R (c (c a0 a0) a0) @ p;",
        "def d @ p : R (c (c a0 a0) a0) = r;"]) == ([], 6)
    assert calls == []


def test_beta_f():
    k = single_arrow_kernel()
    ctx = empty_context("q")
    t = LetMod("id:q", "mu", "w", FMod("mu", A),
               ModIntro("mu", Const("a0", ())), "x",
               ModIntro("mu", Var("x", "id:mu")))
    assert k.convert(ctx, FMod("mu", A), t, ModIntro("mu", Const("a0", ())))


def test_no_eta_f():
    k = single_arrow_kernel()
    fa = FMod("mu", A)
    ctx = push_var(k.mt, empty_context("q"), "y", "id:q", fa)
    y = Var("y", "id:id:q")
    expanded = LetMod("id:q", "mu", "w", fa, y, "x",
                      ModIntro("mu", Var("x", "id:mu")))
    ty, exp_e = k.infer(ctx, expanded)  # well typed...
    assert k.convert_types(ctx, ty, fa)
    assert not k.convert(ctx, fa, y, exp_e)  # ...but not judgmentally equal


def test_beta_u_and_eta_u():
    k = kernel("2ltt", [ConstDecl("B", "f", (), None),
                        ConstDecl("b0", "f", (), Const("B", ()))])
    bty = Const("B", ())
    # beta: open (shut M) == M
    ctx = empty_context("f")
    assert k.convert(ctx, bty, Open("iota", Shut("iota", Const("b0", ()))),
                     Const("b0", ()))
    # eta: M == shut (open M) for M : U[iota] B
    uty = UMod("iota", bty)
    ctx_e = push_var(k.mt, empty_context("e"), "M", "id:e", uty)
    m = Var("M", "id:id:e")
    expanded = Shut("iota", Open("iota", Var("M", "id:id:e")))
    ty, exp_e = k.infer(ctx_e, expanded)
    assert k.convert_types(ctx_e, ty, uty)
    assert k.convert(ctx_e, uty, m, exp_e)


def test_dra_round_trips_on_shut_terms():
    # five distinct U-typed terms, each convertible to its eta-expansion
    k = kernel("2ltt", [
        ConstDecl("B", "f", (), None),
        ConstDecl("b0", "f", (), Const("B", ())),
        ConstDecl("g", "f", (Param("x", "id:f", Const("B", ())),),
                  Const("B", ())),
    ])
    bty = Const("B", ())
    uty = UMod("iota", bty)
    b0 = Const("b0", ())
    terms = [
        Shut("iota", b0),
        Shut("iota", Const("g", (b0,))),
        Shut("iota", Const("g", (Const("g", (b0,)),))),
        Shut("iota", Open("iota", Shut("iota", b0))),
        Shut("iota", Open("iota", Shut("iota", Const("g", (b0,))))),
    ]
    ctx = empty_context("e")
    for t in terms:
        ty, t_e = k.infer(ctx, t)
        assert k.convert_types(ctx, ty, uty)
        expanded = Shut("iota", Open("iota", t_e))
        _, exp_e = k.infer(ctx, expanded)
        assert k.convert(ctx, uty, t_e, exp_e), t


def test_conversion_failure_reports():
    k = single_arrow_kernel()
    ctx = empty_context("p")
    with pytest.raises(ConversionFailure):
        k.check(ctx, Const("a0", ()), Const("A2", ()))


# --- comparison of arguments under a variable head ---------------------------

def check_lines(tmp_path, theory, lines):
    f = tmp_path / "src.matt"
    f.write_text("".join(line + "\n" for line in lines))
    return check_file(f, load_mode_theory(theory_path(theory)))


# per former: theory, mode, declarations, a bound variable (or ""), the
# type of g's argument, g's result type, an argument t, a term α-equivalent
# to t, and a term that differs from t
UNDER_A_VARIABLE_HEAD = {
    "lambda": ("trivial", "p", ["const A : Type @ p;", "const a0 : A @ p;"],
               "", "(x : A) -> A", "A", r"\x. x", r"\y. y", r"\x. a0"),
    "mod": ("single_arrow", "q",
            ["const A : Type @ p;", "const a0 : A @ p;",
             "const B : Type @ q;"],
            "", "F[mu] ((x : A) -> A)", "B", r"mod[mu] (\x. x)",
            r"mod[mu] (\y. y)", r"mod[mu] (\x. a0)"),
    "shut": ("2ltt", "e",
             ["const B : Type @ f;", "const b0 : B @ f;",
              "const C : Type @ e;"],
             "", "U[iota] ((x : B) -> B)", "C", r"shut[iota] (\x. x)",
             r"shut[iota] (\y. y)", r"shut[iota] (\x. b0)"),
    "let-mod": ("single_arrow", "q",
                ["const A : Type @ p;", "const a0 : A @ p;",
                 "const B : Type @ q;"],
                "y", "F[mu] A", "B",
                "let[id:q, mu] mod x = y in mod[mu] x motive F[mu] A",
                "let[id:q, mu] mod z = y in mod[mu] z motive F[mu] A",
                "let[id:q, mu] mod x = y in mod[mu] a0 motive F[mu] A"),
}


@pytest.mark.parametrize("former", list(UNDER_A_VARIABLE_HEAD))
def test_arguments_of_a_variable_head_compare_up_to_renaming(tmp_path,
                                                             former):
    # R (g t) against R (g u), for a bound g, compares t with u structurally
    theory, mode, consts, var, dom, res, t, same, other = \
        UNDER_A_VARIABLE_HEAD[former]

    def claim(name, u):
        bound = f"({var} : F[mu] A) -> " if var else ""
        lams = f"\\{var}. " if var else ""
        return (f"def {name} @ {mode} : {bound}(g : (k : {dom}) -> {res}) -> "
                f"(r : R (g ({t}))) -> R (g ({u})) = {lams}\\g. \\r. r;")

    lines = consts + [f"const R : (v : {res}) Type @ {mode};",
                      claim("same", same), claim("other", other)]
    diags, n = check_lines(tmp_path, theory, lines)
    assert n == len(lines) - 1
    assert [(d.code, d.line) for d in diags] == \
        [("ConversionFailure", len(lines))]


def test_a_bare_lambda_head_cannot_be_inferred(tmp_path):
    diags, n = check_lines(tmp_path, "trivial", [
        "const A : Type @ p;", "const a0 : A @ p;",
        r"def d @ p : A = (\x. x) a0;"])
    assert [(d.code, d.line, d.message) for d in diags] == \
        [("ExpectedPi", 3, "cannot infer the type of a bare λ")]
    assert main(["check", "--mode-theory", str(theory_path("trivial")),
                 str(tmp_path / "src.matt")]) == 1


TWO_LEVEL = ["const B : Type @ f;", "const b0 : B @ f;",
             "const C : Type @ e;", "const c0 : C @ e;"]
SINGLE_ARROW = ["const A : Type @ p;", "const a0 : A @ p;"]


@pytest.mark.parametrize("theory,consts,decl,code", [
    ("2ltt", TWO_LEVEL, "def d @ f : B = mod[iota] c0;", "NotSharp"),
    ("2ltt", TWO_LEVEL, "def d @ f : B = let[id:f, iota] mod x = b0 in b0;",
     "NotSharp"),
    ("single_arrow", SINGLE_ARROW, "def d @ p : A = shut[mu] a0;",
     "NotSinister"),
    ("single_arrow", SINGLE_ARROW, "def d @ p : A = open[mu] a0;",
     "NotSinister"),
], ids=["mod", "let-mod", "shut", "open"])
def test_annotations_outside_their_class_are_rejected(tmp_path, theory,
                                                      consts, decl, code):
    # each term is checked at a type its former does not make, so it is
    # inferred, and its annotation checked there
    diags, n = check_lines(tmp_path, theory, consts + [decl])
    assert [(d.code, d.line) for d in diags] == [(code, len(consts) + 1)]
    assert n == len(consts)


def test_an_identity_lock_at_another_mode_is_a_mode_mismatch(tmp_path):
    # id:q is a lock at q; at mode p it is refused, not dropped as the
    # identity it would be at q
    diags, n = check_lines(tmp_path, "single_arrow", SINGLE_ARROW + [
        "def x @ p : F[id:q] A = mod[id:q] a0;",
        r"def y @ p : (z :^ id:q A) -> A = \z. z;"])
    assert [(d.code, d.line, d.message) for d in diags] == [
        ("ModeMismatch", line, "lock id:q expects mode q, context is at p")
        for line in (3, 4)]
    assert n == 2


def test_a_type_constant_at_another_mode_is_a_mode_mismatch(tmp_path):
    # B lives at q: under mu's lock, under F[mu] and at p it is refused,
    # though it takes no arguments
    diags, n = check_lines(tmp_path, "single_arrow", [
        "const B : Type @ q;", "const b0 : B @ q;",
        r"def d @ q : (x :^ mu B) -> B = \x. b0;",
        "def e @ q : F[mu] B = mod[mu] b0;",
        "def f @ p : B = b0;"])
    assert [(d.code, d.line, d.message) for d in diags] == [
        ("ModeMismatch", line, "constant B lives at mode q, used at p")
        for line in (3, 4, 5)]
    assert n == 2


# --- negatives ---------------------------------------------------------------

def test_pi_over_sinister_rejected():
    k = kernel("2ltt", [ConstDecl("C", "e", (), None),
                        ConstDecl("D", "f", (), None)])
    ctx = empty_context("f")
    with pytest.raises(NotSharp):
        k.check_type(ctx, Pi("iota", "x", Const("C", ()), Const("D", ())))


def test_f_over_sinister_rejected():
    k = kernel("2ltt", [ConstDecl("C", "e", (), None)])
    with pytest.raises(NotSharp):
        k.check_type(empty_context("f"), FMod("iota", Const("C", ())))


def test_u_needs_sinister():
    k = single_arrow_kernel()
    with pytest.raises(NotSinister):
        k.check_type(empty_context("p"), UMod("mu", B))


def test_key_type_mismatch():
    k = single_arrow_kernel()
    ctx = push_var(k.mt, empty_context("q"), "x", "id:q", B)
    with pytest.raises(KeyTypeMismatch):
        k.infer(ctx, Var("x", "id:mu"))


def test_letmod_frame_must_be_transparent():
    k = single_arrow_kernel()
    ctx = push_var(k.mt, empty_context("q"), "y", "id:q", FMod("mu", A))
    t = LetMod("mu", "id:p", "w", A, Var("y", None), "x", Var("x", None))
    with pytest.raises(NotTransparent):
        k.infer(ctx, t)


def test_letmod_scrutinee_must_be_modal():
    k = single_arrow_kernel()
    ctx = push_var(k.mt, empty_context("q"), "y", "id:q", B)
    t = LetMod("id:q", "mu", "w", B, Var("y", None), "x", Var("w", None))
    with pytest.raises(ExpectedF):
        k.infer(ctx, t)


def test_letmod_inference_needs_motive():
    k = single_arrow_kernel()
    ctx = push_var(k.mt, empty_context("q"), "y", "id:q", FMod("mu", A))
    t = LetMod("id:q", "mu", "w", None, Var("y", None), "x",
               ModIntro("mu", Var("x", None)))
    with pytest.raises(NoMotive):
        k.infer(ctx, t)
    # in checking position the expected type supplies the motive
    assert k.check(ctx, t, FMod("mu", A))


def test_application_head_must_be_pi():
    k = single_arrow_kernel()
    ctx = empty_context("p")
    with pytest.raises(ExpectedPi):
        k.infer(ctx, App(Const("a0", ()), Const("a0", ())))


def test_unbound_variable():
    k = single_arrow_kernel()
    with pytest.raises(UnknownConstant):
        k.infer(empty_context("p"), Var("ghost", None))


def test_constant_arity_and_mode_checked():
    k = single_arrow_kernel()
    with pytest.raises(UnknownConstant):
        k.infer(empty_context("p"), Const("a0", (Const("a0", ()),)))
    from matt.errors import ModeMismatch
    with pytest.raises(ModeMismatch):
        k.infer(empty_context("q"), Const("a0", ()))


# --- soundness of elaboration ------------------------------------------------

def test_elaborated_terms_recheck():
    k = single_arrow_kernel()
    ctx = push_var(k.mt, empty_context("q"), "y", "id:q", FMod("mu", A))
    t = LetMod("id:q", "mu", "w", FMod("mu", A), Var("y", None), "x",
               ModIntro("mu", Var("x", None)))
    ty, t_e = k.infer(ctx, t)
    assert k.check_type(ctx, ty)          # inferred types are well formed
    assert k.check(ctx, t_e, ty) == t_e   # elaboration is stable
