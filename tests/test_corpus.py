"""The bundled .matt corpus: every positive file checks cleanly, every
negative file fails with exactly the error code named in its comment."""

import io
import os
import re
from contextlib import redirect_stderr
from pathlib import Path

from matt.bundled import FIXTURES, theory_path
from matt.checker import Kernel
from matt.cli import _check_decl, check_file, main
from matt.mode_theory import load_mode_theory
from matt.parser import (SurfaceDef, SurfaceModeTheory, parse_program,
                         resolve_term, resolve_type)
from matt.syntax import (App, Const, ConstDecl, Lam, Pi, Signature, Var,
                         VarEntry, apply_key, children, empty_context, fresh,
                         rebuild)

CORPUS = FIXTURES / "corpus"
GOLDEN = Path(__file__).parent / "golden" / "check_corpus.txt"

POSITIVE = sorted(p for p in CORPUS.glob("*_ok.matt"))
NEGATIVE = sorted(p for p in CORPUS.glob("*.matt") if p not in POSITIVE)


def expected_code(path):
    m = re.search(r"-- expected: (\w+)", path.read_text())
    assert m, f"{path.name} lacks an expected-error comment"
    return m.group(1)


def test_corpus_is_large_enough():
    total = 0
    for p in POSITIVE:
        diags, n = check_file(p, None)
        assert not diags, (p.name, [d.render() for d in diags])
        total += n
    assert total >= 25, total
    assert len(NEGATIVE) >= 15


def test_positive_files_individually():
    for p in POSITIVE:
        diags, n = check_file(p, None)
        assert not diags, (p.name, [d.render() for d in diags])
        assert n > 0


def test_negative_files_fail_with_predicted_code():
    for p in NEGATIVE:
        code = expected_code(p)
        diags, _ = check_file(p, None)
        assert diags, f"{p.name} unexpectedly checked"
        assert diags[0].code == code, (p.name, diags[0].render())
        assert len(diags) == 1, [d.render() for d in diags]


def test_declaration_order_permutation_is_verdict_stable():
    # reordering independent declarations must not change any verdict
    src = "\n".join(line for line in
                    (CORPUS / "trivial_ok.matt").read_text().splitlines()
                    if not line.lstrip().startswith("--"))
    decls = [d.strip() for d in src.split(";") if d.strip()]
    # keep the mode-theory line first and all consts before the defs that
    # use them; swap the two independent defs
    idx = [i for i, d in enumerate(decls) if d.startswith("def")]
    assert len(idx) >= 2
    permuted = decls[:]
    permuted[idx[0]], permuted[idx[1]] = permuted[idx[1]], permuted[idx[0]]
    alt = ";\n".join(permuted) + ";\n"
    tmp = CORPUS / "_permuted_tmp.matt"
    try:
        tmp.write_text(alt)
        diags, n = check_file(tmp, None)
        assert not diags, [d.render() for d in diags]
        assert n == len(decls) - 1  # mode-theory line is not a checked decl
    finally:
        tmp.unlink(missing_ok=True)


# --- the check output, pinned byte for byte ------------------------------------

def render_corpus_runs() -> str:
    """Exit code and stderr of `matt check --trace` on every corpus file, as
    a fresh process run from the corpus directory prints them: paths are
    relative and fresh names are numbered from the start of the file."""
    parts = []
    for p in sorted(CORPUS.glob("*.matt")):
        base = int(fresh().rsplit("!", 1)[1]) + 1
        err = io.StringIO()
        with redirect_stderr(err):
            rc = main(["check", "--trace", str(p)])
        text = err.getvalue().replace(f"{CORPUS}{os.sep}", "")
        text = re.sub(r"(?<=\w)!(\d+)",
                      lambda m: f"!{int(m.group(1)) - base}", text)
        parts.append(f"== {p.name} -> exit {rc}\n{text}")
    return "".join(parts)


def test_check_output_is_pinned():
    assert render_corpus_runs() == GOLDEN.read_text(encoding="utf-8")



# --- conversion on every elaborated definition ---------------------------------

def elaborated_defs(path):
    """(kernel, name, elaborated term, elaborated type) for each definition
    of a corpus file, checked in order as `matt check` checks it."""
    decls = parse_program(path.read_text(encoding="utf-8"))
    [theory] = [d.path for d in decls if isinstance(d, SurfaceModeTheory)]
    kernel = Kernel(load_mode_theory(path.parent / theory), Signature())
    out = []
    for d in decls:
        if isinstance(d, SurfaceDef):
            ctx = empty_context(d.mode)
            ty = kernel.check_type(ctx, resolve_type(d.ty, {}, kernel.sig))
            t = kernel.check(ctx, resolve_term(d.term, {}, kernel.sig), ty)
            kernel.sig.declare(ConstDecl(d.name, d.mode, (), ty))
            out.append((kernel, d, t, ty))
        elif not isinstance(d, SurfaceModeTheory):
            _check_decl(kernel, d)
    return out


def test_every_definition_rechecks_and_converts_with_itself():
    # re-checking an elaborated term is the identity; the term converts
    # with itself, and at a Pi type with its η-expansion
    n = 0
    for p in POSITIVE:
        for kernel, d, t, ty in elaborated_defs(p):
            ctx = empty_context(d.mode)
            assert kernel.check(ctx, t, ty) == t, (p.name, d.name)
            assert kernel.convert(ctx, ty, t, t), (p.name, d.name)
            if isinstance(ty, Pi):
                z = fresh("z")
                zv = Var(z, kernel.mt.id_cell(ty.mor))
                eta = Lam(z, App(t, zv, ty.mor))
                assert kernel.convert(ctx, ty, t, eta), (p.name, d.name)
                assert kernel.convert(ctx, ty, eta, t), (p.name, d.name)
                n += 1
    assert n >= 12, n  # the Pi-typed definitions of the corpus


# --- telescopes, λ-runs and redex towers against one name at a time ------------

def subst_one(mt, sig, t, name, repl, ctx):
    """t[name ← repl], one name per traversal, repl's variables in ctx."""
    if isinstance(t, Var):
        return apply_key(mt, sig, repl, t.key, ctx) if t.name == name else t
    return rebuild(t, [subst_one(mt, sig, u, name, repl, ctx)
                       for u, _, _, _ in children(t)])


def rename_one(t, old, new):
    """t with free `old` renamed to `new`, one name per traversal."""
    if isinstance(t, Var):
        return Var(new, t.key, t.span) if t.name == old else t
    return rebuild(t, [u if bound == old else rename_one(u, old, new)
                       for u, _, _, bound in children(t)])


def telescope_one_at_a_time(kernel, ctx, name, args):
    """The parameter types and the result of a constant, instantiated with
    its elaborated arguments the way the kernel once did: after each
    argument, every later type is substituted with it."""
    mt, sig = kernel.mt, kernel.sig
    decl = sig.lookup(name)
    tys, result = [p.ty for p in decl.params], decl.result
    for i, (p, a) in enumerate(zip(decl.params, args)):
        for j in range(i + 1, len(tys)):
            tys[j] = subst_one(mt, sig, tys[j], p.name, a, ctx)
        if result is not None:
            result = subst_one(mt, sig, result, p.name, a, ctx)
    return tys, result


class RecordingKernel(Kernel):
    """A kernel that records the (context, term, type) of every check and
    the (context, type, left term) of every term conversion."""

    def __init__(self, mt):
        super().__init__(mt, Signature())
        self.checked, self.converted = [], []

    def check(self, ctx, t, a):
        self.checked.append((ctx, t, a))
        return super().check(ctx, t, a)

    def convert(self, ctx, a, t, u):
        self.converted.append((ctx, a, t))
        return super().convert(ctx, a, t, u)


def load(theory, src):
    """A kernel with the constants of `src` declared, and each definition
    as (name, resolved term, checked type), its term not yet checked."""
    kernel = RecordingKernel(load_mode_theory(theory_path(theory)))
    defs = []
    for d in parse_program(src):
        if isinstance(d, SurfaceDef):
            ty = kernel.check_type(empty_context(d.mode),
                                   resolve_type(d.ty, {}, kernel.sig))
            defs.append((d.name, resolve_term(d.term, {}, kernel.sig), ty))
        else:
            _check_decl(kernel, d)
    return kernel, defs


def assert_spine_matches_reference(kernel, ctx, t):
    """Infer a constant applied to a spine; its result type, and the type
    each argument was checked against, equal the one-at-a-time ones."""
    kernel.checked.clear()
    ty, t_e = kernel.infer(ctx, t)
    tys, result = telescope_one_at_a_time(kernel, ctx, t.name, t_e.args)
    assert ty == result
    arg_tys = [a for _, u, a in kernel.checked
               if any(u is v for v in t.args)]
    assert arg_tys == tys
    return ty


def _chain(width):
    """t_1 = x1 and t_k = pr t_(k-1) z_k: each mentions every earlier name."""
    ts = ["x1"]
    for k in range(2, width + 1):
        ts.append(f"pr ({ts[-1]}) z{k}")
    return ts


WIDTH = 16


def dependent_program(width=WIDTH):
    """c's telescope (x1 : A) (z2 : E t_1) ... (z_w : E t_(w-1)) and result
    E t_w; `lam` is a run of w λs against the same run of w Πs."""
    ts = _chain(width)
    names = ["x1"] + [f"z{k}" for k in range(2, width + 1)]
    binders = ["(x1 : A)"] + [f"(z{k} : E ({ts[k - 2]}))"
                              for k in range(2, width + 1)]
    return "\n".join([
        "const A : Type @ p;", "const E : (x : A) Type @ p;",
        "const pr : (x : A) (y : E x) A @ p;",
        f"const c : {' '.join(binders)} E ({ts[-1]}) @ p;",
        f"def lam @ p : {' -> '.join(binders + [f'E ({ts[-1]})'])} = "
        + "".join(f"\\{n}. " for n in names) + f"c {' '.join(names)};"])


def test_wide_telescope_and_lambda_run_match_one_at_a_time():
    kernel, [(_, lam, pi)] = load("trivial", dependent_program())
    kernel.checked.clear()
    kernel.check(empty_context("p"), lam, pi)
    # the λ-run: each domain and the final codomain, renamed one name at a
    # time, are the types the kernel checked the body under and against
    ctx, body, cod = next((c, u, a) for c, u, a in kernel.checked
                          if not isinstance(u, Lam))
    lam_vars, ref_doms, ref_cod = [], [], pi
    t = lam
    while isinstance(t, Lam):
        ref_doms.append(ref_cod.dom)
        lam_vars.append(t.var)
        ref_cod = rename_one(ref_cod.cod, ref_cod.var, t.var)
        t = t.body
    assert len(lam_vars) == WIDTH and body is t
    assert [e.name for e in ctx.entries] == lam_vars
    assert all(isinstance(e, VarEntry) for e in ctx.entries)
    assert [e.ty for e in ctx.entries] == ref_doms
    assert cod == ref_cod
    # the telescope: c applied to the λ-bound names
    ty = assert_spine_matches_reference(kernel, ctx, body)
    assert kernel.convert_types(ctx, ty, ref_cod)


def test_redex_tower_matches_one_at_a_time():
    tower = "shut[mu] b0"
    for _ in range(60):
        tower = f"shut[mu] (open[mu] ({tower}))"
    src = "\n".join([
        "const B : Type @ q;", "const b0 : B @ q;",
        "const Q : (M : U[mu] B) Type @ p;",
        "const q0 : Q (shut[mu] b0) @ p;",
        "const pair : (M : U[mu] B) (N : Q M) Q M @ p;",
        "const Q2 : (M : U[mu] B) (N : Q M) Type @ p;",
        "const q2 : Q2 (shut[mu] b0) q0 @ p;",
        f"def r @ p : Q ({tower}) = pair ({tower}) q0;",
        f"def r2 @ p : Q2 ({tower}) q0 = q2;"])
    kernel, [(_, t, want), (_, t2, want2)] = load("reflective", src)
    ctx = empty_context("p")
    assert isinstance(t, Const) and t.name == "pair"
    ty = assert_spine_matches_reference(kernel, ctx, t)
    assert kernel.convert_types(ctx, ty, want)
    # converting two Q2 spines: the type each argument is converted at is
    # the parameter type instantiated with the left spine's arguments
    ty2, _ = kernel.infer(ctx, t2)
    kernel.converted.clear()
    assert kernel.convert_types(ctx, ty2, want2)
    tys, _ = telescope_one_at_a_time(kernel, ctx, "Q2", ty2.args)
    assert [a for _, a, x in kernel.converted
            if any(x is v for v in ty2.args)] == tys


if __name__ == "__main__":
    # regenerate the golden file: python tests/test_corpus.py
    GOLDEN.write_text(render_corpus_runs(), encoding="utf-8")
