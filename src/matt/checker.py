"""Bidirectional type checker and conversion for the modal kernel.

Checking is parameterized by a validated mode theory and a signature of
constants.  Conversion is one type-directed algorithm, as MTT decides it:
η at function types and at the negative modality (via open after a unit
key); at every other type the weak-head normal forms, two `mod` bodies
compared at the inner type and anything else as neutrals.  A neutral's
arguments are compared at its head's parameter or Pi domain types, and
two `let mod` branches at the motive instantiated at the unwrapped
variable, so η holds everywhere under a neutral.
"""

from __future__ import annotations

from .errors import (ConversionFailure, ExpectedF, ExpectedPi, ExpectedU,
                     KeyTypeMismatch, MattError, ModeMismatch, NotSharp,
                     NotSinister, NotTransparent, UnknownConstant)
from .mode_theory import ModeTheory
from .syntax import (App, Const, Context, FMod, Lam, LetMod, ModIntro, Open,
                     Pi, Shut, Signature, UMod, Var, apply_key,
                     empty_context, find_var, fresh, push_lock, push_var,
                     rename_var, subst)


class NoMotive(MattError):
    code = "NoMotive"


class Kernel:
    def __init__(self, mt: ModeTheory, sig: Signature | None = None):
        self.mt = mt
        self.sig = sig if sig is not None else Signature()
        self.trace: list[str] = []

    # -- helpers ----------------------------------------------------------

    def _mor(self, ctx: Context, m: str) -> str:
        """The surface grammar writes an omitted annotation as "id"."""
        return self.mt.id_mor(ctx.mode) if m == "id" else m

    def _spine_types(self, ctx: Context, name: str, args):
        """Instantiate a constant's telescope against a spine, checking each
        argument; returns the elaborated spine and the instantiated result.

        Each parameter type, and then the result, is traversed once, by one
        substitution of the arguments elaborated before it."""
        mt, sig = self.mt, self.sig
        decl = sig.lookup(name)
        if decl.mode != ctx.mode:
            raise ModeMismatch(
                f"constant {name} lives at mode {decl.mode}, used at {ctx.mode}")
        if len(args) != len(decl.params):
            raise UnknownConstant(
                f"constant {name} expects {len(decl.params)} arguments, "
                f"got {len(args)}")
        sub = {}
        out = []
        for arg, p in zip(args, decl.params):
            ty = subst(mt, sig, p.ty, sub, ctx) if sub else p.ty
            arg_e = self.check(push_lock(mt, ctx, p.mor), arg, ty)
            out.append(arg_e)
            sub[p.name] = arg_e
        result = decl.result
        if result is not None and sub:
            result = subst(mt, sig, result, sub, ctx)
        return tuple(out), result

    # -- type formation ----------------------------------------------------

    def check_type(self, ctx: Context, a):
        mt = self.mt
        if isinstance(a, Pi):
            mor = self._mor(ctx, a.mor)
            if not mt.in_class("sharp", mor):
                raise NotSharp(f"Pi annotation {mor} is not sharp", a.span)
            dom = self.check_type(push_lock(mt, ctx, mor), a.dom)
            cod = self.check_type(push_var(mt, ctx, a.var, mor, dom, a.span),
                                  a.cod)
            return Pi(mor, a.var, dom, cod, a.span)
        if isinstance(a, FMod):
            mor = self._mor(ctx, a.mor)
            if not mt.in_class("sharp", mor):
                raise NotSharp(f"F annotation {mor} is not sharp", a.span)
            return FMod(mor, self.check_type(push_lock(mt, ctx, mor), a.ty),
                        a.span)
        if isinstance(a, UMod):
            mor = self._mor(ctx, a.mor)
            if not mt.in_class("sinister", mor):
                raise NotSinister(f"U annotation {mor} is not sinister", a.span)
            dag = mt.dagger(mor).dagger
            return UMod(mor, self.check_type(push_lock(mt, ctx, dag), a.ty),
                        a.span)
        if isinstance(a, Const):
            decl = self.sig.lookup(a.name)
            if decl.result is not None:
                raise UnknownConstant(f"{a.name} is not a type constant", a.span)
            if not a.args and not decl.params and decl.mode == ctx.mode:
                return a  # a leaf: _spine_types would check nothing more
            args, _ = self._spine_types(ctx, a.name, a.args)
            return Const(a.name, args, a.span) if args else a
        raise UnknownConstant(f"not a type expression: {a!r}")

    # -- inference ---------------------------------------------------------

    def infer(self, ctx: Context, t):
        mt = self.mt
        if isinstance(t, Var):
            hit = find_var(mt, ctx, t.name)
            if hit is None:
                raise UnknownConstant(f"unbound variable {t.name}", t.span)
            entry, prefix, delta = hit
            key = t.key
            if key is None:
                key = mt.id_cell(delta)
            cell = mt.cell(key)
            if cell.src != entry.mor or cell.dst != delta:
                raise KeyTypeMismatch(
                    f"key {key} : {cell.src} ⇒ {cell.dst} on {t.name}, "
                    f"needed {entry.mor} ⇒ {delta}", t.span)
            ty = apply_key(mt, self.sig, entry.ty, key, prefix)
            return ty, Var(t.name, key, t.span)
        if isinstance(t, App):
            fty, fn = self.infer(ctx, t.fn)
            if not isinstance(fty, Pi):
                raise ExpectedPi(f"application head has type {brief(fty)}", t.span)
            arg = self.check(push_lock(mt, ctx, fty.mor), t.arg, fty.dom)
            ty = subst(mt, self.sig, fty.cod, {fty.var: arg}, ctx)
            return ty, App(fn, arg, fty.mor, t.span)
        if isinstance(t, ModIntro):
            mor = self._mor(ctx, t.mor)
            if not mt.in_class("sharp", mor):
                raise NotSharp(f"mod annotation {mor} is not sharp", t.span)
            ty, body = self.infer(push_lock(mt, ctx, mor), t.body)
            return FMod(mor, ty), ModIntro(mor, body, t.span)
        if isinstance(t, Shut):
            mor = self._mor(ctx, t.mor)
            if not mt.in_class("sinister", mor):
                raise NotSinister(f"shut annotation {mor} is not sinister", t.span)
            dag = mt.dagger(mor).dagger
            ty, body = self.infer(push_lock(mt, ctx, dag), t.body)
            return UMod(mor, ty), Shut(mor, body, t.span)
        if isinstance(t, Open):
            mor = self._mor(ctx, t.mor)
            if not mt.in_class("sinister", mor):
                raise NotSinister(f"open annotation {mor} is not sinister", t.span)
            ty, body = self.infer(push_lock(mt, ctx, mor), t.body)
            if not isinstance(ty, UMod) or ty.mor != mor:
                raise ExpectedU(f"open expects U[{mor}], got {brief(ty)}", t.span)
            counit = mt.dagger(mor).counit
            return apply_key(mt, self.sig, ty.ty, counit, ctx), \
                Open(mor, body, t.span)
        if isinstance(t, LetMod):
            return self._infer_letmod(ctx, t)
        if isinstance(t, Const):
            decl = self.sig.lookup(t.name)
            if decl.result is None:
                raise UnknownConstant(f"{t.name} is a type constant", t.span)
            args, result = self._spine_types(ctx, t.name, t.args)
            return result, Const(t.name, args, t.span)
        if isinstance(t, Lam):
            raise ExpectedPi("cannot infer the type of a bare λ", t.span)
        raise UnknownConstant(f"not a term: {t!r}")

    def _infer_letmod(self, ctx: Context, t: LetMod):
        mt = self.mt
        frame = self._mor(ctx, t.frame)
        mor = self._mor(push_lock(mt, ctx, frame), t.mor)
        if not mt.in_class("sharp", mor):
            raise NotSharp(f"let-mod annotation {mor} is not sharp", t.span)
        if not mt.in_class("transparent", frame):
            raise NotTransparent(f"let-mod frame {frame} is not transparent",
                                 t.span)
        t = LetMod(frame, mor, t.yvar, t.motive, t.scrutinee, t.xvar, t.body,
                   t.span)
        dty, d = self.infer(push_lock(mt, ctx, t.frame), t.scrutinee)
        if not isinstance(dty, FMod) or dty.mor != t.mor:
            raise ExpectedF(f"scrutinee has type {brief(dty)}, "
                            f"expected F[{t.mor}]", t.span)
        if t.motive is None:
            raise NoMotive("a let-mod in inference position needs a motive",
                           t.span)
        a_ty = dty.ty  # lives in ctx ⧸ frame ⧸ mor
        ctx_y = push_var(mt, ctx, t.yvar, t.frame, FMod(t.mor, a_ty), t.span)
        motive = self.check_type(ctx_y, t.motive)
        nm = mt.compose(t.frame, t.mor)
        ctx_x = push_var(mt, ctx, t.xvar, nm, a_ty, t.span)
        unwrapped = ModIntro(t.mor, Var(t.xvar, mt.id_cell(nm)))
        branch_ty = subst(mt, self.sig, motive, {t.yvar: unwrapped}, ctx_x)
        body = self.check(ctx_x, t.body, branch_ty)
        ty = subst(mt, self.sig, motive, {t.yvar: d}, ctx)
        return ty, LetMod(t.frame, t.mor, t.yvar, motive, d, t.xvar, body, t.span)

    # -- checking ----------------------------------------------------------

    def check(self, ctx: Context, t, a):
        mt = self.mt
        if isinstance(t, Lam) and isinstance(a, Pi):
            # a run of λs against a run of Πs renames each domain, and then
            # the final codomain, once
            ren, lams = {}, []
            while isinstance(t, Lam) and isinstance(a, Pi):
                dom = rename_var(a.dom, ren) if ren else a.dom
                ctx = push_var(mt, ctx, t.var, a.mor, dom, t.span)
                ren[a.var] = t.var
                lams.append(t)
                t, a = t.body, a.cod
            body = self.check(ctx, t, rename_var(a, ren))
            for lam in reversed(lams):
                body = Lam(lam.var, body, lam.span)
            return body
        if isinstance(t, ModIntro) and isinstance(a, FMod) and t.mor == a.mor:
            body = self.check(push_lock(mt, ctx, t.mor), t.body, a.ty)
            return ModIntro(t.mor, body, t.span)
        if isinstance(t, Shut) and isinstance(a, UMod) and t.mor == a.mor:
            dag = mt.dagger(t.mor).dagger
            body = self.check(push_lock(mt, ctx, dag), t.body, a.ty)
            return Shut(t.mor, body, t.span)
        if isinstance(t, LetMod) and t.motive is None:
            # the expected type, which cannot mention y, serves as motive
            t = LetMod(t.frame, t.mor, t.yvar, a, t.scrutinee, t.xvar,
                       t.body, t.span)
        ty, t_e = self.infer(ctx, t)
        if not self.convert_types(ctx, ty, a):
            raise ConversionFailure(
                f"inferred {brief(ty)} but expected {brief(a)}",
                getattr(t, "span", None), self.trace)
        return t_e

    # -- conversion --------------------------------------------------------

    def _same(self, m: str, n: str) -> bool:
        """Whether two modality annotations agree; a trace line if not."""
        if m != n:
            self.trace.append(f"modalities differ: {m} vs {n}")
        return m == n

    def convert_types(self, ctx: Context, a, b) -> bool:
        mt = self.mt
        if type(a) is not type(b):
            self.trace.append(f"type head mismatch: {show(a)} vs {show(b)}")
            return False
        if isinstance(a, Pi):
            if not (self._same(a.mor, b.mor) and self.convert_types(
                    push_lock(mt, ctx, a.mor), a.dom, b.dom)):
                return False
            z = fresh("z")
            ctx2 = push_var(mt, ctx, z, a.mor, a.dom)
            return self.convert_types(ctx2, rename_var(a.cod, {a.var: z}),
                                      rename_var(b.cod, {b.var: z}))
        if isinstance(a, FMod):
            return self._same(a.mor, b.mor) and \
                self.convert_types(push_lock(mt, ctx, a.mor), a.ty, b.ty)
        if isinstance(a, UMod):
            if not self._same(a.mor, b.mor):
                return False
            dag = mt.dagger(a.mor).dagger
            return self.convert_types(push_lock(mt, ctx, dag), a.ty, b.ty)
        if a.name != b.name:
            self.trace.append(f"type constants differ: {a.name} vs {b.name}")
            return False
        return self._convert_spines(ctx, a.name, a.args, b.args) is not None

    def _convert_spines(self, ctx: Context, name: str, xs, ys):
        """Compare two spines of a constant, each argument at its parameter
        type under its lock; the substitution of xs for the parameters when
        they agree, else None."""
        mt = self.mt
        decl = self.sig.lookup(name)
        sub = {}
        for p, x, y in zip(decl.params, xs, ys):
            ty = subst(mt, self.sig, p.ty, sub, ctx) if sub else p.ty
            if not self.convert(push_lock(mt, ctx, p.mor), ty, x, y):
                return None
            sub[p.name] = x
        return sub

    def convert(self, ctx: Context, a, t, u) -> bool:
        """Type-directed term conversion at type a: η at Pi and at U, then
        the weak-head normal forms, compared under mod at F and as neutrals
        otherwise."""
        mt = self.mt
        if isinstance(a, Pi):
            z = fresh("z")
            ctx2 = push_var(mt, ctx, z, a.mor, a.dom)
            zv = Var(z, mt.id_cell(a.mor))
            cod = rename_var(a.cod, {a.var: z})
            return self.convert(ctx2, cod, App(t, zv, a.mor), App(u, zv, a.mor))
        if isinstance(a, UMod):
            adj = mt.dagger(a.mor)
            ctx2 = push_lock(mt, ctx, adj.dagger)
            t2 = Open(a.mor, apply_key(mt, self.sig, t, adj.unit, ctx))
            u2 = Open(a.mor, apply_key(mt, self.sig, u, adj.unit, ctx))
            return self.convert(ctx2, a.ty, t2, u2)
        t, u = self.whnf(ctx, t), self.whnf(ctx, u)
        if isinstance(a, FMod) and isinstance(t, ModIntro) and \
                isinstance(u, ModIntro):
            return self._same(t.mor, u.mor) and \
                self.convert(push_lock(mt, ctx, a.mor), a.ty, t.body, u.body)
        return self._neutral(ctx, t, u) is not None

    def _neutral(self, ctx: Context, t, u):
        """The type of the neutral t when it equals the neutral u, else None.

        Both are weak-head normal.  Neutrals compare as MTT compares them:
        the heads structurally; an application argument by `convert` at its
        Pi domain, under its lock; a constant's arguments at its parameter
        types; two let-mod branches by `convert` at the motive instantiated
        at the unwrapped variable, bound at frame∘mor as `_infer_letmod`
        binds it.  Each type comes from the compared terms, which are
        elaborated, so nothing is re-checked."""
        mt, sig = self.mt, self.sig
        if isinstance(t, Var) and isinstance(u, Var):
            if t.name == u.name and t.key == u.key:
                return self.infer(ctx, t)[0]
            self.trace.append(f"variables differ: {t.name}^{t.key} vs "
                              f"{u.name}^{u.key}")
            return None
        if isinstance(t, App) and isinstance(u, App):
            fty = self._neutral(ctx, t.fn, u.fn)
            if fty is None or not self.convert(push_lock(mt, ctx, fty.mor),
                                               fty.dom, t.arg, u.arg):
                return None
            return subst(mt, sig, fty.cod, {fty.var: t.arg}, ctx)
        if isinstance(t, Open) and isinstance(u, Open):
            if not self._same(t.mor, u.mor):
                return None
            ty = self._neutral(push_lock(mt, ctx, t.mor), t.body, u.body)
            if ty is None:
                return None
            return apply_key(mt, sig, ty.ty, mt.dagger(t.mor).counit, ctx)
        if isinstance(t, LetMod) and isinstance(u, LetMod):
            if not (self._same(t.frame, u.frame) and self._same(t.mor, u.mor)):
                return None
            dty = self._neutral(push_lock(mt, ctx, t.frame), t.scrutinee,
                                u.scrutinee)
            if dty is None:
                return None
            z = fresh("z")
            nm = mt.compose(t.frame, t.mor)
            ctx_z = push_var(mt, ctx, z, nm, dty.ty)
            unwrapped = ModIntro(t.mor, Var(z, mt.id_cell(nm)))
            branch_ty = subst(mt, sig, t.motive, {t.yvar: unwrapped}, ctx_z)
            if not self.convert(ctx_z, branch_ty,
                                rename_var(t.body, {t.xvar: z}),
                                rename_var(u.body, {u.xvar: z})):
                return None
            return subst(mt, sig, t.motive, {t.yvar: t.scrutinee}, ctx)
        if isinstance(t, Const) and isinstance(u, Const):
            if t.name != u.name:
                self.trace.append(f"constants differ: {t.name} vs {u.name}")
                return None
            sub = self._convert_spines(ctx, t.name, t.args, u.args)
            if sub is None:
                return None
            result = sig.lookup(t.name).result
            return subst(mt, sig, result, sub, ctx) if sub else result
        self.trace.append(f"head mismatch: {show(t)} vs {show(u)}")
        return None

    # -- weak-head reduction -------------------------------------------------

    def whnf(self, ctx: Context, t):
        mt = self.mt
        while True:
            if isinstance(t, App):
                fn = self.whnf(ctx, t.fn)
                if isinstance(fn, Lam):
                    t = subst(mt, self.sig, fn.body, {fn.var: t.arg}, ctx)
                    continue
                return App(fn, t.arg, t.mor, t.span)
            if isinstance(t, LetMod):
                d = self.whnf(push_lock(mt, ctx, t.frame), t.scrutinee)
                if isinstance(d, ModIntro) and d.mor == t.mor:
                    t = subst(mt, self.sig, t.body, {t.xvar: d.body}, ctx)
                    continue
                return LetMod(t.frame, t.mor, t.yvar, t.motive, d, t.xvar,
                              t.body, t.span)
            if isinstance(t, Open):
                body = self.whnf(push_lock(mt, ctx, t.mor), t.body)
                if isinstance(body, Shut) and body.mor == t.mor:
                    counit = mt.dagger(t.mor).counit
                    t = apply_key(mt, self.sig, body.body, counit, ctx)
                    continue
                return Open(t.mor, body, t.span)
            return t


def show(t) -> str:
    """Compact printer for diagnostics."""
    if isinstance(t, Var):
        return t.name if t.key is None else f"{t.name}^{t.key}"
    if isinstance(t, Lam):
        return f"\\{t.var}. {show(t.body)}"
    if isinstance(t, App):
        return f"({show(t.fn)} {show(t.arg)})"
    if isinstance(t, ModIntro):
        return f"mod[{t.mor}] {show(t.body)}"
    if isinstance(t, LetMod):
        return (f"(let[{t.frame},{t.mor}] mod {t.xvar} = {show(t.scrutinee)} "
                f"in {show(t.body)})")
    if isinstance(t, Shut):
        return f"shut[{t.mor}] {show(t.body)}"
    if isinstance(t, Open):
        return f"open[{t.mor}] {show(t.body)}"
    if isinstance(t, Const):
        return " ".join([t.name] + [show(a) for a in t.args])
    if isinstance(t, Pi):
        return f"({t.var} :^{t.mor} {show(t.dom)}) -> {show(t.cod)}"
    if isinstance(t, FMod):
        return f"F[{t.mor}] {show(t.ty)}"
    if isinstance(t, UMod):
        return f"U[{t.mor}] {show(t.ty)}"
    return repr(t)


BRIEF_CHARS = 200  # longer than any type the corpus diagnostics print


def brief(t) -> str:
    """show(t) for a one-line diagnostic: cut after BRIEF_CHARS characters
    and ended with "…".  Trace lines print whole."""
    s = show(t)
    return s if len(s) <= BRIEF_CHARS else s[:BRIEF_CHARS] + "…"


__all__ = ["Kernel", "NoMotive", "show", "empty_context"]
