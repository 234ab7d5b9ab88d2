"""Bidirectional type checker and conversion for the modal kernel.

Checking is parameterized by a validated mode theory and a signature of
constants.  Conversion is type-directed: η at function types and at the
negative modality (via open after a unit key), weak-head β everywhere,
structural comparison at the positive modality and at base types.
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
        # λ binders the comparison is under whose types are unknown; while
        # there are any, application spines compare untyped
        self._untyped = 0

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
            if self.sig.lookup(a.name).result is not None:
                raise UnknownConstant(f"{a.name} is not a type constant", a.span)
            args, _ = self._spine_types(ctx, a.name, a.args)
            return Const(a.name, args, a.span)
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

    def convert_types(self, ctx: Context, a, b) -> bool:
        mt = self.mt
        if type(a) is not type(b):
            self.trace.append(f"type head mismatch: {show(a)} vs {show(b)}")
            return False
        if isinstance(a, Pi):
            if a.mor != b.mor:
                return False
            if not self.convert_types(push_lock(mt, ctx, a.mor), a.dom, b.dom):
                return False
            z = fresh("z")
            ctx2 = push_var(mt, ctx, z, a.mor, a.dom)
            return self.convert_types(ctx2, rename_var(a.cod, {a.var: z}),
                                      rename_var(b.cod, {b.var: z}))
        if isinstance(a, FMod):
            return a.mor == b.mor and \
                self.convert_types(push_lock(mt, ctx, a.mor), a.ty, b.ty)
        if isinstance(a, UMod):
            if a.mor != b.mor:
                return False
            dag = mt.dagger(a.mor).dagger
            return self.convert_types(push_lock(mt, ctx, dag), a.ty, b.ty)
        if isinstance(a, Const):
            if a.name != b.name:
                self.trace.append(f"type constants differ: {a.name} vs {b.name}")
                return False
            return self._convert_spines(ctx, a.name, a.args, b.args)
        return False

    def _convert_spines(self, ctx: Context, name: str, xs, ys) -> bool:
        mt = self.mt
        decl = self.sig.lookup(name)
        sub = {}
        for p, x, y in zip(decl.params, xs, ys):
            ty = subst(mt, self.sig, p.ty, sub, ctx) if sub else p.ty
            if not self.convert(push_lock(mt, ctx, p.mor), ty, x, y):
                return False
            sub[p.name] = x
        return True

    def convert(self, ctx: Context, a, t, u) -> bool:
        """Type-directed term conversion at type a."""
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
        if isinstance(a, FMod):
            tw, uw = self.whnf(ctx, t), self.whnf(ctx, u)
            if isinstance(tw, ModIntro) and isinstance(uw, ModIntro):
                if tw.mor != uw.mor:
                    return False
                return self.convert(push_lock(mt, ctx, a.mor), a.ty,
                                    tw.body, uw.body)
            return self._whnf_eq(ctx, tw, uw, reduced=True)
        return self._whnf_eq(ctx, t, u)

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

    def _whnf_eq(self, ctx: Context, t, u, reduced=False) -> bool:
        """Untyped structural comparison of weak-head normal forms."""
        mt = self.mt
        if not reduced:
            t, u = self.whnf(ctx, t), self.whnf(ctx, u)
        if isinstance(t, Var) and isinstance(u, Var):
            ok = t.name == u.name and t.key == u.key
            if not ok:
                self.trace.append(f"variables differ: {t.name}^{t.key} vs "
                                  f"{u.name}^{u.key}")
            return ok
        if isinstance(t, App) and isinstance(u, App):
            if not self._untyped:
                return self._spine_eq(ctx, t, u) is not None
            return self._whnf_eq(ctx, t.fn, u.fn, reduced=True) and \
                self._whnf_eq(push_lock(mt, ctx, t.mor) if t.mor else ctx,
                              t.arg, u.arg)
        if isinstance(t, Lam) and isinstance(u, Lam):
            z = fresh("z")
            self._untyped += 1
            try:
                return self._whnf_eq(ctx, rename_var(t.body, {t.var: z}),
                                     rename_var(u.body, {u.var: z}))
            finally:
                self._untyped -= 1
        if isinstance(t, ModIntro) and isinstance(u, ModIntro):
            return t.mor == u.mor and \
                self._whnf_eq(push_lock(mt, ctx, t.mor), t.body, u.body)
        if isinstance(t, Shut) and isinstance(u, Shut):
            if t.mor != u.mor:
                return False
            dag = mt.dagger(t.mor).dagger
            return self._whnf_eq(push_lock(mt, ctx, dag), t.body, u.body)
        if isinstance(t, Open) and isinstance(u, Open):
            return t.mor == u.mor and \
                self._whnf_eq(push_lock(mt, ctx, t.mor), t.body, u.body)
        if isinstance(t, LetMod) and isinstance(u, LetMod):
            if (t.frame, t.mor) != (u.frame, u.mor):
                return False
            if not self._whnf_eq(push_lock(mt, ctx, t.frame), t.scrutinee,
                                 u.scrutinee):
                return False
            z = fresh("z")
            if not self._untyped:
                # z is the scrutinee's unwrapped value, as _infer_letmod binds x
                dty = self.infer(push_lock(mt, ctx, t.frame), t.scrutinee)[0]
                ctx = push_var(mt, ctx, z, mt.compose(t.frame, t.mor), dty.ty)
            return self._whnf_eq(ctx, rename_var(t.body, {t.xvar: z}),
                                 rename_var(u.body, {u.xvar: z}))
        if isinstance(t, Const) and isinstance(u, Const):
            if t.name != u.name:
                self.trace.append(f"constants differ: {t.name} vs {u.name}")
                return False
            return self._convert_spines(ctx, t.name, t.args, u.args)
        self.trace.append(f"head mismatch: {show(t)} vs {show(u)}")
        return False

    def _spine_eq(self, ctx: Context, t, u):
        """The type of the neutral t when t and u are equal, else None.

        An application spine is compared as MTT compares neutrals: the
        heads structurally, then each argument by `convert` at its Pi
        domain, under its lock, so η holds under the arguments.  The head's
        type is inferred once the heads agree, so every variable of t must
        be typed by ctx: _whnf_eq calls this only outside untyped λ bodies."""
        if not (isinstance(t, App) and isinstance(u, App)):
            if not self._whnf_eq(ctx, t, u, reduced=True):
                return None
            return self.infer(ctx, t)[0]
        fty = self._spine_eq(ctx, t.fn, u.fn)
        if fty is None or not self.convert(push_lock(self.mt, ctx, fty.mor),
                                           fty.dom, t.arg, u.arg):
            return None
        return subst(self.mt, self.sig, fty.cod, {fty.var: t.arg}, ctx)


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
