"""Contexts, terms, and types, with lock normalization and key transport.

Variables are named; the parser alpha-freshens every binder so names are
globally unique within a checking run, which makes substitution capture-free
without index shifting.  Every variable occurrence carries a 2-cell key
(None until the checker resolves the `omitted key` sugar).

Key transport follows the substitution calculus: applying a cell β at the
final lock of a term's context whiskers β on the right each time the
traversal crosses a lock inside the term, and whiskers on the left by the
per-variable segment locks taken from the ambient context.

The table SLOTS is the single statement of the lock discipline (Gratzer,
Kavvos, Nuyts & Birkedal, "Multimodal Dependent Type Theory", LMCS 2021):
for each node class it lists the sub-terms, the lock each sits under and
the variable each binds.  `apply_key`, `subst` and `rename_var` all
traverse terms through it.  A childless node, a constant with no
arguments, passes through every traversal as it is, before SLOTS is read:
no traversal can change it.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Union

from .errors import ModeMismatch, NotTangible, UnknownConstant
from .mode_theory import ModeTheory, id_mor_name
from .record import field, frozen

_fresh_counter = itertools.count()


def fresh(stem: str = "x") -> str:
    """A name the surface grammar cannot produce."""
    return f"{stem}!{next(_fresh_counter)}"


Span = Optional[int]  # the source offset where the node's syntax starts


# --- terms and types --------------------------------------------------------

@frozen
class Var:
    name: str
    key: Optional[str]  # cell name; None until elaborated
    span: Span = field(default=None, compare=False)


@frozen
class Lam:
    var: str
    body: "Term"
    span: Span = field(default=None, compare=False)


@frozen
class App:
    fn: "Term"
    arg: "Term"
    mor: Optional[str] = None  # annotation of the Pi domain; filled by infer
    span: Span = field(default=None, compare=False)


@frozen
class ModIntro:
    mor: str
    body: "Term"
    span: Span = field(default=None, compare=False)


@frozen
class LetMod:
    frame: str  # ν
    mor: str    # μ
    yvar: str
    motive: Optional["TypeExpr"]
    scrutinee: "Term"
    xvar: str
    body: "Term"
    span: Span = field(default=None, compare=False)


@frozen
class Shut:
    mor: str
    body: "Term"
    span: Span = field(default=None, compare=False)


@frozen
class Open:
    mor: str
    body: "Term"
    span: Span = field(default=None, compare=False)


@frozen
class Const:
    """A signature constant applied to one argument per parameter: a type
    when its declaration has no result type, a term otherwise."""
    name: str
    args: tuple
    span: Span = field(default=None, compare=False)


@frozen
class Pi:
    mor: str
    var: str
    dom: "TypeExpr"
    cod: "TypeExpr"
    span: Span = field(default=None, compare=False)


@frozen
class FMod:
    mor: str
    ty: "TypeExpr"
    span: Span = field(default=None, compare=False)


@frozen
class UMod:
    mor: str
    ty: "TypeExpr"
    span: Span = field(default=None, compare=False)


Term = Union[Var, Lam, App, ModIntro, LetMod, Shut, Open, Const]
TypeExpr = Union[Pi, FMod, UMod, Const]


# --- signatures -------------------------------------------------------------

@frozen
class Param:
    name: str
    mor: str
    ty: TypeExpr


@frozen
class ConstDecl:
    name: str
    mode: str
    params: tuple  # of Param
    result: Optional[TypeExpr]  # None for type constants


class Signature:
    def __init__(self):
        self.decls: dict[str, ConstDecl] = {}

    def declare(self, decl: ConstDecl):
        if decl.name in self.decls:
            raise UnknownConstant(f"constant {decl.name} declared twice")
        self.decls[decl.name] = decl

    def lookup(self, name: str) -> ConstDecl:
        try:
            return self.decls[name]
        except KeyError:
            raise UnknownConstant(f"unknown constant {name}") from None


# --- contexts ---------------------------------------------------------------

@frozen
class LockEntry:
    mor: str


@frozen
class VarEntry:
    name: str
    mor: str
    ty: TypeExpr


@frozen
class Context:
    mode: str          # current mode (after all entries)
    entries: tuple = ()


def empty_context(mode: str) -> Context:
    return Context(mode, ())


def push_lock(mt: ModeTheory, ctx: Context, mor: str) -> Context:
    if mor == id_mor_name(ctx.mode):
        return ctx  # an identity at another mode fails the check below
    m = mt.mor(mor)
    if m.dst != ctx.mode:
        raise ModeMismatch(f"lock {mor} expects mode {m.dst}, context is at {ctx.mode}")
    entries = ctx.entries
    if entries and isinstance(entries[-1], LockEntry):
        merged = mt.compose(entries[-1].mor, mor)
        entries = entries[:-1]
        if not mt.is_id_mor(merged):
            entries = entries + (LockEntry(merged),)
        return Context(m.src, entries)
    return Context(m.src, entries + (LockEntry(mor),))


def push_var(mt: ModeTheory, ctx: Context, name: str, mor: str, ty: TypeExpr,
             span: Span = None) -> Context:
    m = mt.mor(mor)
    if m.dst != ctx.mode:
        raise ModeMismatch(
            f"variable annotation {mor} expects mode {m.dst}, context is at {ctx.mode}",
            span)
    if not mt.in_class("tangible", mor):
        raise NotTangible(f"variable annotation {mor} is not tangible", span)
    return Context(ctx.mode, ctx.entries + (VarEntry(name, mor, ty),))


def locks_after_map(mt: ModeTheory, ctx: Context) -> dict[str, str]:
    """For each variable in the context, the composite of all locks after it
    (a morphism from ctx.mode into the variable's mode)."""
    out: dict[str, str] = {}
    acc = mt.id_mor(ctx.mode)
    for e in reversed(ctx.entries):
        if isinstance(e, LockEntry):
            # prepend: the later locks already in acc sit to the right
            acc = mt.compose(e.mor, acc)
        else:
            out[e.name] = acc
    return out


def find_var(mt: ModeTheory, ctx: Context, name: str):
    """(entry, prefix Context, delta) or None, from one backward walk.

    delta is the composite of the locks after the variable, built as
    locks_after_map builds it: a morphism from ctx.mode into the prefix's
    mode, which is therefore delta's target.
    """
    entries = ctx.entries
    delta = mt.id_mor(ctx.mode)
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        if isinstance(e, LockEntry):
            delta = mt.compose(e.mor, delta)
        elif e.name == name:
            return e, Context(mt.mor(delta).dst, entries[:i]), delta
    return None


# --- the lock discipline ----------------------------------------------------

# node class -> its sub-term fields in constructor order, each as
# (field, lock, binder field).  The lock is the node's own "mor", the
# "dagger" of mor, the let-mod "frame", or None; a field under "param" is a
# spine whose argument i sits under the constant's parameter i's mor.
SLOTS = {
    Lam: (("body", None, "var"),),
    App: (("fn", None, None), ("arg", "mor", None)),
    ModIntro: (("body", "mor", None),),
    LetMod: (("motive", None, "yvar"), ("scrutinee", "frame", None),
             ("body", None, "xvar")),
    Shut: (("body", "dagger", None),),
    Open: (("body", "mor", None),),
    Const: (("args", "param", None),),
    Pi: (("dom", "mor", None), ("cod", None, "var")),
    FMod: (("ty", "mor", None),),
    UMod: (("ty", "dagger", None),),
}


def _lock_mor(mt: ModeTheory, sig: Signature, t, lock: str, i: int) -> str:
    """The morphism of a lock named in SLOTS, for sub-term i of node t."""
    if lock == "frame":
        return t.frame
    if lock == "param":
        return sig.lookup(t.name).params[i].mor
    assert t.mor is not None, "apply_key requires an elaborated term"
    return mt.dagger(t.mor).dagger if lock == "dagger" else t.mor


def children(t):
    """(sub-term, lock, position, bound name or None) for each sub-term of a
    node other than Var, in constructor order; an absent motive is skipped.

    Callers recurse from a plain loop over this generator, not from a
    comprehension or a callback, so a traversal costs one Python frame per
    nesting level of the term and deep terms fit the recursion limit.  A
    constant with no arguments has no sub-terms, and every traversal hands
    it back without calling this.
    """
    for name, lock, binder in SLOTS[type(t)]:
        sub = getattr(t, name)
        if lock == "param":
            for i, a in enumerate(sub):
                yield a, lock, i, None
        elif sub is not None:
            yield sub, lock, 0, getattr(t, binder) if binder else None


def rebuild(t, new: list):
    """t with its sub-terms replaced by `new`, listed in the order of
    children(t); t itself when every sub-term is unchanged."""
    changes = {}
    k = 0
    for name, lock, _ in SLOTS[type(t)]:
        old = getattr(t, name)
        if lock == "param":
            sub = tuple(new[k:k + len(old)])
            k += len(old)
            if any(a is not b for a, b in zip(sub, old)):
                changes[name] = sub
        elif old is not None:
            if new[k] is not old:
                changes[name] = new[k]
            k += 1
    return type(t)(*[changes.get(f, getattr(t, f)) for f in t._fields]) \
        if changes else t


# --- key transport and substitution ----------------------------------------

def apply_key(mt: ModeTheory, sig: Signature, t, beta: str, ctx: Context):
    """Transport a term/type checked in `ctx` along the key substitution
    ⟦1⟧β applied at the final lock of `ctx`.

    Each free variable's key is whiskered on the left by the composite of
    the locks between it and that final lock (locks_after_map of `ctx`,
    built only for a non-identity β).

    A transport along an identity cell, at the top or at any sub-term the
    whiskered cell reaches, returns its input without traversing it.  This
    is exact on a theory that passes `validate_mode_theory`: there,
    `vcompose-unital` and `whisker-left-identity` make every variable's new
    key its old one, and `whisker-right-identity` keeps the cell an identity
    under every lock, so the full traversal would rebuild nothing.  A
    constant with no arguments, which has no free variable, returns before
    the lock map is built.
    """
    if mt.is_id_cell(beta) or type(t) is Const and not t.args:
        return t
    return _ak(mt, sig, t, beta, locks_after_map(mt, ctx))


def _ak(mt, sig, t, c, la):
    if mt.is_id_cell(c) or type(t) is Const and not t.args:
        return t
    if isinstance(t, Var):
        d = la.get(t.name)
        if d is None:
            return t  # bound inside the transported term
        key = mt.vcomp(mt.wl(d, c), t.key)
        return t if key == t.key else Var(t.name, key, t.span)
    kids = []
    for u, lock, i, _ in children(t):
        cu = c if lock is None else \
            mt.wr(c, _lock_mor(mt, sig, t, lock, i))
        kids.append(_ak(mt, sig, u, cu, la))
    return rebuild(t, kids)


def subst(mt: ModeTheory, sig: Signature, body, sub: Mapping[str, object],
          ctx: Context):
    """body[x ← sub[x] for each name x of sub], in one traversal.

    Each `sub[x]` is typed in Γ⧸μ, where μ is x's annotation and Γ the
    prefix before x; `ctx` is the one context the replacements' free
    variables live in.  Each occurrence x^α is replaced by sub[x]
    transported along α, as apply_key does; locks_after_map of `ctx` is
    built at the first α that is not an identity.  Since every binder has
    a unique name, no replacement mentions a name of `sub`, and the
    simultaneous substitution equals substituting one name at a time.
    """
    return _subst(mt, sig, body, sub, ctx, [])


def _subst(mt, sig, t, sub, ctx, la: list):
    # `la` holds locks_after_map(mt, ctx) once it is built.  Module-level,
    # as is _rename: a closure that calls itself is a reference cycle, and
    # would hold `sub` and `ctx` until the next garbage collection.
    if isinstance(t, Var):
        repl = sub.get(t.name)
        if repl is None:
            return t
        if mt.is_id_cell(t.key):
            return repl
        if not la:
            la.append(locks_after_map(mt, ctx))
        return _ak(mt, sig, repl, t.key, la[0])
    if type(t) is Const and not t.args:
        return t
    kids = []
    for u, _, _, _ in children(t):
        kids.append(_subst(mt, sig, u, sub, ctx, la))
    return rebuild(t, kids)


def rename_var(t, ren: Mapping[str, str]):
    """Rename the free occurrences of each variable x of `ren` to ren[x],
    keys untouched, in one traversal.  A binder of x hides x's entry from
    the sub-term it binds in."""
    return _rename(t, ren)


def _rename(t, ren):
    if isinstance(t, Var):
        new = ren.get(t.name)
        return t if new is None else Var(new, t.key, t.span)
    if type(t) is Const and not t.args:
        return t
    kids = []
    for u, _, _, bound in children(t):
        if bound in ren:
            inner = {k: n for k, n in ren.items() if k != bound}
            kids.append(_rename(u, inner) if inner else u)
        else:
            kids.append(_rename(u, ren))
    return rebuild(t, kids)
