"""Surface syntax for .matt source files.

A file is a sequence of declarations terminated by ";":

    mode-theory "path.mt";
    const Name : (x :^ mor Type-or-param)* Type @ mode;     -- type constant
    const name : (x :^ mor T)* T @ mode;                    -- term constant
    def name @ mode : T = term;

Terms:  \\x. t   |  t u  |  mod[mor] t  |  let[frame,mor] mod x = d in b (motive T)?
        |  shut[mor] t  |  open[mor] t  |  name(^cell)?
Types:  (x :^ mor T) -> T  |  F[mor] T  |  U[mor] T  |  Name args

Morphism and cell names may be qualified (id:p, id:id:p).  An omitted ^mor
annotation means the identity ("id").  Line comments start with "--".

Parsing keeps surface names; resolution freshens every binder to a globally
unique name and turns free names into signature constants, so downstream
substitution never needs capture checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import ParseError
from .mode_theory import ModeTheory
from .syntax import (App, Const, FMod, Lam, LetMod, ModIntro, Open, Pi, Shut,
                     Signature, TConst, UMod, Var, fresh)

# One match per token: the blank lines, blanks and comments before it (the
# lines that end in a newline in group "lines"), then the token, a stray
# character, or nothing at the end of the input.  A comment runs to the end
# of its line, so after the last newline only blanks and one comment remain.
_TOKEN = re.compile(r"""
  (?P<lines>(?:[ \t\r]*(?:--[^\n]*)?\n)*)
  [ \t\r]*(?:--[^\n]*)?
  (?:
    (?P<sym>->|:\^|mode-theory\b|[()\[\],;=@.^\\:])
  | (?P<string>"[^"\n]*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<bad>.)
  )?
""", re.X)

_KEYWORDS = {"const", "def", "mod", "let", "in", "motive", "shut", "open",
             "Type"}
# keywords that cannot start an argument of an application spine
_ENDS_SPINE = _KEYWORDS - {"mod", "shut", "open"}


class Token(NamedTuple):
    kind: str   # "name", "string", or the symbol itself ("->", "mode-theory")
    text: str
    line: int
    col: int


def tokenize(src: str, filename: str = "<input>") -> list[Token]:
    out, line, bol = [], 1, 0  # bol: the index where the line begins
    append = out.append
    for m in _TOKEN.finditer(src):
        lines, sym, string, name, bad = m.groups()
        if lines:
            line += lines.count("\n")
            bol = m.end(1)
        text = name or sym or string or bad
        if text is None:  # only blanks and comments up to the end
            continue
        col = m.end() - len(text) - bol + 1
        if bad:
            raise ParseError(f"unexpected character {bad!r}", (line, col))
        append(Token("name" if name else sym or "string", text, line, col))
    return out


# --- surface declarations ----------------------------------------------------

@dataclass
class SurfaceModeTheory:
    path: str
    span: tuple


@dataclass
class SurfaceConst:
    name: str
    params: list  # of (name, mor, surface type, span)
    result: Optional[object]  # surface type, or None for "Type"
    mode: str
    span: tuple


@dataclass
class SurfaceDef:
    name: str
    mode: str
    ty: object
    term: object
    span: tuple


class Parser:
    def __init__(self, src: str, filename: str = "<input>"):
        toks = tokenize(src, filename)
        self.last = toks[-1] if toks else None
        # None past the end, as far as the parser looks ahead (two tokens),
        # so the plumbing below indexes without a bounds test
        self.toks = toks + [None] * 3
        self.pos = 0
        self.filename = filename

    # -- token plumbing --

    def peek(self) -> Optional[Token]:
        return self.toks[self.pos]

    def at(self, kind: str, ahead: int = 0) -> bool:
        t = self.toks[self.pos + ahead]
        return t is not None and t.kind == kind

    def at_name(self, text: str, ahead: int = 0) -> bool:
        t = self.toks[self.pos + ahead]
        return t is not None and t.kind == "name" and t.text == text

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t is None:
            raise ParseError("unexpected end of input", self._last_span())
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.toks[self.pos]
        if t is None or t.kind != kind:
            got = t.text if t else "end of input"
            raise ParseError(f"expected {kind!r}, found {got!r}",
                             self._span(t))
        self.pos += 1
        return t

    def _span(self, t: Optional[Token]):
        return (t.line, t.col) if t else self._last_span()

    def _last_span(self):
        return (self.last.line, self.last.col) if self.last else (1, 1)

    # -- qualified names (morphisms and cells, e.g. id:p) --

    def qualified(self) -> str:
        parts = [self.expect("name").text]
        while self.at(":") and self.at("name", 1):
            self.next()
            parts.append(self.expect("name").text)
        return ":".join(parts)

    def bracket_mor(self) -> str:
        self.expect("[")
        m = self.qualified()
        self.expect("]")
        return m

    # -- declarations --

    def parse_program(self) -> list:
        decls = []
        while self.peek() is not None:
            start = self.peek()
            try:
                decls.append(self.decl())
            except RecursionError:
                raise ParseError("nesting too deep to parse",
                                 self._span(start)) from None
            self.expect(";")
        return decls

    def decl(self):
        t = self.peek()
        if t.kind == "mode-theory":
            self.next()
            s = self.expect("string")
            return SurfaceModeTheory(s.text[1:-1], (s.line, s.col))
        if self.at_name("const"):
            return self.const_decl()
        if self.at_name("def"):
            return self.def_decl()
        raise ParseError(f"expected a declaration, found {t.text!r}",
                         self._span(t))

    def const_decl(self) -> SurfaceConst:
        kw = self.next()
        name = self.expect("name").text
        self.expect(":")
        params = []
        while (b := self.binder()) is not None:
            p, mor, ty = b
            params.append((p.text, mor, ty, (p.line, p.col)))
        if self.at_name("Type"):
            self.next()
            result = None
        else:
            result = self.type_expr()
        self.expect("@")
        mode = self.expect("name").text
        return SurfaceConst(name, params, result, mode, (kw.line, kw.col))

    def def_decl(self) -> SurfaceDef:
        kw = self.next()
        name = self.expect("name").text
        self.expect("@")
        mode = self.expect("name").text
        self.expect(":")
        ty = self.type_expr()
        self.expect("=")
        term = self.term()
        return SurfaceDef(name, mode, ty, term, (kw.line, kw.col))

    # -- types --

    def binder(self):
        """`(x :^ mor T)` or `(x : T)`, the omitted annotation written "id",
        as (name token, mor, T); None, consuming nothing, at anything else."""
        if not (self.at("(") and self.at("name", 1) and
                (self.at(":^", 2) or self.at(":", 2))):
            return None
        self.next()
        v = self.expect("name")
        mor = self.qualified() if self.next().kind == ":^" else "id"
        ty = self.type_expr()
        self.expect(")")
        return v, mor, ty

    def type_expr(self):
        t = self.peek()
        if t is None:
            raise ParseError("expected a type", self._last_span())
        b = self.binder()
        if b is not None:
            v, mor, dom = b
            self.expect("->")
            return Pi(mor, v.text, dom, self.type_expr(), (t.line, t.col))
        if t.kind == "(":
            self.next()
            inner = self.type_expr()
            self.expect(")")
            return inner
        if t.kind == "name" and t.text in ("F", "U") and self.at("[", 1):
            self.next()
            mor = self.bracket_mor()
            body = self.type_atom()
            node = FMod if t.text == "F" else UMod
            return node(mor, body, (t.line, t.col))
        if t.kind == "name":
            self.next()
            args = []
            while self.starts_atom():
                args.append(self.atom())
            return TConst(t.text, tuple(args), (t.line, t.col))
        raise ParseError(f"expected a type, found {t.text!r}", self._span(t))

    def type_atom(self):
        """A type argument position: parenthesized, modal, or bare name."""
        t = self.peek()
        if self.at("(") or (self.at_name("F") or self.at_name("U")) and \
                self.at("[", 1):
            return self.type_expr()
        if t is not None and t.kind == "name" and t.text not in _KEYWORDS:
            self.next()
            return TConst(t.text, (), (t.line, t.col))
        raise ParseError("expected a type", self._span(t))

    # -- terms --

    def term(self):
        t = self.peek()
        if t is None:
            raise ParseError("expected a term", self._last_span())
        if t.kind == "\\":
            self.next()
            v = self.expect("name").text
            self.expect(".")
            return Lam(v, self.term(), (t.line, t.col))
        if t.kind == "name" and t.text == "let":
            self.next()
            self.expect("[")
            frame = self.qualified()
            self.expect(",")
            mor = self.qualified()
            self.expect("]")
            if not self.at_name("mod"):
                raise ParseError("expected 'mod' after let[...]",
                                 self._span(self.peek()))
            self.next()
            v = self.expect("name").text
            self.expect("=")
            scrut = self.term()
            if not self.at_name("in"):
                raise ParseError("expected 'in'", self._span(self.peek()))
            self.next()
            body = self.term()
            motive = None
            if self.at_name("motive"):
                self.next()
                motive = self.type_expr()
            # the same surface name stands for the scrutinee inside the
            # motive and for the unwrapped value inside the branch
            return LetMod(frame, mor, v, motive, scrut, v, body,
                          (t.line, t.col))
        if t.kind == "name" and t.text in ("mod", "shut", "open") and \
                self.at("[", 1):
            self.next()
            mor = self.bracket_mor()
            body = self.term()
            node = {"mod": ModIntro, "shut": Shut, "open": Open}[t.text]
            return node(mor, body, (t.line, t.col))
        # application spine
        head = self.atom()
        while self.starts_atom():
            arg = self.atom()
            head = App(head, arg, None, getattr(head, "span", None))
        return head

    def starts_atom(self) -> bool:
        t = self.toks[self.pos]
        if t is None:
            return False
        if t.kind == "name":
            return t.text not in _ENDS_SPINE
        return t.kind == "(" or t.kind == "\\"

    def atom(self):
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if t.kind == "\\":
            return self.term()  # a trailing lambda argument needs no parens
        if t.kind == "name" and t.text in ("mod", "shut", "open") and \
                self.at("[", 1):
            return self.term()
        if t.kind == "name":
            self.next()
            key = None
            if self.at("^"):
                self.next()
                key = self.qualified()
            return Var(t.text, key, (t.line, t.col))
        raise ParseError(f"expected a term, found {t.text!r}", self._span(t))


def parse_program(src: str, filename: str = "<input>") -> list:
    return Parser(src, filename).parse_program()


# --- resolution: freshen binders, resolve constants --------------------------

def _spine(t):
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, list(reversed(args))


def resolve_term(t, scope: dict, sig: Signature):
    if isinstance(t, Var):
        if t.name in scope:
            return Var(scope[t.name], t.key, t.span)
        if t.name in sig.decls:
            decl = sig.decls[t.name]
            if decl.result is None:
                raise ParseError(f"type constant {t.name} used as a term",
                                 t.span)
            if t.key is not None:
                raise ParseError(f"constant {t.name} cannot carry a key",
                                 t.span)
            if decl.params:
                raise ParseError(
                    f"constant {t.name} expects {len(decl.params)} "
                    f"arguments", t.span)
            return Const(t.name, (), t.span)
        raise ParseError(f"unknown name {t.name}", t.span)
    if isinstance(t, App):
        head, args = _spine(t)
        if isinstance(head, Var) and head.name not in scope and \
                head.name in sig.decls and sig.decls[head.name].params:
            decl = sig.decls[head.name]
            k = len(decl.params)
            if head.key is not None:
                raise ParseError(f"constant {head.name} cannot carry a key",
                                 head.span)
            if len(args) < k:
                raise ParseError(
                    f"constant {head.name} expects {k} arguments, "
                    f"got {len(args)}", head.span)
            out = Const(head.name,
                        tuple(resolve_term(a, scope, sig) for a in args[:k]),
                        head.span)
            for a in args[k:]:
                out = App(out, resolve_term(a, scope, sig), None, head.span)
            return out
        out = resolve_term(head, scope, sig)
        for a in args:
            out = App(out, resolve_term(a, scope, sig), None,
                      getattr(t, "span", None))
        return out
    if isinstance(t, Lam):
        v = fresh(t.var)
        return Lam(v, resolve_term(t.body, {**scope, t.var: v}, sig), t.span)
    if isinstance(t, ModIntro):
        return ModIntro(t.mor, resolve_term(t.body, scope, sig), t.span)
    if isinstance(t, Shut):
        return Shut(t.mor, resolve_term(t.body, scope, sig), t.span)
    if isinstance(t, Open):
        return Open(t.mor, resolve_term(t.body, scope, sig), t.span)
    if isinstance(t, LetMod):
        scrut = resolve_term(t.scrutinee, scope, sig)
        y, x = fresh(t.yvar), fresh(t.xvar)
        motive = None
        if t.motive is not None:
            motive = resolve_type(t.motive, {**scope, t.yvar: y}, sig)
        body = resolve_term(t.body, {**scope, t.xvar: x}, sig)
        return LetMod(t.frame, t.mor, y, motive, scrut, x, body, t.span)
    raise ParseError(f"not a term: {t!r}", getattr(t, "span", None))


def resolve_type(a, scope: dict, sig: Signature):
    if isinstance(a, Pi):
        dom = resolve_type(a.dom, scope, sig)
        v = fresh(a.var)
        cod = resolve_type(a.cod, {**scope, a.var: v}, sig)
        return Pi(a.mor, v, dom, cod, a.span)
    if isinstance(a, FMod):
        return FMod(a.mor, resolve_type(a.ty, scope, sig), a.span)
    if isinstance(a, UMod):
        return UMod(a.mor, resolve_type(a.ty, scope, sig), a.span)
    if isinstance(a, TConst):
        if a.name in scope:
            raise ParseError(f"term variable {a.name} used as a type", a.span)
        if a.name not in sig.decls or sig.decls[a.name].result is not None:
            raise ParseError(f"unknown type constant {a.name}", a.span)
        decl = sig.decls[a.name]
        if len(a.args) != len(decl.params):
            raise ParseError(
                f"type constant {a.name} expects {len(decl.params)} "
                f"arguments, got {len(a.args)}", a.span)
        args = tuple(_resolve_arg(x, scope, sig) for x in a.args)
        return TConst(a.name, args, a.span)
    raise ParseError(f"not a type: {a!r}", getattr(a, "span", None))


def _resolve_arg(x, scope, sig):
    """Type-constant arguments are terms; bare names parse as TConst."""
    if isinstance(x, TConst) and not x.args:
        return resolve_term(Var(x.name, None, x.span), scope, sig)
    return resolve_term(x, scope, sig)
