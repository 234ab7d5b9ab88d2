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
annotation means the identity ("id").  Line comments start with "--".  Only
space, tab, "\\r" and "\\n" separate tokens: any other character that starts
no token, such as a form feed, a no-break space or "é", is an error.

The tokenizer is one `re.split` of the source, a single scan in C, and
classifies each distinct token text once per call.  Every
span is the source offset where its node or declaration starts;
`SourceLines` turns an offset into a line and column only when a diagnostic
is printed.

Parsing keeps surface names; resolution freshens every binder to a globally
unique name and turns free names into signature constants, so downstream
substitution never needs capture checks.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, islice
from typing import Optional

from .errors import ParseError
from .record import frozen
from .syntax import (App, Const, FMod, Lam, LetMod, ModIntro, Open, Pi, Shut,
                     Signature, UMod, Var, fresh)

# every character but a blank starts a match, if only the catch-all's
_TOKEN = re.compile(r"""(
    ->|--[^\n]*|:\^|mode-theory\b|[()\[\],;=@.^\\:]
  | "[^"\n]*"
  | [A-Za-z_][A-Za-z0-9_']*
  | [^ \t\r\n]
)""", re.X)
# A token's kind by its text, else by its first character.  A kind of None,
# as for a lone '"', or no kind marks a stray character.
_KIND_OF_TEXT = {**{s: s for s in ("->", ":^", "mode-theory",
                                  *"()[],;=@.^\\:")}, '"': None}
_NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_KIND_OF_START = {**dict.fromkeys(_NAME_START, "name"), '"': "string"}

_KEYWORDS = {"const", "def", "mod", "let", "in", "motive", "shut", "open",
             "Type"}
# keywords that cannot start an argument of an application spine
_ENDS_SPINE = _KEYWORDS - {"mod", "shut", "open"}


class _Kinds(dict):
    """Token kinds by text, made for one `tokenize` call: a text that is
    no symbol is classified by its first character when first met, and
    remembered for the rest of the call."""

    def __missing__(self, text: str):
        kind = self[text] = _KIND_OF_START.get(text[0])
        return kind


class Tokens:
    """The token stream as three parallel lists: each token's kind ("name",
    "string", or the symbol itself, as "->" or "mode-theory"), its text, and
    the source offset where it starts.  Past the last token, as far as the
    parser looks ahead (two tokens), the lists hold PAST_END more entries
    of kind and text None at the offset of the last token, so the parser
    indexes without a bounds test and reports "end of input" where the
    input ends.  They are not counted as tokens."""

    __slots__ = ("kinds", "texts", "offs")
    PAST_END = 3

    def __init__(self, kinds: list, texts: list, offs: list):
        self.kinds, self.texts, self.offs = kinds, texts, offs

    def __len__(self) -> int:
        return len(self.offs) - self.PAST_END


def tokenize(src: str) -> Tokens:
    """The tokens of `src`, or a ParseError at its first stray character.

    `re.split` gives the texts of tokens, comments and stray characters as
    its odd pieces and the blanks between them as its even ones; a text
    starts at the summed length of the pieces before it.  The catch-all is
    `[^ \\t\\r\\n]`, not `\\S`, and names are ASCII, not `\\w`, so that a
    form feed, a no-break space or an "é" stays a stray character.  Each
    distinct text is classified once, by a `_Kinds` made for the call.
    """
    pieces = _TOKEN.split(src)
    texts = pieces[1::2]
    offs = list(islice(accumulate(map(len, pieces)), 0, len(pieces) - 1, 2))
    del pieces  # its lengths are summed: free it before more lists are built
    if "--" in src:
        code = [t[:2] != "--" for t in texts]
        texts, offs = list(compress(texts, code)), list(compress(offs, code))
    kinds = list(map(_Kinds(_KIND_OF_TEXT).__getitem__, texts))
    if None in kinds:
        i = kinds.index(None)
        raise ParseError(f"unexpected character {texts[i]!r}", offs[i])
    end = [None] * Tokens.PAST_END
    kinds += end
    texts += end
    offs += [offs[-1] if offs else 0] * Tokens.PAST_END
    return Tokens(kinds, texts, offs)


class SourceLines:
    """Line and column, both from 1, of offsets into one source text.  The
    offsets where lines begin are found on the first lookup; each lookup
    bisects them.  Only "\\n" ends a line, so "\\r" counts as a column."""

    def __init__(self, src: str):
        self.src = src
        self.starts: Optional[list[int]] = None

    def __call__(self, offset: int) -> tuple[int, int]:
        if self.starts is None:
            self.starts = [0] + [m.end() for m in re.finditer("\n", self.src)]
        line = bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1


# --- surface declarations ----------------------------------------------------

@frozen
class SurfaceModeTheory:
    path: str
    span: int


@frozen
class SurfaceConst:
    name: str
    params: list  # of (name, mor, surface type, span)
    result: Optional[object]  # surface type, or None for "Type"
    mode: str
    span: int


@frozen
class SurfaceDef:
    name: str
    mode: str
    ty: object
    term: object
    span: int


class Parser:
    def __init__(self, src: str):
        toks = tokenize(src)
        self.kinds, self.texts, self.offs = toks.kinds, toks.texts, toks.offs
        self.pos = 0

    # -- token plumbing --

    def at(self, kind: str, ahead: int = 0) -> bool:
        return self.kinds[self.pos + ahead] == kind

    def at_name(self, text: str) -> bool:
        # no symbol or string has the text of a name
        return self.texts[self.pos] == text

    def here(self) -> int:
        return self.offs[self.pos]

    def expect(self, kind: str) -> str:
        p = self.pos
        if self.kinds[p] != kind:
            got = self.texts[p] or "end of input"
            raise ParseError(f"expected {kind!r}, found {got!r}", self.offs[p])
        self.pos = p + 1
        return self.texts[p]

    # -- qualified names (morphisms and cells, e.g. id:p) --

    def qualified(self) -> str:
        p = self.pos
        if self.kinds[p] == "name" and self.kinds[p + 1] != ":":
            self.pos = p + 1
            return self.texts[p]
        parts = [self.expect("name")]
        while self.at(":") and self.at("name", 1):
            self.pos += 1
            parts.append(self.expect("name"))
        return ":".join(parts)

    def bracket_mor(self) -> str:
        self.expect("[")
        m = self.qualified()
        self.expect("]")
        return m

    # -- declarations --

    def parse_program(self) -> list:
        decls = []
        while self.kinds[self.pos] is not None:
            at = self.here()
            try:
                decls.append(self.decl())
            except RecursionError:
                raise ParseError("nesting too deep to parse", at) from None
            self.expect(";")
        return decls

    def decl(self):
        if self.at("mode-theory"):
            self.pos += 1
            at = self.here()
            return SurfaceModeTheory(self.expect("string")[1:-1], at)
        if self.at_name("const"):
            return self.const_decl()
        if self.at_name("def"):
            return self.def_decl()
        raise ParseError(
            f"expected a declaration, found {self.texts[self.pos]!r}",
            self.here())

    def const_decl(self) -> SurfaceConst:
        at = self.here()
        self.pos += 1
        name = self.expect("name")
        self.expect(":")
        params = []
        while (b := self.binder()) is not None:
            params.append(b)
        if self.at_name("Type"):
            self.pos += 1
            result = None
        else:
            result = self.type_expr()
        self.expect("@")
        mode = self.expect("name")
        return SurfaceConst(name, params, result, mode, at)

    def def_decl(self) -> SurfaceDef:
        at = self.here()
        self.pos += 1
        name = self.expect("name")
        self.expect("@")
        mode = self.expect("name")
        self.expect(":")
        ty = self.type_expr()
        self.expect("=")
        term = self.term()
        return SurfaceDef(name, mode, ty, term, at)

    # -- types --

    def binder(self):
        """`(x :^ mor T)` or `(x : T)`, the omitted annotation written "id",
        as (x, mor, T, offset of x); None, consuming nothing, at anything
        else."""
        p = self.pos
        kinds = self.kinds
        if kinds[p] != "(" or kinds[p + 1] != "name" or \
                kinds[p + 2] != ":^" and kinds[p + 2] != ":":
            return None
        self.pos = p + 3
        mor = self.qualified() if kinds[p + 2] == ":^" else "id"
        ty = self.type_expr()
        self.expect(")")
        return self.texts[p + 1], mor, ty, self.offs[p + 1]

    def type_expr(self):
        # a run of binders `(x :^ m A) -> …` is read in one loop, and its
        # Π chain built from the right, each Π spanning from its "("
        pis = []
        while True:
            at = self.offs[self.pos]
            b = self.binder()
            if b is None:
                break
            self.expect("->")
            pis.append((b, at))
        ty = self.type_body()
        for (v, mor, dom, _), at in reversed(pis):
            ty = Pi(mor, v, dom, ty, at)
        return ty

    def type_body(self):
        """A type that does not start with a binder."""
        p = self.pos
        kind, text, at = self.kinds[p], self.texts[p], self.offs[p]
        if kind is None:
            raise ParseError("expected a type", at)
        if kind == "(":
            self.pos += 1
            inner = self.type_expr()
            self.expect(")")
            return inner
        if kind == "name" and text in ("F", "U") and self.kinds[p + 1] == "[":
            self.pos += 1
            mor = self.bracket_mor()
            body = self.type_atom()
            node = FMod if text == "F" else UMod
            return node(mor, body, at)
        if kind == "name":
            self.pos += 1
            return Const(text, tuple(self.spine()), at)
        raise ParseError(f"expected a type, found {text!r}", at)

    def type_atom(self):
        """A type argument position: parenthesized, modal, or bare name."""
        if self.at("(") or (self.at_name("F") or self.at_name("U")) and \
                self.at("[", 1):
            return self.type_expr()
        p = self.pos
        text = self.texts[p]
        if self.kinds[p] == "name" and text not in _KEYWORDS:
            self.pos += 1
            return Const(text, (), self.offs[p])
        raise ParseError("expected a type", self.offs[p])

    # -- terms --

    def term(self):
        p = self.pos
        kind, text, at = self.kinds[p], self.texts[p], self.offs[p]
        if kind is None:
            raise ParseError("expected a term", at)
        if kind == "\\":
            self.pos += 1
            v = self.expect("name")
            self.expect(".")
            return Lam(v, self.term(), at)
        if kind == "name" and text == "let":
            self.pos += 1
            self.expect("[")
            frame = self.qualified()
            self.expect(",")
            mor = self.qualified()
            self.expect("]")
            if not self.at_name("mod"):
                raise ParseError("expected 'mod' after let[...]", self.here())
            self.pos += 1
            v = self.expect("name")
            self.expect("=")
            scrut = self.term()
            if not self.at_name("in"):
                raise ParseError("expected 'in'", self.here())
            self.pos += 1
            body = self.term()
            motive = None
            if self.at_name("motive"):
                self.pos += 1
                motive = self.type_expr()
            # the same surface name stands for the scrutinee inside the
            # motive and for the unwrapped value inside the branch
            return LetMod(frame, mor, v, motive, scrut, v, body, at)
        if kind == "name" and text in ("mod", "shut", "open") and \
                self.at("[", 1):
            self.pos += 1
            mor = self.bracket_mor()
            body = self.term()
            node = {"mod": ModIntro, "shut": Shut, "open": Open}[text]
            return node(mor, body, at)
        head = self.atom()
        for arg in self.spine():
            head = App(head, arg, None, head.span)
        return head

    def spine(self) -> list:
        """The arguments of an application spine: atoms up to the first
        token that starts none."""
        kinds, texts = self.kinds, self.texts
        args = []
        while True:
            kind = kinds[self.pos]
            if kind == "name":
                if texts[self.pos] in _ENDS_SPINE:
                    return args
            elif kind != "(" and kind != "\\":
                return args
            args.append(self.atom())

    def atom(self):
        p = self.pos
        kinds = self.kinds
        kind, text, at = kinds[p], self.texts[p], self.offs[p]
        if kind == "name":
            if kinds[p + 1] == "^":
                self.pos = p + 2
                return Var(text, self.qualified(), at)
            if kinds[p + 1] == "[" and text in ("mod", "shut", "open"):
                return self.term()
            self.pos = p + 1
            return Var(text, None, at)
        if kind == "(":
            self.pos += 1
            inner = self.term()
            self.expect(")")
            return inner
        if kind == "\\":
            return self.term()  # a trailing lambda argument needs no parens
        raise ParseError(f"expected a term, found {text!r}", at)


def parse_program(src: str) -> list:
    return Parser(src).parse_program()


# --- resolution: freshen binders, resolve constants --------------------------

def resolve_term(t, scope: dict, sig: Signature):
    if isinstance(t, (Var, App)):
        # a spine `head a1 … an`, a bare name being a spine of no arguments:
        # a free name at its head is a term constant, which takes one
        # argument per parameter; each further argument is an application
        span = t.span
        args = []
        while isinstance(t, App):
            args.append(t.arg)
            t = t.fn
        args.reverse()
        k = 0
        if not isinstance(t, Var):
            out = resolve_term(t, scope, sig)
        elif t.name in scope:
            out = Var(scope[t.name], t.key, t.span)
        else:
            decl = sig.decls.get(t.name)
            if decl is None:
                raise ParseError(f"unknown name {t.name}", t.span)
            if decl.result is None:
                raise ParseError(f"type constant {t.name} used as a term",
                                 t.span)
            if t.key is not None:
                raise ParseError(f"constant {t.name} cannot carry a key",
                                 t.span)
            k = len(decl.params)
            if len(args) < k:
                got = f", got {len(args)}" if args else ""
                raise ParseError(
                    f"constant {t.name} expects {k} arguments{got}", t.span)
            own = []
            for a in args[:k]:
                own.append(resolve_term(a, scope, sig))
            out = Const(t.name, tuple(own), t.span)
        for a in args[k:]:
            out = App(out, resolve_term(a, scope, sig), None, span)
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
    if isinstance(a, Const):
        if a.name in scope:
            raise ParseError(f"term variable {a.name} used as a type", a.span)
        if a.name not in sig.decls or sig.decls[a.name].result is not None:
            raise ParseError(f"unknown type constant {a.name}", a.span)
        decl = sig.decls[a.name]
        if len(a.args) != len(decl.params):
            raise ParseError(
                f"type constant {a.name} expects {len(decl.params)} "
                f"arguments, got {len(a.args)}", a.span)
        if not a.args:
            return a
        args = tuple(resolve_term(x, scope, sig) for x in a.args)
        return Const(a.name, args, a.span)
    raise ParseError(f"not a type: {a!r}", getattr(a, "span", None))
