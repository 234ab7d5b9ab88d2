"""Surface grammar: tokenizing, parsing, and name resolution."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matt.errors import ParseError
from matt.parser import (Parser, SourceLines, SurfaceConst, SurfaceDef,
                         SurfaceModeTheory, parse_program, resolve_term,
                         resolve_type, tokenize)
from matt.syntax import (App, Const, ConstDecl, FMod, Lam, LetMod, ModIntro,
                         Open, Param, Pi, Shut, Signature, UMod, Var)


def test_empty_file():
    assert parse_program("") == []


def test_mode_theory_decl():
    [d] = parse_program('mode-theory "foo.mt";')
    assert isinstance(d, SurfaceModeTheory)
    assert d.path == "foo.mt"


def test_const_type_decl():
    [d] = parse_program("const A : Type @ p;")
    assert isinstance(d, SurfaceConst)
    assert d.name == "A" and d.result is None and d.mode == "p"
    assert d.params == []


def test_const_telescope():
    [d] = parse_program("const El : (x :^ id:p A) Type @ p;")
    [(name, mor, ty, _)] = d.params
    assert name == "x" and mor == "id:p"
    assert ty == Const("A", ())


def test_def_decl_with_lambda():
    [d] = parse_program("def idA @ p : (x : A) -> A = \\x. x;")
    assert isinstance(d, SurfaceDef)
    assert d.ty == Pi("id", "x", Const("A", ()), Const("A", ()))
    assert d.term == Lam("x", Var("x", None))


def test_binder_is_one_production():
    # a telescope entry and a Pi domain read the same binder, and a type
    # argument in parentheses or under F[…] may itself be a Pi
    [c, d] = parse_program("const c : (x :^ mu A) (y : B) Type @ p;\n"
                           "def d @ p : F[mu] (x :^ mu A) -> (y : B) -> A "
                           "= a0;")
    assert [(n, m, t) for n, m, t, _ in c.params] == \
        [("x", "mu", Const("A", ())), ("y", "id", Const("B", ()))]
    assert d.ty == FMod("mu", Pi("mu", "x", Const("A", ()),
                                 Pi("id", "y", Const("B", ()),
                                    Const("A", ()))))


def test_qualified_names_and_keys():
    [d] = parse_program("def k @ p : A = x^id:id:p;")
    assert d.term == Var("x", "id:id:p")


def test_modal_formers():
    [d] = parse_program("def m @ q : F[mu] A = mod[mu] a0;")
    assert d.ty == FMod("mu", Const("A", ()))
    assert d.term == ModIntro("mu", Var("a0", None))
    [d] = parse_program("def u @ e : U[iota] B = shut[iota] open[iota] M;")
    assert d.ty == UMod("iota", Const("B", ()))
    assert d.term == Shut("iota", Open("iota", Var("M", None)))


def test_let_mod_with_motive():
    src = "def e @ q : B = let[id:q, mu] mod x = y in x motive B;"
    [d] = parse_program(src)
    t = d.term
    assert isinstance(t, LetMod)
    assert t.frame == "id:q" and t.mor == "mu"
    assert t.motive == Const("B", ())
    assert t.scrutinee == Var("y", None) and t.body == Var("x", None)


def test_application_is_left_associative():
    [d] = parse_program("def a @ p : A = f x y;")
    assert d.term == App(App(Var("f", None), Var("x", None)), Var("y", None))


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as e:
        parse_program("def bad @ p : A = ;")
    assert e.value.span is not None
    with pytest.raises(ParseError):
        parse_program("const A : Type @ p")  # missing semicolon
    with pytest.raises(ParseError):
        parse_program("def x @ p : A = ?;")


def test_resolution_freshens_binders():
    sig = Signature()
    [d] = parse_program("def f @ p : A = \\x. \\x. x;")
    t = resolve_term(d.term, {}, sig)
    assert isinstance(t, Lam) and isinstance(t.body, Lam)
    assert t.var != t.body.var              # shadowing split apart
    assert t.body.body == Var(t.body.var, None)  # inner binder wins


def test_resolution_distinguishes_constants_and_variables():
    sig = Signature()
    sig.declare(ConstDecl("A", "p", (), None))
    a_ty = Const("A", ())
    sig.declare(ConstDecl("c", "p", (), a_ty))
    sig.declare(ConstDecl("g", "p", (Param("x", "id:p", a_ty),), a_ty))
    [d] = parse_program("def f @ p : A = \\c. g c;")
    t = resolve_term(d.term, {}, sig)
    # the lambda binder shadows the constant c; g resolves with one argument
    assert isinstance(t.body, Const) and t.body.name == "g"
    assert t.body.args[0].name == t.var
    # outside any binder the same spine uses the constant
    [d2] = parse_program("def f2 @ p : A = g c;")
    t2 = resolve_term(d2.term, {}, sig)
    assert t2 == Const("g", (Const("c", ()),))


def test_resolution_rejects_underapplied_constant():
    sig = Signature()
    sig.declare(ConstDecl("A", "p", (), None))
    sig.declare(ConstDecl("g", "p",
                          (Param("x", "id:p", Const("A", ())),),
                          Const("A", ())))
    [d] = parse_program("def f @ p : A = g;")
    with pytest.raises(ParseError):
        resolve_term(d.term, {}, sig)


def test_resolve_type_arity():
    sig = Signature()
    sig.declare(ConstDecl("A", "p", (), None))
    sig.declare(ConstDecl("El", "p",
                          (Param("x", "id:p", Const("A", ())),), None))
    with pytest.raises(ParseError):
        resolve_type(Const("El", ()), {}, sig)
    with pytest.raises(ParseError):
        resolve_type(Const("Ghost", ()), {}, sig)


def test_comments_and_whitespace():
    src = """
    -- a comment
    const A : Type @ p;  -- trailing
    """
    [d] = parse_program(src)
    assert d.name == "A"


# --- the tokenizer against the loop that matched one token at a time ----------

_REF_TOKEN = re.compile(r"""
  (?P<ws>[ \t\r]+)
| (?P<nl>\n)
| (?P<comment>--[^\n]*)
| (?P<arrow>->)
| (?P<colonhat>:\^)
| (?P<modetheory>mode-theory\b)
| (?P<string>"[^"\n]*")
| (?P<name>[A-Za-z_][A-Za-z0-9_']*)
| (?P<punct>[()\[\],;=@.^\\:])
""", re.X)


def reference_tokenize(src):
    """(kind, text, line, col) per token, one regex match per token and
    per run of blanks, newline or comment."""
    out, line, col, i = [], 1, 1, 0
    while i < len(src):
        m = _REF_TOKEN.match(src, i)
        if m is None:
            raise ParseError(f"unexpected character {src[i]!r}", (line, col))
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line, col = line + 1, 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "punct":
                kind = text
            elif kind == "arrow":
                kind = "->"
            elif kind == "colonhat":
                kind = ":^"
            elif kind == "modetheory":
                kind = "mode-theory"
            out.append((kind, text, line, col))
            col += len(text)
        i = m.end()
    return out


def _outcome(src):
    """tokenize's (kind, text, line, col) per token, or its error, each
    offset placed by the helper the CLI prints diagnostics with."""
    lines = SourceLines(src)
    try:
        toks = tokenize(src)
    except ParseError as e:
        return ("ParseError", e.message, lines(e.span))
    n = len(toks)  # what the benchmark's tracer counts as tokens
    return [(kind, text, *lines(off)) for kind, text, off in
            zip(toks.kinds[:n], toks.texts[:n], toks.offs[:n])]


def _reference_outcome(src):
    try:
        return reference_tokenize(src)
    except ParseError as e:
        return ("ParseError", e.message, e.span)


# letters outside ASCII, blanks other than space, tab, "\r" and "\n", and
# digits outside ASCII are stray characters
UNICODE = ["é", "ß", "\x0b", "\x0c", "\xa0", "\u2003", "٣"]
PIECES = ["x", "A0", "_b'", "Type", "mode", "mode-theory", "mode-theoryx",
          "->", ":^", ":", "(", ")", "[", "]", ",", ";", "=", "@", ".", "^",
          "\\", '"p.mt"', '"', " ", "  ", "\t", "\n", "\r\n", "\r",
          "-- c", "--", "-", "$", "#", "?", "-->", "->-", *UNICODE]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_tokenize_matches_reference(src):
    assert _outcome(src) == _reference_outcome(src)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=" \t\r\n-:^>\"$#?abm(;" + "".join(UNICODE),
               max_size=30))
def test_tokenize_matches_reference_on_characters(src):
    assert _outcome(src) == _reference_outcome(src)


def test_stray_character_is_reported_at_its_own_column():
    src = "const A : Type @ p;\n  $"
    assert _outcome(src) == \
        ("ParseError", "unexpected character '$'", (2, 3))
    assert _reference_outcome(src) == _outcome(src)


@pytest.mark.parametrize("end", ["", "\n"])
def test_trailing_comment_adds_no_tokens(end):
    # the comment's "(", ")" and "$" are neither tokens nor errors
    body = "const A : Type @ p;\n"
    with_comment, without = tokenize(body + "-- x (y) $" + end), tokenize(body)
    assert (with_comment.kinds, with_comment.texts, with_comment.offs) == \
        (without.kinds, without.texts, without.offs)
    assert len(with_comment) == 7
    assert len(tokenize("-- (" + end)) == 0


@pytest.mark.parametrize("src", [
    "const A : Type @ p;\r\ndef a @ p : A = b;\r\n",
    "const A :\rType @ p;\r\r\n  def\r a",
    "const A : Type @ p;\r\n\r $",
])
def test_carriage_returns_are_columns(src):
    assert _outcome(src) == _reference_outcome(src)


def test_spans_are_source_offsets():
    src = "const A : Type @ p;\ndef a @ p : (x : A) -> A = \\x. x;"
    c, d = parse_program(src)
    assert (c.span, d.span) == (0, 20)
    assert (d.ty.span, d.term.span) == (src.index("(x"), src.index("\\"))
    assert SourceLines(src)(d.ty.span) == (2, 13)
