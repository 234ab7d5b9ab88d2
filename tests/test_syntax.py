"""Context normalization, lock bookkeeping, and key transport."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matt.syntax
from matt.bundled import theory_path
from matt.cli import main
from matt.errors import ModeMismatch, NotTangible
from matt.mode_theory import load_mode_theory, mode_theory_from_data
from matt.record import FrozenError
from matt.syntax import (SLOTS, App, Const, ConstDecl, Context, FMod, Lam,
                         LetMod, LockEntry, ModIntro, Open, Param, Pi, Shut,
                         Signature, UMod, Var, VarEntry, _lock_mor,
                         apply_key, children, empty_context, find_var,
                         locks_after_map, push_lock, push_var, rebuild,
                         rename_var, subst)


@pytest.fixture
def refl():
    return load_mode_theory(theory_path("reflective"))


@pytest.fixture
def semi():
    return load_mode_theory(theory_path("semilattice"))


A = Const("A", ())
# one variable v at mode p with no lock after it
V_AT_P = Context("p", (VarEntry("v", "id:p", A),))


def test_push_lock_identity_vanishes(refl):
    ctx = empty_context("p")
    assert push_lock(refl, ctx, "id:p") is ctx


def test_push_lock_merges_adjacent(refl):
    ctx = empty_context("p")
    ctx = push_lock(refl, ctx, "nu")     # p -> q
    ctx = push_lock(refl, ctx, "mu")     # q -> p
    assert ctx.mode == "p"
    assert ctx.entries == (LockEntry("numu"),)


def test_push_lock_merge_to_identity_vanishes(refl):
    ctx = empty_context("q")
    ctx = push_lock(refl, ctx, "mu")     # q -> p
    ctx = push_lock(refl, ctx, "nu")     # p -> q, mu∘nu = id:q
    assert ctx.mode == "q"
    assert ctx.entries == ()


def test_push_lock_confluence(refl):
    base = empty_context("p")
    stepwise = push_lock(refl, push_lock(refl, base, "nu"), "mu")
    composite = push_lock(refl, base, "numu")
    assert stepwise == composite
    # normalization is idempotent: re-pushing an identity changes nothing
    assert push_lock(refl, stepwise, "id:p") == stepwise


def test_push_lock_mode_mismatch(refl):
    with pytest.raises(ModeMismatch):
        push_lock(refl, empty_context("q"), "nu")  # nu lands in p


def test_push_var_rejects_non_tangible():
    data = {
        "modes": ["p"],
        "morphisms": [{"name": "m", "src": "p", "dst": "p"}],
        "compose": [["m", "m", "m"]],
        "cells": [], "vcompose": [], "whisker_left": [], "whisker_right": [],
        "classes": {"tangible": ["id:p"], "sharp": ["id:p"],
                    "transparent": ["id:p"], "sinister": []},
        "adjoints": [],
    }
    mt = mode_theory_from_data(data)
    with pytest.raises(NotTangible):
        push_var(mt, empty_context("p"), "x", "m", A)


def test_locks_after_map(refl):
    ctx = empty_context("p")
    ctx = push_var(refl, ctx, "v", "id:p", A)
    ctx = push_lock(refl, ctx, "nu")
    ctx = push_var(refl, ctx, "x", "id:q", A)
    ctx = push_lock(refl, ctx, "mu")
    la = locks_after_map(refl, ctx)
    assert la == {"v": "numu", "x": "mu"}


def _find_var_three_walks(mt, ctx, name):
    """find_var as it once was: the last entry named `name`, the prefix's
    mode replayed backward from ctx.mode, and the locks after the entry
    composed left to right from the prefix's identity."""
    i = max(i for i, e in enumerate(ctx.entries)
            if isinstance(e, VarEntry) and e.name == name)
    mode = ctx.mode
    for e in reversed(ctx.entries[i:]):
        if isinstance(e, LockEntry):
            mode = mt.mor(e.mor).dst
    delta = mt.id_mor(mode)
    for e in ctx.entries[i + 1:]:
        if isinstance(e, LockEntry):
            delta = mt.compose(delta, e.mor)
    return ctx.entries[i], Context(mode, ctx.entries[:i]), delta


def _random_context(data, mt, mode, length):
    """A context at `mode` of `length` random entries read right to left:
    each a lock by a morphism out of the current mode, or a variable (names
    repeat, so some shadow others)."""
    entries = []
    for _ in range(length):
        if data.draw(st.booleans()):
            m = data.draw(st.sampled_from(sorted(
                n for n, m in mt.morphisms.items() if m.src == mode)))
            entries.append(LockEntry(m))
            mode = mt.mor(m).dst
        else:
            name = data.draw(st.sampled_from(["x", "y", "z"]))
            entries.append(VarEntry(name, mt.id_mor(mode), A))
    return tuple(reversed(entries))


@pytest.mark.parametrize("name", ["reflective", "semilattice", "2ltt"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_find_var_matches_three_walks(name, data):
    mt = load_mode_theory(theory_path(name))
    mode = data.draw(st.sampled_from(sorted(mt.modes)))
    ctx = Context(mode, _random_context(data, mt, mode,
                                        data.draw(st.integers(0, 8))))
    for x in ("x", "y", "z"):
        if any(isinstance(e, VarEntry) and e.name == x for e in ctx.entries):
            assert find_var(mt, ctx, x) == _find_var_three_walks(mt, ctx, x)
        else:
            assert find_var(mt, ctx, x) is None


def test_apply_key_identity_cell_is_noop(refl):
    t = Var("v", "eta")  # eta : id:p => numu
    assert apply_key(refl, Signature(), t, "id:numu", V_AT_P) is t


def test_apply_key_crosses_locks(semi):
    sig = Signature()
    # v :^a ...; the term wraps one more lock a, so v's key lives at a => a∘a
    t = ModIntro("a", Var("v", "id:a"))
    out = apply_key(semi, sig, t, "le", V_AT_P)
    # crossing the internal lock whiskers le on the right: le ▷ a = id:a
    assert out == ModIntro("a", Var("v", "id:a"))


def test_apply_key_composes_with_segment_locks(refl):
    sig = Signature()
    # v sits behind a nu lock relative to the keyed mu lock
    ctx = Context("q", (VarEntry("v", "id:p", A), LockEntry("nu")))
    t = Var("v", "eta")  # eta : id:p => numu = nu∘mu
    out = apply_key(refl, sig, t, "id:mu", ctx)
    # new key = (nu ◁ id:mu) ∘ eta = id:numu ∘ eta = eta
    assert out == Var("v", "eta")


def test_apply_key_functoriality(semi):
    sig = Signature()
    ctx = Context("p", (VarEntry("w", "id:p", A), LockEntry("a"),
                        VarEntry("v", "id:p", A)))
    t = ModIntro("a", Var("v", "id:a"))
    one = apply_key(semi, sig, apply_key(semi, sig, t, "le", ctx),
                    "id:id:p", ctx)
    both = apply_key(semi, sig, t, semi.vcomp("id:id:p", "le"), ctx)
    assert one == both


def test_subst_transports_replacement(refl):
    sig = Signature()
    # body mentions x^eta (x annotated id:p, used behind a numu lock);
    # substituting v^{id:id:p}-keyed for x must re-key the occurrence to eta
    body = Var("x", "eta")
    out = subst(refl, sig, body, {"x": Var("v", "id:id:p")}, V_AT_P)
    assert out == Var("v", refl.vcomp(refl.wl("id:p", "eta"), "id:id:p"))
    assert out.key == "eta"


def test_rename_var_respects_binders(refl):
    t = Lam("x", Var("x", "id:id:p"))
    assert rename_var(t, {"x": "y"}) == t  # bound occurrence untouched
    u = Lam("z", Var("x", "id:id:p"))
    assert rename_var(u, {"x": "y"}) == Lam("z", Var("y", "id:id:p"))


# --- the lock each sub-term slot sits under -----------------------------------
#
# Over reflective.mt (mu -| nu, eta : id:p => numu), a variable v with
# locks_after id:p is transported along eta at mode p.  Its new key is
# (id:p ◁ c) ∘ key, where c is eta whiskered on the right by the slot's lock:
#   no lock           c = eta:                      id:id:p  becomes eta
#   numu              c = eta ▷ numu = id:numu:     eta      stays eta
#   nu (also the      c = eta ▷ nu = id:nu:         id:nu    stays id:nu
#   dagger of mu)
# A wrong lock makes the vertical composite ill-typed or changes the key.

B = Const("B", ())
a0, b0 = Const("a0", ()), Const("b0", ())


def _lock_sig():
    sig = Signature()
    spine = (Param("x", "nu", B), Param("y", "id:p", A))
    for name, mode, params, result in [
            ("A", "p", (), None), ("B", "q", (), None),
            ("a0", "p", (), A), ("b0", "q", (), B),
            ("f", "p", spine, A), ("P", "p", spine, None)]:
        sig.declare(ConstDecl(name, mode, params, result))
    return sig


SLOT_CASES = [
    ("Lam.body", lambda v: Lam("x", v), "id:id:p", "eta"),
    ("App.fn", lambda v: App(v, a0, "numu"), "id:id:p", "eta"),
    ("App.arg", lambda v: App(a0, v, "numu"), "eta", "eta"),
    ("ModIntro", lambda v: ModIntro("numu", v), "eta", "eta"),
    ("LetMod.motive", lambda v: LetMod("nu", "mu", "y", v, b0, "x", a0),
     "id:id:p", "eta"),
    ("LetMod.scrutinee", lambda v: LetMod("nu", "mu", "y", A, v, "x", a0),
     "id:nu", "id:nu"),
    ("LetMod.body", lambda v: LetMod("nu", "mu", "y", A, b0, "x", v),
     "id:id:p", "eta"),
    ("Shut", lambda v: Shut("mu", v), "id:nu", "id:nu"),
    ("Open", lambda v: Open("numu", v), "eta", "eta"),
    ("Const.arg0", lambda v: Const("f", (v, a0)), "id:nu", "id:nu"),
    ("Const.arg1", lambda v: Const("f", (b0, v)), "id:id:p", "eta"),
    ("Pi.dom", lambda v: Pi("nu", "x", v, A), "id:nu", "id:nu"),
    ("Pi.cod", lambda v: Pi("nu", "x", B, v), "id:id:p", "eta"),
    ("FMod", lambda v: FMod("numu", v), "eta", "eta"),
    ("UMod", lambda v: UMod("mu", v), "id:nu", "id:nu"),
    # P is a type constant; its cases keep the ids they had when a type
    # constant's spine was a node class of its own, TConst
    ("TConst.arg0", lambda v: Const("P", (v, a0)), "id:nu", "id:nu"),
    ("TConst.arg1", lambda v: Const("P", (b0, v)), "id:id:p", "eta"),
]


@pytest.mark.parametrize("build,key,expected", [c[1:] for c in SLOT_CASES],
                         ids=[c[0] for c in SLOT_CASES])
def test_apply_key_lock_of_each_slot(refl, build, key, expected):
    out = apply_key(refl, _lock_sig(), build(Var("v", key)), "eta", V_AT_P)
    assert out == build(Var("v", expected))


@pytest.mark.parametrize("build", [c[1] for c in SLOT_CASES],
                         ids=[c[0] for c in SLOT_CASES])
def test_subst_absent_name_returns_input(refl, build):
    t = build(Var("v", "id:id:p"))
    assert subst(refl, _lock_sig(), t, {"ghost": a0}, V_AT_P) == t


def test_rename_var_respects_pi_and_let_mod_binders():
    x, y = Var("x", "id:id:p"), Var("y", "id:id:p")
    assert rename_var(Pi("id:p", "x", x, x), {"x": "y"}) == \
        Pi("id:p", "x", y, x)
    bound_y = LetMod("id:p", "id:p", "x", x, x, "z", x)
    assert rename_var(bound_y, {"x": "y"}) == \
        LetMod("id:p", "id:p", "x", x, y, "z", y)
    bound_x = LetMod("id:p", "id:p", "z", x, x, "x", x)
    assert rename_var(bound_x, {"x": "y"}) == \
        LetMod("id:p", "id:p", "z", y, y, "x", x)


def test_apply_key_on_deep_term(tmp_path):
    # the argument of mk is transported into P's index by apply_key, which
    # recurses once per g; 300 deep fits the default recursion limit only
    # if every traversal takes one Python frame per nesting level
    t = "b0"
    for _ in range(300):
        t = f"g ({t})"
    f = tmp_path / "deep.matt"
    f.write_text("const B : Type @ q;\nconst b0 : B @ q;\n"
                 "const g : (x : B) B @ q;\n"
                 "const P : (u : U[mu] B) Type @ p;\n"
                 "const mk : (u : U[mu] B) P u @ p;\n"
                 f"def d @ p : P (shut[mu] {t}) = mk (shut[mu] {t});\n")
    assert main(["check", str(f),
                 "--mode-theory", str(theory_path("reflective"))]) == 0


# --- transport along an identity cell -----------------------------------------

def test_apply_key_identity_cell_skips_deep_term(refl, monkeypatch):
    # 20 000 nested locks are far past the recursion limit of a traversal;
    # an identity transport must neither recurse nor walk the term
    t = Var("v", "id:id:p")
    for _ in range(20000):
        t = ModIntro("numu", t)

    def no_walk(u):
        raise AssertionError("apply_key traversed an identity transport")

    monkeypatch.setattr(matt.syntax, "children", no_walk)
    assert apply_key(refl, Signature(), t, "id:id:p", V_AT_P) is t


def _ak_full(mt, sig, t, c, la):
    """apply_key as one full traversal, with no identity shortcut."""
    if isinstance(t, Var):
        d = la.get(t.name)
        if d is None:
            return t
        key = mt.vcomp(mt.wl(d, c), t.key)
        return t if key == t.key else Var(t.name, key, t.span)
    kids = []
    for u, lock, i, _ in children(t):
        cu = c if lock is None else mt.wr(c, _lock_mor(mt, sig, t, lock, i))
        kids.append(_ak_full(mt, sig, u, cu, la))
    return rebuild(t, kids)


def _key_sig(mt):
    """For each morphism m: q → x, a constant K:m at mode x whose first
    parameter sits under m and whose second under the identity."""
    sig = Signature()
    for m in sorted(mt.morphisms):
        x = mt.mor(m).dst
        sig.declare(ConstDecl(f"K:{m}", x, (Param("k0", m, A),
                                            Param("k1", mt.id_mor(x), A)), A))
    return sig


def _keyed_term(data, mt, c, la, bound, depth):
    """A random elaborated term whose keys fit a transport along c: every
    free variable v has a key into la[v]∘(source of c), and every lock
    takes c to its whiskering."""
    def pick(xs):
        return data.draw(st.sampled_from(sorted(xs)))

    def sub(lock, names=bound):
        cu = c if lock is None else mt.wr(c, lock)
        return _keyed_term(data, mt, cu, la, names, depth - 1)

    x = mt.cell_modes(c)[0]
    into = [m for m in mt.morphisms if mt.mor(m).dst == x]
    left = [m for m in mt.adjoints if mt.mor(mt.dagger(m).dagger).dst == x]
    kinds = ["var"] if depth == 0 else \
        ["var", "lam", "app", "mod", "open", "let", "const", "pi",
         "fmod"] + (["shut", "umod"] if left else [])
    kind = pick(kinds)
    if kind == "var":
        v = pick(set(la) | bound)
        if v in bound:
            return Var(v, pick(mt.cells))
        want = mt.compose(la[v], mt.cell(c).src)
        return Var(v, pick(k for k, cell in mt.cells.items()
                           if cell.dst == want))
    b = f"b{len(bound)}"  # a name no enclosing binder uses
    if kind == "lam":
        return Lam(b, sub(None, bound | {b}))
    if kind == "pi":
        m = pick(into)
        return Pi(m, b, sub(m), sub(None, bound | {b}))
    if kind == "let":
        y, frame = b + "y", pick(into)
        motive = sub(None, bound | {y}) if data.draw(st.booleans()) else None
        return LetMod(frame, pick(mt.morphisms), y, motive, sub(frame), b,
                      sub(None, bound | {b}))
    if kind == "const":
        m = pick(into)
        return Const(f"K:{m}", (sub(m), sub(mt.id_mor(x))))
    if kind in ("shut", "umod"):
        m = pick(left)
        return (Shut if kind == "shut" else UMod)(
            m, sub(mt.dagger(m).dagger))
    m = pick(into)
    if kind == "app":
        return App(sub(None), sub(m), m)
    return {"mod": ModIntro, "open": Open, "fmod": FMod}[kind](m, sub(m))


@pytest.mark.parametrize("name", ["reflective", "semilattice", "2ltt"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_apply_key_matches_full_traversal(name, data):
    mt = load_mode_theory(theory_path(name))
    sig = _key_sig(mt)
    # identity and other cells equally often; 2ltt has only identities
    ids = sorted(k for k in mt.cells if mt.is_id_cell(k))
    others = sorted(set(mt.cells) - set(ids)) or ids
    c = data.draw(st.sampled_from(ids) | st.sampled_from(others), label="cell")
    # three variables v0, v1, v2, each followed by one random lock
    b = mt.cell_modes(c)[1]
    entries, mode = [], b
    for i in (2, 1, 0):
        m = data.draw(st.sampled_from(sorted(
            n for n, m in mt.morphisms.items() if m.src == mode)))
        mode = mt.mor(m).dst
        entries[:0] = [VarEntry(f"v{i}", mt.id_mor(mode), A), LockEntry(m)]
    ctx = Context(b, tuple(entries))
    la = locks_after_map(mt, ctx)
    t = _keyed_term(data, mt, c, la, frozenset(), data.draw(
        st.integers(0, 4), label="depth"))
    got = apply_key(mt, sig, t, c, ctx)
    assert got == _ak_full(mt, sig, t, c, la)
    if mt.is_id_cell(c):
        assert got is t


# --- the node contract: what the record classes keep of frozen dataclasses --

V = Var("x", "k", 1)
# the repr texts of V, of A and of a parameter
VS = "Var(name='x', key='k', span=1)"
AS = "Const(name='A', args=(), span=None)"
PS = f"Param(name='x', mor='mu', ty={AS})"
# one instance of every record class, with the repr a plain frozen dataclass
# gave it
NODES = [
    (V, VS),
    (Lam("x", V, 2), f"Lam(var='x', body={VS}, span=2)"),
    (App(V, V, "mu", 3), f"App(fn={VS}, arg={VS}, mor='mu', span=3)"),
    (ModIntro("mu", V, 4), f"ModIntro(mor='mu', body={VS}, span=4)"),
    (LetMod("id:q", "mu", "y", A, V, "x", V, 5),
     f"LetMod(frame='id:q', mor='mu', yvar='y', motive={AS}, "
     f"scrutinee={VS}, xvar='x', body={VS}, span=5)"),
    (Shut("mu", V, 6), f"Shut(mor='mu', body={VS}, span=6)"),
    (Open("mu", V, 7), f"Open(mor='mu', body={VS}, span=7)"),
    (Const("c", (V, A), 8), f"Const(name='c', args=({VS}, {AS}), span=8)"),
    (Pi("mu", "x", A, A, 9), f"Pi(mor='mu', var='x', dom={AS}, cod={AS}, "
                             f"span=9)"),
    (FMod("mu", A, 10), f"FMod(mor='mu', ty={AS}, span=10)"),
    (UMod("mu", A, 11), f"UMod(mor='mu', ty={AS}, span=11)"),
    (Param("x", "mu", A), PS),
    (ConstDecl("c", "p", (Param("x", "mu", A),), A),
     f"ConstDecl(name='c', mode='p', params=({PS},), result={AS})"),
    (LockEntry("mu"), "LockEntry(mor='mu')"),
    (VarEntry("x", "mu", A), f"VarEntry(name='x', mor='mu', ty={AS})"),
    (Context("p", (LockEntry("mu"),)),
     "Context(mode='p', entries=(LockEntry(mor='mu'),))"),
]


def _name(t):
    return type(t).__name__


def test_node_cases_cover_every_record_class():
    records = {c for c in vars(matt.syntax).values()
               if isinstance(c, type) and "_fields" in vars(c)}
    assert {type(t) for t, _ in NODES} == records


@pytest.mark.parametrize("t,text", NODES, ids=[_name(t) for t, _ in NODES])
def test_node_repr_is_the_dataclass_text(t, text):
    assert repr(t) == text


@pytest.mark.parametrize("t", [t for t, _ in NODES], ids=_name)
def test_node_fields_cannot_be_assigned(t):
    for name in t._fields:
        with pytest.raises(FrozenError):
            setattr(t, name, getattr(t, name))


@pytest.mark.parametrize("t", [t for t, _ in NODES], ids=_name)
def test_node_equality_reads_every_field_but_span(t):
    for name in t._fields:
        other = copy.copy(t)
        object.__setattr__(other, name, ("changed", getattr(t, name)))
        assert (other == t) is (name == "span"), name


@pytest.mark.parametrize("t", [t for t, _ in NODES if hasattr(t, "span")],
                         ids=_name)
def test_node_span_takes_no_part_in_equality(t):
    other = type(t)(*[t.span + 100 if name == "span" else getattr(t, name)
                      for name in t._fields])
    assert other.span == t.span + 100
    assert other == t and hash(other) == hash(t)


@pytest.mark.parametrize("t", [t for t, _ in NODES if type(t) in SLOTS],
                         ids=_name)
def test_rebuild_keeps_class_and_span(t):
    kids = [u for u, *_ in children(t)]
    assert rebuild(t, list(kids)) is t
    new = [Var(f"z{i}", None) for i in range(len(kids))]
    out = rebuild(t, new)
    assert type(out) is type(t) and out.span == t.span
    assert [u for u, *_ in children(out)] == new
    subterms = {name for name, _, _ in SLOTS[type(t)]}
    for name in t._fields:
        if name not in subterms:
            assert getattr(out, name) == getattr(t, name)
