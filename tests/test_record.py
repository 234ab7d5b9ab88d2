"""The record classes: what they keep of frozen dataclasses, and what
importing the command line loads."""

import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import matt.cli
import matt.codex
import matt.fincat
import matt.mode_theory
import matt.parser
import matt.syntax
from matt.bundled import DIAGRAM_NAMES, diagram_path
from matt.cli import Diagnostic
from matt.codex import (Adjunction, CodexCategory, CodexIndex, Decomposition,
                        OplaxObject, build_bundle, enumerate_codex)
from matt.fincat import Arrow, Cone, load_diagram
from matt.mode_theory import (Adjoint, Cell, Morphism, ValidationReport,
                              Violation)
from matt.parser import SurfaceConst, SurfaceDef, SurfaceModeTheory
import matt.record
from matt.record import FrozenError, field, frozen

SRC = Path(__file__).resolve().parent.parent / "src"


# --- the mechanism, on classes of its own -----------------------------------

@frozen
class Point:
    x: int
    y: int = 0
    tag: str = field(default="", compare=False)


def test_frozen_record_init_defaults_and_keywords():
    assert (Point(1).x, Point(1).y, Point(1).tag) == (1, 0, "")
    p = Point(y=2, x=1, tag="t")
    assert (p.x, p.y, p.tag) == (1, 2, "t")
    assert str(inspect.signature(Point)) == "(x, y=0, tag='')"
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        Point(1, 2, "t", 4)
    with pytest.raises(TypeError):
        Point(1, z=2)


def test_frozen_record_compares_and_hashes_its_compare_fields():
    assert Point(1, 2, "a") == Point(1, 2, "b")
    assert hash(Point(1, 2, "a")) == hash(Point(1, 2, "b")) == hash((1, 2))
    assert Point(1, 2) != Point(2, 1)
    # another class with equal fields is not equal
    assert Point(1, 2) != SimpleNamespace(x=1, y=2)
    assert Point(1).__eq__(SimpleNamespace(x=1, y=0)) is NotImplemented


@frozen
class Single:
    x: object


@frozen
class Eight:  # as many fields as the __init__ templates take
    a: int
    b: int
    c: int
    d: int = field(default=0, compare=False)
    e: int = 0
    f: int = 0
    g: int = field(default=0, compare=False)
    h: int = 0


COMPARED = {Single: ("x",), Eight: ("a", "b", "c", "e", "f", "h")}


@pytest.mark.parametrize("cls", [Single, Eight], ids=lambda c: c.__name__)
def test_records_at_the_arity_extremes_compare_and_hash_their_fields(cls):
    r = cls(*range(1, len(cls._fields) + 1))
    key = tuple(getattr(r, n) for n in COMPARED[cls])
    # a one-field record hashes a 1-tuple, not its bare field
    assert hash(r) == hash(key)
    assert r == copy.copy(r)
    for name in cls._fields:
        other = cls(*[100 if n == name else getattr(r, n)
                      for n in cls._fields])
        assert (other == r) is (name not in COMPARED[cls]), name
        assert (hash(other) == hash(r)) is (name not in COMPARED[cls]), name
    for stranger in (SimpleNamespace(**{n: getattr(r, n) for n in
                                        cls._fields}), key, Point(1)):
        assert r.__eq__(stranger) is NotImplemented
        assert r != stranger


def test_frozen_record_refuses_assignment_and_deletion():
    p = Point(1)
    assert issubclass(FrozenError, AttributeError)
    for name in ("x", "tag", "other"):
        with pytest.raises(FrozenError, match=f"cannot assign to field "
                                              f"'{name}'"):
            setattr(p, name, 5)
        with pytest.raises(FrozenError, match="cannot delete"):
            delattr(p, name)
    assert not hasattr(p, "__dict__")


def test_frozen_record_copies_and_pickles():
    p = Point(1, 2, "t")
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and q.tag == "t" and q is not p


def test_fields_that_dataclasses_would_refuse_are_refused():
    with pytest.raises(TypeError, match="without a default"):
        @frozen
        class Bad:
            x: int = 0
            y: int


def test_field_takes_only_a_default_and_a_compare_flag():
    # every field is an argument of __init__ and a part of the repr; what
    # a record computes after init lives in slots of its own
    for option in ("init", "repr", "default_factory"):
        with pytest.raises(TypeError):
            field(**{option: False})
    for name in ("record", "replace"):
        assert not hasattr(matt.record, name)


def test_records_beyond_the_templates_are_refused_by_name():
    with pytest.raises(TypeError, match="^Wide: a record has one to 8"):
        frozen(type("Wide", (), {"__annotations__": {
            f"x{i}": int for i in range(9)}}))
    with pytest.raises(TypeError, match="^Empty: a record has one to 8"):
        @frozen
        class Empty:
            pass
    with pytest.raises(TypeError, match="^Uncompared: a record has"):
        @frozen
        class Uncompared:
            x: int = field(compare=False)


def test_records_are_plain_classes():
    # a metaclass would send every isinstance test through
    # __instancecheck__, which the checker's dispatch would pay for
    assert type(Point) is type and Point.__mro__ == (Point, object)


# --- the records of mode_theory, fincat, codex, parser and cli --------------

# one instance of every record class outside matt.syntax, with the repr a
# dataclass gave it
RECORDS = [
    (Morphism("mu", "p", "q"), "Morphism(name='mu', src='p', dst='q')"),
    (Cell("eta", "id:p", "numu"), "Cell(name='eta', src='id:p', dst='numu')"),
    (Adjoint("mu", "nu", "eta", "eps"),
     "Adjoint(mor='mu', dagger='nu', unit='eta', counit='eps')"),
    (Violation("assoc", "bad"), "Violation(axiom='assoc', message='bad')"),
    (ValidationReport((Violation("assoc", "bad"),)),
     "ValidationReport(violations=(Violation(axiom='assoc', "
     "message='bad'),))"),
    (Arrow("f", ("a", 1), "b"), "Arrow(name='f', src=('a', 1), dst='b')"),
    (Cone("x", ((("n", "id:p"), "f"),)),
     "Cone(apex='x', legs=((('n', 'id:p'), 'f'),))"),
    (OplaxObject("q", (("id:q", "a"),), ((("id:q", "mu", "eta"), "f"),)),
     "OplaxObject(mode='q', components=(('id:q', 'a'),), "
     "structure=((('id:q', 'mu', 'eta'), 'f'),))"),
    (Decomposition(("nu", "rho", "al"), "nu", "rho", "al", "mu", "C", "F",
                   False),
     "Decomposition(key=('nu', 'rho', 'al'), nu='nu', rho='rho', "
     "alpha='al', mu='mu', cat='C', fun='F', identity=False)"),
    (CodexIndex(["mu"], {"mu": "C"}, [], "D"),
     "CodexIndex(mus=['mu'], cats={'mu': 'C'}, decomps=[], diagram='D')"),
    (CodexCategory("D", "q", "I", SimpleNamespace(objects=["o"]), False),
     "CodexCategory(diagram='D', mode='q', index='I', "
     "cat=namespace(objects=['o']), thin=False)"),
    (Adjunction("mu", "L", "R", {}, {}, {}),
     "Adjunction(pi='mu', left='L', right='R', unit={}, counit={}, "
     "cones={})"),
    (SurfaceModeTheory("m.mt", 0), "SurfaceModeTheory(path='m.mt', span=0)"),
    (SurfaceConst("c", [("x", "mu", "A", 3)], None, "p", 1),
     "SurfaceConst(name='c', params=[('x', 'mu', 'A', 3)], result=None, "
     "mode='p', span=1)"),
    (SurfaceDef("d", "p", "A", "t", 2),
     "SurfaceDef(name='d', mode='p', ty='A', term='t', span=2)"),
    (Diagnostic("E1", "f.matt", 1, 2, "msg"),
     "Diagnostic(code='E1', file='f.matt', line=1, col=2, message='msg', "
     "trace=(), bad_input=False)"),
]
MODULES = (matt.mode_theory, matt.fincat, matt.codex, matt.parser, matt.cli)


def _name(t):
    return type(t).__name__


def test_record_cases_cover_every_record_class():
    records = {c for m in MODULES for c in vars(m).values()
               if isinstance(c, type) and "_fields" in vars(c)
               and c.__module__ == m.__name__}
    assert {type(t) for t, _ in RECORDS} == records


def test_every_record_shares_one_eq_and_hash():
    records = [c for m in (*MODULES, matt.syntax) for c in vars(m).values()
               if isinstance(c, type) and "_fields" in vars(c)]
    assert {c.__eq__ for c in records} == {Point.__eq__}
    assert {c.__hash__ for c in records} == {Point.__hash__,
                                             OplaxObject.__hash__}
    assert OplaxObject.__hash__ is not Point.__hash__  # its own


@pytest.mark.parametrize("t,text", RECORDS, ids=[_name(t) for t, _ in RECORDS])
def test_record_repr_is_the_dataclass_text(t, text):
    assert repr(t) == text


@pytest.mark.parametrize("t", [t for t, _ in RECORDS], ids=_name)
def test_record_is_frozen_and_hashable_or_mutable_and_unhashable(t):
    # every record is frozen; one whose fields hold a mutable value, a list
    # or a dict, is unhashable, as a tuple that holds one is
    for name in t._fields:
        with pytest.raises(FrozenError):
            setattr(t, name, None)
        with pytest.raises(FrozenError):
            delattr(t, name)
    try:
        hash(t._compared(t))
    except TypeError:
        with pytest.raises(TypeError, match="unhashable"):
            hash(t)
    else:
        assert hash(t) == hash(copy.copy(t))


@pytest.mark.parametrize("t", [t for t, _ in RECORDS], ids=_name)
def test_record_equality_reads_every_field_set_at_init(t):
    for name in t._fields:
        other = copy.copy(t)
        object.__setattr__(other, name, ("changed", getattr(t, name)))
        assert other != t, name


def test_oplax_object_keeps_its_precomputed_hash():
    o = OplaxObject.of("q", {"id:q": "a", "mu": "b"}, {("x", "y", "z"): "f"})
    assert hash(o) == o._hash == hash((o.mode, o.components, o.structure))
    object.__setattr__(o, "_hash", 42)
    assert hash(o) == 42  # read, not computed again
    assert o.component("mu") == "b" and o.smap(("x", "y", "z")) == "f"
    # the cached fields take no part in equality or the repr
    assert o == OplaxObject("q", o.components, o.structure)
    assert "_hash" not in repr(o)


def test_cone_leg_reads_the_map_built_after_init():
    c = Cone("x", (("a", "f"), ("b", "g")))
    assert c.leg("a") == "f" and c.leg("b") == "g"
    assert c == Cone("x", (("a", "f"), ("b", "g")))
    # the map is a slot of its own, not a field
    assert Cone._fields == ("apex", "legs")
    assert str(inspect.signature(Cone)) == "(apex, legs)"


def _copies(x):
    return copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))


def test_oplax_object_copies_rebuild_hash_and_lookups():
    o = OplaxObject.of("q", {"id:q": "a", "mu": "b"}, {("x", "y", "z"): "f"})
    for q in _copies(o):
        assert q == o and hash(q) == hash(o) and q._comps is not o._comps
        assert {q: 1}[o] == 1
        assert q.component("mu") == "b" and q.smap(("x", "y", "z")) == "f"


def test_oplax_object_unpickled_under_another_hash_seed_hashes_afresh():
    # the hash of strings changes with PYTHONHASHSEED, so a hash carried in
    # the pickle would miss an equal object built in the loading process
    make = ("from matt.codex import OplaxObject; "
            "o = OplaxObject.of('q', {'id:q': 'a'}, {('x', 'y', 'z'): 'f'}); ")

    def run(seed, code, data=None):
        return subprocess.run(
            [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, "
                                         f"{str(SRC)!r}); {make}{code}"],
            input=data, capture_output=True, check=True, timeout=60,
            env={"PYTHONHASHSEED": str(seed)}).stdout
    data = run(1, "import pickle; sys.stdout.buffer.write(pickle.dumps(o))")
    assert run(2, "import pickle; q = pickle.loads(sys.stdin.buffer.read()); "
                  "print({q: 1}.get(o))", data) == b"1\n"


def test_cone_copies_rebuild_their_legs():
    c = Cone("x", (("a", "f"), ("b", "g")))
    for q in _copies(c):
        assert q == c and q._by_key is not c._by_key
        assert q.leg("a") == "f" and q.leg("b") == "g"


def test_codex_category_copies_rebuild_their_lookups():
    d = load_diagram(diagram_path("reflective"))
    for mode in d.mt.modes:
        cx = enumerate_codex(d, mode)
        for q in _copies(cx):
            for o in q.objects:
                assert q.obj(dict(o.components), dict(o.structure)) is o
                assert q.obj_of(dict(o.components)) is (o if q.thin else None)


@pytest.mark.parametrize("name", DIAGRAM_NAMES)
def test_codex_category_lookups_work_after_post_init(name):
    d = load_diagram(diagram_path(name))
    for mode in d.mt.modes:
        cx = enumerate_codex(d, mode)
        for o in cx.objects:
            assert cx.obj(dict(o.components), dict(o.structure)) is o
            assert cx.obj_of(dict(o.components)) is (o if cx.thin else None)


def test_codex_bundle_caches_its_families():
    d = load_diagram(diagram_path("reflective"))
    b = build_bundle(d)
    assert b.failed == {} and b.failed is not build_bundle(d).failed
    assert b.codexes is b.codexes
    assert b.adjunctions is b.adjunctions
    assert set(vars(b)) == {"diagram", "cap", "failed", "codexes",
                            "adjunctions"}


# --- what `matt check` pays to start ----------------------------------------

def test_cli_imports_neither_dataclasses_nor_inspect():
    code = ("import sys; import matt.cli; "
            "print(sorted(m for m in ('matt.checker', 'matt.parser', "
            "'matt.syntax', 'matt.mode_theory') if m in sys.modules)); "
            "import matt.laws; "
            "print(sorted(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, "
                                     f"{str(SRC)!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines() == [
        "['matt.checker', 'matt.mode_theory', 'matt.parser', 'matt.syntax']",
        "[]"]


def test_no_module_of_matt_imports_dataclasses():
    for path in (SRC / "matt").glob("*.py"):
        for line in path.read_text().splitlines():
            assert not line.lstrip().startswith(
                ("import dataclasses", "from dataclasses")), path.name
