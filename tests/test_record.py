"""The record classes: what they keep of dataclasses, and what importing
the command line loads."""

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
from matt.bundled import DIAGRAM_NAMES, diagram_path
from matt.cli import Diagnostic
from matt.codex import (Adjunction, CodexBundle, CodexCategory, CodexIndex,
                        Decomposition, OplaxObject, build_bundle,
                        enumerate_codex)
from matt.fincat import Arrow, Cone, load_diagram
from matt.mode_theory import (Adjoint, Cell, Morphism, ValidationReport,
                              Violation)
from matt.parser import SurfaceConst, SurfaceDef, SurfaceModeTheory
from matt.record import FrozenError, field, frozen, record, replace

SRC = Path(__file__).resolve().parent.parent / "src"


# --- the mechanism, on classes of its own -----------------------------------

@frozen
class Point:
    x: int
    y: int = 0
    tag: str = field(default="", compare=False)


@record
class Box:
    label: str
    items: list = field(default_factory=list, init=False, repr=False,
                        compare=False)
    size: int = field(init=False, repr=False)

    def __post_init__(self):
        self.size = len(self.label)


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


def test_mutable_record_fills_factories_then_runs_post_init():
    a, b = Box("abc"), Box("abc")
    assert a.size == 3 and a.items == [] and a.items is not b.items
    assert str(inspect.signature(Box)) == "(label)"
    assert repr(a) == "Box(label='abc')"
    a.items.append(1)
    assert a == b  # items takes no part in equality; size does
    a.label = "x"
    assert a != b
    with pytest.raises(TypeError, match="unhashable"):
        hash(b)


def test_replace_copies_with_changes():
    assert replace(Point(1, 2, "t"), y=5) == Point(1, 5)
    assert replace(Point(1, 2, "t"), y=5).tag == "t"
    assert replace(Box("ab"), label="abcd").size == 4
    with pytest.raises(TypeError):
        replace(Box("ab"), size=1)  # an init=False field


def test_fields_that_dataclasses_would_refuse_are_refused():
    with pytest.raises(TypeError, match="without a default"):
        @frozen
        class Bad:
            x: int = 0
            y: int
    with pytest.raises(TypeError, match="default_factory"):
        @frozen
        class Worse:
            x: int = field(default=0, init=False)
    # dataclasses would call the factory; the templates take only defaults
    with pytest.raises(TypeError, match="not a default_factory"):
        @record
        class Factory:
            x: list = field(default_factory=list)


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
    with pytest.raises(TypeError, match="^Uninitialised: a record has"):
        @record
        class Uninitialised:
            x: list = field(init=False, default_factory=list)


def test_records_are_plain_classes():
    # a metaclass would send every isinstance test through
    # __instancecheck__, which the checker's dispatch would pay for
    assert type(Point) is type and Point.__mro__ == (Point, object)
    assert type(Box) is type and Box.__mro__ == (Box, object)


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
    (CodexIndex(["mu"], {"mu": "C"}, [], [], []),
     "CodexIndex(mus=['mu'], cats={'mu': 'C'}, decomps=[], cocycles=[], "
     "actions=[])"),
    (CodexCategory("D", "q", "I", SimpleNamespace(objects=["o"]), False),
     "CodexCategory(diagram='D', mode='q', index='I', "
     "cat=namespace(objects=['o']), thin=False)"),
    (Adjunction("mu", "L", "R", {}, {}, {}),
     "Adjunction(pi='mu', left='L', right='R', unit={}, counit={}, "
     "cones={})"),
    (CodexBundle("D", 5), "CodexBundle(diagram='D', cap=5)"),
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
# the classes that were frozen dataclasses; the others were mutable
FROZEN = {Morphism, Cell, Adjoint, Violation, ValidationReport, Arrow, Cone,
          OplaxObject, Decomposition}


def _name(t):
    return type(t).__name__


def test_record_cases_cover_every_record_class():
    records = {c for m in MODULES for c in vars(m).values()
               if isinstance(c, type) and "_fields" in vars(c)
               and c.__module__ == m.__name__}
    assert {type(t) for t, _ in RECORDS} == records


@pytest.mark.parametrize("t,text", RECORDS, ids=[_name(t) for t, _ in RECORDS])
def test_record_repr_is_the_dataclass_text(t, text):
    assert repr(t) == text


@pytest.mark.parametrize("t", [t for t, _ in RECORDS], ids=_name)
def test_record_is_frozen_and_hashable_or_mutable_and_unhashable(t):
    if type(t) in FROZEN:
        assert hash(t) == hash(copy.copy(t))
        for name in t._fields:
            with pytest.raises(FrozenError):
                setattr(t, name, None)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(t)


# the fields computed after init, which take no part in equality
UNCOMPARED = {"_hash", "_comps", "_smaps", "_by_key", "_instances",
              "_by_comps", "failed"}


@pytest.mark.parametrize("t", [t for t, _ in RECORDS], ids=_name)
def test_record_equality_reads_every_field_set_at_init(t):
    for name in t._fields:
        other = copy.copy(t)
        object.__setattr__(other, name, ("changed", getattr(t, name)))
        assert (other == t) is (name in UNCOMPARED), name


def test_diagnostic_is_unhashable_and_replace_keeps_its_fields():
    d = Diagnostic("E1", "f.matt", 1, 2, "msg", ("a",))
    with pytest.raises(TypeError):
        hash(d)
    bad = replace(d, bad_input=True)
    assert bad.bad_input and bad.trace == ("a",) and bad != d
    assert not d.bad_input


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
    assert set(vars(b)) == {"codexes", "adjunctions"}
    assert b == build_bundle(d)  # failed and the cached families aside


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
