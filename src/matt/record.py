"""Records: immutable classes declared by their annotated fields, as frozen
dataclasses are.

    @frozen
    class Var:
        name: str
        key: Optional[str]
        span: Span = field(default=None, compare=False)

`frozen` remakes the class it decorates with one slot per field, in
annotation order, and with:
- `__init__` taking every field, in order, with its default; it stores
  each argument through its slot's descriptor and then calls
  `__post_init__` when the class defines one;
- `__repr__` giving `Var(name='x', key=None, span=None)`;
- `__eq__` between instances of one class, comparing the tuples of the
  fields that have `compare`, and the `__hash__` of that tuple, unless the
  class defines its own;
- `__setattr__` and `__delattr__` that raise `FrozenError`, and the state
  that `copy` and `pickle` restore past them, through `__init__`, so that
  `__post_init__` runs again.

These are the methods `dataclasses` writes for
`@dataclass(frozen=True, slots=True)`, but none is compiled at import.
Each class's `__init__` is a copy of a template below, of the class's
arity, with the template's argument names replaced by the fields, so it
stores its arguments as fast as a compiled one: a check-synth round of the
benchmark constructs tens of thousands of records.  The other methods are
shared by every record; `__eq__` and `__hash__` read the class's
`_compared`, an `operator.attrgetter` of its compared fields, since no
benchmark workload calls them often enough for a copy per class to pay
(`OplaxObject`, hashed most, keeps its own `__hash__`).  The class keeps
its bases and its type, `type`, so `isinstance` takes its fast path.
`_fields` names the fields in order.

A record has one to eight fields, as many as the `__init__` templates
take, at least one of them compared, and inherits none; `frozen` refuses
other classes with a `TypeError`.  What a record computes from its fields
once, `__post_init__` stores with `object.__setattr__` in the extra slots
that the class lists in its own `__slots__`; they are no fields.
"""

import operator

_MISSING = object()


class FrozenError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


class field:
    """A field's default, and whether it takes part in equality and the
    hash."""
    __slots__ = ("default", "compare")

    def __init__(self, default=_MISSING, *, compare=True):
        self.default, self.compare = default, compare


# --- __init__ templates, by arity -------------------------------------------
# Each stores its arguments through the setters s0, s1, ..., which it reads
# as globals: _make_init gives each copy a dict of the class's setters, and
# a global is read faster than a closure's cell.

def _init1(self, a0):
    s0(self, a0)  # noqa: F821


def _init2(self, a0, a1):
    s0(self, a0); s1(self, a1)  # noqa: E702, F821


def _init3(self, a0, a1, a2):
    s0(self, a0); s1(self, a1); s2(self, a2)  # noqa: E702, F821


def _init4(self, a0, a1, a2, a3):
    s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3)  # noqa: E702, F821


def _init5(self, a0, a1, a2, a3, a4):
    s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3)  # noqa: E702, F821
    s4(self, a4)  # noqa: F821


def _init6(self, a0, a1, a2, a3, a4, a5):
    s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3)  # noqa: E702, F821
    s4(self, a4); s5(self, a5)  # noqa: E702, F821


def _init7(self, a0, a1, a2, a3, a4, a5, a6):
    s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3)  # noqa: E702, F821
    s4(self, a4); s5(self, a5); s6(self, a6)  # noqa: E702, F821


def _init8(self, a0, a1, a2, a3, a4, a5, a6, a7):
    s0(self, a0); s1(self, a1); s2(self, a2); s3(self, a3)  # noqa: E702, F821
    s4(self, a4); s5(self, a5); s6(self, a6); s7(self, a7)  # noqa: E702, F821


_INITS = (None, _init1, _init2, _init3, _init4, _init5, _init6, _init7,
          _init8)
_FunctionType = type(_init1)


# --- __eq__ and __hash__, shared by every record ---------------------------

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return self._compared(self) == self._compared(other)
    return NotImplemented


def __hash__(self):
    return hash(self._compared(self))


def _tuple_getter(names):
    """The getter of the tuple of the fields `names`, as a class attribute
    that an instance reads unbound.  attrgetter gives one field's bare
    value, so one field is wrapped in a 1-tuple."""
    get = operator.attrgetter(*names)
    if len(names) > 1:
        return get
    return staticmethod(lambda obj: (get(obj),))


def _make_init(cls, specs, post_init):
    params = list(specs)
    defaults = tuple(f.default for f in specs.values()
                     if f.default is not _MISSING)
    if any(specs[n].default is _MISSING
           for n in params[len(params) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows "
                        "one with a default")
    setters = [getattr(cls, n).__set__ for n in params]
    if post_init is not None:
        # the last store finishes the instance, so the other records'
        # __init__ pays nothing for this
        last = setters[-1]

        def store_last_and_finish(self, value):
            last(self, value)
            post_init(self)
        setters[-1] = store_last_and_finish
    code = _INITS[len(params)].__code__
    init = _FunctionType(
        code.replace(co_name="__init__", co_varnames=("self", *params)),
        {f"s{i}": s for i, s in enumerate(setters)}, "__init__",
        defaults or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _repr(self):
    return f"{type(self).__qualname__}(" + ", ".join(
        f"{n}={getattr(self, n)!r}" for n in self._fields) + ")"


def _refuse_setattr(self, name, value):
    raise FrozenError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenError(f"cannot delete field {name!r}")


# copy and pickle restore a record's state through __init__: its stores go
# past __setattr__, as a frozen dataclass's do, and it reruns __post_init__,
# which rebuilds the extra slots
def _getstate(self):
    return [getattr(self, n) for n in self._fields]


def _setstate(self, state):
    self.__init__(*state)


def frozen(cls):
    """`cls` as an immutable record, hashable when its compared fields
    are."""
    ns = dict(vars(cls))
    extra = tuple(ns.get("__slots__", ()))  # filled by __post_init__
    # the old class's slot descriptors would clash with the new slots
    for n in ("__dict__", "__weakref__", *extra):
        ns.pop(n, None)
    specs = {}
    for n in cls.__annotations__:
        v = ns.pop(n, _MISSING)
        specs[n] = v if isinstance(v, field) else field(v)
    if len(specs) >= len(_INITS) or \
            not any(f.compare for f in specs.values()):
        raise TypeError(f"{cls.__name__}: a record has one to "
                        f"{len(_INITS) - 1} fields, as many as its templates "
                        "take, and at least one that is compared")
    ns.update(__slots__=extra + tuple(specs), __qualname__=cls.__qualname__,
              __setattr__=_refuse_setattr, __delattr__=_refuse_delattr,
              __getstate__=_getstate, __setstate__=_setstate)
    ns.setdefault("__repr__", _repr)
    ns.setdefault("__hash__", __hash__)
    ns["__eq__"] = __eq__
    new = type(cls.__name__, cls.__bases__, ns)
    new._fields = tuple(specs)
    new._compared = _tuple_getter([n for n, f in specs.items() if f.compare])
    new.__init__ = _make_init(new, specs, ns.get("__post_init__"))
    return new
