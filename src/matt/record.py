"""Records: classes declared by their annotated fields, as dataclasses are.

    @frozen
    class Var:
        name: str
        key: Optional[str]
        span: Span = field(default=None, compare=False)

`record` (mutable, unhashable) and `frozen` (immutable, hashable) remake
the class they decorate with one slot per field, in annotation order, and
with:
- `__init__` taking the fields that have `init`, in order, with their
  defaults; it stores each argument through its slot's descriptor, then
  fills each `init=False` field that has a `default_factory` and calls
  `__post_init__` when the class defines one;
- `__repr__` giving `Var(name='x', key=None, span=None)` over the fields
  that have `repr`;
- `__eq__` between instances of one class, comparing the tuples of the
  fields that have `compare`, and for `frozen` the `__hash__` of that
  tuple, unless the class defines its own;
- for `frozen`, `__setattr__` and `__delattr__` that raise `FrozenError`,
  and the state that `copy` and `pickle` restore past them.

These are the methods `dataclasses` writes for `@dataclass(eq=True)`, with
`frozen=True, slots=True` for `frozen`, and they run as fast, but none is
compiled at import.  Each class's `__init__`, `__eq__` and `__hash__` is a
copy of a template below, of the class's arity, with the template's
argument or attribute names replaced by the fields; the other methods are
shared.  The class keeps its bases and its type, `type`, so `isinstance`
takes its fast path.  `_fields` names the fields in order.

A record has one to eight fields, as many as the templates take, at least
one that `__init__` takes and one that is compared, and inherits none;
`record` and `frozen` refuse other classes with a `TypeError`.  Methods
shared by all records, reading the fields through an
`operator.attrgetter`, would lift the limit, but time 1.5 to 2 times the
templates' equality and hashing.  A class whose instances need a `__dict__` (for
`functools.cached_property`) lists `"__dict__"` in its own `__slots__`.
"""

_MISSING = object()


class FrozenError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


class field:
    """A field's options, as `dataclasses.field` takes them.  A
    `default_factory` is called once per instance, for an `init=False`
    field only."""
    __slots__ = ("default", "default_factory", "init", "repr", "compare")

    def __init__(self, default=_MISSING, *, default_factory=None, init=True,
                 repr=True, compare=True):
        self.default, self.default_factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


def replace(obj, **changes):
    """A copy of the record `obj` with the `init` fields in `changes`
    replaced."""
    cls = type(obj)
    return cls(**{n: changes.pop(n, getattr(obj, n))
                  for n in cls._init_fields}, **changes)


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

# --- __eq__ and __hash__ templates, by arity --------------------------------
# Each reads the attributes f0, f1, ... that _renamed replaces by fields.

def _eq1(self, other):
    if other.__class__ is self.__class__:
        return (self.f0,) == (other.f0,)
    return NotImplemented


def _eq2(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1) == (other.f0, other.f1)
    return NotImplemented


def _eq3(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1, self.f2) == (other.f0, other.f1, other.f2)
    return NotImplemented


def _eq4(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1, self.f2, self.f3) == \
            (other.f0, other.f1, other.f2, other.f3)
    return NotImplemented


def _eq5(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1, self.f2, self.f3, self.f4) == \
            (other.f0, other.f1, other.f2, other.f3, other.f4)
    return NotImplemented


def _eq6(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1, self.f2, self.f3, self.f4, self.f5) == \
            (other.f0, other.f1, other.f2, other.f3, other.f4, other.f5)
    return NotImplemented


def _eq7(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1, self.f2, self.f3, self.f4, self.f5,
                self.f6) == \
            (other.f0, other.f1, other.f2, other.f3, other.f4, other.f5,
             other.f6)
    return NotImplemented


def _eq8(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1, self.f2, self.f3, self.f4, self.f5,
                self.f6, self.f7) == \
            (other.f0, other.f1, other.f2, other.f3, other.f4, other.f5,
             other.f6, other.f7)
    return NotImplemented


def _hash1(self):
    return hash((self.f0,))


def _hash2(self):
    return hash((self.f0, self.f1))


def _hash3(self):
    return hash((self.f0, self.f1, self.f2))


def _hash4(self):
    return hash((self.f0, self.f1, self.f2, self.f3))


def _hash5(self):
    return hash((self.f0, self.f1, self.f2, self.f3, self.f4))


def _hash6(self):
    return hash((self.f0, self.f1, self.f2, self.f3, self.f4, self.f5))


def _hash7(self):
    return hash((self.f0, self.f1, self.f2, self.f3, self.f4, self.f5,
                 self.f6))


def _hash8(self):
    return hash((self.f0, self.f1, self.f2, self.f3, self.f4, self.f5,
                 self.f6, self.f7))


_INITS = (None, _init1, _init2, _init3, _init4, _init5, _init6, _init7,
          _init8)
_EQS = (None, _eq1, _eq2, _eq3, _eq4, _eq5, _eq6, _eq7, _eq8)
_HASHES = (None, _hash1, _hash2, _hash3, _hash4, _hash5, _hash6, _hash7,
           _hash8)
_FunctionType = type(_hash1)


def _renamed(cls, template, names, name):
    """`cls`'s method `name`: a copy of a comparison template that reads
    the fields `names`."""
    code = template.__code__
    fields = {f"f{i}": n for i, n in enumerate(names)}
    code = code.replace(co_name=name, co_names=tuple(
        fields.get(n, n) for n in code.co_names))
    fn = _FunctionType(code, template.__globals__, name)
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


def _make_init(cls, specs, post_init):
    params = [n for n, f in specs.items() if f.init]
    defaults = tuple(specs[n].default for n in params
                     if specs[n].default is not _MISSING)
    if any(specs[n].default is _MISSING
           for n in params[len(params) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows "
                        "one with a default")
    setters = [getattr(cls, n).__set__ for n in params]
    factories = [(getattr(cls, n).__set__, f.default_factory)
                 for n, f in specs.items()
                 if not f.init and f.default_factory is not None]
    if factories or post_init is not None:
        # the last store finishes the instance, so the other records'
        # __init__ pays nothing for this
        last = setters[-1]

        def store_last_and_finish(self, value):
            last(self, value)
            for setter, factory in factories:
                setter(self, factory())
            if post_init is not None:
                post_init(self)
        setters[-1] = store_last_and_finish
    code = _INITS[len(params)].__code__
    init = _FunctionType(
        code.replace(co_name="__init__", co_varnames=("self", *params)),
        {f"s{i}": s for i, s in enumerate(setters)}, "__init__",
        defaults or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _refuse_unsupported(cls, specs):
    """Raise TypeError for field options, and for field counts, that the
    templates cannot serve."""
    name = cls.__name__
    if any(not f.init and f.default is not _MISSING for f in specs.values()):
        raise TypeError(f"{name}: an init=False field takes a "
                        "default_factory, not a default")
    if any(f.init and f.default_factory is not None for f in specs.values()):
        raise TypeError(f"{name}: a field that __init__ takes has a "
                        "default, not a default_factory")
    if len(specs) >= len(_INITS) or \
            not any(f.compare for f in specs.values()) or \
            not any(f.init for f in specs.values()):
        raise TypeError(f"{name}: a record has one to {len(_INITS) - 1} "
                        "fields, as many as its templates take, and at least "
                        "one that __init__ takes and one that is compared")


def _repr(self):
    return f"{type(self).__qualname__}(" + ", ".join(
        f"{n}={getattr(self, n)!r}" for n in self._repr_fields) + ")"


def _refuse_setattr(self, name, value):
    raise FrozenError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenError(f"cannot delete field {name!r}")


# copy and pickle store a frozen record's state through object.__setattr__,
# as for dataclasses
def _getstate(self):
    return [getattr(self, n) for n in self._fields]


def _setstate(self, state):
    for n, v in zip(self._fields, state):
        object.__setattr__(self, n, v)


def _remake(cls, immutable: bool):
    ns = dict(vars(cls))
    for n in ("__dict__", "__weakref__"):
        ns.pop(n, None)
    specs = {}
    for n in cls.__annotations__:
        v = ns.pop(n, _MISSING)
        specs[n] = v if isinstance(v, field) else field(v)
    _refuse_unsupported(cls, specs)
    ns["__slots__"] = tuple(ns.get("__slots__", ())) + tuple(specs)
    ns["__qualname__"] = cls.__qualname__
    ns.setdefault("__repr__", _repr)
    if immutable:
        ns.update(__setattr__=_refuse_setattr, __delattr__=_refuse_delattr,
                  __getstate__=_getstate, __setstate__=_setstate)
    new = type(cls.__name__, cls.__bases__, ns)
    new._fields = tuple(specs)
    new._repr_fields = tuple(n for n, f in specs.items() if f.repr)
    key = [n for n, f in specs.items() if f.compare]
    new.__eq__ = _renamed(new, _EQS[len(key)], key, "__eq__")
    if not immutable:
        new.__hash__ = None
    elif "__hash__" not in ns:
        new.__hash__ = _renamed(new, _HASHES[len(key)], key, "__hash__")
    new.__init__ = _make_init(new, specs, ns.get("__post_init__"))
    new._init_fields = tuple(n for n, f in specs.items() if f.init)
    return new


def record(cls):
    """`cls` as a mutable record: unhashable, since it compares by value."""
    return _remake(cls, immutable=False)


def frozen(cls):
    """`cls` as an immutable, hashable record."""
    return _remake(cls, immutable=True)
