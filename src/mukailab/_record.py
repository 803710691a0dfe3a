"""Record classes without the dataclasses module.

``record`` gives a class with annotated fields what the package used from
``dataclasses.dataclass(slots=True)``: the class is re-created with
``__slots__`` equal to its fields, and gets an ``__init__`` over the fields
in order (class attributes are defaults; ``__post_init__`` runs last),
``__repr__``, field-wise ``__eq__`` and, for frozen records, ``__hash__``
and refused assignment and deletion.  A frozen ``__init__`` stores each
field through its slot descriptor, which bypasses the refusing
``__setattr__``.  A class with ``__post_init__`` also gets a ``__dict__``
slot, for the private values it caches (``NSLattice._rows``,
``SurfaceModel._cone``, and the reduction chains' per-model values, such
as the rank-one target model and the Enriques reflection map, which
``mukailab.reductions`` builds on first use).  ``__getstate__`` and ``__setstate__`` carry the fields
(and that dict) through ``pickle`` and ``copy``; ``replace`` goes through
``__init__`` and starts with an empty dict.  Importing
``dataclasses`` loads ``inspect``, ``ast`` and ``dis``, about 1 MB of
resident memory for every process that imports mukailab.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    pass


def _refuse(self, *args):
    raise FrozenInstanceError("cannot assign to a field of %s" % type(self).__name__)


def _getstate(self):
    return [getattr(self, n) for n in self._fields], getattr(self, "__dict__", None)


def _setstate(self, state):
    values, extra = state
    for name, value in zip(self._fields, values):
        object.__setattr__(self, name, value)
    if extra:
        self.__dict__.update(extra)


def record(cls=None, frozen=True):
    if cls is None:
        return lambda c: record(c, frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    body = dict(cls.__dict__)
    for slot in ("__dict__", "__weakref__"):
        body.pop(slot, None)
    env, params = {}, []
    for name in names:
        if name in body:
            env["_d_" + name] = body.pop(name)
            params.append("%s=_d_%s" % (name, name))
        else:
            params.append(name)
    post_init = "__post_init__" in body
    # the _s_ names are the slot descriptors' __set__, bound once the class exists
    assign = "_s_%s(self, %s)" if frozen else "self.%s = %s"
    lines = ["def __init__(self, %s):" % ", ".join(params)]
    lines += ["    " + assign % (n, n) for n in names]
    lines += ["    self.__post_init__()"] * post_init
    exec("\n".join(lines), env)
    fields = attrgetter(*names)
    body.update(
        __slots__=names + ("__dict__",) * post_init, __qualname__=cls.__qualname__,
        __init__=env["__init__"], __getstate__=_getstate, __setstate__=_setstate,
        __repr__=lambda self: "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in names)),
        __eq__=lambda self, other: (fields(self) == fields(other)
                                    if other.__class__ is self.__class__ else NotImplemented),
        __hash__=(lambda self: hash(fields(self))) if frozen else None,
        _fields=names)
    if frozen:
        body["__setattr__"] = body["__delattr__"] = _refuse
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    for name in names:
        env["_s_" + name] = cls.__dict__[name].__set__
    return cls


def replace(obj, **changes):
    """A copy of a record with some fields changed, through ``__init__``."""
    return type(obj)(**{n: changes.get(n, getattr(obj, n)) for n in obj._fields})
