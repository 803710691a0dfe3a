"""Record classes without the dataclasses module.

``record`` gives a class with annotated fields what the package used from
``dataclasses.dataclass``: an ``__init__`` over the fields in order (class
attributes are defaults; ``__post_init__`` runs last), ``__repr__``,
field-wise ``__eq__`` and, for frozen records, ``__hash__`` and refused
assignment.  Importing ``dataclasses`` loads ``inspect``, ``ast`` and
``dis``, about 1 MB of resident memory for every process that imports
mukailab.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    pass


def _refuse(self, *args):
    raise FrozenInstanceError("cannot assign to a field of %s" % type(self).__name__)


def record(cls=None, frozen=True):
    if cls is None:
        return lambda c: record(c, frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    env = {"_set": object.__setattr__}
    params = []
    for name in names:
        if name in cls.__dict__:
            env["_d_" + name] = cls.__dict__[name]
            name += "=_d_" + name
        params.append(name)
    assign = "_set(self, %r, %s)" if frozen else "self.%s = %s"
    body = [assign % (n, n) for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec("def __init__(self, %s):\n    %s" % (", ".join(params), "\n    ".join(body)), env)
    fields = attrgetter(*names)
    cls.__init__ = env["__init__"]
    cls.__repr__ = lambda self: "%s(%s)" % (type(self).__qualname__, ", ".join(
        "%s=%r" % (n, getattr(self, n)) for n in names))
    cls.__eq__ = lambda self, other: (fields(self) == fields(other)
                                      if other.__class__ is self.__class__ else NotImplemented)
    cls.__hash__ = (lambda self: hash(fields(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    cls._fields = names
    return cls


def replace(obj, **changes):
    """A copy of a record with some fields changed, through ``__init__``."""
    return type(obj)(**{n: changes.get(n, getattr(obj, n)) for n in obj._fields})
