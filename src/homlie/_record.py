"""Frozen records: ``dataclass(frozen=True)`` behaviour from generic methods,
with no code generated per class, so that ``import homlie`` stays cheap."""


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


_MISSING = object()


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields; dict defaults are copied."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[: len(args)]):
                raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
            kwargs.update(zip(names, args))
        state = self.__dict__
        for name in names:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                if name not in defaults:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                value = defaults[name]
                value = dict(value) if type(value) is dict else value
            state[name] = value
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        if post_init is not None:
            post_init(self)

    def values(self) -> tuple:
        return tuple([self.__dict__[name] for name in names])

    def __repr__(self):
        inner = ", ".join([f"{name}={self.__dict__[name]!r}" for name in names])
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
