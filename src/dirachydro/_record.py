"""Frozen value records without generated code.

Every result and parameter type of the package (``GridSpec``, ``Particle``,
the field providers, the residual sets) is a ``Record``: its fields are
the names annotated in its class body, after those of the records it
derives from, in order, and a class attribute of the same name is that
field's default.  Instances hold their fields in ``vars()`` and nothing
else unless a class sets more in ``__init__``; they refuse assignment and
deletion with ``AttributeError``, and compare and hash as the tuple of
their fields within one class, as a frozen dataclass does.

A record that validates or normalises its inputs defines
``__init__(self, *args, **kwargs)``, calls ``super().__init__`` first and
then checks or replaces the stored values through ``object.__setattr__``.
The base calls no method of a subclass.

Why not ``dataclasses``: a frozen dataclass ``exec``-compiles six
generated methods when its class is created, 0.4-0.8 ms a class.  Every
command runs as a fresh process and the CLI imports 16 records, so that
was 9-12 ms of every process on a 2-vCPU VM (Python 3.11.7, NumPy 2.4,
medians of 15 processes, bytecode cached or not), about half of the
package's own import time once bytecode exists.  A 5-field record class
builds here in 16 us against 630 us as a dataclass.  An instance costs
1.8-2.7 us against 1.2 us, and no record is built in a per-step loop.

The code needs Python 3.10 (``inspect.get_annotations``), the floor in
``pyproject.toml``; it has been run on 3.11 only.
"""

from __future__ import annotations

import inspect


class Record:
    """Base of the package's frozen records; see the module docstring."""

    # the field names, in order, and the defaults of those that have one
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in inspect.get_annotations(cls) if name not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields
                         if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            reason = "got multiple values for" if name in names else "got an unexpected"
            raise TypeError(f"{cls.__name__}() {reason} keyword argument {name!r}")
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
