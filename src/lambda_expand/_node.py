"""The one decorator that builds the package's frozen tree nodes.

Terms, types, bases and derivations are small frozen records, and the
translations build them by the hundred thousand.  A frozen dataclass's own
__init__ stores each field with object.__setattr__(self, "name", value),
which looks the attribute up again on every call.  `node` keeps everything
else dataclass generates and replaces only that __init__.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


def node(cls):
    """cls as a frozen, slotted dataclass whose __init__ stores each field
    through the C-level __set__ of the field's slot, bound once here.

    The __init__ takes the same arguments as dataclass's, positional or by
    keyword, with the same defaults, and still calls __post_init__.  The
    frozen __setattr__ stays, so assigning to a field still raises.  A
    record that is not a field (a pass record, a cache) is a slot declared
    on a base class, where ==, hash, repr, replace and pickling never see
    it."""
    cls = dataclass(frozen=True, slots=True)(cls)
    params, lines = [], []
    env = {"__name__": __name__}
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: node fields take no default_factory")
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        lines.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(lines), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
