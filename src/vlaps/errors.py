"""Exception types shared across the package, and the type rule for outside values."""

import math
import numbers
from dataclasses import fields


class VlapsError(Exception):
    """Base class for all package errors."""


class ConfigurationError(VlapsError):
    """Invalid user-supplied configuration (bad sizes, missing files, ...)."""


class ContractViolationError(VlapsError):
    """A caller broke an API precondition (shape mismatch, re-expansion, ...)."""


class DegenerateLibraryError(ConfigurationError):
    """Library construction received inputs that cannot yield distinct prototypes."""


class PriorQueryError(VlapsError):
    """The prior policy failed to produce a macro-action."""


# a field type, the values it holds, and how an error names them
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a finite number"),
          "str": (str, "a string"), "bool": (bool, "true or false")}


def _holds(kind: str, value) -> bool:
    # a bool is no number, and a number must be finite
    return (isinstance(value, _KINDS[kind][0]) and isinstance(value, bool) == (kind == "bool")
            and (kind != "float" or math.isfinite(value)))


def _python(number):
    # a numpy scalar as the Python number of its kind
    return int(number) if isinstance(number, numbers.Integral) else float(number)


def check_fields(obj) -> None:
    """Check each field of a dataclass filled from outside against its type.

    An ``int`` field holds an integer and a ``float`` field a finite real (an
    integer counts); ``str`` and ``bool`` fields hold those types, and a bool
    is no number.  A ``list[T]`` field holds a list of ``T``.  Integer fields
    are checked first; a field of any other type checks itself.  Types are
    read as the strings ``from __future__ import annotations`` leaves.
    Raises ``ConfigurationError`` naming the class and the field.  Numbers
    in ``int`` and ``float`` fields and lists are stored back as Python
    numbers (an integer as an ``int``), so numpy scalars serialise to JSON.
    """
    for f in sorted(fields(obj), key=lambda fld: fld.type != "int"):
        value, kind = getattr(obj, f.name), f.type
        if kind.startswith("list["):
            ok = isinstance(value, list) and all(_holds(kind[5:-1], x) for x in value)
        else:
            ok = kind not in _KINDS or _holds(kind, value)
        if not ok:
            expected = _KINDS[kind][1] if kind in _KINDS else f"a {kind}"
            raise ConfigurationError(
                f"{type(obj).__name__}: {f.name} must be {expected}, got {value!r}")
        if kind in ("int", "float"):
            setattr(obj, f.name, _python(value))
        elif kind in ("list[int]", "list[float]"):
            setattr(obj, f.name, [_python(x) for x in value])
