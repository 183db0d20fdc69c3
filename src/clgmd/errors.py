"""Exception taxonomy shared across the package, and the declared kinds of
parameter fields.

The CLI maps these onto exit codes: usage/config problems exit 1,
OS-level I/O failures exit 2, malformed data exits 3.

A knob is one annotated dataclass field, its kind included:
``c_w: Positive = 4.0``.  The class's ``__post_init__`` calls
:func:`check_fields`, which enforces every declared kind, enum and nested
parameter class, and raises the class's error type; only rules that tie
fields together are written by hand.  A message quotes a rejected
outside value through :func:`shown`, by one rule: as its repr, but text
or bytes past ``_SHOWN`` characters as their start and length, an int
past ``_SHOWN`` digits as its digit count, a tuple or list item by item.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import numbers
import sys
import typing
from typing import Annotated, Callable, NamedTuple


class ClgmdError(Exception):
    """Base class for all package errors."""


class InputError(ClgmdError, ValueError):
    """An operation was called with arguments violating its contract."""


class ConfigError(ClgmdError, ValueError):
    """A parameter set or configuration file is invalid."""


class DataError(ClgmdError, ValueError):
    """External data (frame files, sequences) is malformed."""


class UsageError(ClgmdError):
    """Command line invocation is malformed."""


class Kind(NamedTuple):
    """What a number field may hold: a finite real that fits in a float,
    integral if ``integer``, for which ``test`` holds; with ``size``, a
    tuple of that many finite reals.  ``rule`` ends "<field> must ..."."""

    rule: str
    test: Callable[[float], bool] = lambda v: True
    integer: bool = False
    size: int = 0


Real = Annotated[float, Kind("be a finite number")]
Positive = Annotated[float, Kind("be positive", lambda v: v > 0)]
NonNegative = Annotated[float, Kind("be non-negative", lambda v: v >= 0)]
Luminance = Annotated[float, Kind("lie in [0, 255]", lambda v: 0 <= v <= 255)]
Count = Annotated[int, Kind("be non-negative", lambda v: v >= 0, integer=True)]
PositiveCount = Annotated[int, Kind("be positive", lambda v: v > 0, integer=True)]
Vec3 = Annotated[tuple[float, float, float], Kind("be a finite 3-vector", size=3)]

_MAX = sys.float_info.max
FLOAT_DIGITS = len(str(int(_MAX)))  # an integer of more digits is past the float range
_SHOWN = 32

# Uniform noise of amplitude a spans 2·a, which must be a finite float.
Amplitude = Annotated[
    float,
    Kind("be non-negative and at most half the largest float", lambda v: 0 <= v <= _MAX / 2),
]


def _number(value, integer: bool = False) -> bool:
    """True for a finite real that fits in a float, integral if ``integer``;
    never for a bool or a string.  Exact floats and ints skip the ABCs."""
    if type(value) is float:
        return not integer and -_MAX <= value <= _MAX
    if type(value) is int:
        return -_MAX <= value <= _MAX
    abc = numbers.Integral if integer else numbers.Real
    return isinstance(value, abc) and not isinstance(value, bool) and -_MAX <= value <= _MAX


def shown(value) -> str:
    """``value`` as a message quotes it, by the rule in the module docstring."""
    if isinstance(value, (str, bytes)) and len(value) > _SHOWN:
        return f"{value[:_SHOWN]!r}... of length {len(value)}"
    if type(value) is int and abs(value) >= 10**_SHOWN:
        digits = int(math.log10(abs(value))) + 1  # str() refuses past 4,300 digits
        digits += (10**digits <= abs(value)) - (10 ** (digits - 1) > abs(value))
        return f"an integer of {digits} digits"
    if type(value) in (tuple, list):
        return "(%s)" % ", ".join(map(shown, value))
    return repr(value)


def _check(name: str, kind, value, error):
    if isinstance(kind, type):  # an enum or a dataclass
        if isinstance(value, kind):
            return value
        if not issubclass(kind, enum.Enum):
            raise error(f"{name} must be a {kind.__name__}, got {shown(value)}")
        try:
            return kind(value)
        except ValueError:
            choices = "/".join(str(member.value) for member in kind)
            raise error(f"unknown {name} {shown(value)}; choose from {choices}") from None
    if kind.size:
        try:
            items = () if isinstance(value, (str, bytes)) else tuple(value)
        except TypeError:
            items = ()
        if len(items) == kind.size and all(map(_number, items)):
            return tuple(map(float, items))
        raise error(f"{name} must {kind.rule}, got {shown(value)}")
    number = _number(value, kind.integer)
    if not (number and kind.test(value)):
        rule = kind.rule if number else "be an integer" if kind.integer else "be a finite number"
        rule = "fit in a float" if type(value) is int and not number else rule  # too large
        raise error(f"{name} must {rule}, got {shown(value)}")
    if type(value) is float or type(value) is int:
        return value
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def _kind(hint):
    """The Kind an annotation declares, its enum or dataclass class, or None."""
    kind = getattr(hint, "__metadata__", (hint,))[0]
    if isinstance(kind, Kind) or isinstance(kind, type) and (
        issubclass(kind, enum.Enum) or dataclasses.is_dataclass(kind)
    ):
        return kind
    return None


@functools.cache
def _contract(cls) -> tuple[tuple[str, object], ...]:
    """(name, kind) for every field of ``cls`` with a kind."""
    table = []
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        kind = _kind(hint)
        if kind is not None:
            table.append((name, kind))
    return tuple(table)


def check_value(name: str, hint, value, error=ConfigError):
    """``value`` checked as a field annotated ``hint`` would be.  It comes
    back as a Python int or float (a vector as a tuple of floats), as the
    enum member of an enum's value, or, for a dataclass kind, as given."""
    return _check(name, _kind(hint), value, error)


def check_fields(obj, error=ConfigError) -> None:
    """Raise ``error`` unless every declared field of the dataclass ``obj``
    holds its kind; store each value as ``check_value`` returns it."""
    for name, kind in _contract(type(obj)):
        value = getattr(obj, name)
        checked = _check(name, kind, value, error)
        if checked is not value:
            object.__setattr__(obj, name, checked)
