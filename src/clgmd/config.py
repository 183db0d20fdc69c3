"""Flat key=value run configuration.

One file configures the detector, the steering stage and the closed-loop
trial.  Lines are `key=value`, `#` starts a comment line, blank lines are
ignored.  Unknown keys are rejected by name so typos fail loudly.
Command-line ``--set`` flags are read by the same rules, through
:func:`parse_pairs`, and applied on top of file values.

The keys build one object, the :class:`~clgmd.flightsim.TrialConfig` they
describe, with its camera, layer-stack, normalization and steering
parameters nested in it.  Building it checks every field and every
cross-field rule of the trial, so ``clgmd detect`` and ``clgmd simulate``
accept and reject the same configurations.  ``detect`` then reads only
``core``, ``norm`` and ``steering``.  No key sets the normalization's
n_cell: the detector takes it from its first frame.

A knob is one annotated field of the parameter dataclass that uses it,
its kind included (``c_w: Positive = 4.0``; see :mod:`clgmd.errors`).  The
field gives the key and its default, the annotation without its kind gives
the type the text is parsed as, and the dataclass enforces the kind when
the parameter object is built.  Only keys that are not a same-named field
are mapped here.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import fields

from .competition import NormParams
from .errors import FLOAT_DIGITS, ConfigError, Real, check_value, shown
from .flightsim import TrialConfig
from .layers import CoreParams
from .steering import SteeringParams
from .stimulus import CameraModel

# Fields that are not flat keys: the nested parameter objects, built from
# the other keys.
_NOT_KEYS = {"camera", "core", "norm", "steering"}

# Vector fields spread over one float key per component.
_VECTOR_KEYS = {
    "obstacle_velocity": tuple(f"obstacle_v{axis}" for axis in "xyz"),
    "arena": tuple(f"arena_{axis}{end}" for axis in "xyz" for end in ("min", "max")),
}


def _flat_keys() -> list[tuple[str, object, object]]:
    """(key, value type, default) for every knob, in declaration order."""
    keys = []
    for cls in (CoreParams, NormParams, SteeringParams, CameraModel, TrialConfig):
        hints = typing.get_type_hints(cls)  # kinds stripped: float or int
        for f in fields(cls):
            if f.name in _VECTOR_KEYS:
                keys.extend((k, float, v) for k, v in zip(_VECTOR_KEYS[f.name], f.default))
            elif f.name in _NOT_KEYS:
                continue
            elif isinstance(f.default, enum.Enum):
                keys.append((f.name, str, f.default.value))
            else:
                keys.append((f.name, hints[f.name], f.default))
    return keys


_KEYS = _flat_keys()
_TYPES = {key: kind for key, kind, _ in _KEYS}
_DEFAULTS = {key: default for key, _, default in _KEYS}


def parse_number(name: str, kind: type, text: str, error=ConfigError):
    """``kind(text)`` for ASCII text with no ``_``, else ``error`` naming
    ``name``: ``int`` and ``float`` alone would read "１００" and "1_5_0".
    Integer text is sized by its digits, not by ``int()``'s digit limit."""
    if text.isascii() and "_" not in text:
        number = text.strip()
        digits = (number[1:] if number[:1] in ("+", "-") else number).lstrip("0")
        if len(digits) > FLOAT_DIGITS and digits.isdigit():
            raise error(f"{name} must fit in a float, got an integer of {len(digits)} digits")
        try:
            return kind(text)
        except ValueError:
            pass
    raise error(f"invalid value for {name}: {shown(text)}")


def _convert(key: str, text: str):
    kind = _TYPES[key]
    if kind is str:
        return text
    value = parse_number(key, kind, text)
    return check_value(key, Real, value) if kind is float else value


def parse_pairs(entries) -> dict[str, str]:
    """``(where, text)`` entries of ``key=value`` text to a raw string mapping,
    each split at its first ``=``; a text with no ``=`` or a key set twice
    raises, naming where (and, for a repeat, where the key was first set)."""
    mapping: dict[str, str] = {}
    first: dict[str, str] = {}
    for where, text in entries:
        key, eq, value = text.partition("=")
        if not eq:
            raise ConfigError(f"{where}: expected KEY=VALUE, got {shown(text)}")
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"{where}: {shown(key)} is set again ({first[key]})")
        mapping[key], first[key] = value.strip(), where
    return mapping


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """key=value lines to a raw string mapping; comments and blanks skipped."""
    return parse_pairs(
        (f"{source}:{lineno}", line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    )


def load_config_file(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_config_text(text, source=str(path))


def config_from_mappings(*mappings: dict[str, str]) -> TrialConfig:
    """The trial the keys describe, every parameter object checked.

    Later mappings override earlier ones before any text is converted, so
    a bad value that a later mapping replaces is never read; unknown keys
    are rejected.
    """
    merged: dict[str, str] = {}
    for mapping in mappings:
        merged.update(mapping)
    values = dict(_DEFAULTS)
    for key, text in merged.items():
        if key not in _TYPES:
            raise ConfigError(f"unknown config key: {shown(key)}")
        values[key] = _convert(key, text)

    def pick(cls) -> dict:
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    return TrialConfig(
        **{name: tuple(values[key] for key in keys) for name, keys in _VECTOR_KEYS.items()},
        camera=CameraModel(**pick(CameraModel)),
        core=CoreParams(**pick(CoreParams)),
        norm=NormParams(**pick(NormParams)),
        steering=SteeringParams(**pick(SteeringParams)),
        **pick(TrialConfig),
    )
