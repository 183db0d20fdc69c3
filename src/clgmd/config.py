"""Flat key=value run configuration.

One file configures the detector, the steering stage and the closed-loop
trial.  Lines are `key=value`, `#` starts a comment line, blank lines are
ignored.  Unknown keys are rejected by name so typos fail loudly.
Command-line overrides are applied on top of file values.

A knob is one annotated field of the parameter dataclass that uses it,
its kind included (``c_w: Positive = 4.0``; see :mod:`clgmd.errors`).  The
field gives the key and its default, the annotation without its kind gives
the type the text is parsed as, and the dataclass enforces the kind when
the parameter object is built.  Only keys that are not a same-named field
are mapped here.
"""

from __future__ import annotations

import enum
import math
import typing
from dataclasses import fields, make_dataclass

from .competition import NormParams
from .errors import ConfigError
from .flightsim import TrialConfig
from .layers import CoreParams
from .steering import SteeringParams
from .stimulus import CameraModel

# Fields that are not flat keys: derived from the frame size (n_cell) or
# built from the other keys (the nested parameter objects).
_NOT_KEYS = {"n_cell", "camera", "core", "norm", "steering"}

# Vector fields spread over one float key per component.
_VECTOR_KEYS = {
    "obstacle_velocity": tuple(f"obstacle_v{axis}" for axis in "xyz"),
    "arena": tuple(f"arena_{axis}{end}" for axis in "xyz" for end in ("min", "max")),
}


def _flat_keys() -> list[tuple[str, object, object]]:
    """(key, value type, default) for every knob, in declaration order."""
    keys = []
    for cls in (CoreParams, NormParams, SteeringParams, CameraModel, TrialConfig):
        hints = typing.get_type_hints(cls)  # kinds stripped: float, int, float | None
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


class _Builders:
    """Parameter objects built from the flat keys of a RunConfig."""

    def _pick(self, cls) -> dict:
        """Keyword arguments for ``cls`` from its same-named keys."""
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name in _TYPES}

    def _vector(self, name: str) -> tuple:
        return tuple(getattr(self, key) for key in _VECTOR_KEYS[name])

    def core_params(self) -> CoreParams:
        return CoreParams(**self._pick(CoreParams))

    def norm_params(self, width: int | None = None, height: int | None = None) -> NormParams:
        width = width if width is not None else self.width
        height = height if height is not None else self.height
        return NormParams.for_resolution(width, height, **self._pick(NormParams))

    def steering_params(self) -> SteeringParams:
        return SteeringParams(**self._pick(SteeringParams))

    def camera_model(self) -> CameraModel:
        return CameraModel(**self._pick(CameraModel))

    def trial_config(self) -> TrialConfig:
        return TrialConfig(
            obstacle_velocity=self._vector("obstacle_velocity"),
            arena=self._vector("arena"),
            camera=self.camera_model(),
            core=self.core_params(),
            norm=self.norm_params(),
            steering=self.steering_params(),
            **self._pick(TrialConfig),
        )


RunConfig = make_dataclass(
    "RunConfig",
    _flat_keys(),
    bases=(_Builders,),
    frozen=True,
    namespace={
        "__doc__": "Every tunable knob with its default, one flat namespace.",
        "__module__": __name__,
    },
)
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, text: str):
    kind = _TYPES[key]
    if kind is str:
        return text
    if typing.get_args(kind):  # `float | None`: an empty value means None
        if text == "":
            return None
        kind = typing.get_args(kind)[0]
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"invalid value for {key}: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def split_key_value(text: str, error: Exception) -> tuple[str, str]:
    """``key=value`` text as its stripped key and value; raises ``error``
    when the text holds no ``=``."""
    key, eq, value = text.partition("=")
    if not eq:
        raise error
    return key.strip(), value.strip()


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """key=value lines to a raw string mapping; comments and blanks skipped,
    a key set on two lines rejected."""
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        error = ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = split_key_value(line, error)
        if key in mapping:
            raise ConfigError(f"{source}:{lineno}: {key} is set again (line {first_line[key]})")
        mapping[key], first_line[key] = value, lineno
    return mapping


def load_config_file(path) -> dict[str, str]:
    with open(path, "r") as handle:
        return parse_config_text(handle.read(), source=str(path))


def config_from_mappings(*mappings: dict[str, str]) -> RunConfig:
    """Later mappings override earlier ones; unknown keys are rejected."""
    merged: dict[str, str] = {}
    for mapping in mappings:
        merged.update(mapping)
    values = {}
    for key, text in merged.items():
        if key not in _TYPES:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = _convert(key, text)
    return RunConfig(**values)
