"""Field contracts: each number, enum and nested-parameter field of a public
dataclass declares its kind once, in its annotation, and the class enforces
it with its own error type."""

import dataclasses
import enum
import inspect
import math
import sys
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clgmd
from clgmd import (
    CameraModel,
    ConfigError,
    CoreParams,
    Direction,
    Frame,
    InputError,
    NormParams,
    Placement,
    ScenarioSpec,
    Sphere,
    SteeringParams,
    TrialConfig,
    VehicleState,
    check_collision,
    generate_sequence,
    make_scenario,
    render_frame,
)
from clgmd.errors import Amplitude, Luminance, _contract, _kind

LUMINANCE = np.zeros((5, 5), dtype=np.uint8)
# A sphere wholly behind the camera: an obstacle that covers no pixel.
BEHIND = Sphere((-2.0, 0.0, 0.0), 0.3, 200.0)

# Valid keyword arguments for each checked class, and the error it raises.
CHECKED = {
    CoreParams: ({}, ConfigError),
    NormParams: ({}, ConfigError),
    SteeringParams: ({}, ConfigError),
    Sphere: ({"center": (4.0, 0.0, 0.0), "radius": 0.3, "luminance": 200.0}, ConfigError),
    CameraModel: ({}, ConfigError),
    ScenarioSpec: ({}, ConfigError),
    TrialConfig: ({}, ConfigError),
    VehicleState: ({}, InputError),
    Frame: ({"index": 0, "luminance": LUMINANCE}, InputError),
}

# Results the package builds itself, never parameters it is given.
RECORDS = {"CLgmdPotentials", "DetectionResult", "DetectorState", "EscapeCommand", "TrialTrace"}

# Fields with no declared kind: the pixels, which hand-written checks
# validate.
EXEMPT = {"Frame.luminance"}


# (class, field, Kind or enum class) for every declared field.
FIELDS = [(cls, *field) for cls in CHECKED for field in _contract(cls)]


def is_enum(kind):
    return isinstance(kind, type) and issubclass(kind, enum.Enum)


def is_nested(kind):
    """A parameter dataclass as a field's kind, checked by isinstance."""
    return isinstance(kind, type) and dataclasses.is_dataclass(kind)


def build(cls, name, value):
    kwargs, _ = CHECKED[cls]
    return cls(**{**kwargs, name: value})


def test_every_field_is_declared_or_exempt():
    public = [getattr(clgmd, name) for name in clgmd.__all__]
    classes = [c for c in public if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert all(c.__dataclass_params__.frozen for c in classes)
    params = [c for c in classes if c.__name__ not in RECORDS and any(
        f.init for f in dataclasses.fields(c))]
    assert set(params) == set(CHECKED)
    for cls in params:
        kinds = {name for name, _ in _contract(cls)}
        for f in dataclasses.fields(cls):
            assert f.name in kinds or f"{cls.__name__}.{f.name}" in EXEMPT, (cls, f.name)


def test_no_parameter_field_is_optional():
    # Every declared field holds its kind: None is never a value or a default.
    for cls in CHECKED:
        for name, hint in typing.get_type_hints(cls).items():
            assert type(None) not in typing.get_args(hint), (cls, name)
        assert all(f.default is not None for f in dataclasses.fields(cls)), cls


def test_no_public_callable_takes_out():
    # Each layer writes its grid to one place: a fresh grid or the scratch.
    for name in clgmd.__all__:
        obj = getattr(clgmd, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            assert "out" not in inspect.signature(obj).parameters, name


def _bad_values(cls, name, kind):
    bad = [math.nan, math.inf, -math.inf, True, np.True_, "1", b"1", 10**400, None]
    if is_enum(kind):
        return bad + ["bogus", 1.5]
    if is_nested(kind):
        other = SteeringParams if kind is CoreParams else CoreParams
        return bad + ["bogus", 1.5, other(), kind]
    if kind.integer:
        return bad + [2.5, 1.0, np.float64(3.0), -0.5]
    if kind.size:
        default = list(getattr(cls(**CHECKED[cls][0]), name))
        vectors = []
        for value in bad:
            for i in (0, kind.size - 1):
                vectors.append(tuple(value if j == i else v for j, v in enumerate(default)))
        return bad + vectors + [tuple(default[:-1]), tuple(default) + (0.0,), 5, "123"]
    return bad


BAD = [(cls, name, kind, value) for cls, name, kind in FIELDS
       for value in _bad_values(cls, name, kind)]


def _raises_class_error(cls, name, value):
    error = CHECKED[cls][1]
    with pytest.raises(error) as info:
        build(cls, name, value)
    assert type(info.value) is error
    assert name in str(info.value)


def test_invalid_values_raise_the_class_error():
    for cls, name, _, value in BAD:
        _raises_class_error(cls, name, value)


def _invalid(kind):
    """Values outside ``kind``: strings, and numbers it refuses."""
    numbers = st.floats() | st.integers()
    if is_enum(kind):
        return st.text().filter(lambda v: v not in {m.value for m in kind})
    if is_nested(kind):
        return st.text() | numbers
    if kind.integer:
        numbers = st.floats() | st.integers().filter(lambda v: not kind.test(v))
    elif not kind.size:
        numbers = numbers.filter(lambda v: not (abs(v) <= sys.float_info.max and kind.test(v)))
    return st.text() | numbers


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(st.just(f), _invalid(f[2]))))
def test_generated_invalid_values_raise_the_class_error(case):
    (cls, name, _), value = case
    _raises_class_error(cls, name, value)


def _valid(kind):
    if is_enum(kind):
        return st.sampled_from(list(kind)) | st.sampled_from([m.value for m in kind])
    if is_nested(kind):
        return st.builds(lambda: kind(**CHECKED[kind][0]))
    integers = st.integers(-(2**63), 2**63 - 1)
    if kind.integer:
        return (st.integers(-10, 10**6) | integers).filter(kind.test)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if kind.size:
        element = st.floats(-1e6, 1e6) | st.integers(-(10**6), 10**6)
        return st.tuples(*[element] * kind.size)
    near = st.floats(0.0, 1.0) | st.floats(-300.0, 300.0) | st.integers(-300, 300)
    return (near | finite | integers).filter(kind.test)


def _twin(kind, value):
    """The same value as numpy hands it out, an enum in its other form, or an
    equal copy of a parameter object."""
    if is_enum(kind):
        return kind(value) if isinstance(value, str) else value.value
    if is_nested(kind):
        return dataclasses.replace(value)
    if isinstance(value, tuple):
        return np.array(value, dtype=np.float64)
    return np.int64(value) if isinstance(value, int) else np.float64(value)


def _kind_messages(name, kind):
    if is_enum(kind):
        return (f"unknown {name} ",)
    if is_nested(kind):
        return (f"{name} must be a {kind.__name__}",)
    return tuple(f"{name} must {rule}" for rule in (kind.rule, "be a finite number", "be an integer"))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(st.just(f), _valid(f[2]))))
def test_valid_values_pass_their_kind_and_numpy_twins_build_equal_objects(case):
    (cls, name, kind), value = case
    error = CHECKED[cls][1]
    outcomes = []
    for given_value in (value, _twin(kind, value)):
        try:
            outcomes.append(build(cls, name, given_value))
        except error as exc:  # a cross-field rule, never the field's own kind
            assert not str(exc).startswith(_kind_messages(name, kind)), exc
            outcomes.append(error)
    first, second = outcomes
    assert first == second
    if first is not error:
        stored = getattr(first, name)
        if is_enum(kind):
            assert stored is kind(value)
        elif is_nested(kind):
            assert stored is value
        elif kind.size:
            assert stored == tuple(map(float, value))
            assert all(type(v) is float for v in stored)
        else:  # numpy scalars are stored as Python numbers
            assert stored == value
            assert type(getattr(second, name)) is type(value)


def test_accepted_values_build_equal_objects():
    assert CoreParams(c_w=np.float64(4.0), inhibition_delay=np.int64(0)) == CoreParams()
    assert NormParams(n_sp=np.int64(4)) == NormParams()
    assert CameraModel(width=np.int64(100)) == CameraModel()
    assert Sphere(np.array([4, 0, 0]), 1, 255) == Sphere((4.0, 0.0, 0.0), 1.0, 255.0)
    assert ScenarioSpec(direction="left") == ScenarioSpec(direction=Direction.LEFT)
    assert TrialConfig(placement="up", noise_seed=np.int64(3)) == TrialConfig(
        placement=Placement.UP, noise_seed=3
    )
    arena = np.array([-1.0, 6.0, -3.0, 3.0, -3.0, 3.0])
    assert TrialConfig(arena=arena).arena == TrialConfig().arena
    assert VehicleState(position=[1, 2, 3]).position == (1.0, 2.0, 3.0)
    assert Frame(index=np.int64(3), luminance=LUMINANCE).index == 3


nan, inf = math.nan, math.inf


# Each of these was accepted, or raised a bare TypeError or ValueError,
# before the field kinds were declared.
@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: NormParams(t_s=nan), ConfigError),
        (lambda: NormParams(n_sp=1.5), ConfigError),
        (lambda: NormParams(n_sp=True), ConfigError),
        (lambda: CoreParams(inhibition_delay=True), ConfigError),
        (lambda: CoreParams(inhibition_delay=1.0), ConfigError),
        (lambda: SteeringParams(speed_0=inf), ConfigError),
        (lambda: ScenarioSpec(fps=nan), ConfigError),
        (lambda: ScenarioSpec(frames=2.5), ConfigError),
        (lambda: Sphere((1, 0, 0), nan, 100), ConfigError),
        (lambda: TrialConfig(margin=nan), ConfigError),
        (lambda: TrialConfig(noise_seed=0.5), ConfigError),
        (lambda: TrialConfig(cruise_speed=True), ConfigError),
        (lambda: CameraModel(width=100.5), ConfigError),
        (lambda: ScenarioSpec(noise_amplitude=inf), ConfigError),
        (lambda: Frame(index=1.5, luminance=LUMINANCE), InputError),
        (lambda: TrialConfig(dt="0.1"), ConfigError),
        (lambda: CameraModel(width="100"), ConfigError),
        (lambda: Sphere((1, 0, 0), "a", 100), ConfigError),
        (lambda: ScenarioSpec(direction="bogus"), ConfigError),
        (lambda: TrialConfig(core="x"), ConfigError),
        (lambda: TrialConfig(norm=5), ConfigError),
        (lambda: TrialConfig(steering=3), ConfigError),
        (lambda: TrialConfig(camera=None), ConfigError),
        (lambda: TrialConfig(noise_amplitude=inf), ConfigError),
    ],
)
def test_values_once_let_through_are_rejected(make, error):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error


# render_frame's checked keyword arguments, each of the kind a scenario's
# or a trial's field of that name declares, on a camera of the least size.
RENDER = {
    "obstacle": Sphere, "camera": CameraModel, "background": Luminance,
    "noise_amplitude": Amplitude,
}
SMALL = CameraModel(width=5, height=5)


def _render(name, value):
    return render_frame(**{"obstacle": BEHIND, "camera": SMALL, name: value})


def _raises_input_error(name, value):
    with pytest.raises(InputError) as info:
        _render(name, value)
    assert type(info.value) is InputError
    assert str(info.value).startswith(f"{name} must "), info.value


def test_invalid_render_arguments_raise_input_error():
    for name, hint in RENDER.items():
        for value in _bad_values(None, name, _kind(hint)):
            _raises_input_error(name, value)
    _raises_input_error("obstacle", 5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: render_frame(Sphere((4, 0, 0), 0.3, 200), "cam"), InputError,
         "camera must be a CameraModel, got 'cam'"),
        (lambda: check_collision(None, 0.1), InputError, "obstacle must be a Sphere, got None"),
        (lambda: make_scenario(ScenarioSpec(), camera="x"), ConfigError,
         "camera must be a CameraModel, got 'x'"),
        (lambda: generate_sequence(ScenarioSpec(), camera="x"), ConfigError,
         "camera must be a CameraModel, got 'x'"),
        (lambda: make_scenario(None), ConfigError, "spec must be a ScenarioSpec, got None"),
    ],
)
def test_camera_and_obstacle_arguments_raise_the_package_error(call, error, message):
    # Each raised a bare AttributeError from the first attribute it read.
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(RENDER)).flatmap(
    lambda name: st.tuples(st.just(name), _invalid(_kind(RENDER[name])))))
def test_generated_invalid_render_arguments_raise_input_error(case):
    _raises_input_error(*case)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(RENDER)).flatmap(
    lambda name: st.tuples(st.just(name), _valid(_kind(RENDER[name])))))
def test_valid_render_arguments_and_numpy_twins_render_equal_frames(case):
    name, value = case
    twin = _twin(_kind(RENDER[name]), value)
    assert _render(name, value).luminance.tobytes() == _render(name, twin).luminance.tobytes()


@pytest.mark.parametrize(
    "make, name",
    [(lambda v: CameraModel(width=v), "width"), (lambda v: NormParams(c1=v), "c1")],
)
@pytest.mark.parametrize("value, digits", [(10**400, 401), (-(10**400) + 1, 400)])
def test_integer_past_the_float_range_is_named_by_its_digit_count(make, name, value, digits):
    # Only its size fails it: an integer field and a float field give the
    # same rule, and the message stays short however long the integer.
    with pytest.raises(ConfigError) as info:
        make(value)
    assert str(info.value) == f"{name} must fit in a float, got an integer of {digits} digits"


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: Sphere((v, 0, 0), 0.1, 100.0), "center"),
        (lambda v: TrialConfig(obstacle_velocity=(v, 0, 0)), "obstacle_velocity"),
    ],
)
@pytest.mark.parametrize("digits", [401, 5001])
def test_vector_holding_a_huge_integer_is_shown_by_its_digit_count(make, name, digits):
    # repr() of such a tuple prints every digit, and raises ValueError past
    # int()'s 4,300-digit limit.
    with pytest.raises(ConfigError) as info:
        make(10 ** (digits - 1))
    want = f"{name} must be a finite 3-vector, got (an integer of {digits} digits, 0, 0)"
    assert str(info.value) == want


def test_enum_error_lists_the_choices():
    with pytest.raises(ConfigError, match="unknown direction 'bogus'; choose from up/"):
        ScenarioSpec(direction="bogus")
