"""Boundary fuzz: device-config constructors build or raise ConfigError.

Every field of :class:`CalibratedTimings`, :class:`Topology` and
:class:`DeviceConfig`, and both arguments of :func:`register_preset`,
is drawn from ints, floats (NaN and ±inf included), bools, text and
``None``.  Whatever the draw, construction either succeeds or raises
:class:`~repro.errors.ConfigError` — never a ``TypeError``,
``ValueError`` or ``AttributeError`` from a comparison on a wrong type.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gpu import presets
from repro.gpu.config import DeviceConfig
from repro.gpu.presets import get_preset, register_preset
from repro.gpu.topology import CO_RESIDENCY_POLICIES, TOPOLOGY_KINDS, Topology
from repro.model.calibration import CalibratedTimings

SCALARS = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=12),
    st.none(),
)

#: scalars plus the values a field accepts, so some draws build.
FIELD_VALUES = st.one_of(
    SCALARS,
    st.sampled_from(TOPOLOGY_KINDS + CO_RESIDENCY_POLICIES),
    st.just(CalibratedTimings()),
    st.just(Topology()),
    st.just(Topology(kind="cluster", num_domains=2, crossing_ns=10)),
)


def kwargs_for(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), FIELD_VALUES, max_size=4)


def builds_or_config_error(build):
    try:
        build()
    except ConfigError:
        pass


@settings(max_examples=150, deadline=None)
@given(cls=st.sampled_from([CalibratedTimings, Topology, DeviceConfig]),
       data=st.data())
def test_constructors_build_or_raise_config_error(cls, data):
    kwargs = data.draw(kwargs_for(cls))
    builds_or_config_error(lambda: cls(**kwargs))


@settings(max_examples=100, deadline=None)
@given(
    name=st.one_of(SCALARS, st.just("fuzz-preset")),
    factory=st.one_of(
        SCALARS, st.just(DeviceConfig), st.just(lambda: "not a config")
    ),
)
def test_register_preset_builds_or_raises_config_error(name, factory):
    before = dict(presets._REGISTRY)
    try:
        builds_or_config_error(lambda: register_preset(name, factory))
        if name in presets._REGISTRY and name not in before:
            builds_or_config_error(lambda: get_preset(name))
    finally:
        presets._REGISTRY.clear()
        presets._REGISTRY.update(before)
