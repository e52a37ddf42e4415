"""The spec domain table: generated valid specs construct unchanged, and
one invalid field fails validation naming ``Class.field``."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._domain import Domain, SpecError, coerce
from repro.analytic.models import PsmParams, TcpParams, UnapParams
from repro.build.spec import FleetSpec, InterfaceSpec, TrafficSpec
from tests.domain_strategies import CLASSES, domains, invalid, valid_kwargs

#: Fields ``__post_init__`` derives from others (a grid fleet's size).
DERIVED = {FleetSpec: ("n_aps", "arena_depth_m")}

#: Classes whose ``describe()`` is a keyword set that rebuilds them.
REBUILT = (InterfaceSpec, TrafficSpec, FleetSpec, PsmParams, TcpParams, UnapParams)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_valid_draws_construct_and_describe_round_trips(cls, data):
    kwargs = data.draw(valid_kwargs(cls))
    spec = cls(**kwargs)
    for name, value in kwargs.items():
        if name not in DERIVED.get(cls, ()):
            assert getattr(spec, name) is value
    described = spec.describe()
    assert json.loads(json.dumps(described, allow_nan=False)) == described
    if cls in REBUILT:
        assert cls(**described) == spec


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in CLASSES for name in domains(cls)],
    ids=lambda value: getattr(value, "__name__", value),
)
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_invalid_field_raises_spec_error_naming_it(cls, name, data):
    kwargs = data.draw(valid_kwargs(cls))
    kwargs[name] = data.draw(invalid(domains(cls)[name]))
    with pytest.raises(SpecError, match=f"^{re.escape(cls.__name__)}\\.{name} must be "):
        cls(**kwargs)


def test_spec_error_is_a_value_error():
    with pytest.raises(ValueError, match=r"^X\.n must be an integer >= 1; got 0$"):
        Domain(int, ge=1).check("X.n", 0)


def test_coerce_parses_text_for_the_field():
    assert coerce(PsmParams, "n_stations", "2") == 2
    assert coerce(PsmParams, "direction", "uplink") == "uplink"
    with pytest.raises(SpecError, match=r"PsmParams.rate_bps must be finite and > 0; got inf"):
        coerce(PsmParams, "rate_bps", "inf")


def test_coerce_rejects_unknown_names_listing_the_known_ones():
    with pytest.raises(SpecError, match="PsmParams has no field 'bogus'; known: n_stations, "):
        coerce(PsmParams, "bogus", "1")
