"""Hypothesis strategies drawn from the spec domain table.

Every field declared with :func:`repro._domain.domain` gets a strategy
for values its domain accepts (:func:`valid`) and one for values it
rejects (:func:`invalid`).  :func:`valid_kwargs` draws a whole valid
keyword set for a class, cross-field rules included, so a generated
spec is one ``cls(**kwargs)`` away.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Callable, Dict, Mapping

from hypothesis import strategies as st

from repro._domain import Domain
from repro.analytic.models import PsmParams, TcpParams, UnapParams
from repro.build.spec import FleetSpec, InterfaceSpec, NodeSpec, TrafficSpec, WorldSpec
from repro.exp.spec import CampaignSpec

#: Every class whose fields carry domains.
CLASSES = (
    InterfaceSpec, TrafficSpec, NodeSpec, FleetSpec, WorldSpec,
    PsmParams, TcpParams, UnapParams, CampaignSpec,
)

#: Magnitude cap for unbounded draws, so derived quantities stay finite.
BIG = 10**6

#: Valid values of domains that do not name their element type.
UNTYPED: Dict[tuple, st.SearchStrategy] = {
    (NodeSpec, "interfaces"): st.lists(
        st.sampled_from([InterfaceSpec("wlan"), InterfaceSpec("bluetooth")]),
        min_size=1,
    ).map(tuple),
    # A repeated seed is rejected (one run key, simulated twice).
    (CampaignSpec, "seeds"): st.lists(st.integers(0, BIG), min_size=1, unique=True),
}

#: Cross-field rules a valid keyword set must also satisfy.
CROSS_FIELD: Dict[type, Callable[[Mapping[str, Any]], bool]] = {
    FleetSpec: lambda kw: kw["deployment"] != "grid"
    or kw["grid_rows"] >= 1 <= kw["grid_cols"],
    UnapParams: lambda kw: kw["rts_threshold_bytes"] <= kw["packet_bytes"],
    WorldSpec: lambda kw: kw["power_policy"] is None or kw["delivery"] == "psm",
}


def domains(cls: type) -> Dict[str, Domain]:
    """``cls``'s fields that have a domain, in declaration order."""
    return {f.name: f.metadata["domain"] for f in fields(cls) if "domain" in f.metadata}


def _choices(dom: Domain) -> tuple:
    return tuple(dom.choices() if callable(dom.choices) else dom.choices)


def _int_bounds(dom: Domain) -> tuple:
    lo = -BIG if dom.lo is None else math.floor(dom.lo) + 1 if dom.lo_open else math.ceil(dom.lo)
    hi = BIG if dom.hi is None else math.ceil(dom.hi) - 1 if dom.hi_open else math.floor(dom.hi)
    return lo, hi


def valid(dom: Domain, key: tuple = ()) -> st.SearchStrategy:
    """Values ``dom`` accepts (``key`` is ``(class, field)`` for untyped domains)."""
    if key in UNTYPED:
        values = UNTYPED[key]
    elif dom.choices is not None:
        values = st.sampled_from(_choices(dom))
    elif dom.type is int:
        values = st.integers(*_int_bounds(dom))
    elif dom.type is float:
        values = st.floats(
            min_value=-BIG if dom.lo is None else dom.lo,
            max_value=BIG if dom.hi is None else dom.hi,
            exclude_min=dom.lo is not None and dom.lo_open,
            exclude_max=dom.hi is not None and dom.hi_open,
        )
    elif dom.type is bool:
        values = st.booleans()
    else:
        values = st.text(min_size=1 if dom.nonempty else 0)
    return st.none() | values if dom.optional else values


def invalid(dom: Domain) -> st.SearchStrategy:
    """Values ``dom`` rejects."""
    bad = [] if dom.optional else [st.none()]
    if dom.choices is not None:
        bad.append(st.text().filter(lambda text: text not in _choices(dom)))
    elif dom.type in (int, float):
        bad += [st.just(math.nan), st.booleans(), st.just("1")]
        if dom.finite:
            bad.append(st.sampled_from([math.inf, -math.inf]))
        if dom.lo is not None:
            bad.append(st.floats(-2.0 * BIG, dom.lo, exclude_max=not dom.lo_open))
        if dom.hi is not None:
            bad.append(st.floats(dom.hi, 2.0 * BIG, exclude_min=not dom.hi_open))
        if dom.type is int:
            lo, hi = _int_bounds(dom)
            bad.append(st.integers(lo, hi - 1).map(lambda n: n + 0.5))
    elif dom.type is str:
        bad += [st.integers(), st.just("")] if dom.nonempty else [st.integers()]
    elif dom.type is bool:
        bad += [st.integers(), st.just("yes")]
    else:
        bad += [st.just(()), st.just(7)]
    return st.one_of(bad)


def valid_kwargs(cls: type) -> st.SearchStrategy:
    """Keyword sets ``cls`` accepts: one valid draw per field with a domain."""
    kwargs = st.fixed_dictionaries(
        {name: valid(dom, (cls, name)) for name, dom in domains(cls).items()}
    )
    rule = CROSS_FIELD.get(cls)
    return kwargs if rule is None else kwargs.filter(rule)
