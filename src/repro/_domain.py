"""Field domains: declare each spec field's valid values once.

A dataclass field made by :func:`domain` carries a :class:`Domain` in
its metadata; :func:`validate` checks each such field, raises
:class:`SpecError` naming ``Class.field``, and converts nothing, so a
valid spec describes itself byte for byte as given.  A rule relating
two fields stays next to its class and raises :class:`SpecError` too.
This module imports nothing from :mod:`repro`: every layer can use it.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, field, fields
from typing import Any, Callable, Dict, Tuple


class SpecError(ValueError):
    """An input outside its declared domain, or a broken cross-field rule."""


class Domain:
    """The values one field or argument accepts.

    ``type`` is ``int``, ``float``, ``str``, ``bool`` or ``None`` (any).
    A numeric domain rejects bools and NaN, takes an int as a float and
    an integral float as an int.  ``ge``/``gt``/``le``/``lt`` are closed
    and open bounds, and ``finite`` rejects ±inf.  ``choices`` is a tuple
    or a zero-argument registry getter, called at each check.
    ``optional`` admits ``None``; ``nonempty`` rejects ``""`` and ``()``.
    """

    def __init__(
        self, type=None, *, ge=None, gt=None, le=None, lt=None,
        finite=True, choices=None, optional=False, nonempty=False,
    ) -> None:
        self.type, self.choices, self.finite = type, choices, finite
        self.optional, self.nonempty = optional, nonempty
        self.lo, self.lo_open = (gt, True) if gt is not None else (ge, False)
        self.hi, self.hi_open = (lt, True) if lt is not None else (le, False)
        if choices is not None:
            static = not callable(choices)

            def test(value: Any) -> bool:
                return value in (choices if static else choices())

            text = ""
        elif type in (int, float):
            test, text = self._numeric()
        else:
            kinds = type or object
            text = {str: "a string", bool: "a bool", None: "any value"}[type]
            if nonempty:
                text = "non-empty" if type is None else f"a non-empty {text[2:]}"

            def test(value: Any) -> bool:
                try:
                    return isinstance(value, kinds) and (not nonempty or len(value) > 0)
                except TypeError:  # unsized
                    return False

        if optional:
            required = test

            def test(value: Any) -> bool:
                return value is None or required(value)

        self.test: Callable[[Any], bool] = test
        self._text = text + (" or None" if optional else "")

    def _numeric(self) -> Tuple[Callable[[Any], bool], str]:
        integral, finite = self.type is int, self.finite
        lo, lo_open, hi, hi_open = self.lo, self.lo_open, self.hi, self.hi_open
        if lo is not None and hi is not None:
            left, right = "(" if lo_open else "[", ")" if hi_open else "]"
            bounds = [f"in {left}{lo:g}, {hi:g}{right}"]
        elif lo is not None:
            bounds = [f"{'>' if lo_open else '>='} {lo:g}"]
        else:
            bounds = [] if hi is None else [f"{'<' if hi_open else '<='} {hi:g}"]
        if integral:
            text = " ".join(["an integer", *bounds])
        else:
            text = " and ".join((["finite"] if finite else []) + bounds) or "a number"
        if lo is None:
            lo, lo_open = -math.inf, finite
        if hi is None:
            hi, hi_open = math.inf, finite

        def test(value: Any) -> bool:
            # Every comparison with NaN is false, so NaN fails the bounds.
            return (
                isinstance(value, (int, float))
                and value.__class__ is not bool
                and (lo < value if lo_open else lo <= value)
                and (value < hi if hi_open else value <= hi)
                and (not integral or isinstance(value, int) or value.is_integer())
            )

        return test, text

    def check(self, label: str, value: Any) -> None:
        """Raise :class:`SpecError` naming ``label`` unless ``value`` fits."""
        if self.test(value):
            return
        text, choices = self._text, self.choices
        if choices is not None:
            names = tuple(choices() if callable(choices) else choices)
            text = f"one of {names}{text}"
        raise SpecError(f"{label} must be {text}; got {value!r}")


def domain(type=None, *, default=MISSING, default_factory=MISSING, **rules) -> Any:
    """A dataclass field whose metadata holds ``Domain(type, **rules)``."""
    metadata = {"domain": Domain(type, **rules)}
    return field(default=default, default_factory=default_factory, metadata=metadata)


#: Per class, ``(name, test, domain)`` of each field with a domain.
_PLANS: Dict[type, Tuple[Tuple[str, Callable[[Any], bool], Domain], ...]] = {}


def _plan(cls: type) -> Tuple[Tuple[str, Callable[[Any], bool], Domain], ...]:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = tuple(
            (f.name, f.metadata["domain"].test, f.metadata["domain"])
            for f in fields(cls)
            if "domain" in f.metadata
        )
    return plan


def validate(obj: Any) -> None:
    """Check each field of ``obj`` that has a domain; never converts."""
    for name, test, dom in _PLANS.get(obj.__class__) or _plan(obj.__class__):
        value = getattr(obj, name)
        if not test(value):
            dom.check(f"{obj.__class__.__name__}.{name}", value)


def domain_values(obj: Any) -> Dict[str, Any]:
    """The fields of ``obj`` that have a domain, in declaration order."""
    return {name: getattr(obj, name) for name, _test, _dom in _plan(obj.__class__)}


def coerce(cls: type, name: str, text: str) -> Any:
    """Parse ``--set name=text`` for a field of ``cls`` and check it.

    A string field takes ``text`` as is.  Otherwise ``text`` parses as
    JSON, else as a float (so ``inf`` and ``nan`` meet the domain), else
    stays a string.  An unknown ``name`` raises, listing the known ones.
    """
    known = {f.name: f.metadata.get("domain") for f in fields(cls) if f.init}
    if name not in known:
        raise SpecError(f"{cls.__name__} has no field {name!r}; known: {', '.join(known)}")
    dom, value = known[name], text
    if dom is None or dom.type is not str:
        try:
            value = json.loads(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                pass
    if dom is not None:
        dom.check(f"{cls.__name__}.{name}", value)
    return value
