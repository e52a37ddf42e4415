"""Lazy package namespaces (PEP 562).

A package ``__init__`` that only re-exports its submodules' names
declares them in one table instead of importing every submodule::

    __getattr__, __dir__, __all__ = lazy_namespace(__name__, {
        "dcf": ("DcfConfig", "DcfStation"),
        "medium": ("Medium",),
    })

``from repro.mac import DcfStation`` then loads ``repro.mac.dcf`` on
first use, and a process loads only the modules it touches.
``from repro.mac import *``, ``dir()`` and submodule attributes
(``repro.mac.dcf``) behave as if every submodule had been imported.

A registry module registers its own built-in entries at import (power
policies, traffic kinds, scenarios), so whichever name first loads it
sees the registry complete.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_namespace(
    package: str,
    exports: Mapping[str, Sequence[str]],
    eager: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps each submodule to the names the package re-exports
    from it; ``eager`` names the package defines itself, for
    ``__all__``.  A resolved name is cached on the package, so each is
    looked up once.  Any other submodule resolves on attribute access.

    No exported name may equal a submodule's name: importing that
    submodule would rebind the package attribute to the module.
    """
    module = sys.modules[package]
    origin = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        qualified = f"{package}.{origin.get(name, name)}"
        try:
            value = importlib.import_module(qualified)
        except ModuleNotFoundError as exc:
            if exc.name != qualified:
                raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if name in origin:
            value = getattr(value, name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(origin))

    return __getattr__, __dir__, sorted([*origin, *eager])
