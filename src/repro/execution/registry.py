"""The backend registry: execution strategies selected by name.

Mirrors the sampler registry (:mod:`repro.api.registry`): the CLI's
``--backend`` flag, the examples, and tests all build backends through

    make_backend("pool", jobs=4, window=8)

so adding a transport (the TCP broker arrived this way) never touches the
call sites — they enumerate :func:`available_backends` and go through the
one factory.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

from .base import SampleBackend

Factory = Callable[..., SampleBackend]


@dataclass(frozen=True)
class BackendEntry:
    """One registered execution backend."""

    name: str
    summary: str
    factory: Factory


_REGISTRY: dict[str, BackendEntry] = {}

#: The built-in backends' modules, imported on first use: the pool loads
#: ``multiprocessing`` and the broker the whole distributed package, which
#: a serial run never needs.
_BUILTIN = {"serial": "serial", "pool": "pool", "broker": "brokered"}


def _load_builtin(key: str) -> None:
    if key not in _REGISTRY and key in _BUILTIN:
        importlib.import_module(f"{__package__}.{_BUILTIN[key]}")


def register_backend(
    name: str, *, summary: str = ""
) -> Callable[[Factory], Factory]:
    """Decorator registering a backend factory under ``name``."""

    def decorate(factory: Factory) -> Factory:
        key = name.strip().lower()
        if key in _REGISTRY:
            raise ValueError(f"backend {name!r} is already registered")
        _REGISTRY[key] = BackendEntry(name=key, summary=summary, factory=factory)
        return factory

    return decorate


def available_backends() -> list[str]:
    """Canonical names of every registered backend, sorted."""
    for key in _BUILTIN:
        _load_builtin(key)
    return sorted(_REGISTRY)


def get_backend_entry(name: str) -> BackendEntry:
    """Look up a registry entry; raises ``ValueError`` for unknown names."""
    key = name.strip().lower()
    _load_builtin(key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def make_backend(name: str, **kwargs) -> SampleBackend:
    """Build a backend by name; ``kwargs`` go to the backend constructor."""
    return get_backend_entry(name).factory(**kwargs)
