"""String-keyed registry of replication backends.

Backends register themselves at import time with :func:`register` (used
as a class decorator); consumers resolve them by name:

    from repro import backend

    spec = backend.get("hyperloop")
    group = backend.create("hyperloop", client, replicas, slots=64)
    backend.names()   # ["fanout", "hyperloop", "naive", ...]

Construction keyword arguments are backend-specific: anything accepted by
the backend's config dataclass (``slots``, ``region_size``,
``client_mode``, the naive baseline's ``mode``, …) plus ``name=`` for the
group's display name, or a ready-made ``config=`` object.  A third-party
backend subclasses :class:`~repro.backend.base.GroupBase` — the contract:
it declares ``config_cls``, its replica bounds (``min_replicas`` /
``max_replicas``) and the ``primitives`` it serves as class attributes —
and calls :func:`register`; every experiment, benchmark and example then
reaches it via ``--backend <name>`` /
:class:`~repro.cluster.ScenarioConfig`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Type

from ..host import Host
from .base import GroupBase

__all__ = ["BackendSpec", "register", "get", "create", "names", "specs"]

#: Modules whose import registers the in-tree backends.  Imported lazily
#: on first lookup so the registry module itself stays dependency-free.
_BUILTIN_MODULES = (
    "repro.core.group",
    "repro.baseline.naive",
    "repro.core.fanout",
)

_REGISTRY: Dict[str, "BackendSpec"] = {}
_builtins_loaded = False


@dataclass
class BackendSpec:
    """One registered backend: its group class and a one-line description.

    The class declares the rest: ``config_cls``, ``min_replicas`` /
    ``max_replicas`` and ``primitives``."""

    name: str
    group_cls: Type[GroupBase]
    description: str = ""

    def create(self, client_host: Host, replica_hosts: Sequence[Host],
               config=None, name: str = "", **kwargs) -> GroupBase:
        """Instantiate the backend over concrete hosts.

        ``kwargs`` populate the backend's config dataclass; alternatively
        pass a ready ``config=`` object (the two are mutually exclusive).
        The group's constructor checks the replica count.
        """
        if config is not None and kwargs:
            raise TypeError(
                f"backend {self.name!r}: pass either config= or field "
                f"kwargs, not both ({sorted(kwargs)})")
        if config is None:
            config = self.group_cls.config_cls(**kwargs)
        return self.group_cls(client_host, replica_hosts, config, name=name)


def register(name: str, *, description: str = ""
             ) -> Callable[[Type[GroupBase]], Type[GroupBase]]:
    """Class decorator registering a :class:`GroupBase` subclass under
    ``name``.

    Re-registration under the same name replaces the previous spec (latest
    wins), so plugins may shadow built-ins deliberately.
    """

    def decorate(group_cls: Type[GroupBase]) -> Type[GroupBase]:
        _REGISTRY[name] = BackendSpec(
            name=name, group_cls=group_cls,
            description=description or (group_cls.__doc__ or "").strip()
            .splitlines()[0])
        return group_cls

    return decorate


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def get(name: str) -> BackendSpec:
    """Resolve a backend spec by registry name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(
            f"unknown replication backend {name!r}; registered: {known}"
        ) from None


def create(name: str, client_host: Host, replica_hosts: Sequence[Host],
           config=None, group_name: str = "", **kwargs) -> GroupBase:
    """Shorthand for ``get(name).create(...)``."""
    return get(name).create(client_host, replica_hosts, config=config,
                            name=group_name, **kwargs)


def names() -> List[str]:
    """Sorted names of all registered backends."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def specs() -> List[BackendSpec]:
    """All registered backend specs, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in names()]
