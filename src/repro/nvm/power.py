"""Power-failure injection.

A :class:`PowerDomain` groups everything that fails together (a machine's
DRAM, its NIC caches, …).  Injecting a failure calls ``on_power_failure`` on
every registered component; durable devices keep their contents, volatile
ones lose them.  Tests and the gFLUSH ablation benchmark use this to verify
that data ACKed *without* gFLUSH can be lost while gFLUSHed data survives.
"""

from __future__ import annotations

from typing import List, Protocol

__all__ = ["PowerDomain", "Volatile"]


class Volatile(Protocol):
    """Anything that reacts to losing power."""

    def on_power_failure(self) -> None: ...


class PowerDomain:
    """A set of components that lose power together."""

    def __init__(self, name: str = "host") -> None:
        self.name = name
        self.components: List[Volatile] = []
        self.failures = 0

    def register(self, component: Volatile) -> None:
        if not hasattr(component, "on_power_failure"):
            raise TypeError(f"{component!r} has no on_power_failure()")
        self.components.append(component)

    def fail(self) -> None:
        """Cut power: every component handles the loss; durable ones no-op."""
        self.failures += 1
        for component in self.components:
            component.on_power_failure()
