"""Kernel and RDMA classes carry no instance ``__dict__``.

The event loop and the NIC model touch these objects on every simulated
step; a class without ``__slots__`` (or a slotted class under a base that
has none) grows a per-instance dict: more memory per object and slower
attribute access in the innermost loops.  Exceptions and enums are exempt.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil

import pytest

import repro.rdma
import repro.sim


def _classes():
    for package in (repro.sim, repro.rdma):
        for info in pkgutil.walk_packages(package.__path__,
                                          package.__name__ + "."):
            module = importlib.import_module(info.name)
            for name, cls in sorted(vars(module).items()):
                if inspect.isclass(cls) and cls.__module__ == module.__name__ \
                        and not issubclass(cls, (BaseException, enum.Enum)):
                    yield f"{info.name}.{name}", cls


_CLASSES = dict(_classes())


def test_the_walk_finds_the_hot_classes():
    assert {"repro.sim.engine.Event", "repro.sim.cpu.Thread",
            "repro.rdma.driver.WorkQueue", "repro.rdma.nic.RNIC"} \
        <= set(_CLASSES)


@pytest.mark.parametrize("name", sorted(_CLASSES))
def test_no_instance_dict(name):
    assert _CLASSES[name].__dictoffset__ == 0, \
        f"{name} instances have a __dict__: declare __slots__"
