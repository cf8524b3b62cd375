"""Network fabric connecting simulated RNICs.

A single non-blocking switch model, adequate for the paper's testbed (a rack
of machines behind one ToR): every NIC has one full-duplex port; a message
experiences

* **serialization** at the sender's egress (``size / bandwidth``, queued
  FIFO behind earlier messages from the same port),
* fixed **propagation/switching delay**, and
* delivery into the receiving NIC's ingress pipeline.

Loopback transfers (both QPs on the same NIC — HyperLoop's local-copy and
local-CAS queue pairs) never touch the fabric; the NIC handles them with a
small internal latency, so they are modelled in :mod:`repro.rdma.nic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.units import gbps_to_bytes_per_ns, us

__all__ = ["FabricParams", "Fabric", "Port"]


@dataclass(slots=True)
class FabricParams:
    """Link characteristics, defaulting to the paper's 56 Gbps ConnectX-3."""

    bandwidth_gbps: float = 56.0
    propagation_ns: int = us(1)          # ToR switching + wire, one way.
    per_message_overhead_bytes: int = 66  # Headers: Eth + IB transport.

    @property
    def bytes_per_ns(self) -> float:
        return gbps_to_bytes_per_ns(self.bandwidth_gbps)

    def serialization_ns(self, size_bytes: int) -> int:
        wire_bytes = size_bytes + self.per_message_overhead_bytes
        return max(1, int(wire_bytes / self.bytes_per_ns))


class Port:
    """One NIC's attachment point: an egress queue with FIFO serialization."""

    __slots__ = ("fabric", "name", "_egress_free_at", "bytes_sent",
                 "messages_sent", "_deliver")

    def __init__(self, fabric: "Fabric", name: str) -> None:
        self.fabric = fabric
        self.name = name
        self._egress_free_at = 0
        self.bytes_sent = 0
        self.messages_sent = 0
        self._deliver: Optional[Callable[[object], None]] = None

    def attach(self, deliver: Callable[[object], None]) -> None:
        """Register the NIC-side ingress callback."""
        self._deliver = deliver

    def transmit(self, dest: "Port", size_bytes: int, message: object) -> int:
        """Queue a message for transmission; returns its delivery time.

        Delivery calls the destination port's ingress callback.  The sender's
        egress is busy until serialization finishes; back-to-back messages
        queue behind each other, which is what throttles Figure 9's
        throughput at large message sizes.
        """
        if self._deliver is None or dest._deliver is None:
            raise RuntimeError("both ports must be attached before transmit")
        sim = self.fabric.sim
        params = self.fabric.params
        start = max(sim.now, self._egress_free_at)
        done_serializing = start + params.serialization_ns(size_bytes)
        self._egress_free_at = done_serializing
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        arrival = done_serializing + params.propagation_ns
        fault = self.fabric.link_fault(self.name, dest.name)
        if fault is not None:
            until_ns, mode = fault
            if mode == "drop" or until_ns is None:
                # Partition / hard link cut: the message serializes onto
                # the wire and dies at the cut.  The sender's transport
                # never learns — pending ops hang until a failure
                # detector aborts them, exactly like a real RC QP whose
                # retransmits all vanish.
                self.fabric.messages_dropped += 1
                return arrival
            # Link flap: frames are paused at the far side of the flap
            # and delivered once the link heals, in transmit order.
            arrival = max(arrival, until_ns + params.propagation_ns)
        sim.call_at(arrival, partial(dest._deliver, message))
        return arrival


class Fabric:
    """The switch: a registry of ports plus shared link parameters."""

    __slots__ = ("sim", "params", "ports", "_link_faults",
                 "messages_dropped")

    def __init__(self, sim: Simulator, params: Optional[FabricParams] = None) -> None:
        self.sim = sim
        self.params = params or FabricParams()
        self.ports: Dict[str, Port] = {}
        # Fault-injection state: (src, dst) -> (until_ns | None, mode).
        # ``drop`` loses crossing messages (partition); ``defer`` parks
        # them until the expiry (link flap).  ``None`` expiry means "until
        # heal()" and is only valid for ``drop``.
        self._link_faults: Dict[Tuple[str, str], Tuple[Optional[int], str]] = {}
        self.messages_dropped = 0

    def create_port(self, name: str) -> Port:
        if name in self.ports:
            raise ValueError(f"duplicate port name {name!r}")
        port = Port(self, name)
        self.ports[name] = port
        return port

    # ------------------------------------------------------------------
    # Fault injection (repro.faults link events)
    # ------------------------------------------------------------------
    def sever(self, a: str, b: str, until_ns: Optional[int] = None,
              mode: str = "drop") -> None:
        """Cut the ``a`` <-> ``b`` link (both directions).

        ``mode="drop"`` loses every crossing message until ``until_ns``
        (or until :meth:`heal` when ``until_ns`` is ``None``) — the
        partition model.  ``mode="defer"`` parks crossing messages and
        delivers them when the link comes back — the flap model, which
        loses nothing but adds up to the flap's duration in latency.
        """
        if mode not in ("drop", "defer"):
            raise ValueError(f"unknown sever mode {mode!r}")
        if mode == "defer" and until_ns is None:
            raise ValueError("defer mode needs an expiry (until_ns)")
        if until_ns is not None and until_ns < self.sim.now:
            raise ValueError(
                f"sever expiry {until_ns} is in the past (now {self.sim.now})")
        self._link_faults[(a, b)] = (until_ns, mode)
        self._link_faults[(b, a)] = (until_ns, mode)

    def heal(self, a: str, b: str) -> None:
        """Restore the ``a`` <-> ``b`` link immediately."""
        self._link_faults.pop((a, b), None)
        self._link_faults.pop((b, a), None)

    def link_fault(self, src: str, dst: str) -> Optional[Tuple[Optional[int], str]]:
        """The active fault on ``src -> dst``, or ``None``.

        Expired entries are reaped lazily here, so a flap needs no
        heal-side bookkeeping process.
        """
        fault = self._link_faults.get((src, dst))
        if fault is None:
            return None
        until_ns, _mode = fault
        if until_ns is not None and self.sim.now >= until_ns:
            del self._link_faults[(src, dst)]
            return None
        return fault
