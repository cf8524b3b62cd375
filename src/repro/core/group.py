"""HyperLoop group construction and the NIC-offloaded data path.

A HyperLoop group (Figure 3) is a chain::

    client ──▶ replica 0 ──▶ replica 1 ──▶ … ──▶ replica g-1 ──▶ client (ACK)

The replica-side half of the chain — memory carve-outs, QPs and the
pre-posted cyclic WQE pattern — is a :class:`~repro.core.chain.ReplicaEngine`
per replica, wired as :func:`chain_wiring` describes.  This module holds the
client-side handle: :class:`HyperLoopGroup` builds the chain once, then
turns each submitted :class:`~repro.backend.ops.OpSpec` into one metadata
SEND (plus payload WRITE / flush READ) so the replicas' NICs execute the
whole operation without touching their CPUs.

The shared client-side machinery (identity, the ACK hub, the submit
loop, submission pipeline, ACK table, region accessors, abort/close)
comes from :class:`~repro.backend.base.GroupBase`; this class contributes
only what is chain-specific: the engines' wiring, the chain wiring and
the metadata message.  Completions run through the shared
:func:`~repro.backend.base.ack_loop`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..backend.base import GroupBase, open_ack_hub
from ..backend.ops import OpResult
from ..backend.registry import register
from ..host import Host
from ..rdma.wqe import WQE_SIZE
from .chain import ReplicaEngine, Ring, Wiring, wire_chain
from .metadata import (
    ClientLayout,
    OpSpec,
    build_metadata,
    max_staging_len,
    meta_len,
    result_map_len,
    staging_len,
)
from .readpath import ClientReadPath

__all__ = ["GroupConfig", "ReplicaEngine", "HyperLoopGroup", "OpResult",
           "chain_wiring"]


@dataclass
class GroupConfig:
    """Tunables for one HyperLoop group."""

    region_size: int = 16 << 20      # Replicated region (log + db + locks).
    slots: int = 512                 # Pipeline depth S (max ops in flight).
    client_mode: str = "polling"     # "polling" | "event" ACK detection.
    meta_build_base_ns: int = 300    # Client CPU: metadata construction.
    meta_build_per_hop_ns: int = 120
    post_ns: int = 100               # Client CPU per posted work request.
    poll_overhead_ns: int = 150      # Poll-mode CQ check cost.
    event_wakeup_service_ns: int = 1000  # Event-mode post-wakeup handling.


def chain_wiring(group_size: int, hop: int) -> Wiring:
    """Replica ``hop``: the local op gated on the upstream RECV, then a
    ``down`` ring whose three placeholders become forward-data (WRITE),
    forward-flush (0-byte READ) and forward-metadata (SEND, or the tail's
    WRITE_WITH_IMM ACK).  The RECV patches the four placeholders one SGE
    each and stages the downstream entries and the result map."""
    return Wiring(
        rings=(Ring("down", 3),),
        scatter=(("local", 0, WQE_SIZE), ("down", 0, WQE_SIZE),
                 ("down", WQE_SIZE, WQE_SIZE),
                 ("down", 2 * WQE_SIZE, WQE_SIZE),
                 ("staging", 0, staging_len(group_size, hop))),
        staging=max_staging_len(group_size), out="down")


@register("hyperloop",
          description="NIC-offloaded chain replication (the paper's design)")
class HyperLoopGroup(GroupBase):
    """Client-side handle: build the chain once, then issue group ops.

    This is the "HyperLoop network primitive library" of Figure 3 — storage
    applications call :meth:`gwrite`, :meth:`gcas`, :meth:`gmemcpy` and
    :meth:`gflush` (Table 1) and wait on the returned events.
    """

    config_cls = GroupConfig
    _prefix = "group"

    def __init__(self, client_host: Host, replica_hosts: Sequence[Host],
                 config: Optional[GroupConfig] = None, name: str = ""):
        super().__init__(client_host, replica_hosts, config, name)
        config, g = self.config, self.group_size
        self._build_ns = (config.meta_build_base_ns
                          + config.meta_build_per_hop_ns * g)
        self.replicas = [ReplicaEngine(host, f"{self.name}.r{hop}", config,
                                       chain_wiring(g, hop))
                         for hop, host in enumerate(replica_hosts)]
        self.layouts = [replica.layout() for replica in self.replicas]
        memory = client_host.memory
        self.region = memory.allocate(config.region_size,
                                      f"{self.name}.cregion")
        self.md_stride = meta_len(g, 0)
        self.md_buf = memory.allocate(self.md_stride * config.slots,
                                      f"{self.name}.md")
        open_ack_hub(self, client_host, result_map_len(g), ["ackqp"],
                     out_sq_slots=4 * config.slots + 16)
        self.client_layout = ClientLayout(
            ack_addr=self.ack_buf.address, ack_rkey=self.ack_mr.rkey,
            ack_stride=self.ack_stride, slots=config.slots)
        self.qp_out.connect(self.replicas[0].qp_up)
        wire_chain(self.replicas, self.ack_qps[0])
        for replica in self.replicas:
            replica.arm()
        self._start_client(config.client_mode == "polling",
                           config.event_wakeup_service_ns)
        self.read_path = ClientReadPath(client_host, self.replicas, self.name)

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _metadata(self, op: OpSpec, slot: int) -> bytes:
        return build_metadata(op, self.layouts, self.client_layout, slot)
