"""Pre-posting is a control-plane detail: the ring bytes it leaves are not.

Every descriptor a group build writes ends up as bytes in registered host
memory that peers patch by DMA, so "the build got cheaper" must mean "the
same bytes, produced with less work".  The digests below were recorded
with the one-``post_send``-per-descriptor build and pin every ring of every
QP — SQ and RQ bytes plus ``(head, tail)`` — for the three slot machines.
"""

import hashlib
import itertools

import pytest

from repro.core.fanout import FanoutGroup
from repro.core.group import GroupConfig, HyperLoopGroup
from repro.core.multiclient import SharedChain
from repro.host import Cluster
from repro.rdma.verbs import CompletionQueue

CONFIG = dict(slots=16, region_size=1 << 20)


def ring_digest(cluster):
    """SHA-256 over every QP's SQ+RQ ring bytes and indices, in host and
    QP creation order."""
    digest = hashlib.sha256()
    for host in cluster.hosts.values():
        for qp in host.nic.qps.values():
            for queue in (qp.sq, qp.rq):
                digest.update(host.memory.read(queue.ring.address,
                                               queue.ring.size))
                digest.update(b"%d,%d;" % (queue.head, queue.tail))
    return digest.hexdigest()


def build_hyperloop(cluster):
    client = cluster.add_host("client")
    return HyperLoopGroup(client, cluster.add_hosts(3, prefix="replica"),
                          GroupConfig(**CONFIG), name="g")


def build_fanout(cluster):
    client = cluster.add_host("client")
    return FanoutGroup(client, cluster.add_hosts(3, prefix="replica"),
                       GroupConfig(**CONFIG), name="g")


def build_shared(cluster):
    owner = cluster.add_host("owner")
    chain = SharedChain(owner, cluster.add_hosts(3, prefix="replica"),
                        GroupConfig(**CONFIG), name="g", max_clients=2)
    # The head's SRQ is only reachable from a QP once a client attaches.
    chain.attach_client(owner)
    chain.attach_client(cluster.add_host("client1"))
    return chain


BUILDS = [
    (build_hyperloop,
     "03cc55f0c43a227f20b4bcfe4e89bd05b871606d340b271e4676c9afa5918d8f"),
    (build_fanout,
     "348d760c5ac56c03abdf4eadce98cfd84ae9099989058aeb922b9cbcdfd64ae5"),
    (build_shared,
     "ef2bb30e67ef27e65940da0feaa4d16708b64580008c6713e8795d3b527c9e23"),
]


@pytest.mark.parametrize("build, recorded", BUILDS)
def test_ring_bytes_after_build_match_the_per_descriptor_build(
        monkeypatch, build, recorded):
    # WAIT descriptors embed CQ ids, which come from a process-wide counter.
    monkeypatch.setattr(CompletionQueue, "_ids", itertools.count(1))
    cluster = Cluster(seed=1234)
    build(cluster)
    assert ring_digest(cluster) == recorded

