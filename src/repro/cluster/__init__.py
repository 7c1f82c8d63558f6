"""Sharded CQ cluster: partitioned shards behind a scatter/gather router.

The paper's differential refresh model distributes naturally: a delta
batch is relevant only to the CQs whose footprints it touches
(Section 5.2), so scattering each consolidated batch to exactly the
shards owning those footprints divides refresh work while preserving
exactness. With ``replicas > 0`` every placement group also keeps
lockstep replica stores on distinct hosts, and a failed primary is
promoted within the refresh cycle that detects it. See DESIGN.md §12
for the protocol, failover walk-through, and recovery matrix.
"""

from repro.cluster.health import FaultInjector, HealthMonitor
from repro.cluster.local import LocalBackend
from repro.cluster.proc import ProcessBackend
from repro.cluster.ring import HashRing, Partition
from repro.cluster.router import ClusterRouter, GCReport
from repro.cluster.shard import ClusterShard, ShardHost, TableDecl

__all__ = [
    "ClusterRouter",
    "ClusterShard",
    "FaultInjector",
    "GCReport",
    "HashRing",
    "HealthMonitor",
    "LocalBackend",
    "Partition",
    "ProcessBackend",
    "ShardHost",
    "TableDecl",
]
