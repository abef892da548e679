"""Cluster configuration for the simulator engine.

The SimMR engine simulates the Hadoop *job master*: it only needs to know
how many map slots and reduce slots the cluster offers in aggregate (paper
Section III: "It is a non-goal to simulate details of the TaskTracker
nodes").  Node-level structure lives in :mod:`repro.hadoop`, the
fine-grained substrate used for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClusterConfig"]


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Aggregate slot capacity of the simulated cluster.

    The paper's testbed is 64 worker nodes with 1 map and 1 reduce slot
    each (Section IV-B), i.e. ``ClusterConfig(64, 64)`` — the default.
    """

    map_slots: int = 64
    reduce_slots: int = 64

    def __post_init__(self) -> None:
        if self.map_slots < 1:
            raise ValueError(f"map_slots must be >= 1, got {self.map_slots}")
        if self.reduce_slots < 0:
            raise ValueError(f"reduce_slots must be >= 0, got {self.reduce_slots}")

    @classmethod
    def per_node(
        cls, nodes: int, map_slots_per_node: int = 1, reduce_slots_per_node: int = 1
    ) -> "ClusterConfig":
        """Build an aggregate config from a node count and per-node slots."""
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        return cls(nodes * map_slots_per_node, nodes * reduce_slots_per_node)

    @property
    def total_slots(self) -> int:
        return self.map_slots + self.reduce_slots
