"""Array-backed node state for datacenter-scale fleets.

A Python object per node is fine for four machines and hopeless for
ten thousand.  :class:`NodeStore` keeps the whole fleet's state as a
handful of NumPy arrays indexed by node id, so every per-tick
operation (demand updates, churn sampling, draw accounting,
per-chassis aggregation) is one vectorized pass instead of ten
thousand attribute lookups.

The store is deliberately dumb: it holds state and provides aggregation
helpers; *policy* (stale-demand decay, outage handling, allocation)
lives in :mod:`repro.fleet.hierarchy` and :mod:`repro.fleet.cluster`.

Node lifecycle, as the **coordinator** sees it (the store tracks the
coordinator's view -- every decision must survive on information the
coordinator can actually lose):

``LIVE``
    reporting demand normally.
``STALE``
    stopped reporting; its last demand is held, then decayed -- a stale
    estimate is trusted less the older it gets.
``DARK``
    stale past the trust horizon; accounted at the floor only.
``CRASHED``
    confirmed down (zero draw, zero demand) until its restart arrives.
``FINISHED``
    retired for good (workload complete / scale-in); never returns.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Mapping

import numpy as np

from repro.fleet.hierarchy import Topology


class NodeState(IntEnum):
    """Coordinator-side node lifecycle states."""

    LIVE = 0
    STALE = 1
    DARK = 2
    CRASHED = 3
    FINISHED = 4


class NodeStore:
    """Columnar per-node state for one fleet.

    All arrays are indexed by node id (0..n-1); node ids map onto the
    chassis/rack tree through :attr:`topology`.
    """

    #: Arrays captured by :meth:`state_dict` (checkpoint payload).
    _STATE_ARRAYS = (
        "true_demand_w",
        "reported_demand_w",
        "grant_w",
        "applied_w",
        "draw_w",
        "state",
        "last_report_s",
        "stale_until_s",
        "restart_at_s",
        "crashes",
        "energy_j",
        "up_ticks",
    )

    def __init__(self, topology: Topology, floor_w: float):
        n = topology.n_nodes
        self.topology = topology
        self.floor_w = float(floor_w)
        #: What the node would draw at full speed right now (ground truth).
        self.true_demand_w = np.zeros(n)
        #: The coordinator's last-known demand estimate per node.
        self.reported_demand_w = np.zeros(n)
        #: Coordinator-intended power cap per node.
        self.grant_w = np.zeros(n)
        #: Node-enforced cap (grant raises land one tick late; cuts are
        #: immediate -- the cap must never be generous in transition).
        self.applied_w = np.zeros(n)
        #: Measured draw for the current tick.
        self.draw_w = np.zeros(n)
        self.state = np.full(n, int(NodeState.LIVE), dtype=np.int8)
        #: Simulated time of the node's last demand report.
        self.last_report_s = np.zeros(n)
        #: Until when the node's outbound telemetry is lost (sim s).
        self.stale_until_s = np.zeros(n)
        #: Scheduled restart time for crashed nodes (inf = none yet).
        self.restart_at_s = np.full(n, np.inf)
        self.crashes = np.zeros(n, dtype=np.int64)
        #: Accumulated energy actually drawn (J).
        self.energy_j = np.zeros(n)
        #: Ticks the node spent running (for per-node uptime).
        self.up_ticks = np.zeros(n, dtype=np.int64)

    # -- masks -----------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    def running_mask(self) -> np.ndarray:
        """Nodes that are executing work (and therefore drawing power)."""
        return self.state <= int(NodeState.DARK)

    def accountable_mask(self) -> np.ndarray:
        """Nodes the budget tree must reserve power for."""
        return self.state <= int(NodeState.DARK)

    def live_mask(self) -> np.ndarray:
        """Nodes reporting normally."""
        return self.state == int(NodeState.LIVE)

    def counts(self) -> Mapping[str, int]:
        """Node count per lifecycle state (for reports/telemetry)."""
        return {
            state.name.lower(): int((self.state == int(state)).sum())
            for state in NodeState
        }

    # -- aggregation -----------------------------------------------------------

    def per_chassis(self, values: np.ndarray) -> np.ndarray:
        """Sum a per-node array up to chassis level."""
        return np.bincount(
            self.topology.chassis_of_node,
            weights=values,
            minlength=self.topology.n_chassis,
        )

    def per_rack_from_chassis(self, values: np.ndarray) -> np.ndarray:
        """Sum a per-chassis array up to rack level."""
        return np.bincount(
            self.topology.rack_of_chassis,
            weights=values,
            minlength=self.topology.racks,
        )

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Copy of every mutable array (checkpoint payload)."""
        return {name: getattr(self, name).copy()
                for name in self._STATE_ARRAYS}

    def load_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore arrays captured by :meth:`state_dict`."""
        for name in self._STATE_ARRAYS:
            getattr(self, name)[:] = state[name]
