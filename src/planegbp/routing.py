"""Fixed-communication-pattern message transport simulation.

Models inference hardware where cores exchange messages only along a
precompiled channel set: graph nodes occupy fixed-size slot pools per node
type, and every factor-graph edge is realised as an entry in the routing
node that mediates that (variable-kind, factor-kind) pair. Editing the graph
only rewrites routing matrices and slot occupancy; the channel set (the
communication pattern: pool capacities, routing-node pairs and the per-variable
edge limit) never changes after construction, and `apply_edit` checks that.

The simulation is functional, not cycle-accurate. When the engine compiles,
`RoutedTransport` resolves every routed edge through the routing matrices
(never through graph adjacency) and writes the resulting bank rows into the
engine's batches, which gather, scatter beliefs and send variable-to-factor
messages along them only; so a wrong routing entry shows up as a wrong
inference result. Each sweep's cost is read off the routing tables: every
entry carries one factor-to-variable and one variable-to-factor message of
2 hops each, reported as hops, deliveries and per-routing-node loads.

Unary factors (priors) are core-local -- they are fused with their variable
and need no transport. Combined reprojection factors share the routing type
of their constituents: the adjacency signature and slot shapes are
identical, so the routing layer does not distinguish them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractViolation
from .graph import (
    COMBINED_RIGID_REPROJECTION,
    ANY,
    FACTOR_KINDS,
    LINEAR,
    PRIOR,
    RIGID_REPROJECTION,
    VARIABLE_DIMS,
    AddFactor,
    AddVariable,
    FactorGraph,
    RemoveFactor,
    RemoveVariable,
    ReplaceVariables,
)

# Routing group per factor kind; None means core-local (no transport).
ROUTED_GROUP = {kind: kind for kind in FACTOR_KINDS}
ROUTED_GROUP[COMBINED_RIGID_REPROJECTION] = RIGID_REPROJECTION
ROUTED_GROUP[PRIOR] = None


def legal_type_pairs(factor_kinds=None) -> set:
    """(variable-kind, routing-group) pairs derivable from the arity tables."""
    kinds = factor_kinds if factor_kinds is not None else [
        k for k in FACTOR_KINDS if k != LINEAR
    ]
    pairs = set()
    for kind in kinds:
        group = ROUTED_GROUP.get(kind)
        if group is None:
            continue
        for vkind in FACTOR_KINDS[kind].signature:
            # generic slots may touch any variable kind
            pairs.update((v, group) for v in (VARIABLE_DIMS if vkind is ANY else (vkind,)))
    return pairs


@dataclass
class PoolConfig:
    max_variables: dict
    max_factors: dict
    max_edges_per_variable: int = 64
    include_linear: bool = False

    def __post_init__(self):
        for name, table in (("variable", self.max_variables), ("factor", self.max_factors)):
            for kind, cap in table.items():
                if cap < 0:
                    raise ContractViolation(f"{name} pool {kind}: capacity must be >= 0")

    @staticmethod
    def generous_for(graph: FactorGraph, headroom: float = 2.0) -> "PoolConfig":
        census = graph.snapshot_census()
        max_v = {k: max(4, int(np.ceil(c * headroom))) for k, c in census["variables"].items()}
        max_f = {
            k: max(4, int(np.ceil(c * headroom)))
            for k, c in census["factors"].items()
            if ROUTED_GROUP.get(k) is not None
        }
        has_linear = census["factors"].get(LINEAR, 0) > 0
        max_edges = 8
        for v in graph.variables.values():
            max_edges = max(max_edges, len(v.factor_ids))
        return PoolConfig(max_v, max_f, int(max_edges * headroom) + 4, has_linear)


class RoutingNode:
    """Mediator for one (variable-kind, factor-group) pair."""

    def __init__(self, pair):
        self.pair = pair
        # (factor-type, factor-slot, position) -> (variable-kind, variable-slot)
        self.matrix: dict = {}
        self.delivered = 0

    def add_entry(self, key, target):
        if key in self.matrix:
            raise ContractViolation(f"routing entry {key} already present in {self.pair}")
        self.matrix[key] = target

    def remove_entry(self, key):
        del self.matrix[key]


class _Pool:
    def __init__(self, kind: str, capacity: int):
        self.kind = kind
        self.capacity = capacity
        self.free = list(range(capacity - 1, -1, -1))
        self.bound: dict[int, int] = {}  # node id -> slot
        self.of_slot: dict[int, int] = {}

    def allocate(self, node_id: int) -> int:
        if not self.free:
            raise CapacityError(
                f"pool '{self.kind}' exhausted (capacity {self.capacity})"
            )
        slot = self.free.pop()
        self.bound[node_id] = slot
        self.of_slot[slot] = node_id
        return slot

    def release(self, node_id: int):
        slot = self.bound.pop(node_id)
        del self.of_slot[slot]
        self.free.append(slot)


class RoutingSimulator:
    def __init__(self, pools: PoolConfig):
        self.pools_config = pools
        self.var_pools = {k: _Pool(k, pools.max_variables.get(k, 0)) for k in VARIABLE_DIMS}
        factor_kinds = [k for k, g in ROUTED_GROUP.items() if g is not None]
        if not pools.include_linear:
            factor_kinds = [k for k in factor_kinds if k != LINEAR]
        self.factor_pools = {
            k: _Pool(k, pools.max_factors.get(k, 0)) for k in factor_kinds
        }
        pair_kinds = factor_kinds
        self.routing_nodes = {
            pair: RoutingNode(pair) for pair in sorted(legal_type_pairs(pair_kinds))
        }
        # Fast shard index: (factor kind, slot, position) -> routing pair
        self._route_index: dict = {}
        self._edge_counts: dict = {}
        self.graph: FactorGraph | None = None
        self.sweeps: list[dict] = []

    # -- communication pattern -------------------------------------------------

    def comm_pattern_hash(self) -> str:
        """Hash of the live pool capacities, routing-node pairs and edge limit."""
        desc = (
            sorted((k, p.capacity) for k, p in self.var_pools.items()),
            sorted((k, p.capacity) for k, p in self.factor_pools.items()),
            sorted(self.routing_nodes),
            self.pools_config.max_edges_per_variable,
        )
        return hashlib.sha256(repr(desc).encode()).hexdigest()

    @property
    def n_routing_nodes(self) -> int:
        return len(self.routing_nodes)

    # -- binding ----------------------------------------------------------------

    def bind_graph(self, graph: FactorGraph):
        self.graph = graph
        for vid in sorted(graph.variables):
            self._bind_variable(vid, graph.variables[vid].kind)
        for fid in sorted(graph.factors):
            fac = graph.factors[fid]
            self._bind_factor(fid, fac.kind, fac.adjacency)

    def _bind_variable(self, vid: int, kind: str):
        self.var_pools[kind].allocate(vid)
        self._edge_counts[vid] = 0

    def _release_variable(self, vid: int, kind: str):
        if self._edge_counts.get(vid, 0) != 0:
            raise ContractViolation(f"variable {vid} still routed")
        self.var_pools[kind].release(vid)
        self._edge_counts.pop(vid, None)

    def _bind_factor(self, fid: int, kind: str, adjacency):
        group = ROUTED_GROUP.get(kind)
        if group is None:
            return
        pool = self.factor_pools[kind]
        slot = pool.allocate(fid)
        for pos, vid in enumerate(adjacency):
            vkind = self._kind_of_bound_variable(vid)
            pair = (vkind, group)
            node = self.routing_nodes.get(pair)
            if node is None:
                raise ContractViolation(f"no routing node for pair {pair}")
            vslot = self.var_pools[vkind].bound[vid]
            key = (kind, slot, pos)
            node.add_entry(key, (vkind, vslot))
            self._route_index[key] = pair
            self._edge_counts[vid] += 1
            if self._edge_counts[vid] > self.pools_config.max_edges_per_variable:
                raise CapacityError(
                    f"variable {vid} exceeds max edges "
                    f"({self.pools_config.max_edges_per_variable})"
                )

    def _kind_of_bound_variable(self, vid: int) -> str:
        for kind, pool in self.var_pools.items():
            if vid in pool.bound:
                return kind
        raise ContractViolation(f"variable {vid} is not bound to any slot")

    def apply_edit(self, events):
        """Update routing matrices for journal events; the pattern is fixed."""
        before = self.comm_pattern_hash()
        for event in events:
            self._apply_one(event)
        if self.comm_pattern_hash() != before:
            raise ContractViolation("communication pattern mutated by an edit")

    def _apply_one(self, event):
        if isinstance(event, AddVariable):
            self._bind_variable(event.id, event.kind)
        elif isinstance(event, RemoveVariable):
            kind = None
            for k, pool in self.var_pools.items():
                if event.id in pool.bound:
                    kind = k
                    break
            if kind is None:
                raise ContractViolation(f"variable {event.id} was not bound")
            self._release_variable(event.id, kind)
        elif isinstance(event, AddFactor):
            self._bind_factor(event.id, event.kind, event.adjacency)
        elif isinstance(event, RemoveFactor):
            # the factor is already gone from the graph; reconstruct its route
            self._release_factor_by_id(event.id)
        elif isinstance(event, ReplaceVariables):
            for sub in event.events:
                self._apply_one(sub)
        else:
            raise ContractViolation(f"unknown edit event {event!r}")

    def _release_factor_by_id(self, fid: int):
        for kind, pool in self.factor_pools.items():
            if fid in pool.bound:
                slot = pool.bound[fid]
                pos = 0
                while (kind, slot, pos) in self._route_index:
                    key = (kind, slot, pos)
                    pair = self._route_index.pop(key)
                    vkind, vslot = self.routing_nodes[pair].matrix[key]
                    vid = self.var_pools[vkind].of_slot[vslot]
                    self._edge_counts[vid] -= 1
                    self.routing_nodes[pair].remove_entry(key)
                    pos += 1
                pool.release(fid)
                return
        # unrouted kinds (priors) were never bound; nothing to release

    # -- routing lookups ---------------------------------------------------------

    def route(self, factor_kind: str, fid: int, pos: int):
        """Resolve one edge through the routing matrices.

        Returns (pair, variable id). Raises on stale entries; this is the
        integrity fault surface for the simulator tests.
        """
        pool = self.factor_pools[factor_kind]
        if fid not in pool.bound:
            raise ContractViolation(f"factor {fid} not bound to a slot")
        slot = pool.bound[fid]
        key = (factor_kind, slot, pos)
        pair = self._route_index.get(key)
        if pair is None:
            raise ContractViolation(f"no routing entry for {key}")
        vkind, vslot = self.routing_nodes[pair].matrix[key]
        if vslot not in self.var_pools[vkind].of_slot:
            raise ContractViolation(f"routing entry {key} references freed slot")
        return pair, self.var_pools[vkind].of_slot[vslot]

    def routing_entry_count(self) -> int:
        return sum(len(n.matrix) for n in self.routing_nodes.values())

    def slot_conservation_ok(self) -> bool:
        pools = list(self.var_pools.values()) + list(self.factor_pools.values())
        return all(len(p.bound) + len(p.free) == p.capacity for p in pools)

    # -- transport + cost ----------------------------------------------------------

    def make_transport(self) -> "RoutedTransport":
        return RoutedTransport(self)

    def begin_sweep(self):
        """Record one sweep's cost from the routing tables: each entry carries
        one message each way, 2 deliveries and 4 hops."""
        loads = {pair: 2 * len(node.matrix) for pair, node in self.routing_nodes.items()}
        for pair, n in loads.items():
            self.routing_nodes[pair].delivered += n
        deliveries = sum(loads.values())
        self.sweeps.append({
            "sweep": len(self.sweeps),
            "deliveries": deliveries,
            "hops": 2 * deliveries,
            "router_load": loads,
        })

    def cost_report(self) -> list:
        out = []
        for rec in self.sweeps:
            loads = rec["router_load"]
            out.append({
                "sweep": rec["sweep"],
                "hops": rec["hops"],
                "deliveries": rec["deliveries"],
                "max_router_load": max(loads.values()) if loads else 0,
                "n_routing_nodes": self.n_routing_nodes,
            })
        return out


def cost_model(sim: RoutingSimulator, sweep: int) -> dict:
    """Per-sweep transport cost; hops are twice the direct delivery count."""
    report = sim.cost_report()
    if not 0 <= sweep < len(report):
        raise ContractViolation(f"no sweep {sweep} recorded")
    return report[sweep]


class RoutedTransport:
    """Engine transport whose delivery rows come from the routing matrices."""

    def __init__(self, sim: RoutingSimulator):
        self.sim = sim

    def attach(self, engine):
        """Write each routed batch's rows, per position, from its routes."""
        for b in engine.batches:
            if ROUTED_GROUP.get(b.kind) is None:
                continue  # core-local factors deliver directly
            for pos, bank in enumerate(b.banks):
                b.rows[pos] = bank.rows_of([self.sim.route(b.kind, fid, pos)[1]
                                            for fid in b.ids])

    def begin_sweep(self):
        self.sim.begin_sweep()
