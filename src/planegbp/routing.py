"""Fixed-communication-pattern message transport simulation.

Models inference hardware where cores exchange messages only along a
precompiled channel set: graph nodes occupy fixed-size slot pools per node
kind, and every factor-graph edge is realised as an entry in the routing
node that mediates that (variable-kind, factor-kind) pair.

All routing state lives in slot tables. Each pool maps a bound node id to
its slot (`slot`) and each slot to its node id (`node`, -1 when free). Each
factor pool's routing matrix holds, per slot and adjacency position, the
(variable-kind index, variable slot) that the edge is routed to (-1 when
none); each variable pool counts the entries routed to each of its slots,
and each routing node counts its entries. An edit only rewrites these
tables; the channel set (the communication pattern: pool capacities,
routing-node pairs and the per-variable edge limit) never changes after
construction, and `apply_edit` checks that.

The simulator follows the graph journal itself: `follow` applies the events
appended since its last call, once each; a compression or merge arrives as
the primitive events it consists of. The simulation is functional, not
cycle-accurate. Whenever the engine compiles, `RoutedTransport.attach`
brings the tables up to the journal, then resolves every routed batch's
rows through the routing matrices (never through graph adjacency), with one
gather per batch and position, and writes them into the engine's batches,
which gather, scatter beliefs and send variable-to-factor messages along
them only; so a wrong routing entry shows up as a wrong inference result.
Each sweep's cost is read off the entry counts: every entry carries one
factor-to-variable and one variable-to-factor message of 2 hops each,
reported as hops, deliveries and per-routing-node loads.

A routed factor kind has a pool and routing nodes when the pool
configuration lists it; a factor of an unlisted routed kind is a
CapacityError, and a pool for a kind that is not a variable kind or a
routed factor kind is a ContractViolation. Unary factors (priors) are
core-local -- they are fused with their variable and need no transport.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractViolation
from .graph import (
    ANY,
    FACTOR_KINDS,
    LINEAR,
    PRIOR,
    VARIABLE_DIMS,
    AddFactor,
    AddVariable,
    FactorGraph,
    RemoveFactor,
    RemoveVariable,
)

# The routed factor kinds, in FACTOR_KINDS order; the others are core-local
# (no transport). A tuple, not a set: its order is the same in every process.
ROUTED = tuple(kind for kind in FACTOR_KINDS if kind != PRIOR)


def legal_type_pairs(factor_kinds=None) -> set:
    """(variable-kind, factor-kind) pairs derivable from the arity tables."""
    kinds = factor_kinds if factor_kinds is not None else [
        k for k in FACTOR_KINDS if k != LINEAR
    ]
    pairs = set()
    for kind in kinds:
        if kind not in ROUTED:
            continue
        for vkind in FACTOR_KINDS[kind].signature:
            # generic slots may touch any variable kind
            pairs.update((v, kind) for v in (VARIABLE_DIMS if vkind is ANY else (vkind,)))
    return pairs


@dataclass
class PoolConfig:
    max_variables: dict
    max_factors: dict
    max_edges_per_variable: int = 64

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
            if k in ROUTED
        }
        max_edges = 8
        for v in graph.variables.values():
            max_edges = max(max_edges, len(v.factor_ids))
        return PoolConfig(max_v, max_f, int(max_edges * headroom) + 4)


class _Pool:
    """The slots of one node kind."""

    def __init__(self, kind: str, capacity: int):
        self.kind = kind
        self.capacity = capacity
        self.free = list(range(capacity - 1, -1, -1))
        self.slot: dict[int, int] = {}  # node id -> slot
        self.node = np.full(capacity, -1, dtype=int)  # slot -> node id, -1 when free

    def allocate(self, node_id: int) -> int:
        if not self.free:
            raise CapacityError(
                f"pool '{self.kind}' exhausted (capacity {self.capacity})"
            )
        slot = self.free.pop()
        self.slot[node_id] = slot
        self.node[slot] = node_id
        return slot

    def release(self, node_id: int) -> int:
        slot = self.slot.pop(node_id)
        self.node[slot] = -1
        self.free.append(slot)
        return slot


class _VariablePool(_Pool):
    def __init__(self, kind: str, capacity: int, index: int):
        super().__init__(kind, capacity)
        self.index = index  # the variable-kind index routing entries name
        self.edges = np.zeros(capacity, dtype=int)  # routing entries per slot


class _FactorPool(_Pool):
    def __init__(self, kind: str, capacity: int):
        super().__init__(kind, capacity)
        # per slot and position: (variable-kind index, variable slot)
        arity = len(FACTOR_KINDS[kind].signature)
        self.route = np.full((capacity, arity, 2), -1, dtype=int)


class RoutingSimulator:
    def __init__(self, pools: PoolConfig):
        for name, table, known in (("variable", pools.max_variables, VARIABLE_DIMS),
                                   ("factor", pools.max_factors, ROUTED)):
            for kind in table:
                if kind not in known:
                    raise ContractViolation(f"{name} pool for unknown kind '{kind}'")
        self.pools_config = pools
        self.var_pools = {k: _VariablePool(k, pools.max_variables.get(k, 0), i)
                          for i, k in enumerate(VARIABLE_DIMS)}
        self._var_by_index = list(self.var_pools.values())
        self.factor_pools = {k: _FactorPool(k, cap) for k, cap in pools.max_factors.items()}
        # entry count per routing node
        self.routing_nodes = dict.fromkeys(sorted(legal_type_pairs(self.factor_pools)), 0)
        # the pool of each bound variable and factor
        self._variable_pool: dict[int, _VariablePool] = {}
        self._factor_pool: dict[int, _FactorPool] = {}
        self.journal_mark = 0  # journal events applied so far
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

    # -- following the journal ---------------------------------------------------

    def follow(self, journal):
        """Apply the journal's events since the last call."""
        self.apply_edit(journal[self.journal_mark:])
        self.journal_mark = len(journal)

    def apply_edit(self, events):
        """Update the slot tables for journal events; the pattern is fixed."""
        before = self.comm_pattern_hash()
        for event in events:
            self._apply_one(event)
        if self.comm_pattern_hash() != before:
            raise ContractViolation("communication pattern mutated by an edit")

    def _apply_one(self, event):
        if isinstance(event, AddVariable):
            pool = self.var_pools[event.kind]
            pool.allocate(event.id)
            self._variable_pool[event.id] = pool
        elif isinstance(event, RemoveVariable):
            pool = self._variable_pool.get(event.id)
            if pool is None:
                raise ContractViolation(f"variable {event.id} was not bound")
            if pool.edges[pool.slot[event.id]]:
                raise ContractViolation(f"variable {event.id} still routed")
            pool.release(event.id)
            del self._variable_pool[event.id]
        elif isinstance(event, AddFactor):
            self._bind_factor(event.id, event.kind, event.adjacency)
        elif isinstance(event, RemoveFactor):
            self._release_factor(event.id)
        else:
            raise ContractViolation(f"unknown edit event {event!r}")

    def _bind_factor(self, fid: int, kind: str, adjacency):
        if kind not in ROUTED:
            return
        pool = self.factor_pools.get(kind)
        if pool is None:
            raise CapacityError(f"no pool for routed factor kind '{kind}'")
        slot = pool.allocate(fid)
        self._factor_pool[fid] = pool
        for pos, vid in enumerate(adjacency):
            vpool = self._variable_pool.get(vid)
            if vpool is None:
                raise ContractViolation(f"variable {vid} is not bound to any slot")
            pair = (vpool.kind, kind)
            if pair not in self.routing_nodes:
                raise ContractViolation(f"no routing node for pair {pair}")
            vslot = vpool.slot[vid]
            pool.route[slot, pos] = vpool.index, vslot
            self.routing_nodes[pair] += 1
            vpool.edges[vslot] += 1
            if vpool.edges[vslot] > self.pools_config.max_edges_per_variable:
                raise CapacityError(
                    f"variable {vid} exceeds max edges "
                    f"({self.pools_config.max_edges_per_variable})"
                )

    def _release_factor(self, fid: int):
        pool = self._factor_pool.pop(fid, None)
        if pool is None:
            return  # unrouted kinds (priors) were never bound
        slot = pool.release(fid)
        for index, vslot in pool.route[slot]:
            if index >= 0:
                vpool = self._var_by_index[index]
                vpool.edges[vslot] -= 1
                self.routing_nodes[(vpool.kind, pool.kind)] -= 1
        pool.route[slot] = -1

    # -- routing lookups ---------------------------------------------------------

    def routed_variables(self, kind: str, fids, arity: int) -> np.ndarray:
        """(factor, position) ids of the variables that the factors `fids` of
        one kind are routed to: one gather through the routing matrix.

        Raises on an unbound factor, a missing entry or a freed slot; this is
        the integrity fault surface for the simulator tests.
        """
        pool = self.factor_pools[kind]
        slots = np.array([pool.slot.get(fid, -1) for fid in fids], dtype=int)
        if np.any(slots < 0):
            fid = fids[np.argmin(slots)]
            raise ContractViolation(f"{kind} factor {fid} not bound to a slot")
        index, vslot = np.moveaxis(pool.route[slots, :arity], -1, 0)
        if np.any(index < 0):
            raise ContractViolation(f"no routing entry for a {kind} factor")
        vids = np.empty_like(vslot)
        for vpool in self._var_by_index:
            at = index == vpool.index
            vids[at] = vpool.node[vslot[at]]
        if np.any(vids < 0):
            raise ContractViolation(f"a {kind} routing entry references freed slot")
        return vids

    def routing_entry_count(self) -> int:
        return sum(self.routing_nodes.values())

    def slot_conservation_ok(self) -> bool:
        pools = list(self.var_pools.values()) + list(self.factor_pools.values())
        return all(len(p.slot) + len(p.free) == p.capacity
                   and np.count_nonzero(p.node >= 0) == len(p.slot) for p in pools)

    # -- cost ------------------------------------------------------------------------

    def begin_sweep(self):
        """Record one sweep's cost from the routing tables: each entry carries
        one message each way, 2 deliveries and 4 hops."""
        loads = {pair: 2 * n for pair, n in self.routing_nodes.items()}
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


class RoutedTransport:
    """Engine transport whose delivery rows come from the routing matrices."""

    def __init__(self, sim: RoutingSimulator):
        self.sim = sim

    def attach(self, engine):
        """Bring the simulator up to the graph's journal, then write each
        routed batch's rows, per position, from its routes."""
        self.sim.follow(engine.graph.journal)
        for b in engine.batches:
            if b.kind not in ROUTED:
                continue  # core-local factors deliver directly
            vids = self.sim.routed_variables(b.kind, b.ids, b.arity)
            for pos, bank in enumerate(b.banks):
                b.rows[pos] = bank.rows_of(vids[:, pos])

    def begin_sweep(self):
        self.sim.begin_sweep()
