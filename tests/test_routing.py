import numpy as np
import pytest

from planegbp.engine import GbpConfig, GbpEngine
from planegbp.errors import CapacityError, ContractViolation
from planegbp.graph import (
    KEYFRAME,
    LINEAR,
    PLANE_HYPOTHESIS,
    PLANE_POINT,
    POINT,
    REPROJECTION,
    RIGID_BODY,
    FactorGraph,
    RemoveVariable,
)
from planegbp.routing import (
    PoolConfig,
    RoutedTransport,
    RoutingSimulator,
    legal_type_pairs,
)
from planegbp.geometry import CameraModel
from conftest import GENEROUS_POOLS, build_linear_graph, random_tree_edges

CAM = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)


def test_ten_legal_pairs_for_slam_kinds():
    # 4 variable kinds x 5 routed SLAM factor kinds, legal adjacency only:
    # priors are core-local
    pairs = legal_type_pairs(default_pools().max_factors)
    assert len(pairs) == 10


def default_pools(**kw):
    base = dict(
        max_variables={KEYFRAME: 8, POINT: 64, PLANE_HYPOTHESIS: 8, RIGID_BODY: 8},
        max_factors={REPROJECTION: 256, PLANE_POINT: 64, "plane_prediction": 8,
                     "rigid_plane_prediction": 8, "combined_rigid_reprojection": 64},
        max_edges_per_variable=128,
    )
    base.update(kw)
    return PoolConfig(**base)


def ba_graph(n_kf=2, n_pts=4):
    g = FactorGraph(camera=CAM)
    kfs = [g.add_variable(KEYFRAME, np.zeros(6)) for _ in range(n_kf)]
    pts = [g.add_variable(POINT, np.array([0, 0, 3.0])) for _ in range(n_pts)]
    for kf in kfs:
        for p in pts:
            g.add_factor(REPROJECTION, (kf, p), np.array([320.0, 240.0]), 2.0)
    return g, kfs, pts


def test_zero_maximum_pool_has_no_slots():
    pools = default_pools()
    pools.max_variables[RIGID_BODY] = 0
    sim = RoutingSimulator(pools)
    g = FactorGraph(camera=CAM)
    g.add_variable(RIGID_BODY, np.zeros(6))
    with pytest.raises(CapacityError, match="rigid_body"):
        sim.follow(g.journal)


@pytest.mark.parametrize("table, kind", [("max_factors", "rigid_reprojection"),
                                         ("max_variables", "landmark")])
def test_pool_for_unknown_kind_is_refused(table, kind):
    pools = default_pools()
    getattr(pools, table)[kind] = 8
    with pytest.raises(ContractViolation, match=kind):
        RoutingSimulator(pools)


def test_capacity_error_names_pool():
    pools = default_pools()
    pools.max_variables[KEYFRAME] = 1
    sim = RoutingSimulator(pools)
    g, _, _ = ba_graph(n_kf=2)
    with pytest.raises(CapacityError, match="keyframe"):
        sim.follow(g.journal)


def test_empty_graph_empty_matrices():
    sim = RoutingSimulator(default_pools())
    sim.follow(FactorGraph(camera=CAM).journal)
    assert sim.routing_entry_count() == 0
    assert sim.slot_conservation_ok()


def test_pairwise_factor_creates_two_entries():
    g, kfs, pts = ba_graph(n_kf=1, n_pts=1)
    sim = RoutingSimulator(default_pools())
    sim.follow(g.journal)
    assert sim.routing_entry_count() == 2


@pytest.mark.parametrize("seed", range(3))
def test_entry_count_equals_sum_of_arities(seed):
    r = np.random.default_rng(seed)
    g, kfs, pts = ba_graph(n_kf=int(r.integers(2, 5)), n_pts=int(r.integers(3, 9)))
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 1.0]))
    for p in pts[: int(r.integers(1, len(pts)))]:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    sim = RoutingSimulator(default_pools())
    sim.follow(g.journal)
    expected = sum(f.arity for f in g.factors.values())
    assert sim.routing_entry_count() == expected


def routing_tables(sim):
    """Copies of every slot table of the simulator."""
    return ([dict(p.slot) for p in [*sim.factor_pools.values(), *sim.var_pools.values()]]
            + [p.route.tobytes() for p in sim.factor_pools.values()]
            + [p.edges.tobytes() for p in sim.var_pools.values()]
            + [dict(sim.routing_nodes)])


def test_a_refused_factor_leaves_the_tables_as_before_it():
    # Three reprojections on one point, at an edge limit of 2: the third is
    # refused before any write, and a retry refuses it again without applying
    # the events before it a second time.
    g, _, pts = ba_graph(n_kf=3, n_pts=1)
    sim = RoutingSimulator(default_pools(max_edges_per_variable=2))
    ref = RoutingSimulator(default_pools(max_edges_per_variable=2))
    ref.follow(g.journal[:-1])
    for _ in range(2):
        with pytest.raises(CapacityError, match=f"variable {pts[0]} exceeds max edges"):
            sim.follow(g.journal)
        assert routing_tables(sim) == routing_tables(ref)
        assert sim.routing_entry_count() == 4 and sim.slot_conservation_ok()
        assert sim.journal_mark == len(g.journal) - 1


@pytest.mark.parametrize("routed", [True, False])
def test_removing_a_routed_or_unbound_variable_is_refused(routed):
    g, _, pts = ba_graph(n_kf=1, n_pts=1)
    sim = RoutingSimulator(default_pools())
    sim.follow(g.journal)
    before = routing_tables(sim)
    vid, why = (pts[0], "still routed") if routed else (max(g.variables) + 1, "was not bound")
    with pytest.raises(ContractViolation, match=f"variable {vid} {why}"):
        sim.apply_edit([RemoveVariable(vid)])
    assert routing_tables(sim) == before and sim.slot_conservation_ok()
    assert sim.journal_mark == len(g.journal)


def test_add_then_remove_restores_matrices():
    g, kfs, pts = ba_graph()
    sim = RoutingSimulator(default_pools())
    sim.follow(g.journal)
    before = routing_tables(sim)
    fid = g.add_factor(REPROJECTION, (kfs[0], pts[0]), np.zeros(2), 2.0)
    g.remove_factor(fid)
    sim.follow(g.journal)
    assert routing_tables(sim) == before
    assert sim.slot_conservation_ok()


def test_comm_pattern_hash_constant_across_edits(rng):
    g, kfs, pts = ba_graph(n_kf=3, n_pts=10)
    sim = RoutingSimulator(default_pools())
    sim.follow(g.journal)
    h0 = sim.comm_pattern_hash()
    live_factors = list(g.factors)
    for step in range(1000):
        if rng.random() < 0.5 and live_factors:
            victim = live_factors.pop(int(rng.integers(len(live_factors))))
            g.remove_factor(victim)
        else:
            kf = kfs[int(rng.integers(len(kfs)))]
            p = pts[int(rng.integers(len(pts)))]
            live_factors.append(
                g.add_factor(REPROJECTION, (kf, p), np.zeros(2), 2.0)
            )
        sim.follow(g.journal)
        assert sim.comm_pattern_hash() == h0
    assert sim.slot_conservation_ok()


def test_replace_variables_updates_entries_not_pattern():
    g, kfs, pts = ba_graph(n_kf=2, n_pts=4)
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
    for p in pts:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    sim = RoutingSimulator(default_pools())
    sim.follow(g.journal)
    h0 = sim.comm_pattern_hash()
    conv = {plane: np.array([0, 0, 3.0])}
    conv.update({p: np.array([0, 0, 3.0]) for p in pts})
    g.replace_with_rigid_body(plane, pts, conv)
    sim.follow(g.journal)
    assert sim.comm_pattern_hash() == h0
    expected = sum(f.arity for f in g.factors.values())
    assert sim.routing_entry_count() == expected
    assert sim.slot_conservation_ok()


def test_edit_that_adds_a_routing_node_is_a_pattern_violation(monkeypatch):
    g, kfs, pts = ba_graph(n_kf=1, n_pts=2)
    sim = RoutingSimulator(default_pools())
    sim.follow(g.journal)
    apply_one = sim._apply_one

    def growing(event):
        apply_one(event)
        sim.routing_nodes[(POINT, "extra")] = 0

    monkeypatch.setattr(sim, "_apply_one", growing)
    g.add_factor(REPROJECTION, (kfs[0], pts[0]), np.zeros(2), 2.0)
    with pytest.raises(ContractViolation, match="communication pattern"):
        sim.follow(g.journal)


def routed_twins(g, pools, cfg=GbpConfig(damping=0.0, dropout=0.0)):
    """(simulator, routed engine on g, direct engine on a replay of g)."""
    sim = RoutingSimulator(pools)
    routed = GbpEngine(g, cfg, transport=RoutedTransport(sim))
    return sim, routed, GbpEngine(FactorGraph.replay(g.journal, CAM), cfg)


def test_stale_slot_is_integrity_fault():
    g, kfs, pts = ba_graph(n_kf=1, n_pts=1)
    sim, routed, _ = routed_twins(g, default_pools())
    # forcibly free the variable slot behind the routing entry
    sim.var_pools[POINT].release(pts[0])
    with pytest.raises(ContractViolation, match="freed slot"):
        routed.on_graph_edit()


def test_missing_entry_and_unbound_factor_are_integrity_faults():
    g, kfs, pts = ba_graph(n_kf=1, n_pts=1)
    sim, routed, _ = routed_twins(g, default_pools())
    pool = sim.factor_pools[REPROJECTION]
    fid = next(iter(g.factors))
    pool.route[pool.slot[fid], 1] = -1
    with pytest.raises(ContractViolation, match="no routing entry"):
        routed.on_graph_edit()
    pool.release(fid)
    with pytest.raises(ContractViolation, match="not bound"):
        routed.on_graph_edit()


def test_linear_factor_without_linear_pool_is_capacity_error(rng):
    g = build_linear_graph(rng, 3, [(0, 1), (1, 2)])
    with pytest.raises(CapacityError, match="linear"):
        routed_twins(g, default_pools())


def test_misrouted_entry_changes_beliefs():
    # the routed engine delivers along the routing matrices only: pointing one
    # live entry at another live variable's slot changes what it computes
    g = FactorGraph(camera=CAM)
    kfs = [g.add_variable(KEYFRAME, np.zeros(6)) for _ in range(2)]
    pts = [g.add_variable(POINT, np.array([0.2 * i, -0.1 * i, 3.0 + 0.5 * i]))
           for i in range(3)]
    for kf in kfs:
        for p in pts:
            g.add_factor(REPROJECTION, (kf, p), np.array([320.0, 240.0]), 2.0)
    sim, routed, direct = routed_twins(g, default_pools())

    def same_beliefs():
        for eng in (routed, direct):
            eng.iterate()
            eng.sync_graph()
        return all(np.array_equal(g.variables[v].belief.lam,
                                  direct.graph.variables[v].belief.lam)
                   for v in g.variables)

    assert same_beliefs()
    pool = sim.factor_pools[REPROJECTION]
    fid = min(g.factors)
    assert g.factors[fid].adjacency[1] != pts[2]
    pool.route[pool.slot[fid], 1, 1] = sim.var_pools[POINT].slot[pts[2]]
    routed.on_graph_edit()
    assert not same_beliefs()


def test_routed_equals_direct_with_dynamic_edits(rng):
    g = build_linear_graph(rng, 10, random_tree_edges(rng, 10) + [(0, 9)])
    sim, routed, direct = routed_twins(g, GENEROUS_POOLS,
                                       GbpConfig(damping=0.3, dropout=0.5, seed=4))
    g_ref = direct.graph

    for step in range(30):
        rep_a = routed.iterate()
        rep_b = direct.iterate()
        assert rep_a.__dict__ == rep_b.__dict__
        if step % 5 == 4:
            # one edit plan, applied identically to both twins
            rr = np.random.default_rng([7, step])
            ids = sorted(g.factors)
            remove = step % 10 == 4 and len(ids) > 3
            victim = ids[int(rr.integers(len(ids)))] if remove else None
            a, b = 0, int(rr.integers(1, 10))
            m = g.variables[a].dim + g.variables[b].dim
            A = rr.normal(size=(m, m))
            z = rr.normal(size=m)
            for graph, eng in ((g, routed), (g_ref, direct)):
                if remove:
                    graph.remove_factor(victim)
                else:
                    graph.add_factor(LINEAR, (a, b), z, np.ones(m),
                                     payload={"A": A})
                eng.on_graph_edit()
    assert sim.slot_conservation_ok()


def test_hop_count_is_twice_direct_deliveries(rng):
    g, kfs, pts = ba_graph(n_kf=2, n_pts=5)
    sim, eng, _ = routed_twins(g, default_pools())
    eng.iterate()
    report = sim.cost_report()[0]
    # 10 factors * arity 2, delivered in both phases
    direct_deliveries = 2 * sum(f.arity for f in g.factors.values())
    assert report["deliveries"] == direct_deliveries
    assert report["hops"] == 2 * direct_deliveries
    assert report["n_routing_nodes"] == 10
    assert report["max_router_load"] > 0


def test_empty_sweep_zero_cost():
    sim, eng, _ = routed_twins(FactorGraph(camera=CAM), default_pools(), GbpConfig())
    eng.iterate()
    assert sim.cost_report()[0]["hops"] == 0


def test_balanced_load_within_factor_of_mean(rng):
    g, kfs, pts = ba_graph(n_kf=3, n_pts=12)
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
    for p in pts:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    sim, eng, _ = routed_twins(g, default_pools())
    eng.iterate()
    loads = [n for n in sim.sweeps[0]["router_load"].values() if n > 0]
    assert max(loads) <= 4 * (sum(loads) / len(loads))
