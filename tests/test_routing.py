import numpy as np
import pytest

from planegbp.engine import GbpConfig, GbpEngine
from planegbp.errors import CapacityError, ContractViolation
from planegbp.gaussians import GaussianInfo
from planegbp.graph import (
    KEYFRAME,
    LINEAR,
    PLANE_HYPOTHESIS,
    PLANE_POINT,
    POINT,
    REPROJECTION,
    RIGID_BODY,
    FactorGraph,
)
from planegbp.routing import (
    PoolConfig,
    RoutingNode,
    RoutingSimulator,
    cost_model,
    legal_type_pairs,
)
from planegbp.geometry import CameraModel
from conftest import build_linear_graph, random_tree_edges

CAM = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)


def test_ten_legal_pairs_for_slam_kinds():
    # 4 variable kinds x 7 factor kinds, legal adjacency only: priors are
    # core-local and combined factors share the rigid-reprojection type
    pairs = legal_type_pairs()
    assert len(pairs) == 10


def default_pools(**kw):
    base = dict(
        max_variables={KEYFRAME: 8, POINT: 64, PLANE_HYPOTHESIS: 8, RIGID_BODY: 8},
        max_factors={REPROJECTION: 256, PLANE_POINT: 64, "plane_prediction": 8,
                     "rigid_reprojection": 64, "rigid_plane_prediction": 8,
                     "combined_rigid_reprojection": 16},
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
        sim.bind_graph(g)


def test_capacity_error_names_pool():
    pools = default_pools()
    pools.max_variables[KEYFRAME] = 1
    sim = RoutingSimulator(pools)
    g, _, _ = ba_graph(n_kf=2)
    with pytest.raises(CapacityError, match="keyframe"):
        sim.bind_graph(g)


def test_empty_graph_empty_matrices():
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(FactorGraph(camera=CAM))
    assert sim.routing_entry_count() == 0
    assert sim.slot_conservation_ok()


def test_pairwise_factor_creates_two_entries():
    g, kfs, pts = ba_graph(n_kf=1, n_pts=1)
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    assert sim.routing_entry_count() == 2


@pytest.mark.parametrize("seed", range(3))
def test_entry_count_equals_sum_of_arities(seed):
    r = np.random.default_rng(seed)
    g, kfs, pts = ba_graph(n_kf=int(r.integers(2, 5)), n_pts=int(r.integers(3, 9)))
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 1.0]))
    for p in pts[: int(r.integers(1, len(pts)))]:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    expected = sum(f.arity for f in g.factors.values())
    assert sim.routing_entry_count() == expected


def test_add_then_remove_restores_matrices():
    g, kfs, pts = ba_graph()
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    before = {pair: dict(n.matrix) for pair, n in sim.routing_nodes.items()}
    mark = len(g.journal)
    fid = g.add_factor(REPROJECTION, (kfs[0], pts[0]), np.zeros(2), 2.0)
    g.remove_factor(fid)
    sim.apply_edit(g.events_since(mark))
    after = {pair: dict(n.matrix) for pair, n in sim.routing_nodes.items()}
    assert before == after
    assert sim.slot_conservation_ok()


def test_comm_pattern_hash_constant_across_edits(rng):
    g, kfs, pts = ba_graph(n_kf=3, n_pts=10)
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    h0 = sim.comm_pattern_hash()
    live_factors = list(g.factors)
    for step in range(1000):
        mark = len(g.journal)
        if rng.random() < 0.5 and live_factors:
            victim = live_factors.pop(int(rng.integers(len(live_factors))))
            g.remove_factor(victim)
        else:
            kf = kfs[int(rng.integers(len(kfs)))]
            p = pts[int(rng.integers(len(pts)))]
            live_factors.append(
                g.add_factor(REPROJECTION, (kf, p), np.zeros(2), 2.0)
            )
        sim.apply_edit(g.events_since(mark))
        assert sim.comm_pattern_hash() == h0
    assert sim.slot_conservation_ok()


def test_replace_variables_updates_entries_not_pattern():
    g, kfs, pts = ba_graph(n_kf=2, n_pts=4)
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
    for p in pts:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    h0 = sim.comm_pattern_hash()
    mark = len(g.journal)
    conv = {plane: np.array([0, 0, 3.0])}
    conv.update({p: np.array([0, 0, 3.0]) for p in pts})
    g.replace_with_rigid_body(plane, pts, conv)
    sim.apply_edit(g.events_since(mark))
    assert sim.comm_pattern_hash() == h0
    expected = sum(f.arity for f in g.factors.values())
    assert sim.routing_entry_count() == expected
    assert sim.slot_conservation_ok()


def test_edit_that_adds_a_routing_node_is_a_pattern_violation(monkeypatch):
    g, kfs, pts = ba_graph(n_kf=1, n_pts=2)
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    apply_one = sim._apply_one

    def growing(event):
        apply_one(event)
        sim.routing_nodes[(POINT, "extra")] = RoutingNode((POINT, "extra"))

    monkeypatch.setattr(sim, "_apply_one", growing)
    mark = len(g.journal)
    g.add_factor(REPROJECTION, (kfs[0], pts[0]), np.zeros(2), 2.0)
    with pytest.raises(ContractViolation, match="communication pattern"):
        sim.apply_edit(g.events_since(mark))


def test_stale_slot_is_integrity_fault():
    g, kfs, pts = ba_graph(n_kf=1, n_pts=1)
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    fid = next(iter(g.factors))
    # forcibly free the variable slot behind the routing entry
    sim.var_pools[POINT].release(pts[0])
    with pytest.raises(ContractViolation, match="freed slot"):
        sim.route(REPROJECTION, fid, 1)


def linear_pools(graph):
    cfg = PoolConfig.generous_for(graph)
    cfg.include_linear = True
    cfg.max_factors[LINEAR] = 4 * len(graph.factors) + 8
    return cfg


def test_routed_equals_direct_with_dynamic_edits(rng):
    g = build_linear_graph(rng, 10, random_tree_edges(rng, 10) + [(0, 9)])
    g_ref = FactorGraph.replay(g.journal)

    sim = RoutingSimulator(linear_pools(g))
    sim.bind_graph(g)
    routed = GbpEngine(g, GbpConfig(damping=0.3, dropout=0.5, seed=4),
                       transport=sim.make_transport())
    direct = GbpEngine(g_ref, GbpConfig(damping=0.3, dropout=0.5, seed=4))

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
            for graph, eng, s in ((g, routed, sim), (g_ref, direct, None)):
                mark = len(graph.journal)
                if remove:
                    graph.remove_factor(victim)
                else:
                    graph.add_factor(LINEAR, (a, b), z, np.ones(m),
                                     payload={"A": A})
                events = graph.events_since(mark)
                if s is not None:
                    s.apply_edit(events)
                eng.on_graph_edit()
    assert sim.slot_conservation_ok()


def test_hop_count_is_twice_direct_deliveries(rng):
    g, kfs, pts = ba_graph(n_kf=2, n_pts=5)
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    eng = GbpEngine(g, GbpConfig(damping=0.0, dropout=0.0),
                    transport=sim.make_transport())
    eng.iterate()
    report = cost_model(sim, 0)
    # 10 factors * arity 2, delivered in both phases
    direct_deliveries = 2 * sum(f.arity for f in g.factors.values())
    assert report["deliveries"] == direct_deliveries
    assert report["hops"] == 2 * direct_deliveries
    assert report["n_routing_nodes"] == 10
    assert report["max_router_load"] > 0


def test_empty_sweep_zero_cost():
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(FactorGraph(camera=CAM))
    eng = GbpEngine(FactorGraph(camera=CAM), GbpConfig(),
                    transport=sim.make_transport())
    eng.iterate()
    assert cost_model(sim, 0)["hops"] == 0


def test_balanced_load_within_factor_of_mean(rng):
    g, kfs, pts = ba_graph(n_kf=3, n_pts=12)
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
    for p in pts:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    sim = RoutingSimulator(default_pools())
    sim.bind_graph(g)
    eng = GbpEngine(g, GbpConfig(damping=0.0, dropout=0.0),
                    transport=sim.make_transport())
    eng.iterate()
    loads = [n.delivered for n in sim.routing_nodes.values() if n.delivered > 0]
    assert max(loads) <= 4 * (sum(loads) / len(loads))
