"""Random edit sequences against the engine's recompile and the routing tables.

Twin graphs take the same edits: one is propagated with the routing
simulator's transport, which follows the graph journal by itself, the other
directly. The edits include rigid-body compression and plane merges, whose
replacements nest their primitive events. Every edit must leave the state of
the surviving factors and variables untouched, bit for bit, and the routed
twin must keep equalling the direct one.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from planegbp.abstraction import AbstractionConfig, AbstractionManager
from planegbp.engine import GbpConfig, GbpEngine
from planegbp.gaussians import GaussianInfo
from planegbp.geometry import CameraModel, Pose
from planegbp.graph import (
    COMBINED_RIGID_REPROJECTION,
    KEYFRAME,
    LINEAR,
    PLANE_HYPOTHESIS,
    PLANE_POINT,
    PLANE_PREDICTION,
    POINT,
    PRIOR,
    REPROJECTION,
    RIGID_BODY,
    RIGID_PLANE_PREDICTION,
    FactorGraph,
)
from planegbp.routing import ROUTED, PoolConfig, RoutedTransport, RoutingSimulator
from conftest import graph_signature, pixel

CAM = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
CFG = GbpConfig(damping=0.3, dropout=0.5, seed=3)
# a factor's engine state, and its per-position factor->variable messages
FACTOR_STATE = ("x0", "eta", "lam", "weight", "lin_valid", "fresh")
MESSAGES = ("f2v_eta", "f2v_lam")
OPS = ("add_reprojection", "add_linear", "remove_factor", "add_variable",
       "remove_variable", "add_plane", "rigid", "merge")


def _live(g, *kinds):
    return sorted(vid for vid, v in g.variables.items() if v.kind in kinds)


def _add_point(g, x, y):
    p = np.array([x, y, 4.0])
    lam = np.eye(3) * 1e-2
    return g.add_variable(POINT, p, GaussianInfo(lam @ p, lam))


def _add_reprojection(g, kf, pt, i):
    z = pixel(CAM, Pose(g.variables[kf].mean), g.variables[pt].mean)
    return g.add_factor(REPROJECTION, (kf, pt), z + np.array([0.3, -0.2]) * (i % 5), 1.0)


def _add_plane(g, kf, members):
    # a firm prior keeps the plane off the origin, where it is degenerate
    m = np.array([0.0, 0.0, 4.0])
    plane = g.add_variable(PLANE_HYPOTHESIS, m, GaussianInfo(m * 10.0, np.eye(3) * 10.0))
    for p in members:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    g.add_factor(PLANE_PREDICTION, (plane, kf), np.array([0.0, 0.0, 4.0]), 0.2)
    return plane


def _rigid_plane(g, kf, shift, n_factors):
    """A rigid body over four points of the plane z = 4, seen from `kf` in
    `n_factors` combined factors."""
    pi = np.array([0.0, 0.0, 4.0])
    rb = g.add_variable(RIGID_BODY, np.zeros(6), GaussianInfo(np.zeros(6), np.eye(6)))
    cons = []
    for u, v in ((-0.3, -0.3), (0.3, -0.3), (0.3, 0.3), (-0.3, 0.3)):
        p = np.array([u + shift, v, 4.0])
        cons.append((pixel(CAM, Pose(g.variables[kf].mean), p), p))
    for part in np.array_split(np.arange(4), n_factors):
        g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 1.0,
                     payload={"constituents": [cons[k] for k in part]})
    g.add_factor(RIGID_PLANE_PREDICTION, (rb, kf), pi, 0.2, payload={"pi_conv": pi})
    return rb


def _merge_two_planes(g, kf, j):
    """Build two coplanar, overlapping rigid planes, the first seen in one
    combined factor and the second in four of one view each, and merge the
    two."""
    manager = AbstractionManager(g, AbstractionConfig(), seed=j)
    a = _rigid_plane(g, kf, 0.0, 1)
    b = _rigid_plane(g, kf, 0.05 * (j % 3), 4)
    means = {a: np.zeros(6), b: np.zeros(6)}
    assert manager.merge_planes(a, b, means, iteration=0) is not None


def base_graph():
    g = FactorGraph(camera=CAM)
    kfs = []
    for k in range(3):
        r = np.array([0.2 * k, 0.0, 0.0, 0.0, 0.02 * k, 0.0])
        lam = np.eye(6) * (1e6 if k == 0 else 1.0)
        kfs.append(g.add_variable(KEYFRAME, r, GaussianInfo(lam @ r, lam)))
    pts = [_add_point(g, 0.3 * (i % 4) - 0.5, 0.25 * (i // 4) - 0.3) for i in range(8)]
    for i, p in enumerate(pts):
        for kf in kfs:
            _add_reprojection(g, kf, p, i)
    g.add_factor(PRIOR, (pts[0],), g.variables[pts[0]].mean, 1e-3)
    _add_plane(g, kfs[1], pts[2:6])
    return g


def edit(g, eng, op, i, j):
    """Apply one edit, chosen from the live graph by the integers i and j."""
    kfs, pts = _live(g, KEYFRAME), _live(g, POINT)
    # linear factors stay off planes, so that compression stays applicable
    plain = _live(g, KEYFRAME, POINT, RIGID_BODY)
    planes = _live(g, PLANE_HYPOTHESIS)
    if op == "add_reprojection" and kfs and pts:
        _add_reprojection(g, kfs[i % len(kfs)], pts[j % len(pts)], i)
    elif op == "add_linear" and plain:
        # i == j gives a factor on (a, a): two positions on one variable
        adj = (plain[i % len(plain)],) if (i + j) % 3 == 0 else (
            plain[i % len(plain)], plain[j % len(plain)])
        r = np.random.default_rng([i, j])
        m = sum(g.variables[v].dim for v in adj)
        g.add_factor(LINEAR, adj, r.normal(size=m), np.full(m, 0.5),
                     payload={"A": r.normal(size=(m, m))})
    elif op == "remove_factor" and g.factors:
        g.remove_factor(sorted(g.factors)[i % len(g.factors)])
    elif op == "add_variable":
        if i % 2:
            r = np.array([0.1, 0.05 * (j % 7), 0.0, 0.0, 0.0, 0.01])
            g.add_variable(KEYFRAME, r, GaussianInfo(r.copy(), np.eye(6)))
        else:
            _add_point(g, 0.1 * (j % 9) - 0.4, 0.1 * (i % 7) - 0.3)
    elif op == "remove_variable" and g.variables:
        vid = sorted(g.variables)[i % len(g.variables)]
        for fid in list(g.variables[vid].factor_ids):
            g.remove_factor(fid)
        g.remove_variable(vid)
    elif op == "add_plane" and kfs and pts:
        members = [pts[(i + k) % len(pts)] for k in range(1 + j % 4)]
        _add_plane(g, kfs[j % len(kfs)], sorted(set(members)))
    elif op == "rigid" and planes:
        plane = planes[i % len(planes)]
        members = [
            g.factors[fid].adjacency[1] for fid in g.variables[plane].factor_ids
            if g.factors[fid].kind == PLANE_POINT
        ]
        # points with a linear factor cannot be absorbed; leave them out
        members = [p for p in members if all(
            g.factors[fid].kind != LINEAR for fid in g.variables[p].factor_ids)]
        means = eng.means()
        g.replace_with_rigid_body(plane, members, {v: means[v] for v in [plane] + members})
    elif op == "merge" and kfs:
        _merge_two_planes(g, kfs[i % len(kfs)], j)


def engine_state(eng):
    """fid -> per-factor state and both positions' messages, each way; vid ->
    belief and mean."""
    factors = {}
    for b in eng.batches:
        messages = [arr for name in MESSAGES for arr in getattr(b, name)] + [
            arr for pos in range(b.arity) for arr in b.v2f(pos)]
        for i, fid in enumerate(b.ids):
            factors[fid] = [getattr(b, name)[i].copy() for name in FACTOR_STATE] + [
                arr[i].copy() for arr in messages]
    variables = {}
    for bank in eng.banks.values():
        for i, vid in enumerate(bank.ids.tolist()):
            variables[vid] = (bank.belief_eta[i].copy(), bank.belief_lam[i].copy(),
                              bank.mean[i].copy())
    return factors, variables


def assert_state_equal(a, b):
    """Bit-for-bit equality of the entries of every id in both maps."""
    for key in a.keys() & b.keys():
        for x, y in zip(a[key], b[key]):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), key


def routed_entries(g):
    return sum(f.arity for f in g.factors.values() if f.kind in ROUTED)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 1000), st.integers(0, 1000)),
                min_size=1, max_size=8))
def test_random_edits_carry_state_and_keep_routed_equal_to_direct(ops):
    g = base_graph()
    g_ref = FactorGraph.replay(g.journal, camera=CAM)
    pools = PoolConfig(
        max_variables={k: 64 for k in (KEYFRAME, POINT, PLANE_HYPOTHESIS, RIGID_BODY)},
        max_factors=dict.fromkeys(ROUTED, 256),
        max_edges_per_variable=128,
    )
    sim = RoutingSimulator(pools)
    routed = GbpEngine(g, CFG, transport=RoutedTransport(sim))
    direct = GbpEngine(g_ref, CFG)
    for _ in range(3):
        routed.iterate()
        direct.iterate()

    for op, i, j in ops:
        before = [engine_state(e) for e in (routed, direct)]
        for graph, eng in ((g, routed), (g_ref, direct)):
            edit(graph, eng, op, i, j)
            eng.on_graph_edit()
        for eng, (factors, variables) in zip((routed, direct), before):
            new_factors, new_variables = engine_state(eng)
            assert new_factors.keys() == eng.graph.factors.keys()
            assert_state_equal(factors, new_factors)
            assert_state_equal(variables, new_variables)
            for vid in new_variables.keys() - variables.keys():
                node = eng.graph.variables[vid]
                eta, lam, mean = new_variables[vid]
                assert np.array_equal(eta, node.prior.eta)
                assert np.array_equal(lam, node.prior.lam)
                assert np.array_equal(mean, node.mean)

        for graph in (g, g_ref):
            graph.check_integrity()
            assert graph_signature(FactorGraph.replay(graph.journal, CAM)) == graph_signature(graph)
        assert graph_signature(g) == graph_signature(g_ref)
        assert sim.slot_conservation_ok()
        assert sim.routing_entry_count() == routed_entries(g)

        for _ in range(2):
            rep_a, rep_b = routed.iterate(), direct.iterate()
            np.testing.assert_equal(dataclasses.astuple(rep_a), dataclasses.astuple(rep_b))
            a, b = engine_state(routed), engine_state(direct)
            assert a[0].keys() == b[0].keys() and a[1].keys() == b[1].keys()
            assert_state_equal(*[s[0] for s in (a, b)])
            assert_state_equal(*[s[1] for s in (a, b)])
            assert sim.cost_report()[-1]["hops"] == 4 * routed_entries(g)
