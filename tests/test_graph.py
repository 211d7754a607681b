from types import SimpleNamespace

import numpy as np
import pytest

from planegbp.errors import ContractViolation
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
    FactorNode,
)
from planegbp.routing import ROUTED, RoutingSimulator
from conftest import GENEROUS_POOLS, graph_signature

CAM = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)


def small_graph():
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, np.zeros(6))
    pts = [g.add_variable(POINT, np.array([0.1 * i, 0, 3.0])) for i in range(3)]
    for p in pts:
        g.add_factor(REPROJECTION, (kf, p), np.array([320.0, 240.0]), 2.0)
    return g, kf, pts


def test_add_then_remove_restores_graph():
    g, kf, pts = small_graph()
    before = g.snapshot_census()
    vid = g.add_variable(POINT, np.zeros(3))
    g.remove_variable(vid)
    assert g.snapshot_census() == before


def test_keyframe_count_increments():
    g = FactorGraph(camera=CAM)
    assert g.snapshot_census()["variables"][KEYFRAME] == 0
    g.add_variable(KEYFRAME, np.zeros(6))
    assert g.snapshot_census()["variables"][KEYFRAME] == 1


def test_base_experiment_census():
    # 35 keyframes, 3108 points, 10000 reprojection factors
    g = FactorGraph(camera=CAM)
    kfs = [g.add_variable(KEYFRAME, np.zeros(6)) for _ in range(35)]
    pts = [g.add_variable(POINT, np.array([0.0, 0.0, 3.0])) for _ in range(3108)]
    z = np.array([320.0, 240.0])
    for i in range(10000):
        g.add_factor(REPROJECTION, (kfs[i % 35], pts[i % 3108]), z, 2.0)
    census = g.snapshot_census()
    assert census["variables"][KEYFRAME] == 35
    assert census["variables"][POINT] == 3108
    assert census["factors"][REPROJECTION] == 10000


def test_remove_variable_with_live_factors_rejected():
    g, kf, pts = small_graph()
    with pytest.raises(ContractViolation):
        g.remove_variable(pts[0])


def test_factor_arity_and_kind_validation():
    g, kf, pts = small_graph()
    with pytest.raises(ContractViolation):  # reprojection is (keyframe, point)
        g.add_factor(REPROJECTION, (pts[0], pts[1]), np.zeros(2), 2.0)
    with pytest.raises(ContractViolation):  # dangling adjacency
        g.add_factor(REPROJECTION, (kf, 999), np.zeros(2), 2.0)
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 1.0]))
    fid = g.add_factor(PLANE_POINT, (plane, pts[0]), 0.0, 0.05)
    assert g.factors[fid].adjacency == (plane, pts[0])


def test_add_factor_checks_payload_against_the_registry():
    g, kf, pts = small_graph()
    rb = g.add_variable(RIGID_BODY, np.zeros(6))
    z, p = np.zeros(2), np.zeros(3)
    for cons in ([(z,)],  # p_conv missing
                 [(z, p), (z, p, p)],  # an extra array
                 [(z, np.zeros(2))]):  # wrong shape
        with pytest.raises(ContractViolation, match="p_conv"):
            g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                         payload={"constituents": cons})
    with pytest.raises(ContractViolation, match="constituent"):
        g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                     payload={"constituents": []})
    with pytest.raises(ContractViolation, match="'A'"):  # A must be (m, joint)
        g.add_factor("linear", (kf, pts[0]), np.zeros(2), 1.0,
                     payload={"A": np.zeros((2, 6))})
    with pytest.raises(ContractViolation):  # prior measures the whole variable
        g.add_factor(PRIOR, (kf,), np.zeros(3), 1.0)
    fid = g.add_factor(RIGID_PLANE_PREDICTION, (rb, kf), np.zeros(3), 2.0,
                       payload={"pi_conv": [0.0, 0.0, 3.0]})
    assert g.factors[fid].payload["pi_conv"].dtype == float
    fid = g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                       payload={"constituents": [([0, 0], [0.0, 0.0, 3.0])]})
    assert [a.dtype for a in g.factors[fid].constituents()[0]] == [float, float]


NAN, INF = float("nan"), float("inf")
Z, P = np.array([320.0, 240.0]), np.array([0.0, 0.0, 3.0])

# (invalid call on small_graph() plus a rigid body rb, ContractViolation message)
INVALID_INSERTIONS = {
    "unknown variable kind": (
        lambda g, kf, pts, rb: g.add_variable("landmark", P), "unknown variable kind"),
    "mean dimension": (
        lambda g, kf, pts, rb: g.add_variable(POINT, np.zeros(6)),
        "point mean must have dim 3"),
    "prior dimension": (
        lambda g, kf, pts, rb: g.add_variable(POINT, P, GaussianInfo.zero(6)),
        "prior dimension does not match"),
    "duplicate variable id": (
        lambda g, kf, pts, rb: g.add_variable(POINT, P, _fixed_id=pts[0]),
        "variable id 1 already live"),
    "unknown factor kind": (
        lambda g, kf, pts, rb: g.add_factor("edge", (kf, pts[0]), Z, 2.0),
        "unknown factor kind"),
    "dead variable": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, 999), Z, 2.0),
        "dead variable 999"),
    "arity": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf,), Z, 2.0),
        "expects arity 2..2, got 1"),
    "slot kind": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (pts[0], pts[1]), Z, 2.0),
        "slot expects keyframe"),
    "duplicate factor id": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), Z, 2.0,
                                            _fixed_id=0),
        "factor id 0 already live"),
    "missing payload": (
        lambda g, kf, pts, rb: g.add_factor(RIGID_PLANE_PREDICTION, (rb, kf), P, 2.0),
        "need payload 'pi_conv'"),
    "sigma components": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), Z, [1.0, 2.0, 3.0]),
        "sigma has 3 components, expected 2"),
    "sigma zero": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), Z, 0.0),
        "noise sigma must be positive"),
    "sigma component negative": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), Z, [1.0, -2.0]),
        "noise sigma must be positive"),
    "sigma nan": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), Z, NAN),
        "noise sigma must be finite"),
    "sigma inf": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), Z, INF),
        "noise sigma must be finite"),
    "sigma component nan": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), Z,
                                            np.array([1.0, NAN])),
        "noise sigma must be finite"),
    "measurement dimension": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), np.zeros(3), 2.0),
        "reprojection measurement must have dim 2"),
    "measurement nan": (
        lambda g, kf, pts, rb: g.add_factor(REPROJECTION, (kf, pts[0]), [320.0, NAN], 2.0),
        "reprojection measurement must be finite"),
    "measurement inf": (
        lambda g, kf, pts, rb: g.add_factor(PRIOR, (pts[0],), [0.0, -INF, 3.0], 1.0),
        "prior measurement must be finite"),
    "constituent z nan": (
        lambda g, kf, pts, rb: g.add_factor(
            COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
            payload={"constituents": [(Z, P), ([NAN, 240.0], P)]}),
        "combined_rigid_reprojection measurement must be finite"),
    "constituent payload inf": (
        lambda g, kf, pts, rb: g.add_factor(
            COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
            payload={"constituents": [(Z, [0.0, INF, 3.0])]}),
        "payload 'p_conv' must be finite"),
    "payload nan": (
        lambda g, kf, pts, rb: g.add_factor(RIGID_PLANE_PREDICTION, (rb, kf), P, 2.0,
                                            payload={"pi_conv": [0.0, NAN, 3.0]}),
        "payload 'pi_conv' must be finite"),
    "matrix payload inf": (
        lambda g, kf, pts, rb: g.add_factor(LINEAR, (pts[0],), np.zeros(2), 1.0,
                                            payload={"A": [[1.0, 0, 0], [0, INF, 0]]}),
        "payload 'A' must be finite"),
}


@pytest.mark.parametrize("case", INVALID_INSERTIONS)
def test_invalid_insertions_are_rejected_and_leave_the_graph_unchanged(case):
    call, message = INVALID_INSERTIONS[case]
    g, kf, pts = small_graph()
    rb = g.add_variable(RIGID_BODY, np.zeros(6))
    census, n_events = g.snapshot_census(), len(g.journal)
    with pytest.raises(ContractViolation, match=message):
        call(g, kf, pts, rb)
    assert g.snapshot_census() == census and len(g.journal) == n_events


def test_empty_graph_census_all_zero():
    census = FactorGraph().snapshot_census()
    assert census["n_variables"] == 0 and census["n_factors"] == 0
    assert all(v == 0 for v in census["variables"].values())
    assert all(v == 0 for v in census["factors"].values())


def test_removing_hypothesis_restores_raw_graph():
    g, kf, pts = small_graph()
    baseline = g.snapshot_census()
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
    fids = [g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05) for p in pts[:2]]
    fids.append(g.add_factor(PLANE_PREDICTION, (plane, kf), np.array([0, 0, 3.0]), 20.0))
    for fid in fids:
        g.remove_factor(fid)
    g.remove_variable(plane)
    assert g.snapshot_census() == baseline


def test_replace_with_rigid_body_counting():
    g, kf, pts = small_graph()
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
    for p in pts[:2]:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    g.add_factor(PLANE_PREDICTION, (plane, kf), np.array([0, 0, 3.0]), 20.0)
    n_vars = len(g.variables)
    conv = {plane: np.array([0, 0, 3.0]),
            pts[0]: np.array([0, 0, 3.0]), pts[1]: np.array([0.1, 0, 3.0])}
    rigid, absorbed = g.replace_with_rigid_body(plane, pts[:2], conv)
    assert absorbed == pts[:2]
    # variable count: -(1 + |absorbed|) + 1
    assert len(g.variables) == n_vars - (1 + 2) + 1
    census = g.snapshot_census()
    assert census["variables"][RIGID_BODY] == 1
    assert census["variables"][PLANE_HYPOTHESIS] == 0
    assert census["factors"][PLANE_POINT] == 0
    (fid,) = [f.id for f in g.factors.values() if f.kind == COMBINED_RIGID_REPROJECTION]
    baked = [p for _, p in g.factors[fid].constituents()]
    assert np.array_equal(baked, [conv[p] for p in pts[:2]])
    assert census["factors"][RIGID_PLANE_PREDICTION] == 1
    assert census["factors"][REPROJECTION] == 1  # the unabsorbed point keeps its
    g.check_integrity()


def test_replace_excludes_points_on_other_hypotheses_and_anchored():
    g, kf, pts = small_graph()
    plane_a = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
    plane_b = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 2.0]))
    for p in pts:
        g.add_factor(PLANE_POINT, (plane_a, p), 0.0, 0.05)
    g.add_factor(PLANE_POINT, (plane_b, pts[1]), 0.0, 0.05)  # shared membership
    g.add_factor(PRIOR, (pts[2],), np.array([0.2, 0, 3.0]), 1e-3)  # gauge anchor
    conv = {plane_a: np.array([0, 0, 3.0])}
    conv.update({p: np.array([0, 0, 3.0]) for p in pts})
    rigid, absorbed = g.replace_with_rigid_body(plane_a, pts, conv)
    assert absorbed == [pts[0]]  # pts[1] shared, pts[2] anchored
    assert pts[1] in g.variables and pts[2] in g.variables
    g.check_integrity()


def test_journal_replay_reconstructs_graph():
    # Two compressions and a merge are journalled as their primitive events:
    # replay rebuilds the graph, and a routing simulator follows the journal.
    g, kf, pts = small_graph()
    planes = []
    for members in (pts[:2], pts[2:]):
        plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
        for p in members:
            g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
        g.add_factor(PLANE_PREDICTION, (plane, kf), np.array([0, 0, 3.0]), 20.0)
        planes.append((plane, members))
    sim = RoutingSimulator(GENEROUS_POOLS)
    bodies = []
    for plane, members in planes:
        conv = {plane: np.array([0, 0, 3.0]), **{p: g.variables[p].mean for p in members}}
        bodies.append(g.replace_with_rigid_body(plane, members, conv)[0])
    merged = g.merge_rigid_bodies(*bodies, (Pose.identity(), Pose.identity()),
                                  np.array([0, 0, 3.0]))
    assert [v.id for v in g.variables_of_kind(RIGID_BODY)] == [merged]
    g.remove_factor(next(iter(g.factors)))

    replayed = FactorGraph.replay(g.journal, camera=CAM)
    assert graph_signature(replayed) == graph_signature(g)
    replayed.check_integrity()
    sim.follow(g.journal)
    assert sim.slot_conservation_ok()
    assert sim.routing_entry_count() == sum(
        len(f.adjacency) for f in g.factors.values() if f.kind in ROUTED)


def test_journal_records_each_inserted_factor_by_its_node():
    # A factor never changes after insertion, so its node is the journal's
    # record of it, and the record stays as inserted after the factor goes.
    g = FactorGraph(camera=CAM)

    def add(*args, **kwargs):
        fid = g.add_factor(*args, **kwargs)
        assert g.journal[-1] is g.factors[fid]

    kf = g.add_variable(KEYFRAME, np.zeros(6))
    pts = [g.add_variable(POINT, np.array([0.1 * i, 0, 3.0])) for i in range(4)]
    for p in pts:
        add(REPROJECTION, (kf, p), np.array([320.0 + p, 240.0]), 2.0)
    planes = []
    for members in (pts[:2], pts[2:]):
        plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 3.0]))
        for p in members:
            add(PLANE_POINT, (plane, p), 0.0, 0.05)
        add(PLANE_PREDICTION, (plane, kf), np.array([0, 0, 3.0]), 20.0)
        planes.append((plane, members))
    inserted = graph_signature(g)[1]
    bodies = []
    for plane, members in planes:
        conv = {plane: np.array([0, 0, 3.0]), **{p: g.variables[p].mean for p in members}}
        bodies.append(g.replace_with_rigid_body(plane, members, conv)[0])
        inserted.update(graph_signature(g)[1])
    poses = (Pose(np.array([0.1, 0, 0, 0, 0, 0.05])), Pose(np.array([0, 0.2, 0, 0.03, 0, 0])))
    g.merge_rigid_bodies(*bodies, poses, np.array([0, 0, 3.1]))
    inserted.update(graph_signature(g)[1])

    records = [r for r in g.journal if isinstance(r, FactorNode)]
    assert len(records) == len({r.id for r in records}) == len(inserted)
    removed = set(inserted) - set(g.factors)
    assert {inserted[fid][0] for fid in removed} == {
        REPROJECTION, PLANE_POINT, PLANE_PREDICTION, RIGID_PLANE_PREDICTION,
        COMBINED_RIGID_REPROJECTION}
    recorded = graph_signature(SimpleNamespace(variables={}, factors={r.id: r for r in records}))
    assert recorded[1] == inserted

    replayed = FactorGraph.replay(g.journal, camera=CAM)
    assert graph_signature(replayed) == graph_signature(g)
    assert len(replayed.journal) == len(g.journal)
    assert all(r is replayed.factors[r.id] for r in replayed.journal
               if isinstance(r, FactorNode) and r.id in replayed.factors)
    sim = RoutingSimulator(GENEROUS_POOLS)
    sim.follow(g.journal)
    assert sim.slot_conservation_ok()
    assert sim.routing_entry_count() == sum(
        len(f.adjacency) for f in g.factors.values() if f.kind in ROUTED)


def test_ids_never_reused():
    g, kf, pts = small_graph()
    fid = next(iter(g.factors))
    g.remove_factor(fid)
    new_fid = g.add_factor(REPROJECTION, (kf, pts[0]), np.zeros(2), 2.0)
    assert new_fid != fid
    vid = g.add_variable(POINT, np.zeros(3))
    g.remove_variable(vid)
    assert g.add_variable(POINT, np.zeros(3)) != vid


def test_bipartite_integrity_check():
    g, kf, pts = small_graph()
    g.check_integrity()
    # corrupt the structure deliberately
    g.variables[kf].factor_ids.append(98765)
    with pytest.raises(ContractViolation):
        g.check_integrity()
