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
from planegbp.io_formats import graph_to_dict
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

# (invalid insertion on small_graph() plus a rigid body rb, ContractViolation message);
# `ins` inserts the row alone (`Rows`) or in the middle of a valid batch (`Batch`)
INVALID_INSERTIONS = {
    "unknown variable kind": (
        lambda ins, kf, pts, rb: ins.variable("landmark", P), "unknown variable kind"),
    "mean dimension": (
        lambda ins, kf, pts, rb: ins.variable(POINT, np.zeros(6)),
        "point mean must have dim 3"),
    "prior dimension": (
        lambda ins, kf, pts, rb: ins.variable(
            POINT, P, GaussianInfo(np.zeros(6), np.zeros((6, 6)))),
        "prior dimension does not match"),
    "duplicate variable id": (
        lambda ins, kf, pts, rb: ins.variable(POINT, P, _fixed_id=pts[0]),
        "variable id 1 already live"),
    "unknown factor kind": (
        lambda ins, kf, pts, rb: ins.factor("edge", (kf, pts[0]), Z, 2.0),
        "unknown factor kind"),
    "dead variable": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, 999), Z, 2.0),
        "dead variable 999"),
    "arity": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf,), Z, 2.0),
        "expects arity 2..2, got 1"),
    "slot kind": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (pts[0], pts[1]), Z, 2.0),
        "slot expects keyframe"),
    "duplicate factor id": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), Z, 2.0,
                                            _fixed_id=0),
        "factor id 0 already live"),
    "missing payload": (
        lambda ins, kf, pts, rb: ins.factor(RIGID_PLANE_PREDICTION, (rb, kf), P, 2.0),
        "need payload 'pi_conv'"),
    "sigma components": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), Z, [1.0, 2.0, 3.0]),
        "sigma has 3 components, expected 2"),
    "sigma zero": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), Z, 0.0),
        "noise sigma must be positive"),
    "sigma component negative": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), Z, [1.0, -2.0]),
        "noise sigma must be positive"),
    "sigma nan": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), Z, NAN),
        "noise sigma must be finite"),
    "sigma inf": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), Z, INF),
        "noise sigma must be finite"),
    "sigma component nan": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), Z,
                                            np.array([1.0, NAN])),
        "noise sigma must be finite"),
    "measurement dimension": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), np.zeros(3), 2.0),
        "reprojection measurement must have dim 2"),
    "measurement nan": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), [320.0, NAN], 2.0),
        "reprojection measurement must be finite"),
    "measurement inf": (
        lambda ins, kf, pts, rb: ins.factor(PRIOR, (pts[0],), [0.0, -INF, 3.0], 1.0),
        "prior measurement must be finite"),
    "constituent z nan": (
        lambda ins, kf, pts, rb: ins.factor(
            COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
            payload={"constituents": [(Z, P), ([NAN, 240.0], P)]}),
        "combined_rigid_reprojection measurement must be finite"),
    "constituent payload inf": (
        lambda ins, kf, pts, rb: ins.factor(
            COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
            payload={"constituents": [(Z, [0.0, INF, 3.0])]}),
        "payload 'p_conv' must be finite"),
    "payload nan": (
        lambda ins, kf, pts, rb: ins.factor(RIGID_PLANE_PREDICTION, (rb, kf), P, 2.0,
                                            payload={"pi_conv": [0.0, NAN, 3.0]}),
        "payload 'pi_conv' must be finite"),
    "matrix payload inf": (
        lambda ins, kf, pts, rb: ins.factor(LINEAR, (pts[0],), np.zeros(2), 1.0,
                                            payload={"A": [[1.0, 0, 0], [0, INF, 0]]}),
        "payload 'A' must be finite"),
    "mean nan": (
        lambda ins, kf, pts, rb: ins.variable(POINT, [0.0, NAN, 3.0]),
        "point mean must be finite"),
    "prior lam inf": (
        lambda ins, kf, pts, rb: ins.variable(
            POINT, P, GaussianInfo(np.zeros(3), np.diag([1.0, INF, 1.0]))),
        "point prior must be finite"),
    "prior eta nan": (
        lambda ins, kf, pts, rb: ins.variable(POINT, P, GaussianInfo([0.0, NAN, 0.0], np.eye(3))),
        "point prior must be finite"),
    # ids are refused, not truncated: 0.7 would attach to the keyframe 0,
    # 1.9 to the point 1, and a fixed id 7.8 would create id 7
    "adjacency id fraction": (
        lambda ins, kf, pts, rb: ins.factor(PRIOR, (kf + 0.7,), P, 1.0),
        "prior adjacency must hold integer variable ids"),
    "adjacency id numpy float": (
        lambda ins, kf, pts, rb: ins.factor(PRIOR, (np.float64(pts[0]) + 0.9,), P, 1.0),
        "prior adjacency must hold integer variable ids"),
    # a bare id, not a row of ids
    "adjacency row not a sequence": (
        lambda ins, kf, pts, rb: ins.factor(PRIOR, pts[0], P, 1.0),
        "prior adjacency must hold integer variable ids"),
    "fixed variable id fraction": (
        lambda ins, kf, pts, rb: ins.variable(POINT, P, _fixed_id=7.8),
        "variable ids must be integers"),
    "fixed factor id fraction": (
        lambda ins, kf, pts, rb: ins.factor(REPROJECTION, (kf, pts[0]), Z, 2.0,
                                            _fixed_id=7.8),
        "factor ids must be integers"),
}


class Rows:
    """Inserts one row with the one-row calls."""

    def __init__(self, g, kf, pts, rb):
        self.g = g

    def variable(self, *args, **kwargs):
        return self.g.add_variable(*args, **kwargs)

    def factor(self, *args, **kwargs):
        return self.g.add_factor(*args, **kwargs)


class Batch:
    """Inserts the row between two valid rows of its kind, as one batch.

    A batch has one kind and one sigma, and its measurements, means and
    priors stack to one array each, so the valid rows take the bad row's
    measurement, mean or prior shape (zero priors): a fault in those is the
    batch's own."""

    def __init__(self, g, kf, pts, rb):
        self.g = g
        self.valid = {  # kind -> (adjacency, measurement, payload) of a valid row
            REPROJECTION: ((kf, pts[1]), Z, None),
            PRIOR: ((pts[1],), P, None),
            RIGID_PLANE_PREDICTION: ((rb, kf), P, {"pi_conv": P}),
            COMBINED_RIGID_REPROJECTION: ((kf, rb), None, {"constituents": [(Z, P)]}),
            LINEAR: ((pts[1],), np.zeros(2), {"A": np.ones((2, 3))}),
        }

    def variable(self, kind, mean, prior=None, _fixed_id=None):
        mean = np.asarray(mean, dtype=float)
        if prior is not None:  # the valid rows take zero priors of the bad prior's dim
            eta, lam = np.zeros((3, prior.dim)), np.zeros((3, prior.dim, prior.dim))
            eta[1], lam[1] = prior.eta, prior.lam
            prior = (eta, lam)
        return self.g.add_variables(
            kind, [np.zeros_like(mean), mean, np.ones_like(mean)], prior,
            None if _fixed_id is None else [100, _fixed_id, 101])

    def factor(self, kind, adjacency, measurement, sigma, payload=None, _fixed_id=None):
        adj, z, ok = self.valid.get(kind, self.valid[REPROJECTION])
        if measurement is not None:
            measurement = np.asarray(measurement, dtype=float).reshape(-1)
            if z is None or z.shape != measurement.shape:
                z = np.zeros_like(measurement)
        return self.g.add_factors(
            kind, [adj, adjacency, adj], None if measurement is None else [z, measurement, z],
            sigma, [ok, payload, ok], None if _fixed_id is None else [100, _fixed_id, 101])


def graph_state(g):
    return (g.snapshot_census(), len(g.journal), g._next_factor_id, g._next_var_id,
            {vid: list(v.factor_ids) for vid, v in g.variables.items()})


@pytest.mark.parametrize("case", INVALID_INSERTIONS)
def test_invalid_insertions_are_rejected_and_leave_the_graph_unchanged(case):
    call, message = INVALID_INSERTIONS[case]
    g, kf, pts = small_graph()
    rb = g.add_variable(RIGID_BODY, np.zeros(6))
    census, n_events = g.snapshot_census(), len(g.journal)
    with pytest.raises(ContractViolation, match=message):
        call(Rows(g, kf, pts, rb), kf, pts, rb)
    assert g.snapshot_census() == census and len(g.journal) == n_events


@pytest.mark.parametrize("case", INVALID_INSERTIONS)
def test_a_batch_with_one_invalid_row_is_refused_whole(case):
    # The bad row sits between two valid ones: the batch raises the one-row
    # message and changes nothing, not even the next free ids.
    call, message = INVALID_INSERTIONS[case]
    g, kf, pts = small_graph()
    rb = g.add_variable(RIGID_BODY, np.zeros(6))
    before = graph_state(g)
    with pytest.raises(ContractViolation, match=message):
        call(Batch(g, kf, pts, rb), kf, pts, rb)
    assert graph_state(g) == before


@pytest.mark.parametrize("case", [c for c in INVALID_INSERTIONS
                                  if c.startswith(("adjacency id", "fixed variable id",
                                                   "fixed factor id"))])
def test_a_one_row_call_with_a_non_integer_id_changes_nothing(case):
    call, message = INVALID_INSERTIONS[case]
    g, kf, pts = small_graph()
    rb = g.add_variable(RIGID_BODY, np.zeros(6))
    before = graph_state(g)
    with pytest.raises(ContractViolation, match=message):
        call(Rows(g, kf, pts, rb), kf, pts, rb)
    assert graph_state(g) == before


def prior_stack(n=3, dim=3):
    return np.ones((n, dim)), np.broadcast_to(np.eye(dim), (n, dim, dim)).copy()


def stack_with(row, value, part):
    eta, lam = prior_stack()
    (eta if part == "eta" else lam)[1][row] = value
    return eta, lam


# (stacked priors for three point means, ContractViolation message)
INVALID_PRIOR_STACKS = {
    "eta of another dim": ((np.ones((3, 4)), prior_stack()[1]), "does not match"),
    "lam not square": ((np.ones((3, 3)), np.ones((3, 3, 4))), "lam must be square"),
    "lam of one row": ((np.ones((3, 3)), np.eye(3)), "lam must be square"),
    "eta flat": ((np.ones(3), prior_stack()[1]), "does not match"),
    "two priors": (prior_stack(n=2), "2 priors for 3 point means"),
    "prior of a pose": (prior_stack(dim=6), "prior dimension does not match"),
    "eta nan": (stack_with(2, NAN, "eta"), "point prior must be finite"),
    "eta inf": (stack_with(0, -INF, "eta"), "point prior must be finite"),
    "lam nan": (stack_with((1, 2), NAN, "lam"), "point prior must be finite"),
    "lam inf": (stack_with((0, 0), INF, "lam"), "point prior must be finite"),
}


@pytest.mark.parametrize("case", INVALID_PRIOR_STACKS)
def test_a_prior_stack_of_the_wrong_shape_or_not_finite_is_refused_whole(case):
    priors, message = INVALID_PRIOR_STACKS[case]
    g, kf, pts = small_graph()
    before = graph_state(g)
    with pytest.raises(ContractViolation, match=message):
        g.add_variables(POINT, np.zeros((3, 3)), priors)
    assert graph_state(g) == before


def test_stacked_priors_are_rows_of_one_symmetrised_copy():
    eta, lam = prior_stack()
    lam[:, 0, 1] = 0.5  # asymmetric
    expected = [GaussianInfo(e, m) for e, m in zip(eta, lam)]
    g = FactorGraph()
    ids = g.add_variables(POINT, np.zeros((3, 3)), (eta, lam))
    eta[:], lam[:] = 7.0, 7.0  # the caller's stacks are not the graph's
    for vid, want in zip(ids, expected):
        prior = g.variables[vid].prior
        assert g.variables[vid].belief is prior and g.journal[vid].prior is prior
        assert prior.eta.tobytes() == want.eta.tobytes()
        assert prior.lam.tobytes() == want.lam.tobytes()


def test_the_valid_rows_of_the_batch_cases_are_valid():
    g, kf, pts = small_graph()
    rb = g.add_variable(RIGID_BODY, np.zeros(6))
    batch = Batch(g, kf, pts, rb)
    for kind, (adj, z, payload) in batch.valid.items():
        assert len(g.add_factors(kind, [adj, adj], None if z is None else [z, z], 2.0,
                                 [payload, payload])) == 2
    assert len(batch.variable(POINT, P)) == 3
    g.check_integrity()


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


def random_packets(rng, n_keyframes=3, n_points=12):
    """Per keyframe: its pose, the start positions and priors of the points
    seen first there, and its (point index, pixel) observations."""
    packets, seen = [], 0
    for k in range(n_keyframes):
        n_new = n_points // n_keyframes
        means = rng.normal(size=(n_new, 3))
        lam = np.eye(3) * rng.uniform(0.5, 2.0)
        priors = [GaussianInfo(lam @ p, lam) for p in means]
        seen += n_new
        obs = [(int(i), rng.normal(320.0, 50.0, size=2))
               for i in rng.choice(seen, size=seen - 1, replace=False)]
        packets.append((rng.normal(size=6), means, priors, obs))
    return packets


def grow(g, packets, batched):
    points = []
    for pose, means, priors, obs in packets:
        kf = g.add_variable(KEYFRAME, pose)
        if batched:
            points.extend(g.add_variables(POINT, means, (np.stack([q.eta for q in priors]),
                                                         np.stack([q.lam for q in priors]))))
            adjacency = [(kf, points[i]) for i, _ in obs]
            g.add_factors(REPROJECTION, adjacency, np.array([z for _, z in obs]), 2.0)
        else:
            points.extend(g.add_variable(POINT, m, q) for m, q in zip(means, priors))
            for i, z in obs:
                g.add_factor(REPROJECTION, (kf, points[i]), z, 2.0)
        g.add_factor(PRIOR, (points[-1],), means[-1], 1e-3)
    return g


def journal_signature(g):
    def arr(x):
        return None if x is None else np.asarray(x).tobytes()

    out = []
    for r in g.journal:
        if isinstance(r, FactorNode):
            out.append((r.id, r.kind, r.adjacency, arr(r.measurement), arr(r.sigma),
                        sorted(r.payload)))
        else:
            out.append((type(r).__name__, r.id, r.kind, arr(r.mean), arr(r.prior.eta),
                        arr(r.prior.lam)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batches_insert_what_one_row_calls_insert(seed):
    packets = random_packets(np.random.default_rng(seed))
    batched = grow(FactorGraph(camera=CAM), packets, batched=True)
    rows = grow(FactorGraph(camera=CAM), packets, batched=False)
    # Nodes (id, kind, adjacency, data, factor_ids lists), journal and next ids.
    assert graph_signature(batched) == graph_signature(rows)
    assert journal_signature(batched) == journal_signature(rows)
    assert (batched._next_var_id, batched._next_factor_id) == (
        rows._next_var_id, rows._next_factor_id)
    batched.check_integrity()
    replayed = FactorGraph.replay(batched.journal, camera=CAM)
    assert graph_to_dict(replayed) == graph_to_dict(batched)
    assert journal_signature(replayed) == journal_signature(batched)
