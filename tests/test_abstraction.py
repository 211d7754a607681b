import math

import numpy as np
import pytest

from planegbp.abstraction import (
    D_MERGE,
    MIN_MEMBERS,
    SIGMA_PP,
    AbstractionConfig,
    AbstractionManager,
    decide,
    hull2d,
    plane_hull,
    points_in_hull,
    rigid_plane,
    sample_in_hull,
)
from planegbp.errors import ContractViolation
from planegbp.factors import eval_plane_point_batch
from planegbp.gaussians import GaussianInfo
from planegbp.geometry import EPS_PLANE, CameraModel, PlaneParams, Pose, transform_plane
from planegbp.graph import (
    COMBINED_RIGID_REPROJECTION,
    KEYFRAME,
    PLANE_HYPOTHESIS,
    PLANE_POINT,
    POINT,
    REPROJECTION,
    RIGID_BODY,
    RIGID_PLANE_PREDICTION,
    FactorGraph,
)
from conftest import energy_one, linearise_one, pixel

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def config():
    # T_MIN 4000 -> 400 and T_MAX 6000 -> 600 iterations
    return AbstractionConfig(test_period=100, merge_period=100, iteration_scale=0.1)


def planar_graph(rng, n_members=6, plane=None, kf_pose=None, extra_kf=0):
    """Keyframe(s) + points on a plane with exact reprojection factors."""
    plane = plane or PlaneParams.from_normal_distance([0, 0, 1.0], 3.0)
    g = FactorGraph(camera=CAM)
    kf_pose = kf_pose if kf_pose is not None else Pose.identity()
    kfs = [g.add_variable(KEYFRAME, kf_pose.r,
                          GaussianInfo(np.eye(6) @ kf_pose.r * 1e6, np.eye(6) * 1e6))]
    for k in range(extra_kf):
        r = kf_pose.r.copy()
        r[0] += 0.3 * (k + 1)
        kfs.append(g.add_variable(KEYFRAME, r, GaussianInfo(r * 1e2, np.eye(6) * 1e2)))
    pts = []
    e1 = np.array([1.0, 0, 0])
    e2 = np.array([0, 1.0, 0])
    for i in range(n_members):
        uv = rng.uniform(-1, 1, size=2)
        p = plane.normal * plane.distance + uv[0] * e1 + uv[1] * e2
        lam = np.eye(3) * 1e-4
        pid = g.add_variable(POINT, p, GaussianInfo(lam @ p, lam))
        pts.append(pid)
        for kf in kfs:
            pose = Pose(g.variables[kf].mean)
            z = pixel(CAM, pose, p)
            g.add_factor(REPROJECTION, (kf, pid), z, 2.0)
    return g, kfs, pts, plane


def means_of(graph):
    return {vid: node.mean.copy() for vid, node in graph.variables.items()}


# -- config and decision rule -----------------------------------------------------

def test_config_validation():
    with pytest.raises(ContractViolation):
        AbstractionConfig(iteration_scale=0.0)


def test_decision_rule_paper_defaults():
    cfg = AbstractionConfig()  # Y_REJECT 0.5, Y_CONF 0.8, T_MIN 4000, T_MAX 6000
    assert decide(0.4, 100, cfg) == "reject"
    assert decide(0.85, 4500, cfg) == "confirm"
    assert decide(0.7, 7000, cfg) == "reject"
    assert decide(0.7, 4500, cfg) == "keep"
    assert decide(0.85, 3000, cfg) == "keep"


def test_likelihood_threshold_analytically_inverted(rng):
    # l > 0.8 iff |n.p - d| < sigma * sqrt(-2 ln 0.8)
    cutoff = SIGMA_PP * math.sqrt(-2.0 * math.log(0.8))
    assert np.isclose(cutoff, 0.0334, atol=1e-4)
    epsilons = (0.9, 0.999, 1.001, 1.1)
    g, kfs, pts, plane = planar_graph(rng, n_members=len(epsilons))
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)
    means[hyp.variable_id] = np.array([0.0, 0.0, 1.0])
    for pid, eps in zip(pts, epsilons):
        means[pid] = np.array([0.2, -0.1, 1.0 + cutoff * eps])
    y, liks = mgr.evaluate_hypothesis(hyp, means)
    for pid, eps in zip(pts, epsilons):
        assert (liks[pid] > 0.8) == (eps < 1.0)
    assert y == 0.5


# -- integrate / evaluate ----------------------------------------------------------

def test_integrate_hypothesis_counts(rng):
    g, kfs, pts, plane = planar_graph(rng)
    mgr = AbstractionManager(g, config())
    before = g.snapshot_census()
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts[:MIN_MEMBERS], iteration=0)
    after = g.snapshot_census()
    # one plane variable, MIN_MEMBERS plane-point factors, one prediction factor
    assert after["n_variables"] == before["n_variables"] + 1
    assert after["n_factors"] == before["n_factors"] + MIN_MEMBERS + 1
    assert mgr.members(hyp) == pts[:MIN_MEMBERS]


def test_integrate_rejects_small_membership(rng):
    g, kfs, pts, plane = planar_graph(rng)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    assert mgr.integrate_hypothesis(kfs[0], pi_z.m, pts[:MIN_MEMBERS - 1], 0) is None
    assert mgr.integrate_hypothesis(kfs[0], pi_z.m, [], 0) is None


def test_zero_noise_hypothesis_initialised_at_truth(rng):
    g, kfs, pts, plane = planar_graph(rng)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    assert np.allclose(g.variables[hyp.variable_id].mean, plane.m, atol=1e-9)


def test_evaluate_hypothesis_y_values(rng):
    g, kfs, pts, plane = planar_graph(rng, n_members=8)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)
    y, liks = mgr.evaluate_hypothesis(hyp, means)
    assert y == 1.0 and all(l > 0.99 for l in liks.values())
    # push half the members 10 sigma off the plane
    for pid in pts[:4]:
        means[pid] = means[pid] + plane.normal * (10 * SIGMA_PP)
    y, _ = mgr.evaluate_hypothesis(hyp, means)
    assert y == 0.5


def test_evaluate_hypothesis_is_the_plane_point_kernel(rng):
    # Each likelihood is exp(-r²/2σ²) of the plane-point kernel's residual,
    # bit for bit, and 0 where the kernel marks the plane degenerate.
    n = 8
    g, kfs, pts, plane = planar_graph(rng, n_members=n)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)
    n_invalid = 0
    for scale in (0.0, 1e-9, 1e-7, EPS_PLANE, 2 * EPS_PLANE, 1e-3, 1.0, 4.0):
        for _ in range(5):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            m = normal * scale
            p = rng.normal(size=(n, 3))
            p += normal * (scale - p @ normal + rng.normal(scale=2 * SIGMA_PP, size=n))[:, None]
            means[hyp.variable_id] = m
            means.update(zip(pts, p))
            _, liks = mgr.evaluate_hypothesis(hyp, means)
            r, _, valid = eval_plane_point_batch(None, None, np.tile(m, (n, 1)), p,
                                                 want_jac=False)
            want = np.where(valid, np.exp(-0.5 * (r[:, 0] / SIGMA_PP) ** 2), 0.0)
            assert np.array_equal([liks[pid] for pid in pts], want)
            n_invalid += int(not valid.any())
    assert n_invalid >= 15  # the planes at and below EPS_PLANE


def test_degenerate_plane_reads_zero_and_is_rejected_at_its_test(rng):
    g, kfs, pts, plane = planar_graph(rng)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)
    means[hyp.variable_id] = 1e-9 * np.array([0.0, 0.0, 1.0])
    for pid in pts:
        means[pid] = means[pid] * [1.0, 1.0, 0.0]  # on z = 0, residual ~1e-9
    y, liks = mgr.evaluate_hypothesis(hyp, means)
    assert y == 0.0 and all(v == 0.0 for v in liks.values())
    assert mgr.run_tests(means, iteration=500) == [(hyp.variable_id, "reject", 0.0)]
    assert "reason" not in mgr.events[-1]


# -- confirmation -----------------------------------------------------------------

def test_confirm_census_and_energy_bookkeeping(rng):
    g, kfs, pts, plane = planar_graph(rng, n_members=6, extra_kf=1)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)

    removed = sum(
        energy_one(g, g.factors[fid], means)
        for fid in g.variables[hyp.variable_id].factor_ids
        if g.factors[fid].kind == PLANE_POINT
    )
    e_before = total_energy(g, means)
    census_before = g.snapshot_census()
    rigid_id = mgr.confirm_hypothesis(
        hyp, means, mgr.evaluate_hypothesis(hyp, means)[1], iteration=500, y=1.0)
    census_after = g.snapshot_census()
    assert census_after["variables"][RIGID_BODY] == census_before["variables"][RIGID_BODY] + 1
    assert census_after["variables"]["plane_hypothesis"] == 0

    means_after = means_of(g)
    means_after[rigid_id] = np.zeros(6)  # identity body pose
    e_after = total_energy(g, means_after)
    assert abs(e_after - (e_before - removed)) < 1e-9


def total_energy(g, means):
    return sum(energy_one(g, f, means) for f in g.factors.values())


def test_confirm_without_compression_keeps_structure(rng):
    g, kfs, pts, plane = planar_graph(rng)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    before = g.snapshot_census()
    means = means_of(g)
    out = mgr.confirm_hypothesis(hyp, means, mgr.evaluate_hypothesis(hyp, means)[1], 500, 1.0,
                                 compress=False)
    assert out is None
    assert g.snapshot_census() == before
    assert hyp.variable_id not in mgr.hypotheses  # no longer pending


def test_confirmed_plane_is_read_from_the_graph(rng):
    g, kfs, pts, plane = planar_graph(rng, extra_kf=1)
    g.add_variable(PLANE_HYPOTHESIS, plane.m)  # shifts later ids off point ids
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)
    rigid_id = mgr.confirm_hypothesis(hyp, means, mgr.evaluate_hypothesis(hyp, means)[1], 500, 1.0)
    assert set(mgr.absorbed) == set(pts)  # keyed by point variable id
    for pid in pts:
        body, p_conv = mgr.absorbed[pid]
        assert body == rigid_id and np.array_equal(p_conv, means[pid])
    pi_conv, points = rigid_plane(g, rigid_id)
    assert np.array_equal(pi_conv, means[hyp.variable_id])
    assert np.array_equal(points, np.stack([means[pid] for pid in pts]))
    origin, e1, e2, hull = plane_hull(pi_conv, points)
    assert np.allclose(origin, plane.m, atol=1e-9)
    assert np.allclose([e1 @ plane.normal, e2 @ plane.normal, e1 @ e2], 0.0)
    assert hull is not None and 3 <= len(hull) <= len(pts)


def test_reject_restores_raw_graph(rng):
    g, kfs, pts, plane = planar_graph(rng)
    baseline = g.snapshot_census()
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    mgr.reject_hypothesis(hyp, 100, 0.2)
    assert g.snapshot_census() == baseline
    g.check_integrity()


def test_run_tests_full_cycle(rng):
    g, kfs, pts, plane = planar_graph(rng)
    cfg = config()
    mgr = AbstractionManager(g, cfg)
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)
    # too young to confirm
    outcomes = mgr.run_tests(means, iteration=100)
    assert outcomes[0][1] == "keep"
    calls = []
    evaluate = mgr.evaluate_hypothesis
    mgr.evaluate_hypothesis = lambda *args: calls.append(args) or evaluate(*args)
    outcomes = mgr.run_tests(means_of(g), iteration=500)
    assert outcomes[0][1] == "confirm"
    assert len(calls) == 1  # the decision's likelihoods also choose the members
    census = g.snapshot_census()
    assert census["variables"][RIGID_BODY] == 1
    assert census["factors"][COMBINED_RIGID_REPROJECTION] == 1  # one keyframe


# -- combined factors ----------------------------------------------------------------

def test_confirm_writes_one_combined_factor_per_keyframe(rng):
    # K keyframes each observing P absorbed points: K combined factors of P
    K, P = 5, 20
    g, kfs, pts, plane = planar_graph(rng, n_members=P, extra_kf=K - 1)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)
    rigid_id = mgr.confirm_hypothesis(hyp, means, mgr.evaluate_hypothesis(hyp, means)[1], 500, 1.0)
    census = g.snapshot_census()
    assert census["factors"][COMBINED_RIGID_REPROJECTION] == K
    assert census["factors"][REPROJECTION] == 0
    combined = [g.factors[fid] for fid in g.variables[rigid_id].factor_ids
                if g.factors[fid].kind == COMBINED_RIGID_REPROJECTION]
    assert [f.adjacency for f in combined] == [(kf, rigid_id) for kf in kfs]
    for fac in combined:
        baked = [p for _, p in fac.constituents()]
        assert np.array_equal(baked, [means[pid] for pid in pts])  # member order


def test_combined_factor_is_product_at_shared_linearisation_point(rng):
    # At a shared linearisation point the combined factor IS the product of
    # its constituents in information form, so the joint posteriors of the
    # combined and the split graphs are identical. (Per-edge marginals differ:
    # marginalisation does not distribute over the product, which is exactly
    # why combining parallel factors removes loops.)
    from planegbp.reference import dense_marginals

    def build(combined):
        g = FactorGraph(camera=CAM)
        kf = g.add_variable(KEYFRAME, np.zeros(6),
                            GaussianInfo(np.zeros(6), np.eye(6)))
        rb = g.add_variable(RIGID_BODY, np.zeros(6),
                            GaussianInfo(np.zeros(6), np.eye(6)))
        cons = []
        r = np.random.default_rng(3)
        for i in range(4):
            p = r.normal(size=3) * 0.3 + np.array([0, 0, 4.0])
            z = pixel(CAM, Pose.identity(), p) + r.normal(size=2)
            cons.append((z, p))
        for part in [cons] if combined else [[c] for c in cons]:
            g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                         payload={"constituents": part})
        return g, kf, rb

    ga, kfa, rba = build(True)
    gb, kfb, rbb = build(False)
    means_a = {kfa: np.zeros(6), rba: np.zeros(6)}
    means_b = {kfb: np.zeros(6), rbb: np.zeros(6)}

    lin_combined = linearise_one(ga, next(iter(ga.factors.values())), means_a)
    total = GaussianInfo(np.zeros(12), np.zeros((12, 12)))
    for fac in gb.factors.values():
        lin = linearise_one(gb, fac, means_b)
        total = GaussianInfo(total.eta + lin.eta, total.lam + lin.lam)
    assert np.allclose(lin_combined.eta, total.eta, atol=1e-10)
    assert np.allclose(lin_combined.lam, total.lam, atol=1e-10)

    oa = dense_marginals(ga, means_a)
    ob = dense_marginals(gb, means_b)
    assert np.allclose(oa[kfa].mean, ob[kfb].mean, atol=1e-10)
    assert np.allclose(oa[kfa].cov, ob[kfb].cov, atol=1e-10)


# -- baking -------------------------------------------------------------------------

def test_bake_parameters_snapshot_immutable(rng):
    g, kfs, pts, plane = planar_graph(rng)
    mgr = AbstractionManager(g, config())
    pi_z = transform_plane(Pose(g.variables[kfs[0]].mean), plane)
    hyp = mgr.integrate_hypothesis(kfs[0], pi_z.m, pts, 0)
    means = means_of(g)
    bakes = {vid: v.copy() for vid, v in means.items()}
    rigid_id = mgr.confirm_hypothesis(hyp, means, mgr.evaluate_hypothesis(hyp, means)[1], 500, 1.0)
    means[hyp.variable_id][2] = 99.0
    for pid in pts:
        means[pid][0] = 99.0
    # drift does not alter bakes: the body's pi_conv and p_conv, and the table's
    pi_conv, points = rigid_plane(g, rigid_id)
    assert np.array_equal(pi_conv, bakes[hyp.variable_id])
    assert np.array_equal(points, np.stack([bakes[pid] for pid in pts]))
    for pid in pts:
        assert np.array_equal(mgr.absorbed[pid][1], bakes[pid])


# -- merging ------------------------------------------------------------------------

def rigid_plane_pair(rng, offset=0.0, angle_deg=0.0, shift=0.0, pose=None):
    """Two confirmed rigid planes over the same surface, with controllable
    separation, relative tilt and in-plane shift of the second one. Both
    bodies sit at `pose` (identity by default); their factors hold the body
    frame in one combined factor each, and `mgr.absorbed` lists 8 points of
    each. Returns the graph, the manager, the body ids, the means and each
    point's world position."""
    pose = pose or Pose.identity()
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, np.zeros(6),
                        GaussianInfo(np.zeros(6) * 1e6, np.eye(6) * 1e6))
    mgr = AbstractionManager(g, config(), seed=1)
    bodies = []
    means = {kf: np.zeros(6)}
    world = {}
    for idx in range(2):
        base = PlaneParams.from_normal_distance([0, 0, 1.0], 3.0)
        n = base.normal
        if idx == 1 and angle_deg:
            from planegbp.geometry import so3_exp

            n = so3_exp(np.array([math.radians(angle_deg), 0, 0])) @ n
            n /= np.linalg.norm(n)
        d = base.distance + (offset if idx == 1 else 0.0)
        rb = g.add_variable(RIGID_BODY, pose.r, GaussianInfo(np.zeros(6), np.eye(6)))
        cons = []
        for i in range(8):
            uv = rng.uniform(-1, 1, size=2)
            p = n * d + np.array([uv[0] + (shift if idx == 1 else 0.0), uv[1], 0.0])
            p -= n * (n @ p - d)  # exact incidence
            pid = 100 * idx + i
            world[pid] = p
            mgr.absorbed[pid] = (rb, pose.inverse().apply(p))
            try:
                z = pixel(CAM, Pose.identity(), p)
            except Exception:
                continue  # rejected-merge cases may place points off-camera
            cons.append((z, mgr.absorbed[pid][1]))
        if cons:
            g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                         payload={"constituents": cons})
        pi_body = transform_plane(pose.inverse(), PlaneParams(n * d)).m
        g.add_factor(RIGID_PLANE_PREDICTION, (rb, kf), pi_body, 20.0,
                     payload={"pi_conv": pi_body})
        bodies.append(rb)
        means[rb] = pose.r.copy()
    return g, mgr, bodies, means, world


def test_merge_identical_coplanar_planes(rng):
    g, mgr, (a, b), means, world = rigid_plane_pair(rng)
    merged = mgr.merge_planes(a, b, means, iteration=0)
    assert merged is not None
    assert [v.id for v in g.variables_of_kind(RIGID_BODY)] == [merged]
    # every baked point moves to the merged body at its world position
    pi_new, points = rigid_plane(g, merged)
    assert len(points) == len(world)
    for p in points:
        assert min(np.linalg.norm(p - q) for q in world.values()) < 1e-10
    # merged-plane incidence within D_MERGE + 3 SIGMA_PP
    plane = PlaneParams(pi_new)
    tol = D_MERGE + 3 * SIGMA_PP
    for p in points:
        assert abs(plane.normal @ p - plane.distance) < tol
    g.check_integrity()


def test_merge_repoints_absorbed_points_at_their_world_positions(rng):
    pose = Pose(np.array([0.2, -0.1, 0.3, 0.05, -0.02, 0.1]))
    g, mgr, (a, b), means, world = rigid_plane_pair(rng, pose=pose)
    before = dict(mgr.absorbed)
    merged = mgr.merge_planes(a, b, means, iteration=0)
    assert merged is not None
    assert set(mgr.absorbed) == set(before)
    for pid, (body, p_conv) in mgr.absorbed.items():
        assert body == merged  # the merged body sits at the identity
        assert np.allclose(p_conv, world[pid], atol=1e-10)
        assert np.allclose(p_conv, pose.apply(before[pid][1]), atol=1e-12)
    # the table and the merged body's factors agree on every point
    _, points = rigid_plane(g, merged)
    for p in points:
        assert min(np.linalg.norm(p - q) for _, q in mgr.absorbed.values()) < 1e-12


def test_merge_normal_is_average(rng):
    g, mgr, (a, b), means, _ = rigid_plane_pair(rng, angle_deg=4.0)
    na = PlaneParams(rigid_plane(g, a)[0]).normal
    nb = PlaneParams(rigid_plane(g, b)[0]).normal
    merged = mgr.merge_planes(a, b, means, iteration=0)
    assert merged is not None
    avg = na + nb
    avg /= np.linalg.norm(avg)
    assert np.allclose(PlaneParams(rigid_plane(g, merged)[0]).normal, avg, atol=1e-12)


def test_merge_pass_merges_the_graphs_rigid_bodies(rng):
    g, mgr, (a, b), means, _ = rigid_plane_pair(rng)
    assert mgr.merge_pass(means, iteration=0) == 1
    (merged,) = g.variables_of_kind(RIGID_BODY)
    assert mgr.events[-1]["merged"] == [a, b]
    assert mgr.events[-1]["rigid_id"] == merged.id
    assert mgr.merge_pass(means, iteration=0) == 0  # a single body is left


def test_merge_rejects_perpendicular(rng):
    g, mgr, (a, b), means, _ = rigid_plane_pair(rng, angle_deg=90.0)
    assert mgr.merge_planes(a, b, means, iteration=0) is None


def test_merge_rejects_separated(rng):
    g, mgr, (a, b), means, _ = rigid_plane_pair(rng, offset=1.0)
    assert mgr.merge_planes(a, b, means, iteration=0) is None  # 1 m >> D_MERGE


def test_merge_rejects_disjoint_extents(rng):
    g, mgr, (a, b), means, _ = rigid_plane_pair(rng, shift=10.0)
    assert mgr.merge_planes(a, b, means, iteration=0) is None


# -- hull helpers ---------------------------------------------------------------------

def test_hull_sampling_and_containment(rng):
    square = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    hull = hull2d(np.concatenate([square, rng.uniform(0.2, 0.8, size=(30, 2))]))
    samples = sample_in_hull(rng, hull, 200)
    assert np.all(points_in_hull(hull, samples))
    outside = np.array([[2.0, 2.0], [-1.0, 0.5]])
    assert not np.any(points_in_hull(hull, outside))

    # The same draws and, per sample, the same arithmetic as a loop over the
    # fan's triangles, so the merge gate sees the same bits.
    polygon = hull2d(rng.normal(size=(12, 2)))
    draw = np.random.default_rng(5)
    a = polygon[0]
    areas = [abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]) / 2
             for b, c in zip(polygon[1:-1], polygon[2:])]
    choice = draw.choice(len(areas), size=50, p=np.array(areas) / np.sum(areas))
    r1, r2 = np.sqrt(draw.uniform(size=50)), draw.uniform(size=50)
    loop = np.array([(1 - r1[i]) * a + r1[i] * (1 - r2[i]) * polygon[t + 1]
                     + r1[i] * r2[i] * polygon[t + 2] for i, t in enumerate(choice)])
    assert np.array_equal(sample_in_hull(np.random.default_rng(5), polygon, 50), loop)


def test_hull_degenerate_collinear():
    line = np.stack([np.linspace(0, 1, 5), np.zeros(5)], axis=1)
    assert hull2d(line) is None
