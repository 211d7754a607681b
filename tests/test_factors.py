import numpy as np
import pytest

from planegbp.engine import GbpConfig, GbpEngine
from planegbp.errors import BehindCameraError, DegeneratePlaneError
from planegbp.gaussians import BlockLayout, GaussianInfo
from planegbp.geometry import CameraModel, PlaneParams, Pose, project, transform_plane
from planegbp.graph import (
    COMBINED_RIGID_REPROJECTION,
    KEYFRAME,
    PLANE_HYPOTHESIS,
    PLANE_POINT,
    PLANE_PREDICTION,
    POINT,
    PRIOR,
    REPROJECTION,
    RIGID_BODY,
    RIGID_PLANE_PREDICTION,
    RIGID_REPROJECTION,
    FactorGraph,
)
from planegbp.factors import (
    evaluate_factor,
    factor_energy,
    factor_stacks,
    linearise,
    linearise_batch,
    residual_plane_point,
    residual_plane_prediction,
    residual_reprojection,
    residual_rigid_plane_prediction,
    residual_rigid_reprojection,
    tukey_weight_batch,
)
from conftest import fd_jacobian

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


# -- single-instance residuals -------------------------------------------------

def test_reprojection_zero_at_exact_projection(rng):
    c = Pose(rng.normal(size=6) * 0.2)
    p = np.array([0.3, -0.1, 4.0])
    z = project(CAM, c, p)
    res = residual_reprojection(c, p, z, CAM)
    assert np.allclose(res.value, 0.0, atol=1e-12)


def test_reprojection_cheirality_flag():
    with pytest.raises(BehindCameraError):
        residual_reprojection(Pose.identity(), np.array([0, 0, -2.0]),
                              np.array([320.0, 240.0]), CAM)


def test_plane_point_examples():
    plane = PlaneParams.from_normal_distance([0, 0, 1], 1.0)
    on = residual_plane_point(np.array([5.0, 5.0, 1.0]), plane)
    assert np.allclose(on.value, 0.0, atol=1e-12)
    off = residual_plane_point(np.array([5.0, 5.0, 1.05]), plane)
    assert np.isclose(off.value[0], 0.05)


def test_plane_prediction_reductions(rng):
    plane = PlaneParams.from_normal_distance(rng.normal(size=3), 2.0)
    c = Pose(rng.normal(size=6) * 0.3)
    z = transform_plane(c, plane)  # exact measurement
    res = residual_plane_prediction(plane, c, z)
    assert np.allclose(res.value, 0.0, atol=1e-12)
    # identity keyframe reduces to boxminus
    z2 = PlaneParams.from_normal_distance(rng.normal(size=3), 1.5)
    res = residual_plane_prediction(plane, Pose.identity(), z2)
    assert np.allclose(res.value, z2.m - plane.m, atol=1e-12)


def test_rigid_factors_reduce_to_plain_at_identity(rng):
    # Baking converged parameters and evaluating at the identity body pose
    # reproduces the original residuals exactly.
    for _ in range(20):
        c = Pose(rng.normal(size=6) * 0.3)
        p_conv = rng.normal(size=3) + np.array([0, 0, 4.0])
        z = rng.uniform([0, 0], [CAM.width, CAM.height])
        plain = residual_reprojection(c, p_conv, z, CAM)
        rigid = residual_rigid_reprojection(c, Pose.identity(), z, p_conv, CAM)
        assert np.allclose(rigid.value, plain.value, atol=1e-10)

        pi_conv = PlaneParams.from_normal_distance(rng.normal(size=3), 2.0)
        z_pi = PlaneParams.from_normal_distance(rng.normal(size=3), 1.5)
        plain_p = residual_plane_prediction(pi_conv, c, z_pi)
        rigid_p = residual_rigid_plane_prediction(Pose.identity(), c, z_pi, pi_conv)
        assert np.allclose(rigid_p.value, plain_p.value, atol=1e-10)


def test_rigid_reprojection_translation_shifts_point():
    c = Pose.identity()
    p_conv = np.array([0.2, 0.1, 3.0])
    t = np.array([0.3, -0.2, 0.5])
    r = Pose(np.concatenate([t, np.zeros(3)]))
    z = np.zeros(2)
    shifted = residual_rigid_reprojection(c, r, z, p_conv, CAM)
    direct = residual_reprojection(c, p_conv + t, z, CAM)
    assert np.allclose(shifted.value, direct.value, atol=1e-12)


def test_rigid_plane_rotation_about_normal_preserves_distance(rng):
    pi_conv = PlaneParams.from_normal_distance([0.0, 0.0, 1.0], 2.0)
    z_pi = PlaneParams.from_normal_distance([0.1, 0.0, 1.0], 2.1)
    c = Pose.identity()
    base = residual_rigid_plane_prediction(Pose.identity(), c, z_pi, pi_conv)
    spun = residual_rigid_plane_prediction(
        Pose(np.array([0, 0, 0, 0, 0, 0.9])), c, z_pi, pi_conv
    )
    # rotating the body about the plane normal leaves the plane unchanged
    assert np.allclose(spun.value, base.value, atol=1e-12)


# -- Jacobian suite -------------------------------------------------------------

def _check_jacobian(value_fun, x0, J, tol=1e-5):
    Jf = fd_jacobian(value_fun, x0)
    err = np.max(np.abs(J - Jf) / (np.abs(Jf) + 1.0))
    return err


N_JAC = 250  # per-kind instances here; the acceptance suite runs 1000


@pytest.mark.parametrize("kind", [
    "reprojection", "plane_point", "plane_prediction",
    "rigid_reprojection", "rigid_plane_prediction",
])
def test_analytic_jacobians_match_finite_differences(kind, rng):
    worst = 0.0
    n = 0
    while n < N_JAC:
        c = Pose(rng.normal(size=6) * 0.3)
        r = Pose(rng.normal(size=6) * 0.3)
        p = rng.normal(size=3) + np.array([0, 0, 4.0])
        plane = PlaneParams.from_normal_distance(rng.normal(size=3), rng.uniform(1, 3))
        z_pi = PlaneParams.from_normal_distance(rng.normal(size=3), rng.uniform(1, 3))
        z = rng.uniform([0, 0], [CAM.width, CAM.height])
        try:
            if kind == "reprojection":
                res = residual_reprojection(c, p, z, CAM)
                worst = max(worst, _check_jacobian(
                    lambda x: residual_reprojection(Pose(x), p, z, CAM).value,
                    c.r, res.jacobians["pose"]))
                worst = max(worst, _check_jacobian(
                    lambda x: residual_reprojection(c, x, z, CAM).value,
                    p, res.jacobians["point"]))
            elif kind == "plane_point":
                res = residual_plane_point(p, plane)
                worst = max(worst, _check_jacobian(
                    lambda x: residual_plane_point(p, PlaneParams(x)).value,
                    plane.m, res.jacobians["plane"]))
                worst = max(worst, _check_jacobian(
                    lambda x: residual_plane_point(x, plane).value,
                    p, res.jacobians["point"]))
            elif kind == "plane_prediction":
                res = residual_plane_prediction(plane, c, z_pi)
                worst = max(worst, _check_jacobian(
                    lambda x: residual_plane_prediction(PlaneParams(x), c, z_pi).value,
                    plane.m, res.jacobians["plane"]))
                worst = max(worst, _check_jacobian(
                    lambda x: residual_plane_prediction(plane, Pose(x), z_pi).value,
                    c.r, res.jacobians["pose"]))
            elif kind == "rigid_reprojection":
                res = residual_rigid_reprojection(c, r, z, p, CAM)
                worst = max(worst, _check_jacobian(
                    lambda x: residual_rigid_reprojection(Pose(x), r, z, p, CAM).value,
                    c.r, res.jacobians["pose"]))
                worst = max(worst, _check_jacobian(
                    lambda x: residual_rigid_reprojection(c, Pose(x), z, p, CAM).value,
                    r.r, res.jacobians["rigid"]))
            else:
                res = residual_rigid_plane_prediction(r, c, z_pi, plane)
                worst = max(worst, _check_jacobian(
                    lambda x: residual_rigid_plane_prediction(Pose(x), c, z_pi, plane).value,
                    r.r, res.jacobians["rigid"]))
                worst = max(worst, _check_jacobian(
                    lambda x: residual_rigid_plane_prediction(r, Pose(x), z_pi, plane).value,
                    c.r, res.jacobians["pose"]))
        except (BehindCameraError, DegeneratePlaneError):
            continue
        n += 1
    assert worst < 1e-5


# -- robust loss -----------------------------------------------------------------

def test_tukey_weight_examples():
    c = 4.685
    w = tukey_weight_batch(np.array([0.0, c * 1.01, c / 2]), c)
    assert w[0] == 1.0
    assert w[1] == 0.0
    assert np.isclose(w[2], 0.5625)


# -- linearisation ----------------------------------------------------------------

def ba_test_graph(rng, n_kf=2, n_pts=5, robust=None):
    g = FactorGraph(camera=CAM)
    kfs, pts = [], []
    for k in range(n_kf):
        r = np.concatenate([rng.normal(size=3) * 0.1, rng.normal(size=3) * 0.05])
        kfs.append(g.add_variable(KEYFRAME, r))
    for i in range(n_pts):
        p = rng.normal(size=3) * 0.5 + np.array([0, 0, 4.0])
        pts.append(g.add_variable(POINT, p))
    for kf in kfs:
        for p in pts:
            pose = Pose(g.variables[kf].mean)
            z = project(CAM, pose, g.variables[p].mean) + rng.normal(size=2)
            g.add_factor(REPROJECTION, (kf, p), z, 2.0, robust=robust)
    return g, kfs, pts


def test_prior_factor_linearisation():
    g = FactorGraph(camera=CAM)
    v = g.add_variable(POINT, np.zeros(3))
    z = np.array([1.0, 2.0, 3.0])
    fid = g.add_factor(PRIOR, (v,), z, 0.5)
    out = linearise(g, g.factors[fid], {v: np.array([9.0, 9.0, 9.0])})
    assert np.allclose(out.lam, np.eye(3) / 0.25)
    assert np.allclose(out.eta, z / 0.25)


def test_linear_factor_independent_of_linearisation_point(rng):
    g = FactorGraph()
    a = g.add_variable(POINT, np.zeros(3))
    A = rng.normal(size=(2, 3))
    fid = g.add_factor("linear", (a,), rng.normal(size=2), [1.0, 1.0],
                       payload={"A": A})
    out1 = linearise(g, g.factors[fid], {a: rng.normal(size=3)})
    out2 = linearise(g, g.factors[fid], {a: rng.normal(size=3)})
    assert out1.allclose(out2)


def test_gauss_newton_assembly_matches_dense_oracle(rng):
    # scatter of per-factor linearisations == hand-rolled J^T S^-1 J assembly
    g, kfs, pts = ba_test_graph(rng)
    means = {vid: v.mean.copy() for vid, v in g.variables.items()}
    layout = BlockLayout.from_dims(
        (vid, g.variables[vid].dim) for vid in sorted(g.variables)
    )
    dim = layout.dim
    eta_a = np.zeros(dim)
    lam_a = np.zeros((dim, dim))
    for fac in g.factors.values():
        lin = linearise(g, fac, means)
        sls = [layout.slice_of(v) for v in fac.adjacency]
        offs = np.cumsum([0] + [g.variables[v].dim for v in fac.adjacency])
        for i, si in enumerate(sls):
            eta_a[si] += lin.eta[offs[i]:offs[i + 1]]
            for j, sj in enumerate(sls):
                lam_a[si, sj] += lin.lam[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]

    eta_o = np.zeros(dim)
    lam_o = np.zeros((dim, dim))
    for fac in g.factors.values():
        res = evaluate_factor(g, fac, means)
        J = np.concatenate([res.jacobians[v] for v in fac.adjacency], axis=1)
        S_inv = np.eye(2) / fac.sigma[0] ** 2
        idx = np.concatenate([np.arange(s.start, s.stop)
                              for s in (layout.slice_of(v) for v in fac.adjacency)])
        lam_o[np.ix_(idx, idx)] += J.T @ S_inv @ J
        eta_o[idx] += J.T @ S_inv @ (J @ res.x0 - res.value)
    assert np.allclose(lam_a, lam_o, rtol=1e-9, atol=1e-9)
    assert np.allclose(eta_a, eta_o, rtol=1e-9, atol=1e-9)


def test_outlier_flag_yields_zero_information(rng):
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, np.zeros(6))
    p = g.add_variable(POINT, np.array([0.0, 0.0, -3.0]))  # behind the camera
    fid = g.add_factor(REPROJECTION, (kf, p), np.array([320.0, 240.0]), 2.0)
    out = linearise(g, g.factors[fid], {kf: np.zeros(6), p: np.array([0, 0, -3.0])})
    assert out.is_zero()
    stack = factor_stacks(g, [g.factors[fid]])[0]
    _, _, w = linearise_batch(stack, CAM, np.array([[0.0] * 6 + [0.0, 0.0, -3.0]]))
    assert w[0] == 0.0


def test_tukey_zero_weight_factor(rng):
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, np.zeros(6))
    p = g.add_variable(POINT, np.array([0.0, 0.0, 4.0]))
    z_true = project(CAM, Pose.identity(), np.array([0, 0, 4.0]))
    fid = g.add_factor(REPROJECTION, (kf, p), z_true + 200.0, 2.0, robust="tukey")
    out = linearise(g, g.factors[fid], {kf: np.zeros(6), p: np.array([0, 0, 4.0])})
    assert out.is_zero()


# -- relinearisation and energy ----------------------------------------------------

def test_needs_relinearisation_thresholds(rng):
    # The engine's drift rule on one reprojection factor: linearised when it
    # never was, then again only once its means drift more than beta (L1).
    g, kfs, pts = ba_test_graph(rng, n_kf=1, n_pts=1)
    eng = GbpEngine(g, GbpConfig(beta=1e-4))
    (b,) = eng.batches
    assert eng._relinearise(b) == 1  # never linearised
    assert eng._relinearise(b) == 0
    bank = eng.banks[3]
    row = bank.rows_of([pts[0]])[0]
    bank.mean[row] = bank.mean[row] + np.array([0.5e-4, 0, 0])
    assert eng._relinearise(b) == 0
    bank.mean[row] = bank.mean[row] + np.array([1.5e-4, 0, 0])
    assert eng._relinearise(b) == 1
    assert np.array_equal(b.x0[0, 6:], bank.mean[row])


def test_prior_never_needs_relinearisation():
    g = FactorGraph()
    v = g.add_variable(POINT, np.zeros(3))
    g.add_factor(PRIOR, (v,), np.zeros(3), 1.0)
    eng = GbpEngine(g, GbpConfig(beta=1e-4))
    (b,) = eng.batches
    x0, eta = b.x0.copy(), b.eta.copy()
    eng.banks[3].mean[eng.banks[3].rows_of([v])[0]] = np.full(3, 100.0)
    assert eng._relinearise(b) == 0
    assert np.array_equal(b.x0, x0) and np.array_equal(b.eta, eta)


def test_factor_energy_examples(rng):
    g = FactorGraph(camera=CAM)
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 1.0]))
    p = g.add_variable(POINT, np.array([0.0, 0.0, 1.05]))
    fid = g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    means = {plane: np.array([0, 0, 1.0]), p: np.array([0.0, 0.0, 1.05])}
    # deviation 0.05 m at sigma 0.05 m: energy is half of one squared sigma
    assert np.isclose(factor_energy(g, g.factors[fid], means), 0.5)
    means[p] = np.array([0.0, 0.0, 1.0])
    assert np.isclose(factor_energy(g, g.factors[fid], means), 0.0)


def test_combined_factor_matches_constituents(rng):
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, rng.normal(size=6) * 0.1)
    rb = g.add_variable(RIGID_BODY, rng.normal(size=6) * 0.1)
    cons = []
    for _ in range(4):
        p_conv = rng.normal(size=3) + np.array([0, 0, 4.0])
        z = rng.uniform([0, 0], [CAM.width, CAM.height])
        cons.append((z, p_conv))
    singles = [
        g.add_factor(RIGID_REPROJECTION, (kf, rb), z, 2.0, payload={"p_conv": p})
        for z, p in cons
    ]
    combined = g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                            payload={"constituents": cons})
    means = {kf: g.variables[kf].mean, rb: g.variables[rb].mean}
    lin_c = linearise(g, g.factors[combined], means)
    total = GaussianInfo.zero(12)
    for fid in singles:
        lin = linearise(g, g.factors[fid], means)
        total = GaussianInfo(total.eta + lin.eta, total.lam + lin.lam)
    assert np.allclose(lin_c.eta, total.eta, rtol=1e-10, atol=1e-10)
    assert np.allclose(lin_c.lam, total.lam, rtol=1e-10, atol=1e-10)
    e_c = factor_energy(g, g.factors[combined], means)
    e_s = sum(factor_energy(g, g.factors[fid], means) for fid in singles)
    assert np.isclose(e_c, e_s, rtol=1e-12)


# -- batched linearisation against the per-factor loop reference -----------------

def tukey_weight_loop(rho, c):
    if rho > c:
        return 0.0
    x = rho / c
    return (1.0 - x * x) ** 2


def residual_rows_loop(g, fac, means):
    """Per-row (value, J) through the single-instance API; None for an
    invalid row. Linear kinds are written out directly."""
    p = [np.asarray(means[v], float) for v in fac.adjacency]
    z = fac.measurement
    kind = fac.kind
    try:
        if kind == PRIOR:
            return [(p[0] - z, np.eye(p[0].shape[0]))]
        if kind == "linear":
            A = fac.payload["A"]
            return [(z - A @ np.concatenate(p), -A)]
        if kind == REPROJECTION:
            r = residual_reprojection(Pose(p[0]), p[1], z, CAM)
            return [(r.value, np.hstack([r.jacobians["pose"], r.jacobians["point"]]))]
        if kind == PLANE_POINT:
            r = residual_plane_point(p[1], PlaneParams(p[0]))
            return [(r.value, np.hstack([r.jacobians["plane"], r.jacobians["point"]]))]
        if kind == PLANE_PREDICTION:
            r = residual_plane_prediction(PlaneParams(p[0]), Pose(p[1]), PlaneParams(z))
            return [(r.value, np.hstack([r.jacobians["plane"], r.jacobians["pose"]]))]
        if kind == RIGID_PLANE_PREDICTION:
            r = residual_rigid_plane_prediction(Pose(p[0]), Pose(p[1]), PlaneParams(z),
                                                PlaneParams(fac.payload["pi_conv"]))
            return [(r.value, np.hstack([r.jacobians["rigid"], r.jacobians["pose"]]))]
        if kind == RIGID_REPROJECTION:
            r = residual_rigid_reprojection(Pose(p[0]), Pose(p[1]), z,
                                            fac.payload["p_conv"], CAM)
            return [(r.value, np.hstack([r.jacobians["pose"], r.jacobians["rigid"]]))]
    except (BehindCameraError, DegeneratePlaneError):
        return [None]
    rows = []
    for zc, pc in fac.constituents():
        try:
            r = residual_rigid_reprojection(Pose(p[0]), Pose(p[1]), zc, pc, CAM)
            rows.append((r.value, np.hstack([r.jacobians["pose"], r.jacobians["rigid"]])))
        except BehindCameraError:
            rows.append(None)
    return rows


def linearise_loop(g, fac, means):
    """Reference (eta, lam, weight): one factor at a time, one row at a time,
    with the scalar Tukey weight; a combined factor sums its constituents."""
    x0 = np.concatenate([np.asarray(means[v], float) for v in fac.adjacency])
    D = x0.shape[0]
    eta, lam, wsum = np.zeros(D), np.zeros((D, D)), 0.0
    rows = residual_rows_loop(g, fac, means)
    linear = fac.kind in (PRIOR, "linear")
    for row in rows:
        if row is None:
            continue
        v, J = row
        inv_var = 1.0 / fac.sigma**2
        rho = float(np.sqrt(np.sum(v**2 * inv_var)))
        w = 1.0
        if fac.robust == "tukey" and not linear:
            w = tukey_weight_loop(rho, fac.robust_scale)
        Jw = J * (inv_var * w)[:, None]
        lam += J.T @ Jw
        eta += Jw.T @ (J @ x0 - v)
        wsum += w
    return eta, 0.5 * (lam + lam.T), wsum / len(rows)


def seen_from(g, kf, rb, p_conv):
    body = Pose(g.variables[rb].mean).apply(p_conv[None])[0]
    return project(CAM, Pose(g.variables[kf].mean), body)


def every_kind_graph(rng):
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, np.concatenate([rng.normal(size=3) * 0.1,
                                                  rng.normal(size=3) * 0.05]))
    kf2 = g.add_variable(KEYFRAME, rng.normal(size=6) * 0.05)
    pts = [g.add_variable(POINT, rng.normal(size=3) * 0.5 + [0, 0, 4.0]) for _ in range(4)]
    behind = g.add_variable(POINT, np.array([0.1, 0.0, -3.0]))
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0.05, -0.02, 4.0]))
    rb = g.add_variable(RIGID_BODY, rng.normal(size=6) * 0.05)
    for robust in (None, "tukey"):
        for p in pts:
            z = project(CAM, Pose(g.variables[kf].mean), g.variables[p].mean)
            g.add_factor(REPROJECTION, (kf, p), z + rng.normal(size=2) * 6.0, 2.0,
                         robust=robust)
        g.add_factor(REPROJECTION, (kf, behind), np.array([320.0, 240.0]), 2.0,
                     robust=robust)
        for p in pts[:3]:
            g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.3, robust=robust)
        g.add_factor(PLANE_PREDICTION, (plane, kf2), rng.normal(size=3) * 0.1 + [0, 0, 4.0],
                     0.5, robust=robust)
        g.add_factor(RIGID_PLANE_PREDICTION, (rb, kf), rng.normal(size=3) * 0.1 + [0, 0, 4.0],
                     0.1, payload={"pi_conv": np.array([0.0, 0.1, 4.0])}, robust=robust)
        pc = rng.normal(size=3) * 0.3 + [0, 0, 4.0]
        g.add_factor(RIGID_REPROJECTION, (kf2, rb),
                     seen_from(g, kf2, rb, pc) + rng.normal(size=2) * 3.0, 2.0,
                     payload={"p_conv": pc}, robust=robust)
        cons = [(seen_from(g, kf, rb, pc) + rng.normal(size=2) * 3.0, pc)
                for pc in rng.normal(size=(4, 3)) * 0.3 + [0, 0, 4.0]]
        cons.append((np.array([320.0, 240.0]), np.array([0.0, 0.0, -6.0])))  # behind
        g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                     payload={"constituents": cons}, robust=robust)
    g.add_factor(PRIOR, (pts[0],), rng.normal(size=3), 0.5)
    A = rng.normal(size=(4, 9))
    g.add_factor("linear", (kf, pts[1]), rng.normal(size=4), 0.7, payload={"A": A})
    g.add_factor("linear", (pts[2],), rng.normal(size=3), 0.7,
                 payload={"A": rng.normal(size=(3, 3))})
    return g


def assert_close(a, b, tol=1e-12):
    assert np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


def test_batched_linearisation_matches_loop_reference(rng):
    g = every_kind_graph(rng)
    means = {vid: v.mean for vid, v in g.variables.items()}
    kinds = set()
    for stack in factor_stacks(g):
        X = np.stack([np.concatenate([means[v] for v in adj]) for adj in stack.adjacency])
        eta, lam, w = linearise_batch(stack, CAM, X)
        for i, fac in enumerate(stack.nodes):
            ref_eta, ref_lam, ref_w = linearise_loop(g, fac, means)
            assert_close(eta[i], ref_eta)
            assert_close(lam[i], ref_lam)
            assert np.isclose(w[i], ref_w, rtol=1e-12, atol=1e-12)
            kinds.add((fac.kind, fac.robust))
        # a subset of the factors, as the engine relinearises them
        rows = np.arange(stack.n)[::2]
        sub = linearise_batch(stack, CAM, X[rows], rows)
        for full, part in zip((eta, lam, w), sub):
            assert np.array_equal(full[rows], part)
    assert len(kinds) == 14  # six measurement kinds with and without Tukey, prior, linear


def test_one_factor_linearise_is_the_batched_path(rng):
    g = every_kind_graph(rng)
    means = {vid: v.mean for vid, v in g.variables.items()}
    for fac in g.factors.values():
        out = linearise(g, fac, means)
        ref_eta, ref_lam, ref_w = linearise_loop(g, fac, means)
        assert_close(out.eta, ref_eta)
        assert_close(out.lam, ref_lam)
        x0 = np.concatenate([means[v] for v in fac.adjacency])
        eta, lam, w = linearise_batch(factor_stacks(g, [fac])[0], CAM, x0[None])
        assert np.array_equal(out.eta, eta[0]) and np.array_equal(out.lam, lam[0])
        assert np.isclose(w[0], ref_w, rtol=1e-12, atol=1e-12)
