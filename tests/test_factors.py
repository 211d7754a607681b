import ast
import inspect
import textwrap

import numpy as np
import pytest

from planegbp import factors, geometry
from planegbp.engine import GbpConfig, GbpEngine
from planegbp.errors import ContractViolation
from planegbp.gaussians import BlockLayout, GaussianInfo
from planegbp.geometry import (
    CameraModel,
    PlaneParams,
    Pose,
    pose_rotations_batch,
    transform_plane,
)
from planegbp.graph import (
    COMBINED_RIGID_REPROJECTION,
    FACTOR_KINDS,
    KEYFRAME,
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
from planegbp.factors import (
    HUBER_C,
    TUKEY_C,
    FactorStack,
    compile_graph,
    evaluate_factor,
    group_factors,
    linearise_batch,
    robust_cost,
    robust_weight,
)
from conftest import energy_one, fd_jacobian, linearise_one, one_factor, own_poses, pixel

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def row(kind, z, *variables, **payload):
    """(value, joint Jacobian, valid) of one row of the kind's registered kernel.

    Each pose slot is passed as the kernel takes it: as PoseRows, with the
    rotation and right Jacobian of the pose's own rotation vector.
    """
    spec = FACTOR_KINDS[kind]
    kernel = getattr(factors, spec.kernel)
    params = [np.asarray(v, float)[None] for v in variables]
    for pos in spec.pose_slots:
        params[pos] = factors.PoseRows(params[pos][:, :3], *pose_rotations_batch(params[pos]))
    args = [z, *(payload[key] for key, _ in spec.payload)]
    value, J, valid = kernel(CAM, *(np.asarray(a, float)[None] for a in args), *params)
    return value[0], J[0], bool(valid[0])


# -- one-row residuals -----------------------------------------------------------

def test_reprojection_zero_at_exact_projection(rng):
    c = Pose(rng.normal(size=6) * 0.2)
    p = np.array([0.3, -0.1, 4.0])
    value, _, valid = row(REPROJECTION, pixel(CAM, c, p), c.r, p)
    assert valid and np.allclose(value, 0.0, atol=1e-12)


def test_reprojection_cheirality_flag():
    _, _, valid = row(REPROJECTION, [320.0, 240.0], np.zeros(6), [0, 0, -2.0])
    assert not valid


def test_plane_point_examples():
    plane = PlaneParams.from_normal_distance([0, 0, 1], 1.0)
    on, _, _ = row(PLANE_POINT, [0.0], plane.m, [5.0, 5.0, 1.0])
    assert np.allclose(on, 0.0, atol=1e-12)
    off, _, _ = row(PLANE_POINT, [0.0], plane.m, [5.0, 5.0, 1.05])
    assert np.isclose(off[0], 0.05)


def test_plane_prediction_reductions(rng):
    plane = PlaneParams.from_normal_distance(rng.normal(size=3), 2.0)
    c = Pose(rng.normal(size=6) * 0.3)
    z = transform_plane(c, plane)  # exact measurement
    value, _, _ = row(PLANE_PREDICTION, z.m, plane.m, c.r)
    assert np.allclose(value, 0.0, atol=1e-12)
    # identity keyframe reduces to the difference of the minimal parameters
    z2 = PlaneParams.from_normal_distance(rng.normal(size=3), 1.5)
    value, _, _ = row(PLANE_PREDICTION, z2.m, plane.m, np.zeros(6))
    assert np.allclose(value, z2.m - plane.m, atol=1e-12)


def test_rigid_factors_reduce_to_plain_at_identity(rng):
    # Baking converged parameters and evaluating at the identity body pose
    # reproduces the original rows: the rigid reprojection bit for bit, with
    # a body-rotation block of d value / d point @ -hat(p), and the rigid
    # plane prediction to rounding, with the same validity. Points behind the
    # camera and planes degenerate before or after the camera's move included.
    n = 200
    c = rng.normal(size=(n, 6)) * 0.3
    p_conv = rng.normal(size=(n, 3)) + np.array([0, 0, 4.0])
    p_conv[::5, 2] *= -1.0
    z = rng.uniform([0, 0], [CAM.width, CAM.height], size=(n, 2))
    pi_conv = rng.normal(size=(n, 3)) * 2.0
    pi_conv[::7] = 0.0
    c[1::9, 3:] = 0.0
    c[1::9, :3] = -pi_conv[1::9]
    z_pi = rng.normal(size=(n, 3))
    cam_rows = factors.PoseRows(c[:, :3], *pose_rotations_batch(c))
    body = factors.PoseRows(np.zeros((n, 3)), *pose_rotations_batch(np.zeros((n, 6))))

    value, J, valid = factors.eval_reprojection_batch(CAM, z, cam_rows, p_conv)
    value_r, J_r, valid_r = factors.eval_rigid_reprojection_batch(CAM, z, p_conv, cam_rows, body)
    assert not valid.all() and valid.any()
    assert np.array_equal(value_r, value) and np.array_equal(valid_r, valid)
    assert np.array_equal(J_r[:, :, :9], J)
    assert np.array_equal(J_r[:, :, 9:], J[:, :, 6:9] @ -geometry.so3_hat_batch(p_conv))

    value, J, valid = factors.eval_plane_prediction_batch(CAM, z_pi, pi_conv, cam_rows)
    value_r, J_r, valid_r = factors.eval_rigid_plane_prediction_batch(
        CAM, z_pi, pi_conv, body, cam_rows)
    assert not valid.all() and valid.any() and not valid[1::9].any()
    assert np.array_equal(valid_r, valid)
    assert np.allclose(value_r, value, rtol=0.0, atol=1e-12)


def test_rigid_reprojection_translation_shifts_point():
    p_conv = np.array([0.2, 0.1, 3.0])
    t = np.array([0.3, -0.2, 0.5])
    r = np.concatenate([t, np.zeros(3)])
    shifted, _, _ = row(COMBINED_RIGID_REPROJECTION, np.zeros(2), np.zeros(6), r,
                        p_conv=p_conv)
    direct, _, _ = row(REPROJECTION, np.zeros(2), np.zeros(6), p_conv + t)
    assert np.allclose(shifted, direct, atol=1e-12)


def test_rigid_plane_rotation_about_normal_preserves_distance(rng):
    pi_conv = PlaneParams.from_normal_distance([0.0, 0.0, 1.0], 2.0).m
    z_pi = PlaneParams.from_normal_distance([0.1, 0.0, 1.0], 2.1).m
    c = np.zeros(6)
    base, _, _ = row(RIGID_PLANE_PREDICTION, z_pi, np.zeros(6), c, pi_conv=pi_conv)
    spun, _, _ = row(RIGID_PLANE_PREDICTION, z_pi, np.array([0, 0, 0, 0, 0, 0.9]), c,
                     pi_conv=pi_conv)
    # rotating the body about the plane normal leaves the plane unchanged
    assert np.allclose(spun, base, atol=1e-12)


# -- Jacobian suite -------------------------------------------------------------

def _plane(rng):
    return PlaneParams.from_normal_distance(rng.normal(size=3), rng.uniform(1, 3)).m


def _point(rng):
    return rng.normal(size=3) + np.array([0, 0, 4.0])


# Samplers per variable kind (adjacency slots) and per payload key.
SAMPLE = {
    KEYFRAME: lambda rng: rng.normal(size=6) * 0.3,
    RIGID_BODY: lambda rng: rng.normal(size=6) * 0.3,
    POINT: _point,
    PLANE_HYPOTHESIS: _plane,
    "p_conv": _point,
    "pi_conv": _plane,
}

N_JAC = 250  # per-kind instances here; the acceptance suite runs 1000


@pytest.mark.parametrize("kind", [
    kind for kind, spec in FACTOR_KINDS.items() if not spec.linear
])
def test_analytic_jacobians_match_finite_differences(kind, rng):
    # Every nonlinear kind's kernel against central differences of itself,
    # at random valid rows (a constituent's row for a combined kind); the
    # measurement does not enter the Jacobian.
    spec = FACTOR_KINDS[kind]
    worst = 0.0
    n = 0
    while n < N_JAC:
        z = rng.normal(size=spec.mdim)
        payload = {key: SAMPLE[key](rng) for key, _ in spec.payload}
        variables = [SAMPLE[var_kind](rng) for var_kind in spec.signature]
        x0 = np.concatenate(variables)
        splits = np.cumsum([v.shape[0] for v in variables])[:-1]
        _, J, valid = row(kind, z, *variables, **payload)
        if not valid:
            continue
        Jf = fd_jacobian(lambda x: row(kind, z, *np.split(x, splits), **payload)[0], x0)
        worst = max(worst, np.max(np.abs(J - Jf) / (np.abs(Jf) + 1.0)))
        n += 1
    assert worst < 1e-5


def test_no_kernel_computes_a_rotation():
    # Kernels receive each pose slot's rotation and right Jacobian from the
    # caller of evaluate_rows, which computes them once per pose: nothing in
    # the factors module, nor the plane transform the kernels call,
    # names the SO(3) exponential or its right Jacobian.
    banned = {"so3_exp", "so3_exp_batch", "_so3"}
    for source in (inspect.getsource(factors),
                   inspect.getsource(geometry.transform_plane_batch)):
        names = set()
        for node in ast.walk(ast.parse(textwrap.dedent(source))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & banned


# -- robust loss -----------------------------------------------------------------

def test_robust_weight_examples():
    c = TUKEY_C
    w = robust_weight("tukey", np.array([0.0, c * 1.01, c / 2, c]))
    assert w[0] == 1.0
    assert w[1] == 0.0
    assert np.isclose(w[2], 0.5625)
    assert w[3] == 0.0
    c = HUBER_C
    w = robust_weight("huber", np.array([0.0, c, 2 * c, 4 * c]))
    assert np.array_equal(w, [1.0, 1.0, 0.5, 0.25])
    rho = np.array([0.0, 1.0, 1e6])
    assert np.array_equal(robust_weight("none", rho), np.ones(3))
    for kernel in (None, "cauchy"):
        with pytest.raises(ContractViolation, match="kernel"):
            robust_weight(kernel, rho)
    # LM's costs: Huber's is quadratic up to c and linear beyond, with one slope
    assert np.allclose(robust_cost("huber", np.array([0.0, c, 2 * c])),
                       [0.0, 0.5 * c * c, 1.5 * c * c], rtol=1e-15, atol=0)
    assert np.array_equal(robust_cost("none", rho), 0.5 * rho * rho)
    for kernel in (None, "tukey"):
        with pytest.raises(ContractViolation, match="kernel"):
            robust_cost(kernel, rho)


# -- linearisation ----------------------------------------------------------------

def ba_test_graph(rng, n_kf=2, n_pts=5):
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
            z = pixel(CAM, pose, g.variables[p].mean) + rng.normal(size=2)
            g.add_factor(REPROJECTION, (kf, p), z, 2.0)
    return g, kfs, pts


def test_prior_factor_linearisation():
    g = FactorGraph(camera=CAM)
    v = g.add_variable(POINT, np.zeros(3))
    z = np.array([1.0, 2.0, 3.0])
    fid = g.add_factor(PRIOR, (v,), z, 0.5)
    out = linearise_one(g, g.factors[fid], {v: np.array([9.0, 9.0, 9.0])})
    assert np.allclose(out.lam, np.eye(3) / 0.25)
    assert np.allclose(out.eta, z / 0.25)


def test_linear_factor_independent_of_linearisation_point(rng):
    g = FactorGraph()
    a = g.add_variable(POINT, np.zeros(3))
    A = rng.normal(size=(2, 3))
    fid = g.add_factor("linear", (a,), rng.normal(size=2), [1.0, 1.0],
                       payload={"A": A})
    out1 = linearise_one(g, g.factors[fid], {a: rng.normal(size=3)})
    out2 = linearise_one(g, g.factors[fid], {a: rng.normal(size=3)})
    assert out1.allclose(out2)


def test_gauss_newton_assembly_matches_dense_oracle(rng):
    # scatter of per-factor linearisations == hand-rolled J^T S^-1 J assembly,
    # each reprojection with Tukey's weight
    g, kfs, pts = ba_test_graph(rng)
    means = {vid: v.mean.copy() for vid, v in g.variables.items()}
    layout = BlockLayout.from_dims(
        (vid, g.variables[vid].dim) for vid in sorted(g.variables)
    )
    dim = layout.dim
    eta_a = np.zeros(dim)
    lam_a = np.zeros((dim, dim))
    for fac in g.factors.values():
        lin = linearise_one(g, fac, means)
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
        rho = np.sqrt(np.sum((res.value / fac.sigma) ** 2))
        S_inv = np.eye(2) * tukey_weight_loop(rho, TUKEY_C) / fac.sigma[0] ** 2
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
    out = linearise_one(g, g.factors[fid], {kf: np.zeros(6), p: np.array([0, 0, -3.0])})
    assert not (np.any(out.eta) or np.any(out.lam))
    stack = compile_graph(g, [g.factors[fid]])[1][0]
    X = np.array([[0.0] * 6 + [0.0, 0.0, -3.0]])
    _, _, w = linearise_batch(*own_poses(stack, X))
    assert w[0] == 0.0


def test_exact_kind_is_evaluated_once_at_zero(monkeypatch):
    # an exact kind's kernel runs once per linearisation, at 0 whatever X
    calls = []
    kernel = factors.eval_prior_batch
    monkeypatch.setattr(factors, "eval_prior_batch",
                        lambda *a, **kw: calls.append(a[2].copy()) or kernel(*a, **kw))
    g = FactorGraph(camera=CAM)
    v = g.add_variable(POINT, np.ones(3))
    g.add_factor(PRIOR, (v,), np.array([1.0, 2.0, 3.0]), 0.5)
    stack = compile_graph(g)[1][0]
    eta, lam, w = linearise_batch(stack, np.full((1, 3), 7.0), None)
    assert len(calls) == 1 and not np.any(calls[0])
    assert np.array_equal(eta[0], [4.0, 8.0, 12.0])
    assert np.array_equal(lam[0], 4.0 * np.eye(3)) and w[0] == 1.0


def test_degenerate_baked_plane_yields_zero_information():
    # a rigid plane-prediction factor baked from a plane at the origin is
    # invalid: zero weight and finite, zero information, never NaN
    g = FactorGraph(camera=CAM)
    rb = g.add_variable(RIGID_BODY, np.zeros(6), GaussianInfo(np.zeros(6), np.eye(6)))
    kf = g.add_variable(KEYFRAME, np.zeros(6), GaussianInfo(np.zeros(6), np.eye(6)))
    fid = g.add_factor(RIGID_PLANE_PREDICTION, (rb, kf), np.array([0.0, 0.0, 3.0]), 0.2,
                       payload={"pi_conv": np.zeros(3)})
    stack = compile_graph(g, [g.factors[fid]])[1][0]
    eta, lam, w = linearise_batch(*own_poses(stack, np.zeros((1, 12))))
    assert w[0] == 0.0
    assert np.all(np.isfinite(eta)) and np.all(np.isfinite(lam))
    eng = GbpEngine(g, GbpConfig(damping=0.0, dropout=0.0))
    eng.iterate()
    eng.sync_graph()
    for vid in (rb, kf):
        belief = g.variables[vid].belief
        assert np.all(np.isfinite(belief.eta)) and np.all(np.isfinite(belief.lam))


def test_tukey_zero_weight_factor(rng):
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, np.zeros(6))
    p = g.add_variable(POINT, np.array([0.0, 0.0, 4.0]))
    z_true = pixel(CAM, Pose.identity(), np.array([0, 0, 4.0]))
    fid = g.add_factor(REPROJECTION, (kf, p), z_true + 200.0, 2.0)
    out = linearise_one(g, g.factors[fid], {kf: np.zeros(6), p: np.array([0, 0, 4.0])})
    assert not (np.any(out.eta) or np.any(out.lam))


# -- relinearisation and energy ----------------------------------------------------

def test_needs_relinearisation_thresholds(rng):
    # The engine's drift rule on one reprojection factor: linearised when it
    # never was, then again only once its means drift more than beta (L1).
    g, kfs, pts = ba_test_graph(rng, n_kf=1, n_pts=1)
    eng = GbpEngine(g, GbpConfig(beta=1e-4))
    (b,) = eng.batches
    rot = eng._rotations(want_jac=True)
    assert eng._relinearise(b, np.arange(b.n), rot) == 1  # never linearised
    assert eng._relinearise(b, np.arange(b.n), rot) == 0
    bank = eng.banks[3]
    row = bank.rows_of([pts[0]])[0]
    bank.mean[row] = bank.mean[row] + np.array([0.5e-4, 0, 0])
    assert eng._relinearise(b, np.arange(b.n), rot) == 0
    bank.mean[row] = bank.mean[row] + np.array([1.5e-4, 0, 0])
    assert eng._relinearise(b, np.arange(b.n), rot) == 1
    assert np.array_equal(b.x0[0, 6:], bank.mean[row])


def test_prior_never_needs_relinearisation():
    g = FactorGraph()
    v = g.add_variable(POINT, np.zeros(3))
    g.add_factor(PRIOR, (v,), np.zeros(3), 1.0)
    eng = GbpEngine(g, GbpConfig(beta=1e-4))
    (b,) = eng.batches
    x0, eta = b.x0.copy(), b.eta.copy()
    eng.banks[3].mean[eng.banks[3].rows_of([v])[0]] = np.full(3, 100.0)
    assert eng._relinearise(b, np.arange(b.n), eng._rotations(want_jac=True)) == 0
    assert np.array_equal(b.x0, x0) and np.array_equal(b.eta, eta)


def test_factor_energy_examples(rng):
    g = FactorGraph(camera=CAM)
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 1.0]))
    p = g.add_variable(POINT, np.array([0.0, 0.0, 1.05]))
    fid = g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
    means = {plane: np.array([0, 0, 1.0]), p: np.array([0.0, 0.0, 1.05])}
    # deviation 0.05 m at sigma 0.05 m: energy is half of one squared sigma
    assert np.isclose(energy_one(g, g.factors[fid], means), 0.5)
    means[p] = np.array([0.0, 0.0, 1.0])
    assert np.isclose(energy_one(g, g.factors[fid], means), 0.0)


def test_combined_factor_matches_constituents(rng):
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, rng.normal(size=6) * 0.1)
    rb = g.add_variable(RIGID_BODY, rng.normal(size=6) * 0.1)
    cons = []
    for _ in range(4):
        p_conv = rng.normal(size=3) + np.array([0, 0, 4.0])
        # near the projection, so that Tukey's weight is not zero
        z = seen_from(g, kf, rb, p_conv) + rng.normal(size=2) * 3.0
        cons.append((z, p_conv))
    singles = [
        g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                     payload={"constituents": [c]})
        for c in cons
    ]
    combined = g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                            payload={"constituents": cons})
    means = {kf: g.variables[kf].mean, rb: g.variables[rb].mean}
    lin_c = linearise_one(g, g.factors[combined], means)
    assert np.any(lin_c.eta) or np.any(lin_c.lam)
    total = GaussianInfo(np.zeros(12), np.zeros((12, 12)))
    for fid in singles:
        lin = linearise_one(g, g.factors[fid], means)
        total = GaussianInfo(total.eta + lin.eta, total.lam + lin.lam)
    assert np.allclose(lin_c.eta, total.eta, rtol=1e-10, atol=1e-10)
    assert np.allclose(lin_c.lam, total.lam, rtol=1e-10, atol=1e-10)
    e_c = energy_one(g, g.factors[combined], means)
    e_s = sum(energy_one(g, g.factors[fid], means) for fid in singles)
    assert np.isclose(e_c, e_s, rtol=1e-12)


# -- batched linearisation against the per-factor loop reference -----------------

def tukey_weight_loop(rho, c):
    if rho > c:
        return 0.0
    x = rho / c
    return (1.0 - x * x) ** 2


def residual_rows_loop(g, fac, means):
    """Per-row (value, J): one registered-kernel call per row; None for an
    invalid row. Linear kinds are written out directly."""
    p = [np.asarray(means[v], float) for v in fac.adjacency]
    z = fac.measurement
    if fac.kind == PRIOR:
        return [(p[0] - z, np.eye(p[0].shape[0]))]
    if fac.kind == "linear":
        A = fac.payload["A"]
        return [(z - A @ np.concatenate(p), -A)]
    keys = [key for key, _ in FACTOR_KINDS[fac.kind].payload]
    rows = []
    for zc, *payload in fac.constituents() or [(z, *(fac.payload[k] for k in keys))]:
        value, J, valid = row(fac.kind, zc, *p, **dict(zip(keys, payload)))
        rows.append((value, J) if valid else None)
    return rows


def linearise_loop(g, fac, means, kernel="tukey"):
    """Reference (eta, lam, weight): one factor at a time, one row at a time,
    with the scalar `kernel` weight ("tukey" or "none"), none for a linear
    kind; a combined factor sums its constituents."""
    x0 = np.concatenate([np.asarray(means[v], float) for v in fac.adjacency])
    D = x0.shape[0]
    eta, lam, wsum = np.zeros(D), np.zeros((D, D)), 0.0
    rows = residual_rows_loop(g, fac, means)
    if fac.kind in (PRIOR, "linear"):
        kernel = "none"
    for row in rows:
        if row is None:
            continue
        v, J = row
        inv_var = 1.0 / fac.sigma**2
        rho = float(np.sqrt(np.sum(v**2 * inv_var)))
        w = tukey_weight_loop(rho, TUKEY_C) if kernel == "tukey" else 1.0
        Jw = J * (inv_var * w)[:, None]
        lam += J.T @ Jw
        eta += Jw.T @ (J @ x0 - v)
        wsum += w
    return eta, 0.5 * (lam + lam.T), wsum / len(rows)


def seen_from(g, kf, rb, p_conv):
    body = Pose(g.variables[rb].mean).apply(p_conv[None])[0]
    return pixel(CAM, Pose(g.variables[kf].mean), body)


def every_kind_graph(rng):
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, np.concatenate([rng.normal(size=3) * 0.1,
                                                  rng.normal(size=3) * 0.05]))
    kf2 = g.add_variable(KEYFRAME, rng.normal(size=6) * 0.05)
    pts = [g.add_variable(POINT, rng.normal(size=3) * 0.5 + [0, 0, 4.0]) for _ in range(4)]
    behind = g.add_variable(POINT, np.array([0.1, 0.0, -3.0]))
    plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0.05, -0.02, 4.0]))
    rb = g.add_variable(RIGID_BODY, rng.normal(size=6) * 0.05)
    for p in pts:
        z = pixel(CAM, Pose(g.variables[kf].mean), g.variables[p].mean)
        g.add_factor(REPROJECTION, (kf, p), z + rng.normal(size=2) * 6.0, 2.0)
    g.add_factor(REPROJECTION, (kf, behind), np.array([320.0, 240.0]), 2.0)
    for p in pts[:3]:
        g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.3)
    g.add_factor(PLANE_PREDICTION, (plane, kf2), rng.normal(size=3) * 0.1 + [0, 0, 4.0], 0.5)
    g.add_factor(RIGID_PLANE_PREDICTION, (rb, kf), rng.normal(size=3) * 0.1 + [0, 0, 4.0],
                 0.1, payload={"pi_conv": np.array([0.0, 0.1, 4.0])})
    pc = rng.normal(size=3) * 0.3 + [0, 0, 4.0]
    g.add_factor(COMBINED_RIGID_REPROJECTION, (kf2, rb), None, 2.0, payload={
        "constituents": [(seen_from(g, kf2, rb, pc) + rng.normal(size=2) * 3.0, pc)]
    })
    cons = [(seen_from(g, kf, rb, pc) + rng.normal(size=2) * 3.0, pc)
            for pc in rng.normal(size=(4, 3)) * 0.3 + [0, 0, 4.0]]
    cons.append((np.array([320.0, 240.0]), np.array([0.0, 0.0, -6.0])))  # behind
    g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0,
                 payload={"constituents": cons})
    g.add_factor(PRIOR, (pts[0],), rng.normal(size=3), 0.5)
    A = rng.normal(size=(4, 9))
    g.add_factor("linear", (kf, pts[1]), rng.normal(size=4), 0.7, payload={"A": A})
    g.add_factor("linear", (pts[2],), rng.normal(size=3), 0.7,
                 payload={"A": rng.normal(size=(3, 3))})
    return g


def test_stacks_hold_each_field_of_their_nodes(rng):
    # Every stacked field equals np.stack over its group's nodes, in dtype and
    # shape too; a row of a combined factor is one of its constituents.
    g = every_kind_graph(rng)
    groups = group_factors(g)
    banks = compile_graph(g)[0]
    assert sorted(f.id for _, nodes in groups for f in nodes) == sorted(g.factors)
    shapes = set()
    for (kind, dims, m), nodes in groups:
        for f in nodes:
            assert (kind, dims, m) == (
                f.kind, tuple(g.variables[v].dim for v in f.adjacency), f.sigma.shape[0])
        spec = FACTOR_KINDS[kind]
        keys = [key for key, _ in spec.payload]
        if spec.constituents:
            rows = [(i, c) for i, f in enumerate(nodes) for c in f.constituents()]
        else:
            rows = [(i, (f.measurement, *(f.payload[k] for k in keys)))
                    for i, f in enumerate(nodes)]
        stack = FactorStack((kind, dims, m), nodes, banks, g.camera)
        assert stack.camera is g.camera
        for pos, d in enumerate(dims):  # each position's variables are its bank rows
            assert stack.banks[pos] is banks[d]
            assert np.array_equal(banks[d].ids[stack.rows[pos]], stack.adjacency[:, pos])
        fields = {"adjacency": (stack.adjacency, [np.array(f.adjacency) for f in nodes]),
                  "z": (stack.z, [r[0] for _, r in rows]),
                  "sigma": (stack.sigma, [nodes[i].sigma for i, _ in rows])}
        fields.update({k: (stack.payload[k], [r[1 + j] for _, r in rows])
                       for j, k in enumerate(keys)})
        if spec.constituents:
            fields["owner"] = (stack.owner, [i for i, _ in rows])
        else:
            assert stack.owner is None
        assert sorted(stack.payload) == sorted(keys)
        for name, (have, parts) in fields.items():
            want = np.stack(parts)
            assert (have.dtype, have.shape) == (want.dtype, want.shape), (kind, name)
            assert np.array_equal(have, want), (kind, name)
        shapes.update((kind, name, have.shape) for name, (have, _) in fields.items())
    assert {kind for kind, _, _ in shapes} == set(FACTOR_KINDS)
    assert ("linear", "A", (1, 4, 9)) in shapes and ("linear", "A", (1, 3, 3)) in shapes
    assert (COMBINED_RIGID_REPROJECTION, "owner", (6,)) in shapes


def assert_close(a, b, tol=1e-12):
    assert np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


def test_batched_linearisation_matches_loop_reference(rng):
    # "tukey": each kind's loss under GBP's kernel (none for linear kinds);
    # "none": the unweighted path
    g = every_kind_graph(rng)
    means = {vid: v.mean for vid, v in g.variables.items()}
    for kernel in ("tukey", "none"):
        kinds, weights = set(), []
        for stack in compile_graph(g)[1]:
            X = np.stack([np.concatenate([means[v] for v in adj]) for adj in stack.adjacency])
            eta, lam, w = linearise_batch(*own_poses(stack, X), kernel=kernel)
            for i, fac in enumerate(g.factors[fid] for fid in stack.ids):
                ref_eta, ref_lam, ref_w = linearise_loop(g, fac, means, kernel)
                assert_close(eta[i], ref_eta)
                assert_close(lam[i], ref_lam)
                assert np.isclose(w[i], ref_w, rtol=1e-12, atol=1e-12)
                kinds.add(fac.kind)
            if stack.owner is None:
                weights.append(w)
            # a subset of the factors, as the engine relinearises them
            rows = np.arange(stack.n)[::2]
            sub = linearise_batch(*own_poses(stack, X[rows], rows=rows), rows, kernel)
            for full, part in zip((eta, lam, w), sub):
                assert np.array_equal(full[rows], part)
        assert len(kinds) == 7  # five measurement kinds, prior, linear
        # Tukey scales some one-row factors down; unweighted, each weighs 0 or 1
        w = np.concatenate(weights)
        assert np.any((w > 0) & (w < 1)) == (kernel == "tukey")


def test_one_factor_linearise_is_the_batched_path(rng):
    # a factor alone in its stack, posed by its own slots, linearises as the
    # loop reference does and as its row of the graph's stack does
    g = every_kind_graph(rng)
    means = {vid: v.mean for vid, v in g.variables.items()}
    rows = {}
    for stack in compile_graph(g)[1]:
        X = np.stack([np.concatenate([means[v] for v in adj]) for adj in stack.adjacency])
        eta, lam, w = linearise_batch(*own_poses(stack, X))
        rows.update((fid, (eta[i], lam[i], w[i])) for i, fid in enumerate(stack.ids))
    for fac in g.factors.values():
        eta, lam, w = linearise_batch(*one_factor(g, fac, means))
        ref_eta, ref_lam, ref_w = linearise_loop(g, fac, means)
        assert_close(eta[0], ref_eta)
        assert_close(lam[0], ref_lam)
        assert np.isclose(w[0], ref_w, rtol=1e-12, atol=1e-12)
        assert all(np.array_equal(a[0], b) for a, b in zip((eta, lam, w), rows[fac.id]))


def test_lam_is_the_einsum_sum_bit_for_bit(rng):
    # linearise_batch sums J^T D J one measurement component at a time; its
    # lam must be np.einsum's own sum, signed zeros included, on every kind,
    # Tukey-zeroed and invalid rows among them: the engine's beliefs follow
    # every bit of lam.
    g = every_kind_graph(rng)
    far = next(f for f in g.factors.values() if f.kind == REPROJECTION)
    g.add_factor(REPROJECTION, far.adjacency, far.measurement + [90.0, -60.0], 2.0)
    means = {vid: v.mean for vid, v in g.variables.items()}
    zeroed = invalid = negative_zeros = 0
    for stack in compile_graph(g)[1]:
        X = np.stack([np.concatenate([means[v] for v in adj]) for adj in stack.adjacency])
        posed, X, rot = own_poses(stack, X)
        _, lam, _ = linearise_batch(posed, X, rot)
        # J and D as linearise_batch forms them
        Xr = X if stack.owner is None else X[stack.owner]
        if stack.spec.linear:
            Xr = np.zeros_like(Xr)
        value, J, valid = factors.evaluate_rows(posed, Xr, rot)
        inv_var = 1.0 / stack.sigma**2
        rho = np.sqrt(np.sum(value**2 * inv_var, axis=1))
        w = np.where(valid, robust_weight(stack.spec.loss("tukey"), rho), 0.0)
        JD = J * (inv_var * w[:, None])[:, :, None]
        L = np.einsum("nki,nkj->nij", JD, J)
        # entries whose every product is -0.0: a sum that did not start
        # from +0.0 would leave them -0.0
        products = JD[:, :, :, None] * J[:, :, None, :]
        negative_zeros += np.count_nonzero(np.all(np.signbit(products) & (products == 0.0), axis=1))
        if stack.owner is not None:
            summed = np.zeros((stack.n,) + L.shape[1:])
            np.add.at(summed, stack.owner, L)
            L = summed
        want = 0.5 * (L + np.transpose(L, (0, 2, 1)))
        assert lam.tobytes() == want.tobytes(), stack.kind
        assert np.array_equal(np.signbit(lam), np.signbit(want)), stack.kind
        zeroed += np.count_nonzero(valid & (w == 0.0))
        invalid += np.count_nonzero(~valid)
    assert zeroed and invalid and negative_zeros
