import numpy as np
import pytest

from planegbp.errors import BehindCameraError, ContractViolation, DegeneratePlaneError
from planegbp.frontend import backproject
from planegbp.geometry import (
    CameraModel,
    PlaneParams,
    Pose,
    project,
    so3_exp,
    so3_exp_batch,
    so3_right_jacobian_batch,
    so3_log,
    transform_plane,
    transform_plane_jacobians_batch,
    transform_plane_min_batch,
)
from conftest import fd_jacobian

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=320.0, width=640, height=640)


def random_plane(rng, d_range=(0.5, 3.0)) -> PlaneParams:
    n = rng.normal(size=3)
    d = rng.uniform(*d_range)
    return PlaneParams.from_normal_distance(n, d)


def points_on_plane(rng, plane: PlaneParams, n=100) -> np.ndarray:
    nrm = plane.normal
    helper = np.array([1.0, 0.3, 0.2])
    e1 = np.cross(nrm, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nrm, e1)
    uv = rng.normal(size=(n, 2)) * 2.0
    return plane.distance * nrm + uv[:, :1] * e1 + uv[:, 1:] * e2


# -- rotations / poses --------------------------------------------------------

def test_rotation_orthonormal(rng):
    for _ in range(50):
        R = so3_exp(rng.normal(size=3))
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-10)
        assert np.isclose(np.linalg.det(R), 1.0, atol=1e-10)


def test_so3_log_round_trip(rng):
    for _ in range(200):
        w = rng.normal(size=3)
        w = w / np.linalg.norm(w) * rng.uniform(1e-8, 3.0)
        assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-9)


def test_pose_log_exp_round_trip(rng):
    for _ in range(100):
        r = rng.normal(size=6)
        r[3:] = r[3:] / np.linalg.norm(r[3:]) * rng.uniform(0, 3.0)
        assert np.allclose(Pose(r).r, r, atol=1e-9)


def test_compose_with_identity(rng):
    T = Pose(rng.normal(size=6))
    out = T.compose(Pose.identity())
    assert np.allclose(out.T, T.T, atol=1e-12)
    out = Pose.identity().compose(T)
    assert np.allclose(out.T, T.T, atol=1e-12)


def test_apply_pure_translation(rng):
    t = rng.normal(size=3)
    p = rng.normal(size=3)
    out = Pose(np.concatenate([t, np.zeros(3)])).apply(p)
    assert np.allclose(out, p + t)


def test_compose_group_action(rng):
    a, b = Pose(rng.normal(size=6)), Pose(rng.normal(size=6))
    p = rng.normal(size=3)
    assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)
    assert np.allclose(a.compose(a.inverse()).T, np.eye(4), atol=1e-9)


def test_pose_caches_cannot_go_stale(rng):
    r = rng.normal(size=6)
    before = r.copy()
    pose = Pose(r)
    R = pose.R.copy()
    r[:] = rng.normal(size=6)  # the caller's array changes after R was read
    assert np.array_equal(pose.r, before)
    assert np.array_equal(pose.R, R) and np.array_equal(pose.R, so3_exp(before[3:]))
    with pytest.raises(ValueError):  # nor can a caller write through the pose
        pose.r[0] = 1.0
    with pytest.raises(ValueError):
        pose.R[0, 0] = 1.0


def test_cached_rotation_inverse_and_backprojection_equal_the_formulas(rng):
    for _ in range(20):
        r = rng.normal(size=6)
        pose = Pose(r)
        t, w = r[:3], r[3:]
        R = so3_exp(w)
        inv_r = np.concatenate([-R.T @ t, -w])
        assert np.array_equal(pose.R, R)
        assert pose.inverse() is pose.inverse()
        assert np.array_equal(pose.inverse().r, inv_r)
        u, v, depth = rng.uniform(0, 640), rng.uniform(0, 640), rng.uniform(0.5, 8.0)
        ray = np.array([(u - CAM.cx) / CAM.fx, (v - CAM.cy) / CAM.fy, 1.0])
        want = (ray * depth) @ so3_exp(-w).T + inv_r[:3]
        assert np.array_equal(backproject(CAM, pose, (u, v), depth), want)


# -- planes -------------------------------------------------------------------

def test_transform_plane_identity(rng):
    pl = random_plane(rng)
    out = transform_plane(Pose.identity(), pl)
    assert np.allclose(out.m, pl.m, atol=1e-12)


def test_transform_plane_translation_along_normal():
    # moving the world +1 along the normal increases the origin distance
    pl = PlaneParams.from_normal_distance([0, 0, 1], 2.0)
    out = transform_plane(Pose(np.array([0, 0, 1, 0, 0, 0.0])), pl)
    # homogeneous-transform oracle: T^-T applied to (n, -d), then renormalise
    T = np.eye(4)
    T[2, 3] = 1.0
    h = np.linalg.inv(T).T @ pl.homogeneous()
    oracle = PlaneParams.from_homogeneous(h)
    assert np.allclose(out.m, oracle.m, atol=1e-12)
    assert np.isclose(out.distance, 3.0)
    assert np.allclose(out.normal, [0, 0, 1])


def test_rotation_about_normal_preserves_plane(rng):
    pl = PlaneParams.from_normal_distance([0.0, 0.0, 1.0], 1.3)
    T = Pose(np.array([0, 0, 0, 0, 0, 0.7]))  # rotation about z == the normal
    out = transform_plane(T, pl)
    assert np.allclose(out.m, pl.m, atol=1e-12)


def test_plane_incidence_preservation(rng):
    for _ in range(20):
        T = Pose(rng.normal(size=6))
        pl = random_plane(rng)
        pts = points_on_plane(rng, pl, 100)
        out = transform_plane(T, pl)
        moved = T.apply(pts)
        assert np.max(np.abs(moved @ out.normal - out.distance)) < 1e-9


def test_transform_plane_inverse_round_trip(rng):
    for _ in range(20):
        T = Pose(rng.normal(size=6))
        pl = random_plane(rng)
        back = transform_plane(T.inverse(), transform_plane(T, pl))
        assert np.allclose(back.m, pl.m, atol=1e-9)


def test_degenerate_plane_raises(rng):
    T = Pose(np.concatenate([-2.0 * np.array([0.0, 0, 1]), np.zeros(3)]))
    pl = PlaneParams.from_normal_distance([0, 0, 1], 2.0)
    with pytest.raises(DegeneratePlaneError):
        transform_plane(T, pl)  # moved exactly onto the origin
    with pytest.raises(DegeneratePlaneError):
        PlaneParams(np.zeros(3)).normal


# -- projection ---------------------------------------------------------------

def test_project_on_axis_hits_principal_point():
    pix = project(CAM, Pose.identity(), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(pix, [CAM.cx, CAM.cy])


def test_project_direct_evaluation():
    pix = project(CAM, Pose.identity(), np.array([1.0, 0.0, 2.0]))
    assert np.allclose(pix, [570.0, 320.0])


def test_project_behind_camera_raises():
    with pytest.raises(BehindCameraError):
        project(CAM, Pose.identity(), np.array([0.0, 0.0, -1.0]))


def test_camera_validation():
    with pytest.raises(ContractViolation):
        CameraModel(fx=-1.0, fy=1.0, cx=0, cy=0, width=10, height=10)
    with pytest.raises(ContractViolation):
        CameraModel(fx=1.0, fy=1.0, cx=50, cy=0, width=10, height=10)


def test_plane_transform_jacobians_match_finite_differences(rng):
    def tmin(rv, mv):
        return transform_plane_min_batch(so3_exp_batch(rv[None, 3:]), rv[None, :3], mv[None])[0]

    worst = 0.0
    for _ in range(1000):
        r = rng.normal(size=6) * 0.5
        m = random_plane(rng).m
        if np.linalg.norm(tmin(r, m)) < 0.05:
            continue  # keep clear of the degenerate manifold for differencing
        _, J_pose, J_m = transform_plane_jacobians_batch(
            so3_exp_batch(r[None, 3:]), r[None, :3], so3_right_jacobian_batch(r[None, 3:]),
            m[None]
        )
        Jf_pose = fd_jacobian(lambda x: tmin(x, m), r)
        Jf_m = fd_jacobian(lambda x: tmin(r, x), m)
        worst = max(
            worst,
            np.max(np.abs(J_pose[0] - Jf_pose) / (np.abs(Jf_pose) + 1.0)),
            np.max(np.abs(J_m[0] - Jf_m) / (np.abs(Jf_m) + 1.0)),
        )
    assert worst < 1e-5
