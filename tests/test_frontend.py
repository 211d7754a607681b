import numpy as np
import pytest

from planegbp.errors import ContractViolation
from planegbp.frontend import (
    KeyframePacket,
    PlaneSpec,
    SPURIOUS_MIN_DISTANCE,
    SceneSpec,
    ate,
    average_depth,
    backproject,
    constant_velocity_prediction,
    generate_scene,
    triangulate_two_view,
    umeyama,
)
from planegbp.geometry import Pose, project_cam_batch
from conftest import pixel
from scenes import box_room_spec


def simple_spec(seed=0, **overrides):
    spec = SceneSpec(
        planes=[PlaneSpec([1, 0, 0], 1.0, [1.0, 0, 0], [1.0, 1.0], 20)],
        n_clutter=10,
        clutter_low=[-0.5, -1.5, -1.0], clutter_high=[1.5, 1.2, 1.0],
        n_keyframes=4, traj_radius=4.5, traj_span_deg=25.0,
        pixel_sigma=0.0, seed=seed,
    )
    for k, v in overrides.items():
        setattr(spec, k, v)
    return spec


def test_scene_deterministic_from_seed():
    a = generate_scene(simple_spec(5))
    b = generate_scene(simple_spec(5))
    assert np.array_equal(a.points, b.points)
    for pa, pb in zip(a.trajectory, b.trajectory):
        assert np.array_equal(pa.r, pb.r)
    pk_a = a.emit_keyframe(2)
    pk_b = b.emit_keyframe(2)
    assert np.array_equal(pk_a.pixels, pk_b.pixels)
    assert pk_a.to_dict() == pk_b.to_dict()


def test_emit_keyframe_idempotent():
    scene = generate_scene(simple_spec(9, pixel_sigma=1.0, outlier_rate=0.1))
    assert scene.emit_keyframe(1).to_dict() == scene.emit_keyframe(1).to_dict()


def test_plane_through_origin_rejected():
    spec = simple_spec()
    spec.planes[0].d = 0.05
    with pytest.raises(ContractViolation):
        generate_scene(spec)


def test_zero_noise_observations_exactly_consistent():
    scene = generate_scene(simple_spec(3))
    for k in range(scene.spec.n_keyframes):
        packet = scene.emit_keyframe(k)
        T = scene.trajectory[k]
        for pid, pix in zip(packet.point_ids, packet.pixels):
            exact = pixel(scene.camera, T, scene.points[pid])
            assert np.allclose(pix, exact, atol=1e-9)


def test_visibility_correctness():
    scene = generate_scene(simple_spec(4, pixel_sigma=1.0))
    cam = scene.camera
    for k in range(scene.spec.n_keyframes):
        packet = scene.emit_keyframe(k)
        T = scene.trajectory[k]
        p_cam = scene.points[packet.point_ids] @ T.R.T + T.t
        assert np.all(p_cam[:, 2] > 0)
        pix, valid = project_cam_batch(cam, p_cam)
        assert np.all(valid)
        assert np.all((pix[:, 0] >= 0) & (pix[:, 0] <= cam.width))
        assert np.all((pix[:, 1] >= 0) & (pix[:, 1] <= cam.height))


def test_outlier_rate_statistics():
    # across 50 seeds the outlier fraction concentrates near the configured rate
    rate = 0.1
    total, outliers = 0, 0
    for seed in range(50):
        scene = generate_scene(simple_spec(seed, outlier_rate=rate))
        packet = scene.emit_keyframe(0)
        total += packet.outlier_mask.size
        outliers += int(packet.outlier_mask.sum())
    observed = outliers / total
    sigma = np.sqrt(rate * (1 - rate) / total)
    assert abs(observed - rate) < 5 * sigma


def test_hypothesis_membership_is_exact():
    scene = generate_scene(simple_spec(6))
    packet = scene.emit_keyframe(0)
    for hyp in packet.hypotheses:
        if hyp.true_plane < 0:
            continue
        members = set(hyp.member_ids)
        visible = set(int(i) for i in packet.point_ids)
        expected = {
            i for i in visible if scene.point_plane[i] == hyp.true_plane
        }
        assert members == expected


def test_spurious_members_far_from_their_plane():
    spec = simple_spec(8, spurious_rate=0.5, spurious_members=5)
    spec.n_clutter = 30
    scene = generate_scene(spec)
    packet = scene.emit_keyframe(0)
    spurious = [h for h in packet.hypotheses if h.true_plane < 0]
    assert spurious
    T = scene.trajectory[0]
    for hyp in spurious:
        m_world = None
        # the camera-frame prediction maps back to a world plane
        from planegbp.geometry import PlaneParams, transform_plane
        plane_w = transform_plane(T.inverse(), PlaneParams(hyp.pi_z))
        pts = scene.points[hyp.member_ids]
        dists = np.abs(pts @ plane_w.normal - plane_w.distance)
        assert np.all(dists > SPURIOUS_MIN_DISTANCE * 0.5)


def test_box_room_spec_is_fully_planar():
    scene = generate_scene(box_room_spec(points_per_plane=12, seed=2))
    assert len(scene.planes) == 6
    assert np.all(scene.point_plane >= 0)  # no clutter: every point on a plane


# -- initialisation policies ----------------------------------------------------

def test_constant_velocity_zero_motion():
    prev = Pose(np.array([0.1, 0.2, 0.3, 0.01, 0.02, 0.03]))
    pred = constant_velocity_prediction(prev, Pose(prev.r.copy()))
    assert np.allclose(pred.r, prev.r, atol=1e-12)


def test_constant_velocity_extrapolates(rng):
    prev2 = Pose(rng.normal(size=6) * 0.1)
    motion = Pose(np.array([0.2, 0.0, 0.0, 0, 0, 0.05]))
    prev = motion.compose(prev2)
    pred = constant_velocity_prediction(prev, prev2)
    expected = motion.compose(prev)
    assert np.allclose(pred.T, expected.T, atol=1e-9)


def test_backprojection_reprojects_to_source_pixel(rng):
    scene = generate_scene(simple_spec(1))
    cam = scene.camera
    pose = scene.trajectory[0]
    source = np.array([200.0, 150.0])
    p = backproject(cam, pose, source, 4.2)
    back = pixel(cam, pose, p)
    assert np.linalg.norm(back - source) < 1e-6


def test_average_depth():
    pose = Pose.identity()
    pts = np.array([[0, 0, 2.0], [0, 0, 4.0]])
    assert np.isclose(average_depth(pose, pts), 3.0)
    assert average_depth(pose, np.zeros((0, 3)), default=2.5) == 2.5


def test_triangulation_recovers_exact_point(rng):
    scene = generate_scene(simple_spec(1))
    cam = scene.camera
    a, b = scene.trajectory[0], scene.trajectory[2]
    p_true = scene.points[0]
    pix_a = pixel(cam, a, p_true)
    pix_b = pixel(cam, b, p_true)
    p, ok = triangulate_two_view(cam, a, b, pix_a, pix_b)
    assert ok and np.allclose(p, p_true, atol=1e-8)


# -- trajectory error -------------------------------------------------------------

def test_ate_zero_for_identical_trajectories(rng):
    traj = rng.normal(size=(10, 3))
    out = ate(traj, traj)
    assert out.rms_cm < 1e-9 and not out.degenerate


def test_ate_invariant_to_similarity_offset(rng):
    traj = rng.normal(size=(12, 3)) * 2.0
    from planegbp.geometry import so3_exp

    R = so3_exp(np.array([0.2, -0.1, 0.4]))
    s = 1.7
    moved = traj @ (s * R).T + np.array([5.0, -3.0, 1.0])
    out = ate(moved, traj)
    assert out.rms_cm < 1e-8


def test_ate_collinear_flagged():
    t = np.linspace(0, 1, 8)[:, None] * np.array([[1.0, 0.0, 0.0]])
    out = ate(t, t + 0.0)
    assert out.degenerate


def test_ate_noise_scaling_monte_carlo():
    # with n poses and per-axis noise sigma, the post-alignment RMS approaches
    # sigma * sqrt(3) * sqrt(1 - 7/(3n)) (7 dof removed by the similarity fit)
    sigma = 0.02
    n = 40
    vals = []
    r = np.random.default_rng(0)
    gt = r.normal(size=(n, 3)) * 2.0
    for _ in range(100):
        est = gt + r.normal(scale=sigma, size=gt.shape)
        vals.append(ate(est, gt).rms_cm / 100.0)
    expected = sigma * np.sqrt(3.0) * np.sqrt(1 - 7 / (3 * n))
    assert abs(np.mean(vals) - expected) / expected < 0.1


def test_umeyama_recovers_similarity(rng):
    from planegbp.geometry import so3_exp

    src = rng.normal(size=(20, 3))
    R_true = so3_exp(np.array([0.3, 0.1, -0.2]))
    s_true, t_true = 2.3, np.array([1.0, -2.0, 0.5])
    dst = src @ (s_true * R_true).T + t_true
    s, R, t, degenerate = umeyama(src, dst)
    assert not degenerate
    assert np.isclose(s, s_true) and np.allclose(R, R_true, atol=1e-9)
    assert np.allclose(t, t_true, atol=1e-9)


def test_packet_round_trip():
    scene = generate_scene(simple_spec(7, pixel_sigma=1.0, spurious_rate=0.3,
                                       n_clutter=20, spurious_members=4))
    packet = scene.emit_keyframe(0)
    back = KeyframePacket.from_dict(packet.to_dict())
    assert back.to_dict() == packet.to_dict()
