"""Synthetic stand-in for the live front-end.

Generates planar scenes with clutter, a camera arc, noisy feature
measurements with outlier corruption, and oracle plane-hypothesis proposals
with controllable parameter noise and spurious injections. Everything is
reproducible from the scene seed; emitting the same keyframe twice yields
identical packets.

Also provides the initialisation policies used when the graph grows
(constant-velocity keyframe prediction, average-depth point backprojection)
and trajectory-error evaluation with similarity alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ContractViolation, FormatError
from .geometry import (
    CameraModel,
    PlaneParams,
    Pose,
    project_cam_batch,
    so3_exp,
    transform_plane,
)


# Camera height above the look-at point, metres.
TRAJ_HEIGHT = 0.0
# A proposed plane's noise: normal tilt (degrees) and distance (metres), sd.
HYP_ANGLE_SIGMA_DEG, HYP_D_SIGMA = 5.0, 0.05
# A spurious plane keeps at least this distance (metres) from its members.
SPURIOUS_MIN_DISTANCE = 0.3
# A plane is proposed by the first keyframe that sees this many of its points.
MIN_HYPOTHESIS_MEMBERS = 4


@dataclass
class PlaneSpec:
    normal: list
    d: float
    center: list  # approximate centre of the rectangular patch (projected on-plane)
    extent: list  # half-sizes along the two in-plane axes, metres
    n_points: int = 40


@dataclass
class SceneSpec:
    planes: list = field(default_factory=list)
    n_clutter: int = 0
    clutter_low: list = field(default_factory=lambda: [-2.0, -2.0, 0.5])
    clutter_high: list = field(default_factory=lambda: [2.0, 2.0, 3.5])
    clutter_min_plane_distance: float = 0.25
    n_keyframes: int = 5
    traj_radius: float = 4.0
    traj_span_deg: float = 50.0
    lookat: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    camera: dict = field(default_factory=lambda: dict(
        fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480))
    pixel_sigma: float = 1.0
    outlier_rate: float = 0.0
    spurious_rate: float = 0.0
    spurious_members: int = 6
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SceneSpec":
        d = dict(d)
        d["planes"] = [PlaneSpec(**p) if isinstance(p, dict) else p for p in d.get("planes", [])]
        return SceneSpec(**d)


@dataclass
class HypothesisProposal:
    member_ids: list
    pi_z: np.ndarray  # minimal plane in the keyframe's camera frame
    true_plane: int   # index of the generating plane, -1 for spurious


@dataclass
class KeyframePacket:
    index: int
    true_pose: np.ndarray  # world-to-camera 6-vector (evaluation only)
    point_ids: np.ndarray
    pixels: np.ndarray
    outlier_mask: np.ndarray
    hypotheses: list

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "true_pose": self.true_pose.tolist(),
            "point_ids": self.point_ids.tolist(),
            "pixels": self.pixels.tolist(),
            "outlier_mask": self.outlier_mask.astype(int).tolist(),
            "hypotheses": [
                {"member_ids": list(h.member_ids), "pi_z": h.pi_z.tolist(),
                 "true_plane": h.true_plane}
                for h in self.hypotheses
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "KeyframePacket":
        """The packet `to_dict` wrote; FormatError names a missing or malformed field:
        n integer `point_ids`, (n, 2) `pixels`, n `outlier_mask`, 6 `true_pose`."""
        def get(key, convert):
            if not isinstance(d, dict) or key not in d:
                raise FormatError(f"missing field {key!r}")
            try:
                return convert(d[key])
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"field {key!r}: {type(exc).__name__} {exc}") from None

        ids = get("point_ids", np.asarray)
        n = ids.size
        if ids.ndim != 1 or (n and ids.dtype.kind not in "iu"):
            raise FormatError("field 'point_ids' must be a list of integers")
        arrays = {}
        for key, dtype, shape in (("true_pose", float, (6,)), ("pixels", float, (n, 2)),
                                  ("outlier_mask", bool, (n,))):
            a = get(key, lambda v: np.asarray(v, dtype))
            if a.shape != shape and not a.size == math.prod(shape) == 0:  # [] is (0,)
                raise FormatError(f"field {key!r} has shape {a.shape}, expected {shape}")
            arrays[key] = a.reshape(shape)
        return KeyframePacket(
            index=get("index", int), point_ids=ids.astype(int), **arrays,
            hypotheses=get("hypotheses", lambda hs: [
                HypothesisProposal(list(h["member_ids"]), np.asarray(h["pi_z"], float),
                                   int(h["true_plane"]))
                for h in hs
            ]),
        )


class SyntheticScene:
    def __init__(self, spec: SceneSpec):
        self.spec = spec
        self.camera = CameraModel(**spec.camera)
        rng = np.random.default_rng([spec.seed, 1])

        planes = []
        pts, owner = [], []
        for idx, ps in enumerate(spec.planes):
            n = np.asarray(ps.normal, float)
            n = n / np.linalg.norm(n)
            if abs(ps.d) < 0.1:
                raise ContractViolation(
                    f"plane {idx}: |d| must be >= 0.1 m (near-origin planes are degenerate)"
                )
            plane = PlaneParams.from_normal_distance(n, ps.d)
            e1, e2 = plane_basis(plane.normal)
            center = np.asarray(ps.center, float)
            center = center + (plane.distance - plane.normal @ center) * plane.normal
            uv = rng.uniform(-1.0, 1.0, size=(ps.n_points, 2)) * np.asarray(ps.extent)
            p = center[None] + uv[:, :1] * e1[None] + uv[:, 1:] * e2[None]
            pts.append(p)
            owner.extend([idx] * ps.n_points)
            planes.append(plane)

        clutter = []
        low = np.asarray(spec.clutter_low, float)
        high = np.asarray(spec.clutter_high, float)
        attempts = 0
        while len(clutter) < spec.n_clutter and attempts < spec.n_clutter * 200 + 100:
            attempts += 1
            c = rng.uniform(low, high)
            if all(
                abs(pl.normal @ c - pl.distance) > spec.clutter_min_plane_distance
                for pl in planes
            ):
                clutter.append(c)
        if len(clutter) < spec.n_clutter:
            raise ContractViolation("could not place clutter away from the planes")
        if clutter:
            pts.append(np.stack(clutter))
            owner.extend([-1] * len(clutter))

        self.points = np.concatenate(pts, axis=0) if pts else np.zeros((0, 3))
        self.point_plane = np.asarray(owner, int)
        self.planes = planes
        self.trajectory = self._make_trajectory()
        self._first_view_cache = None

    def _make_trajectory(self):
        spec = self.spec
        lookat = np.asarray(spec.lookat, float)
        span = math.radians(spec.traj_span_deg)
        poses = []
        for k in range(spec.n_keyframes):
            ang = (-span / 2.0) + span * (k / max(spec.n_keyframes - 1, 1))
            pos = lookat + np.array(
                [-spec.traj_radius * math.cos(ang),
                 spec.traj_radius * math.sin(ang),
                 TRAJ_HEIGHT]
            )
            forward = lookat - pos
            forward = forward / np.linalg.norm(forward)
            up = np.array([0.0, 0.0, 1.0])
            if abs(forward @ up) > 0.98:
                up = np.array([0.0, 1.0, 0.0])
            x_cam = np.cross(forward, up)
            x_cam /= np.linalg.norm(x_cam)
            y_cam = np.cross(forward, x_cam)
            R_wc = np.stack([x_cam, y_cam, forward], axis=1)
            T_wc = Pose.from_rt(R_wc, pos)
            poses.append(T_wc.inverse())  # store world-to-camera
        return poses

    # -- observation --------------------------------------------------------

    def visible_mask(self, index: int, margin: float = 2.0) -> np.ndarray:
        T = self.trajectory[index]
        p_cam = self.points @ T.R.T + T.t
        pix, valid = project_cam_batch(self.camera, p_cam)
        cam = self.camera
        inside = (
            (pix[:, 0] >= margin) & (pix[:, 0] <= cam.width - margin)
            & (pix[:, 1] >= margin) & (pix[:, 1] <= cam.height - margin)
        )
        return valid & inside

    def first_view_of_plane(self) -> dict:
        if self._first_view_cache is None:
            first = {}
            for k in range(self.spec.n_keyframes):
                mask = self.visible_mask(k)
                for idx in range(len(self.planes)):
                    if idx in first:
                        continue
                    members = np.nonzero(mask & (self.point_plane == idx))[0]
                    if members.size >= MIN_HYPOTHESIS_MEMBERS:
                        first[idx] = k
            self._first_view_cache = first
        return self._first_view_cache

    def emit_keyframe(self, index: int) -> KeyframePacket:
        if not 0 <= index < self.spec.n_keyframes:
            raise ContractViolation(f"keyframe index {index} out of range")
        spec = self.spec
        cam = self.camera
        rng = np.random.default_rng([spec.seed, 7, index])
        T = self.trajectory[index]
        mask = self.visible_mask(index)
        ids = np.nonzero(mask)[0]
        p_cam = self.points[ids] @ T.R.T + T.t
        pix, _ = project_cam_batch(cam, p_cam)
        pix = pix + rng.normal(scale=spec.pixel_sigma, size=pix.shape)
        outlier = rng.uniform(size=ids.shape[0]) < spec.outlier_rate
        if np.any(outlier):
            n_out = int(np.count_nonzero(outlier))
            pix[outlier] = rng.uniform(
                [0.0, 0.0], [cam.width, cam.height], size=(n_out, 2)
            )

        hypotheses = []
        first_view = self.first_view_of_plane()
        for idx, plane in enumerate(self.planes):
            # proposed once, by the first keyframe that sees enough members
            if first_view.get(idx) != index:
                continue
            members = ids[self.point_plane[ids] == idx]
            pi_cam = transform_plane(T, plane)
            angle = rng.normal(scale=math.radians(HYP_ANGLE_SIGMA_DEG))
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            n_noisy = so3_exp(axis * angle) @ pi_cam.normal
            d_noisy = pi_cam.distance + rng.normal(scale=HYP_D_SIGMA)
            hypotheses.append(HypothesisProposal(
                members.tolist(), n_noisy * d_noisy, idx))

        if spec.spurious_rate > 0 and hypotheses:
            n_true = len(hypotheses)
            n_sp = int(round(spec.spurious_rate / (1.0 - spec.spurious_rate) * n_true))
            clutter_ids = ids[self.point_plane[ids] == -1]
            for _ in range(n_sp):
                if clutter_ids.size < spec.spurious_members:
                    break
                member = rng.choice(clutter_ids, size=spec.spurious_members, replace=False)
                plane_w = self._random_far_plane(rng, self.points[member])
                if plane_w is None:
                    continue
                pi_cam = transform_plane(T, plane_w)
                hypotheses.append(HypothesisProposal(
                    member.tolist(), pi_cam.m.copy(), -1))

        return KeyframePacket(
            index=index,
            true_pose=T.r.copy(),
            point_ids=ids,
            pixels=pix,
            outlier_mask=outlier,
            hypotheses=hypotheses,
        )

    def _random_far_plane(self, rng, member_points):
        """Random plane that genuinely fits none of the given points."""
        for _ in range(100):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            d = rng.uniform(0.5, 3.0)
            if np.all(np.abs(member_points @ n - d) > SPURIOUS_MIN_DISTANCE):
                return PlaneParams.from_normal_distance(n, d)
        return None


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    return SyntheticScene(spec)


# ---------------------------------------------------------------------------
# Initialisation policies
# ---------------------------------------------------------------------------

def constant_velocity_prediction(prev: Pose, prev2: Pose | None) -> Pose:
    """Compose the last inter-keyframe motion onto the latest pose."""
    if prev2 is None:
        return Pose(prev.r.copy())
    motion = prev.compose(prev2.inverse())
    return motion.compose(prev)


def backproject(cam: CameraModel, pose_cw: Pose, pixel, depth: float) -> np.ndarray:
    """World point on the pixel ray at the given camera-frame depth."""
    u, v = float(pixel[0]), float(pixel[1])
    ray = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
    return pose_cw.inverse().apply(ray * depth)


def triangulate_two_view(cam: CameraModel, pose_a: Pose, pose_b: Pose,
                         pix_a, pix_b):
    """Midpoint triangulation of one match from two camera views.

    Returns (point, ok); ok is False for near-parallel rays or points
    triangulated behind either camera.
    """
    def ray(pose_cw, pix):
        d = np.array([(pix[0] - cam.cx) / cam.fx, (pix[1] - cam.cy) / cam.fy, 1.0])
        inv = pose_cw.inverse()
        return inv.t, inv.R @ (d / np.linalg.norm(d))

    o1, d1 = ray(pose_a, pix_a)
    o2, d2 = ray(pose_b, pix_b)
    cross = d1 @ d2
    denom = 1.0 - cross * cross
    if denom < 1e-10:
        return None, False
    diff = o2 - o1
    t1 = (diff @ d1 - (diff @ d2) * cross) / denom
    t2 = (-(diff @ d2) + (diff @ d1) * cross) / denom
    p = 0.5 * ((o1 + t1 * d1) + (o2 + t2 * d2))
    ok = bool(t1 > 1e-3 and t2 > 1e-3)
    return p, ok


def average_depth(pose_cw: Pose, points: np.ndarray, default: float = 3.0) -> float:
    """Running average scene depth seen from a camera; falls back to default."""
    if points.shape[0] == 0:
        return default
    z = (points @ pose_cw.R.T + pose_cw.t)[:, 2]
    z = z[z > 0.05]
    return float(np.mean(z)) if z.size else default


# ---------------------------------------------------------------------------
# Trajectory evaluation
# ---------------------------------------------------------------------------

@dataclass
class AteResult:
    rms_cm: float
    degenerate: bool


def umeyama(src: np.ndarray, dst: np.ndarray):
    """Similarity transform (s, R, t) minimising |dst - (s R src + t)|^2."""
    if src.shape != dst.shape or src.shape[0] < 3:
        raise ContractViolation("alignment needs >= 3 paired positions")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    X = src - mu_s
    Y = dst - mu_d
    cov = Y.T @ X / src.shape[0]
    U, D, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    degenerate = bool(D[1] < 1e-12 * max(D[0], 1.0))
    var_s = float(np.mean(np.sum(X**2, axis=1)))
    s = float(np.trace(np.diag(D) @ S) / var_s) if var_s > 0 else 1.0
    t = mu_d - s * R @ mu_s
    return s, R, t, degenerate


def ate(estimated: np.ndarray, ground_truth: np.ndarray) -> AteResult:
    """RMS translational error (cm) after similarity alignment."""
    s, R, t, degenerate = umeyama(estimated, ground_truth)
    aligned = estimated @ (s * R).T + t
    rms = float(np.sqrt(np.mean(np.sum((aligned - ground_truth) ** 2, axis=1))))
    return AteResult(rms * 100.0, degenerate)


def plane_basis(normal: np.ndarray):
    """Any orthonormal in-plane pair (e1, e2) for a unit normal."""
    n = np.asarray(normal, float)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(n @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2
