"""SE(3) pose algebra, minimal plane parametrisation, pinhole projection.

Conventions used throughout the package:

* A pose is a minimal 6-vector ``r = [t(3), w(3)]``: translation stored
  directly, rotation in exponential coordinates (axis-angle). The derived
  transform acts on points as ``p' = exp(w) p + t``.
* Keyframe poses map world points into the camera frame (so ``R_c p + t_c``
  is the camera-frame point fed to the projection).
* A plane is the minimal 3-vector ``m = n * d`` (unit normal scaled by the
  origin distance). ``m`` determines the plane uniquely whenever it is not
  through the origin; the canonical split takes ``d = |m| > 0``.

Functions with a ``_batch`` suffix operate on stacked leading axes; they are
what the factor kernels evaluate. The scalar ``Pose``, ``PlaneParams`` and
``transform_plane`` serve scene generation, graph growth and the plane
lifecycle, and ``project`` is the projection oracle of the tests. A ``Pose``
copies its vector and computes its rotation and its inverse once, so
backprojecting a keyframe's new points exponentiates once per keyframe, not
once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BehindCameraError, ContractViolation, DegeneratePlaneError

EPS_PLANE = 1e-6  # |m| at or below this is a degenerate (through-origin) plane
EPS_DEPTH = 1e-3  # cheirality threshold, metres
_SMALL_ANGLE = 1e-8


# ---------------------------------------------------------------------------
# SO(3)
# ---------------------------------------------------------------------------

def so3_hat_batch(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    out = np.zeros((n, 3, 3))
    out[:, 0, 1] = -w[:, 2]
    out[:, 0, 2] = w[:, 1]
    out[:, 1, 0] = w[:, 2]
    out[:, 1, 2] = -w[:, 0]
    out[:, 2, 0] = -w[:, 1]
    out[:, 2, 1] = w[:, 0]
    return out


def _exp_coeffs(theta: np.ndarray):
    """(sin t / t, (1 - cos t) / t^2) with Taylor fallbacks near zero."""
    theta = np.asarray(theta, dtype=float)
    t2 = theta * theta
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    return a, b


def so3_exp(w: np.ndarray) -> np.ndarray:
    return so3_exp_batch(np.asarray(w, dtype=float)[None])[0]


def so3_exp_batch(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)
    a, b = _exp_coeffs(theta)
    hat = so3_hat_batch(w)
    hat2 = hat @ hat
    return np.eye(3) + a[:, None, None] * hat + b[:, None, None] * hat2


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of R; valid for angles < pi."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta < _SMALL_ANGLE:
        skew = 0.5 * (R - R.T)
        return np.array([skew[2, 1], skew[0, 2], skew[1, 0]]) * (1.0 + theta**2 / 6.0)
    if theta > np.pi - 1e-5:
        # Near pi the antisymmetric part vanishes; recover the axis from
        # A = (R - cos I)/(1 - cos) = aa^T, using its largest diagonal column.
        A = (R - np.cos(theta) * np.eye(3)) / (1.0 - np.cos(theta))
        k = int(np.argmax(np.diag(A)))
        axis = A[:, k] / np.sqrt(max(A[k, k], 1e-16))
        axis = axis / np.linalg.norm(axis)
        # Fix the sign using the (small) antisymmetric part.
        skew = 0.5 * (R - R.T)
        w_small = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
        if np.dot(w_small, axis) < 0:
            axis = -axis
        return theta * axis
    skew = 0.5 * (R - R.T)
    vee = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    return vee * theta / np.sin(theta)


def so3_right_jacobian_batch(w: np.ndarray) -> np.ndarray:
    """Right Jacobian Jr(w): exp(w + dw) ~ exp(w) exp(Jr(w) dw)."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)
    t2 = theta * theta
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    c1 = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    c2 = np.where(small, 1.0 / 6.0 - t2 / 120.0, (safe - np.sin(safe)) / (safe**3))
    hat = so3_hat_batch(w)
    hat2 = hat @ hat
    return np.eye(3) - c1[:, None, None] * hat + c2[:, None, None] * hat2


def pose_rotations_batch(poses: np.ndarray, want_jac: bool = True):
    """(R, Jr) of poses [t, w] (n, 6): exp(w) and, with want_jac, the right
    Jacobian Jr(w), else None.

    The factor kernels take these instead of the rotation vectors: a caller
    computes them once over the distinct poses it holds, and
    `factors.evaluate_rows` gathers them for every pose slot's rows.
    """
    w = poses[:, 3:]
    return so3_exp_batch(w), so3_right_jacobian_batch(w) if want_jac else None


# ---------------------------------------------------------------------------
# Poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Minimal pose vector [t, w] with cached rotation matrix and inverse.

    `r` is a read-only copy of the vector the pose is built from, so neither
    cache can go stale when the caller's array changes later. `R` is
    exp(w), computed on first use and read-only; `inverse()` is computed
    on first use and returns the same Pose afterwards.
    """

    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float).reshape(-1)
        if r.shape[0] != 6:
            raise ContractViolation(f"pose vector must have 6 components, got {r.shape}")
        r.flags.writeable = False
        object.__setattr__(self, "r", r)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(6))

    @staticmethod
    def from_rt(R: np.ndarray, t: np.ndarray) -> "Pose":
        return Pose(np.concatenate([np.asarray(t, dtype=float), so3_log(R)]))

    @property
    def t(self) -> np.ndarray:
        return self.r[:3]

    @property
    def w(self) -> np.ndarray:
        return self.r[3:]

    @cached_property
    def R(self) -> np.ndarray:
        R = so3_exp(self.r[3:])
        R.flags.writeable = False
        return R

    @property
    def T(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.R
        T[:3, 3] = self.t
        return T

    def apply(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return p @ self.R.T + self.t

    def inverse(self) -> "Pose":
        return self._inverse

    @cached_property
    def _inverse(self) -> "Pose":
        R = self.R
        return Pose(np.concatenate([-R.T @ self.t, -self.w]))

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self*other).apply(p) == self.apply(other.apply(p))."""
        Ra, Rb = self.R, other.R
        return Pose.from_rt(Ra @ Rb, Ra @ other.t + self.t)


# ---------------------------------------------------------------------------
# Planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneParams:
    """Minimal plane m = n * d; points p on the plane satisfy n.p = d."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).reshape(-1)
        if m.shape[0] != 3:
            raise ContractViolation("plane parameter must be a 3-vector")
        object.__setattr__(self, "m", m)

    @staticmethod
    def from_normal_distance(normal: np.ndarray, d: float) -> "PlaneParams":
        normal = np.asarray(normal, dtype=float)
        normal = normal / np.linalg.norm(normal)
        return PlaneParams(normal * d)

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(self.m))

    @property
    def normal(self) -> np.ndarray:
        d = np.linalg.norm(self.m)
        if d <= EPS_PLANE:
            raise DegeneratePlaneError("plane through origin has no canonical normal")
        return self.m / d

    def homogeneous(self) -> np.ndarray:
        """Homogeneous 4-vector (n, -d): (p,1) . h == 0 for points on the plane."""
        return np.concatenate([self.normal, [-self.distance]])

    @staticmethod
    def from_homogeneous(h: np.ndarray) -> "PlaneParams":
        h = np.asarray(h, dtype=float)
        norm = np.linalg.norm(h[:3])
        if norm < 1e-14:
            raise DegeneratePlaneError("homogeneous plane with zero normal part")
        return PlaneParams(h[:3] / norm * (-h[3] / norm))


def transform_plane_min_batch(R: np.ndarray, t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Minimal form of the inverse-transpose homogeneous plane transform.

    For p' = R p + t, planes map as m' = (R n) (d + t . (R n)).
    """
    d = np.linalg.norm(m, axis=-1)
    n = m / d[..., None]
    u = (R @ n[..., None])[..., 0]
    s = d + np.einsum("...i,...i->...", t, u)
    return u * s[..., None]


def transform_plane(T: Pose, pi: PlaneParams) -> PlaneParams:
    """Plane incident to T.apply(p) for every p incident to pi."""
    if pi.distance <= EPS_PLANE:
        raise DegeneratePlaneError("input plane is degenerate (through origin)")
    m_out = transform_plane_min_batch(T.R, T.t, pi.m[None])[0]
    if np.linalg.norm(m_out) <= EPS_PLANE:
        raise DegeneratePlaneError("transformed plane passes through the origin")
    return PlaneParams(m_out)


def transform_plane_jacobians_batch(
    R: np.ndarray, t: np.ndarray, Jr: np.ndarray, m: np.ndarray
):
    """Batched (m', dm'/dpose (n,3,6), dm'/dm (n,3,3)).

    Pose coordinates are [t, w] with R = exp(w); the rotational block uses
    the right Jacobian Jr(w) of SO(3), which the caller supplies with R.
    """
    d = np.linalg.norm(m, axis=-1)
    n = m / d[..., None]
    u = (R @ n[..., None])[..., 0]
    tu = np.einsum("ni,ni->n", t, u)
    s = d + tu
    m_out = u * s[:, None]

    # d u / d m = R (I - n n^T) / |m|
    proj = (np.eye(3)[None] - n[:, :, None] * n[:, None, :]) / d[:, None, None]
    du_dm = R @ proj
    # d s / d m = n^T + t^T du_dm
    ds_dm = n + np.einsum("ni,nij->nj", t, du_dm)
    dm_dm = u[:, :, None] * ds_dm[:, None, :] + s[:, None, None] * du_dm

    # translation part: d m'/d t = u u^T
    dm_dt = u[:, :, None] * u[:, None, :]
    # rotation part: du/dw = -R hat(n) Jr(w); chain through u and s
    du_dw = -(R @ so3_hat_batch(n)) @ Jr
    ds_dw = np.einsum("ni,nij->nj", t, du_dw)
    dm_dw = u[:, :, None] * ds_dw[:, None, :] + s[:, None, None] * du_dw

    dm_dpose = np.concatenate([dm_dt, dm_dw], axis=2)
    return m_out, dm_dpose, dm_dm


# ---------------------------------------------------------------------------
# Pinhole camera
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ContractViolation("focal lengths must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ContractViolation("principal point must lie inside the image")


def project(cam: CameraModel, pose: Pose, p_world: np.ndarray) -> np.ndarray:
    """Pixel of a world point; raises BehindCameraError at depth <= EPS_DEPTH."""
    p_cam = pose.R @ np.asarray(p_world, dtype=float) + pose.t
    if p_cam[2] <= EPS_DEPTH:
        raise BehindCameraError(f"depth {p_cam[2]:.4g} <= {EPS_DEPTH}")
    return np.array(
        [
            cam.fx * p_cam[0] / p_cam[2] + cam.cx,
            cam.fy * p_cam[1] / p_cam[2] + cam.cy,
        ]
    )


def project_cam_batch(cam: CameraModel, p_cam: np.ndarray):
    """(pixels, valid-depth mask) for camera-frame points; no raising."""
    z = p_cam[..., 2]
    valid = z > EPS_DEPTH
    zs = np.where(valid, z, 1.0)
    u = cam.fx * p_cam[..., 0] / zs + cam.cx
    v = cam.fy * p_cam[..., 1] / zs + cam.cy
    return np.stack([u, v], axis=-1), valid


def proj_jacobian_cam_batch(cam: CameraModel, p_cam: np.ndarray) -> np.ndarray:
    """d pixel / d camera-frame point, shape (n, 2, 3)."""
    x, y, z = p_cam[..., 0], p_cam[..., 1], p_cam[..., 2]
    n = p_cam.shape[0]
    J = np.zeros((n, 2, 3))
    J[:, 0, 0] = cam.fx / z
    J[:, 0, 2] = -cam.fx * x / (z * z)
    J[:, 1, 1] = cam.fy / z
    J[:, 1, 2] = -cam.fy * y / (z * z)
    return J

