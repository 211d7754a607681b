"""Measurement models and the one evaluate-and-linearise path of every solver.

Each kind in `graph.FACTOR_KINDS` names one batched kernel here,

    eval_<kind>_batch(camera, z, *payload, *variables, want_jac=True)

which evaluates n rows at once and returns the residual values (n, m), the
joint Jacobian (n, m, D) over the adjacency in order (None without want_jac)
and a validity mask: cheirality or plane-degeneracy failures flag a row as an
outlier for the current iteration rather than raising. A pose slot arrives
as `PoseRows`: its translations, its rotations R = exp(w) and, with
want_jac, its right Jacobians Jr(w). No kernel exponentiates a rotation
vector. The caller of `evaluate_rows` computes the rotations once over the
distinct poses it holds (`geometry.pose_rotations_batch`) and names each
row's pose among them; `evaluate_rows` gathers them per row. So a sweep
rotates each pose once, not once per factor row.

Each measurement model is written once: a rigid reprojection reprojects the
body's baked point moved by the body's pose, and a rigid plane prediction
predicts the body's plane so moved. Both call the private bodies `_reproject`
and `_moved_plane`, not a public `eval_*_batch`, which the benchmark's span
tracer wraps: a nested public call would count its rows twice.

`FactorStack` stacks the factors of one kind and adjacency shape row-wise for
their kernel. The propagation engine, the dense oracle and Levenberg-Marquardt
all evaluate through it: `evaluate_rows` calls the kernel, `linearise_batch`
turns rows into information form and `residual_sums` gives the energy and
pixel-error sums behind the convergence metrics. A row is one kernel
evaluation: the factor itself, or for kinds with constituents (combined
factors) one constituent, `owner` mapping it to its factor.

Linearisation follows the first-order expansion of the residual v(X) around
X0 with robust-rescaled noise S' = S / w:

    lam = J^T S'^-1 J        eta = J^T S'^-1 (J X0 - v(X0))

which is invariant to the sign convention of v. A robust weight w is computed
per row from the Mahalanobis norm of its unrobustified residual at X0 by
`robust_weight`, every solver's one robust loss: Tukey (c = TUKEY_C),
Huber (c = HUBER_C) or none. The loss is a property of the factor kind:
by default `linearise_batch` gives every non-linear kind Tukey's weight and
every linear kind (priors, linear factors) none; LM and the dense oracle
pass their own. Tukey's w = 0 turns the row into zero information until
beliefs move again. A combined factor is the product of its constituents:
their rows, each with its own weight, are summed into the factor. Linear
kinds are exact: they are expanded about X0 = 0, so that eta is not formed
by cancellation.

`evaluate_factor` is the one-factor view of the batched path, and
`own_poses` poses a stack's rows by their own slots. No solver calls them:
they stay because the benchmark's span tracer (`bench/spans.py`) wraps
`evaluate_factor` by name, here and as re-exported by `reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .geometry import (
    EPS_PLANE,
    CameraModel,
    pose_rotations_batch,
    proj_jacobian_cam_batch,
    project_cam_batch,
    so3_hat_batch,
    transform_plane_batch,
)
from .graph import FACTOR_KINDS, VARIABLE_DIMS, FactorNode


@dataclass
class Residual:
    """Residual value with Jacobian blocks keyed by adjacent variable id."""

    value: np.ndarray
    jacobians: dict
    x0: np.ndarray  # stacked evaluation point, adjacency order
    valid: bool = True


class PoseRows(NamedTuple):
    """One pose slot's rows as a kernel receives them: translations t (n, 3),
    rotations R = exp(w) (n, 3, 3) and the right Jacobians Jr(w) (n, 3, 3),
    None without want_jac."""

    t: np.ndarray
    R: np.ndarray
    Jr: np.ndarray | None


# ---------------------------------------------------------------------------
# Batched kernels (hot path). Parameter stacks are (n, dim) arrays; pose
# slots are PoseRows.
# ---------------------------------------------------------------------------

def _reproject(cam: CameraModel, z, c, p, want_jac):
    p_cam = (c.R @ p[:, :, None])[:, :, 0] + c.t
    pix, valid = project_cam_batch(cam, p_cam)
    value = z - pix
    if not want_jac:
        return value, None, valid
    safe = p_cam.copy()
    safe[~valid, 2] = 1.0
    Jproj = proj_jacobian_cam_batch(cam, safe)
    dp_dw = -(c.R @ so3_hat_batch(p)) @ c.Jr
    return value, np.concatenate([-Jproj, -Jproj @ dp_dw, -Jproj @ c.R], axis=2), valid


def eval_reprojection_batch(cam: CameraModel, z, c, p, want_jac=True):
    return _reproject(cam, z, c, p, want_jac)


def eval_plane_point_batch(cam, z, m, p, want_jac=True):
    # The measurement is the point's signed distance to the plane, always 0.
    d = np.linalg.norm(m, axis=-1)
    valid = d > EPS_PLANE
    ds = np.where(valid, d, 1.0)
    n = m / ds[:, None]
    value = (np.einsum("ni,ni->n", n, p) - ds)[:, None]
    if not want_jac:
        return value, None, valid
    proj = np.eye(3)[None] - n[:, :, None] * n[:, None, :]
    Jm = (np.einsum("ni,nij->nj", p, proj) / ds[:, None] - n)[:, None, :]
    return value, np.concatenate([Jm, n[:, None, :]], axis=2), valid


def _moved_plane(pose, pi):
    """(valid, m, dm/dpi, dm/dpose) of planes pi moved by `pose`, Jacobians None
    without its Jr. A plane degenerate before or after the move is invalid,
    and a degenerate pi moves as [0, 0, 1]."""
    valid = np.linalg.norm(pi, axis=-1) > EPS_PLANE
    pi_safe = np.where(valid[:, None], pi, [[0.0, 0.0, 1.0]])
    m, dm_dpose, dm_dpi = transform_plane_batch(pose.R, pose.t, pi_safe, pose.Jr)
    valid &= np.linalg.norm(m, axis=-1) > EPS_PLANE
    return valid, m, dm_dpi, dm_dpose


def eval_plane_prediction_batch(cam, z, pi, c, want_jac=True):
    valid, m_cam, dm_dpi, dm_dc = _moved_plane(c, pi)
    value = z - m_cam
    if not want_jac:
        return value, None, valid
    return value, np.concatenate([-dm_dpi, -dm_dc], axis=2), valid


def eval_rigid_plane_prediction_batch(cam, z, pi_conv, r, c, want_jac=True):
    # A plane the body's move made invalid goes on as 0, flagged again.
    valid, m_world, _, dmw_dr = _moved_plane(r, pi_conv)
    seen, m_cam, dmc_dmw, dmc_dc = _moved_plane(c, np.where(valid[:, None], m_world, 0.0))
    valid &= seen
    value = z - m_cam
    if not want_jac:
        return value, None, valid
    return value, np.concatenate([-(dmc_dmw @ dmw_dr), -dmc_dc], axis=2), valid


def eval_rigid_reprojection_batch(cam: CameraModel, z, p_conv, c, r, want_jac=True):
    p_world = (r.R @ p_conv[:, :, None])[:, :, 0] + r.t
    value, J, valid = _reproject(cam, z, c, p_world, want_jac)
    if not want_jac:
        return value, None, valid
    dpw_dwr = -(r.R @ so3_hat_batch(p_conv)) @ r.Jr
    # J[:, :, 6:9] is d value / d p_world
    return value, np.concatenate([J, J[:, :, 6:9] @ dpw_dwr], axis=2), valid


def eval_prior_batch(cam, z, x, want_jac=True):
    valid = np.ones(x.shape[0], dtype=bool)
    J = np.broadcast_to(np.eye(x.shape[1]), (x.shape[0],) + (x.shape[1],) * 2)
    return x - z, J if want_jac else None, valid


def eval_linear_batch(cam, z, A, *xs, want_jac=True):
    X = np.concatenate(xs, axis=1)
    value = z - np.einsum("nmd,nd->nm", A, X)
    return value, -A if want_jac else None, np.ones(X.shape[0], dtype=bool)


# ---------------------------------------------------------------------------
# Robust loss
# ---------------------------------------------------------------------------

# Each kernel's c gives 95% efficiency on Gaussian noise.
TUKEY_C = 4.685
HUBER_C = 1.345


def robust_weight(kernel: str, rho: np.ndarray) -> np.ndarray:
    """Covariance-rescaling weight of Mahalanobis residual norms `rho` under
    `kernel`: "tukey" (1 - (rho/TUKEY_C)^2)^2 with a hard zero beyond
    TUKEY_C, "huber" min(1, HUBER_C / rho), and "none" 1."""
    if kernel == "tukey":
        x = np.clip(rho / TUKEY_C, 0.0, 1.0)
        return np.where(rho > TUKEY_C, 0.0, (1.0 - x * x) ** 2)
    if kernel == "huber":
        return np.where(rho <= HUBER_C, 1.0, HUBER_C / np.maximum(rho, HUBER_C))
    if kernel == "none":
        return np.ones_like(rho)
    raise ContractViolation(f"unknown kernel {kernel}")


# ---------------------------------------------------------------------------
# Stacks: the batched path shared by the engine, the dense oracle and LM
# ---------------------------------------------------------------------------

def _take(a, sel):
    return a if sel is None else a[sel]


def _take_each(at, sel):
    """Each slot's pose index `at[pos]` at `sel`; None stays None."""
    return [None if a is None else a[sel] for a in at]


class FactorStack:
    """Factors of one kind and adjacency shape, stacked row-wise for their kernel.

    Row arrays: z (rows, m), sigma (rows, m) and payload[key]. `owner`
    (rows,) gives each row's factor for kinds with constituents and is None
    when rows are the factors themselves.
    """

    def __init__(self, kind: str, dims: tuple, nodes: list):
        spec = FACTOR_KINDS[kind]
        self.kind = kind
        self.spec = spec
        self.dims = dims
        self.offsets = tuple(int(o) for o in np.cumsum((0,) + dims)[:-1])
        self.joint_dim = int(sum(dims))
        self.ids = [f.id for f in nodes]
        self.nodes = nodes
        self.adjacency = np.array(
            [f.adjacency for f in nodes], dtype=int
        ).reshape(len(nodes), len(dims))
        keys = [key for key, _ in spec.payload]
        if spec.constituents:
            counts = [len(f.constituents()) for f in nodes]
            self.owner = np.repeat(np.arange(len(nodes)), counts)
            fields = list(zip(*[c for f in nodes for c in f.constituents()]))
        else:
            self.owner = None
            fields = [[f.measurement for f in nodes],
                      *([f.payload[k] for f in nodes] for k in keys)]
        self.z = np.array(fields[0], dtype=float)
        self.payload = {k: np.array(col, dtype=float) for k, col in zip(keys, fields[1:])}
        sigma = np.array([f.sigma for f in nodes], dtype=float)
        self.sigma = sigma if self.owner is None else sigma[self.owner]

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def arity(self) -> int:
        return len(self.dims)


def group_factors(graph, factors=None) -> list:
    """((kind, dims, row dim), nodes) groups in sorted key order, nodes by id;
    `dims` are the VARIABLE_DIMS of the adjacent variables' kinds."""
    groups: dict = {}
    dim_of = {vid: VARIABLE_DIMS[v.kind] for vid, v in graph.variables.items()}.__getitem__
    factors = graph.factors.values() if factors is None else factors
    for fac in sorted(factors, key=attrgetter("id")):
        dims = tuple(map(dim_of, fac.adjacency))
        groups.setdefault((fac.kind, dims, len(fac.sigma)), []).append(fac)
    return [(key, groups[key]) for key in sorted(groups)]


def factor_stacks(graph, factors=None) -> list:
    return [FactorStack(kind, dims, nodes)
            for (kind, dims, _), nodes in group_factors(graph, factors)]


def evaluate_rows(stack: FactorStack, cam, X, rot, at, sel=None, want_jac=True):
    """(value, J, valid) of the stack's rows `sel` (all when None) at X.

    X holds the stacked adjacency means of those rows, (rows, joint_dim).
    `rot` is `geometry.pose_rotations_batch` of the distinct poses the
    caller holds, with Jr when want_jac, and `at[pos]` gives, for each pose
    slot, each row's pose among them; other slots' entries are not read.
    """
    kernel = globals()[stack.spec.kernel]  # looked up per call, so it can be wrapped
    payload = [_take(stack.payload[key], sel) for key, _ in stack.spec.payload]
    params = [X[:, o:o + d] for o, d in zip(stack.offsets, stack.dims)]
    for pos in stack.spec.pose_slots:
        R, Jr = rot
        i = at[pos]
        params[pos] = PoseRows(params[pos][:, :3], R[i], Jr[i] if want_jac else None)
    return kernel(cam, _take(stack.z, sel), *payload, *params, want_jac=want_jac)


def linearise_batch(stack: FactorStack, cam, X, rot, at, rows=None, weight=None):
    """(eta, lam, weight) of the stack's factors `rows` (all when None).

    X holds the factors' stacked adjacency means, (len(rows), joint_dim),
    and `at` their pose slots' poses among the rotations `rot` (see
    `evaluate_rows`). `weight` maps each row's Mahalanobis residual norm to
    its weight; by default it is the kind's loss, none for a linear kind and
    Tukey's for every other. Invalid rows get weight 0. A factor's weight is
    the mean over its rows.
    """
    owner = stack.owner
    sel, Xr = rows, X
    if owner is not None:
        # each selected factor's position in X, per constituent row
        local = np.full(stack.n, -1, dtype=int)
        local[slice(None) if rows is None else rows] = np.arange(X.shape[0])
        local = local[owner]
        sel = local >= 0
        local = local[sel]
        Xr = X[local]
        at = _take_each(at, local)
    value, J, valid = evaluate_rows(stack, cam, Xr, rot, at, sel)
    inv_var = 1.0 / (_take(stack.sigma, sel) ** 2)
    rho = np.sqrt(np.sum(value**2 * inv_var, axis=1))
    if weight is None:
        w = robust_weight("none" if stack.spec.linear else "tukey", rho)
    else:
        w = weight(rho)
    w = np.where(valid, w, 0.0)
    D = inv_var * w[:, None]
    if stack.spec.linear:
        # exact kinds have no pose slots
        t = -evaluate_rows(stack, cam, np.zeros_like(Xr), None, at, sel, want_jac=False)[0]
    else:
        t = (J @ Xr[:, :, None])[:, :, 0] - value
    JD = J * D[:, :, None]
    lam = np.einsum("nki,nkj->nij", JD, J)
    eta = np.einsum("nki,nk->ni", JD, t)
    if owner is not None:
        n = X.shape[0]
        lam_f = np.zeros((n, stack.joint_dim, stack.joint_dim))
        eta_f = np.zeros((n, stack.joint_dim))
        wsum = np.zeros(n)
        cnt = np.zeros(n)
        np.add.at(lam_f, local, lam)
        np.add.at(eta_f, local, eta)
        np.add.at(wsum, local, w)
        np.add.at(cnt, local, 1.0)
        lam, eta, w = lam_f, eta_f, wsum / np.maximum(cnt, 1.0)
    return eta, 0.5 * (lam + np.transpose(lam, (0, 2, 1))), w


def residual_rows(stack: FactorStack, cam, X, rot, at):
    """(values, valid) of every row at the factors' stacked means X, whose
    pose slots' poses `at` index the rotations `rot` (Jr not needed).

    Invalid rows come back zeroed.
    """
    if stack.owner is not None:
        X, at = X[stack.owner], _take_each(at, stack.owner)
    value, _, valid = evaluate_rows(stack, cam, X, rot, at, want_jac=False)
    return np.where(valid[:, None], value, 0.0), valid


def residual_sums(stack: FactorStack, cam, X, rot, at):
    """(energy, pixel-error sum, pixel rows) of a stack at its factors' means
    X, posed as in `residual_rows`.

    The energy is half the squared Mahalanobis residual with the
    unrobustified noise; invalid rows count zero and no pixel error.
    """
    value, valid = residual_rows(stack, cam, X, rot, at)
    energy = float(0.5 * np.sum((value / stack.sigma) ** 2))
    if not stack.spec.pixel:
        return energy, 0.0, 0
    norms = np.linalg.norm(value, axis=1)
    return energy, float(np.sum(norms[valid])), int(np.count_nonzero(valid))


# ---------------------------------------------------------------------------
# One-factor view (tests; bench/spans.py wraps evaluate_factor)
# ---------------------------------------------------------------------------

def own_poses(stack: FactorStack, X, want_jac=True):
    """(rot, at) that pose each row of X by its own pose slots: one rotation
    per row and slot, none shared between rows. `evaluate_factor` uses it;
    callers that hold many rows of few poses name the distinct poses."""
    n, slots = X.shape[0], stack.spec.pose_slots
    poses = [X[:, stack.offsets[pos]:][:, :stack.dims[pos]] for pos in slots]
    rot = pose_rotations_batch(np.concatenate([np.zeros((0, 6))] + poses), want_jac)
    at = [np.arange(n) + slots.index(pos) * n if pos in slots else None
          for pos in range(stack.arity)]
    return rot, at


def _one(graph, factor: FactorNode, means: dict):
    stack = factor_stacks(graph, [factor])[0]
    x0 = np.concatenate([np.asarray(means[vid], dtype=float) for vid in factor.adjacency])
    return stack, x0


def evaluate_factor(graph, factor: FactorNode, means: dict, want_jac=True) -> Residual:
    """Residual of one factor at the given variable means.

    Invalid rows (cheirality/degeneracy) come back zeroed, with zeroed
    Jacobians, instead of raising, matching the engine's outlier handling.
    A combined factor stacks its constituents' rows.
    """
    stack, x0 = _one(graph, factor, means)
    rows = 1 if stack.owner is None else stack.owner.size
    X = np.repeat(x0[None], rows, axis=0)
    value, J, valid = evaluate_rows(stack, graph.camera, X, *own_poses(stack, X, want_jac),
                                    want_jac=want_jac)
    value = np.where(valid[:, None], value, 0.0).reshape(-1)
    jac = {}
    if want_jac:
        J = np.where(valid[:, None, None], J, 0.0).reshape(-1, stack.joint_dim)
        for vid, o, d in zip(factor.adjacency, stack.offsets, stack.dims):
            jac[vid] = J[:, o:o + d]
    return Residual(value, jac, x0, valid=bool(np.all(valid)))
