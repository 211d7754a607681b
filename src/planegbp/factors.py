"""Measurement models and the one evaluate-and-linearise path of every solver.

Each kind in `graph.FACTOR_KINDS` names one batched kernel here,

    eval_<kind>_batch(camera, z, *payload, *variables, want_jac=True)

which evaluates n rows at once and returns the residual values (n, m), the
joint Jacobian (n, m, D) over the adjacency in order (None without want_jac)
and a validity mask: cheirality or plane-degeneracy failures flag a row as an
outlier for the current iteration rather than raising.

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

which is invariant to the sign convention of v. A Tukey weight w is computed
per row from the Mahalanobis norm of its unrobustified residual at X0; w = 0
turns the row into zero information until beliefs move again. A combined
factor is the product of its constituents: their rows, each with its own
weight, are summed into the factor. Linear kinds (priors, linear factors) are
exact: they are expanded about X0 = 0, so that eta is not formed by
cancellation, and they carry no robust weight.

`evaluate_factor`, `factor_energy` and `linearise` are the one-factor views
of the batched path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import GaussianInfo
from .geometry import (
    EPS_PLANE,
    CameraModel,
    proj_jacobian_cam_batch,
    project_cam_batch,
    so3_exp_batch,
    so3_hat_batch,
    so3_right_jacobian_batch,
    transform_plane_jacobians_batch,
    transform_plane_min_batch,
)
from .graph import FACTOR_KINDS, FactorNode


@dataclass
class Residual:
    """Residual value with Jacobian blocks keyed by adjacent variable id."""

    value: np.ndarray
    jacobians: dict
    x0: np.ndarray  # stacked evaluation point, adjacency order
    valid: bool = True


# ---------------------------------------------------------------------------
# Batched kernels (hot path). Parameter stacks are (n, dim) arrays.
# ---------------------------------------------------------------------------

def eval_reprojection_batch(cam: CameraModel, z, c, p, want_jac=True):
    R = so3_exp_batch(c[:, 3:])
    p_cam = (R @ p[:, :, None])[:, :, 0] + c[:, :3]
    pix, valid = project_cam_batch(cam, p_cam)
    value = z - pix
    if not want_jac:
        return value, None, valid
    safe = p_cam.copy()
    safe[~valid, 2] = 1.0
    Jproj = proj_jacobian_cam_batch(cam, safe)
    dp_dw = -(R @ so3_hat_batch(p)) @ so3_right_jacobian_batch(c[:, 3:])
    return value, np.concatenate([-Jproj, -Jproj @ dp_dw, -Jproj @ R], axis=2), valid


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


def eval_plane_prediction_batch(cam, z, pi, c, want_jac=True):
    d_in = np.linalg.norm(pi, axis=-1)
    valid = d_in > EPS_PLANE
    pi_safe = np.where(valid[:, None], pi, [[0.0, 0.0, 1.0]])
    R = so3_exp_batch(c[:, 3:])
    if want_jac:
        m_cam, dm_dpose, dm_dm = transform_plane_jacobians_batch(
            R, c[:, :3], c[:, 3:], pi_safe
        )
    else:
        m_cam = transform_plane_min_batch(R, c[:, :3], pi_safe)
    valid &= np.linalg.norm(m_cam, axis=-1) > EPS_PLANE
    value = z - m_cam
    if not want_jac:
        return value, None, valid
    return value, np.concatenate([-dm_dm, -dm_dpose], axis=2), valid


def eval_rigid_plane_prediction_batch(cam, z, pi_conv, r, c, want_jac=True):
    valid = np.linalg.norm(pi_conv, axis=-1) > EPS_PLANE
    pi_safe = np.where(valid[:, None], pi_conv, [[0.0, 0.0, 1.0]])
    Rr = so3_exp_batch(r[:, 3:])
    Rc = so3_exp_batch(c[:, 3:])
    if want_jac:
        m_world, dmw_dr, _ = transform_plane_jacobians_batch(
            Rr, r[:, :3], r[:, 3:], pi_safe
        )
    else:
        m_world = transform_plane_min_batch(Rr, r[:, :3], pi_safe)
    valid &= np.linalg.norm(m_world, axis=-1) > EPS_PLANE
    mw_safe = np.where(valid[:, None], m_world, [[0.0, 0.0, 1.0]])
    if want_jac:
        m_cam, dmc_dc, dmc_dmw = transform_plane_jacobians_batch(
            Rc, c[:, :3], c[:, 3:], mw_safe
        )
    else:
        m_cam = transform_plane_min_batch(Rc, c[:, :3], mw_safe)
    valid &= np.linalg.norm(m_cam, axis=-1) > EPS_PLANE
    value = z - m_cam
    if not want_jac:
        return value, None, valid
    return value, np.concatenate([-(dmc_dmw @ dmw_dr), -dmc_dc], axis=2), valid


def eval_rigid_reprojection_batch(cam: CameraModel, z, p_conv, c, r, want_jac=True):
    Rr = so3_exp_batch(r[:, 3:])
    Rc = so3_exp_batch(c[:, 3:])
    p_world = (Rr @ p_conv[:, :, None])[:, :, 0] + r[:, :3]
    p_cam = (Rc @ p_world[:, :, None])[:, :, 0] + c[:, :3]
    pix, valid = project_cam_batch(cam, p_cam)
    value = z - pix
    if not want_jac:
        return value, None, valid
    safe = p_cam.copy()
    safe[~valid, 2] = 1.0
    Jproj = proj_jacobian_cam_batch(cam, safe)
    dpc_dwc = -(Rc @ so3_hat_batch(p_world)) @ so3_right_jacobian_batch(c[:, 3:])
    dpw_dwr = -(Rr @ so3_hat_batch(p_conv)) @ so3_right_jacobian_batch(r[:, 3:])
    JR = -Jproj @ Rc
    J = np.concatenate([-Jproj, -Jproj @ dpc_dwc, JR, JR @ dpw_dwr], axis=2)
    return value, J, valid


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

def tukey_weight_batch(rho: np.ndarray, c) -> np.ndarray:
    """Covariance-rescaling weight (1 - (rho/c)^2)^2; hard zero beyond c."""
    x = np.clip(rho / c, 0.0, 1.0)
    w = (1.0 - x * x) ** 2
    return np.where(rho > c, 0.0, w)


# ---------------------------------------------------------------------------
# Stacks: the batched path shared by the engine, the dense oracle and LM
# ---------------------------------------------------------------------------

def _take(a, sel):
    return a if sel is None else a[sel]


class FactorStack:
    """Factors of one kind and adjacency shape, stacked row-wise for their kernel.

    Row arrays: z (rows, m), sigma (rows, m), payload[key], robust and
    robust_scale (rows,). `owner` (rows,) gives each row's factor for kinds
    with constituents and is None when rows are the factors themselves.
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
            rows = [c for f in nodes for c in f.constituents()]
        else:
            self.owner = None
            rows = [(f.measurement, *(f.payload[k] for k in keys)) for f in nodes]
        self.z = np.stack([r[0] for r in rows])
        self.payload = {k: np.stack([r[i + 1] for r in rows]) for i, k in enumerate(keys)}
        sigma = np.stack([f.sigma for f in nodes])
        robust = np.array([f.robust == "tukey" and not spec.linear for f in nodes])
        scale = np.array([f.robust_scale for f in nodes], dtype=float)
        if self.owner is not None:
            sigma, robust, scale = sigma[self.owner], robust[self.owner], scale[self.owner]
        self.sigma = sigma
        self.robust = robust
        self.robust_scale = scale

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def arity(self) -> int:
        return len(self.dims)


def group_factors(graph, factors=None) -> list:
    """((kind, dims, row dim), nodes) groups in sorted key order, nodes by id."""
    groups: dict = {}
    factors = graph.factors.values() if factors is None else factors
    for fac in sorted(factors, key=lambda f: f.id):
        dims = tuple(graph.variables[v].dim for v in fac.adjacency)
        groups.setdefault((fac.kind, dims, fac.sigma.shape[0]), []).append(fac)
    return [(key, groups[key]) for key in sorted(groups)]


def factor_stacks(graph, factors=None) -> list:
    return [FactorStack(kind, dims, nodes)
            for (kind, dims, _), nodes in group_factors(graph, factors)]


def evaluate_rows(stack: FactorStack, cam, X, sel=None, want_jac=True):
    """(value, J, valid) of the stack's rows `sel` (all when None) at X.

    X holds the stacked adjacency means of those rows, (rows, joint_dim).
    """
    kernel = globals()[stack.spec.kernel]  # looked up per call, so it can be wrapped
    payload = [_take(stack.payload[key], sel) for key, _ in stack.spec.payload]
    params = [X[:, o:o + d] for o, d in zip(stack.offsets, stack.dims)]
    return kernel(cam, _take(stack.z, sel), *payload, *params, want_jac=want_jac)


def linearise_batch(stack: FactorStack, cam, X, rows=None, weight=None):
    """(eta, lam, weight) of the stack's factors `rows` (all when None).

    X holds the factors' stacked adjacency means, (len(rows), joint_dim).
    `weight` maps each row's Mahalanobis residual norm to its weight; by
    default it is the factor's own robust setting (Tukey or none). Invalid
    rows get weight 0. A factor's weight is the mean over its rows.
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
    value, J, valid = evaluate_rows(stack, cam, Xr, sel)
    inv_var = 1.0 / (_take(stack.sigma, sel) ** 2)
    rho = np.sqrt(np.sum(value**2 * inv_var, axis=1))
    if weight is None:
        w = np.where(_take(stack.robust, sel),
                     tukey_weight_batch(rho, _take(stack.robust_scale, sel)), 1.0)
    else:
        w = weight(rho)
    w = np.where(valid, w, 0.0)
    D = inv_var * w[:, None]
    if stack.spec.linear:
        t = -evaluate_rows(stack, cam, np.zeros_like(Xr), sel, want_jac=False)[0]
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


def residual_rows(stack: FactorStack, cam, X):
    """(values, valid) of every row at the factors' stacked means X.

    Invalid rows come back zeroed.
    """
    Xr = X if stack.owner is None else X[stack.owner]
    value, _, valid = evaluate_rows(stack, cam, Xr, want_jac=False)
    return np.where(valid[:, None], value, 0.0), valid


def residual_sums(stack: FactorStack, cam, X):
    """(energy, pixel-error sum, pixel rows) of a stack at its factors' means X.

    The energy is half the squared Mahalanobis residual with the
    unrobustified noise; invalid rows count zero and no pixel error.
    """
    value, valid = residual_rows(stack, cam, X)
    energy = float(0.5 * np.sum((value / stack.sigma) ** 2))
    if not stack.spec.pixel:
        return energy, 0.0, 0
    norms = np.linalg.norm(value, axis=1)
    return energy, float(np.sum(norms[valid])), int(np.count_nonzero(valid))


# ---------------------------------------------------------------------------
# One-factor views (tests, reference checks)
# ---------------------------------------------------------------------------

def _one(graph, factor: FactorNode, means: dict):
    stack = factor_stacks(graph, [factor])[0]
    x0 = np.concatenate([np.asarray(means[vid], dtype=float) for vid in factor.adjacency])
    return stack, x0


def evaluate_factor(graph, factor: FactorNode, means: dict, want_jac=True) -> Residual:
    """Residual of one factor at the given variable means.

    Invalid rows (cheirality/degeneracy) come back zeroed, with zeroed
    Jacobians, instead of raising, matching the engine's outlier handling.
    A combined factor stacks its constituents' rows; `constituent_valid`
    flags each of them.
    """
    stack, x0 = _one(graph, factor, means)
    rows = 1 if stack.owner is None else stack.owner.size
    value, J, valid = evaluate_rows(stack, graph.camera, np.repeat(x0[None], rows, axis=0),
                                    want_jac=want_jac)
    value = np.where(valid[:, None], value, 0.0).reshape(-1)
    jac = {}
    if want_jac:
        J = np.where(valid[:, None, None], J, 0.0).reshape(-1, stack.joint_dim)
        for vid, o, d in zip(factor.adjacency, stack.offsets, stack.dims):
            jac[vid] = J[:, o:o + d]
    res = Residual(value, jac, x0, valid=bool(np.all(valid)))
    if stack.owner is not None:
        res.constituent_valid = valid
    return res


def factor_energy(graph, factor: FactorNode, means: dict) -> float:
    """Half squared Mahalanobis residual with the unrobustified noise."""
    stack, x0 = _one(graph, factor, means)
    return residual_sums(stack, graph.camera, x0[None])[0]


def linearise(graph, factor: FactorNode, means: dict) -> GaussianInfo:
    """Linearised Gaussian over the factor's joint support at the given means."""
    stack, x0 = _one(graph, factor, means)
    eta, lam, _ = linearise_batch(stack, graph.camera, x0[None])
    return GaussianInfo(eta[0], lam[0])
