"""Measurement models and the one evaluate-and-linearise path of every solver.

Each kind in `graph.FACTOR_KINDS` names one batched kernel here,

    eval_<kind>_batch(camera, z, *payload, *variables, want_jac=True)

which evaluates n rows at once and returns the residual values (n, m), the
joint Jacobian (n, m, D) over the adjacency in order (None without want_jac)
and a validity mask: cheirality or plane-degeneracy failures flag a row as an
outlier for the current iteration rather than raising. A pose slot arrives
as `PoseRows`: its translations, its rotations R = exp(w) and, with
want_jac, its right Jacobians Jr(w). No kernel exponentiates a rotation
vector. The caller of `evaluate_rows` computes the rotations once per row of
the pose bank (`geometry.pose_rotations_batch`), and `evaluate_rows` gathers
each pose slot's through the stack's own `rows`. So a sweep rotates each pose
once, not once per factor row.

Each measurement model is written once: a rigid reprojection reprojects the
body's baked point moved by the body's pose, and a rigid plane prediction
predicts the body's plane so moved. Both call the private bodies `_reproject`
and `_moved_plane`, not a public `eval_*_batch`, which the benchmark's span
tracer wraps: a nested public call would count its rows twice.

`compile_graph` compiles the graph once for the propagation engine, the dense
oracle and Levenberg-Marquardt: a `VariableBank` per dimension and a
`FactorStack` per kind and adjacency shape, which keeps the graph's camera.
Every solver evaluates through the stacks: `evaluate_rows` calls the kernel,
`linearise_batch` turns rows into information form, and `residual_totals`
gives the energy and pixel error behind the convergence metrics from the
rows of `residual_rows`. A row is one kernel evaluation: the factor itself,
or for kinds with constituents (combined factors) one constituent, `owner`
mapping it to its factor.

Linearisation follows the first-order expansion of the residual v(X) around
X0 with robust-rescaled noise S' = S / w:

    lam = J^T S'^-1 J        eta = J^T S'^-1 (J X0 - v(X0))

which is invariant to the sign convention of v. A robust weight w is computed
per row from the Mahalanobis norm of its unrobustified residual at X0 by
`robust_weight`, every solver's one robust loss: Tukey (c = TUKEY_C),
Huber (c = HUBER_C) or none; `robust_cost` is the cost LM minimises under
Huber or none. A solver names a kernel, Tukey's for GBP and the dense
oracle by default and Huber's for LM, and `FactorKind.loss` gives each
kind's loss under it: none for a linear kind (priors, linear factors), the
named kernel for every other. Tukey's w = 0 turns the row into zero
information until beliefs move again. A combined factor is the product of
its constituents: their rows, each with its own weight, are summed into the
factor. Linear kinds are exact: they are evaluated once, at X0 = 0, so that
eta is not formed by cancellation.

`evaluate_factor` is the one-factor view of the batched path: it compiles the
factor alone and poses each slot by its own rotation. No solver calls it: it
stays because the benchmark's span tracer (`bench/spans.py`) wraps it by
name, here and as re-exported by `reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
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
from .graph import ANY, FACTOR_KINDS, VARIABLE_DIMS, FactorNode


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


def robust_cost(kernel: str, rho: np.ndarray) -> np.ndarray:
    """Cost of Mahalanobis residual norms `rho` under `kernel`: "huber"
    rho^2/2 up to HUBER_C and HUBER_C rho - HUBER_C^2/2 beyond, "none"
    rho^2/2."""
    if kernel == "none":
        return 0.5 * rho * rho
    if kernel == "huber":
        c = HUBER_C
        return np.where(rho <= c, 0.5 * rho * rho, c * rho - 0.5 * c * c)
    raise ContractViolation(f"unknown kernel {kernel}")


# ---------------------------------------------------------------------------
# Stacks: the batched path shared by the engine, the dense oracle and LM
# ---------------------------------------------------------------------------

def _take(a, sel):
    return a if sel is None else a[sel]


def _stack(rows) -> np.ndarray:
    """`np.array(rows, dtype=float)` of equal-shape arrays, by one
    concatenate: half the time on thousands of small rows."""
    return np.concatenate(rows, dtype=float).reshape(len(rows), *np.shape(rows[0]))


def _find(ids, keys):
    """(indices into `keys`, rows of `ids`) of the keys the ascending `ids` hold."""
    at = np.searchsorted(ids, keys)
    hit = at < ids.size
    hit[hit] = ids[at[hit]] == keys[hit]
    return np.flatnonzero(hit), at[hit]


class VariableBank:
    """Ids, means and priors of all variables of one dimension, in id order."""

    def __init__(self, dim: int, nodes: list):
        self.dim = dim
        self.ids = np.array([v.id for v in nodes], dtype=int)
        self.prior_eta = np.array([v.prior.eta for v in nodes], dtype=float).reshape(-1, dim)
        self.prior_lam = np.array(
            [v.prior.lam for v in nodes], dtype=float).reshape(-1, dim, dim)
        self.mean = np.array([v.mean for v in nodes], dtype=float).reshape(-1, dim)

    def rows_of(self, vids) -> np.ndarray:
        """Bank rows of the variable ids `vids`."""
        vids = np.asarray(vids, dtype=int)
        found, rows = _find(self.ids, vids)
        if found.size != vids.size:
            raise ContractViolation(f"variables {vids} are not all in the {self.dim}-dim bank")
        return rows


class FactorStack:
    """Factors of one kind and adjacency shape, stacked row-wise for their kernel.

    Row arrays: z (rows, m), sigma (rows, m) and payload[key]. `owner`
    (rows,) gives each row's factor for kinds with constituents and is None
    when rows are the factors themselves. `rows[pos]` holds each factor's
    row in the bank `banks[pos]`; a pose slot's rows also name its rotations
    (see `evaluate_rows`). `camera` is the graph's.
    """

    def __init__(self, key: tuple, nodes: list, banks: dict, camera: CameraModel):
        kind, dims, _ = key
        spec = FACTOR_KINDS[kind]
        self.key = key
        self.camera = camera
        self.kind = kind
        self.spec = spec
        self.dims = dims
        self.offsets = tuple(int(o) for o in np.cumsum((0,) + dims)[:-1])
        self.joint_dim = int(sum(dims))
        self.ids = [f.id for f in nodes]
        self.adjacency = np.fromiter(
            chain.from_iterable([f.adjacency for f in nodes]), dtype=int,
            count=len(nodes) * len(dims)).reshape(len(nodes), len(dims))
        self.banks = [banks[d] for d in dims]
        self.rows = [bank.rows_of(vids) for bank, vids in zip(self.banks, self.adjacency.T)]
        keys = [key for key, _ in spec.payload]
        if spec.constituents:
            counts = [len(f.constituents()) for f in nodes]
            self.owner = np.repeat(np.arange(len(nodes)), counts)
            fields = list(zip(*[c for f in nodes for c in f.constituents()]))
        else:
            self.owner = None
            fields = [[f.measurement for f in nodes],
                      *([f.payload[k] for f in nodes] for k in keys)]
        self.z = _stack(fields[0])
        self.payload = {k: _stack(col) for k, col in zip(keys, fields[1:])}
        sigma = _stack([f.sigma for f in nodes])
        self.sigma = sigma if self.owner is None else sigma[self.owner]

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def arity(self) -> int:
        return len(self.dims)


# The group key of each kind whose key follows from its FACTOR_KINDS entry:
# no ANY slot (so a fixed arity) and an int measurement dimension.
_STATIC_KEYS = {
    kind: (kind, tuple(VARIABLE_DIMS[v] for v in spec.signature), spec.mdim)
    for kind, spec in FACTOR_KINDS.items()
    if ANY not in spec.signature and isinstance(spec.mdim, int)
}


def group_factors(graph, factors=None) -> list:
    """((kind, dims, row dim), nodes) groups in sorted key order, nodes by id;
    `dims` are the VARIABLE_DIMS of the adjacent variables' kinds. Only the
    kinds with an ANY slot (`PRIOR`, `LINEAR`) are keyed factor by factor."""
    groups: dict = {}
    static = _STATIC_KEYS.get
    dim_of = {vid: VARIABLE_DIMS[v.kind] for vid, v in graph.variables.items()}.__getitem__
    factors = graph.factors.values() if factors is None else factors
    for fac in sorted(factors, key=attrgetter("id")):
        key = static(fac.kind) or (fac.kind, tuple(map(dim_of, fac.adjacency)),
                                   len(fac.sigma))
        groups.setdefault(key, []).append(fac)
    return [(key, groups[key]) for key in sorted(groups)]


def compile_graph(graph, factors=None, bank=VariableBank, stack=FactorStack) -> tuple:
    """({dim: bank(dim, variables in id order)}, [stack(key, nodes, banks,
    graph.camera) per `group_factors` group of `factors`]); the engine passes
    its classes, which add propagation state. The 6-dim bank holds the
    POSE_KINDS."""
    nodes: dict = {d: [] for d in sorted(set(VARIABLE_DIMS.values()))}
    for vid in sorted(graph.variables):
        node = graph.variables[vid]
        nodes[node.dim].append(node)
    banks = {d: bank(d, group) for d, group in nodes.items()}
    return banks, [stack(key, group, banks, graph.camera)
                   for key, group in group_factors(graph, factors)]


def evaluate_rows(stack: FactorStack, X, rot, sel=None, want_jac=True):
    """(value, J, valid) of the stack's rows `sel` (all when None) at X.

    X holds the stacked adjacency means of those rows, (rows, joint_dim).
    `rot` is `geometry.pose_rotations_batch` of the rows of the pose bank,
    with Jr when want_jac: each pose slot takes its rotations at its
    `stack.rows`, a constituent row at its owner's.
    """
    kernel = globals()[stack.spec.kernel]  # looked up per call, so it can be wrapped
    payload = [_take(stack.payload[key], sel) for key, _ in stack.spec.payload]
    params = [X[:, o:o + d] for o, d in zip(stack.offsets, stack.dims)]
    for pos in stack.spec.pose_slots:
        R, Jr = rot
        i = _take(_take(stack.rows[pos], stack.owner), sel)
        params[pos] = PoseRows(params[pos][:, :3], R[i], Jr[i] if want_jac else None)
    return kernel(stack.camera, _take(stack.z, sel), *payload, *params, want_jac=want_jac)


def linearise_batch(stack: FactorStack, X, rot, rows=None, kernel="tukey"):
    """(eta, lam, weight) of the stack's factors `rows` (all when None).

    X holds the factors' stacked adjacency means, (len(rows), joint_dim),
    and `rot` the pose bank's rotations (see `evaluate_rows`). Each row is
    weighted by `robust_weight` of the kind's loss under `kernel`
    (`FactorKind.loss`) at its Mahalanobis residual norm. Invalid rows get
    weight 0. A factor's weight is the mean over its rows. An exact kind is
    evaluated at 0 whatever X, and needs no `rot`.

    lam = J^T D J is summed in a fixed order (`_outer_sum`): from +0.0, one
    measurement component after another. That is
    `np.einsum("nki,nkj->nij", J D, J)`'s own sum, bit for bit, signed
    zeros included. The order stays fixed because a run's decisions follow
    every bit of lam: a 1.8e-15 change in it flips the plane verdict of
    `test_export_reconstruction_box_room`.
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
    if stack.spec.linear:
        Xr = np.zeros_like(Xr)
    value, J, valid = evaluate_rows(stack, Xr, rot, sel)
    inv_var = 1.0 / (_take(stack.sigma, sel) ** 2)
    rho = np.sqrt(np.sum(value**2 * inv_var, axis=1))
    w = np.where(valid, robust_weight(stack.spec.loss(kernel), rho), 0.0)
    D = inv_var * w[:, None]
    t = -value if stack.spec.linear else (J @ Xr[:, :, None])[:, :, 0] - value
    JD = J * D[:, :, None]
    lam = _outer_sum(JD, J)
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
    # C order, as einsum gave it: the engine's matmuls on lam keep their path
    return eta, np.ascontiguousarray(0.5 * (lam + np.transpose(lam, (0, 2, 1)))), w


def _outer_sum(JD, J):
    """Sum over k of the outer products of JD[n, k] and J[n, k], (n, D, D),
    in the order `linearise_batch` states, as a view of a (D, D, n) array.
    It runs on component-major copies, so that each product is one multiply
    over contiguous rows."""
    JDc = np.ascontiguousarray(JD.transpose(1, 2, 0))
    Jc = np.ascontiguousarray(J.transpose(1, 2, 0))
    lam = np.zeros((JDc.shape[1], Jc.shape[1], Jc.shape[2]))
    for JDk, Jk in zip(JDc, Jc):
        lam += JDk[:, None, :] * Jk[None, :, :]
    return lam.transpose(2, 0, 1)


def residual_rows(stack: FactorStack, X, rot):
    """(values, valid) of every row at the factors' stacked means X, posed by
    the pose bank's rotations `rot` (Jr not needed).

    Invalid rows come back zeroed.
    """
    if stack.owner is not None:
        X = X[stack.owner]
    value, _, valid = evaluate_rows(stack, X, rot, want_jac=False)
    return np.where(valid[:, None], value, 0.0), valid


def residual_sums(stack: FactorStack, value, valid):
    """(energy, pixel-error sum, pixel rows) of a stack's `residual_rows`
    (value, valid).

    The energy is half the squared Mahalanobis residual with the
    unrobustified noise; invalid rows count zero and no pixel error.
    """
    energy = float(0.5 * np.sum((value / stack.sigma) ** 2))
    if not stack.spec.pixel:
        return energy, 0.0, 0
    norms = np.linalg.norm(value, axis=1)
    return energy, float(np.sum(norms[valid])), int(np.count_nonzero(valid))


def residual_totals(stacks, rows):
    """(energy, average pixel error, NaN without a valid pixel row) of the
    stacks from their `residual_rows` `rows`, summed as in `residual_sums`:
    the one metrics pass of the engine and of LM."""
    sums = [residual_sums(s, *r) for s, r in zip(stacks, rows)]
    count = sum(n for _, _, n in sums)
    return (sum((e for e, _, _ in sums), 0.0),
            sum(px for _, px, _ in sums) / count if count else math.nan)


# ---------------------------------------------------------------------------
# One-factor view (tests; bench/spans.py wraps evaluate_factor)
# ---------------------------------------------------------------------------

def evaluate_factor(graph, factor: FactorNode, means: dict, want_jac=True) -> Residual:
    """Residual of one factor at the given variable means.

    Invalid rows (cheirality/degeneracy) come back zeroed, with zeroed
    Jacobians, instead of raising, matching the engine's outlier handling.
    A combined factor stacks its constituents' rows.
    """
    stack = compile_graph(graph, [factor])[1][0]
    x0 = np.concatenate([np.asarray(means[vid], dtype=float) for vid in factor.adjacency])
    slots = stack.spec.pose_slots
    # the k-th pose slot is posed by the k-th rotation
    rot = pose_rotations_batch(np.reshape(
        [x0[stack.offsets[pos]:][:6] for pos in slots], (-1, 6)), want_jac)
    for k, pos in enumerate(slots):
        stack.rows[pos] = np.array([k])
    rows = 1 if stack.owner is None else stack.owner.size
    X = np.repeat(x0[None], rows, axis=0)
    value, J, valid = evaluate_rows(stack, X, rot, want_jac=want_jac)
    value = np.where(valid[:, None], value, 0.0).reshape(-1)
    jac = {}
    if want_jac:
        J = np.where(valid[:, None, None], J, 0.0).reshape(-1, stack.joint_dim)
        for vid, o, d in zip(factor.adjacency, stack.offsets, stack.dims):
            jac[vid] = J[:, o:o + d]
    return Residual(value, jac, x0, valid=bool(np.all(valid)))
