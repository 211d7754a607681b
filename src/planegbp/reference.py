"""Ground-truth solvers used as correctness oracles and comparison baselines.

* dense_marginals: exact Gaussian inference by assembling the full joint
  information form and inverting it. The assembly linearises every factor
  with the same batched kernels as the message engine, one call per factor
  stack, and sums the blocks into the joint precision; it does not go
  through message passing, which makes it an independent check of
  propagation results. It is the only place the joint precision is dense.
* lm_solve: a plain Levenberg-Marquardt loop over the same factor energies,
  for the convergence-behaviour comparisons against propagation. It shares
  the assembly: with LM's loss weights, H is the Gauss-Newton Hessian and
  the gradient is H x - eta. H stays sparse, in a CSC pattern compiled once
  per solve, and each damped step is factorised by SuperLU as the symmetric
  positive-definite system it is: symmetric mode, diagonal pivots and the
  COLAMD ordering. The result reports the fill of the first damped
  factorisation, the entries that factorisation stores for L and U: the
  cost a direct solver pays for the graph's structure, where GBP's
  per-sweep cost (the routing simulator's hops) depends on the number of
  edges alone. The damping starts at LAMBDA_INIT and is divided by
  LAMBDA_FACTOR after an accepted step, multiplied after a rejected one; LM
  stops past LAMBDA_MAX or when a step gains less than COST_REL_TOL of the
  cost. Its kernel's weight is `factors.robust_weight`:
  LmConfig.kernel for the kinds GBP robustifies, none for linear kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import ContractViolation, SingularGaussianError
from .factors import (
    HUBER_C,
    evaluate_factor,  # noqa: F401  (bench/spans.py wraps reference.evaluate_factor)
    factor_stacks,
    linearise_batch,
    residual_rows,
    residual_sums,
    robust_weight,
)
from .gaussians import BlockLayout, GaussianMoments
from .geometry import pose_rotations_batch
from .graph import POSE_KINDS, FactorGraph


def build_layout(graph: FactorGraph) -> BlockLayout:
    return BlockLayout.from_dims(
        (vid, graph.variables[vid].dim) for vid in sorted(graph.variables)
    )


class _System:
    """The graph's factor stacks and variable priors, indexed into one layout.

    Means are flat vectors in layout order; `cols[k]` holds, per factor of
    stack k, the columns of its adjacency, so that x[cols[k]] stacks the
    factors' means and (cols, cols) addresses their joint block. The pose
    variables' columns are `pose_cols`, and `at[k]` gives, per pose slot of
    stack k, each factor's pose among them: `rotations(x)` rotates each pose
    once for every stack.

    The joint precision's sparsity is compiled here: every prior and factor
    block entry, priors first and then the stacks in order, maps to its slot
    in one CSC pattern (`slot`), which always holds the diagonal (`diag`).
    """

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        self.layout = build_layout(graph)
        offset = {vid: off for vid, off, _ in self.layout.blocks}
        self.stacks = factor_stacks(graph)
        self.cols = [
            np.concatenate(
                [np.array([offset[v] for v in s.adjacency[:, pos]])[:, None] + np.arange(d)
                 for pos, d in enumerate(s.dims)], axis=1,
            )
            for s in self.stacks
        ]
        poses = [(vid, off, width) for vid, off, width in self.layout.blocks
                 if graph.variables[vid].kind in POSE_KINDS]
        self.pose_cols = np.array(
            [off + np.arange(width) for _, off, width in poses], dtype=int).reshape(-1, 6)
        pose_of = {vid: i for i, (vid, _, _) in enumerate(poses)}
        self.at = [
            [np.array([pose_of[v] for v in s.adjacency[:, pos]], dtype=int)
             if pos in s.spec.pose_slots else None for pos in range(s.arity)]
            for s in self.stacks
        ]
        # Variables with a prior, grouped by dimension: (cols, eta, lam).
        groups: dict = {}
        for vid, off, width in self.layout.blocks:
            prior = graph.variables[vid].prior
            if not prior.is_zero():
                groups.setdefault(width, []).append((off + np.arange(width), prior))
        self.priors = [
            (np.stack([c for c, _ in g]), np.stack([p.eta for _, p in g]),
             np.stack([p.lam for _, p in g]))
            for g in groups.values()
        ]
        self.prior_means = [
            np.linalg.solve(p_lam, p_eta[:, :, None])[:, :, 0]
            for _, p_eta, p_lam in self.priors
        ]

        dim = self.layout.dim
        blocks = [c for c, _, _ in self.priors] + self.cols
        self.eta_cols = np.concatenate([np.zeros(0, dtype=int)] + [c.ravel() for c in blocks])
        # Entry (r, c) sorts as c * dim + r, which is CSC order. The diagonal
        # comes first and is always present, so damping reaches every variable.
        pattern, inverse = np.unique(np.concatenate([np.arange(dim) * (dim + 1)] + [
            (c[:, None, :] * dim + c[:, :, None]).ravel() for c in blocks
        ]), return_inverse=True)
        self.diag, self.slot = inverse[:dim], inverse[dim:]
        self.indices = pattern % dim
        self.indptr = np.searchsorted(pattern, np.arange(dim + 1) * dim)

    def flat(self, means: dict) -> np.ndarray:
        return np.concatenate([np.zeros(0)] + [
            np.asarray(means[vid], dtype=float) for vid, _, _ in self.layout.blocks
        ])

    def means(self, x: np.ndarray) -> dict:
        return {vid: x[off:off + width].copy() for vid, off, width in self.layout.blocks}

    def rotations(self, x: np.ndarray, want_jac: bool):
        """Rotations (and right Jacobians) of the pose variables at x."""
        return pose_rotations_batch(x[self.pose_cols], want_jac)

    def assemble(self, x: np.ndarray, weights=None):
        """Joint (eta, lam) at x: priors plus every stack's linearisation.

        lam is a CSC matrix in the compiled pattern. `weights(stack)` gives
        the row weight function for linearise_batch; None keeps each kind's
        own loss. Each quantity is one bincount over the block entries in
        priors-then-stacks order, which adds them in the order a sequential
        scatter would.
        """
        etas = [p_eta for _, p_eta, _ in self.priors]
        lams = [p_lam for _, _, p_lam in self.priors]
        cam = self.graph.camera
        rot = self.rotations(x, want_jac=True)
        for stack, cols, at in zip(self.stacks, self.cols, self.at):
            f_eta, f_lam, _ = linearise_batch(
                stack, cam, x[cols], rot, at, weight=None if weights is None else weights(stack)
            )
            etas.append(f_eta)
            lams.append(f_lam)
        dim = self.layout.dim
        eta = _sum_into(self.eta_cols, etas, dim)
        lam = _sum_into(self.slot, lams, self.indices.size)
        return eta, csc_matrix((lam, self.indices, self.indptr), shape=(dim, dim))


def _sum_into(slots: np.ndarray, blocks: list, size: int) -> np.ndarray:
    """out[slots[i]] += (raveled, concatenated blocks)[i], in order of i."""
    values = np.concatenate([np.zeros(0)] + [a.ravel() for a in blocks])
    # bincount returns int64 when it is given no entries
    return np.bincount(slots, values, minlength=size).astype(float, copy=False)


def assemble_dense(graph: FactorGraph, means: dict, robust: bool = True):
    """Global information form (eta, lam, layout) at the given means."""
    system = _System(graph)
    eta, lam = system.assemble(
        system.flat(means), None if robust else (lambda s: partial(robust_weight, "none")))
    return eta, lam.toarray(), system.layout


def dense_marginals(graph: FactorGraph, means: dict | None = None):
    """Exact per-variable moments by full inversion of the joint precision."""
    if means is None:
        means = {vid: v.mean for vid, v in graph.variables.items()}
    eta, lam, layout = assemble_dense(graph, means)
    try:
        cov = np.linalg.inv(lam)
    except np.linalg.LinAlgError as exc:
        raise SingularGaussianError(
            "joint precision is singular; the graph is gauge-deficient "
            "(consider a strong prior on one keyframe)"
        ) from exc
    mu = cov @ eta
    out = {}
    for vid, off, width in layout.blocks:
        sl = slice(off, off + width)
        out[vid] = GaussianMoments(mu[sl], 0.5 * (cov[sl, sl] + cov[sl, sl].T))
    return out


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------

LAMBDA_INIT, LAMBDA_FACTOR, LAMBDA_MAX = 1e-4, 3.0, 1e10
COST_REL_TOL = 1e-10


@dataclass
class LmConfig:
    max_iterations: int = 50
    kernel: str = "huber"  # "huber" | "none"


@dataclass
class LmResult:
    means: dict
    trace: list
    converged: bool
    hit_lambda_max: bool = False
    # entries of the first damped step's SPD factorisation (SuperLU.nnz), if any
    fill: int | None = None


def _kernel_cost(kind: str, s: np.ndarray) -> np.ndarray:
    if kind == "none":
        return 0.5 * s * s
    if kind == "huber":
        c = HUBER_C
        return np.where(s <= c, 0.5 * s * s, c * s - 0.5 * c * c)
    raise ContractViolation(f"unknown kernel {kind}")


def _lm_kernel(stack, cfg: LmConfig) -> str:
    # LM robustifies the kinds GBP does; linear kinds (the gauge priors
    # among them) stay exact.
    return "none" if stack.spec.linear else cfg.kernel


def _lm_cost(system: _System, x: np.ndarray, cfg: LmConfig) -> float:
    cost = 0.0
    rot = system.rotations(x, want_jac=False)
    for stack, cols, at in zip(system.stacks, system.cols, system.at):
        value, _ = residual_rows(stack, system.graph.camera, x[cols], rot, at)
        s = np.sqrt(np.sum((value / stack.sigma) ** 2, axis=1))
        cost += float(np.sum(_kernel_cost(_lm_kernel(stack, cfg), s)))
    for (cols, _, p_lam), mean in zip(system.priors, system.prior_means):
        d = x[cols] - mean
        cost += 0.5 * float(np.einsum("ni,nij,nj->", d, p_lam, d))
    return cost


def avg_reprojection_px(system: _System, x: np.ndarray) -> float:
    """Mean pixel error at the flat means `x` over the valid pixel rows; NaN
    when there is none."""
    total, count = 0.0, 0
    rot = system.rotations(x, want_jac=False)
    for stack, cols, at in zip(system.stacks, system.cols, system.at):
        _, px, n = residual_sums(stack, system.graph.camera, x[cols], rot, at)
        total += px
        count += n
    return total / count if count else math.nan


def _solve_step(damp: csc_matrix, rhs: np.ndarray):
    """(damp^-1 rhs, fill) by sparse LU, where fill is the number of entries
    SuperLU stores for L and U; (None, None) when the factorisation is
    singular.

    The damped Gauss-Newton Hessian is symmetric positive definite, so it is
    factorised as such: symmetric mode, diagonal pivots (threshold 0) and
    COLAMD, SuperLU's default ordering. The fill then follows from the
    sparsity pattern. General LU's partial pivoting and unsymmetric ordering
    store more entries, and how many depends on the values.
    """
    try:
        lu = splu(damp, diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None, None
    return lu.solve(rhs), lu.nnz


def lm_solve(graph: FactorGraph, config: LmConfig | None = None) -> LmResult:
    """Levenberg-Marquardt over all factor energies plus variable priors."""
    cfg = config or LmConfig()
    system = _System(graph)
    x = system.flat({vid: node.mean for vid, node in graph.variables.items()})

    def weights(stack):
        return partial(robust_weight, _lm_kernel(stack, cfg))

    lam_damp = LAMBDA_INIT
    cost = _lm_cost(system, x, cfg)
    trace = [{"iteration": 0, "cost": cost,
              "avg_reproj_px": avg_reprojection_px(system, x)}]
    converged = False
    hit_max = False
    fill = None

    for it in range(1, cfg.max_iterations + 1):
        # With J = dv/dx, the gradient of 1/2 w |v|^2 is w J^T S^-1 v = H x - eta.
        eta, H = system.assemble(x, weights)
        g = H @ x - eta
        h_diag = np.maximum(H.data[system.diag], 1e-12)

        accepted = False
        while not accepted:
            damp = H.copy()
            damp.data[system.diag] += lam_damp * h_diag
            delta, step_fill = _solve_step(damp, -g)
            if fill is None:
                fill = step_fill
            if delta is not None and np.all(np.isfinite(delta)):
                cand = x + delta
                cand_cost = _lm_cost(system, cand, cfg)
                if cand_cost <= cost:
                    x = cand
                    rel = (cost - cand_cost) / max(cost, 1e-300)
                    cost = cand_cost
                    lam_damp = max(lam_damp / LAMBDA_FACTOR, 1e-12)
                    accepted = True
                    trace.append({
                        "iteration": it, "cost": cost,
                        "avg_reproj_px": avg_reprojection_px(system, x),
                    })
                    if rel < COST_REL_TOL:
                        converged = True
                    break
            lam_damp *= LAMBDA_FACTOR
            if lam_damp > LAMBDA_MAX:
                hit_max = True
                break
        if hit_max or converged:
            break

    return LmResult(system.means(x), trace, converged, hit_max, fill)

