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
  per solve, and each damped step is factorised by SuperLU.
* structure_cost_probe: symbolic elimination cost of a dense-Schur-style
  solve, quantifying how heterogeneous factors erode the landmark-diagonal
  sparsity that such solvers rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import ContractViolation, SingularGaussianError
from .factors import (
    evaluate_factor,  # noqa: F401  (bench/spans.py wraps reference.evaluate_factor)
    factor_stacks,
    linearise_batch,
    residual_rows,
    residual_sums,
    tukey_weight_batch,
)
from .gaussians import BlockLayout, GaussianMoments
from .graph import KEYFRAME, PRIOR, FactorGraph


def build_layout(graph: FactorGraph) -> BlockLayout:
    return BlockLayout.from_dims(
        (vid, graph.variables[vid].dim) for vid in sorted(graph.variables)
    )


class _System:
    """The graph's factor stacks and variable priors, indexed into one layout.

    Means are flat vectors in layout order; `cols[k]` holds, per factor of
    stack k, the columns of its adjacency, so that x[cols[k]] stacks the
    factors' means and (cols, cols) addresses their joint block.

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

    def assemble(self, x: np.ndarray, weights=None):
        """Joint (eta, lam) at x: priors plus every stack's linearisation.

        lam is a CSC matrix in the compiled pattern. `weights(stack)` gives
        the row weight function for linearise_batch; None keeps each
        factor's own robust setting. Each quantity is one bincount over the
        block entries in priors-then-stacks order, which adds them in the
        order a sequential scatter would.
        """
        etas = [p_eta for _, p_eta, _ in self.priors]
        lams = [p_lam for _, _, p_lam in self.priors]
        cam = self.graph.camera
        for stack, cols in zip(self.stacks, self.cols):
            f_eta, f_lam, _ = linearise_batch(
                stack, cam, x[cols], weight=None if weights is None else weights(stack)
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


def _unit(rho):
    return np.ones_like(rho)


def assemble_dense(graph: FactorGraph, means: dict, robust: bool = True):
    """Global information form (eta, lam, layout) at the given means."""
    system = _System(graph)
    eta, lam = system.assemble(system.flat(means), None if robust else (lambda s: _unit))
    return eta, lam.toarray(), system.layout


def dense_marginals(graph: FactorGraph, means: dict | None = None, robust: bool = True):
    """Exact per-variable moments by full inversion of the joint precision."""
    if means is None:
        means = {vid: v.mean for vid, v in graph.variables.items()}
    eta, lam, layout = assemble_dense(graph, means, robust=robust)
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

@dataclass
class LmConfig:
    max_iterations: int = 50
    kernel: str = "huber"  # "huber" | "tukey" | "none"
    kernel_scale: float = 1.345
    lambda_init: float = 1e-4
    lambda_factor: float = 3.0
    lambda_max: float = 1e10
    cost_rel_tol: float = 1e-10


@dataclass
class LmResult:
    means: dict
    trace: list
    converged: bool
    hit_lambda_max: bool = False


def _kernel_cost(kind: str, s: np.ndarray, c: float) -> np.ndarray:
    if kind == "none":
        return 0.5 * s * s
    if kind == "huber":
        return np.where(s <= c, 0.5 * s * s, c * s - 0.5 * c * c)
    if kind == "tukey":
        u = 1.0 - (s / c) ** 2
        return np.where(s > c, c * c / 6.0, c * c / 6.0 * (1.0 - u**3))
    raise ContractViolation(f"unknown kernel {kind}")


def _kernel_weight(kind: str, s: np.ndarray, c: float) -> np.ndarray:
    if kind == "none":
        return np.ones_like(s)
    if kind == "huber":
        return np.where(s <= c, 1.0, c / np.maximum(s, c))
    if kind == "tukey":
        return tukey_weight_batch(s, c)
    raise ContractViolation(f"unknown kernel {kind}")


def _lm_kernel(stack, cfg: LmConfig) -> str:
    # LM does not robustify priors: they carry the gauge.
    return "none" if stack.kind == PRIOR else cfg.kernel


def _lm_cost(system: _System, x: np.ndarray, cfg: LmConfig) -> float:
    cost = 0.0
    for stack, cols in zip(system.stacks, system.cols):
        value, _ = residual_rows(stack, system.graph.camera, x[cols])
        s = np.sqrt(np.sum((value / stack.sigma) ** 2, axis=1))
        cost += float(np.sum(_kernel_cost(_lm_kernel(stack, cfg), s, cfg.kernel_scale)))
    for (cols, _, p_lam), mean in zip(system.priors, system.prior_means):
        d = x[cols] - mean
        cost += 0.5 * float(np.einsum("ni,nij,nj->", d, p_lam, d))
    return cost


def avg_reprojection_px(system: _System, x: np.ndarray) -> float:
    """Mean pixel error at the flat means `x` over the valid pixel rows; NaN
    when there is none."""
    total, count = 0.0, 0
    for stack, cols in zip(system.stacks, system.cols):
        _, px, n = residual_sums(stack, system.graph.camera, x[cols])
        total += px
        count += n
    return total / count if count else math.nan


def _solve_step(damp: csc_matrix, rhs: np.ndarray):
    """damp^-1 rhs by sparse LU, or None when the factorisation is singular."""
    try:
        lu = splu(damp)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None
    return lu.solve(rhs)


def lm_solve(graph: FactorGraph, config: LmConfig | None = None) -> LmResult:
    """Levenberg-Marquardt over all factor energies plus variable priors."""
    cfg = config or LmConfig()
    system = _System(graph)
    x = system.flat({vid: node.mean for vid, node in graph.variables.items()})

    def weights(stack):
        kind = _lm_kernel(stack, cfg)
        return lambda rho: _kernel_weight(kind, rho, cfg.kernel_scale)

    lam_damp = cfg.lambda_init
    cost = _lm_cost(system, x, cfg)
    trace = [{"iteration": 0, "cost": cost,
              "avg_reproj_px": avg_reprojection_px(system, x)}]
    converged = False
    hit_max = False

    for it in range(1, cfg.max_iterations + 1):
        # With J = dv/dx, the gradient of 1/2 w |v|^2 is w J^T S^-1 v = H x - eta.
        eta, H = system.assemble(x, weights)
        g = H @ x - eta
        h_diag = np.maximum(H.data[system.diag], 1e-12)

        accepted = False
        while not accepted:
            damp = H.copy()
            damp.data[system.diag] += lam_damp * h_diag
            delta = _solve_step(damp, -g)
            if delta is not None and np.all(np.isfinite(delta)):
                cand = x + delta
                cand_cost = _lm_cost(system, cand, cfg)
                if cand_cost <= cost:
                    x = cand
                    rel = (cost - cand_cost) / max(cost, 1e-300)
                    cost = cand_cost
                    lam_damp = max(lam_damp / cfg.lambda_factor, 1e-12)
                    accepted = True
                    trace.append({
                        "iteration": it, "cost": cost,
                        "avg_reproj_px": avg_reprojection_px(system, x),
                    })
                    if rel < cfg.cost_rel_tol:
                        converged = True
                    break
            lam_damp *= cfg.lambda_factor
            if lam_damp > cfg.lambda_max:
                hit_max = True
                break
        if hit_max or converged:
            break

    return LmResult(system.means(x), trace, converged, hit_max)


# ---------------------------------------------------------------------------
# Structure probe
# ---------------------------------------------------------------------------

def structure_cost_probe(graph: FactorGraph) -> dict:
    """Symbolic cost of a dense-Schur-style solve on this graph.

    Eliminates every non-keyframe variable (natural order) from the variable
    adjacency graph, charging |clique|^2 block operations per elimination and
    counting fill edges; also reports the density of the reduced keyframe
    system. Heterogeneous factors couple landmarks to each other, so these
    counts grow much faster than the factor count.
    """
    adj: dict[int, set] = {vid: set() for vid in graph.variables}
    for factor in graph.factors.values():
        ids = factor.adjacency
        for a in ids:
            for b in ids:
                if a != b:
                    adj[a].add(b)
    landmark_offdiag = sum(
        1
        for a in adj
        for b in adj[a]
        if a < b
        and graph.variables[a].kind != KEYFRAME
        and graph.variables[b].kind != KEYFRAME
    )
    block_ops = 0
    fill_edges = 0
    is_landmark = {vid: graph.variables[vid].kind != KEYFRAME for vid in adj}
    order = sorted(vid for vid in adj if is_landmark[vid])
    live = {vid: set(n) for vid, n in adj.items()}
    for vid in order:
        nbrs = [n for n in live[vid] if n != vid]
        block_ops += len(nbrs) ** 2
        for i, a in enumerate(nbrs):
            live[a].discard(vid)
            for b in nbrs[i + 1 :]:
                if b not in live[a]:
                    live[a].add(b)
                    live[b].add(a)
                    # keyframe-pair fill is the normal Schur-complement
                    # densification; landmark-landmark fill is what the
                    # block-diagonal trick of BA solvers relies on avoiding
                    if is_landmark[a] and is_landmark[b]:
                        fill_edges += 1
        del live[vid]
    reduced_nnz = sum(1 for a in live for b in live[a] if a < b and b in live)
    return {
        "landmark_offdiag_blocks": landmark_offdiag,
        "elimination_block_ops": block_ops,
        "fill_edges": fill_edges,
        "reduced_camera_offdiag_blocks": reduced_nnz,
    }
