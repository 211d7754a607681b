"""Ground-truth solvers used as correctness oracles and comparison baselines.

* dense_marginals: exact Gaussian inference by assembling the full joint
  information form and inverting it. The assembly linearises every factor
  with the same batched kernels as the message engine, one call per factor
  stack, and scatters the blocks straight into the joint precision; it does
  not go through message passing, which makes it an independent check of
  propagation results.
* lm_solve: a plain Levenberg-Marquardt loop over the same factor energies,
  for the convergence-behaviour comparisons against propagation. It shares
  the dense assembly: with LM's loss weights, H is the Gauss-Newton Hessian
  and the gradient is H x - eta.
* structure_cost_probe: symbolic elimination cost of a dense-Schur-style
  solve, quantifying how heterogeneous factors erode the landmark-diagonal
  sparsity that such solvers rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SingularGaussianError
from .factors import (
    evaluate_factor,  # noqa: F401  (part of this module's API)
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

    def flat(self, means: dict) -> np.ndarray:
        return np.concatenate([np.zeros(0)] + [
            np.asarray(means[vid], dtype=float) for vid, _, _ in self.layout.blocks
        ])

    def means(self, x: np.ndarray) -> dict:
        return {vid: x[off:off + width].copy() for vid, off, width in self.layout.blocks}

    def assemble(self, x: np.ndarray, weights=None):
        """Joint (eta, lam) at x: priors plus every stack's linearisation.

        `weights(stack)` gives the row weight function for linearise_batch;
        None keeps each factor's own robust setting.
        """
        dim = self.layout.dim
        eta = np.zeros(dim)
        lam = np.zeros((dim, dim))
        for cols, p_eta, p_lam in self.priors:
            np.add.at(eta, cols, p_eta)
            np.add.at(lam, (cols[:, :, None], cols[:, None, :]), p_lam)
        cam = self.graph.camera
        for stack, cols in zip(self.stacks, self.cols):
            f_eta, f_lam, _ = linearise_batch(
                stack, cam, x[cols], weight=None if weights is None else weights(stack)
            )
            np.add.at(eta, cols, f_eta)
            np.add.at(lam, (cols[:, :, None], cols[:, None, :]), f_lam)
        return eta, lam


def _unit(rho):
    return np.ones_like(rho)


def assemble_dense(graph: FactorGraph, means: dict, robust: bool = True):
    """Global information form (eta, lam, layout) at the given means."""
    system = _System(graph)
    eta, lam = system.assemble(system.flat(means), None if robust else (lambda s: _unit))
    return eta, lam, system.layout


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
    for cols, p_eta, p_lam in system.priors:
        d = x[cols] - np.linalg.solve(p_lam, p_eta[:, :, None])[:, :, 0]
        cost += 0.5 * float(np.einsum("ni,nij,nj->", d, p_lam, d))
    return cost


def avg_reprojection_px(graph, means, system: _System | None = None) -> float:
    """Mean pixel error over the valid pixel rows; NaN when there is none."""
    system = system or _System(graph)
    x = system.flat(means)
    total, count = 0.0, 0
    for stack, cols in zip(system.stacks, system.cols):
        _, px, n = residual_sums(stack, graph.camera, x[cols])
        total += px
        count += n
    return total / count if count else math.nan


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
              "avg_reproj_px": avg_reprojection_px(graph, system.means(x), system)}]
    converged = False
    hit_max = False

    for it in range(1, cfg.max_iterations + 1):
        # With J = dv/dx, the gradient of 1/2 w |v|^2 is w J^T S^-1 v = H x - eta.
        eta, H = system.assemble(x, weights)
        g = H @ x - eta

        accepted = False
        while not accepted:
            damp = H + lam_damp * np.diag(np.maximum(np.diag(H), 1e-12))
            try:
                delta = np.linalg.solve(damp, -g)
            except np.linalg.LinAlgError:
                delta = None
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
                        "avg_reproj_px": avg_reprojection_px(
                            graph, system.means(x), system),
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
