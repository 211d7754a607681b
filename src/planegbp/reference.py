"""Ground-truth solvers used as correctness oracles and comparison baselines.

* dense_marginals: exact Gaussian inference by assembling the full joint
  information form and inverting it. The assembly linearises every factor
  with the same batched kernels and the same loss as the message engine
  (Tukey's kernel), one call per factor stack, and sums the blocks into the
  joint precision; it does not go through message passing, which makes it
  an independent check of propagation results. It is the only place the
  joint precision is dense.
* lm_solve: a plain Levenberg-Marquardt loop over the same factor energies,
  for the convergence-behaviour comparisons against propagation. It shares
  the assembly under LM_KERNEL, Huber's: H is the Gauss-Newton Hessian and
  the gradient is H x - eta. H stays sparse, in a CSC pattern compiled once
  per solve, and each damped step is factorised by SuperLU as the symmetric
  positive-definite system it is: symmetric mode, diagonal pivots and the
  COLAMD ordering. The storage is built once per solve too: one CSC matrix
  with int32 indices, which SuperLU takes as they are, receives H's values
  at each step, and a second one receives H plus the damping at each
  attempt. No step builds, copies or format-checks a sparse matrix. Each
  point is evaluated once: its cost and its pixel error share one
  `residual_rows` pass, which the system keeps for the last point.
  `avg_reprojection_px`, called once at the start and once per accepted
  step, returns `factors.residual_totals`' pixel error at its point, bit
  for bit. The result reports the fill of the first damped factorisation,
  the entries that factorisation stores for L and U: the cost a direct
  solver pays for the graph's structure, where GBP's per-sweep cost (the
  routing simulator's hops) depends on the number of edges alone. The damping
  starts at LAMBDA_INIT and is divided by LAMBDA_FACTOR after an accepted
  step, multiplied after a rejected one; LM stops after LM_MAX_ITERATIONS
  steps, past LAMBDA_MAX or when a step gains less than COST_REL_TOL of the
  cost. Each kind's loss under LM_KERNEL is `FactorKind.loss`, as in the
  engine: its weight is `factors.robust_weight` and its cost
  `factors.robust_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import SingularGaussianError
from .factors import (
    compile_graph,
    evaluate_factor,  # noqa: F401  (bench/spans.py wraps reference.evaluate_factor)
    linearise_batch,
    residual_rows,
    residual_totals,
    robust_cost,
)
from .gaussians import BlockLayout, GaussianMoments, solve_blocks
from .geometry import pose_rotations_batch
from .graph import KEYFRAME, VARIABLE_DIMS, FactorGraph


class _System:
    """The engine's compile (`factors.compile_graph`) indexed into one layout.

    Means are flat vectors in layout order, which stays variable-id order:
    bank-major order gave lm_ba's first damped factorisation the same fill
    but ~5.0 ms against ~4.0 ms. `cols[k]`, a column table per bank indexed
    by stack k's `rows`, gives the columns of each factor's adjacency, so
    x[cols[k]] stacks its means and (cols, cols) addresses its joint block.
    The 6-dim bank is the poses, at `pose_cols`, so `rotations(x)` rotates
    each pose once for every stack. `priors` holds each bank's nonzero priors
    as (cols, eta, lam), in the order of their first column.

    The joint precision's sparsity is compiled here: every prior and factor
    block entry, priors first and then the stacks in order, maps to its slot
    in one CSC pattern (`slot`), which always holds the diagonal (`diag`).
    Two matrices in that pattern are built once, with int32 indices, which
    SuperLU takes as they are: the Hessian that `assemble` fills and the
    damped copy that `damped` fills. `residuals` keeps the residual rows of
    the last point it evaluated.
    """

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        self.layout = BlockLayout.from_dims(
            (vid, graph.variables[vid].dim) for vid in sorted(graph.variables))
        banks, self.stacks = compile_graph(graph)
        _, offsets, widths = np.array(self.layout.blocks, dtype=int).reshape(-1, 3).T
        table = {d: offsets[widths == d][:, None] + np.arange(d) for d in banks}  # per bank row
        self.cols = [np.concatenate([table[d][r] for d, r in zip(s.dims, s.rows)], axis=1)
                     for s in self.stacks]
        self.pose_cols = table[VARIABLE_DIMS[KEYFRAME]]
        given = {d: np.any(b.prior_eta != 0.0, axis=1) | np.any(b.prior_lam != 0.0, axis=(1, 2))
                 for d, b in banks.items()}
        self.priors = sorted(((table[d][m], banks[d].prior_eta[m], banks[d].prior_lam[m])
                              for d, m in given.items() if np.any(m)), key=lambda p: p[0][0, 0])
        self.prior_means = [
            solve_blocks(p_lam, p_eta[:, :, None])[0][:, :, 0]
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
        indices = (pattern % dim).astype(np.int32)
        indptr = np.searchsorted(pattern, np.arange(dim + 1) * dim).astype(np.int32)
        self.hessian, self._damped = (
            csc_matrix((np.zeros(pattern.size), indices, indptr), shape=(dim, dim))
            for _ in range(2))
        self._point = self._rows = None

    def flat(self, means: dict) -> np.ndarray:
        return np.concatenate([np.zeros(0)] + [
            np.asarray(means[vid], dtype=float) for vid, _, _ in self.layout.blocks
        ])

    def means(self, x: np.ndarray) -> dict:
        return {vid: x[off:off + width].copy() for vid, off, width in self.layout.blocks}

    def rotations(self, x: np.ndarray, want_jac: bool):
        """Rotations (and right Jacobians) of the pose variables at x."""
        return pose_rotations_batch(x[self.pose_cols], want_jac)

    def residuals(self, x: np.ndarray) -> list:
        """Each stack's `factors.residual_rows` at the flat means x. The rows
        of the last point are kept, and a point equal to it by value is not
        evaluated again."""
        if self._point is None or not np.array_equal(self._point, x):
            rot = self.rotations(x, want_jac=False)
            self._rows = [residual_rows(stack, x[cols], rot)
                          for stack, cols in zip(self.stacks, self.cols)]
            self._point = x.copy()
        return self._rows

    def assemble(self, x: np.ndarray, kernel="tukey"):
        """Joint (eta, lam) at x: priors plus every stack's linearisation
        under `kernel` (see `factors.linearise_batch`).

        lam is `self.hessian`, the CSC matrix in the compiled pattern, with
        its values written in place: it stays valid until the next
        `assemble` of this system. Each quantity is one bincount over the
        block entries in priors-then-stacks order, which adds them in the
        order a sequential scatter would.
        """
        etas = [p_eta for _, p_eta, _ in self.priors]
        lams = [p_lam for _, _, p_lam in self.priors]
        rot = self.rotations(x, want_jac=True)
        for stack, cols in zip(self.stacks, self.cols):
            f_eta, f_lam, _ = linearise_batch(stack, x[cols], rot, kernel=kernel)
            etas.append(f_eta)
            lams.append(f_lam)
        dim = self.layout.dim
        eta = _sum_into(self.eta_cols, etas, dim)
        self.hessian.data[:] = _sum_into(self.slot, lams, self.hessian.nnz)
        return eta, self.hessian

    def damped(self, shift: np.ndarray) -> csc_matrix:
        """The last assembled Hessian plus `shift` on its diagonal, written
        into the system's second matrix; valid until the next call."""
        damp = self._damped
        damp.data[:] = self.hessian.data
        damp.data[self.diag] += shift
        return damp


def _sum_into(slots: np.ndarray, blocks: list, size: int) -> np.ndarray:
    """out[slots[i]] += (raveled, concatenated blocks)[i], in order of i."""
    values = np.concatenate([np.zeros(0)] + [a.ravel() for a in blocks])
    # bincount returns int64 when it is given no entries
    return np.bincount(slots, values, minlength=size).astype(float, copy=False)


def dense_marginals(graph: FactorGraph, means: dict | None = None):
    """Exact per-variable moments by full inversion of the joint precision."""
    if means is None:
        means = {vid: v.mean for vid, v in graph.variables.items()}
    system = _System(graph)
    eta, lam = system.assemble(system.flat(means))
    try:
        cov = np.linalg.inv(lam.toarray())
    except np.linalg.LinAlgError as exc:
        raise SingularGaussianError(
            "joint precision is singular; the graph is gauge-deficient "
            "(consider a strong prior on one keyframe)"
        ) from exc
    mu = cov @ eta
    out = {}
    for vid, off, width in system.layout.blocks:
        sl = slice(off, off + width)
        out[vid] = GaussianMoments(mu[sl], 0.5 * (cov[sl, sl] + cov[sl, sl].T))
    return out


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------

LAMBDA_INIT, LAMBDA_FACTOR, LAMBDA_MAX = 1e-4, 3.0, 1e10
COST_REL_TOL = 1e-10
LM_KERNEL, LM_MAX_ITERATIONS = "huber", 50


@dataclass
class LmResult:
    means: dict
    trace: list
    converged: bool
    hit_lambda_max: bool = False
    # entries of the first damped step's SPD factorisation (SuperLU.nnz), if any
    fill: int | None = None


def _lm_cost(system: _System, x: np.ndarray) -> float:
    cost = 0.0
    for stack, (value, _) in zip(system.stacks, system.residuals(x)):
        s = np.sqrt(np.sum((value / stack.sigma) ** 2, axis=1))
        cost += float(np.sum(robust_cost(stack.spec.loss(LM_KERNEL), s)))
    for (cols, _, p_lam), mean in zip(system.priors, system.prior_means):
        d = x[cols] - mean
        cost += 0.5 * float(np.einsum("ni,nij,nj->", d, p_lam, d))
    return cost


def avg_reprojection_px(system: _System, x: np.ndarray) -> float:
    """Mean pixel error at the flat means `x` over the valid pixel rows; NaN
    when there is none. It is `factors.residual_totals`, as the engine's, of
    the rows `system.residuals` holds."""
    return residual_totals(system.stacks, system.residuals(x))[1]


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


def lm_solve(graph: FactorGraph) -> LmResult:
    """Levenberg-Marquardt over all factor energies plus variable priors."""
    system = _System(graph)
    x = system.flat({vid: node.mean for vid, node in graph.variables.items()})
    lam_damp = LAMBDA_INIT
    cost = _lm_cost(system, x)
    trace = [{"iteration": 0, "cost": cost,
              "avg_reproj_px": avg_reprojection_px(system, x)}]
    converged = False
    hit_max = False
    fill = None

    for it in range(1, LM_MAX_ITERATIONS + 1):
        # With J = dv/dx, the gradient of 1/2 w |v|^2 is w J^T S^-1 v = H x - eta.
        eta, H = system.assemble(x, LM_KERNEL)
        g = H @ x - eta
        h_diag = np.maximum(H.data[system.diag], 1e-12)

        accepted = False
        while not accepted:
            delta, step_fill = _solve_step(system.damped(lam_damp * h_diag), -g)
            if fill is None:
                fill = step_fill
            if delta is not None and np.all(np.isfinite(delta)):
                cand = x + delta
                cand_cost = _lm_cost(system, cand)
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

