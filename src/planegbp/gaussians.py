"""Canonical-form Gaussians and the guarded small-block solves.

Gaussians are carried in information form (eta, lam) = (Sigma^-1 mu, Sigma^-1).
A product of densities adds their parameters, a quotient subtracts them and
a marginal is a Schur complement on the precision matrix; the propagation
engine computes all three on its batched arrays, not on the value types here.

All operations are pure and value-typed; nothing here holds shared state.
`solve_guarded` is the one guarded small-block elimination, the engine's
batched Schur step; `solve_blocks`, which it calls, is the engine's
belief-mean solve and LM's prior-mean solve. Both factorise each block as the
symmetric positive-definite (PD) system it usually is, by one unpivoted
LDL^T batched across the blocks, and solve the blocks that are not PD
(singular, indefinite or not finite) by pivoted LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SingularGaussianError


def _symmetrize(m: np.ndarray) -> np.ndarray:
    # Halved-sum symmetrisation, so that rounding never leaves a stored
    # precision or covariance asymmetric.
    return 0.5 * (m + m.T)


def _info_stack(eta, lam):
    """Stacks eta (n, d) and lam (n, d, d) as float arrays of their own, lam
    symmetrised; ContractViolation if the shapes do not match."""
    eta = np.array(eta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 3 or lam.shape[1] != lam.shape[2]:
        raise ContractViolation(f"lam must be square, got shape {lam.shape[1:]}")
    if eta.shape != lam.shape[:2]:
        raise ContractViolation(
            f"eta shape {eta.shape} does not match lam shape {lam.shape}")
    return eta, 0.5 * (lam + lam.transpose(0, 2, 1))


@dataclass(frozen=True)
class GaussianInfo:
    """Gaussian over a d-dimensional block in information form.

    `GaussianInfo(eta, lam)` makes one; `GaussianInfo.rows` makes one per row
    of a stack. Both check shapes and symmetrise lam in `_info_stack`, and
    each keeps arrays of its own (row views of one new stack for `rows`).
    """

    eta: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        eta, lam = _info_stack(np.asarray(self.eta, dtype=float).reshape(1, -1),
                               np.asarray(self.lam, dtype=float)[None])
        object.__setattr__(self, "eta", eta[0])
        object.__setattr__(self, "lam", lam[0])

    @classmethod
    def rows(cls, eta, lam) -> list:
        """One GaussianInfo per row of eta (n, d) and lam (n, d, d), equal bit
        for bit to `GaussianInfo(eta[i], lam[i])`; the stacks are checked and
        symmetrised once."""
        eta, lam = _info_stack(eta, lam)
        out = []
        for e, m in zip(eta, lam):
            g = object.__new__(cls)
            object.__setattr__(g, "eta", e)
            object.__setattr__(g, "lam", m)
            out.append(g)
        return out

    @property
    def dim(self) -> int:
        return self.eta.shape[0]

    def allclose(self, other: "GaussianInfo", rtol=1e-9, atol=1e-12) -> bool:
        return np.allclose(self.eta, other.eta, rtol=rtol, atol=atol) and np.allclose(
            self.lam, other.lam, rtol=rtol, atol=atol
        )


@dataclass(frozen=True)
class GaussianMoments:
    """Moment form (mean, cov); cov must be symmetric positive definite."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ContractViolation(f"cov shape {cov.shape} does not match mean")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _symmetrize(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class BlockLayout:
    """Ordered (variable-id, offset, width) tiling of a joint Gaussian."""

    blocks: tuple

    def __post_init__(self):
        offset = 0
        for vid, off, width in self.blocks:
            if off != offset:
                raise ContractViolation(f"block {vid}: offset {off}, expected {offset}")
            if width <= 0:
                raise ContractViolation(f"block {vid}: width must be positive")
            offset += width
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @staticmethod
    def from_dims(pairs) -> "BlockLayout":
        """Build from an iterable of (variable-id, width)."""
        blocks, offset = [], 0
        for vid, width in pairs:
            blocks.append((vid, offset, int(width)))
            offset += int(width)
        return BlockLayout(tuple(blocks))

    @property
    def dim(self) -> int:
        if not self.blocks:
            return 0
        vid, off, width = self.blocks[-1]
        return off + width

    def slice_of(self, variable_id) -> slice:
        for vid, off, width in self.blocks:
            if vid == variable_id:
                return slice(off, off + width)
        raise ContractViolation(f"variable {variable_id} not in layout")


# Tikhonov strength for singular eliminated blocks, relative to mean diagonal.
REG_LAMBDA_REL = 1e-8


def _solve_lu(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pivoted-LU solve of blocks; an exactly singular block's solution is NaN."""
    try:
        return np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError:
        # An exact zero pivot of the same LU is what makes `solve` raise.
        ok = np.linalg.slogdet(S)[0] != 0
        sol = np.full_like(rhs, np.nan)
        sol[ok] = np.linalg.solve(S[ok], rhs[ok])
        return sol


def solve_blocks(S: np.ndarray, rhs: np.ndarray):
    """Batched solve S[i] x[i] = rhs[i] of small symmetric blocks, (n, d, d)
    and (n, d, k). Returns (solution, mask of the positive-definite blocks).

    Every block is factorised as S = L D L^T, unpivoted, from its lower
    triangle, on component-major copies so that each step is one elementwise
    operation across the batch; the right-hand sides are then solved by
    forward and back substitution. A block with a pivot that is not positive
    (singular, indefinite or not finite) is not positive definite: it is
    solved again by pivoted LU, and its solution is NaN if it is exactly
    singular.
    """
    d = S.shape[1]
    A = np.array(S.transpose(1, 2, 0), dtype=float, order="C")  # A[i, j] = S[:, i, j]
    Y = np.array(rhs.transpose(1, 2, 0), dtype=float, order="C")  # Y[i, c] = rhs[:, i, c]
    pivots = np.diagonal(A).T  # a view: pivots[k] = A[k, k]
    # A block that is not PD is solved again below, and a solution that is not
    # finite is the caller's to guard, so neither warns here.
    with np.errstate(all="ignore"):
        # Step k divides column k of L by pivot k, then takes its outer
        # product with that column times the pivot from the trailing block;
        # each entry is updated in ascending k, and the forward substitution
        # follows the same steps.
        for k in range(d - 1):
            A[k + 1:, k] /= pivots[k]
            A[k + 1:, k + 1:] -= A[k + 1:, k, None] * (A[k + 1:, k] * pivots[k])
            Y[k + 1:] -= A[k + 1:, k, None] * Y[k]
        Y /= pivots[:, None]
        for k in range(d - 1, 0, -1):
            Y[:k] -= A[k, :k, None] * Y[k]
    pd = np.all(pivots > 0.0, axis=0)
    sol = np.ascontiguousarray(Y.transpose(2, 0, 1))
    if not np.all(pd):
        sol[~pd] = _solve_lu(S[~pd], rhs[~pd])
    return sol, pd


def solve_guarded(S: np.ndarray, rhs: np.ndarray):
    """Batched solve S[i] x[i] = rhs[i] of small symmetric blocks, (n, d, d)
    and (n, d, k), by `solve_blocks`: LDL^T for positive-definite blocks, LU
    for the others.

    A block that is singular, or whose solution is not finite, is solved
    again with a Tikhonov term REG_LAMBDA_REL times its mean diagonal.
    Returns (solution, number of regularised blocks).
    """
    sol, _ = solve_blocks(S, rhs)
    bad = ~np.all(np.isfinite(sol), axis=(1, 2))
    if not np.any(bad):
        return sol, 0
    d = S.shape[1]
    tr = np.trace(S[bad], axis1=1, axis2=2)
    reg = REG_LAMBDA_REL * np.where(tr > 0, tr / d, 1.0)
    sol[bad] = np.linalg.solve(S[bad] + reg[:, None, None] * np.eye(d), rhs[bad])
    return sol, int(np.count_nonzero(bad))


def to_moments(g: GaussianInfo) -> GaussianMoments:
    """(eta, lam) -> (mean, cov); requires lam positive definite."""
    try:
        chol = np.linalg.cholesky(g.lam)
    except np.linalg.LinAlgError as exc:
        raise SingularGaussianError(
            f"precision matrix is not positive definite (dim {g.dim})"
        ) from exc
    ident = np.eye(g.dim)
    inv_chol = np.linalg.solve(chol, ident)
    cov = inv_chol.T @ inv_chol
    mean = cov @ g.eta
    return GaussianMoments(mean, cov)

