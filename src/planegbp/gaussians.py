"""Canonical-form Gaussians and the guarded small-block solves.

Gaussians are carried in information form (eta, lam) = (Sigma^-1 mu, Sigma^-1).
A product of densities adds their parameters, a quotient subtracts them and
a marginal is a Schur complement on the precision matrix; the propagation
engine computes all three on its batched arrays, not on the value types here.

All operations are pure and value-typed; nothing here holds shared state.
`solve_guarded` is the one guarded small-block elimination, the engine's
batched Schur step; `solve_blocks` is the engine's belief-mean solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SingularGaussianError


def _symmetrize(m: np.ndarray) -> np.ndarray:
    # Halved-sum symmetrisation, so that rounding never leaves a stored
    # precision or covariance asymmetric.
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class GaussianInfo:
    """Gaussian over a d-dimensional block in information form."""

    eta: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float).reshape(-1)
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ContractViolation(f"lam must be square, got shape {lam.shape}")
        if eta.shape[0] != lam.shape[0]:
            raise ContractViolation(
                f"eta length {eta.shape[0]} != lam side {lam.shape[0]}"
            )
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "lam", _symmetrize(lam))

    @property
    def dim(self) -> int:
        return self.eta.shape[0]

    @staticmethod
    def zero(dim: int) -> "GaussianInfo":
        return GaussianInfo(np.zeros(dim), np.zeros((dim, dim)))

    def is_zero(self) -> bool:
        # Plain Python on the few entries: np.any costs more than the scan.
        return not (any(self.eta.tolist()) or any(self.lam.ravel().tolist()))

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


def solve_blocks(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve S[i] x[i] = rhs[i] of small blocks, (n, d, d) and (n, d, k);
    the solution of an exactly singular block is NaN."""
    try:
        return np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError:
        # An exact zero pivot of the same LU is what makes `solve` raise.
        ok = np.linalg.slogdet(S)[0] != 0
        sol = np.full_like(rhs, np.nan)
        sol[ok] = np.linalg.solve(S[ok], rhs[ok])
        return sol


def solve_guarded(S: np.ndarray, rhs: np.ndarray):
    """Batched solve S[i] x[i] = rhs[i] of small blocks, (n, d, d) and (n, d, k).

    A block that is singular, or whose solution is not finite, is solved
    again with a Tikhonov term REG_LAMBDA_REL times its mean diagonal.
    Returns (solution, number of regularised blocks).
    """
    sol = solve_blocks(S, rhs)
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

