"""Canonical-form Gaussian algebra.

Gaussians are carried in information form (eta, lam) = (Sigma^-1 mu, Sigma^-1).
Products and quotients are componentwise sums/differences of the parameters;
marginalisation is a Schur complement on the precision matrix. These three
operations are the arithmetic behind every message in the propagation engine.

All operations are pure and value-typed; nothing here holds shared state.
`solve_guarded` is the one guarded small-block elimination, used both by
`marginalize` and, batched, by the propagation engine's Schur step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SingularGaussianError

SYM_RTOL = 1e-12


def _symmetrize(m: np.ndarray) -> np.ndarray:
    # Halved-sum symmetrisation after every product/Schur step; keeps drift
    # from accumulating over thousands of iterations.
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
        return not (np.any(self.eta) or np.any(self.lam))

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

    def ids(self):
        return [vid for vid, _, _ in self.blocks]

    def slice_of(self, variable_id) -> slice:
        for vid, off, width in self.blocks:
            if vid == variable_id:
                return slice(off, off + width)
        raise ContractViolation(f"variable {variable_id} not in layout")


# Tikhonov strength for singular eliminated blocks, relative to mean diagonal.
REG_LAMBDA_REL = 1e-8


def product(a: GaussianInfo, b: GaussianInfo) -> GaussianInfo:
    """Multiply two densities over the same support: parameters add."""
    if a.dim != b.dim:
        raise ContractViolation(f"product dims {a.dim} != {b.dim}")
    return GaussianInfo(a.eta + b.eta, a.lam + b.lam)


def quotient(numerator: GaussianInfo, denominator: GaussianInfo) -> GaussianInfo:
    """Divide densities: parameters subtract.

    The result may be improper (indefinite precision); it is returned as-is,
    since message subtraction legitimately produces such intermediates.
    """
    if numerator.dim != denominator.dim:
        raise ContractViolation(f"quotient dims {numerator.dim} != {denominator.dim}")
    return GaussianInfo(numerator.eta - denominator.eta, numerator.lam - denominator.lam)


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


def marginalize(joint: GaussianInfo, layout: BlockLayout, keep) -> GaussianInfo:
    """Marginal of `joint` onto the block `keep`, by Schur complement.

    eta' = eta_k - lam_ke lam_ee^-1 eta_e
    lam' = lam_kk - lam_ke lam_ee^-1 lam_ek
    """
    if layout.dim != joint.dim:
        raise ContractViolation(
            f"layout dim {layout.dim} does not match joint dim {joint.dim}"
        )

    sk = layout.slice_of(keep)
    if sk.stop - sk.start == joint.dim:
        return joint

    idx = np.arange(joint.dim)
    keep_idx = idx[sk]
    elim_idx = np.concatenate([idx[: sk.start], idx[sk.stop :]])

    lam_kk = joint.lam[np.ix_(keep_idx, keep_idx)]
    lam_ke = joint.lam[np.ix_(keep_idx, elim_idx)]
    lam_ee = joint.lam[np.ix_(elim_idx, elim_idx)]
    eta_k = joint.eta[keep_idx]
    eta_e = joint.eta[elim_idx]

    rhs = np.column_stack([eta_e[:, None], lam_ke.T])
    x = solve_guarded(lam_ee[None], rhs[None])[0][0]
    eta_m = eta_k - lam_ke @ x[:, 0]
    lam_m = lam_kk - lam_ke @ x[:, 1:]
    return GaussianInfo(eta_m, lam_m)


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

