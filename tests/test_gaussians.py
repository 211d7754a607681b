from types import SimpleNamespace

import numpy as np
import pytest

from planegbp.engine import GbpConfig, GbpEngine
from planegbp.errors import ContractViolation, SingularGaussianError
from planegbp.gaussians import (
    BlockLayout,
    GaussianInfo,
    GaussianMoments,
    solve_blocks,
    solve_guarded,
    to_moments,
)
from planegbp.graph import POINT, PRIOR, FactorGraph
from conftest import engine_quotient, random_info, random_spd, solve_guarded_loop


def dense_marginal_oracle(joint: GaussianInfo, layout: BlockLayout, keep):
    """Independent marginalisation: invert the full precision, read off the
    block, convert back. Used to check the engine's Schur step."""
    cov = np.linalg.inv(joint.lam)
    mu = cov @ joint.eta
    sl = layout.slice_of(keep)
    cov_k = cov[sl, sl]
    lam_k = np.linalg.inv(cov_k)
    return GaussianInfo(lam_k @ mu[sl], lam_k)


# -- the engine's products, quotients and Schur step ---------------------------

def engine_belief(prior: GaussianInfo, z, sigma) -> GaussianInfo:
    """A point's belief after one sweep: its prior times the message of a prior factor."""
    g = FactorGraph()
    g.add_factor(PRIOR, (g.add_variable(POINT, np.zeros(3), prior),), z, sigma)
    eng = GbpEngine(g, GbpConfig(damping=0.0, dropout=0.0))
    eng.iterate()
    return GaussianInfo(eng.banks[3].belief_eta[0], eng.banks[3].belief_lam[0])


def schur_marginal(joint: GaussianInfo, layout: BlockLayout, keep):
    """(message, regularised blocks) of the engine's factor-to-variable Schur
    step on `joint` as one factor, to the block `keep`, with zero incoming."""
    sk = layout.slice_of(keep)
    order = np.r_[np.arange(joint.dim)[sk], np.delete(np.arange(joint.dim), sk)]
    dims = (sk.stop - sk.start, joint.dim - sk.stop + sk.start)
    arity = 1 + (dims[1] > 0)
    b = SimpleNamespace(dims=dims, arity=arity, n=1, weight=np.ones(1),
                        spec=SimpleNamespace(linear=True),
                        eta=joint.eta[order][None], lam=joint.lam[np.ix_(order, order)][None],
                        f2v_eta=[np.zeros((1, d)) for d in dims],
                        f2v_lam=[np.zeros((1, d, d)) for d in dims],
                        v2f=lambda pos, rows: (np.zeros((len(rows), dims[pos])),
                                               np.zeros((len(rows), dims[pos], dims[pos]))))
    # undamped, so the stored message is the new one; position 1 does not send
    sends = [np.ones(1, bool), np.zeros(1, bool)][:arity]
    _, regularised = GbpEngine(FactorGraph(), GbpConfig(damping=0.0))._send(b, sends, None)
    return GaussianInfo(b.f2v_eta[0][0], b.f2v_lam[0][0]), regularised


def test_product_componentwise_sum():
    out = engine_belief(GaussianInfo(np.full(3, 2.0), 3.0 * np.eye(3)), np.ones(3), 1.0)
    assert np.all(out.eta == 3.0) and np.array_equal(out.lam, 4.0 * np.eye(3))


def test_product_matches_moment_form_oracle():
    # product of N(0, 1) and N(2, 1) per axis via the moment-form formulas:
    # var = (1/v1 + 1/v2)^-1, mean = var * (m1/v1 + m2/v2)
    out = to_moments(engine_belief(GaussianInfo(np.zeros(3), np.eye(3)), np.full(3, 2.0), 1.0))
    v = 1.0 / (1.0 / 1.0 + 1.0 / 1.0)
    m = v * (0.0 / 1.0 + 2.0 / 1.0)
    assert np.allclose(out.mean, m) and np.allclose(out.cov, v * np.eye(3))
    assert np.allclose(out.mean, 1.0) and np.allclose(out.cov, 0.5 * np.eye(3))


def test_quotient_identity_and_componentwise():
    # the engine's variable-to-factor quotient: belief[rows] - f2v
    belief, lam = np.array([[3.0], [4.0]]) * np.ones(3), np.stack([np.eye(3)] * 2)
    out, _ = engine_quotient(belief, lam, [0, 1], np.zeros((2, 3)), np.zeros((2, 3, 3)))
    assert np.array_equal(out, belief)
    f2v = np.array([[2.0], [3.0]]) * np.ones(3)
    out, _ = engine_quotient(belief, lam, [0, 1], f2v, np.zeros((2, 3, 3)))
    assert np.array_equal(out, np.ones((2, 3)))


def test_quotient_returns_improper_gaussian():
    _, out = engine_quotient(np.zeros((1, 3)), np.eye(3)[None], [0], np.zeros((1, 3)),
                             5.0 * np.eye(3)[None])
    assert out[0, 0, 0] == -4.0  # indefinite, still returned


def test_marginalize_two_dim_example():
    joint = GaussianInfo([1.0, 1.0], [[2.0, 1.0], [1.0, 2.0]])
    layout = BlockLayout.from_dims([(0, 1), (1, 1)])
    out, _ = schur_marginal(joint, layout, 0)
    oracle = dense_marginal_oracle(joint, layout, 0)
    assert np.allclose(out.eta, oracle.eta) and np.allclose(out.lam, oracle.lam)
    assert np.isclose(out.lam[0, 0], 1.5) and np.isclose(out.eta[0], 0.5)


def test_marginalize_block_diagonal_is_projection(rng):
    a = random_info(rng, 3)
    b = random_info(rng, 2)
    lam = np.zeros((5, 5))
    lam[:3, :3] = a.lam
    lam[3:, 3:] = b.lam
    joint = GaussianInfo(np.concatenate([a.eta, b.eta]), lam)
    layout = BlockLayout.from_dims([("a", 3), ("b", 2)])
    out, _ = schur_marginal(joint, layout, "a")
    assert out.allclose(a)


def test_marginalize_single_block_is_identity(rng):
    g = random_info(rng, 4)
    layout = BlockLayout.from_dims([("only", 4)])
    assert schur_marginal(g, layout, "only")[0].allclose(g)


@pytest.mark.parametrize("seed", range(5))
def test_marginalize_matches_dense_oracle_to_dim_30(seed):
    r = np.random.default_rng(seed)
    widths = []
    while sum(widths) < 24:
        widths.append(int(r.integers(1, 7)))
    dim = sum(widths)
    joint = GaussianInfo(r.normal(size=dim), random_spd(r, dim))
    layout = BlockLayout.from_dims(list(enumerate(widths)))
    for keep in range(len(widths)):
        out, _ = schur_marginal(joint, layout, keep)
        oracle = dense_marginal_oracle(joint, layout, keep)
        assert np.allclose(out.eta, oracle.eta, rtol=1e-9, atol=1e-9)
        assert np.allclose(out.lam, oracle.lam, rtol=1e-9, atol=1e-9)


def test_singular_elimination_regularised_and_flagged():
    # eliminated block is exactly zero information: solved with a Tikhonov
    # term and counted
    lam = np.zeros((2, 2))
    lam[0, 0] = 2.0
    joint = GaussianInfo(np.array([1.0, 0.0]), lam)
    layout = BlockLayout.from_dims([("keep", 1), ("gone", 1)])
    out, regularised = schur_marginal(joint, layout, "keep")
    assert np.isfinite(out.eta).all() and np.isfinite(out.lam).all()
    assert regularised == 1


# Blocks of `_guarded_batch` that are not positive definite but regular, or
# are singular or overflow; the others are random SPD blocks.
INDEFINITE, RANK_DEFICIENT, SINGULAR, OVERFLOW = 1, 5, (3, 7, 11, 15), (19, 23)


def _guarded_batch(rng, d, singular=True, overflow=True):
    S = np.stack([random_spd(rng, d) for _ in range(24)])
    rhs = rng.normal(size=(24, d, d + 1))
    S[INDEFINITE] = np.diag([2.0, -1.0] + [1.0] * (d - 2))  # regular, not PD
    if singular:
        S[3] = 0.0                                # no information at all
        S[7] = np.ones((d, d))                    # rank one, exact zero pivot
        S[11] = -np.ones((d, d))                  # negative trace
        S[15, :, 0] = S[15, 0, :] = 0.0           # one unconstrained direction
        J = rng.normal(size=(2, d))               # a fresh factor's block:
        S[RANK_DEFICIENT] = J.T @ J               # PSD, rank 2, rounding decides
    if overflow:
        S[19] = np.diag([1e-300] + [1.0] * (d - 1))
        rhs[19] = 1e300                           # PD, but x overflows
        S[23] = 0.0                               # PD; the last x overflows,
        S[23, :-1, :-1] = random_spd(rng, d - 1)  # and back substitution
        S[23, -1, -1] = 1e-300                    # spreads it (0 * inf)
        rhs[23, -1] = 1e300
    return S, rhs


@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("singular,overflow", [(True, True), (False, True), (False, False)])
def test_solve_guarded_matches_loop_reference(d, singular, overflow):
    S, rhs = _guarded_batch(np.random.default_rng(d), d, singular, overflow)
    sol, regularised = solve_guarded(S, rhs)
    ref, ref_regularised = solve_guarded_loop(S, rhs)
    assert np.array_equal(sol, ref)
    # the rank-deficient block is regularised or solved huge, as rounding falls
    fixed = 4 * singular + 2 * overflow
    assert regularised == ref_regularised
    assert fixed <= regularised <= fixed + singular
    assert np.all(np.isfinite(sol))
    # the scalar reference is itself a solve of the regular blocks
    regular = np.setdiff1d(np.arange(24), (RANK_DEFICIENT,) + SINGULAR + OVERFLOW)
    lu = np.linalg.solve(S[regular], rhs[regular])
    assert np.all(np.abs(ref[regular] - lu) <= 1e-12 * np.abs(lu).max(axis=(1, 2))[:, None, None])


@pytest.mark.parametrize("d", [3, 6])
def test_only_blocks_with_a_non_positive_pivot_take_the_lu_path(d, monkeypatch):
    S, rhs = _guarded_batch(np.random.default_rng(d), d)
    sol, pd = solve_blocks(S, rhs)
    not_pd = np.flatnonzero(~pd)
    assert set(not_pd) >= {INDEFINITE, *SINGULAR} and set(not_pd) <= {
        INDEFINITE, RANK_DEFICIENT, *SINGULAR}
    assert pd[list(OVERFLOW)].all()
    # the indefinite block is regular: solved exactly by LU, not regularised
    assert np.array_equal(sol[INDEFINITE], np.linalg.solve(S[INDEFINITE], rhs[INDEFINITE]))
    assert np.array_equal(sol[INDEFINITE, 1], -rhs[INDEFINITE, 1])
    assert solve_guarded(S[[INDEFINITE]], rhs[[INDEFINITE]])[1] == 0
    # the LU path sees the blocks that are not PD and no other
    seen = []
    real_solve = np.linalg.solve

    def spy(a, b):
        seen.append(a.copy())
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    solve_blocks(S, rhs)
    assert np.array_equal(seen[0], S[not_pd])


@pytest.mark.parametrize("d", [3, 6])
def test_solve_blocks_backward_error_is_a_few_ulps(d):
    # Random SPD blocks with condition numbers up to 1e12. A backward-stable
    # solve keeps ||S x - r|| <= 10 eps ||S|| ||x|| per right-hand side; an
    # explicit inverse exceeds it on these blocks. The residual is formed in
    # extended precision so that its own rounding does not count.
    rng = np.random.default_rng(100 + d)
    n = 1000
    Q, _ = np.linalg.qr(rng.normal(size=(n, d, d)))
    S = (Q * 10.0 ** rng.uniform(-12, 0, size=(n, 1, d))) @ Q.transpose(0, 2, 1)
    S = 0.5 * (S + S.transpose(0, 2, 1))
    rhs = rng.normal(size=(n, d, 2))
    x, pd = solve_blocks(S, rhs)
    assert pd.all()
    residual = S.astype(np.longdouble) @ x.astype(np.longdouble) - rhs
    residual = np.linalg.norm(residual.astype(float), axis=1)
    bound = 10 * np.finfo(float).eps * np.linalg.norm(S, ord=2, axis=(1, 2))[:, None]
    assert np.all(residual <= bound * np.linalg.norm(x, axis=1))


# -- construction -------------------------------------------------------------

def test_rows_equal_one_row_construction_bit_for_bit(rng):
    eta = rng.normal(size=(7, 4))
    lam = rng.normal(size=(7, 4, 4))  # asymmetric: rows symmetrise it
    want = [GaussianInfo(e, m) for e, m in zip(eta, lam)]
    rows = GaussianInfo.rows(eta, lam)
    eta[:], lam[:] = 0.0, 0.0  # each row keeps arrays of its own
    assert len(rows) == 7
    for g, w in zip(rows, want):
        assert g.eta.tobytes() == w.eta.tobytes() and g.lam.tobytes() == w.lam.tobytes()
        assert g.lam.shape == (4, 4) and np.array_equal(g.lam, g.lam.T)


@pytest.mark.parametrize("eta,lam,one_row", [
    (np.zeros((3, 2)), np.zeros((3, 2, 3)), True),  # lam not square
    (np.zeros((3, 2)), np.zeros((3, 3, 3)), True),  # eta of another dim
    (np.zeros((3, 2)), np.zeros((3, 2)), True),  # lam rows not matrices
    (np.zeros((2, 2)), np.zeros((3, 2, 2)), False),  # fewer eta rows
    (np.zeros(3), np.zeros((3, 1, 1)), False),  # eta not a stack
])
def test_rows_and_one_row_construction_refuse_shapes_that_do_not_match(eta, lam, one_row):
    with pytest.raises(ContractViolation):
        GaussianInfo.rows(eta, lam)
    if one_row:
        with pytest.raises(ContractViolation):
            GaussianInfo(eta[0], lam[0])


# -- moments ------------------------------------------------------------------

def test_moments_scalar_example():
    out = to_moments(GaussianInfo([2.0], [[4.0]]))
    assert np.isclose(out.mean[0], 0.5) and np.isclose(out.cov[0, 0], 0.25)


def test_moments_identity_precision(rng):
    mu = rng.normal(size=3)
    out = to_moments(GaussianInfo(mu, np.eye(3)))
    assert np.allclose(out.mean, mu)


def test_moments_singular_raises():
    with pytest.raises(SingularGaussianError):
        to_moments(GaussianInfo(np.zeros(2), np.zeros((2, 2))))


def test_moments_cov_shape_validation():
    with pytest.raises(ContractViolation):
        GaussianMoments(np.zeros(2), np.zeros((3, 3)))


# -- layout -------------------------------------------------------------------

def test_layout_contiguity_enforced():
    with pytest.raises(ContractViolation):
        BlockLayout(((0, 0, 2), (1, 3, 1)))
    with pytest.raises(ContractViolation):
        BlockLayout(((0, 0, 0),))


def test_layout_from_dims_and_lookup():
    lay = BlockLayout.from_dims([("a", 2), ("b", 3)])
    assert lay.dim == 5
    assert lay.slice_of("b") == slice(2, 5)
    with pytest.raises(ContractViolation):
        lay.slice_of("missing")
