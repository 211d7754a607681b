from types import SimpleNamespace

import numpy as np
import pytest

from planegbp.engine import GbpConfig, GbpEngine
from planegbp.errors import ContractViolation, SingularGaussianError
from planegbp.gaussians import (
    BlockLayout,
    GaussianInfo,
    GaussianMoments,
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


def _guarded_batch(rng, d, singular=True, overflow=True):
    S = np.stack([random_spd(rng, d) for _ in range(24)])
    rhs = rng.normal(size=(24, d, d + 1))
    if singular:
        S[3] = 0.0                                # no information at all
        S[7] = np.ones((d, d))                    # rank one, exact zero pivot
        S[11] = -np.ones((d, d))                  # negative trace
        S[15, :, 0] = S[15, 0, :] = 0.0           # one unconstrained direction
    if overflow:
        S[19] = np.diag([1e-300] + [1.0] * (d - 1))
        rhs[19] = 1e300                           # regular, but x overflows
    return S, rhs


@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("singular,overflow", [(True, True), (False, True), (False, False)])
def test_solve_guarded_matches_loop_reference(d, singular, overflow):
    S, rhs = _guarded_batch(np.random.default_rng(d), d, singular, overflow)
    sol, regularised = solve_guarded(S, rhs)
    ref, ref_regularised = solve_guarded_loop(S, rhs)
    assert np.array_equal(sol, ref)
    assert regularised == ref_regularised == 4 * singular + overflow
    assert np.all(np.isfinite(sol))


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
        to_moments(GaussianInfo.zero(2))


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
