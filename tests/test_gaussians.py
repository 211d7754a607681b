import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planegbp.errors import ContractViolation, SingularGaussianError
from planegbp.gaussians import (
    BlockLayout,
    GaussianInfo,
    GaussianMoments,
    MarginalizationDiagnostics,
    from_moments,
    marginalize,
    marginalize_onto,
    mean_of,
    product,
    quotient,
    solve_guarded,
    to_moments,
)
from conftest import random_info, random_spd, solve_guarded_loop


def dense_marginal_oracle(joint: GaussianInfo, layout: BlockLayout, keep):
    """Independent marginalisation: invert the full precision, read off the
    block, convert back. Used to check the Schur-complement path."""
    cov = np.linalg.inv(joint.lam)
    mu = cov @ joint.eta
    sl = layout.slice_of(keep)
    cov_k = cov[sl, sl]
    lam_k = np.linalg.inv(cov_k)
    return GaussianInfo(lam_k @ mu[sl], lam_k)


# -- product / quotient -------------------------------------------------------

def test_product_identity_element(rng):
    g = random_info(rng, 4)
    zero = GaussianInfo.zero(4)
    assert product(zero, g).allclose(g)
    assert product(g, zero).allclose(g)


def test_product_componentwise_sum():
    a = GaussianInfo([1.0], [[1.0]])
    b = GaussianInfo([2.0], [[3.0]])
    out = product(a, b)
    assert out.eta[0] == 3.0 and out.lam[0, 0] == 4.0


def test_product_matches_moment_form_oracle():
    # product of N(0, 1) and N(2, 1) via the moment-form formulas:
    # var = (1/v1 + 1/v2)^-1, mean = var * (m1/v1 + m2/v2)
    def info_1d(mean, var):
        return GaussianInfo([mean / var], [[1.0 / var]])

    out = to_moments(product(info_1d(0.0, 1.0), info_1d(2.0, 1.0)))
    v = 1.0 / (1.0 / 1.0 + 1.0 / 1.0)
    m = v * (0.0 / 1.0 + 2.0 / 1.0)
    assert np.isclose(out.mean[0], m) and np.isclose(out.cov[0, 0], v)
    assert np.isclose(out.mean[0], 1.0) and np.isclose(out.cov[0, 0], 0.5)


def test_product_commutative_associative(rng):
    a, b, c = (random_info(rng, 3) for _ in range(3))
    assert product(a, b).allclose(product(b, a))
    assert product(product(a, b), c).allclose(product(a, product(b, c)), rtol=1e-12)


def test_quotient_identity_and_componentwise():
    g = GaussianInfo([3.0], [[4.0]])
    assert quotient(g, GaussianInfo.zero(1)).allclose(g)
    out = quotient(g, GaussianInfo([2.0], [[3.0]]))
    assert out.eta[0] == 1.0 and out.lam[0, 0] == 1.0


def test_quotient_returns_improper_gaussian():
    weak = GaussianInfo([0.0], [[1.0]])
    strong = GaussianInfo([0.0], [[5.0]])
    out = quotient(weak, strong)
    assert out.lam[0, 0] == -4.0  # indefinite, still returned


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_product_quotient_inverse_law(dim, seed):
    r = np.random.default_rng(seed)
    a = random_info(r, dim)
    b = random_info(r, dim)
    back = quotient(product(a, b), b)
    assert np.allclose(back.eta, a.eta, atol=1e-12)
    assert np.allclose(back.lam, a.lam, atol=1e-12)


def test_dimension_mismatch_raises(rng):
    with pytest.raises(ContractViolation):
        product(random_info(rng, 2), random_info(rng, 3))
    with pytest.raises(ContractViolation):
        quotient(random_info(rng, 2), random_info(rng, 3))


# -- marginalisation ----------------------------------------------------------

def test_marginalize_two_dim_example():
    joint = GaussianInfo([1.0, 1.0], [[2.0, 1.0], [1.0, 2.0]])
    layout = BlockLayout.from_dims([(0, 1), (1, 1)])
    out = marginalize(joint, layout, 0)
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
    out = marginalize(joint, layout, "a")
    assert out.allclose(a)


def test_marginalize_single_block_is_identity(rng):
    g = random_info(rng, 4)
    layout = BlockLayout.from_dims([("only", 4)])
    assert marginalize(g, layout, "only").allclose(g)


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
        out = marginalize(joint, layout, keep)
        oracle = dense_marginal_oracle(joint, layout, keep)
        assert np.allclose(out.eta, oracle.eta, rtol=1e-9, atol=1e-9)
        assert np.allclose(out.lam, oracle.lam, rtol=1e-9, atol=1e-9)


def test_marginalisation_order_independence(rng):
    widths = [2, 3, 1, 4]
    dim = sum(widths)
    joint = GaussianInfo(rng.normal(size=dim), random_spd(rng, dim))
    layout = BlockLayout.from_dims(list(enumerate(widths)))
    direct = marginalize(joint, layout, 0)

    for order in ([1, 2, 3], [3, 1, 2], [2, 3, 1]):
        g, lay = joint, layout
        for victim in order:
            keep_ids = [vid for vid in lay.ids() if vid != victim]
            g, lay = marginalize_onto(g, lay, keep_ids)
        assert np.allclose(g.eta, direct.eta, rtol=1e-9, atol=1e-10)
        assert np.allclose(g.lam, direct.lam, rtol=1e-9, atol=1e-10)


def test_singular_elimination_regularised_and_flagged():
    # eliminated block is exactly zero information
    lam = np.zeros((2, 2))
    lam[0, 0] = 2.0
    joint = GaussianInfo(np.array([1.0, 0.0]), lam)
    layout = BlockLayout.from_dims([("keep", 1), ("gone", 1)])
    diag = MarginalizationDiagnostics()
    out = marginalize(joint, layout, "keep", diagnostics=diag)
    assert diag.singular_regularized == 1
    assert np.isfinite(out.lam).all()


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


def test_moments_round_trip_spd(rng):
    # SPD via A^T A + I
    A = rng.normal(size=(5, 5))
    lam = A.T @ A + np.eye(5)
    g = GaussianInfo(rng.normal(size=5), lam)
    back = from_moments(to_moments(g))
    assert np.allclose(back.eta, g.eta, rtol=1e-9)
    assert np.allclose(back.lam, g.lam, rtol=1e-9)


def test_moments_singular_raises():
    with pytest.raises(SingularGaussianError):
        to_moments(GaussianInfo.zero(2))
    with pytest.raises(SingularGaussianError):
        mean_of(GaussianInfo.zero(2))


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
