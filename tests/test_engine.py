import dataclasses
import tracemalloc

import numpy as np
import pytest

from planegbp import engine
from planegbp.engine import GbpConfig, GbpEngine
from planegbp.errors import ContractViolation
from planegbp.gaussians import GaussianInfo, to_moments
from planegbp.geometry import CameraModel, PlaneParams, Pose, transform_plane
from planegbp.graph import (
    COMBINED_RIGID_REPROJECTION,
    KEYFRAME,
    LINEAR,
    PLANE_HYPOTHESIS,
    PLANE_POINT,
    PLANE_PREDICTION,
    POINT,
    PRIOR,
    REPROJECTION,
    RIGID_BODY,
    RIGID_PLANE_PREDICTION,
    FactorGraph,
)
from planegbp.harness import build_ba_graph, energy_converged
from planegbp.frontend import generate_scene
from planegbp.routing import RoutedTransport, RoutingSimulator
from planegbp.factors import linearise_batch, residual_sums
from planegbp.reference import dense_marginals
from conftest import (
    GENEROUS_POOLS,
    bipartite_diameter,
    build_linear_graph,
    dropout_masks,
    engine_quotient,
    linearise_one,
    own_poses,
    pixel,
    random_info,
    random_tree_edges,
    reference_messages,
    reference_sweep,
    reference_v2f,
)
from scenes import ba_scene, desk_config


def undamped(seed=0):
    return GbpConfig(damping=0.0, dropout=0.0, seed=seed)


def edge(eng, fid, vid):
    """(factor->variable, variable->factor) messages of one edge, from the batch arrays."""
    (b,) = [b for b in eng.batches if fid in b.ids]
    i = b.ids.index(fid)
    pos = b.adjacency[i].tolist().index(vid)
    v2f_eta, v2f_lam = b.v2f(pos, [i])
    return (GaussianInfo(b.f2v_eta[pos][i], b.f2v_lam[pos][i]),
            GaussianInfo(v2f_eta[0], v2f_lam[0]))


def run_gbp(engine, max_iterations):
    """Iterate until the harness's energy criterion fires; returns the reports."""
    reports = []
    for _ in range(max_iterations):
        reports.append(engine.iterate())
        if energy_converged(reports):
            break
    return reports


def test_empty_graph_iterates_as_noop():
    eng = GbpEngine(FactorGraph(), undamped())
    report = eng.iterate()
    assert report.n_factors == 0 and report.n_variables == 0
    assert report.total_energy == 0.0


def test_config_validation():
    with pytest.raises(ContractViolation):
        GbpConfig(damping=1.0)
    with pytest.raises(ContractViolation):
        GbpConfig(dropout=-0.1)
    with pytest.raises(ContractViolation):
        GbpConfig(beta=0.0)


def test_unary_factor_message_equals_factor():
    g = FactorGraph()
    v = g.add_variable(POINT, np.zeros(3))
    z = np.array([1.0, -1.0, 2.0])
    fid = g.add_factor(PRIOR, (v,), z, 0.5)
    eng = GbpEngine(g, undamped())
    eng.iterate()
    f2v, _ = edge(eng, fid, v)
    assert np.allclose(f2v.lam, np.eye(3) / 0.25)
    assert np.allclose(f2v.eta, z / 0.25)
    # one unary factor and a flat prior: belief equals the factor
    eng.sync_graph()
    assert np.allclose(g.variables[v].belief.eta, z / 0.25)


def test_pairwise_zero_incoming_is_plain_schur(rng):
    g = build_linear_graph(rng, 2, [(0, 1)], prior_lam=0.0)
    fid = next(iter(g.factors))
    eng = GbpEngine(g, undamped())
    eng.iterate()
    fac = g.factors[fid]
    means = {vid: v.mean for vid, v in g.variables.items()}
    joint = linearise_one(g, fac, means)
    L, d0 = joint.lam, g.variables[fac.adjacency[0]].dim
    halves = (slice(0, d0), slice(d0, None))
    for vid, k, e in zip(fac.adjacency, halves, halves[::-1]):
        # Schur complement onto k: eta_k - L_ke L_ee^-1 eta_e, L_kk - L_ke L_ee^-1 L_ek
        x = np.linalg.solve(L[e, e], np.column_stack([joint.eta[e], L[e, k]]))
        f2v, _ = edge(eng, fid, vid)
        assert np.allclose(f2v.eta, joint.eta[k] - L[k, e] @ x[:, 0], atol=1e-12)
        assert np.allclose(f2v.lam, L[k, k] - L[k, e] @ x[:, 1:], atol=1e-12)


def test_variable_to_factor_quotient_example():
    # the engine's quotient forms belief[rows] - f2v where it is read
    belief = np.array([[3.0], [4.0]]) * np.ones(3)
    out, _ = engine_quotient(belief, np.stack([np.eye(3)] * 2), [1, 0],
                             np.array([[3.0], [2.0]]) * np.ones(3), np.zeros((2, 3, 3)))
    assert out[0, 0] == 1.0 and out[1, 0] == 1.0


def test_belief_is_prior_times_messages(rng):
    g = build_linear_graph(rng, 3, [(0, 1), (1, 2)])
    eng = GbpEngine(g, undamped())
    eng.iterate()
    eng.sync_graph()
    for vid, node in g.variables.items():
        expected = node.prior
        for fid in node.factor_ids:
            f2v, _ = edge(eng, fid, vid)
            expected = GaussianInfo(expected.eta + f2v.eta, expected.lam + f2v.lam)
        assert np.allclose(node.belief.eta, expected.eta, atol=1e-10)
        assert np.allclose(node.belief.lam, expected.lam, atol=1e-10)


def test_variable_with_no_factors_keeps_prior(rng):
    g = FactorGraph()
    v = g.add_variable(POINT, np.array([1.0, 2.0, 3.0]),
                       random_info(rng, 3))
    eng = GbpEngine(g, undamped())
    eng.iterate()
    eng.sync_graph()
    assert g.variables[v].belief.allclose(g.variables[v].prior)


def test_singular_belief_holds_its_mean_beside_a_regular_one():
    # A zero prior and no factors: the bank's batched solve meets an exactly
    # singular block, which keeps its mean while its neighbour is solved.
    # Every sweep counts the held means, one per bank here; a prior factor
    # added on the held point constrains it, and the count drops. Both
    # singular beliefs are counted as not PD, and so is a point whose prior
    # is indefinite: LU solves its mean, which is not held.
    g = FactorGraph()
    held = g.add_variable(POINT, np.array([1.0, 2.0, 3.0]))
    pose = g.add_variable(KEYFRAME, np.arange(6.0) / 10.0)
    lam = np.diag([2.0, 4.0, 8.0])
    solved = g.add_variable(POINT, np.zeros(3), GaussianInfo(lam @ np.ones(3), lam))
    lam = np.diag([2.0, -1.0, 4.0])
    indefinite = g.add_variable(POINT, np.zeros(3), GaussianInfo(lam @ [1.0, 2.0, 3.0], lam))
    eng = GbpEngine(g, undamped())
    for _ in range(3):
        report = eng.iterate()
        assert (report.n_held_means, report.n_non_pd_beliefs) == (2, 3)
        eng.sync_graph()
        assert np.array_equal(g.variables[held].mean, [1.0, 2.0, 3.0])
        assert np.array_equal(g.variables[pose].mean, np.arange(6.0) / 10.0)
        assert np.array_equal(g.variables[solved].mean, np.ones(3))
        assert np.array_equal(g.variables[indefinite].mean, [1.0, 2.0, 3.0])
    g.add_factor(PRIOR, (held,), np.full(3, 5.0), 0.5)
    eng.on_graph_edit()
    report = eng.iterate()
    assert (report.n_held_means, report.n_non_pd_beliefs) == (1, 2)
    eng.sync_graph()
    assert np.allclose(g.variables[held].mean, 5.0)
    assert np.array_equal(g.variables[pose].mean, np.arange(6.0) / 10.0)


@pytest.mark.parametrize("seed", range(4))
def test_tree_exactness(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(8, 25))
    g = build_linear_graph(r, n, random_tree_edges(r, n))
    eng = GbpEngine(g, undamped(seed))
    for _ in range(bipartite_diameter(g)):
        eng.iterate()
    oracle = dense_marginals(g)
    eng.sync_graph()
    for vid in g.variables:
        mom = to_moments(g.variables[vid].belief)
        assert np.allclose(mom.mean, oracle[vid].mean, rtol=1e-8, atol=1e-8)
        assert np.allclose(mom.cov, oracle[vid].cov, rtol=1e-8, atol=1e-8)


def test_loopy_mean_exactness(rng):
    # a 4-cycle with proper priors: means must converge to the dense MAP
    g = build_linear_graph(rng, 4, [(0, 1), (1, 2), (2, 3), (0, 3)], prior_lam=2.0)
    eng = GbpEngine(g, undamped())
    for _ in range(300):
        eng.iterate()
    oracle = dense_marginals(g)
    eng.sync_graph()
    for vid in g.variables:
        mean = to_moments(g.variables[vid].belief).mean
        assert np.allclose(mean, oracle[vid].mean, atol=1e-8)


def test_damping_dropout_zero_stores_new_messages(rng):
    g = build_linear_graph(rng, 2, [(0, 1)])
    e1 = GbpEngine(g, GbpConfig(damping=0.0, dropout=0.0, seed=0))
    e1.iterate()
    fid = next(iter(g.factors))
    msg_plain, _ = edge(e1, fid, 0)

    e2 = GbpEngine(g, GbpConfig(damping=0.5, dropout=0.0, seed=0))
    e2.iterate()
    msg_damped, _ = edge(e2, fid, 0)
    # starting from zero messages, one damped step is (1-d) of the new message
    assert np.allclose(msg_damped.eta, 0.5 * msg_plain.eta, atol=1e-12)
    assert np.allclose(msg_damped.lam, 0.5 * msg_plain.lam, atol=1e-12)


def test_damping_interpolates_information_vector():
    prev = np.array([0.0])
    new = np.array([2.0])
    assert np.isclose((1 - 0.5) * new[0] + 0.5 * prev[0], 1.0)


def test_seed_determinism(rng):
    g1 = build_linear_graph(np.random.default_rng(7), 10,
                            random_tree_edges(np.random.default_rng(7), 10))
    g2 = build_linear_graph(np.random.default_rng(7), 10,
                            random_tree_edges(np.random.default_rng(7), 10))
    cfg = GbpConfig(damping=0.4, dropout=0.7, seed=99)
    r1 = [GbpEngine(g1, cfg).iterate() for _ in range(1)]
    e1 = GbpEngine(g1, cfg)
    e2 = GbpEngine(g2, cfg)
    t1 = [dataclasses.astuple(e1.iterate()) for _ in range(20)]
    t2 = [dataclasses.astuple(e2.iterate()) for _ in range(20)]
    # NaN-aware: linear graphs have no pixel rows, so avg_reproj_px is NaN
    np.testing.assert_equal(t1, t2)


def test_dropout_freezes_previous_messages(rng):
    g = build_linear_graph(rng, 6, random_tree_edges(rng, 6))
    cfg = GbpConfig(damping=0.4, dropout=0.99, seed=5)
    eng = GbpEngine(g, cfg)
    eng.iterate()
    n_sent = 0
    for _ in range(100):
        masks = dropout_masks(eng)
        prev = [[(e.copy(), l.copy()) for e, l in zip(b.f2v_eta, b.f2v_lam)]
                for b in eng.batches]
        fresh = [reference_messages(b) for b in eng.batches]
        r = eng.iterate()
        assert r.n_dropped == sum(int(k.sum()) for ks in masks for k in ks)
        d = cfg.damping
        for b, keeps, old, new in zip(eng.batches, masks, prev, fresh):
            for pos, keep in enumerate(keeps):
                (old_eta, old_lam), (new_eta, new_lam) = old[pos], new[pos]
                # a dropped factor does not send: its message stays bit for bit
                assert np.array_equal(b.f2v_eta[pos][keep], old_eta[keep])
                assert np.array_equal(b.f2v_lam[pos][keep], old_lam[keep])
                # a sent message is the damped mix of the new and the old one
                sent = ~keep
                assert np.array_equal(b.f2v_eta[pos][sent],
                                      ((1.0 - d) * new_eta + d * old_eta)[sent])
                assert np.array_equal(b.f2v_lam[pos][sent],
                                      ((1.0 - d) * new_lam + d * old_lam)[sent])
                n_sent += int(sent.sum())
    assert n_sent > 0, n_sent


def test_on_graph_edit_add_remove_restores_store(rng):
    g = build_linear_graph(rng, 3, [(0, 1)])
    eng = GbpEngine(g, GbpConfig(damping=0.4, dropout=0.0, seed=1))
    for _ in range(3):
        eng.iterate()
    def snapshot():
        out = {}
        for b in eng.batches:
            for i, fid in enumerate(b.ids):
                for pos in range(b.arity):
                    vid = int(b.adjacency[i, pos])
                    f2v, v2f = edge(eng, fid, vid)
                    out[(fid, vid)] = (f2v.eta.tobytes(), f2v.lam.tobytes(),
                                       v2f.eta.tobytes(), v2f.lam.tobytes())
        return out
    before = snapshot()
    m = g.variables[1].dim + g.variables[2].dim
    fid = g.add_factor(LINEAR, (1, 2), np.zeros(m), np.ones(m),
                       payload={"A": np.eye(m)})
    eng.on_graph_edit()
    g.remove_factor(fid)
    eng.on_graph_edit()
    assert snapshot() == before


def test_edit_keeps_both_positions_of_a_factor_on_one_variable(rng):
    # A linear factor on (a, a) has two positions on one variable, each with
    # its own messages; a recompile carries them position by position.
    g = build_linear_graph(rng, 2, [(0, 1)])
    m = 2 * g.variables[0].dim
    g.add_factor(LINEAR, (0, 0), rng.normal(size=m), np.ones(m),
                 payload={"A": rng.normal(size=(m, m))})
    eng = GbpEngine(g, GbpConfig(damping=0.4, dropout=0.0, seed=1))
    for _ in range(5):
        eng.iterate()

    def messages():
        v2f = [[b.v2f(pos) for pos in range(b.arity)] for b in eng.batches]
        return [[arr.copy() for arrs in (b.f2v_eta, b.f2v_lam, *zip(*quotients))
                 for arr in arrs] for b, quotients in zip(eng.batches, v2f)]

    before = messages()
    (loop,) = [b for b in eng.batches if (b.adjacency == 0).all(axis=1).any()]
    i = int(np.flatnonzero((loop.adjacency == 0).all(axis=1))[0])
    assert not np.array_equal(loop.f2v_eta[0][i], loop.f2v_eta[1][i])
    v = g.add_variable(POINT, np.zeros(3))
    g.add_factor(PRIOR, (v,), np.ones(3), 1.0)
    eng.on_graph_edit()
    for old, new in zip(before, messages()):
        for a, b in zip(old, new):
            assert np.array_equal(a, b)


def test_new_variable_belief_from_initialisation(rng):
    g = build_linear_graph(rng, 2, [(0, 1)])
    eng = GbpEngine(g, undamped())
    eng.iterate()
    prior = random_info(rng, 3)
    v = g.add_variable(POINT, np.array([1.0, 2.0, 3.0]), prior)
    eng.on_graph_edit()
    eng.sync_graph()
    assert g.variables[v].belief.allclose(prior)
    assert np.allclose(g.variables[v].mean, [1.0, 2.0, 3.0])


def test_marginalisation_count_is_structure_agnostic(rng):
    # same factor census, different topologies -> identical per-sweep counts
    counts = []
    for trial in range(3):
        r = np.random.default_rng(trial)
        n = 12
        edges = random_tree_edges(r, n) + [(0, n - 1), (1, n - 2)]
        g = build_linear_graph(r, n, edges)
        eng = GbpEngine(g, undamped(trial))
        counts.append(eng.iterate().marginalisation_calls)
    assert len(set(counts)) == 1


def test_run_gbp_energy_criterion(rng):
    g = build_linear_graph(rng, 6, random_tree_edges(rng, 6))
    eng = GbpEngine(g, GbpConfig(damping=0.0, dropout=0.0, seed=0))
    reports = run_gbp(eng, 200)
    assert len(reports) < 200  # converged before the budget


def _toy_ba_graph():
    spec = ba_scene(3, n_keyframes=3, points_per_plane=12, n_clutter=10)
    scene = generate_scene(spec)
    packets = [scene.emit_keyframe(k) for k in range(spec.n_keyframes)]
    graph, state = build_ba_graph(desk_config(spec, 3, planes=False), packets,
                                  scene.camera, point_noise=0.05, scene=scene)
    return graph, state


def test_factor_relinearises_exactly_when_drift_exceeds_beta():
    # A reprojection factor is linearised again exactly when the L1 distance
    # of its variables' means from its linearisation point, kept in the
    # engine's batches, exceeds beta; prior factors keep the linearisation
    # made at build.
    g, _ = _toy_ba_graph()
    assert {f.kind for f in g.factors.values()} == {REPROJECTION, PRIOR}
    beta = 1e-3
    eng = GbpEngine(g, GbpConfig(damping=0.4, dropout=0.0, beta=beta, seed=0))

    def points():
        """fid -> (linearisation point, linearised) from the engine's batches."""
        return {fid: (b.x0[i].copy(), bool(b.lin_valid[i]))
                for b in eng.batches for i, fid in enumerate(b.ids)}

    def drift(fid, means, lin):
        x = np.concatenate([means[v] for v in g.factors[fid].adjacency])
        return np.sum(np.abs(x - lin[fid][0]))

    priors = {fid: x0 for fid, (x0, _) in points().items() if g.factors[fid].kind == PRIOR}
    n_reproj = len(g.factors) - len(priors)
    partial = 0
    for _ in range(30):
        means, lin = eng.means(), points()
        expected = sum(
            not lin[fid][1] or drift(fid, means, lin) > beta
            for fid in g.factors if fid not in priors
        )
        n = eng.iterate().n_relinearised
        assert n == expected
        partial += 0 < n < n_reproj
    assert partial > 0
    means, lin = eng.means(), points()
    for fid, x0 in priors.items():
        assert lin[fid][1] and np.array_equal(lin[fid][0], x0)
    assert any(drift(fid, means, lin) > beta for fid in priors)


def test_only_factors_that_send_are_relinearised():
    # A factor's linearisation is read only when it sends, so a sweep tests
    # against beta and relinearises only the factors that send to some
    # position; one that sends nowhere keeps its linearisation bit for bit,
    # even when its variables have drifted past beta.
    g, _ = _toy_ba_graph()
    beta = 1e-3
    eng = GbpEngine(g, GbpConfig(damping=0.4, dropout=0.7, beta=beta, seed=0))
    state = ("x0", "eta", "lam", "weight", "lin_valid")
    stale = 0
    for _ in range(25):
        idle = [np.logical_and.reduce(dropped) for dropped in dropout_masks(eng)]
        before = [{name: getattr(b, name).copy() for name in state} for b in eng.batches]
        expected = 0
        for b, still, old in zip(eng.batches, idle, before):
            if b.spec.linear:
                continue
            drift = np.sum(np.abs(eng._gather_x(b) - old["x0"]), axis=1)
            due = ~old["lin_valid"] | (drift > beta)
            expected += int(np.sum(due & ~still))
            stale += int(np.sum(due & still))
        assert eng.iterate().n_relinearised == expected
        for b, still, old in zip(eng.batches, idle, before):
            for name in state:
                assert np.array_equal(getattr(b, name)[still], old[name][still])
    assert stale > 0


@pytest.mark.parametrize("routed", [False, True])
def test_sweep_matches_loop_reference(routed):
    # The sweep marginalises only the factors that send and scatters beliefs
    # through a compiled matrix; it must equal, bit for bit, the sweep that
    # computes every message, masks with np.where and adds with np.add.at.
    cfg = GbpConfig(damping=0.4, dropout=0.7, seed=11)
    graphs, engines = [], []
    for _ in range(2):
        g, state = _toy_ba_graph()
        sim = RoutingSimulator(GENEROUS_POOLS) if routed else None
        graphs.append(g)
        engines.append(GbpEngine(g, cfg, transport=sim and RoutedTransport(sim)))
    eng, ref = engines
    kf, pt = state.keyframe_vars[1], sorted(state.point_var.values())[0]
    added = None
    regularised = 0
    for sweep in range(20):
        regularised += eng.iterate().n_regularised
        reference_sweep(ref)
        for b, rb in zip(eng.batches, ref.batches):
            assert b.ids == rb.ids
            for pos in range(b.arity):
                assert np.array_equal(b.f2v_eta[pos], rb.f2v_eta[pos])
                assert np.array_equal(b.f2v_lam[pos], rb.f2v_lam[pos])
                v2f_eta, v2f_lam = b.v2f(pos)
                ref_eta, ref_lam = reference_v2f(rb, pos)
                assert np.array_equal(v2f_eta, ref_eta)
                assert np.array_equal(v2f_lam, ref_lam)
        for dim, bank in eng.banks.items():
            rbank = ref.banks[dim]
            assert np.array_equal(bank.belief_eta, rbank.belief_eta)
            assert np.array_equal(bank.belief_lam, rbank.belief_lam)
            assert np.array_equal(bank.mean, rbank.mean)
        if sweep in (6, 12):
            # add a factor, later remove it: the scatter is compiled again
            for g, e in zip(graphs, engines):
                if added is None:
                    fid = g.add_factor(REPROJECTION, (kf, pt), np.array([300.0, 250.0]), 1.0)
                else:
                    g.remove_factor(added)
                e.on_graph_edit()
            added = fid if added is None else None
    # the first sweeps meet singular blocks (points seen once, zero incoming)
    assert regularised > 0


CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def _weak(kind, mean, sigma):
    """(kind, mean, prior): a weak prior at the initial mean."""
    lam = np.eye(mean.shape[0]) / sigma**2
    return kind, mean, GaussianInfo(lam @ mean, lam)


def _add_views(g, rng, kf, pts, rb, conv):
    """A keyframe's reprojections of `pts` and one combined factor of its
    views of the rigid body's points `conv`."""
    pose = Pose(g.variables[kf].mean)
    for p in pts:
        z = pixel(CAM, pose, g.variables[p].mean) + rng.normal(size=2)
        g.add_factor(REPROJECTION, (kf, p), z, 1.0)
    body = Pose(g.variables[rb].mean).apply(conv)
    cons = [(pixel(CAM, pose, q) + rng.normal(size=2), pc) for q, pc in zip(body, conv)]
    g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 1.0,
                 payload={"constituents": cons})


def _posed_graph(rng):
    """Keyframes, points, a plane hypothesis with a prediction, and a rigid
    body seen through multi-constituent combined factors and a plane; the
    measurements are consistent with the initial means up to noise."""
    g = FactorGraph(camera=CAM)
    kfs = [g.add_variable(*_weak(KEYFRAME, np.concatenate(
        [[0.15 * k, 0.0, 0.0], rng.normal(size=3) * 0.05]), 0.1)) for k in range(3)]
    g.add_factor(PRIOR, (kfs[0],), g.variables[kfs[0]].mean, 0.01)
    on_plane = [np.array([x, y, 4.0]) for x, y in rng.normal(size=(4, 2)) * 0.5]
    off_plane = list(rng.normal(size=(4, 3)) * 0.5 + [0, 0, 4.0])
    pts = [g.add_variable(*_weak(POINT, p + rng.normal(size=3) * 0.01, 1.0))
           for p in on_plane + off_plane]
    plane = PlaneParams(np.array([0.0, 0.0, 4.0]))
    hyp = g.add_variable(*_weak(PLANE_HYPOTHESIS, plane.m + rng.normal(size=3) * 0.01, 1.0))
    for p in pts[:4]:
        g.add_factor(PLANE_POINT, (hyp, p), 0.0, 0.1)
    g.add_factor(PLANE_PREDICTION, (hyp, kfs[1]),
                 transform_plane(Pose(g.variables[kfs[1]].mean), plane).m, 0.05)
    rb = g.add_variable(*_weak(RIGID_BODY, rng.normal(size=6) * 0.02, 0.1))
    pi_conv = PlaneParams(np.array([0.0, 0.1, 5.0]))
    seen = transform_plane(Pose(g.variables[rb].mean), pi_conv)
    g.add_factor(RIGID_PLANE_PREDICTION, (rb, kfs[2]),
                 transform_plane(Pose(g.variables[kfs[2]].mean), seen).m, 0.05,
                 payload={"pi_conv": pi_conv.m})
    conv = rng.normal(size=(4, 3)) * 0.4 + [0, 0, 5.0]
    for kf in kfs:
        _add_views(g, rng, kf, pts, rb, conv)
    return g, pts, rb, conv


def test_linearisation_and_metrics_equal_per_row_rotations(rng):
    # The engine rotates each pose once per sweep and gathers the rotations
    # by row. Every stored linearisation must equal, bit for bit, the one
    # computed at its x0 with each row's own rotations, and every report's
    # metrics the residual sums at the means with each row's own rotations.
    g, pts, rb, conv = _posed_graph(rng)
    eng = GbpEngine(g, GbpConfig(damping=0.4, dropout=0.5, seed=3))
    kinds = set()
    for sweep in range(12):
        if sweep == 5:
            kf = g.add_variable(*_weak(KEYFRAME, np.concatenate(
                [[0.3, 0.1, 0.0], rng.normal(size=3) * 0.05]), 0.1))
            _add_views(g, rng, kf, pts, rb, conv)
            eng.on_graph_edit()
        report = eng.iterate()
        means = eng.means()
        energy, px, count = 0.0, 0.0, 0
        for b in eng.batches:
            done = np.flatnonzero(b.lin_valid)
            x0 = b.x0[done]
            eta, lam, weight = linearise_batch(*own_poses(b, x0, rows=done), done)
            assert np.array_equal(eta, b.eta[done])
            assert np.array_equal(lam, b.lam[done])
            assert np.array_equal(weight, b.weight[done])
            X = np.stack([np.concatenate([means[v] for v in adj]) for adj in b.adjacency])
            e, p, c = residual_sums(*own_poses(b, X, want_jac=False))
            energy, px, count = energy + e, px + p, count + c
            kinds.add(b.kind)
        assert report.total_energy == energy
        assert report.avg_reproj_px == px / count
    assert kinds >= {REPROJECTION, PLANE_PREDICTION, RIGID_PLANE_PREDICTION,
                     COMBINED_RIGID_REPROJECTION}


def _state(eng):
    """Every state array of the engine's banks and batches, with each
    position's variable->factor messages as the engine forms them."""
    out = []
    for bank in eng.banks.values():
        out += [getattr(bank, name) for name in engine._VarBank.STATE]
    for b in eng.batches:
        for name in engine._Batch.STATE:
            arr = getattr(b, name)
            out += arr if isinstance(arr, list) else [arr]
        for pos in range(b.arity):
            out += b.v2f(pos)
    return out


def test_sweep_does_not_depend_on_the_block_size(monkeypatch):
    # The per-factor half of a sweep runs one block of factors at a time.
    # Blocks of 1 and 7 factors and the default block must give the same
    # reports and leave every state array bit for bit equal, to one another
    # and to the loop reference, which computes every message before it
    # damps any: routed, on combined rigid reprojections, across an edit.
    sizes = (1, 7, engine.BLOCK)
    twins = []
    for _ in range(len(sizes) + 1):
        g, pts, rb, conv = _posed_graph(np.random.default_rng(5))
        eng = GbpEngine(g, GbpConfig(damping=0.4, dropout=0.5, seed=3),
                        transport=RoutedTransport(RoutingSimulator(GENEROUS_POOLS)))
        twins.append((g, pts, rb, conv, eng))
    engines = [twin[-1] for twin in twins]
    assert max(b.n for b in engines[0].batches) > 2 * 7
    assert any(b.kind == COMBINED_RIGID_REPROJECTION and b.n > 1 for b in engines[0].batches)
    regularised = 0
    for sweep in range(12):
        if sweep == 5:
            for g, pts, rb, conv, eng in twins:
                r = np.random.default_rng(6)
                kf = g.add_variable(*_weak(KEYFRAME, np.array([0.3, 0.1, 0.0, 0.0, 0.02, 0.0]),
                                           0.1))
                _add_views(g, r, kf, pts, rb, conv)
                eng.on_graph_edit()
        reports = []
        for size, eng in zip(sizes, engines):
            monkeypatch.setattr(engine, "BLOCK", size)
            reports.append(eng.iterate())
        reference_sweep(engines[-1])
        for report in reports[1:]:
            np.testing.assert_equal(dataclasses.astuple(report), dataclasses.astuple(reports[0]))
        regularised += reports[0].n_regularised
        first = _state(engines[0])
        for eng in engines[1:]:
            state = _state(eng)
            assert len(state) == len(first)
            for a, b in zip(first, state):
                assert np.array_equal(a, b)
    # the count of regularised solves is summed over blocks, and is exercised
    assert regularised > 0


def test_sweep_working_set_is_bounded_by_one_block():
    # A sweep's temporaries are the size of a block, not of the graph: on a
    # static BA graph of 15k reprojections, what one sweep allocates at its
    # peak above what it leaves allocated stays below the reprojection
    # batch's lam stack, n D^2 float64s.
    spec = ba_scene(1, n_keyframes=10, points_per_plane=400, n_clutter=300)
    scene = generate_scene(spec)
    cfg = desk_config(spec, 1, planes=False)
    g, _ = build_ba_graph(cfg, [scene.emit_keyframe(k) for k in range(spec.n_keyframes)],
                          scene.camera, point_noise=0.05, scene=scene)
    eng = GbpEngine(g, cfg.gbp)
    b = max(eng.batches, key=lambda b: b.n)
    assert b.kind == REPROJECTION and b.n == 15000
    bound = b.lam.nbytes
    for _ in range(2):
        tracemalloc.start()
        try:
            eng.iterate()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < bound
