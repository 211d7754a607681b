import dataclasses

import numpy as np
import pytest

from planegbp.engine import GbpConfig, GbpEngine, run_gbp
from planegbp.errors import ContractViolation
from planegbp.gaussians import (
    BlockLayout,
    GaussianInfo,
    marginalize,
    product,
    quotient,
    to_moments,
)
from planegbp.graph import KEYFRAME, LINEAR, POINT, PRIOR, REPROJECTION, FactorGraph
from planegbp.harness import build_ba_graph
from planegbp.frontend import generate_scene
from planegbp.routing import PoolConfig, RoutingSimulator
from planegbp.factors import linearise
from planegbp.reference import dense_marginals
from conftest import (
    bipartite_diameter,
    build_linear_graph,
    dropout_masks,
    random_info,
    random_tree_edges,
    reference_messages,
    reference_sweep,
)
from scenes import ba_scene, desk_config


def undamped(seed=0):
    return GbpConfig(damping=0.0, dropout=0.0, seed=seed)


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
    f2v, _ = eng.edge_messages(fid, v)
    assert np.allclose(f2v.lam, np.eye(3) / 0.25)
    assert np.allclose(f2v.eta, z / 0.25)
    # one unary factor and a flat prior: belief equals the factor
    assert np.allclose(eng.belief(v).eta, z / 0.25)


def test_pairwise_zero_incoming_is_plain_schur(rng):
    g = build_linear_graph(rng, 2, [(0, 1)], prior_lam=0.0)
    fid = next(iter(g.factors))
    eng = GbpEngine(g, undamped())
    eng.iterate()
    fac = g.factors[fid]
    means = {vid: v.mean for vid, v in g.variables.items()}
    joint = linearise(g, fac, means)
    layout = BlockLayout.from_dims((v, g.variables[v].dim) for v in fac.adjacency)
    for vid in fac.adjacency:
        oracle = marginalize(joint, layout, vid)
        f2v, _ = eng.edge_messages(fid, vid)
        assert np.allclose(f2v.eta, oracle.eta, atol=1e-12)
        assert np.allclose(f2v.lam, oracle.lam, atol=1e-12)


def test_variable_to_factor_quotient_example():
    belief = GaussianInfo([3.0], [[4.0]])
    incoming = GaussianInfo([2.0], [[3.0]])
    out = quotient(belief, incoming)
    assert out.eta[0] == 1.0 and out.lam[0, 0] == 1.0


def test_belief_is_prior_times_messages(rng):
    g = build_linear_graph(rng, 3, [(0, 1), (1, 2)])
    eng = GbpEngine(g, undamped())
    eng.iterate()
    for vid, node in g.variables.items():
        expected = node.prior
        for fid in node.factor_ids:
            f2v, _ = eng.edge_messages(fid, vid)
            expected = product(expected, f2v)
        assert np.allclose(eng.belief(vid).eta, expected.eta, atol=1e-10)
        assert np.allclose(eng.belief(vid).lam, expected.lam, atol=1e-10)


def test_variable_with_no_factors_keeps_prior(rng):
    g = FactorGraph()
    v = g.add_variable(POINT, np.array([1.0, 2.0, 3.0]),
                       random_info(rng, 3))
    eng = GbpEngine(g, undamped())
    eng.iterate()
    assert eng.belief(v).allclose(g.variables[v].prior)


@pytest.mark.parametrize("seed", range(4))
def test_tree_exactness(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(8, 25))
    g = build_linear_graph(r, n, random_tree_edges(r, n))
    eng = GbpEngine(g, undamped(seed))
    for _ in range(bipartite_diameter(g)):
        eng.iterate()
    oracle = dense_marginals(g)
    for vid in g.variables:
        mom = to_moments(eng.belief(vid))
        assert np.allclose(mom.mean, oracle[vid].mean, rtol=1e-8, atol=1e-8)
        assert np.allclose(mom.cov, oracle[vid].cov, rtol=1e-8, atol=1e-8)


def test_loopy_mean_exactness(rng):
    # a 4-cycle with proper priors: means must converge to the dense MAP
    g = build_linear_graph(rng, 4, [(0, 1), (1, 2), (2, 3), (0, 3)], prior_lam=2.0)
    eng = GbpEngine(g, undamped())
    for _ in range(300):
        eng.iterate()
    oracle = dense_marginals(g)
    for vid in g.variables:
        mean = to_moments(eng.belief(vid)).mean
        assert np.allclose(mean, oracle[vid].mean, atol=1e-8)


def test_damping_dropout_zero_stores_new_messages(rng):
    g = build_linear_graph(rng, 2, [(0, 1)])
    e1 = GbpEngine(g, GbpConfig(damping=0.0, dropout=0.0, seed=0))
    e1.iterate()
    fid = next(iter(g.factors))
    msg_plain, _ = e1.edge_messages(fid, 0)

    e2 = GbpEngine(g, GbpConfig(damping=0.5, dropout=0.0, seed=0))
    e2.iterate()
    msg_damped, _ = e2.edge_messages(fid, 0)
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
                    f2v, v2f = eng.edge_messages(fid, vid)
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
        return [[arr.copy() for arrs in (b.f2v_eta, b.f2v_lam, b.v2f_eta, b.v2f_lam)
                 for arr in arrs] for b in eng.batches]

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
    assert eng.belief(v).allclose(prior)
    assert np.allclose(eng.mean(v), [1.0, 2.0, 3.0])


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
    eng = GbpEngine(g, GbpConfig(damping=0.0, dropout=0.0, seed=0,
                                 energy_rel_tol=1e-9, energy_window=5))
    reports = run_gbp(eng, 200, criterion="energy")
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


@pytest.mark.parametrize("routed", [False, True])
def test_sweep_matches_loop_reference(routed):
    # The sweep marginalises only the factors that send and scatters beliefs
    # through a compiled matrix; it must equal, bit for bit, the sweep that
    # computes every message, masks with np.where and adds with np.add.at.
    cfg = GbpConfig(damping=0.4, dropout=0.7, seed=11)
    graphs, engines, sims = [], [], []
    for _ in range(2):
        g, state = _toy_ba_graph()
        sim = None
        if routed:
            sim = RoutingSimulator(PoolConfig.generous_for(g))
            sim.bind_graph(g)
        graphs.append(g)
        sims.append(sim)
        engines.append(GbpEngine(g, cfg, transport=sim and sim.make_transport()))
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
                assert np.array_equal(b.v2f_eta[pos], rb.v2f_eta[pos])
                assert np.array_equal(b.v2f_lam[pos], rb.v2f_lam[pos])
        for dim, bank in eng.banks.items():
            rbank = ref.banks[dim]
            assert np.array_equal(bank.belief_eta, rbank.belief_eta)
            assert np.array_equal(bank.belief_lam, rbank.belief_lam)
            assert np.array_equal(bank.mean, rbank.mean)
        if sweep in (6, 12):
            # add a factor, later remove it: the scatter is compiled again
            for g, e, sim in zip(graphs, engines, sims):
                mark = len(g.journal)
                if added is None:
                    fid = g.add_factor(REPROJECTION, (kf, pt), np.array([300.0, 250.0]), 1.0)
                else:
                    g.remove_factor(added)
                events = g.events_since(mark)
                if sim is not None:
                    sim.apply_edit(events)
                e.on_graph_edit()
            added = fid if added is None else None
    # the first sweeps meet singular blocks (points seen once, zero incoming)
    assert regularised > 0
