
import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csc_matrix

import planegbp
from planegbp import factors, reference
from planegbp.engine import GbpConfig, GbpEngine
from planegbp.errors import SingularGaussianError
from planegbp.factors import linearise_batch
from planegbp.gaussians import GaussianInfo
from planegbp.geometry import CameraModel
from planegbp.graph import FACTOR_KINDS, LINEAR, POINT, PRIOR, FactorGraph
from planegbp.reference import (
    COST_REL_TOL,
    LAMBDA_FACTOR,
    LAMBDA_INIT,
    LAMBDA_MAX,
    LM_KERNEL,
    LM_MAX_ITERATIONS,
    _lm_cost,
    _solve_step,
    _System,
    avg_reprojection_px,
    dense_marginals,
    lm_solve,
)
from planegbp.routing import ROUTED, RoutedTransport, RoutingSimulator
from planegbp.harness import ExperimentConfig, build_ba_graph
from planegbp.frontend import PlaneSpec, SceneSpec, generate_scene
from planegbp.graph import (
    KEYFRAME,
    PLANE_HYPOTHESIS,
    PLANE_POINT,
    PLANE_PREDICTION,
    REPROJECTION,
)
from conftest import GENEROUS_POOLS, own_poses


def test_dense_marginals_single_unary_variable():
    g = FactorGraph()
    v = g.add_variable(POINT, np.zeros(3))
    z = np.array([1.0, 2.0, 3.0])
    g.add_factor(PRIOR, (v,), z, 0.5)
    out = dense_marginals(g)
    assert np.allclose(out[v].mean, z)
    assert np.allclose(out[v].cov, np.eye(3) * 0.25)


def kalman_smoother_chain(z_obs, q, r_var, mu0, p0):
    """RTS smoother for x_k = x_{k-1} + w, z_k = x_k + v; the independent
    oracle for a 3-variable chain."""
    n = len(z_obs)
    mf = np.zeros(n)
    pf = np.zeros(n)
    mp = np.zeros(n)
    pp = np.zeros(n)
    for k in range(n):
        if k == 0:
            mp[k], pp[k] = mu0, p0
        else:
            mp[k], pp[k] = mf[k - 1], pf[k - 1] + q
        K = pp[k] / (pp[k] + r_var)
        mf[k] = mp[k] + K * (z_obs[k] - mp[k])
        pf[k] = (1 - K) * pp[k]
    ms = mf.copy()
    ps = pf.copy()
    for k in range(n - 2, -1, -1):
        C = pf[k] / pp[k + 1]
        ms[k] = mf[k] + C * (ms[k + 1] - mf[k])
        ps[k] = pf[k] + C**2 * (ps[k + 1] - pp[k + 1])
    return ms, ps


def test_dense_marginals_match_kalman_smoother():
    # chain of 3 scalar states built from 3-dim blocks restricted to 1 dof is
    # awkward; use 3-dim states with independent coordinates instead and
    # compare coordinate 0 against the scalar smoother.
    q, r_var, mu0, p0 = 0.3, 0.4, 0.5, 1.2
    z_obs = [0.9, -0.2, 0.7]
    g = FactorGraph()
    vs = [g.add_variable(POINT, np.zeros(3)) for _ in range(3)]
    prior_lam = np.eye(3) / p0
    g.variables[vs[0]].prior = GaussianInfo(prior_lam @ np.full(3, mu0), prior_lam)
    for k in range(3):
        g.add_factor(PRIOR, (vs[k],), np.full(3, z_obs[k]), np.sqrt(r_var))
    for k in range(2):
        A = np.concatenate([np.eye(3), -np.eye(3)], axis=1)
        g.add_factor(LINEAR, (vs[k], vs[k + 1]), np.zeros(3),
                     np.full(3, np.sqrt(q)), payload={"A": A})
    out = dense_marginals(g)
    ms, ps = kalman_smoother_chain(z_obs, q, r_var, mu0, p0)
    for k in range(3):
        assert np.allclose(out[vs[k]].mean, np.full(3, ms[k]), rtol=1e-9)
        assert np.isclose(out[vs[k]].cov[0, 0], ps[k], rtol=1e-9)


def test_dense_marginals_gauge_deficiency_message():
    g = FactorGraph()
    a = g.add_variable(POINT, np.zeros(3))
    b = g.add_variable(POINT, np.zeros(3))
    A = np.concatenate([np.eye(3), -np.eye(3)], axis=1)
    g.add_factor(LINEAR, (a, b), np.zeros(3), np.ones(3), payload={"A": A})
    with pytest.raises(SingularGaussianError, match="prior"):
        dense_marginals(g)


def _scene(seed=0):
    return SceneSpec(
        planes=[PlaneSpec([1, 0, 0], 1.0, [1.0, 0, 0], [1.0, 1.0], 30)],
        n_clutter=20,
        clutter_low=[-0.5, -1.5, -1.0], clutter_high=[1.5, 1.2, 1.0],
        n_keyframes=4, traj_radius=4.5, traj_span_deg=25.0,
        pixel_sigma=0.0, seed=seed,
    )


def _scene_inputs(cfg):
    """(packets, camera, scene) of the config's generated scene."""
    scene = generate_scene(cfg.scene)
    return ([scene.emit_keyframe(k) for k in range(cfg.scene.n_keyframes)],
            scene.camera, scene)


def test_lm_zero_noise_ground_truth_init_converges_immediately():
    cfg = ExperimentConfig(scene=_scene(), solver="lm", seed=0)
    packets, camera, scene = _scene_inputs(cfg)
    graph, state = build_ba_graph(cfg, packets, camera, pose_noise=(0.0, 0.0),
                                  point_noise=0.0, scene=scene)
    result = lm_solve(graph)
    assert result.trace[0]["cost"] < 1e-9
    assert result.trace[-1]["avg_reproj_px"] < 1e-6


def test_lm_cost_non_increasing_and_converges(rng):
    cfg = ExperimentConfig(scene=_scene(3), solver="lm", seed=3, gbp=GbpConfig(seed=3))
    cfg.scene.pixel_sigma = 1.0
    packets, camera, scene = _scene_inputs(cfg)
    graph, state = build_ba_graph(cfg, packets, camera, pose_noise=(0.05, 0.02),
                                  point_noise=0.05, scene=scene)
    result = lm_solve(graph)
    costs = [row["cost"] for row in result.trace]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert result.converged
    assert result.trace[-1]["avg_reproj_px"] < 1.5


def test_lm_linear_graph_matches_dense_means(rng):
    from conftest import build_linear_graph, random_tree_edges

    g = build_linear_graph(rng, 8, random_tree_edges(rng, 8))
    oracle = dense_marginals(g)
    result = lm_solve(g)
    for vid in g.variables:
        assert np.allclose(result.means[vid], oracle[vid].mean, atol=1e-10)


# -- sparse assembly and step against the dense reference ----------------------

def dense_assemble(system, x, kernel="tukey"):
    """Joint (eta, lam) scattered with np.add.at into a dense (dim, dim)
    matrix, priors first, then the stacks in order: the reference for the
    compiled sparse assembly."""
    dim = system.layout.dim
    eta = np.zeros(dim)
    lam = np.zeros((dim, dim))
    for cols, p_eta, p_lam in system.priors:
        np.add.at(eta, cols, p_eta)
        np.add.at(lam, (cols[:, :, None], cols[:, None, :]), p_lam)
    for stack, cols in zip(system.stacks, system.cols):
        # each factor rotates its own poses, where the system shares them
        f_eta, f_lam, _ = linearise_batch(*own_poses(stack, x[cols]), kernel=kernel)
        np.add.at(eta, cols, f_eta)
        np.add.at(lam, (cols[:, :, None], cols[:, None, :]), f_lam)
    return eta, lam


def dense_lm_solve(graph):
    """lm_solve's loop with a dense Hessian and np.linalg.solve steps; returns
    (means, per-step costs)."""
    system = _System(graph)
    x = system.flat({vid: node.mean for vid, node in graph.variables.items()})
    lam_damp = LAMBDA_INIT
    cost = _lm_cost(system, x)
    costs = [cost]
    for _ in range(LM_MAX_ITERATIONS):
        eta, H = dense_assemble(system, x, LM_KERNEL)
        g = H @ x - eta
        converged = hit_max = False
        while True:
            damp = H + lam_damp * np.diag(np.maximum(np.diag(H), 1e-12))
            try:
                delta = np.linalg.solve(damp, -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                cand_cost = _lm_cost(system, x + delta)
                if cand_cost <= cost:
                    x = x + delta
                    rel = (cost - cand_cost) / max(cost, 1e-300)
                    cost = cand_cost
                    costs.append(cost)
                    lam_damp = max(lam_damp / LAMBDA_FACTOR, 1e-12)
                    converged = rel < COST_REL_TOL
                    break
            lam_damp *= LAMBDA_FACTOR
            if lam_damp > LAMBDA_MAX:
                hit_max = True
                break
        if hit_max or converged:
            break
    return system.means(x), costs


def noisy_ba_graph(seed=3):
    cfg = ExperimentConfig(scene=_scene(seed), solver="lm", seed=seed,
                           gbp=GbpConfig(seed=seed))
    cfg.scene.pixel_sigma = 1.0
    packets, camera, scene = _scene_inputs(cfg)
    graph, _ = build_ba_graph(cfg, packets, camera, pose_noise=(0.05, 0.02),
                              point_noise=0.05, scene=scene)
    return graph


def planar_graph(rng):
    """Reprojection plus plane-point and plane-prediction factors, which couple
    landmarks, at perturbed means, with a prior on one keyframe."""
    return kf_point_graph(rng, plane_members=20)


@pytest.mark.parametrize("kind", ["ba", "planar"])
def test_sparse_assembly_equals_dense_scatter(kind, rng):
    graph = noisy_ba_graph() if kind == "ba" else planar_graph(rng)
    system = _System(graph)
    assert system.priors and len(system.stacks) >= (1 if kind == "ba" else 3)
    x = system.flat({vid: v.mean for vid, v in graph.variables.items()})
    # GBP's Tukey, LM's Huber, and unweighted: Tukey zeroes most of the
    # planar graph's far-off rows
    for kernel in ("tukey", "huber", "none"):
        eta, H = system.assemble(x, kernel)
        eta_ref, lam_ref = dense_assemble(system, x, kernel)
        assert H.format == "csc"
        assert np.array_equal(eta, eta_ref)
        assert np.array_equal(H.toarray(), lam_ref)


def test_lm_matches_dense_step_lm():
    graph = noisy_ba_graph()
    result = lm_solve(graph)
    means, costs = dense_lm_solve(graph)
    assert result.converged
    assert len(result.trace) == len(costs) > 2
    assert np.allclose([row["cost"] for row in result.trace], costs, rtol=1e-9, atol=0)
    for vid, mean in means.items():
        assert np.allclose(result.means[vid], mean, rtol=0, atol=1e-8)


def test_lm_evaluates_the_residuals_once_per_point(monkeypatch):
    # A point's cost and its trace pixel error share one residual pass: the
    # kernels run without Jacobians at the start point and at each attempt
    # with a finite step, and once more nowhere.
    graph = noisy_ba_graph()
    rows = {True: 0, False: 0}
    for name in {spec.kernel for spec in FACTOR_KINDS.values()}:
        def counted(cam, z, *args, want_jac=True, kernel=getattr(factors, name)):
            rows[want_jac] += z.shape[0]
            return kernel(cam, z, *args, want_jac=want_jac)
        monkeypatch.setattr(factors, name, counted)
    finite = []
    solve = reference._solve_step

    def counted_step(damp, rhs):
        delta, fill = solve(damp, rhs)
        finite.append(delta is not None and bool(np.all(np.isfinite(delta))))
        return delta, fill

    monkeypatch.setattr(reference, "_solve_step", counted_step)
    result = lm_solve(graph)
    per_pass = sum(s.z.shape[0] for s in _System(graph).stacks)
    assert result.converged and len(result.trace) > 2
    assert rows[False] == (1 + sum(finite)) * per_pass
    # every attempt is accepted on this graph: one linearisation per step
    assert rows[True] == (len(result.trace) - 1) * per_pass


def test_damped_attempts_write_one_matrix_and_leave_the_hessian():
    graph = noisy_ba_graph()
    system = _System(graph)
    x = system.flat({vid: v.mean for vid, v in graph.variables.items()})
    _, H = system.assemble(x, LM_KERNEL)
    values = H.data.copy()
    h_diag = np.maximum(H.diagonal(), 1e-12)
    damped = []
    for lam_damp in (LAMBDA_INIT, LAMBDA_INIT * LAMBDA_FACTOR):
        damp = system.damped(lam_damp * np.maximum(H.data[system.diag], 1e-12))
        assert np.array_equal(damp.toarray(), H.toarray() + lam_damp * np.diag(h_diag))
        assert H.data.tobytes() == values.tobytes()
        damped.append(damp)
    assert damped[0] is damped[1] and damped[0] is not H
    assert system.assemble(x, LM_KERNEL)[1] is H


def test_lm_with_rejected_attempts_matches_dense_step_lm(monkeypatch):
    # every_kind_graph at this seed rejects most attempts; every attempt is
    # factorised from the solve's one damped matrix
    from test_factors import every_kind_graph

    graph = every_kind_graph(np.random.default_rng(8))
    handed = []
    solve = reference._solve_step

    def recorded(damp, rhs):
        handed.append(damp)
        return solve(damp, rhs)

    monkeypatch.setattr(reference, "_solve_step", recorded)
    result = lm_solve(graph)
    means, costs = dense_lm_solve(graph)
    assert result.converged
    assert len(handed) > 2 * (len(result.trace) - 1)
    assert all(damp is handed[0] for damp in handed)
    assert len(result.trace) == len(costs)
    assert np.allclose([row["cost"] for row in result.trace], costs, rtol=1e-9, atol=0)
    for vid, mean in means.items():
        assert np.allclose(result.means[vid], mean, rtol=0, atol=1e-8)


def test_singular_step_is_rejected():
    rows = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
    assert _solve_step(csc_matrix(rows), np.ones(3)) == (None, None)
    rows[1, 1] = 4.0
    delta, fill = _solve_step(csc_matrix(rows), np.ones(3))
    assert np.allclose(delta, np.linalg.solve(rows, np.ones(3)), rtol=1e-14)
    assert fill >= np.count_nonzero(rows)


def test_step_solves_an_spd_system_and_rejects_a_singular_psd_one(rng):
    # sparse SPD: M M^T + I for a sparse M
    n = 40
    m = np.where(rng.random((n, n)) < 0.08, rng.normal(size=(n, n)), 0.0)
    spd = m @ m.T + np.eye(n)
    rhs = rng.normal(size=n)
    delta, fill = _solve_step(csc_matrix(spd), rhs)
    ref = np.linalg.solve(spd, rhs)
    assert np.max(np.abs(delta - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert fill >= np.count_nonzero(spd)
    # PSD with the null direction (1, -1, 0), as an unanchored gauge gives
    psd = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    assert _solve_step(csc_matrix(psd), np.ones(3)) == (None, None)


def test_damped_step_fill_stays_near_the_hessian():
    # In pure BA the points' blocks are uncoupled, so an elimination order
    # that takes the points first fills at most the dense pose block. SuperLU
    # stores the diagonal in both L and U.
    graph = noisy_ba_graph()
    system = _System(graph)
    _, H = system.assemble(system.flat({vid: v.mean for vid, v in graph.variables.items()}))
    dim = system.layout.dim
    P = system.pose_cols.size
    assert (dim, H.nnz, P) == (174, 7794, 24)
    assert lm_solve(graph).fill <= H.nnz + P**2 + dim


def call_sites(names):
    """(module, innermost enclosing function or None, dotted callee) of every
    call in `planegbp` whose callee's last name is in `names`, in file order.
    No such name is imported under another name."""

    def dotted(f):
        parts = []
        while isinstance(f, ast.Attribute):
            parts.append(f.attr)
            f = f.value
        return ".".join([getattr(f, "id", "?")] + parts[::-1])

    def calls(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in names:
                    yield where, dotted(f)
            yield from calls(child, inner)

    sites = []
    for path in sorted(Path(planegbp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites += [(path.stem, where, callee) for where, callee in calls(tree, None)]
        assert not any(a.name in names and a.asname for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for a in node.names)
    return sites


def test_sparse_lu_is_called_only_by_the_step_solve():
    # One factorisation site: every LM solve goes through _solve_step's
    # symmetric-mode LU, and no general-LU path sits beside it.
    sites = call_sites({"splu", "spilu", "spsolve", "factorized"})
    assert [(module, where) for module, where, _ in sites] == [("reference", "_solve_step")]


def test_small_blocks_are_solved_only_in_gaussians():
    # One small-block elimination: every dense solve or inverse of the
    # program is in `gaussians`, apart from the dense oracle's one inverse of
    # the joint precision. LM's prior means go through `solve_blocks` too.
    sites = call_sites({"solve", "inv"})
    dense = [(module, where, callee) for module, where, callee in sites
             if callee.split(".")[-2:-1] == ["linalg"]]
    assert [site for site in dense if site[0] != "gaussians"] == [
        ("reference", "dense_marginals", "np.linalg.inv")]
    # nothing reaches numpy.linalg except through `np.linalg`
    for path in Path(planegbp.__file__).parent.glob("*.py"):
        assert "numpy.linalg" not in path.read_text()


def test_only_the_compile_groups_factors():
    # One compile: the engine, LM and the dense oracle all index the stacks
    # and banks of `factors.compile_graph`, and nothing else groups factors.
    assert call_sites({"group_factors"}) == [("factors", "compile_graph", "group_factors")]


def test_lm_system_indexes_the_engines_compile(rng):
    # On a graph with every kind, each of LM's stacks has the key and bank
    # rows of the engine's batch for that key, and gathers the same means;
    # both measure the pixel error by the same pass, bit for bit.
    from test_factors import every_kind_graph

    g = every_kind_graph(rng)
    system = _System(g)
    eng = GbpEngine(g, GbpConfig())
    x = system.flat(eng.means())
    assert [s.key for s in system.stacks] == [b.key for b in eng.batches]
    for stack, cols, b in zip(system.stacks, system.cols, eng.batches):
        assert len(stack.rows) == len(b.rows) == b.arity
        for mine, theirs in zip(stack.rows, b.rows):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(x[cols], eng._gather_x(b))
    assert {b.kind for b in eng.batches} == set(FACTOR_KINDS)
    px = avg_reprojection_px(system, x)
    assert np.isfinite(px) and px.hex() == eng._metrics()[1].hex()
    assert np.array_equal(x[system.pose_cols], eng.banks[6].mean)


def test_lm_with_unconstrained_variable_terminates(rng):
    from conftest import build_linear_graph, random_tree_edges

    g = build_linear_graph(rng, 5, random_tree_edges(rng, 5))
    oracle = dense_marginals(g)
    free = g.add_variable(POINT, np.array([1.0, 2.0, 3.0]))
    result = lm_solve(g)
    assert result.converged or result.hit_lambda_max
    assert np.array_equal(result.means[free], [1.0, 2.0, 3.0])
    for vid in oracle:
        assert np.allclose(result.means[vid], oracle[vid].mean, atol=1e-10)


def test_lm_without_factors_or_priors_converges():
    g = FactorGraph()
    v = g.add_variable(POINT, np.array([1.0, 2.0, 3.0]))
    result = lm_solve(g)
    assert result.converged and not result.hit_lambda_max
    assert np.array_equal(result.means[v], [1.0, 2.0, 3.0])


# -- structure: what a direct solver pays and GBP does not --------------------

def kf_point_graph(rng, n_kf=4, n_pts=30, plane_members=0):
    """Every keyframe observes every point. With `plane_members`, plane-point
    factors tie that many points to one plane hypothesis, which a
    plane-prediction factor ties to the first keyframe. Means are perturbed,
    and the first keyframe has a prior."""
    g = FactorGraph(camera=CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                                       width=640, height=480))
    kfs = [g.add_variable(KEYFRAME, np.zeros(6)) for _ in range(n_kf)]
    pts = [g.add_variable(POINT, np.array([0, 0, 3.0])) for _ in range(n_pts)]
    z = np.array([1.0, 1.0])
    for kf in kfs:
        for p in pts:
            g.add_factor(REPROJECTION, (kf, p), z, 2.0)
    if plane_members:
        plane = g.add_variable(PLANE_HYPOTHESIS, np.array([0, 0, 1.0]))
        for p in pts[:plane_members]:
            g.add_factor(PLANE_POINT, (plane, p), 0.0, 0.05)
        g.add_factor(PLANE_PREDICTION, (plane, kfs[0]), np.array([0, 0, 1.0]), 20.0)
    for node in g.variables.values():
        node.mean = node.mean + rng.normal(scale=0.05, size=node.mean.shape)
    kf = g.variables[kfs[0]]
    kf.prior = GaussianInfo(np.eye(6) @ kf.mean, np.eye(6))
    return g


def landmark_coupling(graph) -> np.ndarray:
    """Entries of the joint precision, at the graph's means, that couple two
    distinct non-keyframe variables. Unweighted: this is the structure, and
    Tukey's weight would zero the far-off plane rows."""
    system = _System(graph)
    _, H = system.assemble(system.flat({vid: v.mean for vid, v in graph.variables.items()}),
                           "none")
    lam, layout = H.toarray(), system.layout
    owner = np.empty(layout.dim, dtype=int)
    for vid, off, width in layout.blocks:
        owner[off:off + width] = vid
    landmark = np.array([graph.variables[vid].kind != KEYFRAME for vid in owner])
    return lam[landmark[:, None] & landmark[None, :] & (owner[:, None] != owner[None, :])]


def test_pure_ba_landmarks_are_uncoupled():
    coupling = landmark_coupling(noisy_ba_graph())
    assert coupling.size > 0
    assert np.all(coupling == 0)


def test_heterogeneous_factors_erode_zero_blocks(rng):
    assert np.all(landmark_coupling(kf_point_graph(rng)) == 0)
    assert np.any(landmark_coupling(planar_graph(rng)) != 0)


def test_gbp_sweep_cost_is_structure_agnostic_direct_fill_is_not(rng):
    # 140 factors each: 5 keyframes x 28 points, against 4 keyframes x 30
    # points with 19 of them on one plane that the first keyframe predicts.
    graphs = {"points": kf_point_graph(rng, n_kf=5, n_pts=28),
              "planar": kf_point_graph(rng, n_kf=4, n_pts=30, plane_members=19)}
    hops, fill = {}, {}
    for name, g in graphs.items():
        entries = sum(len(f.adjacency) for f in g.factors.values() if f.kind in ROUTED)
        assert (len(g.factors), entries) == (140, 280)
        sim = RoutingSimulator(GENEROUS_POOLS)
        GbpEngine(g, GbpConfig(), transport=RoutedTransport(sim)).iterate()
        (sweep,) = sim.cost_report()
        assert sweep["hops"] == 4 * entries
        hops[name] = sweep["hops"]
        fill[name] = lm_solve(g).fill
    assert hops["points"] == hops["planar"]
    assert all(isinstance(f, int) and f > 0 for f in fill.values())
    assert fill["points"] != fill["planar"]
