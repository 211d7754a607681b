import copy

import numpy as np
import pytest

from planegbp.engine import GbpConfig, GbpEngine
from planegbp.factors import compile_graph, linearise_batch, residual_rows, residual_sums
from planegbp.gaussians import REG_LAMBDA_REL, GaussianInfo
from planegbp.geometry import pose_rotations_batch, project_cam_batch
from planegbp.graph import KEYFRAME, LINEAR, POINT, PRIOR, VARIABLE_DIMS, FactorGraph
from planegbp.routing import ROUTED, PoolConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_spd(rng, dim, strength=1.0):
    A = rng.normal(size=(dim, dim))
    return A @ A.T + strength * np.eye(dim)


def random_info(rng, dim, strength=1.0) -> GaussianInfo:
    return GaussianInfo(rng.normal(size=dim), random_spd(rng, dim, strength))


def pixel(cam, pose, p):
    """Pixel of the world point `p` seen from `pose`, by the kernels' projection."""
    pix, valid = project_cam_batch(cam, (pose.R @ np.asarray(p, dtype=float) + pose.t)[None])
    assert valid[0], "point behind the camera"
    return pix[0]


def own_poses(stack, X, want_jac=True, rows=None):
    """(posed stack, X, rot) that pose each row of X, the stack's factors
    `rows` (all when None), by its own pose slots: one rotation per row and
    slot, none shared between rows. `posed` is a shallow copy of the stack
    whose pose slots' `rows` name those rotations. The per-row reference of
    the solvers, which rotate each pose of the bank once."""
    n, slots = X.shape[0], stack.spec.pose_slots
    poses = [X[:, stack.offsets[pos]:][:, :stack.dims[pos]] for pos in slots]
    rot = pose_rotations_batch(np.concatenate([np.zeros((0, 6))] + poses), want_jac)
    posed = copy.copy(stack)
    posed.rows = list(stack.rows)
    for k, pos in enumerate(slots):
        posed.rows[pos] = np.zeros(stack.n, dtype=int)
        posed.rows[pos][slice(None) if rows is None else rows] = np.arange(n) + k * n
    return posed, X, rot


def one_factor(g, fac, means, want_jac=True):
    """(stack, X, rot) of `fac` alone in a stack, at `means`, posed by its own
    slots: the arguments of `linearise_batch` and `residual_rows`."""
    stack = compile_graph(g, [fac])[1][0]
    X = np.concatenate([np.asarray(means[v], dtype=float) for v in fac.adjacency])[None]
    return own_poses(stack, X, want_jac)


def linearise_one(g, fac, means) -> GaussianInfo:
    eta, lam, _ = linearise_batch(*one_factor(g, fac, means))
    return GaussianInfo(eta[0], lam[0])


def energy_one(g, fac, means) -> float:
    posed, X, rot = one_factor(g, fac, means, want_jac=False)
    return residual_sums(posed, *residual_rows(posed, X, rot))[0]


# Routing pools for every variable and routed factor kind, larger than any test graph.
GENEROUS_POOLS = PoolConfig(dict.fromkeys(VARIABLE_DIMS, 1024), dict.fromkeys(ROUTED, 1024), 256)


def build_linear_graph(rng, n_vars, edges, prior_lam=0.5, noise=0.7):
    """Linear-Gaussian graph over mixed 3/6-dim variables with given edges."""
    g = FactorGraph()
    dims = []
    for i in range(n_vars):
        kind = KEYFRAME if rng.random() < 0.5 else POINT
        d = 6 if kind == KEYFRAME else 3
        dims.append(d)
        mean = rng.normal(size=d)
        lam = np.eye(d) * prior_lam
        g.add_variable(kind, mean, GaussianInfo(lam @ mean, lam))
    for i, j in edges:
        m = dims[i] + dims[j]
        A = rng.normal(size=(m, m))
        z = rng.normal(size=m)
        g.add_factor(LINEAR, (i, j), z, np.full(m, noise), payload={"A": A})
    return g


def random_tree_edges(rng, n_vars):
    return [(int(rng.integers(0, i)), i) for i in range(1, n_vars)]


def bipartite_diameter(graph) -> int:
    """Diameter of the variable/factor incidence graph, in edges."""
    from collections import deque

    adjacency = {("v", vid): [] for vid in graph.variables}
    for fid, f in graph.factors.items():
        adjacency[("f", fid)] = [("v", v) for v in f.adjacency]
        for v in f.adjacency:
            adjacency[("v", v)].append(("f", fid))

    def bfs(src):
        dist = {src: 0}
        q = deque([src])
        far, far_d = src, 0
        while q:
            u = q.popleft()
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    if dist[w] > far_d:
                        far, far_d = w, dist[w]
                    q.append(w)
        return far, far_d

    start = next(iter(adjacency))
    far, _ = bfs(start)
    _, diameter = bfs(far)
    return diameter


def graph_signature(g):
    """Comparable structure of a graph: every node's kind, data and adjacency."""
    def arr(x):
        return None if x is None else np.asarray(x).tobytes()

    variables = {vid: (v.kind, arr(v.mean), arr(v.prior.eta), arr(v.prior.lam),
                       tuple(v.factor_ids)) for vid, v in g.variables.items()}
    factors = {}
    for fid, f in g.factors.items():
        payload = sorted((k, repr(v) if k == "constituents" else arr(v))
                         for k, v in f.payload.items())
        factors[fid] = (f.kind, f.adjacency, arr(f.measurement), arr(f.sigma), payload)
    return variables, factors


def fd_jacobian(fun, x0, eps=1e-6):
    """Central finite differences of fun: R^n -> R^m at x0."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(fun(x0))
    J = np.zeros((f0.shape[0], x0.shape[0]))
    for i in range(x0.shape[0]):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += eps
        xm[i] -= eps
        J[:, i] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * eps)
    return J


def solve_block_loop(S, r):
    """(x, positive definite) of S x = r for one symmetric (d, d) block and
    (d, k) or (d,) right-hand side, in scalar Python.

    Reference for `gaussians.solve_blocks`: an unpivoted LDL^T of the lower
    triangle, stopped at the first pivot that is not positive, then forward
    substitution, division by the pivots and back substitution, each entry
    updated in the same order as the batched solve. A block that is not
    positive definite is solved by pivoted LU; NaN if exactly singular.
    """
    d = S.shape[0]
    L = [[0.0] * d for _ in range(d)]
    D = [0.0] * d
    for j in range(d):
        for i in range(j, d):
            acc = float(S[i, j])
            for k in range(j):
                acc = acc - L[i][k] * (L[j][k] * D[k])
            if i == j:
                if not acc > 0.0:
                    try:
                        return np.linalg.solve(S, r), False
                    except np.linalg.LinAlgError:
                        return np.full_like(r, np.nan, dtype=float), False
                D[j] = acc
            else:
                L[i][j] = acc / D[j]
    y = np.array(r, dtype=float).reshape(d, -1).tolist()
    for k in range(d - 1):
        for i in range(k + 1, d):
            y[i] = [a - L[i][k] * b for a, b in zip(y[i], y[k])]
    y = [[a / D[i] for a in y[i]] for i in range(d)]
    for k in range(d - 1, 0, -1):
        for i in range(k):
            y[i] = [a - L[k][i] * b for a, b in zip(y[i], y[k])]
    return np.array(y).reshape(np.shape(r)), True


def solve_guarded_loop(S, rhs):
    """Per-block reference for `gaussians.solve_guarded`."""
    n, d = S.shape[0], S.shape[1]
    sol = np.empty_like(rhs)
    regularised = 0
    for i in range(n):
        sol[i], _ = solve_block_loop(S[i], rhs[i])
        if not np.all(np.isfinite(sol[i])):
            tr = np.trace(S[i])
            reg = REG_LAMBDA_REL * (tr / d if tr > 0 else 1.0)
            sol[i] = np.linalg.solve(S[i] + reg * np.eye(d), rhs[i])
            regularised += 1
    return sol, regularised


def reference_v2f(b, pos):
    """(eta, lam) of every factor's variable->factor message at `pos`: zero
    before the factor's first sweep, else its variable's belief minus the
    factor's own message to it."""
    rows, bank = b.rows[pos], b.banks[pos]
    eta = np.where(b.fresh[:, None], 0.0, bank.belief_eta[rows] - b.f2v_eta[pos])
    lam = np.where(b.fresh[:, None, None], 0.0, bank.belief_lam[rows] - b.f2v_lam[pos])
    return eta, lam


def engine_quotient(belief_eta, belief_lam, var_of, f2v_eta, f2v_lam):
    """(eta, lam) of the engine's variable->factor messages (`_Batch.v2f`) of
    one prior factor per entry of `var_of`, on that point, with the points'
    beliefs and the factors' own messages set to the given stacks."""
    g = FactorGraph()
    pts = [g.add_variable(POINT, np.zeros(3)) for _ in range(len(belief_eta))]
    for v in var_of:
        g.add_factor(PRIOR, (pts[v],), np.zeros(3), 1.0)
    eng = GbpEngine(g, GbpConfig())
    (b,) = eng.batches
    eng.banks[3].belief_eta = np.asarray(belief_eta, dtype=float)
    eng.banks[3].belief_lam = np.asarray(belief_lam, dtype=float)
    b.f2v_eta[0][:] = f2v_eta
    b.f2v_lam[0][:] = f2v_lam
    b.fresh[:] = False
    return b.v2f(0)


def reference_messages(b):
    """A batch's new factor->variable messages for every factor and position.

    The Schur step of the engine's sweep, computed for all factors whether
    they send or not, with the per-block solve of `solve_guarded_loop` and
    the incoming messages of `reference_v2f`.
    """
    if b.arity == 1:
        return [(b.eta.copy(), b.lam.copy())]
    d0, d1 = b.dims
    out = []
    for target in (0, 1):
        other = 1 - target
        st, so = (slice(0, d0), slice(d0, d0 + d1)) if target == 0 else (
            slice(d0, d0 + d1), slice(0, d0))
        in_eta, in_lam = reference_v2f(b, other)
        Ltt = b.lam[:, st, st]
        Lto = b.lam[:, st, so]
        Loo = b.lam[:, so, so] + in_lam
        eta_t = b.eta[:, st]
        eta_o = b.eta[:, so] + in_eta
        zero = b.weight == 0.0
        rhs = np.concatenate([eta_o[:, :, None], np.transpose(Lto, (0, 2, 1))], axis=2)
        if np.all(zero):
            out.append((np.zeros_like(eta_t), np.zeros_like(Ltt)))
            continue
        X, _ = solve_guarded_loop(Loo, rhs)
        msg_eta = eta_t - (Lto @ X[:, :, :1])[:, :, 0]
        msg_lam = Ltt - Lto @ X[:, :, 1:]
        msg_lam = 0.5 * (msg_lam + np.transpose(msg_lam, (0, 2, 1)))
        msg_eta[zero] = 0.0
        msg_lam[zero] = 0.0
        out.append((msg_eta, msg_lam))
    return out


def dropout_masks(eng):
    """Per batch and position, the factors the engine's next sweep drops."""
    cfg = eng.config
    rng = np.random.default_rng([cfg.seed, eng.iteration])
    return [[rng.uniform(size=b.n) < cfg.dropout for _ in range(b.arity)]
            for b in eng.batches]


def reference_sweep(eng):
    """One GBP sweep on `eng`'s state, every message computed and then masked.

    The factors that send to some position are relinearised, new messages
    are computed for every factor, dropout is applied by keeping the previous
    message with `np.where`, beliefs accumulated with `np.add.at`, means
    solved per variable by `solve_block_loop`. Afterwards no factor is
    fresh.
    """
    cfg = eng.config
    masks = dropout_masks(eng)
    rot = eng._rotations(want_jac=True)
    for b, dropped in zip(eng.batches, masks):
        # a factor that sends to no position keeps its stale linearisation
        eng._relinearise(b, np.flatnonzero(~np.logical_and.reduce(dropped)), rot)
    if eng.transport is not None:
        eng.transport.begin_sweep()
    staged = [reference_messages(b) for b in eng.batches]
    d = cfg.damping
    for b, msgs, keep in zip(eng.batches, staged, masks):
        for pos, (new_eta, new_lam) in enumerate(msgs):
            mixed_eta = (1.0 - d) * new_eta + d * b.f2v_eta[pos]
            mixed_lam = (1.0 - d) * new_lam + d * b.f2v_lam[pos]
            b.f2v_eta[pos] = np.where(keep[pos][:, None], b.f2v_eta[pos], mixed_eta)
            b.f2v_lam[pos] = np.where(keep[pos][:, None, None], b.f2v_lam[pos], mixed_lam)
    for bank in eng.banks.values():
        bank.belief_eta = bank.prior_eta.copy()
        bank.belief_lam = bank.prior_lam.copy()
    for b in eng.batches:
        for pos, rows in enumerate(b.rows):
            np.add.at(b.banks[pos].belief_eta, rows, b.f2v_eta[pos])
            np.add.at(b.banks[pos].belief_lam, rows, b.f2v_lam[pos])
    for bank in eng.banks.values():
        for i in range(bank.ids.size):
            mean, _ = solve_block_loop(bank.belief_lam[i], bank.belief_eta[i])
            if np.all(np.isfinite(mean)):
                bank.mean[i] = mean  # else under-constrained: hold previous mean
    for b in eng.batches:
        b.fresh[:] = False
    eng.iteration += 1
