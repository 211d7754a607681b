import numpy as np
import pytest

from planegbp.gaussians import REG_LAMBDA_REL, GaussianInfo
from planegbp.graph import KEYFRAME, LINEAR, POINT, FactorGraph


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_spd(rng, dim, strength=1.0):
    A = rng.normal(size=(dim, dim))
    return A @ A.T + strength * np.eye(dim)


def random_info(rng, dim, strength=1.0) -> GaussianInfo:
    return GaussianInfo(rng.normal(size=dim), random_spd(rng, dim, strength))


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


def solve_guarded_loop(S, rhs):
    """Per-block reference for `gaussians.solve_guarded`."""
    n, d = S.shape[0], S.shape[1]
    sol = np.empty_like(rhs)
    regularised = 0
    for i in range(n):
        try:
            x = np.linalg.solve(S[i], rhs[i])
            if not np.all(np.isfinite(x)):
                raise np.linalg.LinAlgError
            sol[i] = x
        except np.linalg.LinAlgError:
            tr = np.trace(S[i])
            reg = REG_LAMBDA_REL * (tr / d if tr > 0 else 1.0)
            sol[i] = np.linalg.solve(S[i] + reg * np.eye(d), rhs[i])
            regularised += 1
    return sol, regularised


def reference_messages(b):
    """A batch's new factor->variable messages for every factor and position.

    The Schur step of the engine's sweep, computed for all factors whether
    they send or not, with the per-block solve of `solve_guarded_loop`.
    """
    if b.arity == 1:
        return [(b.eta.copy(), b.lam.copy())]
    d0, d1 = b.dims
    out = []
    for target in (0, 1):
        other = 1 - target
        st, so = (slice(0, d0), slice(d0, d0 + d1)) if target == 0 else (
            slice(d0, d0 + d1), slice(0, d0))
        Ltt = b.lam[:, st, st]
        Lto = b.lam[:, st, so]
        Loo = b.lam[:, so, so] + b.v2f_lam[other]
        eta_t = b.eta[:, st]
        eta_o = b.eta[:, so] + b.v2f_eta[other]
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
    solved per variable where the batched solve fails.
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
            try:
                mean = np.linalg.solve(bank.belief_lam[i], bank.belief_eta[i])
                if np.all(np.isfinite(mean)):
                    bank.mean[i] = mean
            except np.linalg.LinAlgError:
                pass  # under-constrained: hold previous mean
    for b in eng.batches:
        for pos, rows in enumerate(b.rows):
            b.v2f_eta[pos] = b.banks[pos].belief_eta[rows] - b.f2v_eta[pos]
            b.v2f_lam[pos] = b.banks[pos].belief_lam[rows] - b.f2v_lam[pos]
    eng.iteration += 1
