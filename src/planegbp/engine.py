"""Synchronous Gaussian belief propagation on the factor graph.

The engine compiles the (object-level) graph into stacked per-kind arrays so
that one sweep is a handful of batched numpy operations rather than a Python
loop over factors. Dropout is drawn first: a dropped factor does not send, so
the factor-to-variable Schur marginals and damping are vectorised over the
factors of a kind that send, and the others keep their previous message. A
factor's linearisation is read only when it sends, so only the factors that
send to at least one position are tested against beta and relinearised; a
factor that sends nowhere keeps its stale linearisation until it next sends.
Belief products are one compiled sparse scatter per variable bank.

The per-factor half of a sweep runs one block of `BLOCK` factors of a batch
at a time: the block's senders are relinearised, its messages to both
positions computed, and only then damped. Its temporaries therefore stay the
size of one block, whatever the factor count. Variable-to-factor messages are
not stored: `_Batch.v2f` forms them where they are read, as the variable's
belief over the factor's own message to it. Beliefs change only after every
block has sent, and a block reads its quotients before it damps, so each
quotient is the previous sweep's, as if formed at its end. A factor that no
sweep has reached yet is `fresh`: its first messages see zero incoming.

A sweep rotates each pose once, not once per factor row: the rotations of
the pose bank's means (with their right Jacobians for relinearisation) are
computed once for the relinearisation and once for the metrics, and every
batch's pose slots take theirs at the batch's own `rows`, as the transport
left them (`factors.evaluate_rows`).
Messages are updated in place: damping writes into the batch's existing
message arrays, in the same floating-point operations and order as a fresh
computation.

`rebuild` compiles by `factors.compile_graph`, at construction and after each
edit. A variable's bank and a factor's batch never change, and both list
their ids in ascending order, so the rows that survive an edit are found
with one `searchsorted` per bank and per batch, and their beliefs,
linearisations and per-position messages are copied with one fancy index
per array. The engine is the only holder of propagation state; `sync_graph`
writes beliefs and means back to the variable nodes.

Each batch's `rows` give, per adjacency position, the bank row of each
factor's variable: the only delivery map of gather, belief scatter and
variable-to-factor messages. An optional transport (the routing simulator's)
rewrites them when the engine compiles: it first applies the graph journal's
new events to its own slot tables, then resolves the rows through its routing
matrices. It also records each sweep's transport cost. Without a transport,
rows follow graph adjacency. A variable whose belief is singular, or whose
mean solve is not finite, keeps its previous mean; the report counts them.

Both small-block solves of a sweep, the Schur step's eliminated blocks and
the belief means, go through `gaussians.solve_blocks`: each block is
factorised as symmetric positive definite by a batched LDL^T, and a block
with a pivot that is not positive is solved by LU instead. Those pivots also
count the beliefs that are not positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ContractViolation
from .gaussians import GaussianInfo, solve_blocks, solve_guarded
from . import factors as _fm
from .geometry import pose_rotations_batch
from .graph import KEYFRAME, VARIABLE_DIMS, FactorGraph

# Factors per block of a sweep's per-factor half. On ba_static's 15k
# reprojections, 1024 and 2048 swept 16% and 4-8% slower in per-block calls,
# while 8192 added 3 MB of peak RSS and ~300 page faults per sweep.
BLOCK = 4096


@dataclass
class GbpConfig:
    damping: float = 0.4
    dropout: float = 0.7
    beta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.damping < 1.0):
            raise ContractViolation("damping must be in [0, 1)")
        if not (0.0 <= self.dropout < 1.0):
            raise ContractViolation("dropout must be in [0, 1)")
        if self.beta <= 0:
            raise ContractViolation("beta must be positive")


@dataclass
class IterationReport:
    """One sweep's outcome and counters.

    `marginalisation_calls` counts one Schur marginal per pairwise factor and
    position, sent or dropped: the structure-agnostic schedule that routed
    hop counts are checked against. `n_regularised` counts the eliminated
    blocks solved with a Tikhonov term, among the messages actually sent.
    `n_relinearised` counts the factors linearised again this sweep: those
    that send to at least one position and were never linearised or whose
    variables drifted more than beta from their linearisation point.
    `n_held_means` counts the variables that kept their previous mean
    because their belief is singular or its mean solve is not finite.
    `n_non_pd_beliefs` counts the variables whose belief precision is not
    positive definite: its LDL^T has a pivot that is not positive. A
    singular belief counts, and so does an indefinite one whose mean LU
    solves and which is not held.

    Each field is one column of iterations.csv, in this order.
    """

    iteration: int
    avg_reproj_px: float
    total_energy: float
    n_relinearised: int
    n_dropped: int
    n_factors: int
    n_variables: int
    marginalisation_calls: int = 0
    n_regularised: int = 0
    n_held_means: int = 0
    n_non_pd_beliefs: int = 0


class _VarBank(_fm.VariableBank):
    """A variable bank with its beliefs; they start as the priors."""

    STATE = ("belief_eta", "belief_lam", "mean")

    def __init__(self, dim: int, nodes: list):
        super().__init__(dim, nodes)
        self.belief_eta, self.belief_lam = self.prior_eta.copy(), self.prior_lam.copy()


def _carry(new, old, names):
    """Copy the arrays `names` (or lists of them, one per position) of the ids
    both compiled views hold from `old` to `new`; both list ids ascending."""
    new_rows, old_rows = _fm._find(np.asarray(old.ids, dtype=int), np.asarray(new.ids, dtype=int))
    for name in names:
        dst, src = getattr(new, name), getattr(old, name)
        for d, s in zip(dst, src) if isinstance(dst, list) else [(dst, src)]:
            d[new_rows] = s[old_rows]


class _Batch(_fm.FactorStack):
    """A factor stack with its engine state."""

    # per-factor arrays, then the messages: per-position lists of them
    STATE = ("x0", "eta", "lam", "weight", "lin_valid", "fresh", "f2v_eta", "f2v_lam")

    def __init__(self, key: tuple, nodes: list, banks: dict, camera):
        super().__init__(key, nodes, banks, camera)
        n, D = self.n, self.joint_dim
        # linearisation state
        self.x0 = np.zeros((n, D))
        self.eta = np.zeros((n, D))
        self.lam = np.zeros((n, D, D))
        self.weight = np.ones(n)
        self.lin_valid = np.zeros(n, dtype=bool)
        # no sweep has reached the factor yet: it sees zero incoming
        self.fresh = np.ones(n, dtype=bool)
        # factor->variable messages per position
        self.f2v_eta = [np.zeros((n, d)) for d in self.dims]
        self.f2v_lam = [np.zeros((n, d, d)) for d in self.dims]

    def v2f(self, pos: int, rows=slice(None)):
        """(eta, lam) of the variable->factor messages at position `pos` of
        the factors `rows` (all by default): the variable's belief over the
        factor's own message to it, zero while the factor is fresh."""
        bank, at = self.banks[pos], self.rows[pos][rows]
        eta = bank.belief_eta[at] - self.f2v_eta[pos][rows]
        lam = bank.belief_lam[at] - self.f2v_lam[pos][rows]
        fresh = self.fresh[rows]
        eta[fresh] = 0.0
        lam[fresh] = 0.0
        return eta, lam


class GbpEngine:
    def __init__(self, graph: FactorGraph, config: GbpConfig, transport=None):
        self.graph = graph
        self.config = config
        self.transport = transport
        self.iteration = 0
        self.banks: dict[int, _VarBank] = {}
        self.batches: list[_Batch] = []
        self.rebuild()

    # -- compilation ---------------------------------------------------------

    def rebuild(self):
        """Compile the graph (`factors.compile_graph`) into the engine's banks
        and batches, carrying the state of surviving nodes by id.

        New variables start from their prior and node mean, new factors with
        zero messages; exact (linear) factors are linearised once, when new.
        """
        graph = self.graph
        banks, batches = _fm.compile_graph(graph, bank=_VarBank, stack=_Batch)
        for d, old in self.banks.items():
            _carry(banks[d], old, _VarBank.STATE)
        old_batches = {b.key: b for b in self.batches}
        self.banks, self.batches = banks, batches
        for b in self.batches:
            if b.key in old_batches:
                _carry(b, old_batches[b.key], _Batch.STATE)
            if b.spec.linear:
                # exact factors: linearised once, about 0, when new
                rows = np.flatnonzero(~b.lin_valid)
                b.eta[rows], b.lam[rows], b.weight[rows] = _fm.linearise_batch(
                    b, np.zeros((rows.size, b.joint_dim)), None, rows
                )
                b.lin_valid[rows] = True
        self._attach()

    def on_graph_edit(self):
        """Recompile after graph edits, carrying engine state over by id."""
        self.rebuild()

    def _attach(self):
        """Attach the transport and compile each bank's belief scatter.

        Bank `dim`'s matrix sums its prior and every message to it: columns
        are the prior rows, then each (batch, position)'s messages in batch,
        position and factor order, the order in which they are added.
        """
        if self.transport is not None:
            self.transport.attach(self)
        self._scatter = {}
        for dim, bank in self.banks.items():
            edges = [(b, pos) for b in self.batches for pos in range(b.arity)
                     if b.banks[pos] is bank]
            n = bank.ids.size
            targets = np.concatenate([np.arange(n)] + [b.rows[pos] for b, pos in edges])
            indptr = np.concatenate([[0], np.cumsum(np.bincount(targets, minlength=n))])
            scatter = csr_matrix(
                (np.ones(targets.size), np.argsort(targets, kind="stable"), indptr),
                shape=(n, targets.size),
            )
            self._scatter[dim] = (scatter, edges)

    # -- accessors -----------------------------------------------------------

    def means(self) -> dict:
        out = {}
        for bank in self.banks.values():
            for i, vid in enumerate(bank.ids.tolist()):
                out[vid] = bank.mean[i].copy()
        return out

    def sync_graph(self):
        """Write beliefs and means back to the variable nodes, as rows of one
        copy per bank (the beliefs by `GaussianInfo.rows`)."""
        variables = self.graph.variables
        for bank in self.banks.values():
            beliefs = GaussianInfo.rows(bank.belief_eta, bank.belief_lam)
            for vid, belief, mean in zip(bank.ids.tolist(), beliefs, bank.mean.copy()):
                node = variables[vid]
                node.belief = belief
                node.mean = mean

    # -- evaluation ----------------------------------------------------------

    def _gather_x(self, b: _Batch, rows=slice(None)) -> np.ndarray:
        """Stacked adjacency means of the batch's factors `rows` (all by default)."""
        return np.concatenate(
            [bank.mean[r[rows]] for bank, r in zip(b.banks, b.rows)], axis=1
        )

    def _rotations(self, want_jac: bool):
        """Rotations (and right Jacobians) of the pose bank's means, computed
        once per sweep phase; a batch's pose slots take theirs at their
        `rows`. Keyframes and rigid bodies share the 6-dim bank."""
        return pose_rotations_batch(self.banks[VARIABLE_DIMS[KEYFRAME]].mean, want_jac)

    def _relinearise(self, b: _Batch, rows: np.ndarray, rot) -> int:
        """Relinearise the factors `rows` of the batch that were never
        linearised or whose variables drifted more than beta (L1) from their
        linearisation point; returns how many were. `rot` is `_rotations`
        with Jacobians at the current means."""
        if b.spec.linear:
            return 0
        X = self._gather_x(b, rows)
        drift = np.sum(np.abs(X - b.x0[rows]), axis=1)
        need = (~b.lin_valid[rows]) | (drift > self.config.beta)
        rows, Xr = rows[need], X[need]
        if rows.size == 0:
            return 0
        b.eta[rows], b.lam[rows], b.weight[rows] = _fm.linearise_batch(b, Xr, rot, rows)
        b.x0[rows] = Xr
        b.lin_valid[rows] = True
        return int(rows.size)

    # -- messages ------------------------------------------------------------

    def _send(self, b: _Batch, sends, rot) -> tuple[int, int]:
        """Relinearise the batch's senders, compute their new messages and
        damp them in, one block of BLOCK factors at a time; `sends` holds
        each position's send mask. Returns (factors relinearised, regularised
        solves).

        A block's messages to both positions are computed before either is
        damped: each reads the other position's quotient, which reads that
        position's message. A position whose sent factors all weigh 0 counts
        no regularised solve.
        """
        n_relin = 0
        regularised = [0] * b.arity
        for start in range(0, b.n, BLOCK):
            masks = [s[start:start + BLOCK] for s in sends]
            n_relin += self._relinearise(
                b, start + np.flatnonzero(reduce(np.logical_or, masks)), rot)
            rows = [start + np.flatnonzero(m) for m in masks]
            if b.arity == 1:
                msgs = [(b.eta[rows[0]], b.lam[rows[0]], 0)]
            else:
                msgs = [_schur(b, target, r) for target, r in enumerate(rows)]
            for pos, (r, (new_eta, new_lam, n_reg)) in enumerate(zip(rows, msgs)):
                regularised[pos] += n_reg
                _damp(b.f2v_eta[pos], r, new_eta, self.config.damping)
                _damp(b.f2v_lam[pos], r, new_lam, self.config.damping)
        n_regularised = sum(n for s, n in zip(sends, regularised) if np.any(b.weight[s] != 0.0))
        return n_relin, n_regularised

    def iterate(self) -> IterationReport:
        cfg = self.config

        # Dropout first: a dropped factor does not send, so only the factors
        # that send are relinearised, and only the rows that are sent are
        # marginalised, damped and written.
        rng = np.random.default_rng([cfg.seed, self.iteration])
        sends = [[rng.uniform(size=b.n) >= cfg.dropout for _ in range(b.arity)]
                 for b in self.batches]
        n_dropped = sum(b.n - int(np.count_nonzero(s))
                        for b, masks in zip(self.batches, sends) for s in masks)
        rot = self._rotations(want_jac=True)
        if self.transport is not None:
            self.transport.begin_sweep()
        n_relin = n_regularised = 0
        for b, masks in zip(self.batches, sends):
            relin, regularised = self._send(b, masks, rot)
            n_relin += relin
            n_regularised += regularised

        # beliefs: prior times product of incoming messages
        for dim, bank in self.banks.items():
            scatter, edges = self._scatter[dim]
            eta = [bank.prior_eta] + [b.f2v_eta[pos] for b, pos in edges]
            lam = [bank.prior_lam] + [b.f2v_lam[pos] for b, pos in edges]
            bank.belief_eta = scatter @ np.concatenate(eta)
            bank.belief_lam = (
                scatter @ np.concatenate(lam).reshape(-1, dim * dim)
            ).reshape(-1, dim, dim)
        n_held = n_non_pd = 0
        for bank in self.banks.values():
            mean, pd = solve_blocks(bank.belief_lam, bank.belief_eta[:, :, None])
            mean = mean[:, :, 0]
            # singular or non-finite (under-constrained): hold the previous mean
            bad = ~np.all(np.isfinite(mean), axis=1)
            mean[bad] = bank.mean[bad]
            bank.mean = mean
            n_held += int(np.count_nonzero(bad))
            n_non_pd += int(np.count_nonzero(~pd))
        for b in self.batches:
            b.fresh[:] = False

        energy, avg_px = self._metrics()
        report = IterationReport(
            iteration=self.iteration,
            avg_reproj_px=avg_px,
            total_energy=energy,
            n_relinearised=n_relin,
            n_dropped=n_dropped,
            n_factors=len(self.graph.factors),
            n_variables=len(self.graph.variables),
            # one Schur marginal per pairwise factor and position
            marginalisation_calls=sum(2 * b.n for b in self.batches if b.arity == 2),
            n_regularised=n_regularised,
            n_held_means=n_held,
            n_non_pd_beliefs=n_non_pd,
        )
        self.iteration += 1
        return report

    def _metrics(self):
        """`factors.residual_totals` at the banks' means."""
        return _fm.residual_totals(self.batches, map(self._gather_x, self.batches),
                                   self._rotations(want_jac=False))


def _schur(b: _Batch, target: int, rows):
    """(eta, lam, regularised solves) of the new messages of the pairwise
    factors `rows` of the batch to position `target`: the factor times the
    other variable's message to it, marginalised onto `target`. A factor
    that weighs 0 sends a zero message."""
    d0, d1 = b.dims
    st, so = (slice(0, d0), slice(d0, d0 + d1)) if target == 0 else (
        slice(d0, d0 + d1), slice(0, d0))
    in_eta, in_lam = b.v2f(1 - target, rows)
    lam, eta = b.lam[rows], b.eta[rows]
    Ltt = lam[:, st, st]
    Lto = lam[:, st, so]
    Loo = lam[:, so, so] + in_lam
    eta_t = eta[:, st]
    eta_o = eta[:, so] + in_eta
    rhs = np.concatenate([eta_o[:, :, None], np.transpose(Lto, (0, 2, 1))], axis=2)
    X, regularised = solve_guarded(Loo, rhs)
    msg_eta = eta_t - (Lto @ X[:, :, :1])[:, :, 0]
    msg_lam = Ltt - Lto @ X[:, :, 1:]
    msg_lam = 0.5 * (msg_lam + np.transpose(msg_lam, (0, 2, 1)))
    zero = b.weight[rows] == 0.0
    msg_eta[zero] = 0.0
    msg_lam[zero] = 0.0
    return msg_eta, msg_lam, regularised


def _damp(msg, rows, new, d):
    """msg[rows] = (1 - d) new + d msg[rows], using `new` as scratch."""
    old = msg[rows]
    old *= d
    new *= 1.0 - d
    new += old
    msg[rows] = new
