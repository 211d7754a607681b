"""Editable heterogeneous factor graph: the master scene representation.

Variables and factors are typed nodes; every structural edit appends a
record to a journal from which the graph can be replayed exactly. A factor
never changes after insertion (an edit removes it and adds a new one), so
the journal records an inserted factor by its `FactorNode`. Edits are meant
to happen between propagation sweeps (single writer); the engine keeps its
own compiled view, which holds all propagation state, and recompiles it
after edits.

A confirmed plane lives here alone. Compressing it into a rigid body moves
its plane predictions onto the body with the converged plane (`pi_conv`)
baked in, and writes one combined rigid reprojection per keyframe whose
constituents are that keyframe's views of the absorbed points, each with
the point's converged position (`p_conv`). Merging two rigid bodies moves
their factors onto the new body. Both are journalled as the primitive events
they consist of, each applied once by replay and by the routing simulator.

Nodes enter in batches of one kind: `add_variables` and `add_factors` check
a batch as a whole, in plain Python, and insert all of it or, on any bad
row, nothing. A keyframe packet enters as such batches, the way an
incremental smoother takes one step's new factors at once. `add_variable` and
`add_factor` are their one-row calls. Non-finite means, priors, noise,
measurements and payloads are refused.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolation
from .gaussians import GaussianInfo
from .geometry import CameraModel

# Variable kinds and their state dimensions.
KEYFRAME = "keyframe"
POINT = "point"
PLANE_HYPOTHESIS = "plane_hypothesis"
RIGID_BODY = "rigid_body"

VARIABLE_DIMS = {KEYFRAME: 6, POINT: 3, PLANE_HYPOTHESIS: 3, RIGID_BODY: 6}
# Kinds whose state is a pose [t, w]; a kernel receives their slots with
# their rotations.
POSE_KINDS = (KEYFRAME, RIGID_BODY)

# Factor kinds; FACTOR_KINDS below describes each.
REPROJECTION = "reprojection"
PLANE_POINT = "plane_point"
PLANE_PREDICTION = "plane_prediction"
RIGID_PLANE_PREDICTION = "rigid_plane_prediction"
COMBINED_RIGID_REPROJECTION = "combined_rigid_reprojection"
PRIOR = "prior"
# Generic linear-Gaussian factor h(X) = A X over 1 or 2 variables; used by
# synthetic validation graphs (tree/loopy exactness) rather than the SLAM
# measurement models.
LINEAR = "linear"

# A signature slot that takes any variable kind.
ANY = None
# Measurement dimension equal to the joint dimension of the adjacency.
JOINT = "joint"


@dataclass(frozen=True)
class FactorKind:
    """Registry entry: what every layer needs to know about one factor kind.

    A new kind needs one entry in FACTOR_KINDS and one batched kernel in
    `planegbp.factors`; graph validation, the propagation engine, the dense
    oracle, Levenberg-Marquardt and serialisation all work from the entry.
    The kernel receives each pose slot (a POSE_KINDS slot of the signature)
    as `factors.PoseRows`, with its rotation already computed, and every
    other slot as its (n, dim) means.
    """

    # Variable kind per adjacency slot, in order (ANY takes every kind).
    signature: tuple
    # Measurement dimension of one kernel row: an int, JOINT, or None for
    # the measurement's own length.
    mdim: object
    # (key, shape) of each payload array, passed to the kernel in this order
    # after the measurement; "m" and JOINT in a shape stand for those dims.
    payload: tuple = ()
    # Name of the batched evaluator in planegbp.factors, looked up per call.
    kernel: str = ""
    # Fewest adjacent variables; 0 means exactly len(signature).
    min_arity: int = 0
    # Rows are pixel errors; they define the average reprojection error.
    pixel: bool = False
    # Exact linear-Gaussian: linearised once, about 0, with no robust loss.
    # Every other kind takes Tukey's weight (c = factors.TUKEY_C).
    linear: bool = False
    # Rows are the (z, *payload) constituents listed in the payload; the
    # factor is their product.
    constituents: bool = False

    @property
    def pose_slots(self) -> tuple:
        """Adjacency slots that hold a pose: the POSE_KINDS slots."""
        return tuple(i for i, kind in enumerate(self.signature) if kind in POSE_KINDS)


FACTOR_KINDS = {
    REPROJECTION: FactorKind((KEYFRAME, POINT), 2, kernel="eval_reprojection_batch",
                             pixel=True),
    PLANE_POINT: FactorKind((PLANE_HYPOTHESIS, POINT), 1,
                            kernel="eval_plane_point_batch"),
    PLANE_PREDICTION: FactorKind((PLANE_HYPOTHESIS, KEYFRAME), 3,
                                 kernel="eval_plane_prediction_batch"),
    RIGID_PLANE_PREDICTION: FactorKind((RIGID_BODY, KEYFRAME), 3, (("pi_conv", (3,)),),
                                       "eval_rigid_plane_prediction_batch"),
    COMBINED_RIGID_REPROJECTION: FactorKind(
        (KEYFRAME, RIGID_BODY), 2, (("p_conv", (3,)),),
        "eval_rigid_reprojection_batch", pixel=True, constituents=True,
    ),
    PRIOR: FactorKind((ANY,), JOINT, kernel="eval_prior_batch", linear=True),
    LINEAR: FactorKind((ANY, ANY), None, (("A", ("m", JOINT)),), "eval_linear_batch",
                       min_arity=1, linear=True),
}


@dataclass
class VariableNode:
    id: int
    kind: str
    belief: GaussianInfo
    prior: GaussianInfo
    mean: np.ndarray  # linearisation-relevant mean cache
    factor_ids: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return VARIABLE_DIMS[self.kind]


@dataclass
class FactorNode:
    """A factor; fixed once inserted, it is also its insertion's journal record."""

    id: int
    kind: str
    adjacency: tuple
    measurement: Optional[np.ndarray]
    sigma: np.ndarray  # per-residual-component noise std
    payload: dict = field(default_factory=dict)

    @property
    def arity(self) -> int:
        return len(self.adjacency)

    def constituents(self):
        """(z, p_conv) pairs for combined factors."""
        return self.payload.get("constituents", [])


# --- Edit journal (a factor's insertion is recorded by its FactorNode) ------

@dataclass(frozen=True)
class AddVariable:
    id: int
    kind: str
    mean: np.ndarray
    prior: GaussianInfo


@dataclass(frozen=True)
class RemoveVariable:
    id: int


@dataclass(frozen=True)
class RemoveFactor:
    id: int


def _finite(arr: np.ndarray) -> bool:
    return all(map(math.isfinite, arr.ravel().tolist()))


def _as_sigma(sigma, mdim: int) -> np.ndarray:
    """Per-component noise std of an mdim-row factor; a single value is
    repeated for every component."""
    if isinstance(sigma, float):
        vals, arr = [float(sigma)] * mdim, None
    else:
        arr = np.asarray(sigma, dtype=float).reshape(-1)
        vals = arr.tolist()
        if len(vals) == 1:
            vals, arr = vals * mdim, None
    if len(vals) != mdim:
        raise ContractViolation(f"sigma has {len(vals)} components, expected {mdim}")
    for s in vals:
        if s <= 0:
            raise ContractViolation("noise sigma must be positive")
        if not s < math.inf:
            raise ContractViolation(f"noise sigma must be finite, got {s}")
    return np.array(vals) if arr is None else arr


class FactorGraph:
    def __init__(self, camera: Optional[CameraModel] = None):
        self.camera = camera
        self.variables: dict[int, VariableNode] = {}
        self.factors: dict[int, FactorNode] = {}
        self.journal: list = []
        self._next_var_id = 0
        self._next_factor_id = 0

    # -- variables ----------------------------------------------------------

    def add_variable(
        self,
        kind: str,
        mean: np.ndarray,
        prior: Optional[GaussianInfo] = None,
        _fixed_id: Optional[int] = None,
    ) -> int:
        """Insert one variable: a one-row `add_variables`."""
        return self.add_variables(
            kind, np.asarray(mean, dtype=float).reshape(1, -1),
            None if prior is None else (prior,),
            None if _fixed_id is None else (_fixed_id,))[0]

    def add_variables(self, kind: str, means, priors=None, _fixed_ids=None):
        """Insert n variables of one kind; returns their ids, in order.

        `means` stacks to (n, dim); `priors` holds n GaussianInfo or None
        (no prior), or is None for none. The batch is checked as a whole and
        raises ContractViolation, before any change, for an unknown kind, a
        mean of the wrong dimension or not finite, a prior of the wrong
        dimension or not finite, and a live or repeated `_fixed_ids` entry.
        """
        if kind not in VARIABLE_DIMS:
            raise ContractViolation(f"unknown variable kind {kind!r}")
        dim = VARIABLE_DIMS[kind]
        means = np.array(means, dtype=float)  # a copy: the journal keeps its rows
        n = len(means)
        if not n:
            return []
        means = means.reshape(n, -1)
        if means.shape[1] != dim:
            raise ContractViolation(f"{kind} mean must have dim {dim}")
        if not _finite(means):
            raise ContractViolation(f"{kind} mean must be finite")
        if priors is None:
            priors = (None,) * n
        elif len(priors) != n:
            raise ContractViolation(f"{len(priors)} priors for {n} {kind} means")
        checked = []
        for prior in priors:
            if prior is None:
                prior = GaussianInfo.zero(dim)
            elif prior.dim != dim:
                raise ContractViolation("prior dimension does not match variable kind")
            elif not (_finite(prior.eta) and _finite(prior.lam)):
                raise ContractViolation(f"{kind} prior must be finite")
            checked.append(prior)
        if _fixed_ids is None:
            ids = range(self._next_var_id, self._next_var_id + n)
            self._next_var_id += n
        else:
            ids, self._next_var_id = self._fixed_ids(
                self.variables, self._next_var_id, n, _fixed_ids, "variable")

        node_means = means.copy()
        for i, (vid, prior) in enumerate(zip(ids, checked)):
            self.variables[vid] = VariableNode(vid, kind, prior, prior, node_means[i])
            self.journal.append(AddVariable(vid, kind, means[i], prior))
        return ids

    @staticmethod
    def _fixed_ids(live: dict, next_id: int, n: int, fixed, what: str) -> tuple:
        """(the n given ids, the next free id after them); each must be
        neither live nor repeated."""
        ids = list(map(int, fixed))
        if len(ids) != n:
            raise ContractViolation(f"{len(ids)} fixed ids for {n} {what}s")
        for i in ids:
            if i in live:
                raise ContractViolation(f"{what} id {i} already live")
            next_id = max(next_id, i) + 1
        if len(set(ids)) != n:
            raise ContractViolation(f"{what} ids repeat within the batch")
        return ids, next_id

    def remove_variable(self, variable_id: int) -> None:
        node = self._variable(variable_id)
        if node.factor_ids:
            raise ContractViolation(
                f"variable {variable_id} still has {len(node.factor_ids)} live factors"
            )
        del self.variables[variable_id]
        self.journal.append(RemoveVariable(variable_id))

    # -- factors ------------------------------------------------------------

    def add_factor(
        self,
        kind: str,
        adjacency,
        measurement,
        sigma,
        payload: Optional[dict] = None,
        _fixed_id: Optional[int] = None,
    ) -> int:
        """Insert one factor: a one-row `add_factors`. Replay, `read_graph`
        and the abstraction edits insert through here."""
        return self.add_factors(
            kind, (adjacency,), np.asarray(measurement, dtype=float).reshape(1, -1), sigma,
            None if payload is None else (payload,),
            None if _fixed_id is None else (_fixed_id,))[0]

    def add_factors(self, kind: str, adjacency, measurements, sigma, payloads=None,
                    _fixed_ids=None):
        """Insert n factors of one kind with one noise `sigma`; returns their
        ids, in order.

        Row i is `adjacency[i]`, `measurements[i]` (`measurements` stacks to
        (n, m); a kind whose rows are constituents ignores it) and
        `payloads[i]` (`payloads` None for none). The batch is checked as a
        whole and raises ContractViolation, before any change, for an
        unknown kind, a dead or wrongly typed adjacent variable, a wrong
        arity, a missing or misshapen constituent or payload, a measurement
        of the wrong dimension, a sigma with the wrong number of components
        or one that is not positive and finite, a non-finite measurement,
        constituent or payload entry, and a live or repeated `_fixed_ids`
        entry. The kind is looked up once, each distinct variable once, the
        stacked measurements are scanned at once and sigma is checked once.
        The checks are scalar Python over `tolist()`: on the few entries of
        one row a numpy reduction costs more than the scan, and one-row
        batches (replay, `read_graph`, edits) must stay cheap.
        """
        spec = FACTOR_KINDS.get(kind)
        if spec is None:
            raise ContractViolation(f"unknown factor kind {kind!r}")
        variables = self.variables
        signature = spec.signature
        arity = len(signature)
        kinds = {}  # kind of each distinct adjacent variable
        checked = []
        for adj in adjacency:
            adj = tuple(map(int, adj))
            checked.append(adj)
            for vid in adj:
                if vid not in kinds:
                    node = variables.get(vid)
                    if node is None:
                        raise ContractViolation(
                            f"factor adjacency references dead variable {vid}")
                    kinds[vid] = node.kind
            if not (spec.min_arity or arity) <= len(adj) <= arity:
                raise ContractViolation(
                    f"{kind} expects arity {spec.min_arity or arity}..{arity}, got {len(adj)}"
                )
            for vid, want in zip(adj, signature):
                if want is not ANY and kinds[vid] != want:
                    raise ContractViolation(
                        f"{kind} adjacency slot expects {want}, variable {vid} is {kinds[vid]}"
                    )
        adjacency, n = checked, len(checked)
        if not n:
            return []

        if payloads is not None:
            if len(payloads) != n:
                raise ContractViolation(f"{len(payloads)} payloads for {n} {kind} factors")
            payloads = [dict(p or {}) for p in payloads]
        if spec.constituents:
            mdim, stacked = spec.mdim, None
            rows = []  # each factor's (z, *payload) constituents
            for payload in payloads or ({},):
                cons = payload.get("constituents")
                if not cons:
                    raise ContractViolation(f"{kind} factors need >= 1 constituent")
                cons = [tuple(np.asarray(a, dtype=float) for a in c) for c in cons]
                for c in cons:
                    if len(c) != 1 + len(spec.payload):
                        raise ContractViolation(
                            f"{kind} constituents must be "
                            f"(z, {', '.join(key for key, _ in spec.payload)})"
                        )
                    if c[0].shape != (mdim,):
                        raise ContractViolation(
                            f"{kind} measurement must have dim {mdim}, got {c[0].shape}"
                        )
                    if not _finite(c[0]):
                        raise ContractViolation(f"{kind} measurement must be finite")
                payload["constituents"] = cons
                rows.append(cons)
        else:
            if spec.payload:
                for payload in payloads or ({},):
                    for key, _ in spec.payload:
                        if key not in payload:
                            raise ContractViolation(f"{kind} factors need payload {key!r}")
                        payload[key] = np.asarray(payload[key], dtype=float)
                rows = [[(None, *(payload[key] for key, _ in spec.payload))]
                        for payload in payloads]
            stacked = np.asarray(measurements, dtype=float).reshape(n, -1)
            mdim = stacked.shape[1]
            wants = ({self._joint_dim(adj) for adj in adjacency} if spec.mdim is JOINT
                     else (spec.mdim or mdim,))
            for want in wants:
                if want != mdim:
                    raise ContractViolation(
                        f"{kind} measurement must have dim {want}, got {(mdim,)}"
                    )
            if not _finite(stacked):
                raise ContractViolation(f"{kind} measurement must be finite")
        if spec.payload:
            for adj, cons in zip(adjacency, rows):
                for _, *arrs in cons:
                    for (key, shape), arr in zip(spec.payload, arrs):
                        want = tuple(
                            mdim if d == "m" else self._joint_dim(adj) if d == JOINT else d
                            for d in shape
                        )
                        if arr.shape != want:
                            raise ContractViolation(
                                f"{kind} payload {key!r} must have shape {want}, "
                                f"got {arr.shape}"
                            )
                        if not _finite(arr):
                            raise ContractViolation(f"{kind} payload {key!r} must be finite")
        sigma = _as_sigma(sigma, mdim)
        if _fixed_ids is None:
            ids = range(self._next_factor_id, self._next_factor_id + n)
            self._next_factor_id += n
        else:
            ids, self._next_factor_id = self._fixed_ids(
                self.factors, self._next_factor_id, n, _fixed_ids, "factor")

        factors, journal = self.factors, self.journal
        for i, adj in enumerate(adjacency):
            fid = ids[i]
            node = FactorNode(fid, kind, adj, None if stacked is None else stacked[i], sigma,
                              payloads[i] if payloads else {})
            factors[fid] = node
            for vid in adj:
                variables[vid].factor_ids.append(fid)
            journal.append(node)
        return ids

    def _joint_dim(self, adjacency) -> int:
        return sum(self.variables[v].dim for v in adjacency)

    def remove_factor(self, factor_id: int) -> None:
        node = self._factor(factor_id)
        for vid in node.adjacency:
            self.variables[vid].factor_ids.remove(factor_id)
        del self.factors[factor_id]
        self.journal.append(RemoveFactor(factor_id))

    # -- compression --------------------------------------------------------

    def replace_with_rigid_body(self, plane_id: int, point_ids, converged_means: dict):
        """Collapse a confirmed plane and its points into one rigid-body node.

        Points that also border another plane hypothesis, or that carry a
        prior factor (gauge anchors), are excluded rather than absorbed.
        Returns (rigid_id, absorbed_point_ids).
        """
        plane = self._variable(plane_id)
        if plane.kind != PLANE_HYPOTHESIS:
            raise ContractViolation(f"variable {plane_id} is not a plane hypothesis")
        if plane_id not in converged_means:
            raise ContractViolation("converged means must include the plane")

        absorbed = []
        for pid in point_ids:
            point = self._variable(pid)
            if point.kind != POINT:
                raise ContractViolation(f"variable {pid} is not a point")
            if pid not in converged_means:
                raise ContractViolation(f"converged means missing point {pid}")
            other_plane = any(
                self.factors[fid].kind == PLANE_POINT
                and self.factors[fid].adjacency[0] != plane_id
                for fid in point.factor_ids
            )
            anchored = any(self.factors[fid].kind == PRIOR for fid in point.factor_ids)
            if not other_plane and not anchored:
                absorbed.append(pid)

        pi_conv = np.asarray(converged_means[plane_id], dtype=float).copy()
        rigid_id = self._add_rigid_body()

        # Plane-point factors disappear for qualifying and non-qualifying
        # members alike; prediction factors transfer to the rigid body.
        for fid in list(plane.factor_ids):
            fac = self.factors[fid]
            if fac.kind == PLANE_POINT:
                self.remove_factor(fid)
            elif fac.kind == PLANE_PREDICTION:
                self._move_factor(fac, RIGID_PLANE_PREDICTION,
                                  (rigid_id, fac.adjacency[1]), {"pi_conv": pi_conv})
            else:
                raise ContractViolation(f"plane {plane_id} has unexpected factor {fac.kind}")

        # The absorbed points' reprojections become one combined factor per
        # keyframe, with the noise of its first view.
        views: dict[int, list] = {}
        for pid in absorbed:
            p_conv = np.asarray(converged_means[pid], dtype=float).copy()
            for fid in self._variable(pid).factor_ids:
                fac = self.factors[fid]
                if fac.kind != REPROJECTION:
                    raise ContractViolation(
                        f"absorbed point {pid} has unexpected factor kind {fac.kind}"
                    )
                views.setdefault(fac.adjacency[0], []).append((fac, p_conv))
        for kf_id, kf_views in views.items():
            self.add_factor(
                COMBINED_RIGID_REPROJECTION, (kf_id, rigid_id), None, kf_views[0][0].sigma,
                payload={"constituents": [(f.measurement.copy(), p) for f, p in kf_views]},
            )
        for kf_views in views.values():
            for fac, _ in kf_views:
                self.remove_factor(fac.id)

        for pid in absorbed:
            self.remove_variable(pid)
        self.remove_variable(plane_id)
        return rigid_id, absorbed

    def merge_rigid_bodies(self, a: int, b: int, poses, pi_new: np.ndarray) -> int:
        """Replace rigid bodies a and b by one body at the identity pose.

        `poses` holds the (Pose of a, Pose of b) the baked points are mapped
        through, so each point keeps its world position; every plane
        prediction carries `pi_new`. Returns the merged body's id.
        """
        rigid_id = self._add_rigid_body()
        for old, pose in zip((a, b), poses):
            for fid in list(self._variable(old).factor_ids):
                fac = self.factors[fid]
                if fac.kind == COMBINED_RIGID_REPROJECTION:
                    payload = {"constituents": [
                        (z.copy(), pose.apply(p)) for z, p in fac.constituents()]}
                elif fac.kind == RIGID_PLANE_PREDICTION:
                    payload = {"pi_conv": pi_new}
                else:
                    raise ContractViolation(
                        f"rigid body {old} has unexpected factor {fac.kind}"
                    )
                adjacency = tuple(rigid_id if v == old else v for v in fac.adjacency)
                self._move_factor(fac, fac.kind, adjacency, payload)
            self.remove_variable(old)
        return rigid_id

    def _add_rigid_body(self) -> int:
        # weak unit prior at the identity: the body's gauge anchor
        return self.add_variable(RIGID_BODY, np.zeros(6), GaussianInfo(np.zeros(6), np.eye(6)))

    def _move_factor(self, fac: FactorNode, kind: str, adjacency, payload: dict) -> None:
        """Re-add `fac` as `kind` on `adjacency` with `payload`, keeping its
        measurement and noise, then remove it."""
        self.add_factor(kind, adjacency, fac.measurement, fac.sigma, payload=payload)
        self.remove_factor(fac.id)

    # -- queries -------------------------------------------------------------

    def snapshot_census(self) -> dict:
        """Exact per-kind node and factor counts."""
        variables = Counter(v.kind for v in self.variables.values())
        factors = Counter(f.kind for f in self.factors.values())
        return {
            "variables": {k: variables.get(k, 0) for k in VARIABLE_DIMS},
            "factors": {k: factors.get(k, 0) for k in FACTOR_KINDS},
            "n_variables": len(self.variables),
            "n_factors": len(self.factors),
        }

    def variables_of_kind(self, kind: str):
        return [v for v in self.variables.values() if v.kind == kind]

    def check_integrity(self) -> None:
        """Bipartite structure, live adjacency, arity tables."""
        for fid, fac in self.factors.items():
            spec = FACTOR_KINDS[fac.kind]
            if not (spec.min_arity or len(spec.signature)) <= fac.arity <= len(spec.signature):
                raise ContractViolation(f"factor {fid} arity mismatch")
            for vid in fac.adjacency:
                if vid not in self.variables:
                    raise ContractViolation(f"factor {fid} references dead variable {vid}")
                if fid not in self.variables[vid].factor_ids:
                    raise ContractViolation(f"adjacency list missing factor {fid}")
        for vid, var in self.variables.items():
            for fid in var.factor_ids:
                if fid not in self.factors:
                    raise ContractViolation(f"variable {vid} lists dead factor {fid}")

    def _variable(self, vid: int) -> VariableNode:
        if vid not in self.variables:
            raise ContractViolation(f"no live variable {vid}")
        return self.variables[vid]

    def _factor(self, fid: int) -> FactorNode:
        if fid not in self.factors:
            raise ContractViolation(f"no live factor {fid}")
        return self.factors[fid]

    # -- journal replay -------------------------------------------------------

    @staticmethod
    def replay(journal, camera: Optional[CameraModel] = None) -> "FactorGraph":
        g = FactorGraph(camera=camera)
        for event in journal:
            if isinstance(event, AddVariable):
                g.add_variable(event.kind, event.mean, event.prior, _fixed_id=event.id)
            elif isinstance(event, RemoveVariable):
                g.remove_variable(event.id)
            elif isinstance(event, FactorNode):
                g.add_factor(event.kind, event.adjacency, event.measurement, event.sigma,
                             payload=event.payload, _fixed_id=event.id)
            elif isinstance(event, RemoveFactor):
                g.remove_factor(event.id)
            else:
                raise ContractViolation(f"unknown journal event {event!r}")
        return g
