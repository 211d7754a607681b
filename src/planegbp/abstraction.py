"""Plane-hypothesis lifecycle: integration, confirm/reject, compression, merge.

Hypotheses enter the graph as plane variables tied to candidate member points
(distance factors) and to their source keyframe (prediction factor). Every
test period the proportion y of members whose point-on-plane likelihood
exceeds a threshold decides their fate: rejected hypotheses are excised,
confirmed ones are compressed into a 6-DoF rigid-body node with converged
parameters baked in, each keyframe's views of the absorbed points becoming
one combined reprojection factor. Confirmed planes that describe the same
surface are merged periodically.

A pending hypothesis is its plane variable: its members are the points of
that variable's plane-point factors. After compression the rigid body's
factors are the only copy of a confirmed plane: `rigid_plane` reads its
plane and points back from them. The manager keeps just the table that
routes later observations of an absorbed point to its body, keyed by the
point's variable id.

Fixed thresholds and noise: a member counts toward y when its likelihood
exceeds L_THRESH, the likelihood being exp(-r²/2 SIGMA_PP²) of the
plane-point factor's own residual r, and 0 where that factor is invalid (a
degenerate plane). A hypothesis is rejected once y < Y_REJECT or its age
exceeds T_MAX, and confirmed once y > Y_CONF and its age exceeds T_MIN
(both ages scaled by `AbstractionConfig.iteration_scale`); a proposal with
fewer than MIN_MEMBERS live points is not inserted. A hypothesis enters
with a prior of PLANE_PRIOR_SIGMA and a prediction factor of SIGMA_PI. Two
rigid bodies merge when their world normals are within THETA_MERGE_DEG, the
baked members of each lie within D_MERGE of the other's world plane on
average (the plane-point kernel's |r|), and the two member sets touch in
the plane: the nearest pair across them, in body a's plane basis, is at most
GAP_MERGE times the members' spacing, the larger of the two bodies' median
nearest-neighbour distances (a body of one member has none, and does not
merge). On tests/scenes.merge_scene, overlapping patches read gaps of
0.04-1.33 spacings and patches 1 m apart 3.3-9.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import ContractViolation, DegeneratePlaneError
from .factors import eval_plane_point_batch
from .gaussians import GaussianInfo
from .geometry import PlaneParams, Pose, transform_plane
from .graph import (
    COMBINED_RIGID_REPROJECTION,
    PLANE_HYPOTHESIS,
    PLANE_POINT,
    PLANE_PREDICTION,
    RIGID_BODY,
    RIGID_PLANE_PREDICTION,
    FactorGraph,
)
from .frontend import plane_basis

L_THRESH, SIGMA_PP, SIGMA_PI, PLANE_PRIOR_SIGMA = 0.8, 0.05, 20.0, 100.0
Y_REJECT, Y_CONF, T_MIN, T_MAX, MIN_MEMBERS = 0.5, 0.8, 4000, 6000, 4
THETA_MERGE_DEG, D_MERGE, GAP_MERGE = 10.0, 0.05, 2.0


@dataclass
class AbstractionConfig:
    test_period: int = 1000
    merge_period: int = 1000
    # All iteration thresholds/periods are multiplied by this factor so that
    # desk-scale runs can use proportionally shorter budgets.
    iteration_scale: float = 1.0

    def __post_init__(self):
        if self.iteration_scale <= 0:
            raise ContractViolation("iteration_scale must be positive")

    def _scaled(self, v: int) -> int:
        return max(1, int(round(v * self.iteration_scale)))

    @property
    def t_min_eff(self) -> int:
        return self._scaled(T_MIN)

    @property
    def t_max_eff(self) -> int:
        return self._scaled(T_MAX)

    @property
    def test_period_eff(self) -> int:
        return self._scaled(self.test_period)

    @property
    def merge_period_eff(self) -> int:
        return self._scaled(self.merge_period)


@dataclass
class PlaneHypothesis:
    variable_id: int
    inserted_iteration: int
    true_plane: int = -1  # evaluation bookkeeping only

    def age(self, iteration: int) -> int:
        return iteration - self.inserted_iteration


def decide(y: float, t: int, config: AbstractionConfig) -> str:
    """'reject' | 'confirm' | 'keep'; rejection is checked first."""
    if y < Y_REJECT or t > config.t_max_eff:
        return "reject"
    if y > Y_CONF and t > config.t_min_eff:
        return "confirm"
    return "keep"


def rigid_plane(graph: FactorGraph, rigid_id: int):
    """(pi_conv, body points) of a rigid body, read from its factors.

    pi_conv is the first plane prediction's; the points are the baked
    positions of its combined reprojections' constituents, deduplicated in
    factor order. None when the body has no plane or no point.
    """
    pi_conv = None
    baked = {}
    for fid in graph.variables[rigid_id].factor_ids:
        fac = graph.factors[fid]
        if fac.kind == RIGID_PLANE_PREDICTION and pi_conv is None:
            pi_conv = fac.payload["pi_conv"]
        elif fac.kind == COMBINED_RIGID_REPROJECTION:
            for _, p in fac.constituents():
                baked[tuple(np.round(p, 9))] = p
    if pi_conv is None or not baked:
        return None
    return np.asarray(pi_conv, float), np.stack(list(baked.values()))


# -- hull helpers ------------------------------------------------------------

def plane_hull(m, points: np.ndarray):
    """(origin, e1, e2, hull) of points on the plane m: origin = normal *
    distance, (e1, e2) the in-plane axes, hull the 2D hull of the points in
    those coordinates (None if degenerate)."""
    plane = PlaneParams(np.asarray(m, float))
    e1, e2 = plane_basis(plane.normal)
    origin = plane.normal * plane.distance
    rel = points - origin
    return origin, e1, e2, hull2d(np.stack([rel @ e1, rel @ e2], axis=1))


def hull2d(points2d: np.ndarray):
    """CCW hull vertices of 2D points, or None if degenerate."""
    if points2d.shape[0] < 3:
        return None
    try:
        h = ConvexHull(points2d)
    except QhullError:
        return None
    return points2d[h.vertices]


def _mean_abs_distance(points: np.ndarray, plane: PlaneParams) -> float:
    """Mean |r| of the plane-point kernel for `points` on `plane`."""
    m = np.broadcast_to(plane.m, points.shape)
    r, _, _ = eval_plane_point_batch(None, None, m, points, want_jac=False)
    return float(np.mean(np.abs(r)))


# ---------------------------------------------------------------------------

class AbstractionManager:
    """Owns the hypothesis pool and the absorbed-point table; edits the graph
    in place."""

    def __init__(self, graph: FactorGraph, config: AbstractionConfig):
        self.graph = graph
        self.config = config
        self.hypotheses: dict[int, PlaneHypothesis] = {}
        # point variable id -> (rigid id, p_conv) for every absorbed point
        self.absorbed: dict[int, tuple] = {}
        self.events: list[dict] = []

    # -- lifecycle ------------------------------------------------------------

    def integrate_hypothesis(
        self, keyframe_id: int, pi_z, point_ids, iteration: int,
        true_plane: int = -1,
    ):
        """Insert one proposal; returns the hypothesis or None if filtered."""
        members = [p for p in point_ids if p in self.graph.variables]
        if len(members) < MIN_MEMBERS:
            return None
        pi_z = np.asarray(pi_z, float)
        kf_mean = self.graph.variables[keyframe_id].mean
        try:
            pi_world = transform_plane(Pose(kf_mean).inverse(), PlaneParams(pi_z))
        except DegeneratePlaneError:
            return None
        lam = np.eye(3) / PLANE_PRIOR_SIGMA**2
        var_id = self.graph.add_variable(
            PLANE_HYPOTHESIS, pi_world.m, GaussianInfo(lam @ pi_world.m, lam)
        )
        hyp = PlaneHypothesis(var_id, iteration, true_plane)
        self.graph.add_factors(PLANE_POINT, [(var_id, pid) for pid in members],
                               np.zeros((len(members), 1)), SIGMA_PP)
        self.graph.add_factor(PLANE_PREDICTION, (var_id, keyframe_id), pi_z, SIGMA_PI)
        self.hypotheses[var_id] = hyp
        self.events.append({
            "event": "integrate", "iteration": iteration, "hypothesis": var_id,
            "keyframe": keyframe_id, "n_members": len(members),
            "true_plane": true_plane,
        })
        return hyp

    def members(self, hyp: PlaneHypothesis) -> list:
        """The points of the plane variable's plane-point factors, in the
        order they were added."""
        graph = self.graph
        return [
            graph.factors[fid].adjacency[1]
            for fid in graph.variables[hyp.variable_id].factor_ids
            if graph.factors[fid].kind == PLANE_POINT
        ]

    def evaluate_hypothesis(self, hyp: PlaneHypothesis, means: dict):
        """(y, per-point likelihoods) at the given belief means, from one
        call of the plane-point kernel over the members."""
        members = self.members(hyp)
        if not members:
            return 0.0, {}
        m = np.broadcast_to(means[hyp.variable_id], (len(members), 3))
        p = np.stack([means[pid] for pid in members])
        r, _, valid = eval_plane_point_batch(None, None, m, p, want_jac=False)
        lik = np.where(valid, np.exp(-0.5 * (r[:, 0] / SIGMA_PP) ** 2), 0.0)
        liks = dict(zip(members, lik.tolist()))
        y = sum(1 for v in liks.values() if v > L_THRESH) / len(liks)
        return y, liks

    def reject_hypothesis(self, hyp: PlaneHypothesis, iteration: int, y: float):
        for fid in list(self.graph.variables[hyp.variable_id].factor_ids):
            self.graph.remove_factor(fid)
        self.graph.remove_variable(hyp.variable_id)
        del self.hypotheses[hyp.variable_id]
        self.events.append({
            "event": "reject", "iteration": iteration,
            "hypothesis": hyp.variable_id, "y": y,
            "true_plane": hyp.true_plane,
        })

    def confirm_hypothesis(
        self, hyp: PlaneHypothesis, means: dict, liks: dict, iteration: int, y: float,
        compress: bool = True,
    ):
        """Bake converged parameters and compress into a rigid body; returns
        the rigid id. `liks` are the members' likelihoods at `means`, as
        `evaluate_hypothesis` gives them.

        With compress=False the hypothesis is only logged as confirmed and
        leaves the manager's pending set; its plane variable and factors stay
        live (the no-compression ablation), and it returns None.
        """
        if not compress:
            del self.hypotheses[hyp.variable_id]
            self.events.append({
                "event": "confirm", "iteration": iteration,
                "hypothesis": hyp.variable_id, "y": y, "rigid_id": None,
                "true_plane": hyp.true_plane,
            })
            return None
        qualifying = [pid for pid, lik in liks.items() if lik > L_THRESH]
        # An immutable snapshot: later changes to `means` leave the bakes alone.
        conv = {vid: np.asarray(means[vid], float).copy()
                for vid in (hyp.variable_id, *qualifying)}
        rigid_id, absorbed = self.graph.replace_with_rigid_body(
            hyp.variable_id, qualifying, conv
        )
        self.absorbed.update({pid: (rigid_id, conv[pid]) for pid in absorbed})
        del self.hypotheses[hyp.variable_id]
        self.events.append({
            "event": "confirm", "iteration": iteration,
            "hypothesis": hyp.variable_id, "y": y, "rigid_id": rigid_id,
            "n_absorbed": len(absorbed), "true_plane": hyp.true_plane,
        })
        return rigid_id

    def run_tests(self, means: dict, iteration: int, compress: bool = True):
        """Periodic confirm/reject pass over all pending hypotheses."""
        outcomes = []
        for hyp in list(self.hypotheses.values()):
            y, liks = self.evaluate_hypothesis(hyp, means)
            verdict = decide(y, hyp.age(iteration), self.config)
            if verdict == "reject":
                self.reject_hypothesis(hyp, iteration, y)
            elif verdict == "confirm":
                self.confirm_hypothesis(hyp, means, liks, iteration, y, compress)
            outcomes.append((hyp.variable_id, verdict, y))
        return outcomes

    # -- merging ----------------------------------------------------------------

    def merge_planes(self, a: int, b: int, means: dict, iteration: int):
        """Merge rigid bodies a and b when their planes are aligned and close
        and their members overlap; returns the merged body's id, or None."""
        reads = [rigid_plane(self.graph, rid) for rid in (a, b)]
        if None in reads:
            return None
        poses = [Pose(means[rid]) for rid in (a, b)]
        try:
            pa, pb = [transform_plane(pose, PlaneParams(pi_conv))
                      for pose, (pi_conv, _) in zip(poses, reads)]
        except DegeneratePlaneError:
            return None
        cosang = abs(float(pa.normal @ pb.normal))
        if math.degrees(math.acos(min(cosang, 1.0))) > THETA_MERGE_DEG:
            return None
        # Each body's members in the world, against the other's world plane.
        world = [pose.apply(body) for pose, (_, body) in zip(poses, reads)]
        if min(len(w) for w in world) < 2:
            return None
        separation = max(_mean_abs_distance(world[0], pb), _mean_abs_distance(world[1], pa))
        if separation > D_MERGE:
            return None
        # In body a's plane basis: the nearest pair across the two member sets
        # against the members' own spacing.
        e1, e2 = plane_basis(pa.normal)
        uv = [np.stack([w @ e1, w @ e2], axis=1) for w in world]
        gap = float(cKDTree(uv[0]).query(uv[1])[0].min())
        spacing = max(float(np.median(cKDTree(x).query(x, k=2)[0][:, 1])) for x in uv)
        if gap > GAP_MERGE * spacing:
            return None

        # Merged plane: averaged (sign-aligned) normals, distance through the
        # world centroid of all member points.
        n_a = pa.normal
        n_b = pb.normal if pa.normal @ pb.normal >= 0 else -pb.normal
        n_new = n_a + n_b
        n_new /= np.linalg.norm(n_new)
        pi_new = n_new * float(n_new @ np.concatenate(world).mean(axis=0))

        rigid_id = self.graph.merge_rigid_bodies(a, b, poses, pi_new)
        pose_of = dict(zip((a, b), poses))
        for pid, (rid, p_conv) in self.absorbed.items():
            if rid in pose_of:
                self.absorbed[pid] = (rigid_id, pose_of[rid].apply(p_conv))
        self.events.append({
            "event": "merge", "iteration": iteration,
            "merged": [a, b], "rigid_id": rigid_id,
            "gap": gap, "spacing": spacing, "separation": separation,
        })
        return rigid_id

    def merge_pass(self, means: dict, iteration: int) -> int:
        """Try all pairs of the graph's rigid bodies, and again after a round
        that merged; returns the number of merges."""
        graph = self.graph
        merged = 0
        changed = True
        while changed:
            changed = False
            ids = sorted(v.id for v in graph.variables_of_kind(RIGID_BODY))
            for i, aid in enumerate(ids):
                for bid in ids[i + 1:]:
                    if aid not in graph.variables or bid not in graph.variables:
                        continue
                    rigid_id = self.merge_planes(aid, bid, means, iteration)
                    if rigid_id is not None:
                        merged += 1
                        means[rigid_id] = np.zeros(6)
                        changed = True
        return merged
