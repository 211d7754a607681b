"""Experiment harness: the system loop wiring front-end packets into the
graph, propagation sweeps, periodic hypothesis tests and merge passes, and
all output artefacts.

One logical clock drives everything: keyframes arrive every
`keyframe_interval` iterations, hypothesis tests run every test period and
merges every merge period, so each run is exactly reproducible from its
config and seed (or from a recorded packet stream).

A keyframe's views of the points that a confirmed plane has absorbed become
one combined rigid reprojection on that plane's body, each view carrying its
point's baked position, as at confirmation. Exported planes are read from
the rigid bodies' factors.

Fixed noise model: reprojections have SIGMA_R px; the first keyframe's prior
has FIRST_KEYFRAME_SIGMA (the gauge), a later keyframe's KEYFRAME_SIGMA, a
point's POINT_SIGMA, and the first point's prior SCALE_ANCHOR_SIGMA (the
monocular scale). A GBP run stops once its energy changes by less than
ENERGY_REL_TOL over ENERGY_WINDOW sweeps, and converged_iteration_px is the
first sweep at or below CONVERGENCE_PX.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .abstraction import AbstractionConfig, AbstractionManager, plane_hull, rigid_plane
from .engine import GbpConfig, GbpEngine, IterationReport
from .errors import ContractViolation, FormatError
from .frontend import (
    KeyframePacket,
    SceneSpec,
    ate,
    average_depth,
    backproject,
    constant_velocity_prediction,
    generate_scene,
    triangulate_two_view,
)
from .gaussians import GaussianInfo
from .geometry import CameraModel, PlaneParams, Pose, transform_plane
from .graph import (
    COMBINED_RIGID_REPROJECTION,
    FACTOR_KINDS,
    KEYFRAME,
    POINT,
    PRIOR,
    REPROJECTION,
    RIGID_BODY,
    VARIABLE_DIMS,
    FactorGraph,
)
from . import io_formats
from .reference import LM_KERNEL, LM_MAX_ITERATIONS, lm_solve
from .routing import ROUTED, PoolConfig, RoutedTransport, RoutingSimulator

SOLVERS = ("gbp", "gbp-routed", "lm")

SIGMA_R = 2.0
FIRST_KEYFRAME_SIGMA, KEYFRAME_SIGMA, POINT_SIGMA = 1e-6, 10.0, 100.0
SCALE_ANCHOR_SIGMA = 1e-3
ENERGY_REL_TOL, ENERGY_WINDOW, CONVERGENCE_PX = 1e-6, 10, 1.5


@dataclass
class PriorConfig:
    default_depth: float = 3.0
    # simulated two-view initialisation quality (front-end relative pose)
    bootstrap_t_sigma: float = 0.01
    bootstrap_r_sigma: float = 0.005


@dataclass
class ExperimentConfig:
    scene: SceneSpec | None = None
    replay_path: str | None = None
    solver: str = "gbp"
    planes: bool = True
    compression: bool = True
    seed: int = 0
    keyframe_interval: int = 300
    max_iterations: int | None = None
    gbp: GbpConfig = field(default_factory=GbpConfig)
    abstraction: AbstractionConfig = field(default_factory=AbstractionConfig)
    priors: PriorConfig = field(default_factory=PriorConfig)
    out_dir: str | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ContractViolation(f"solver must be one of {SOLVERS}")
        if self.scene is None and self.replay_path is None:
            raise ContractViolation("config needs a scene spec or a replay path")
        if self.scene is not None and self.scene.seed != self.seed:
            raise ContractViolation(f"scene.seed {self.scene.seed} is not seed {self.seed}")
        if self.gbp.seed != self.seed:
            raise ContractViolation(f"gbp.seed {self.gbp.seed} is not seed {self.seed}")

    @property
    def keyframe_interval_eff(self) -> int:
        return max(1, int(round(self.keyframe_interval * self.abstraction.iteration_scale)))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if self.scene is not None:
            d["scene"] = self.scene.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = {k: v for k, v in d.items() if k not in ("format", "version")}
        if d.get("scene") is not None:
            d["scene"] = SceneSpec.from_dict(d["scene"])
        if isinstance(d.get("gbp"), dict):
            d["gbp"] = GbpConfig(**d["gbp"])
        if isinstance(d.get("abstraction"), dict):
            d["abstraction"] = AbstractionConfig(**d["abstraction"])
        if isinstance(d.get("priors"), dict):
            d["priors"] = PriorConfig(**d["priors"])
        return ExperimentConfig(**d)


@dataclass
class RunResult:
    config: ExperimentConfig
    summary: dict
    reports: list
    graph: FactorGraph
    manager: AbstractionManager | None
    packets: list
    out_dir: str | None


class _SlamState:
    def __init__(self):
        self.point_var: dict[int, int] = {}  # scene point id -> variable id
        self.keyframe_vars: list[int] = []


def _packets_for(config: ExperimentConfig):
    """(packets, camera) of a run: replayed from a packet file, or generated."""
    if config.replay_path is not None:
        path = config.replay_path
        doc = io_formats.read_json(path, "packets")
        io_formats.require_fields(doc, ("camera", "packets"), path)
        packets = []
        for i, p in enumerate(io_formats.require_list(doc, "packets", path)):
            try:
                packets.append(KeyframePacket.from_dict(p))
            except FormatError as exc:
                raise FormatError(f"{path}: packet {i}: {exc}") from None
        try:
            return packets, CameraModel(**doc["camera"])
        except TypeError as exc:
            raise FormatError(f"{path}: field 'camera': {exc}") from None
    scene = generate_scene(config.scene)
    return [scene.emit_keyframe(k) for k in range(config.scene.n_keyframes)], scene.camera


def _default_budget(config: ExperimentConfig, n_packets: int) -> int:
    a = config.abstraction
    budget = (n_packets - 1) * config.keyframe_interval_eff
    if config.planes:
        budget += a.t_max_eff + 2 * a.test_period_eff
    else:
        budget += 4 * config.keyframe_interval_eff
    return budget + 10


def _add_keyframe_variable(graph, state, packet, pose: Pose | None = None):
    """Add the next keyframe variable; returns (its id, its pose).

    The first keyframe sits at its true pose: it anchors the gauge (world
    frame := first camera). A later one sits at `pose`, by default the
    constant-velocity prediction from the last two keyframes.
    """
    if not state.keyframe_vars:
        pose, sig = Pose(packet.true_pose), FIRST_KEYFRAME_SIGMA
    else:
        if pose is None:
            prev = Pose(graph.variables[state.keyframe_vars[-1]].mean)
            prev2 = (
                Pose(graph.variables[state.keyframe_vars[-2]].mean)
                if len(state.keyframe_vars) >= 2 else None
            )
            pose = constant_velocity_prediction(prev, prev2)
        sig = KEYFRAME_SIGMA
    lam = np.eye(6) / sig**2
    kf_id = graph.add_variable(KEYFRAME, pose.r, GaussianInfo(lam @ pose.r, lam))
    state.keyframe_vars.append(kf_id)
    return kf_id, pose


def _add_points(graph, state, new: dict) -> None:
    """Point variables of `new` (scene point id -> start position), added in
    its order as one batch, each with its weak prior. The map's first batch
    also places the prior that fixes the monocular scale, on its first point
    at its start position."""
    plam = np.eye(3) / POINT_SIGMA**2
    starts = np.array(list(new.values()), dtype=float).reshape(-1, 3)
    ids = graph.add_variables(POINT, starts, (starts @ plam.T,
                                              np.broadcast_to(plam, (len(starts), 3, 3))))
    if ids and not state.point_var:
        graph.add_factor(PRIOR, (ids[0],), graph.variables[ids[0]].mean, SCALE_ANCHOR_SIGMA)
    state.point_var.update(zip(new, ids))


def _integrate_hypotheses(state, manager, kf_id, packet, iteration):
    """Hand the packet's plane proposals to the manager, which keeps their
    live points."""
    for proposal in packet.hypotheses:
        members = [state.point_var[p] for p in proposal.member_ids if p in state.point_var]
        manager.integrate_hypothesis(
            kf_id, proposal.pi_z, members, iteration, proposal.true_plane
        )


def _add_keyframe(graph, state, manager, config, packet, iteration, camera,
                  pose_override: Pose | None = None, points: dict | None = None):
    """Grow the graph with one keyframe packet; returns the keyframe id.

    The packet enters as a batch: one insertion for its new points, one for
    its reprojections and one for its views of rigid bodies. A new point
    starts at `points[scene id]` when given, else at the backprojection of
    its pixel to the average depth of the points the graph held before this
    keyframe.
    """
    kf_id, pose = _add_keyframe_variable(graph, state, packet, pose_override)
    pids = packet.point_ids.tolist()
    new: dict = {}  # scene id -> start position of each point seen first here
    depth = None
    for i, pid in enumerate(pids):
        if pid in state.point_var or pid in new:
            continue
        if not points and depth is None:
            existing = [graph.variables[v].mean for v in state.point_var.values()
                        if v in graph.variables]
            depth = average_depth(
                pose, np.stack(existing) if existing else np.zeros((0, 3)),
                config.priors.default_depth,
            )
        new[pid] = points[pid] if points else backproject(camera, pose, packet.pixels[i],
                                                          depth)
    _add_points(graph, state, new)

    adjacency, rows = [], []
    views: dict[int, list] = {}  # rigid body id -> (pixel, p_conv) seen from here
    for i, pid in enumerate(pids):
        var = state.point_var[pid]
        if var in graph.variables:
            adjacency.append((kf_id, var))
            rows.append(i)
        elif manager is not None:
            hit = manager.absorbed.get(var)
            if hit is not None:
                rigid_id, p_conv = hit
                views.setdefault(rigid_id, []).append((packet.pixels[i], p_conv.copy()))
    graph.add_factors(REPROJECTION, adjacency, packet.pixels[rows], SIGMA_R)
    bodies = sorted(views)
    graph.add_factors(COMBINED_RIGID_REPROJECTION, [(kf_id, b) for b in bodies], None,
                      SIGMA_R, [{"constituents": views[b]} for b in bodies])

    if config.planes and manager is not None:
        _integrate_hypotheses(state, manager, kf_id, packet, iteration)
    return kf_id


def _current_means(engine: GbpEngine, graph: FactorGraph) -> dict:
    """Engine means, plus node means for variables added since the last
    recompile (edits within one phase can reference each other's results)."""
    means = engine.means()
    for vid, node in graph.variables.items():
        if vid not in means:
            means[vid] = node.mean.copy()
    return means


def _bootstrap_two_view(graph, state, manager, config, packet0, packet1,
                        iteration, camera):
    """Initialise the map from the first two keyframes.

    Mirrors a monocular front-end's two-view initialisation: the second
    pose comes from the (noise-corrupted) true relative motion, and points
    matched in both views are triangulated; single-view points fall back
    to the average-depth policy. The two packets' points enter as one batch
    and their reprojections as another.
    """
    priors = config.priors
    rng = np.random.default_rng([config.seed, 41])
    pose0 = Pose(graph.variables[state.keyframe_vars[0]].mean)
    rel_true = Pose(packet1.true_pose).compose(Pose(packet0.true_pose).inverse())
    noise = np.concatenate([
        rng.normal(scale=priors.bootstrap_t_sigma, size=3),
        rng.normal(scale=priors.bootstrap_r_sigma, size=3),
    ])
    pose1 = Pose(rel_true.r + noise).compose(pose0)
    kf1, _ = _add_keyframe_variable(graph, state, packet1, pose1)

    pix0 = {int(pid): pix for pid, pix in zip(packet0.point_ids, packet0.pixels)}
    pix1 = {int(pid): pix for pid, pix in zip(packet1.point_ids, packet1.pixels)}
    kf0 = state.keyframe_vars[0]
    new = {}
    for pid in sorted(set(pix0) | set(pix1)):
        if pid in pix0 and pid in pix1:
            p, ok = triangulate_two_view(camera, pose0, pose1, pix0[pid], pix1[pid])
            if not ok:
                p = backproject(camera, pose0, pix0[pid], priors.default_depth)
        else:
            pose, pix = (pose0, pix0[pid]) if pid in pix0 else (pose1, pix1[pid])
            p = backproject(camera, pose, pix, priors.default_depth)
        new[pid] = p
    _add_points(graph, state, new)
    adjacency, rows = [], []
    for pid in new:
        for kf, pixels in ((kf0, pix0), (kf1, pix1)):
            if pid in pixels:
                adjacency.append((kf, state.point_var[pid]))
                rows.append(pixels[pid])
    graph.add_factors(REPROJECTION, adjacency, np.array(rows), SIGMA_R)

    if config.planes and manager is not None:
        for kf_id, packet in ((kf0, packet0), (kf1, packet1)):
            _integrate_hypotheses(state, manager, kf_id, packet, iteration)
    return kf1


def energy_converged(reports) -> bool:
    """Whether the energy of the last ENERGY_WINDOW sweeps of `reports`
    changed by less than ENERGY_REL_TOL of its value before them."""
    if len(reports) < ENERGY_WINDOW + 1:
        return False
    recent = [r.total_energy for r in reports[-(ENERGY_WINDOW + 1):]]
    base = max(abs(recent[0]), 1e-12)
    return abs(recent[-1] - recent[0]) / base < ENERGY_REL_TOL


def run(config: ExperimentConfig) -> RunResult:
    packets, camera = _packets_for(config)
    if config.solver == "lm":
        return _run_lm(config, packets, camera)

    graph = FactorGraph(camera=camera)
    state = _SlamState()
    manager = AbstractionManager(graph, config.abstraction)
    # The map proper appears with the second keyframe (two-view bootstrap);
    # until then the graph holds only the anchored first pose.
    _add_keyframe_variable(graph, state, packets[0])

    sim = _routing_sim_for(packets) if config.solver == "gbp-routed" else None
    engine = GbpEngine(graph, config.gbp, transport=sim and RoutedTransport(sim))

    max_iterations = config.max_iterations or _default_budget(config, len(packets))
    kf_interval = config.keyframe_interval_eff
    a = config.abstraction
    reports = []
    census_rows = [_census_row(graph, 1)]
    next_kf = 1
    last_edit = 0

    for it in range(1, max_iterations + 1):
        reports.append(engine.iterate())
        mark = len(graph.journal)

        if next_kf < len(packets) and it % kf_interval == 0:
            engine.sync_graph()
            if next_kf == 1:
                _bootstrap_two_view(graph, state, manager, config,
                                    packets[0], packets[1], it, camera)
            else:
                _add_keyframe(graph, state, manager, config, packets[next_kf],
                              it, camera)
            next_kf += 1
        if config.planes and it % a.test_period_eff == 0 and manager.hypotheses:
            manager.run_tests(_current_means(engine, graph), it,
                              compress=config.compression)
        if config.planes and config.compression and it % a.merge_period_eff == 0:
            if len(graph.variables_of_kind(RIGID_BODY)) > 1:
                manager.merge_pass(_current_means(engine, graph), it)

        if len(graph.journal) > mark:
            engine.on_graph_edit()
            last_edit = it
            census_rows.append(_census_row(graph, next_kf))

        if (
            next_kf >= len(packets)
            and not manager.hypotheses
            and it > last_edit + a.test_period_eff
            and energy_converged(reports)
        ):
            break

    engine.sync_graph()
    summary = _summarize(config, graph, state, manager, reports, packets)
    out_dir = config.out_dir
    if out_dir is not None:
        _write_artifacts(
            config, graph, state, manager, reports, packets, census_rows,
            summary, sim, camera,
        )
    return RunResult(config, summary, reports, graph, manager, packets, out_dir)


def _routing_sim_for(packets) -> RoutingSimulator:
    """Generous pools: every variable kind and every routed non-linear factor
    kind gets twice a worst-case node count derived from the packet stream."""
    n_kf = len(packets)
    n_obs = sum(len(p.point_ids) for p in packets)
    n_hyp = sum(len(p.hypotheses) for p in packets)
    max_kf_obs = max(len(p.point_ids) for p in packets)
    capacity = 2 * (n_obs + n_hyp * n_kf + n_kf) + 8
    factor_kinds = [k for k in ROUTED if not FACTOR_KINDS[k].linear]
    return RoutingSimulator(PoolConfig(dict.fromkeys(VARIABLE_DIMS, capacity),
                                       dict.fromkeys(factor_kinds, capacity),
                                       2 * max_kf_obs + 32))


def _census_row(graph, keyframes_added: int) -> dict:
    c = graph.snapshot_census()
    row = {"keyframes_added": keyframes_added,
           "n_factors": c["n_factors"], "n_variables": c["n_variables"]}
    for kind, count in c["factors"].items():
        row[f"f_{kind}"] = count
    return row


def _trajectories(graph, state, packets):
    est, gt = [], []
    for kf_id, packet in zip(state.keyframe_vars, packets):
        est.append(Pose(graph.variables[kf_id].mean))
        gt.append(Pose(np.asarray(packet.true_pose, float)))
    return est, gt


def _summarize(config, graph, state, manager, reports, packets) -> dict:
    est, gt = _trajectories(graph, state, packets)
    ate_cm, degenerate = float("nan"), True
    if len(est) >= 3:
        res = ate(
            np.stack([p.inverse().t for p in est]),
            np.stack([p.inverse().t for p in gt]),
        )
        ate_cm, degenerate = res.rms_cm, res.degenerate
    conv_px = next(
        (r.iteration for r in reports if r.avg_reproj_px <= CONVERGENCE_PX),
        None,
    )
    events = manager.events if manager else []
    return {
        "solver": config.solver,
        "seed": config.seed,
        "planes": config.planes,
        "compression": config.compression,
        "n_iterations": len(reports),
        "ate_cm": ate_cm,
        "ate_degenerate": degenerate,
        "converged_iteration_px": conv_px,
        "final_avg_reproj_px": reports[-1].avg_reproj_px if reports else None,
        "final_energy": reports[-1].total_energy if reports else None,
        "final_census": graph.snapshot_census(),
        "n_confirmed": sum(1 for e in events if e["event"] == "confirm"),
        "n_rejected": sum(1 for e in events if e["event"] == "reject"),
        "n_merged": sum(1 for e in events if e["event"] == "merge"),
    }


def export_reconstruction(graph: FactorGraph) -> dict:
    """Confirmed planes with in-plane hulls, plus unabstracted raw points."""
    planes = []
    for node in graph.variables_of_kind(RIGID_BODY):
        read = rigid_plane(graph, node.id)
        if read is None:
            continue
        pi_conv, body = read
        pose = Pose(node.mean)
        plane_w = transform_plane(pose, PlaneParams(pi_conv))
        origin, e1, e2, hull = plane_hull(plane_w.m, pose.apply(body))
        hull3d = (
            [] if hull is None
            else (origin[None] + hull[:, :1] * e1[None] + hull[:, 1:] * e2[None]).tolist()
        )
        planes.append({
            "rigid_id": node.id,
            "normal": plane_w.normal.tolist(),
            "distance": plane_w.distance,
            "hull": hull3d,
            "n_points": len(body),
        })
    raw_points = [
        graph.variables[v.id].mean.tolist() for v in graph.variables_of_kind(POINT)
    ]
    return {"planes": planes, "raw_points": raw_points}


def _write_artifacts(config, graph, state, manager, reports, packets,
                     census_rows, summary, sim, camera):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Where the run's files sit is not part of its configuration: leaving
    # out_dir out keeps config.json the same wherever the run is written.
    written = {k: v for k, v in config.to_dict().items() if k != "out_dir"}
    io_formats.write_json(out / "config.json", "experiment-config", written)
    io_formats.write_iteration_csv(out / "iterations.csv", reports)
    io_formats.write_csv(out / "census.csv", io_formats.CENSUS_FIELDS, census_rows)
    io_formats.write_json(out / "events.json", "event-log",
                          {"events": manager.events if manager else []})
    io_formats.write_graph(out / "graph.json", graph)
    est, gt = _trajectories(graph, state, packets)
    times = [float(i) for i in range(len(est))]
    io_formats.write_tum(out / "trajectory_est.txt", times, est)
    io_formats.write_tum(out / "trajectory_gt.txt", times, gt)
    io_formats.write_json(out / "reconstruction.json", "reconstruction",
                          export_reconstruction(graph))
    io_formats.write_json(out / "summary.json", "summary", summary)
    io_formats.write_json(out / "packets.json", "packets", {
        "camera": dataclasses.asdict(camera),
        "packets": [p.to_dict() for p in packets],
    })
    if sim is not None:
        io_formats.write_cost_csv(out / "cost.csv", sim.cost_report())


# ---------------------------------------------------------------------------
# Batch bundle-adjustment path (solver == "lm") and graph building helper
# ---------------------------------------------------------------------------

def build_ba_graph(
    config: ExperimentConfig, packets, camera,
    pose_noise: tuple = (0.05, 0.02),
    point_noise: float | None = None,
    scene=None,
) -> tuple:
    """Static raw BA graph over all packets with noisy initialisation.

    Keyframes after the first start from their true pose perturbed by
    (translation sigma m, rotation sigma rad) noise drawn from the config
    seed. Points start from average-depth backprojection of their first
    observation, or, when point_noise and the scene are given, from their
    true position perturbed by that sigma (a previously converged map that
    has drifted, the setup of convergence-time measurements). Propagation
    and direct solvers built from the same config share the initialisation.
    All noise is drawn before the first edit, so every variable and prior
    enters the graph at its start value and the journal replays the graph.
    Each packet is inserted as a batch (`_add_keyframe`).
    """
    rng = np.random.default_rng([config.seed, 77])
    overrides = [None]
    for packet in packets[1:]:
        r = np.asarray(packet.true_pose, float).copy()
        r[:3] += rng.normal(scale=pose_noise[0], size=3)
        r[3:] += rng.normal(scale=pose_noise[1], size=3)
        overrides.append(Pose(r))
    points = None
    if point_noise is not None and scene is not None:
        first_seen = list(dict.fromkeys(
            np.concatenate([packet.point_ids for packet in packets]).tolist()))
        noisy = scene.points[first_seen] + rng.normal(scale=point_noise,
                                                      size=(len(first_seen), 3))
        points = dict(zip(first_seen, noisy))
    graph = FactorGraph(camera=camera)
    state = _SlamState()
    for packet, override in zip(packets, overrides):
        _add_keyframe(graph, state, None, config, packet, 0, camera,
                      pose_override=override, points=points)
    return graph, state


def _run_lm(config: ExperimentConfig, packets, camera) -> RunResult:
    graph, state = build_ba_graph(config, packets, camera)
    result = lm_solve(graph)
    for vid, mean in result.means.items():
        graph.variables[vid].mean = mean
    reports = [
        IterationReport(
            iteration=row["iteration"],
            avg_reproj_px=row["avg_reproj_px"],
            total_energy=row["cost"],
            n_relinearised=0,
            n_dropped=0,
            n_factors=len(graph.factors),
            n_variables=len(graph.variables),
        )
        for row in result.trace
    ]
    summary = _summarize(config, graph, state, None, reports, packets)
    summary["lm_kernel"] = LM_KERNEL
    summary["lm_max_iterations"] = LM_MAX_ITERATIONS
    summary["lm_converged"] = result.converged
    summary["lm_hit_lambda_max"] = result.hit_lambda_max
    summary["lm_fill"] = result.fill
    if config.out_dir is not None:
        _write_artifacts(config, graph, state, None, reports, packets, [],
                         summary, None, camera)
    return RunResult(config, summary, reports, graph, None, packets, config.out_dir)


# ---------------------------------------------------------------------------
# Run comparison
# ---------------------------------------------------------------------------

def compare_runs(run_dirs) -> dict:
    """Cross-run tables: ATE, convergence iteration, factor-count curves."""
    runs = []
    curves = {}
    for d in run_dirs:
        d = Path(d)
        summary = io_formats.read_json(d / "summary.json", "summary")
        runs.append({
            "dir": str(d),
            "solver": summary["solver"],
            "planes": summary.get("planes"),
            "compression": summary.get("compression"),
            "seed": summary["seed"],
            "ate_cm": summary["ate_cm"],
            "n_iterations": summary["n_iterations"],
            "converged_iteration_px": summary.get("converged_iteration_px"),
            "final_factors": summary.get("final_census", {}).get("n_factors"),
        })
        census_path = d / "census.csv"
        if census_path.exists():
            curves[str(d)] = io_formats.read_csv(census_path)
    return {"runs": runs, "census_curves": curves}
