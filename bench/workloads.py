"""The benchmark's four workloads: inputs from a seed, one solve, its checks.

Every workload is closed loop: one solve at a time, from one process. A solve
receives only the generated scene (or packets) and runs through the public
API. The scene parameters are the desk-scale ones of the acceptance tests,
copied here so that the benchmark's inputs stay fixed when the tests change.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from planegbp import harness, reference
from planegbp.abstraction import AbstractionConfig
from planegbp.engine import GbpConfig, GbpEngine
from planegbp.frontend import PlaneSpec, SceneSpec, ate, generate_scene
from planegbp.geometry import Pose
from planegbp.harness import ExperimentConfig

ITERATION_SCALE = 0.1

# Output-check limits. A solve whose outputs break one counts as failed.
LIMITS = {
    "slam_wall": {"planes_confirmed": 3, "planes_rejected": 0,
                  "max_compressed_share": 0.5, "max_ate_cm": 4.0},
    "slam_stream": {"max_ate_cm": 6.0, "max_final_px": 2.0},
    "lm_ba": {"max_ate_cm": 2.0},
}


def wall_scene(seed, n_keyframes=6, points_per_plane=16, n_clutter=15):
    return SceneSpec(
        planes=[
            PlaneSpec([1, 0, 0], 1.0, [1.0, 0, 0], [0.9, 0.9], points_per_plane),
            PlaneSpec([0, 1, 0], 2.0, [0.5, 2, 0], [0.9, 0.9], points_per_plane),
            PlaneSpec([0, 0, 1], 1.5, [0.5, 0, 1.5], [0.9, 0.9], points_per_plane),
        ],
        n_clutter=n_clutter,
        clutter_low=[-0.5, -1.5, -1.0],
        clutter_high=[1.5, 1.2, 1.0],
        clutter_min_plane_distance=0.3,
        n_keyframes=n_keyframes,
        traj_radius=4.5,
        traj_span_deg=30.0,
        lookat=[0.0, 0.0, 0.0],
        pixel_sigma=0.5,
        seed=seed,
        spurious_rate=0.0,
        spurious_members=6,
    )


def ba_scene(seed, n_keyframes=5, points_per_plane=80, n_clutter=60):
    return SceneSpec(
        planes=[
            PlaneSpec([1, 0, 0], -2.0, [-2, 0, 0], [1.5, 1.5], points_per_plane),
            PlaneSpec([0, 1, 0], 2.0, [0, 2, 0], [1.5, 1.5], points_per_plane),
            PlaneSpec([0, 0, 1], -1.5, [0, 0, -1.5], [1.8, 1.8], points_per_plane),
        ],
        n_clutter=n_clutter,
        clutter_low=[-1.5, -1.5, -1.0],
        clutter_high=[1.5, 1.5, 1.0],
        n_keyframes=n_keyframes,
        traj_radius=6.0,
        traj_span_deg=30.0,
        pixel_sigma=1.0,
        seed=seed,
    )


def desk_config(scene, seed, solver="gbp", planes=True, compression=True,
                keyframe_interval=300):
    cfg = ExperimentConfig(
        scene=scene,
        solver=solver,
        seed=seed,
        planes=planes,
        compression=compression,
        keyframe_interval=keyframe_interval,
        gbp=GbpConfig(damping=0.4, dropout=0.7, beta=1e-4, seed=seed),
        abstraction=AbstractionConfig(
            test_period=2000, merge_period=2000, iteration_scale=ITERATION_SCALE
        ),
    )
    cfg.priors.default_depth = 5.5
    cfg.priors.bootstrap_t_sigma = 0.005
    cfg.priors.bootstrap_r_sigma = 0.001
    return cfg


@dataclass
class Outcome:
    """What one solve produced. `counts` must repeat exactly for a seed.

    `segments` splits run_s at the iteration boundaries (set-up first), so
    that segment j of one solve does the same work as segment j of another
    solve of the same inputs; `iter_s` holds the segments that are one
    iteration each, and `iter_probe` the probe time measured last before each
    of them (empty when the solve ran without probes)."""

    setup_s: float
    run_s: float
    iterations: int
    final_px: float
    final_factors: int
    ate_cm: float
    segments: list
    iter_s: list
    iter_probe: list
    planes_confirmed: int = 0
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def probe_ratio(self) -> float:
        """Mean time of an iteration in units of the probe's time."""
        ratios = [s / p for s, p in zip(self.iter_s, self.iter_probe)]
        return sum(ratios) / len(ratios)


# The probe: a fixed computation, half interpreted loop and half small-block
# numpy (einsum, np.add.at, batched 6x6 solves), ~5 ms. Timed between
# iterations on the same CPU, it tracks how fast the machine runs just then.
PROBE_GAP_S = 0.1  # at most one probe per this much solve time
# setup_s is scaled to a machine on which the probe takes this long, about
# its time on a 2-vCPU Xeon KVM guest at full speed.
PROBE_REF_S = 0.005
_PROBE_RNG = np.random.default_rng(0)
_PROBE_BLOCKS = _PROBE_RNG.standard_normal((512, 6, 6)) + 8 * np.eye(6)
_PROBE_VECS = _PROBE_RNG.standard_normal((512, 6))
_PROBE_ROWS = _PROBE_RNG.integers(0, 128, 512)


def probe() -> float:
    """Run the probe once; returns its time in s."""
    t0 = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    acc = np.zeros((128, 6))
    for _ in range(6):
        products = np.einsum("nij,nj->ni", _PROBE_BLOCKS, _PROBE_VECS)
        np.add.at(acc, _PROBE_ROWS, products)
        np.linalg.solve(_PROBE_BLOCKS, _PROBE_VECS[:, :, None])
    return time.perf_counter() - t0


class _Clock:
    """Iteration boundaries of one solve. At a boundary, when PROBE_GAP_S has
    passed since the last probe, the probe runs; its time is left out of the
    segments on both sides."""

    def __init__(self, probing: bool):
        self.probing = probing
        # (previous segment's end, next segment's start, probe s or None)
        self.marks: list = []
        self._last = -math.inf

    def boundary(self):
        end = time.perf_counter()
        probe_s = None
        if self.probing and end - self._last >= PROBE_GAP_S:
            probe_s, self._last = probe(), end
        self.marks.append((end, time.perf_counter(), probe_s))

    def split(self, t0: float, t1: float) -> tuple:
        """(segments, probe time in effect at each segment's start, total
        probe time) of a solve that ran from t0 to t1; without probing the
        probe times are an empty list."""
        starts = [t0] + [m[1] for m in self.marks]
        ends = [m[0] for m in self.marks] + [t1]
        probes, last = [None], None
        for _, _, probe_s in self.marks:
            last = probe_s if probe_s is not None else last
            probes.append(last)
        probe_total = sum(m[1] - m[0] for m in self.marks)
        return ([e - s for s, e in zip(starts, ends)],
                probes if self.probing else [], probe_total)


class _SetupDone(Exception):
    """Raised at the solver start to end a set-up-only pass."""


@contextmanager
def _solver_clock(stamps: list, clock: _Clock, stop: bool = False):
    """Time harness.run from outside, without tracing it.

    Appends to `stamps` the moment harness.run hands over to its solver (the
    end of GbpEngine construction, or the call into lm_solve), and marks on
    `clock` the iteration boundaries: the start of each GBP sweep, or the end
    of each avg_reprojection_px call, which lm_solve makes once at the start
    and once per accepted step. With `stop`, harness.run ends at the solver
    start."""
    init, iterate = GbpEngine.__init__, GbpEngine.iterate
    lm_solve, avg_px = harness.lm_solve, reference.avg_reprojection_px

    def started():
        stamps.append(time.perf_counter())
        if stop:
            raise _SetupDone

    def timed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started()

    def timed_iterate(self):
        clock.boundary()
        return iterate(self)

    def timed_lm_solve(*args, **kwargs):
        started()
        return lm_solve(*args, **kwargs)

    def timed_avg_px(*args, **kwargs):
        value = avg_px(*args, **kwargs)
        clock.boundary()
        return value

    GbpEngine.__init__, GbpEngine.iterate = timed_init, timed_iterate
    harness.lm_solve, reference.avg_reprojection_px = timed_lm_solve, timed_avg_px
    try:
        yield
    finally:
        GbpEngine.__init__, GbpEngine.iterate = init, iterate
        harness.lm_solve, reference.avg_reprojection_px = lm_solve, avg_px


def _run_harness(config, out_dir=None, probing=True) -> tuple:
    """(result, set-up time, run time, segments, probes) of one harness.run;
    the run time leaves out the probes."""
    stamps: list = []
    clock = _Clock(probing)
    with _solver_clock(stamps, clock):
        t0 = time.perf_counter()
        result = harness.run(dataclasses.replace(config, out_dir=out_dir))
        t1 = time.perf_counter()
    segments, probes, probe_total = clock.split(t0, t1)
    return result, stamps[0] - t0, t1 - t0 - probe_total, segments, probes


def harness_setup(config) -> float:
    """Set-up time of harness.run alone: inputs to the solver's start."""
    stamps: list = []
    with _solver_clock(stamps, _Clock(probing=False), stop=True):
        t0 = time.perf_counter()
        try:
            harness.run(config)
        except _SetupDone:
            pass
    return stamps[0] - t0


def _observations(result) -> int:
    return sum(len(p.point_ids) for p in result.packets)


def _harness_outcome(result, setup_s, run_s, segments, probes) -> Outcome:
    s = result.summary
    events = result.manager.events if result.manager is not None else []
    kinds = [e["event"] for e in events]
    out = Outcome(
        setup_s=setup_s,
        run_s=run_s,
        iterations=s["n_iterations"],
        final_px=float(s["final_avg_reproj_px"]),
        final_factors=s["final_census"]["n_factors"],
        ate_cm=float(s["ate_cm"]),
        segments=segments,
        # Between the set-up and the tail, a segment holds one iteration.
        iter_s=segments[1:-1],
        iter_probe=probes[1:-1],
        planes_confirmed=s["n_confirmed"],
    )
    out.counts = {
        "graph.journal_events": len(result.graph.journal),
        "abstraction.events.confirm": kinds.count("confirm"),
        "abstraction.events.reject": kinds.count("reject"),
        "abstraction.events.merge": kinds.count("merge"),
    }
    return out


def _check_finite(out: Outcome):
    for name in ("final_px", "ate_cm"):
        if not np.isfinite(getattr(out, name)):
            out.failures.append(f"{name} is not finite")


# -- slam_wall -------------------------------------------------------------

def slam_wall_inputs(seed, toy=False):
    scene = (wall_scene(seed, n_keyframes=4, points_per_plane=10, n_clutter=8)
             if toy else wall_scene(seed))
    return desk_config(scene, seed, solver="gbp", planes=True, compression=True)


def slam_wall_solve(config, out_dir, probing=True) -> Outcome:
    result, *timing = _run_harness(config, out_dir, probing)
    out = _harness_outcome(result, *timing)
    lim = LIMITS["slam_wall"]
    _check_finite(out)
    if out.planes_confirmed != lim["planes_confirmed"]:
        out.failures.append(f"{out.planes_confirmed} planes confirmed, "
                            f"expected {lim['planes_confirmed']}")
    if result.summary["n_rejected"] != lim["planes_rejected"]:
        out.failures.append(f"{result.summary['n_rejected']} planes rejected")
    # The raw graph holds one factor per observation plus the scale anchor.
    raw = _observations(result) + 1
    if out.final_factors > lim["max_compressed_share"] * raw:
        out.failures.append(f"{out.final_factors} final factors against "
                            f"{raw} uncompressed: no compression")
    if not out.ate_cm < lim["max_ate_cm"]:
        out.failures.append(f"ATE {out.ate_cm:.3f} cm over {lim['max_ate_cm']} cm")
    return out


# -- slam_stream -----------------------------------------------------------

def slam_stream_inputs(seed, toy=False):
    scene = (ba_scene(seed, n_keyframes=5, points_per_plane=30, n_clutter=20)
             if toy else ba_scene(seed, n_keyframes=16, points_per_plane=150,
                                  n_clutter=100))
    # keyframe_interval 50 at iteration scale 0.1: a keyframe every 5 sweeps.
    return desk_config(scene, seed, solver="gbp-routed", planes=False,
                       keyframe_interval=50)


def slam_stream_solve(config, out_dir, probing=True) -> Outcome:
    result, *timing = _run_harness(config, out_dir, probing)
    out = _harness_outcome(result, *timing)
    lim = LIMITS["slam_stream"]
    _check_finite(out)
    expected = _observations(result) + 1
    if out.final_factors != expected:
        out.failures.append(f"{out.final_factors} final factors, expected "
                            f"{expected} (observations + anchor prior)")
    if not out.ate_cm < lim["max_ate_cm"]:
        out.failures.append(f"ATE {out.ate_cm:.3f} cm over {lim['max_ate_cm']} cm")
    if not out.final_px < lim["max_final_px"]:
        out.failures.append(f"final {out.final_px:.3f} px over "
                            f"{lim['max_final_px']} px")
    return out


# -- ba_static -------------------------------------------------------------

BA_STATIC_SWEEPS = 60


@dataclass
class StaticInputs:
    config: ExperimentConfig
    scene: object
    packets: list
    sweeps: int


def ba_static_inputs(seed, toy=False):
    spec = (ba_scene(seed, n_keyframes=3, points_per_plane=30, n_clutter=20)
            if toy else ba_scene(seed, n_keyframes=10, points_per_plane=400,
                                 n_clutter=300))
    config = desk_config(spec, seed, planes=False)
    scene = generate_scene(spec)
    packets = [scene.emit_keyframe(k) for k in range(spec.n_keyframes)]
    return StaticInputs(config, scene, packets, 15 if toy else BA_STATIC_SWEEPS)


def _ba_static_build(inputs: StaticInputs):
    graph, state = harness.build_ba_graph(
        inputs.config, inputs.packets, inputs.scene.camera,
        point_noise=0.05, scene=inputs.scene,
    )
    return graph, state, GbpEngine(graph, inputs.config.gbp)


def ba_static_setup(inputs: StaticInputs) -> float:
    t0 = time.perf_counter()
    _ba_static_build(inputs)
    return time.perf_counter() - t0


def ba_static_solve(inputs: StaticInputs, out_dir, probing=True) -> Outcome:
    clock = _Clock(probing)
    t0 = time.perf_counter()
    graph, state, engine = _ba_static_build(inputs)
    reports = []
    for _ in range(inputs.sweeps):
        clock.boundary()
        reports.append(engine.iterate())
    t1 = time.perf_counter()
    segments, probes, probe_total = clock.split(t0, t1)

    means = engine.means()
    est = np.stack([Pose(means[v]).inverse().t for v in state.keyframe_vars])
    gt = np.stack([Pose(np.asarray(p.true_pose, float)).inverse().t
                   for p in inputs.packets])
    out = Outcome(
        setup_s=segments[0],
        run_s=t1 - t0 - probe_total,
        iterations=len(reports),
        final_px=float(reports[-1].avg_reproj_px),
        final_factors=len(graph.factors),
        ate_cm=float(ate(est, gt).rms_cm),
        segments=segments,
        iter_s=segments[1:],
        iter_probe=probes[1:],
    )
    out.counts = {"graph.journal_events": len(graph.journal)}
    _check_finite(out)
    if not all(np.all(np.isfinite(m)) for m in means.values()):
        out.failures.append("non-finite means")
    if not out.final_px < reports[0].avg_reproj_px:
        out.failures.append(f"final {out.final_px:.3f} px not below the first "
                            f"sweep's {reports[0].avg_reproj_px:.3f} px")
    return out


# -- lm_ba -----------------------------------------------------------------

def lm_ba_inputs(seed, toy=False):
    scene = (ba_scene(seed, n_keyframes=3, points_per_plane=20, n_clutter=10)
             if toy else ba_scene(seed))
    return desk_config(scene, seed, solver="lm", planes=False)


def lm_ba_solve(config, out_dir, probing=True) -> Outcome:
    result, *timing = _run_harness(config, probing=probing)
    out = _harness_outcome(result, *timing)
    # The first trace row is the initial cost, not an LM step.
    out.iterations = len(result.reports) - 1
    lim = LIMITS["lm_ba"]
    _check_finite(out)
    if not result.summary["lm_converged"]:
        out.failures.append("LM did not converge")
    if not out.ate_cm < lim["max_ate_cm"]:
        out.failures.append(f"ATE {out.ate_cm:.3f} cm over {lim['max_ate_cm']} cm")
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object  # (seed, toy) -> inputs
    setup: object  # inputs -> set-up time in s, without solving
    solve: object  # (inputs, out_dir or None, probing) -> Outcome
    writes_artifacts: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("slam_wall", slam_wall_inputs, harness_setup, slam_wall_solve, True),
        Workload("slam_stream", slam_stream_inputs, harness_setup,
                 slam_stream_solve, True),
        Workload("ba_static", ba_static_inputs, ba_static_setup, ba_static_solve,
                 False),
        Workload("lm_ba", lm_ba_inputs, harness_setup, lm_ba_solve, False),
    )
}
