"""Scene and config builders shared by the harness and acceptance tests.

The geometry keeps the problem inside the robust-loss capture basin: camera
baselines small enough that bootstrap depth errors stay below the Tukey
cutoff of the reprojection model, total parallax wide enough that converged
depth noise sits below the plane-membership likelihood gate.
"""

from planegbp.abstraction import AbstractionConfig
from planegbp.engine import GbpConfig
from planegbp.frontend import PlaneSpec, SceneSpec
from planegbp.harness import ExperimentConfig

# All desk-scale runs shrink the iteration thresholds of the hypothesis
# schedule by this factor (t_min 4000 -> 400, t_max 6000 -> 600).
ITERATION_SCALE = 0.1


def wall_scene(seed, n_keyframes=6, spurious_rate=0.0, pixel_sigma=0.5,
               points_per_plane=16, n_clutter=15):
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
        pixel_sigma=pixel_sigma,
        seed=seed,
        spurious_rate=spurious_rate,
        spurious_members=6,
    )


def desk_config(scene, seed, solver="gbp", planes=True, compression=True,
                **overrides):
    cfg = ExperimentConfig(
        scene=scene,
        solver=solver,
        seed=seed,
        planes=planes,
        compression=compression,
        gbp=GbpConfig(damping=0.4, dropout=0.7, beta=1e-4, seed=seed),
        abstraction=AbstractionConfig(
            test_period=2000, merge_period=2000, iteration_scale=ITERATION_SCALE
        ),
    )
    cfg.priors.default_depth = 5.5
    cfg.priors.bootstrap_t_sigma = 0.005
    cfg.priors.bootstrap_r_sigma = 0.001
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def ba_scene(seed, n_keyframes=5, points_per_plane=80, n_clutter=60,
             pixel_sigma=1.0):
    """Desk-scale bundle-adjustment scene (~300 points, ~1500 observations)."""
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
        pixel_sigma=pixel_sigma,
        seed=seed,
    )
