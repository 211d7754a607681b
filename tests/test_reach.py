"""Every function of the package is reached by a run, or listed with why not.

The toy runs below cover what a user of the program reaches: the CLI's run
(routed GBP on a scene whose planes are confirmed and merged), compare and
export; an LM run replayed from a packet file; and the static bundle-
adjustment build with a few sweeps. A profiler hook records the code of every
call into `src/planegbp`. The module-level functions and the methods defined
in a class body that no run calls must be exactly `UNREACHED`: a function that
no run reaches any more must be deleted or listed with its reason, and a
listed one that a run reaches must leave the list. Likewise, the fields of
the config classes must be exactly `SETTINGS`.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import pytest

import planegbp
from planegbp import io_formats
from planegbp.abstraction import AbstractionConfig
from planegbp.cli import main as cli_main
from planegbp.engine import GbpConfig, GbpEngine
from planegbp.frontend import PlaneSpec, SceneSpec, generate_scene
from planegbp.harness import ExperimentConfig, PriorConfig, build_ba_graph
from planegbp.routing import PoolConfig
from scenes import desk_config, merge_scene, wall_scene

SRC = Path(planegbp.__file__).parent

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

PIN = "a bench/spans.py pin: the benchmark's tracer wraps it by name"
ORACLE = "a reference oracle of the tests"
INVARIANT = "an invariant check, safety code the tests run"
VALUE = "a small value-type convenience"

UNREACHED = {
    "factors.evaluate_factor": PIN,
    "factors.own_poses": PIN + " (evaluate_factor's poses)",
    "gaussians.BlockLayout.slice_of": PIN,
    "factors.eval_linear_batch": ORACLE + " (the linear kind's kernel)",
    "reference.dense_marginals": ORACLE,
    "graph.FactorGraph.replay": ORACLE + " (journal replay)",
    "graph.FactorGraph.check_integrity": INVARIANT,
    "routing.RoutingSimulator.routing_entry_count": INVARIANT,
    "routing.RoutingSimulator.slot_conservation_ok": INVARIANT,
    "gaussians.GaussianInfo.allclose": VALUE,
    "gaussians.GaussianMoments.dim": VALUE,
    "geometry.Pose.identity": VALUE,
    "geometry.Pose.T": VALUE,
    "graph.FactorNode.arity": VALUE,
}

# Every settable value of a run, by config class.
SETTINGS = {
    ExperimentConfig: ("scene", "replay_path", "solver", "planes", "compression", "seed",
                       "keyframe_interval", "max_iterations", "gbp", "abstraction", "priors",
                       "out_dir"),
    GbpConfig: ("damping", "dropout", "beta", "seed"),
    AbstractionConfig: ("test_period", "merge_period", "iteration_scale"),
    PriorConfig: ("default_depth", "bootstrap_t_sigma", "bootstrap_r_sigma"),
    PoolConfig: ("max_variables", "max_factors", "max_edges_per_variable"),
    SceneSpec: ("planes", "n_clutter", "clutter_low", "clutter_high",
                "clutter_min_plane_distance", "n_keyframes", "traj_radius", "traj_span_deg",
                "lookat", "camera", "pixel_sigma", "outlier_rate", "spurious_rate",
                "spurious_members", "seed"),
    PlaneSpec: ("normal", "d", "center", "extent", "n_points"),
}


def defined() -> set:
    """module.qualname of every module-level def and every def in a class body."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                out.update(f"{path.stem}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef))
    return out


def toy_runs(tmp_path):
    def cli(*args):
        assert cli_main([str(a) for a in args]) == 0, args

    def config(cfg):
        path = tmp_path / f"{cfg.solver}.json"
        io_formats.write_json(path, "experiment-config", cfg.to_dict())
        return path

    gbp, lm = tmp_path / "gbp", tmp_path / "lm"
    # seed 2: one plane rejected, two confirmed and merged
    cli("run", "--config", config(desk_config(merge_scene(2), 2)), "--solver", "gbp-routed",
        "--out", gbp)
    replay = ExperimentConfig(replay_path=str(gbp / "packets.json"), solver="lm", seed=2,
                              gbp=GbpConfig(seed=2))
    cli("run", "--config", config(replay), "--out", lm)
    cli("compare", gbp, lm, "--out", tmp_path / "compare.json")
    cli("export", "--graph", gbp / "graph.json")

    # spurious proposals reach the scene's far-plane draw; the static graph ignores them
    spec = wall_scene(2, n_keyframes=3, spurious_rate=0.4, points_per_plane=10, n_clutter=8)
    scene = generate_scene(spec)
    cfg = desk_config(spec, 2, planes=False)
    graph, _ = build_ba_graph(cfg, [scene.emit_keyframe(k) for k in range(3)], scene.camera)
    engine = GbpEngine(graph, cfg.gbp)
    for _ in range(3):
        engine.iterate()


def reached_in(run, *args) -> set:
    """module.qualname of every function of the package that `run` calls."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
            if Path(c.co_filename).parent == SRC}


def test_every_function_a_run_skips_is_listed_with_its_reason(tmp_path):
    unreached = defined() - reached_in(toy_runs, tmp_path)
    assert sorted(unreached) == sorted(UNREACHED)


def test_every_setting_is_listed():
    fields = {(cls.__name__, f.name) for cls in SETTINGS for f in dataclasses.fields(cls)}
    listed = {(cls.__name__, name) for cls, names in SETTINGS.items() for name in names}
    assert fields == listed
    assert len(listed) == 45
