import dataclasses
import json
import math

import numpy as np
import pytest
from jsonschema import validate

from planegbp import harness, io_formats
from planegbp.abstraction import AbstractionManager
from planegbp.cli import main as cli_main
from planegbp.errors import CapacityError
from planegbp.harness import ExperimentConfig, compare_runs, export_reconstruction, run
from planegbp.frontend import box_room_spec, generate_scene
from planegbp.geometry import PlaneParams
from planegbp.graph import (
    COMBINED_RIGID_REPROJECTION,
    FACTOR_KINDS,
    RIGID_REPROJECTION,
    FactorGraph,
)
from conftest import graph_signature
from scenes import ba_scene, desk_config, wall_scene


def small_config(seed=3, **kw):
    scene = wall_scene(seed, n_keyframes=4, points_per_plane=10, n_clutter=8)
    cfg = desk_config(scene, seed, **kw)
    cfg.max_iterations = 250
    return cfg


def test_build_ba_graph_replays_from_its_journal():
    # The noisy starts of points, priors and the scale anchor are drawn
    # before the first edit, so the journal replays the graph the solvers see.
    spec = ba_scene(1, n_keyframes=3, points_per_plane=30, n_clutter=20)
    scene = generate_scene(spec)
    packets = [scene.emit_keyframe(k) for k in range(spec.n_keyframes)]
    graph, _ = harness.build_ba_graph(desk_config(spec, 1, planes=False), packets,
                                      scene.camera, point_noise=0.05, scene=scene)
    replayed = FactorGraph.replay(graph.journal, scene.camera)
    assert graph_signature(replayed) == graph_signature(graph)
    for vid, node in graph.variables.items():
        twin = replayed.variables[vid].belief
        assert np.array_equal(twin.eta, node.belief.eta)
        assert np.array_equal(twin.lam, node.belief.lam)


def test_run_emits_all_artifacts(tmp_path):
    cfg = small_config()
    cfg.out_dir = str(tmp_path / "run")
    result = run(cfg)
    out = tmp_path / "run"
    for name in ("config.json", "iterations.csv", "census.csv", "events.json",
                 "graph.json", "trajectory_est.txt", "trajectory_gt.txt",
                 "reconstruction.json", "summary.json", "packets.json"):
        assert (out / name).exists(), name
    validate(json.loads((out / "graph.json").read_text()), io_formats.GRAPH_SCHEMA)
    validate(json.loads((out / "events.json").read_text()), io_formats.EVENT_LOG_SCHEMA)
    validate(json.loads((out / "reconstruction.json").read_text()),
             io_formats.RECONSTRUCTION_SCHEMA)
    validate(json.loads((out / "summary.json").read_text()), io_formats.SUMMARY_SCHEMA)
    rows = io_formats.read_csv(out / "iterations.csv")
    assert len(rows) == result.summary["n_iterations"]
    assert list(rows[0]) == io_formats.ITERATION_FIELDS
    assert {"marginalisation_calls", "n_regularised"} <= set(rows[0])
    assert any(r["marginalisation_calls"] > 0 for r in rows)


def test_routed_run_emits_cost_csv(tmp_path):
    cfg = small_config(solver="gbp-routed")
    cfg.out_dir = str(tmp_path / "run")
    run(cfg)
    rows = io_formats.read_csv(tmp_path / "run" / "cost.csv")
    sweeps = io_formats.read_csv(tmp_path / "run" / "iterations.csv")
    assert list(rows[0]) == io_formats.COST_FIELDS
    assert all(r["n_routing_nodes"] == 10 for r in rows)
    assert len(rows) == len(sweeps)
    # Each routed (pairwise) edge carries one f2v and one v2f message per
    # sweep, 2 hops each; unary priors stay core-local.
    for cost, sweep in zip(rows, sweeps):
        assert cost["hops"] % 4 == 0
        assert cost["hops"] == 4 * sweep["marginalisation_calls"]
        assert (cost["hops"] > 0) == (sweep["n_factors"] > 0)
    assert any(r["hops"] > 0 for r in rows)


def test_converged_iteration_px_ignores_unmeasured_sweeps():
    # Before the two-view bootstrap the graph has no pixel factors; those
    # sweeps measure nothing and must not count as converged.
    result = run(small_config())
    first = next(r.iteration for r in result.reports if r.n_factors > 0)
    assert first > 0
    assert math.isnan(result.reports[0].avg_reproj_px)
    conv = result.summary["converged_iteration_px"]
    assert conv is None or conv >= first


def test_replay_identity(tmp_path):
    cfg = small_config()
    cfg.out_dir = str(tmp_path / "a")
    run(cfg)

    replay_cfg = dataclasses.replace(
        cfg, scene=None, replay_path=str(tmp_path / "a" / "packets.json"),
        out_dir=str(tmp_path / "b"),
    )
    run(replay_cfg)
    for name in ("iterations.csv", "events.json", "trajectory_est.txt",
                 "census.csv", "packets.json"):
        a = (tmp_path / "a" / name).read_text()
        b = (tmp_path / "b" / name).read_text()
        assert a == b, f"{name} differs between generated and replayed runs"


def test_ablation_nesting_initial_graph(tmp_path):
    # after the first structural tick, the planes-off graph equals the full
    # run's graph minus hypothesis variables and their factors
    full = small_config()
    full.max_iterations = 30  # exactly the bootstrap tick
    r_full = run(full)
    bare = small_config(planes=False)
    bare.max_iterations = 30
    r_bare = run(bare)
    cf = r_full.graph.snapshot_census()
    cb = r_bare.graph.snapshot_census()
    n_hyp = cf["variables"]["plane_hypothesis"]
    assert n_hyp > 0
    assert cb["variables"]["plane_hypothesis"] == 0
    assert cb["n_variables"] == cf["n_variables"] - n_hyp
    n_hyp_factors = cf["factors"]["plane_point"] + cf["factors"]["plane_prediction"]
    assert cb["n_factors"] == cf["n_factors"] - n_hyp_factors


def test_compare_run_with_itself_zero_differences(tmp_path):
    cfg = small_config()
    cfg.out_dir = str(tmp_path / "a")
    run(cfg)
    comparison = compare_runs([tmp_path / "a", tmp_path / "a"])
    assert comparison["runs"][0] == {**comparison["runs"][1],
                                     "dir": comparison["runs"][0]["dir"]}


def test_lm_solver_path(tmp_path):
    cfg = small_config(solver="lm")
    cfg.robust = None
    cfg.out_dir = str(tmp_path / "lm")
    result = run(cfg)
    assert result.summary["solver"] == "lm"
    assert result.summary["lm_converged"]
    out = tmp_path / "lm"
    assert sorted(p.name for p in out.iterdir()) == sorted([
        "config.json", "iterations.csv", "census.csv", "events.json", "graph.json",
        "trajectory_est.txt", "trajectory_gt.txt", "reconstruction.json",
        "summary.json", "packets.json",
    ])
    validate(json.loads((out / "events.json").read_text()), io_formats.EVENT_LOG_SCHEMA)
    validate(json.loads((out / "reconstruction.json").read_text()),
             io_formats.RECONSTRUCTION_SCHEMA)
    validate(json.loads((out / "summary.json").read_text()), io_formats.SUMMARY_SCHEMA)
    assert io_formats.read_csv(out / "census.csv") == []
    rows = io_formats.read_csv(out / "iterations.csv")
    assert len(rows) >= 2
    assert len(rows) == len(result.reports)


def test_export_reconstruction_box_room(tmp_path):
    spec = box_room_spec(points_per_plane=14, seed=4, pixel_sigma=0.4,
                         n_keyframes=6)
    spec.traj_span_deg = 40.0
    cfg = desk_config(spec, 4)
    cfg.priors.default_depth = 1.8
    result = run(cfg)
    recon = export_reconstruction(result.graph)
    assert 1 <= len(recon["planes"]) <= 6
    for plane in recon["planes"]:
        n = np.asarray(plane["normal"])
        assert np.isclose(np.linalg.norm(n), 1.0)
        for v in plane["hull"]:
            # hull vertices satisfy the plane equation by construction
            assert abs(n @ np.asarray(v) - plane["distance"]) < 3 * 0.05


def confirmed_map(seed=1):
    """Keyframes 0 and 1 bootstrapped, then every plane hypothesis confirmed
    at means that put its members on it; returns the harness pieces, the
    confirmation means and the rigid id of each hypothesis."""
    cfg = desk_config(wall_scene(seed, n_keyframes=4), seed)
    packets, camera = harness._packets_for(cfg)
    graph = FactorGraph(camera=camera)
    state = harness._SlamState()
    manager = AbstractionManager(graph, cfg.abstraction, cfg.seed)
    harness._add_keyframe_variable(graph, state, cfg, packets[0])
    harness._bootstrap_two_view(graph, state, manager, cfg, packets[0], packets[1],
                                30, camera)
    means = {vid: node.mean.copy() for vid, node in graph.variables.items()}
    bodies = {}
    for hyp in list(manager.hypotheses.values()):
        plane = PlaneParams(means[hyp.variable_id])
        for pid in hyp.plane_point_factor_ids:
            means[pid] = means[pid] - plane.normal * (plane.normal @ means[pid]
                                                      - plane.distance)
        for pid in manager.live_members(hyp):
            bodies[pid] = hyp
        manager.confirm_hypothesis(hyp, means, 500, 1.0)
    return cfg, packets, camera, graph, state, manager, means, bodies


def keyframe_rows(graph, kf):
    """(other variable, pixel, p_conv or None) of every pixel row on kf."""
    rows = []
    for fid in graph.variables[kf].factor_ids:
        fac = graph.factors[fid]
        if not FACTOR_KINDS[fac.kind].pixel:
            continue
        other = fac.adjacency[1]
        if fac.kind == COMBINED_RIGID_REPROJECTION:
            rows += [(other, z, p) for z, p in fac.constituents()]
        else:
            rows.append((other, fac.measurement, fac.payload.get("p_conv")))
    return rows


def test_later_views_of_absorbed_points_reach_their_rigid_body():
    cfg, packets, camera, graph, state, manager, means, hyps = confirmed_map()
    # point variable ids are not the scene's point ids
    assert all(var != pid for pid, var in state.point_var.items())
    packet = packets[2]
    kf = harness._add_keyframe(graph, state, manager, cfg, packet, 60, camera)
    rows = keyframe_rows(graph, kf)
    assert len(rows) == len(packet.point_ids)  # no observation is dropped
    seen = 0
    for pid, pixel in zip(packet.point_ids, packet.pixels):
        var = state.point_var[int(pid)]
        if var in graph.variables:
            continue
        seen += 1
        rigid_id = hyps[var].rigid_id
        hits = [p for other, z, p in rows if other == rigid_id and np.array_equal(z, pixel)]
        # this point's rigid body, this point's baked position
        assert len(hits) == 1 and np.array_equal(hits[0], means[var])
    assert seen >= 20


def test_later_keyframe_combines_its_rigid_reprojections_per_body():
    cfg, packets, camera, graph, state, manager, means, hyps = confirmed_map()
    kf = harness._add_keyframe(graph, state, manager, cfg, packets[2], 60, camera)
    per_body = {}
    for fid in graph.variables[kf].factor_ids:
        fac = graph.factors[fid]
        if fac.kind in (RIGID_REPROJECTION, COMBINED_RIGID_REPROJECTION):
            per_body.setdefault(fac.adjacency[1], []).append(fac)
    assert len(per_body) >= 2
    for body, facs in per_body.items():
        assert [f.kind for f in facs] == [COMBINED_RIGID_REPROJECTION], body
        assert len(facs[0].constituents()) >= 2


def test_empty_reconstruction_without_confirmations(tmp_path):
    cfg = small_config(planes=False)
    result = run(cfg)
    recon = export_reconstruction(result.graph)
    assert recon["planes"] == []
    assert len(recon["raw_points"]) > 0


# -- CLI ------------------------------------------------------------------------

def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    io_formats.write_json(path, "experiment-config", cfg.to_dict())
    return str(path)


def test_cli_run_compare_export(tmp_path, capsys):
    cfg = small_config()
    path = write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "r1")]) == 0
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "r2"),
                     "--no-planes"]) == 0
    assert cli_main(["compare", str(tmp_path / "r1"), str(tmp_path / "r2"),
                     "--out", str(tmp_path / "cmp.json")]) == 0
    doc = io_formats.read_json(tmp_path / "cmp.json", "comparison")
    assert len(doc["runs"]) == 2
    assert cli_main(["export", "--graph", str(tmp_path / "r1" / "graph.json"),
                     "--out", str(tmp_path / "recon.json")]) == 0
    io_formats.read_json(tmp_path / "recon.json", "reconstruction")


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing_field = tmp_path / "cfg.json"
    missing_field.write_text(json.dumps({
        "format": "experiment-config", "version": 1, "solver": "warp-drive",
    }))
    assert cli_main(["run", "--config", str(missing_field),
                     "--out", str(tmp_path)]) == 2


def test_cli_missing_replay_file_is_config_error(tmp_path):
    cfg = small_config(solver="gbp-routed")
    # the replay file is missing only once the config has been parsed
    cfg.scene = None
    cfg.replay_path = str(tmp_path / "nope.json")
    path = write_config(tmp_path, cfg)
    code = cli_main(["run", "--config", path, "--out", str(tmp_path / "x")])
    assert code == 2  # missing inputs are configuration errors


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch):
    def exhausted(config):
        raise CapacityError("pool 'reprojection' exhausted (capacity 0)")

    monkeypatch.setattr(harness, "run", exhausted)
    path = write_config(tmp_path, small_config(solver="gbp-routed"))
    code = cli_main(["run", "--config", path, "--out", str(tmp_path / "x")])
    assert code == 3
